"""Self-contained verification suites behind the CLI ``verify`` command.

Each suite draws randomized instances (seeded), checks an exact guarantee
on every one, and reports a violation count.  A nonzero count means the
implementation, not the instance, is wrong.  A check counts as passed
only when its guarantee holds, so a NaN comparison is a violation.
"""

import functools
import itertools
import math

import numpy as np

from .codes import (
    encode,
    extended_hamming_8_4,
    hamming_7_4,
    min_distance,
    qid_code,
    repetition_code,
    syndrome,
    syndrome_decode,
)
from .distributions import JointDistribution
from .entropy import min_entropy, psucc_classical, split_binary, split_multi
from .hashing import collision_bound, hash_apply, pa_distance, random_hash
from . import gf2

# the share of a random table's cells that _random_table zeroes
_ZERO_FRACTION = 0.15


def _random_table(rng, sizes, names):
    probs = rng.random(sizes)
    probs[rng.random(sizes) < _ZERO_FRACTION] = 0.0
    if probs.sum() == 0.0:
        probs.flat[0] = 1.0
    probs /= probs.sum()
    return JointDistribution(list(zip(names, sizes)), probs)


def _tally(checks):
    """The suite report of a generator yielding one outcome per check.

    An outcome is whether the check's guarantee holds; the suite is named
    after the generator, without its ``verify_`` prefix.
    """
    @functools.wraps(checks)
    def suite(*args, **kwargs):
        outcomes = list(checks(*args, **kwargs))
        return {"suite": checks.__name__.removeprefix("verify_"),
                "checks": len(outcomes),
                "violations": sum(not ok for ok in outcomes)}
    return suite


@_tally
def verify_split(trials=10000, seed=7):
    """Both index-selection constructions meet their guarantees."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        sizes = (int(rng.integers(2, 9)), int(rng.integers(2, 9)),
                 int(rng.integers(1, 5)))
        d = _random_table(rng, sizes, ["X0", "X1", "Z"])
        alpha = min_entropy(d, ["X0", "X1"], "Z")
        res = split_binary(d, alpha, given="Z")
        yield res.achieved >= alpha / 2.0 - 1.0 - 1e-9
    for m in (2, 3, 4):
        names = [f"X{i + 1}" for i in range(m)] + ["Z"]
        for _ in range(trials // 4):
            sizes = tuple(int(rng.integers(2, 5)) for _ in range(m)) + (
                int(rng.integers(1, 4)),)
            d = _random_table(rng, sizes, names)
            alpha = min(
                min_entropy(d, [names[i], names[j]], "Z")
                for i in range(m) for j in range(i + 1, m))
            res = split_multi(d, alpha, parts=names[:-1], given="Z")
            yield res.achieved >= alpha / 2.0 - math.log2(m) - 1.0 - 1e-9


@_tally
def verify_hashing(trials=200, seed=7):
    """Exhaustive two-universality plus linearity spot checks."""
    rng = np.random.default_rng(seed)
    for n in range(1, 7):
        for ell in range(1, min(n, 3) + 1):
            yield collision_bound(n, ell) <= 2.0 ** -ell + 1e-15
    for _ in range(trials):
        h = random_hash(int(rng.integers(2, 12)), 2, rng)
        x = rng.integers(0, 2, h.n, dtype=np.uint8)
        y = rng.integers(0, 2, h.n, dtype=np.uint8)
        yield np.array_equal(hash_apply(h, x ^ y),
                             hash_apply(h, x) ^ hash_apply(h, y))


@_tally
def verify_pa(trials=1000, seed=7):
    """Empirical hash-output distance never beats its guarantee.

    The guarantee bounds the average over the whole hash family; each
    instance is checked with the mean over 16 hashes sampled in one
    :func:`pa_distance` call, so a 3-sigma allowance for the sampling
    error applies.
    """
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n_bits = int(rng.integers(2, 5))
        side = int(rng.integers(1, 5))
        probs = rng.random((2 ** n_bits, side)) + 1e-4
        probs /= probs.sum()
        d = JointDistribution([("X", 2 ** n_bits), ("E", side)], probs)
        ell = int(rng.integers(1, n_bits + 1))
        draws, bound = pa_distance(d, ell=ell, sample_count=16, rng=rng)
        mean = float(np.mean(draws))
        sem = float(np.std(draws)) / math.sqrt(16)
        yield mean <= bound + 3.0 * sem + 1e-12


@_tally
def verify_lemma4(trials=300, seed=7):
    """Min-entropy kept through a lossy channel is bounded by its decoding power.

    Plain form: H_min(X | F(Q)) >= -log2 psucc(F, floor(H_min(X))).
    Smoothed form with extra classical side information T:
    H_min^(e+e')(X | T, F(Q)) >= -log2 psucc(F, floor(H_min^e(X|T) - log2(1/e'))).
    """
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n_x = int(rng.integers(2, 8))
        n_q = int(rng.integers(2, 6))
        n_o = int(rng.integers(2, 6))
        joint = rng.random((n_x, n_q)) + 1e-4
        joint /= joint.sum()
        channel = rng.random((n_o, n_q)) + 0.05
        channel /= channel.sum(axis=0, keepdims=True)
        out = joint @ channel.T
        d = JointDistribution([("X", n_x), ("O", n_o)], out)
        h_x = min_entropy(
            JointDistribution([("X", n_x)], joint.sum(axis=1)), "X")
        k = max(0, min(3, int(math.floor(h_x))))
        yield (min_entropy(d, "X", "O")
               >= -math.log2(psucc_classical(channel, k)) - 1e-9)
    for _ in range(trials):
        n_x = int(rng.integers(2, 8))
        n_t = int(rng.integers(1, 4))
        n_q = int(rng.integers(2, 5))
        n_o = int(rng.integers(2, 5))
        joint = rng.random((n_x, n_t, n_q)) + 1e-4
        joint /= joint.sum()
        channel = rng.random((n_o, n_q)) + 0.05
        channel /= channel.sum(axis=0, keepdims=True)
        out = np.einsum("xtq,oq->xto", joint, channel)
        d_out = JointDistribution([("X", n_x), ("T", n_t), ("O", n_o)], out)
        d_in = JointDistribution([("X", n_x), ("T", n_t)], joint.sum(axis=2))
        for eps, eps2 in ((0.0, 0.25), (0.05, 0.1), (0.1, 0.25)):
            budget = min_entropy(d_in, "X", "T", eps=eps) - math.log2(1.0 / eps2)
            k = max(0, min(3, int(math.floor(budget))))
            lhs = min_entropy(d_out, "X", ["T", "O"], eps=eps + eps2)
            rhs = -math.log2(psucc_classical(channel, k))
            yield lhs >= rhs - 1e-9


def _python_int_distance(generator):
    """Least weight of a nonzero codeword over Python ints, as an oracle
    for :func:`codes.min_distance`: rows become ints, messages XOR them."""
    rows = [int("".join(map(str, row.tolist())), 2) for row in generator]
    return min(bin(functools.reduce(int.__xor__, message)).count("1")
               for size in range(1, len(rows) + 1)
               for message in itertools.combinations(rows, size))


@_tally
def verify_codes(seed=7):
    """Catalog invariants: orthogonality, exact distances, decoding radius.

    Each code's 40 words are drawn one at a time, message, then error
    weight, then error positions, as they always were; then the stacks of
    messages and errors run through one ``encode``, one ``syndrome`` and
    one ``syndrome_decode``, and each word is one check.
    """
    rng = np.random.default_rng(seed)
    catalog = [repetition_code(3), repetition_code(5), hamming_7_4(),
               extended_hamming_8_4(), qid_code(16, 7).code,
               qid_code(8, 12).code]
    for code in catalog:
        yield not gf2.matmul(code.parity, code.generator.T).any()
        yield (code.min_distance == min_distance(code)
               == _python_int_distance(code.generator))
        t = (code.min_distance - 1) // 2
        msgs = np.empty((40, code.k), dtype=np.uint8)
        errs = np.zeros((40, code.n), dtype=np.uint8)
        for msg, err in zip(msgs, errs):
            msg[:] = rng.integers(0, 2, code.k, dtype=np.uint8)
            weight = int(rng.integers(0, t + 1))
            err[rng.choice(code.n, size=weight, replace=False)] = 1
        words = encode(code, msgs)
        fixed = syndrome_decode(code, words ^ errs, syndrome(code, words))
        yield from (fixed == words).all(axis=1).tolist()
    # distinct codewords for distinct passwords
    qc = qid_code(16, 8)
    yield len({qc.password_bases(w).tobytes() for w in range(1, 17)}) == 16


SUITES = {suite.__name__.removeprefix("verify_"): suite
          for suite in (verify_split, verify_hashing, verify_pa,
                        verify_lemma4, verify_codes)}
