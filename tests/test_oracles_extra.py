"""Independent brute-force oracles for the trickiest computations.

Everything here recomputes a guarantee with plain loops (no shared code
paths with the implementation) and demands exact agreement.
"""

import itertools
import math

import numpy as np
import pytest

from noisystorage.distributions import JointDistribution
from noisystorage.entropy import min_entropy, split_binary, split_multi
from noisystorage.hashing import hash_apply
from noisystorage.protocols import StoreAllBob, run_rot

from test_acceptance import lp_smooth_guessing_weight


def test_waterfilling_matches_lp_on_tie_heavy_tables():
    # repeated values, zero rows, and whole zero columns exercise every
    # tie-breaking branch of the greedy smoother
    tables = [
        np.array([[0.25, 0.25], [0.25, 0.25]]),
        np.array([[0.2, 0.2, 0.2], [0.2, 0.1, 0.1]]),
        np.array([[0.5, 0.0], [0.5, 0.0]]),
        np.array([[0.3, 0.3], [0.3, 0.1], [0.0, 0.0]]),
        np.array([[0.125] * 8] * 1).T,
    ]
    for table in tables:
        d = JointDistribution([("X", table.shape[0]), ("Y", table.shape[1])],
                              table)
        for eps in (0.0, 0.05, 0.2, 0.5, 0.9):
            got = 2.0 ** (-min_entropy(d, "X", "Y", eps=eps))
            want = lp_smooth_guessing_weight(table, eps)
            assert got == pytest.approx(want, abs=1e-9), (table, eps)


def split_binary_achieved_oracle(dist, alpha, given_size):
    """Literal loop evaluation of the selected-substring min-entropy."""
    probs = dist.probs  # (x0, x1, z)
    n0, n1, nz = probs.shape
    threshold = 2.0 ** (-alpha / 2.0)
    p_z = probs.sum(axis=(0, 1))
    p_x0_z = probs.sum(axis=1)
    total = 0.0
    for z in range(nz):
        if p_z[z] == 0.0:
            continue
        # selector per x0 at this z
        best0 = 0.0
        best1 = 0.0
        for x0 in range(n0):
            cond = p_x0_z[x0, z] / p_z[z]
            d_val = 0 if cond < threshold else 1
            if d_val == 0:
                best0 = max(best0, p_x0_z[x0, z])
        for x1 in range(n1):
            mass = 0.0
            for x0 in range(n0):
                cond = p_x0_z[x0, z] / p_z[z]
                if cond >= threshold:
                    mass += probs[x0, x1, z]
            best1 = max(best1, mass)
        total += best0 + best1
    return -math.log2(total)


def test_split_binary_achieved_against_literal_oracle():
    rng = np.random.default_rng(179)
    for _ in range(60):
        sizes = (int(rng.integers(2, 5)), int(rng.integers(2, 5)),
                 int(rng.integers(1, 4)))
        probs = rng.random(sizes)
        probs[rng.random(sizes) < 0.2] = 0.0
        if probs.sum() == 0:
            probs.flat[0] = 1.0
        probs /= probs.sum()
        d = JointDistribution([("X0", sizes[0]), ("X1", sizes[1]),
                               ("Z", sizes[2])], probs)
        alpha = float(rng.uniform(0.0, min_entropy(d, ["X0", "X1"], "Z")))
        res = split_binary(d, alpha, given="Z")
        want = split_binary_achieved_oracle(d, alpha, sizes[2])
        assert res.achieved == pytest.approx(want, abs=1e-12)


def split_multi_achieved_oracle(dist, alpha, parts):
    """Literal loop evaluation for the m-way construction, W uniform."""
    probs = dist.probs  # (x1..xm, z)
    m = len(parts)
    nz = probs.shape[-1]
    threshold = 2.0 ** (-alpha / 2.0)
    p_z = probs.sum(axis=tuple(range(m)))
    marginals = []
    for i in range(m):
        axes = tuple(a for a in range(m) if a != i)
        marginals.append(probs.sum(axis=axes))  # (|Xi|, z)

    def selector(cell, z):
        for j in range(m - 1):
            if p_z[z] > 0 and marginals[j][cell[j], z] / p_z[z] >= threshold:
                return j
        return m - 1

    total = 0.0
    for j in range(m):
        for i in range(m):
            if i == j:
                continue
            for z in range(nz):
                best = 0.0
                for xi in range(probs.shape[i]):
                    mass = 0.0
                    for cell in itertools.product(
                            *[range(s) for s in probs.shape[:-1]]):
                        if cell[i] != xi:
                            continue
                        if selector(cell, z) != j:
                            continue
                        mass += probs[cell + (z,)]
                    best = max(best, mass)
                total += best
    return -math.log2(total / (m - 1))


def test_split_multi_achieved_against_literal_oracle():
    rng = np.random.default_rng(181)
    for m in (2, 3):
        names = [f"X{i + 1}" for i in range(m)] + ["Z"]
        for _ in range(15):
            sizes = tuple(int(rng.integers(2, 4)) for _ in range(m)) + (2,)
            probs = rng.random(sizes)
            probs /= probs.sum()
            d = JointDistribution(list(zip(names, sizes)), probs)
            alpha = float(rng.uniform(0.5, 3.0))
            res = split_multi(d, alpha, parts=names[:-1], given="Z")
            want = split_multi_achieved_oracle(d, alpha, names[:-1])
            assert res.achieved == pytest.approx(want, abs=1e-12)


def leakage_nonuniformity_oracle(transcript, p_post, ell, n):
    """Loop recomputation of d(hidden hash | other hash, selector).

    Uses the receiver's product posterior over the unknown string given
    its post-reveal guesses, exactly as the estimator defines it.  The
    selector compares p^a (1-p)^(w-a) against p^(n/2) in exact
    coefficient space so that genuine ties resolve identically.
    """
    guesses = transcript.adversary["guesses"]
    i0, i1 = transcript.i0, transcript.i1
    f0, f1 = transcript.f0, transcript.f1
    log_p, log_q = math.log2(p_post), math.log2(1.0 - p_post)
    joint = {}
    for bits0 in itertools.product((0, 1), repeat=i0.size):
        w0 = 1.0
        agree = 0
        for b, g in zip(bits0, guesses[i0]):
            agree += b == g
            w0 *= p_post if b == g else 1.0 - p_post
        margin = (2 * agree - n) * log_p + 2 * (i0.size - agree) * log_q
        sel = 1 if margin >= 0.0 else 0
        s0 = tuple(hash_apply(f0, np.array(bits0, dtype=np.uint8)).tolist())
        for bits1 in itertools.product((0, 1), repeat=i1.size):
            w1 = 1.0
            for b, g in zip(bits1, guesses[i1]):
                w1 *= p_post if b == g else 1.0 - p_post
            s1 = tuple(hash_apply(f1, np.array(bits1, dtype=np.uint8)).tolist())
            if sel == 0:
                key = (0, s1, s0)  # (selector, known, hidden)
            else:
                key = (1, s0, s1)
            joint[key] = joint.get(key, 0.0) + w0 * w1
    known_mass = {}
    for (sel, known, _), w in joint.items():
        known_mass[(sel, known)] = known_mass.get((sel, known), 0.0) + w
    dist = 0.0
    for (sel, known), mass in known_mass.items():
        for hidden in itertools.product((0, 1), repeat=ell):
            w = joint.get((sel, known, hidden), 0.0)
            dist += abs(w - mass / 2 ** ell)
    return 0.5 * dist


def test_leakage_nonuniformity_matches_literal_oracle():
    # the estimator's stacked post-processing against the literal
    # posterior sum, at small n: one stack of ten runs
    from noisystorage.protocols import _hidden_nonuniformity, make_rng
    n, ell, r = 6, 2, 0.4
    p_post = (1.0 + r) / 2.0
    runs, want = [], []
    for seed in range(10):
        rng = make_rng(seed)
        t = run_rot(n, ell, c=0, bob=StoreAllBob(r), rng=rng)
        runs.append((t.adversary["guesses"], t.i0, t.i1, t.f0, t.f1))
        want.append(leakage_nonuniformity_oracle(t, p_post, ell, n))
    got = _hidden_nonuniformity(n, p_post, runs)
    assert got == pytest.approx(want, abs=1e-12)


def test_block_helpers_empty_input():
    from noisystorage.codes import repetition_code
    from noisystorage.protocols import block_correct, block_syndromes
    code = repetition_code(3)
    empty = np.zeros(0, dtype=np.uint8)
    syn = block_syndromes(code, empty)
    assert syn.size == 0
    assert block_correct(code, empty, syn).size == 0
