"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Each test also enforces its runtime budget.
"""

import itertools
import math
import time
from collections import Counter

import mpmath as mp
import numpy as np
import pytest

from noisystorage.bounds import (
    depolarizing_capacity,
    ot_epsilon,
    rate_curve,
    strong_converse_exponent,
    RobustParams,
)
from noisystorage.checks import _random_table
from noisystorage.codes import qid_code, repetition_code
from noisystorage.distributions import JointDistribution
from noisystorage.entropy import min_entropy, split_binary, split_multi
from noisystorage.hashing import collision_bound, pa_distance
from noisystorage.protocols import (
    estimate_leakage,
    honest_index_sets,
    qid_kappa,
    run_qid,
    run_robust_rot,
    run_rot,
)

from reference import oracle_smoothed_columns, qubit


def _passed(num, name, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, "criterion %d exceeded %ds (%.1fs)" % (
        num, budget, elapsed)
    print("ACCEPTANCE %d (%s): PASS in %.1fs" % (num, name, elapsed))


def test_criterion_1_formula_fidelity():
    started = time.time()
    # independent high-precision oracle for the closed form
    mp.mp.dps = 40

    def eps_hp(delta, n):
        delta, n = mp.mpf(delta), mp.mpf(n)
        rate = (delta / 4) ** 2 / (32 * (2 + mp.log(4 / delta, 2)) ** 2)
        return 2 * mp.e ** (-rate * n)

    oracle = float(eps_hp("0.0106", "1e10"))
    assert oracle == pytest.approx(5.67541229689e-9, rel=1e-9)
    got = ot_epsilon(0.0106, 1e10)
    assert abs(got - oracle) / oracle < 0.01
    # second operating point stays below the headline threshold
    assert ot_epsilon(0.000057588, 1e15) <= 1e-8
    # the threshold ambiguity between the one-sided error and the 2x
    # statement error is real and reported, not hidden
    assert got < 1e-8 < 2 * got
    print("  eps(0.0106, 1e10) = %.6g, statement error 2*eps = %.6g "
          "(threshold 1e-8 sits between them)" % (got, 2 * got))
    _passed(1, "formula fidelity", started, 1.0)


def test_criterion_2_capacity_and_exponent():
    started = time.time()
    assert depolarizing_capacity(qubit(1.0)) == 1.0
    assert depolarizing_capacity(qubit(0.0)) == 0.0
    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if depolarizing_capacity(qubit(mid)) < 0.25:
            lo = mid
        else:
            hi = mid
    assert abs(lo - 0.571) <= 0.005
    for r in np.arange(0.0, 0.95, 0.1):
        st = qubit(float(r))
        cap = depolarizing_capacity(st)
        assert strong_converse_exponent(cap, st) == 0.0
        assert strong_converse_exponent(cap * 0.5, st) == 0.0
        assert strong_converse_exponent(cap + 1e-6, st) > 0.0
    assert strong_converse_exponent(0.25, qubit(0.0)) == pytest.approx(
        0.25, abs=1e-6)
    _passed(2, "capacity and exponent", started, 10.0)


def test_criterion_3_rate_curve():
    started = time.time()
    grid = np.linspace(0.0, 0.9, 200)
    rows = rate_curve(1e10, 0.0106, 1.0, grid)
    assert len(rows) == 200
    assert rows[0]["ot_rate"] == pytest.approx(0.1197, abs=1e-3)
    rates = [row["ot_rate"] for row in rows if row["feasible"]]
    assert len(rates) > 50
    assert all(b < a for a, b in zip(rates, rates[1:]))
    _passed(3, "rate-curve reproduction", started, 10.0)


def test_criterion_4_min_entropy_splitting():
    started = time.time()
    rng = np.random.default_rng(2024)
    trials = 10 ** 4
    for _ in range(trials):
        sizes = (int(rng.integers(2, 9)), int(rng.integers(2, 9)),
                 int(rng.integers(1, 5)))
        d = _random_table(rng, sizes, ["X0", "X1", "Z"])
        alpha = min_entropy(d, ["X0", "X1"], "Z")
        res = split_binary(d, alpha, given="Z")
        assert res.achieved >= alpha / 2.0 - 1.0 - 1e-9
    for m in (2, 3, 4):
        names = [f"X{i + 1}" for i in range(m)] + ["Z"]
        for _ in range(trials):
            sizes = tuple(int(rng.integers(2, 9)) for _ in range(m)) + (
                int(rng.integers(1, 5)),)
            d = _random_table(rng, sizes, names)
            alpha = min(
                min_entropy(d, [names[i], names[j]], "Z")
                for i in range(m) for j in range(i + 1, m))
            res = split_multi(d, alpha, parts=names[:-1], given="Z")
            assert res.achieved >= alpha / 2.0 - math.log2(m) - 1.0 - 1e-9
    _passed(4, "min-entropy splitting", started, 60.0)


def test_criterion_5_smoothing_equals_lp():
    started = time.time()
    rng = np.random.default_rng(2025)
    for _ in range(10 ** 3):
        n_x = int(rng.integers(2, 9))
        n_y = int(rng.integers(1, 64 // n_x + 1))
        d = _random_table(rng, (n_x, n_y), ["X", "Y"])
        eps = float(rng.choice([0.0, 0.01, 0.05, 0.1, 0.3, 0.6]))
        got = 2.0 ** (-min_entropy(d, "X", "Y", eps=eps))
        want = oracle_smoothed_columns(d.grouped(["X"], ["Y"]), eps)
        assert got == pytest.approx(want, abs=1e-9)
    _passed(5, "smoothing equals LP optimum", started, 60.0)


def test_criterion_6_hashing():
    started = time.time()
    for n in range(1, 7):
        for ell in range(1, min(n, 3) + 1):
            assert collision_bound(n, ell) <= 2.0 ** -ell + 1e-15
    rng = np.random.default_rng(2026)
    seeds_per_instance = 16
    for _ in range(10 ** 3):
        n_bits = int(rng.integers(2, 5))
        side = int(rng.integers(1, 5))
        probs = rng.random((2 ** n_bits, side)) + 1e-4
        probs /= probs.sum()
        d = JointDistribution([("X", 2 ** n_bits), ("E", side)], probs)
        ell = int(rng.integers(1, n_bits + 1))
        draws = []
        bound = None
        for _ in range(seeds_per_instance):
            value, bound = pa_distance(d, ell=ell, sample_count=1, rng=rng)
            draws.append(value)
        mean = float(np.mean(draws))
        sem = float(np.std(draws)) / math.sqrt(seeds_per_instance)
        assert mean <= bound + 3.0 * sem + 1e-12
    _passed(6, "hashing guarantees", started, 60.0)


def test_criterion_7_protocol_correctness():
    started = time.time()
    # plain transfer: the receiver's output equals the chosen string; the
    # only deviation channel is an empty chosen index set (rate 2^-16)
    empties = 0
    for seed in range(10 ** 4):
        c = seed % 2
        t = run_rot(16, ell=4, c=c, rng=seed)
        target = t.s0 if c == 0 else t.s1
        assert np.array_equal(t.y, target)
        empties += t.i_c_empty
    # expectation 0.15 events; 5 would be a > 4-sigma surprise
    assert empties <= 5

    # robust transfer: abort rate within the configured target, decoding
    # failures below the exact per-block binomial tail
    eps_target = 0.05
    p_err = 0.01
    params = RobustParams(n=512, delta=0.02, storage=qubit(0.2), p1_sent=1.0,
                          ph_noclick=0.3, pd_noclick=0.0, ph_err=p_err,
                          ell=8)
    code = repetition_code(3)
    aborts = 0
    decode_failures = 0
    completed = 0
    trials = 10 ** 3
    for seed in range(trials):
        t = run_robust_rot(params, code, c=seed % 2, rng=seed,
                           eps_target=eps_target)
        aborts += t.abort
        if not t.abort:
            completed += 1
            decode_failures += not t.decode_ok
    assert aborts / trials <= eps_target
    p_block = 3 * p_err ** 2 * (1 - p_err) + p_err ** 3
    oracle = 1.0 - (1.0 - p_block) ** math.ceil(512 / 3)
    slack = 3.0 * math.sqrt(oracle * (1 - oracle) / completed)
    assert decode_failures / completed <= oracle + slack

    # identification: equal passwords always accept, differing ones only
    # on hash collisions
    qc = qid_code(16, 8)
    rng = np.random.default_rng(2027)
    for seed in range(10 ** 4):
        w = int(rng.integers(1, 17))
        assert run_qid(w, w, qc, ell=8, rng=seed).accept
    false_accepts = 0
    trials = 10 ** 4
    for seed in range(trials):
        w_a, w_b = rng.choice(16, size=2, replace=False) + 1
        false_accepts += run_qid(int(w_a), int(w_b), qc, ell=8,
                                 rng=10 ** 5 + seed).accept
    p = 2.0 ** -8
    assert false_accepts / trials <= p + 3.0 * math.sqrt(p * (1 - p) / trials)
    _passed(7, "protocol correctness", started, 120.0)


def test_criterion_8_independence_shields():
    started = time.time()
    # receiver's index-set message: identical distribution for both choices,
    # exhaustively over the receiver's bases, for several sender bases
    rng = np.random.default_rng(2029)
    for n in (4, 6, 8):
        thetas = [np.zeros(n, dtype=np.uint8),
                  rng.integers(0, 2, n, dtype=np.uint8)]
        for theta in thetas:
            counts = {0: Counter(), 1: Counter()}
            for hat in itertools.product((0, 1), repeat=n):
                hat = np.array(hat, dtype=np.uint8)
                for c in (0, 1):
                    i0, i1 = honest_index_sets(theta, hat, c)
                    counts[c][(tuple(i0), tuple(i1))] += 1
            assert counts[0] == counts[1]  # exact, zero tolerance
    # server's first identification message: uniform, same for every password
    qc = qid_code(16, 8)
    for w in range(1, 17):
        seen = Counter()
        for hat in itertools.product((0, 1), repeat=8):
            kappa = qid_kappa(qc, w, np.array(hat, dtype=np.uint8))
            seen[tuple(kappa.tolist())] += 1
        assert len(seen) == 256 and set(seen.values()) == {1}
    _passed(8, "independence shields", started, 60.0)


def test_criterion_9_individual_attack_simulation():
    started = time.time()
    for r in (0.0, 0.3, 1.0):
        report = estimate_leakage(n=16, ell=1, r=r, trials=6250, rng=2028)
        assert report["bit_samples"] == 10 ** 5
        expected = (1.0 + r) / 2.0
        assert report["helstrom_rate"] == pytest.approx(expected, abs=1e-12)
        sigma = math.sqrt(expected * (1 - expected) / report["bit_samples"])
        assert abs(report["per_bit_guess_rate"] - expected) <= 4.0 * sigma
        # the hidden string's observed distance never beats the guarantees
        assert report["empirical_nonuniformity"] <= report["statement_bound"]
        assert report["empirical_nonuniformity"] <= report["pa_bound"]
    _passed(9, "individual-attack simulation", started, 120.0)
