"""Independent brute-force oracles for the trickiest computations.

Each oracle in ``reference`` recomputes a guarantee with plain loops (no
shared code paths with the implementation), and each test here demands
exact agreement.
"""

import numpy as np
import pytest

from noisystorage.distributions import JointDistribution
from noisystorage.entropy import min_entropy, split_binary, split_multi
from noisystorage.protocols import StoreAllBob, run_rot

from reference import (oracle_hidden_nonuniformity, oracle_smoothed_columns,
                       oracle_split_binary, oracle_split_multi)


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
            want = oracle_smoothed_columns(table, eps)
            assert got == pytest.approx(want, abs=1e-9), (table, eps)


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
        want = oracle_split_binary(d, alpha, sizes[2])
        assert res.achieved == pytest.approx(want, abs=1e-12)


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
            want = oracle_split_multi(d, alpha, names[:-1])
            assert res.achieved == pytest.approx(want, abs=1e-12)


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
        want.append(oracle_hidden_nonuniformity(t, p_post, ell, n))
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
