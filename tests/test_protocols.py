import itertools
import json
import math
import tracemalloc
import types
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisystorage import gf2, protocols, qsim
from noisystorage.bounds import RobustParams, StorageModel, ot_epsilon
from noisystorage.codes import (
    extended_hamming_8_4,
    hamming_7_4,
    qid_code,
    repetition_code,
    syndrome,
    syndrome_decode,
)
from noisystorage.hashing import (
    bits_to_hex,
    hash_apply,
    hash_apply_many,
    random_hash,
)
from noisystorage.protocols import (
    RotTranscript,
    StoreAllBob,
    WorstCaseReportingBob,
    basis_string,
    bit_string,
    block_correct,
    block_syndromes,
    estimate_leakage,
    honest_index_sets,
    make_rng,
    qid_kappa,
    run_qid,
    run_robust_rot,
    run_rot,
)


def robust_params(n=512, delta=0.02, ph_noclick=0.0, pd_noclick=0.0,
                  ph_err=0.0, p1_sent=1.0, ell=8, r=0.2):
    return RobustParams(n=n, delta=delta, storage=StorageModel(r=r),
                        p1_sent=p1_sent, ph_noclick=ph_noclick,
                        pd_noclick=pd_noclick, ph_err=ph_err, ell=ell)


# --- plain oblivious transfer ---------------------------------------------------


def test_rot_forced_all_match():
    # a seed whose drawn receiver bases all match the sender's
    n = 4
    t = next(t for t in (run_rot(n, ell=2, c=0, rng=seed)
                         for seed in range(200))
             if np.array_equal(t.theta, t.theta_hat))
    assert t.i0.tolist() == list(range(n))
    assert t.i1.size == 0
    assert np.array_equal(t.y, t.s0)
    assert not t.i_c_empty


def test_rot_honest_output_matches_chosen_string():
    failures = 0
    empties = 0
    for seed in range(2000):
        c = seed % 2
        t = run_rot(16, ell=4, c=c, rng=seed)
        target = t.s0 if c == 0 else t.s1
        if not np.array_equal(t.y, target):
            failures += 1
        empties += t.i_c_empty
    assert failures == 0
    assert empties <= 2  # expectation 2000 * 2^-16 = 0.03


def test_rot_outputs_are_hashes_of_disjoint_substrings():
    t = run_rot(10, ell=3, c=1, rng=11)
    assert set(t.i0.tolist()).isdisjoint(t.i1.tolist())
    assert sorted(t.i0.tolist() + t.i1.tolist()) == list(range(10))
    assert np.array_equal(t.s0, hash_apply(t.f0, t.x[t.i0]))
    assert np.array_equal(t.s1, hash_apply(t.f1, t.x[t.i1]))


def test_rot_transcript_json_deterministic():
    a = run_rot(8, ell=2, c=0, rng=42).to_json()
    b = run_rot(8, ell=2, c=0, rng=42).to_json()
    assert a == b
    data = json.loads(a)
    assert set(data) >= {"x", "theta", "theta_hat", "x_hat", "i0", "i1",
                         "f0", "f1", "s0", "s1", "y", "c"}


def test_rot_index_message_distribution_independent_of_choice():
    # exhaustive over the receiver's bases: the (set_0, set_1) message has
    # exactly the same multiset of values for either choice bit
    for n in (3, 6, 8):
        theta = np.zeros(n, dtype=np.uint8)  # irrelevant fixed value
        messages = {0: Counter(), 1: Counter()}
        for hat in itertools.product((0, 1), repeat=n):
            hat = np.array(hat, dtype=np.uint8)
            for c in (0, 1):
                i0, i1 = honest_index_sets(theta, hat, c)
                messages[c][(tuple(i0), tuple(i1))] += 1
        assert messages[0] == messages[1]


def test_rot_same_seed_different_choice_swaps_sets_only():
    t0 = run_rot(16, ell=4, c=0, rng=77)
    t1 = run_rot(16, ell=4, c=1, rng=77)
    assert np.array_equal(t0.x, t1.x)
    assert np.array_equal(t0.theta, t1.theta)
    assert np.array_equal(t0.theta_hat, t1.theta_hat)
    assert np.array_equal(t0.i0, t1.i1)
    assert np.array_equal(t0.i1, t1.i0)


def test_rot_adversary_runs_and_partitions():
    t = run_rot(12, ell=3, c=0, bob=StoreAllBob(0.5), rng=13)
    assert t.y is None and t.theta_hat is None
    assert sorted(t.i0.tolist() + t.i1.tolist()) == list(range(12))
    assert t.adversary["guesses"].shape == (12,)


def test_rot_validates_lengths():
    with pytest.raises(ValueError):
        run_rot(4, ell=5, c=0, rng=1)


@pytest.mark.parametrize("c", [2, -1, 7, 0.0, 1.0, "1", None])
def test_runners_reject_choice_outside_a_bit_before_drawing(c):
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="choice bit c"):
        run_rot(16, 4, c, rng=rng)
    with pytest.raises(ValueError, match="choice bit c"):
        run_robust_rot(robust_params(), repetition_code(3), c, rng=rng)
    assert rng.bit_generator.state == state


def test_runners_take_numpy_choice_bits():
    assert run_rot(16, 4, np.int64(1), rng=7).to_json() == run_rot(
        16, 4, 1, rng=7).to_json()


# The per-qubit loop the storing receiver used to run, kept as an oracle:
# one prepared, depolarized and measured 2x2 matrix and one draw per qubit,
# written without qsim so that a fault there cannot hide in both paths.
_SQRT_HALF = 1.0 / np.sqrt(2.0)
_ORACLE_VECTORS = {
    0: (np.array([1.0, 0.0], dtype=complex),
        np.array([0.0, 1.0], dtype=complex)),
    1: (np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex),
        np.array([_SQRT_HALF, -_SQRT_HALF], dtype=complex)),
}


def loop_store_all_rot(n, ell, c, r, rng):
    x = rng.integers(0, 2, n, dtype=np.uint8)
    theta = rng.integers(0, 2, n, dtype=np.uint8)
    guesses = []
    for b, t in zip(x, theta):
        v = _ORACLE_VECTORS[int(t)][int(b)]
        out = (r * np.outer(v, v.conj())
               + (1.0 - r) * 0.5 * np.eye(2, dtype=complex))
        rho = 0.5 * (out + out.conj().T)
        w = _ORACLE_VECTORS[int(t)][1]
        p1 = min(1.0, max(0.0, float((w.conj() @ rho @ w).real)))
        guesses.append(int(rng.random() < p1))
    perm = rng.permutation(n)
    i0 = np.sort(perm[:n // 2]).astype(np.int64)
    i1 = np.sort(perm[n // 2:]).astype(np.int64)
    f0 = random_hash(n, ell, rng)
    f1 = random_hash(n, ell, rng)
    return RotTranscript(
        n=n, ell=ell, c=c, x=x, theta=theta, theta_hat=None, x_hat=None,
        i0=i0, i1=i1, f0=f0, f1=f1, s0=hash_apply(f0, x[i0]),
        s1=hash_apply(f1, x[i1]), y=None,
        adversary={"guesses": np.array(guesses, dtype=np.uint8)})


@pytest.mark.parametrize("n", [1, 2, 3, 16, 255, 1024, 4096])
@pytest.mark.parametrize("r", [0.0, 0.3, 0.77, 1.0])
def test_store_all_matches_per_qubit_loop(n, r):
    ell = max(1, n // 4)
    for seed in range(12):
        rng, oracle_rng = make_rng(seed), make_rng(seed)
        t = run_rot(n, ell, seed % 2, bob=StoreAllBob(r), rng=rng)
        ref = loop_store_all_rot(n, ell, seed % 2, r, oracle_rng)
        assert t.to_json() == ref.to_json()
        guesses, ref_guesses = t.adversary["guesses"], ref.adversary["guesses"]
        assert guesses.dtype == ref_guesses.dtype == np.uint8
        assert guesses.tobytes() == ref_guesses.tobytes()
        # the generator continues where the per-qubit loop left it
        assert rng.random(3).tobytes() == oracle_rng.random(3).tobytes()


def test_store_all_run_makes_six_qsim_calls(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("bb84_prepare", "depolarize", "measure"):
        monkeypatch.setattr(qsim, name, counted(name, getattr(qsim, name)))
    run_rot(1024, 256, 0, bob=StoreAllBob(0.5), rng=3)
    assert calls == {"bb84_prepare": 4, "depolarize": 1, "measure": 1}


# --- robust oblivious transfer ----------------------------------------------


def test_robust_noiseless_reduces_to_plain_behavior():
    code = repetition_code(3)
    for seed in range(100):
        t = run_robust_rot(robust_params(n=512), code, c=seed % 2, rng=seed)
        assert not t.abort
        assert t.s_remain.size == 512
        target = t.s0 if t.c == 0 else t.s1
        assert np.array_equal(t.y, target)
        assert t.decode_ok


def test_robust_honest_abort_rate_within_target():
    code = repetition_code(3)
    eps = 0.05
    aborts = 0
    trials = 400
    for seed in range(trials):
        t = run_robust_rot(robust_params(n=512, ph_noclick=0.3), code, c=0,
                           rng=seed, eps_target=eps)
        aborts += t.abort
    # abort probability is at most eps by the concentration bound
    assert aborts / trials <= eps + 3 * math.sqrt(eps * (1 - eps) / trials)


def test_robust_zeta_default():
    t = run_robust_rot(robust_params(n=512, ph_noclick=0.3),
                       repetition_code(3), c=0, rng=0, eps_target=0.01)
    assert t.zeta == pytest.approx(math.sqrt(math.log(2 / 0.01) / (2 * 512)))


def test_robust_decoding_beats_binomial_tail_oracle():
    # smoke version of the acceptance run: 200 trials at 1% bit errors
    code = repetition_code(3)
    p = 0.01
    p_block = 3 * p ** 2 * (1 - p) + p ** 3
    worst_blocks = math.ceil(512 / 3)
    oracle = 1.0 - (1.0 - p_block) ** worst_blocks
    failures = 0
    trials = 200
    for seed in range(trials):
        t = run_robust_rot(robust_params(n=512, ph_err=p), code, c=1, rng=seed)
        assert not t.abort
        failures += not t.decode_ok
    assert failures / trials <= oracle + 3 * math.sqrt(oracle / trials)


def test_robust_decode_failure_shows_in_output():
    # with bit-error rates beyond the code's power, decoding mostly fails
    # and the receiver's hash output drifts off the sender's string
    code = repetition_code(3)
    bad = 0
    mismatched = 0
    for seed in range(50):
        t = run_robust_rot(robust_params(n=513, ph_err=0.25), code, c=0,
                           rng=seed)
        if not t.decode_ok:
            bad += 1
            mismatched += not np.array_equal(t.y, t.s0)
    assert bad > 25
    assert mismatched > bad // 2  # residual agreement is only hash collision


def test_robust_worst_case_reporting_passes_check():
    # dropping exactly (ph - pd) n single-photon rounds keeps the count
    # inside the accepted window (up to fluctuations), more trips it
    params = robust_params(n=4096, delta=0.002, ph_noclick=0.3,
                           pd_noclick=0.05, p1_sent=0.9)
    ok = 0
    for seed in range(40):
        t = run_robust_rot(params, repetition_code(3), c=0,
                           bob=WorstCaseReportingBob(), rng=seed,
                           eps_target=0.001)
        ok += not t.abort
    assert ok >= 35


class OverReportingBob:
    """Reports 40% of the rounds as missing single-photon clicks, well over
    the 25% worst case that ph_noclick - pd_noclick allows below."""

    def reported_clicks(self, single_mask, click_mask, params, rng):
        reported = click_mask.copy()
        candidates = np.nonzero(single_mask & click_mask)[0]
        reported[candidates[:round(0.4 * len(click_mask))]] = False
        return reported


def test_robust_over_reporting_aborts_deterministically():
    params = robust_params(n=4096, delta=0.002, ph_noclick=0.3,
                           pd_noclick=0.05, p1_sent=0.9)
    for seed in range(20):
        t = run_robust_rot(params, repetition_code(3), c=0,
                           bob=OverReportingBob(), rng=seed,
                           eps_target=0.001)
        assert t.abort


def test_robust_click_messages_independent_of_choice():
    params = robust_params(n=256, ph_noclick=0.2)
    t0 = run_robust_rot(params, repetition_code(3), c=0, rng=31)
    t1 = run_robust_rot(params, repetition_code(3), c=1, rng=31)
    assert np.array_equal(t0.click_mask, t1.click_mask)
    assert np.array_equal(t0.s_remain, t1.s_remain)
    assert np.array_equal(t0.i0, t1.i1)


def test_block_syndrome_roundtrip():
    code = hamming_7_4()
    rng = np.random.default_rng(151)
    word = rng.integers(0, 2, 20, dtype=np.uint8)
    syn = block_syndromes(code, word)
    assert syn.size == 3 * math.ceil(20 / 7)
    noisy = word.copy()
    noisy[3] ^= 1
    noisy[9] ^= 1  # one error per block at most
    assert np.array_equal(block_correct(code, noisy, syn), word)


def _padded_blocks(code, bits):
    blocks = math.ceil(len(bits) / code.n) if len(bits) else 0
    padded = np.zeros(blocks * code.n, dtype=np.uint8)
    padded[:len(bits)] = bits
    return [padded[b * code.n:(b + 1) * code.n] for b in range(blocks)]


def loop_syndromes(code, bits):
    """One codes.syndrome call per zero-padded block."""
    out = [syndrome(code, block) for block in _padded_blocks(code, bits)]
    return np.concatenate(out) if out else np.zeros(0, dtype=np.uint8)


def loop_correct(code, bits, syndromes):
    """One codes.syndrome_decode call per zero-padded block."""
    red = code.n - code.k
    out = [syndrome_decode(code, block, syndromes[b * red:(b + 1) * red])
           for b, block in enumerate(_padded_blocks(code, bits))]
    joined = np.concatenate(out) if out else np.zeros(0, dtype=np.uint8)
    return joined[:len(bits)]


@pytest.mark.parametrize("make_code", [
    lambda: repetition_code(3), hamming_7_4, extended_hamming_8_4])
def test_block_kernels_match_per_block_loop(make_code):
    code = make_code()
    rng = np.random.default_rng(157)
    red = code.n - code.k
    for size in [0, 1, code.n - 1, code.n, code.n + 1, 5 * code.n + 2, 200]:
        for _ in range(10):
            bits = rng.integers(0, 2, size, dtype=np.uint8)
            syn = block_syndromes(code, bits)
            assert syn.dtype == np.uint8
            assert np.array_equal(syn, loop_syndromes(code, bits))
            noisy = bits ^ (rng.random(size) < 0.25).astype(np.uint8)
            # honest targets, arbitrary ones (every coset is hit), and a
            # surplus block of targets that both ignore
            targets = [syn, rng.integers(0, 2, syn.size, dtype=np.uint8),
                       rng.integers(0, 2, syn.size + red, dtype=np.uint8)]
            for target in targets:
                got = block_correct(code, noisy, target)
                assert got.dtype == np.uint8
                assert got.shape == (size,)
                assert np.array_equal(got, loop_correct(code, noisy, target))
            assert syn.size == red * math.ceil(size / code.n)


@pytest.mark.parametrize("size", [0, 1, 7, 20, 200])
def test_block_correct_decodes_all_blocks_in_one_call(size):
    code = hamming_7_4()
    rng = np.random.default_rng(size)
    bits = rng.integers(0, 2, size, dtype=np.uint8)
    syn = block_syndromes(code, bits)
    with mock.patch.object(protocols, "syndrome_decode",
                           wraps=syndrome_decode) as spy:
        got = block_correct(code, bits, syn)
    assert spy.call_count == 1
    assert np.array_equal(got, loop_correct(code, bits, syn))


# --- password identification ---------------------------------------------------


def test_qid_equal_passwords_always_accept():
    qc = qid_code(16, 8)
    for seed in range(300):
        w = seed % 16 + 1
        t = run_qid(w, w, qc, ell=8, rng=seed)
        assert t.accept


def test_qid_differing_passwords_rarely_accept():
    qc = qid_code(16, 8)
    rng = np.random.default_rng(157)
    trials = 3000
    accepts = 0
    for seed in range(trials):
        w_a, w_b = rng.choice(16, size=2, replace=False) + 1
        t = run_qid(int(w_a), int(w_b), qc, ell=8, rng=seed)
        accepts += t.accept
    p = 2.0 ** -8
    assert accepts / trials <= p + 3 * math.sqrt(p * (1 - p) / trials)


def test_qid_kappa_uniform_and_independent_of_password():
    # exhaustive: over all receiver bases, kappa hits every value exactly
    # once, for every password
    qc = qid_code(4, 6)
    n = qc.code.n
    for w in range(1, 5):
        seen = Counter()
        for hat in itertools.product((0, 1), repeat=n):
            kappa = qid_kappa(qc, w, np.array(hat, dtype=np.uint8))
            seen[tuple(kappa.tolist())] += 1
        assert len(seen) == 2 ** n
        assert set(seen.values()) == {1}


def test_qid_accept_condition_matches_definition():
    qc = qid_code(16, 8)
    t = run_qid(3, 3, qc, ell=4, rng=9)
    check = hash_apply(t.f, t.x_hat[t.i_w_bob]) ^ hash_apply(
        t.g, qc.password_bits(t.w_bob))
    assert t.accept == bool(np.array_equal(t.z, check))
    assert np.array_equal(t.kappa, qid_kappa(qc, t.w_bob, t.theta_hat))


def test_qid_transcript_json():
    qc = qid_code(16, 8)
    a = run_qid(2, 5, qc, ell=8, rng=123).to_json()
    b = run_qid(2, 5, qc, ell=8, rng=123).to_json()
    assert a == b
    data = json.loads(a)
    assert data["w_alice"] == 2 and data["w_bob"] == 5
    assert set(data) >= {"x", "theta", "theta_hat", "x_hat", "kappa", "z",
                         "accept"}


def test_qid_rejects_bad_passwords():
    qc = qid_code(16, 8)
    with pytest.raises(ValueError):
        run_qid(0, 3, qc, ell=4, rng=1)
    with pytest.raises(ValueError):
        run_qid(3, 17, qc, ell=4, rng=1)


# --- leakage estimation -----------------------------------------------------


def test_leakage_perfect_storage_learns_everything():
    report = estimate_leakage(n=8, ell=1, r=1.0, trials=60, rng=163)
    assert report["per_bit_guess_rate"] == 1.0
    assert report["helstrom_rate"] == 1.0
    # no guarantee regime: bounds saturate rather than lie
    assert report["pa_bound"] == 1.0
    assert report["empirical_nonuniformity"] <= 1.0


def test_leakage_useless_storage_learns_nothing():
    report = estimate_leakage(n=12, ell=2, r=0.0, trials=400, rng=167)
    sigma = math.sqrt(0.25 / report["bit_samples"])
    assert abs(report["per_bit_guess_rate"] - 0.5) < 4 * sigma
    assert report["empirical_nonuniformity"] <= report["pa_bound"]


def test_leakage_intermediate_rate_matches_discrimination_value():
    report = estimate_leakage(n=16, ell=1, r=0.3, trials=500, rng=173)
    sigma = math.sqrt(0.25 / report["bit_samples"])
    assert abs(report["per_bit_guess_rate"] - 0.65) < 4 * sigma
    assert report["alpha"] == pytest.approx(16 * math.log2(2 / 1.3))
    assert report["empirical_nonuniformity"] <= report["pa_bound"]
    assert report["empirical_nonuniformity"] <= report["statement_bound"]


def test_leakage_size_cap():
    with pytest.raises(ValueError):
        estimate_leakage(n=30, ell=2, r=0.5, trials=10, rng=1)


def stored_bit_guess_probability(r):
    """Best guess of a depolarized basis-0 bit: the Helstrom value."""
    return qsim.helstrom(qsim.depolarize(qsim.bb84_prepare(0, 0), r),
                         qsim.depolarize(qsim.bb84_prepare(1, 0), r))


def test_leakage_helstrom_rate_is_read_off_the_stored_table():
    # the stored-state table gives the discrimination value bit for bit
    for r in np.linspace(0.0, 1.0, 2005).tolist():
        stored = protocols._stored_states(r)
        assert qsim.helstrom(stored[0, 0], stored[1, 0]) \
            == stored_bit_guess_probability(r)
    report = estimate_leakage(n=8, ell=1, r=0.3, trials=1, rng=2)
    assert report["helstrom_rate"] == stored_bit_guess_probability(0.3)
    # delta is still checked before r
    with pytest.raises(ValueError, match="delta"):
        estimate_leakage(n=8, ell=1, r=1.5, trials=1, rng=2, delta=0.0)


# The per-trial estimator that estimate_leakage replaced: one run_rot and
# one posterior sum per trial.  Kept as the reference for the stacked one.
def reference_hidden_nonuniformity(t, p_post, enum):
    n, ell = t.n, t.ell
    guesses = t.adversary["guesses"]
    log_p = math.log2(p_post) if p_post > 0.0 else -math.inf
    log_q = math.log2(1.0 - p_post) if p_post < 1.0 else -math.inf
    parts = []
    for idx, f in ((t.i0, t.f0), (t.i1, t.f1)):
        width = idx.size
        if width not in enum:
            enum[width] = gf2.unpack(np.arange(2 ** width), width)
        bits = enum[width]
        agree = (bits == guesses[idx][np.newaxis, :]).sum(axis=1)
        if 0.0 < p_post < 1.0:
            weights = 2.0 ** (agree * log_p + (width - agree) * log_q)
        else:
            weights = (agree == width).astype(float)
        parts.append((agree, weights, gf2.pack(hash_apply_many(f, bits))))
    (agree0, w0, codes0), (agree1, w1, codes1) = parts
    width0 = t.i0.size
    if 0.0 < p_post < 1.0:
        margin = (2 * agree0 - n) * log_p + 2 * (width0 - agree0) * log_q
        selector = (margin >= 0.0).astype(np.int64)
    else:
        selector = (agree0 == width0).astype(np.int64)
    grouped0 = np.zeros((2 ** ell, 2))
    np.add.at(grouped0, (codes0, selector), w0)
    grouped1 = np.bincount(codes1, weights=w1, minlength=2 ** ell)
    joint0 = grouped1[:, np.newaxis] * grouped0[:, 0][np.newaxis, :]
    joint1 = grouped0[:, 1][:, np.newaxis] * grouped1[np.newaxis, :]
    total = joint0.sum() + joint1.sum()
    uniform0 = joint0.sum(axis=1, keepdims=True) / 2 ** ell
    uniform1 = joint1.sum(axis=1, keepdims=True) / 2 ** ell
    return 0.5 * (np.abs(joint0 - uniform0).sum()
                  + np.abs(joint1 - uniform1).sum()) / total


def reference_estimate_leakage(n, ell, r, trials, rng=None, delta=0.01):
    rng = make_rng(rng)
    helstrom_rate = stored_bit_guess_probability(r)
    p_post = helstrom_rate
    alpha = -n * math.log2(p_post) if p_post < 1.0 else 0.0
    enum = {}
    bit_hits = 0
    bit_total = 0
    nonuni_sum = 0.0
    for _ in range(trials):
        t = run_rot(n, ell, c=0, bob=StoreAllBob(r), rng=rng.spawn(1)[0])
        bit_hits += int((t.adversary["guesses"] == t.x).sum())
        bit_total += n
        nonuni_sum += reference_hidden_nonuniformity(t, p_post, enum)
    statement_bound = min(1.0, 2.0 * ot_epsilon(delta, n))
    pa_exponent = -0.5 * ((alpha / 2.0 - 1.0 - ell) - ell) - 1.0
    pa_bound = min(1.0, 2.0 ** pa_exponent)
    return {
        "n": n, "ell": ell, "r": r, "trials": trials, "delta": delta,
        "bit_samples": bit_total,
        "per_bit_guess_rate": bit_hits / bit_total,
        "helstrom_rate": helstrom_rate,
        "alpha": alpha,
        "empirical_nonuniformity": nonuni_sum / trials,
        "pa_bound": pa_bound,
        "statement_bound": statement_bound,
    }


def generator_state(rng):
    """The bit generator's state and how many children it has spawned."""
    state = json.dumps(rng.bit_generator.state, sort_keys=True,
                       default=lambda a: a.tolist())
    return state, rng.bit_generator.seed_seq.n_children_spawned


def assert_matches_reference(n, ell, r, trials, seed):
    """Equal reports, and the caller's generator left in the same state."""
    mine, theirs = make_rng(seed), make_rng(seed)
    assert (estimate_leakage(n, ell, r, trials, rng=mine)
            == reference_estimate_leakage(n, ell, r, trials, rng=theirs))
    assert generator_state(mine) == generator_state(theirs)
    assert generator_state(mine)[1] == trials


LEAKAGE_GRID = [(n, ell) for n in (1, 2, 3, 8, 15, 16, 24)
                for ell in sorted({1, min(n // 2, 8) or 1, min(n, 4)})]


@pytest.mark.parametrize("r", [0.0, 0.3, 0.77, 1.0])
@pytest.mark.parametrize("n,ell", LEAKAGE_GRID)
def test_leakage_matches_per_trial_reference(n, ell, r):
    # chunks of two trials: five trials cross two chunk boundaries
    with mock.patch.object(protocols, "_leakage_chunk", return_value=2):
        for seed in (3, 4):
            for trials in (1, 5):
                assert_matches_reference(n, ell, r, trials, seed)


@pytest.mark.parametrize("n,ell,r", [(16, 1, 0.3), (24, 1, 0.77),
                                     (4, 4, 0.3), (8, 3, 1.0)])
def test_leakage_matches_reference_across_real_chunks(n, ell, r):
    chunk = protocols._leakage_chunk(n, ell)
    assert chunk > 1
    assert_matches_reference(n, ell, r, 2 * chunk + 1, seed=11)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), data=st.data(),
       r=st.floats(0.0, 1.0), trials=st.integers(1, 7),
       chunk=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
def test_leakage_reference_property(n, data, r, trials, chunk, seed):
    ell = data.draw(st.integers(1, n), label="ell")
    with mock.patch.object(protocols, "_leakage_chunk", return_value=chunk):
        assert_matches_reference(n, ell, r, trials, seed)


@pytest.mark.parametrize("kwargs,message", [
    (dict(delta=0.3), "delta"),
    (dict(delta=0.0), "delta"),
    (dict(trials=2.5), "trials must be an integer"),
    (dict(trials=0), "at least one trial"),
    (dict(n=16.0), "n must be an integer"),
    (dict(n=0), "1 <= n"),
    (dict(ell=1.0), "ell must be an integer"),
    (dict(ell=17), "ell <= n"),
    (dict(r=1.5), "retention r"),
    # each joint table holds 2^ell x 2^ell cells: about 0.5 GiB a trial at
    # ell = 12 and 128 GiB at ell = 16
    (dict(n=13, ell=13), "^ell = 13 exceeds the cap of 12: "),
    (dict(n=24, ell=16), "^ell = 16 exceeds the cap of 12: "),
    (dict(n=24, ell=24), "^ell = 24 exceeds the cap of 12: "),
    (dict(ell=2.5), "^ell must be an integer, got 2.5"),
])
def test_leakage_checks_inputs_before_drawing(kwargs, message):
    rng = make_rng(5)
    before = generator_state(rng)
    args = {"n": 16, "ell": 1, "r": 0.3, "trials": 4, **kwargs}
    with pytest.raises(ValueError, match=message):
        estimate_leakage(rng=rng, **args)
    assert generator_state(rng) == before


def test_leakage_admits_ell_at_its_cap():
    # ell = 12 passes every check and reaches the first draw
    with mock.patch.object(protocols, "_storing_trial",
                           side_effect=RuntimeError("drawn")):
        with pytest.raises(RuntimeError, match="drawn"):
            estimate_leakage(24, 12, 0.3, 1, rng=5)


ROBUST_DUCK = dict(n=64, p1_sent=1.0, ph_noclick=0.1, pd_noclick=0.0,
                   ph_err=0.01)


@pytest.mark.parametrize("ell", [2.5, 2.0, np.float64(3.0)])
@pytest.mark.parametrize("run", [
    lambda ell, rng: run_rot(16, ell, 0, rng=rng),
    lambda ell, rng: run_qid(3, 3, qid_code(16, 8), ell, rng=rng),
    # a duck-typed record: RobustParams itself rejects a non-integer ell
    lambda ell, rng: run_robust_rot(types.SimpleNamespace(**ROBUST_DUCK,
                                                          ell=ell),
                                    repetition_code(3), 0, rng=rng),
], ids=["rot", "qid", "robust"])
def test_runners_reject_a_non_integer_ell_before_drawing(run, ell):
    rng = make_rng(5)
    before = generator_state(rng)
    with pytest.raises(ValueError, match="^ell must be an integer, got "):
        run(ell, rng)
    assert generator_state(rng) == before


# sixteen whole chunks and one more trial, written out so that a broken
# _leakage_chunk cannot size the run
@pytest.mark.parametrize("n,trials", [(16, 2049), (24, 129)])
def test_leakage_memory_does_not_grow_with_trials(n, trials):
    assert trials == 16 * protocols._leakage_chunk(n, 1) + 1
    tracemalloc.start()
    try:
        report = estimate_leakage(n, 1, 0.3, trials, rng=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["bit_samples"] == n * trials
    assert peak < 16 * 2 ** 20


# The per-bit loops the transcript serializers used to run, kept as oracles.
def loop_bit_string(arr):
    return "".join("01"[int(b)] for b in arr)


def loop_basis_string(arr):
    return "".join("+x"[int(b)] for b in arr)


def loop_bits_to_hex(bits):
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    width = (len(bits) + 3) // 4
    return format(value, "0%dx" % width)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=300),
       st.sampled_from([list, bool, np.uint8, np.int64, np.float64]))
@example([], list)
@example([], np.uint8)
def test_transcript_serializers_match_per_bit_loops(bits, dtype):
    arr = bits if dtype is list else np.array(bits, dtype=dtype)
    assert bit_string(arr) == loop_bit_string(bits)
    assert basis_string(arr) == loop_basis_string(bits)
    assert bits_to_hex(arr) == loop_bits_to_hex(bits)
