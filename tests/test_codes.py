import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noisystorage import codes, gf2
from noisystorage.bounds import inv_binary_entropy
from noisystorage.codes import (
    RANDOM_CODE_TRIES,
    LinearCode,
    _min_weight,
    encode,
    extended_hamming_8_4,
    gv_parameters,
    hamming_7_4,
    identity_code,
    min_distance,
    qid_code,
    random_code,
    repetition_code,
    syndrome,
    syndrome_budget_ok,
    syndrome_decode,
)
from noisystorage.protocols import run_qid


def bits(s):
    return np.array([int(c) for c in s], dtype=np.uint8)


def test_generator_parity_orthogonal_for_catalog():
    for code in (repetition_code(5), hamming_7_4(), extended_hamming_8_4(),
                 identity_code(4), random_code(10, 4, seed=1)):
        assert not gf2.matmul(code.parity, code.generator.T).any()
        assert code.parity.shape == (code.n - code.k, code.n)


def test_rejects_dependent_generator():
    with pytest.raises(ValueError):
        LinearCode(generator=np.array([[1, 0, 1], [1, 0, 1]], dtype=np.uint8))


@pytest.mark.parametrize("rows", [[[1, 0, 1], [1, 0, 1]], [[0, 0, 0]],
                                  [[1, 1], [0, 1], [1, 0]]])
def test_dependent_generator_error_names_independence(rows):
    # the nullspace's row count decides, before any parity check runs
    with pytest.raises(ValueError, match="linearly independent"):
        LinearCode(generator=np.array(rows, dtype=np.uint8))


def test_encode_examples():
    rep = repetition_code(3)
    assert encode(rep, [0]).tolist() == [0, 0, 0]
    assert encode(rep, [1]).tolist() == [1, 1, 1]
    ham = hamming_7_4()
    assert encode(ham, [1, 0, 0, 0]).tolist() == ham.generator[0].tolist()
    assert encode(ham, [0, 0, 0, 0]).tolist() == [0] * 7
    with pytest.raises(ValueError):
        encode(ham, [1, 0])


def test_syndrome_zero_iff_codeword():
    ham = hamming_7_4()
    for msg in itertools.product((0, 1), repeat=4):
        word = encode(ham, list(msg))
        assert not syndrome(ham, word).any()
    word = encode(ham, [1, 1, 0, 1])
    word[3] ^= 1
    assert syndrome(ham, word).any()


def test_syndrome_linearity_error_only():
    ham = hamming_7_4()
    rng = np.random.default_rng(127)
    for _ in range(20):
        word = encode(ham, rng.integers(0, 2, 4, dtype=np.uint8))
        err = rng.integers(0, 2, 7, dtype=np.uint8)
        assert np.array_equal(syndrome(ham, word ^ err),
                              syndrome(ham, err))


def test_hamming_single_error_syndrome_is_column():
    ham = hamming_7_4()
    for i in range(7):
        e = np.zeros(7, dtype=np.uint8)
        e[i] = 1
        assert np.array_equal(syndrome(ham, e), ham.parity[:, i])


def test_min_distance_examples():
    assert repetition_code(5).min_distance == 5
    assert hamming_7_4().min_distance == 3
    assert extended_hamming_8_4().min_distance == 4
    assert identity_code(6).min_distance == 1
    with pytest.raises(ValueError):
        min_distance(identity_code(21))


def test_syndrome_decode_no_error():
    ham = hamming_7_4()
    word = encode(ham, [1, 0, 1, 1])
    assert np.array_equal(syndrome_decode(ham, word, syndrome(ham, word)), word)


def test_syndrome_decode_repetition_single_flip():
    rep = repetition_code(3)
    word = bits("111")
    noisy = bits("101")
    fixed = syndrome_decode(rep, noisy, syndrome(rep, word))
    assert np.array_equal(fixed, word)


def test_syndrome_decode_exhaustive_within_half_distance():
    # every error of weight <= (d-1)/2 is undone, exhaustively
    for code in (repetition_code(5), hamming_7_4(), extended_hamming_8_4()):
        t = (code.min_distance - 1) // 2
        for msg_int in range(2 ** code.k):
            msg = bits(format(msg_int, "0%db" % code.k))
            word = encode(code, msg)
            target = syndrome(code, word)
            for weight in range(t + 1):
                for pos in itertools.combinations(range(code.n), weight):
                    noisy = word.copy()
                    for p in pos:
                        noisy[p] ^= 1
                    assert np.array_equal(
                        syndrome_decode(code, noisy, target), word)


def test_syndrome_decode_tie_break_lexicographic():
    # identity parity: every syndrome equals the word itself, so leaders
    # are unique; use a rate-1/2 code with genuine ties instead
    code = LinearCode(generator=np.array([[1, 1, 0, 0], [0, 0, 1, 1]],
                                         dtype=np.uint8))
    from noisystorage.codes import coset_leaders
    leaders = coset_leaders(code)
    for leader in leaders:
        # minimal weight, and among candidates of that weight the
        # numerically smallest pattern
        syn = syndrome(code, leader)
        key_weight = leader.sum()
        val = int(leader @ (1 << np.arange(code.n - 1, -1, -1)))
        for cand_int in range(2 ** code.n):
            cand = bits(format(cand_int, "04b"))
            if np.array_equal(syndrome(code, cand), syn):
                assert (cand.sum(), int(cand @ (1 << np.arange(3, -1, -1)))) \
                    >= (key_weight, val)


def python_int_leaders(parity):
    """Syndrome -> leader value, by enumeration over Python ints.

    Walks the patterns weight by weight and keeps, per syndrome, the
    numerically smallest pattern of the lowest weight; the first bit is
    the most significant, for patterns and syndromes alike.
    """
    red, n = parity.shape
    columns = [sum(int(parity[r, p]) << (red - 1 - r) for r in range(red))
               for p in range(n)]
    best = {}
    for weight in range(n + 1):
        for pos in itertools.combinations(range(n), weight):
            syn = 0
            for p in pos:
                syn ^= columns[p]
            value = sum(1 << (n - 1 - p) for p in pos)
            if syn not in best or best[syn] > (weight, value):
                best[syn] = (weight, value)
        if len(best) == 1 << red:
            return {s: value for s, (_, value) in best.items()}
    raise AssertionError("parity matrix does not reach every syndrome")


def _codes_for_leader_oracle():
    for n in (60, 63, 64, 65, 66, 70):
        # row 0 all ones, row 1 only at position 0: syndrome (1, 0) has
        # n - 1 weight-1 patterns, and the last position is the smallest
        parity = np.zeros((2, n), dtype=np.uint8)
        parity[0] = 1
        parity[1, 0] = 1
        yield parity
    rng = np.random.default_rng(11)
    while True:
        n = int(rng.integers(4, 15))
        parity = rng.integers(0, 2, (int(rng.integers(1, 5)), n),
                              dtype=np.uint8)
        if gf2.rank(parity) == parity.shape[0]:
            yield parity


@pytest.mark.parametrize("parity", list(itertools.islice(
    _codes_for_leader_oracle(), 16)), ids=lambda p: "%dx%d" % p.shape)
def test_coset_leaders_match_python_int_oracle(parity):
    from noisystorage.codes import coset_leaders
    code = LinearCode(generator=gf2.nullspace(parity), parity=parity)
    want = python_int_leaders(parity)
    leaders = coset_leaders(code)
    assert sorted(want) == list(range(len(leaders)))
    for syn, value in want.items():
        expect = [(value >> (code.n - 1 - i)) & 1 for i in range(code.n)]
        assert leaders[syn].tolist() == expect, syn


def test_decode_size_cap():
    from noisystorage.codes import coset_leaders
    big = random_code(30, 2, seed=3)
    with pytest.raises(ValueError):
        coset_leaders(big)


def test_coset_table_is_read_only_and_cached():
    code = hamming_7_4()
    table = codes.coset_leaders(code)
    assert table.shape == (8, 7) and table.dtype == np.uint8
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    assert codes.coset_leaders(code) is table


def test_coset_table_memory_stays_near_its_size():
    # the 2^16-row table is 1.3 MB; building it must not cost many times that
    code = random_code(20, 4, seed=1)
    tracemalloc.start()
    try:
        table = codes.coset_leaders(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20
    assert hashlib.sha256(table.tobytes()).hexdigest() == (
        "d1fb7e2210290770be99ec33a1e9321779d5f9e81778342e1c183dbe2f7fadb6")


CATALOG = [lambda: repetition_code(3), lambda: repetition_code(5),
           hamming_7_4, extended_hamming_8_4, lambda: identity_code(4),
           lambda: qid_code(16, 7).code, lambda: qid_code(8, 12).code]


@st.composite
def codes_for_stacks(draw):
    """A catalog code, or one from a random full-rank parity matrix."""
    if draw(st.booleans()):
        return draw(st.sampled_from(CATALOG))()
    red = draw(st.integers(1, 6))
    n = draw(st.integers(red + 1, 12))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1),
                         min_size=red, max_size=red))
    parity = gf2.unpack(np.array(rows), n)
    assume(gf2.rank(parity) == red)
    return LinearCode(generator=gf2.nullspace(parity), parity=parity)


@settings(max_examples=150, deadline=None)
@given(code=codes_for_stacks(),
       lead=st.sampled_from([(), (0,), (1,), (5,), (0, 3), (2, 3)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_syndromes_and_decoding_match_per_word_calls(code, lead, seed):
    rng = np.random.default_rng(seed)
    red = code.n - code.k
    words = rng.integers(0, 2, lead + (code.n,), dtype=np.uint8)
    targets = rng.integers(0, 2, lead + (red,), dtype=np.uint8)
    syn = syndrome(code, words)
    fixed = syndrome_decode(code, words, targets)
    assert syn.dtype == fixed.dtype == np.uint8
    assert syn.shape == lead + (red,) and fixed.shape == words.shape
    for idx in np.ndindex(lead):
        assert np.array_equal(syn[idx], syndrome(code, words[idx]))
        assert np.array_equal(fixed[idx],
                              syndrome_decode(code, words[idx], targets[idx]))


@pytest.mark.parametrize("call, message", [
    (lambda c: syndrome(c, np.zeros((3, 8), np.uint8)), "n = 7 bits"),
    (lambda c: syndrome(c, np.zeros(0, np.uint8)), "n = 7 bits"),
    (lambda c: syndrome_decode(c, np.zeros((3, 6), np.uint8),
                               np.zeros((3, 3), np.uint8)), "n = 7 bits"),
    (lambda c: syndrome_decode(c, np.zeros((3, 7), np.uint8),
                               np.zeros((2, 3), np.uint8)), "n - k = 3 bits"),
    (lambda c: syndrome_decode(c, np.zeros((3, 7), np.uint8),
                               np.zeros(3, np.uint8)), "n - k = 3 bits"),
    (lambda c: syndrome_decode(c, np.zeros(7, np.uint8),
                               np.zeros((1, 3), np.uint8)), "n - k = 3 bits"),
    (lambda c: syndrome_decode(c, np.zeros((0, 7), np.uint8),
                               np.zeros((1, 3), np.uint8)), "n - k = 3 bits"),
], ids=["word-bits", "empty-word", "received-bits", "stack-length",
        "flat-target", "stacked-target", "empty-stack"])
def test_mismatched_stack_shapes_name_the_bit_count(call, message):
    with pytest.raises(ValueError, match=message):
        call(hamming_7_4())


def test_json_roundtrip():
    code = hamming_7_4()
    again = LinearCode.from_json(code.to_json())
    assert np.array_equal(again.generator, code.generator)
    assert again.min_distance == 3


def test_qid_code_two_passwords_repetition():
    qc = qid_code(2, 9)
    assert qc.code.min_distance == 9
    assert qc.basis_string(1) == "+" * 9
    assert qc.basis_string(2) == "x" * 9


def test_qid_code_sixteen_passwords_hamming():
    qc = qid_code(16, 7)
    assert qc.code.k == 4
    assert qc.code.min_distance == 3
    # the distance precondition d >= (4 + 4 log2 m)/delta is checkable
    delta_ok = (4 + 4 * np.log2(16)) / qc.code.min_distance
    assert delta_ok == pytest.approx(20 / 3)


def test_qid_code_password_mapping():
    qc = qid_code(16, 7)
    assert qc.password_bits(1).tolist() == [0, 0, 0, 0]
    assert qc.password_bits(16).tolist() == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        qc.password_bits(0)
    with pytest.raises(ValueError):
        qc.password_bits(17)
    # distinct passwords, distinct basis strings
    strings = {qc.basis_string(w) for w in range(1, 17)}
    assert len(strings) == 16


def test_qid_code_distance_request():
    # (16 passwords, n = 7) is the [7, 4] Hamming code
    assert qid_code(16, 7).code.min_distance == 3


def test_qid_code_random_fallback_certified():
    qc = qid_code(8, 12)
    assert qc.code.k == 3
    assert qc.code.min_distance == min_distance(qc.code)
    assert qc.code.min_distance >= 4  # a decent [12, 3] code exists


def test_gv_parameters():
    mu, d = gv_parameters(10 ** 6, 2)
    assert mu == pytest.approx(0.5, abs=1e-3)
    mu_half, _ = gv_parameters(100, 2 ** 50)
    assert mu_half == pytest.approx(inv_binary_entropy(0.5), abs=1e-12)
    mus = [gv_parameters(64, m)[0] for m in (2, 4, 16, 256)]
    assert all(b < a for a, b in zip(mus, mus[1:]))
    with pytest.raises(ValueError):
        gv_parameters(10, 2 ** 10)


def test_syndrome_budget():
    rep = repetition_code(3)
    assert not syndrome_budget_ok(rep, 0.01)  # 2 > 1.2 h(0.01) * 3
    assert syndrome_budget_ok(rep, 0.25)      # 1.2 * 0.811 * 3 = 2.92 >= 2


QID_GRID = [(m, n) for m in (2, 3, 4, 5, 8, 9, 16, 17, 64, 100, 256)
            for n in (3, 5, 7, 8, 12, 24, 64)
            if math.ceil(math.log2(m)) <= n] + [
    (3, 256), (64, 256), (256, 256), (16, 1024), (256, 1024)]
QID_GRID_DIGEST = (
    "a7c78399104457a5ece2cf7a62d71d3738c9d75f863a08ea4c60131ea3ea7cd7")


def test_qid_code_grid_digest():
    # one sha256 over every grid code: (m, n, distance), generator, parity
    assert len(QID_GRID) == 72
    digest = hashlib.sha256()
    for m, n in QID_GRID:
        code = qid_code(m, n).code
        digest.update(b"%d %d %d;" % (m, n, code.min_distance))
        digest.update(np.ascontiguousarray(code.generator, np.uint8).tobytes())
        digest.update(np.ascontiguousarray(code.parity, np.uint8).tobytes())
    assert digest.hexdigest() == QID_GRID_DIGEST


def reference_random_code(n, k, seed=0):
    """The search as a loop of full codes: rank, LinearCode, distance."""
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(RANDOM_CODE_TRIES):
        g = rng.integers(0, 2, (k, n), dtype=np.uint8)
        if gf2.rank(g) != k:
            continue
        cand = LinearCode(generator=g)
        if best is None or min_distance(cand) > best.min_distance:
            best = cand
    return best


@pytest.mark.parametrize("n, k, seed", [
    (1, 1, 0), (2, 2, 0), (3, 3, 2), (4, 4, 1), (5, 5, 0), (8, 8, 3),
    (3, 2, 0), (4, 3, 5), (6, 5, 7), (10, 4, 1), (12, 3, 8 * 1009 + 12),
    (16, 4, 9), (30, 2, 3)])
def test_random_code_matches_full_code_loop(n, k, seed):
    # small n and k = n draw dependent rows often
    code = random_code(n, k, seed=seed)
    want = reference_random_code(n, k, seed)
    assert np.array_equal(code.generator, want.generator)
    assert np.array_equal(code.parity, want.parity)
    assert code.min_distance == want.min_distance


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_min_weight_matches_python_int_oracle(data):
    n = data.draw(st.integers(1, 12))
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1),
                              min_size=1, max_size=6))
    want = n
    for mask in range(1, 1 << len(rows)):
        v = 0
        for i, row in enumerate(rows):
            if mask >> i & 1:
                v ^= row
        want = min(want, bin(v).count("1"))
    g = gf2.unpack(np.array(rows), n)
    assert _min_weight(g) == want
    assert (want == 0) == (gf2.rank(g) < len(rows))


def test_random_search_makes_no_rank_call_and_one_code(monkeypatch):
    calls = {"rank": 0, "code": 0}
    rank, post_init = gf2.rank, LinearCode.__post_init__

    def counting_rank(mat):
        calls["rank"] += 1
        return rank(mat)

    def counting_post_init(self):
        calls["code"] += 1
        post_init(self)

    monkeypatch.setattr(gf2, "rank", counting_rank)
    monkeypatch.setattr(LinearCode, "__post_init__", counting_post_init)
    random_code(6, 5, seed=7)
    assert calls == {"rank": 0, "code": 1}


def _no_search(*args, **kwargs):
    raise AssertionError("random_code drew before the inputs were checked")


SIZES, PASSWORD = "m and n must be integers", "password must be an integer"


@pytest.mark.parametrize("call, message", [
    (lambda: qid_code(16, 12.0), SIZES),
    (lambda: qid_code(16.5, 12), SIZES),
    (lambda: qid_code(8.0, 12), SIZES),
    (lambda: qid_code(16, 8).password_bits(2.5), PASSWORD),
    (lambda: qid_code(16, 8).basis_string(3.0), PASSWORD),
    (lambda: run_qid(2.5, 2, qid_code(16, 8), 8), PASSWORD),
    (lambda: run_qid(2, 2.5, qid_code(16, 8), 8), PASSWORD),
], ids=["n", "m", "m-random", "bits", "bases", "run-alice", "run-bob"])
def test_non_integer_sizes_and_passwords_rejected(monkeypatch, call, message):
    monkeypatch.setattr(codes, "random_code", _no_search)
    with pytest.raises(ValueError, match=message):
        call()


def test_numpy_integer_sizes_and_passwords_accepted():
    qc = qid_code(np.int64(16), np.uint16(8))
    assert qc.code.min_distance == 4
    assert qc.password_bits(np.int64(3)).tolist() == [0, 0, 1, 0]
