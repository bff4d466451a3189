"""Executable two-party protocol state machines.

Three runners: plain randomized oblivious transfer, its loss/error-robust
variant, and password-based identification, plus a Monte-Carlo estimator
for what an individually storing adversary actually learns.

The enforced waiting time is a phase boundary in the runner, not wall
clock: the runner pushes every qubit an adversarial receiver holds
through the storage channel, and only the noised states (plus the later
public messages) reach the adversary after the wait.  Honest
parties never store quantum states across the boundary at all: a
measurement in a matching basis reproduces the encoded bit, a mismatched
one yields a uniform bit, which is how the honest path is sampled.
"""

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import gf2, qsim
from .bounds import (PreconditionError, _require_bit, _require_float,
                     _require_integer, ot_epsilon)
from .codes import syndrome, syndrome_budget_ok, syndrome_decode
from .entropy import _uniform_distance
from .hashing import (ToeplitzHash, _binned_outputs, _check_sizes, _hash_stack,
                      random_hash)

LEAKAGE_MAX_N = 24
# about 40 s of estimate_leakage at n = 24 and ell = 1 (0.38 ms a trial on
# a shared 2-CPU VM, Python 3.11, numpy 2.4).  A trial's joint tables grow
# as 4^ell (one trial at ell = 12 takes about 0.4 s), so estimate_leakage
# also caps trials times _trial_cells at this many trials of its n = 24,
# ell = 1 tables
LEAKAGE_MAX_TRIALS = 100_000
_LEAKAGE_MAX_ELL = 12  # a stacked joint table holds at most 2^24 cells
# estimate_leakage's chunks hold at most this many cells of their largest
# stacked tables; a trial counts at least _TRIAL_CELLS, for the child
# generator (about 1 kB) and the two hashes it keeps until its chunk is done
_LEAKAGE_CHUNK_CELLS = 2 ** 15
_TRIAL_CELLS = 2 ** 8


def make_rng(rng):
    """Counter-based generator; nonnegative integers and ``SeedSequence``s
    are seeds, ``None`` draws fresh entropy, generators pass through.  The
    one place a Philox generator is built; a seed that Philox refuses
    raises :class:`PreconditionError` naming ``rng``."""
    if isinstance(rng, np.random.Generator):
        return rng
    try:
        return np.random.Generator(np.random.Philox(rng))
    except (TypeError, ValueError):
        raise PreconditionError(
            "rng must be a generator, a SeedSequence, None or a nonnegative "
            "integer seed, got %r" % (rng,)) from None


def _spell(arr, alphabet):
    """``alphabet[int(b)]`` for every entry b of arr, as one string."""
    symbols = np.frombuffer(alphabet, dtype=np.uint8)
    return symbols[np.asarray(arr, dtype=np.intp)].tobytes().decode("ascii")


def bit_string(arr):
    return _spell(arr, b"01")


def basis_string(arr):
    return _spell(arr, b"+x")


_BASIS_FIELDS = frozenset({"theta", "theta_hat", "kappa"})


def _json_value(name, value):
    """One transcript field as JSON: hashes by their seeds, bit arrays as
    strings (bases spelled "+x"), index arrays as lists."""
    if isinstance(value, ToeplitzHash):
        return {"n": value.n, "ell": value.ell, "seed": value.seed_hex(),
                "offset": value.offset_hex()}
    if not isinstance(value, np.ndarray):
        return value
    if value.dtype != np.uint8:
        return value.tolist()
    return basis_string(value) if name in _BASIS_FIELDS else bit_string(value)


class _Transcript:
    def to_json(self):
        """Every field but ``adversary``, in declaration order."""
        return json.dumps({f.name: _json_value(f.name, getattr(self, f.name))
                           for f in fields(self) if f.name != "adversary"})


def honest_index_sets(theta, theta_hat, c):
    """The two index sets an honest receiver reports, choice-side first.

    Matching positions go to the chosen set, the rest to the other; the
    pair (set_0, set_1) is what crosses the wire.  ``c`` must be an
    integer 0 or 1, else ValueError.
    """
    c = _require_bit("choice bit c", c)
    same = np.asarray(theta) == np.asarray(theta_hat)
    match = np.nonzero(same)[0]
    differ = np.nonzero(~same)[0]
    if c == 0:
        return match, differ
    return differ, match


def _honest_measurement(x, theta, theta_hat, rng):
    """Matched bases reproduce the bit, mismatched ones are uniform."""
    return np.where(theta == theta_hat, x,
                    rng.integers(0, 2, len(x), dtype=np.uint8)).astype(np.uint8)


def _sender_draw(n, rng):
    """The sender's n random bits x, then its n random bases theta."""
    return (rng.integers(0, 2, n, dtype=np.uint8),
            rng.integers(0, 2, n, dtype=np.uint8))


def _hash_pair(n, ell, rng):
    """The two hashes f0, then f1, that finish every transfer."""
    return random_hash(n, ell, rng), random_hash(n, ell, rng)


def _random_halves(m, rng):
    """A uniformly random split of range(m) into m//2 and m - m//2 indices."""
    perm = rng.permutation(m)
    return np.sort(perm[:m // 2]), np.sort(perm[m // 2:])


# --- storing adversary -------------------------------------------------------


# the four pure (bit, basis) states, indexed [bit, basis]; read-only
_BB84_STATES = qsim.bb84_prepare(*np.indices((2, 2)))
_BB84_STATES.flags.writeable = False


def _stored_states(r):
    """The four (bit, basis) states after storage, indexed [bit, basis]."""
    return qsim.depolarize(_BB84_STATES, r)


class StoreAllBob:
    """Individual storage attack: keep every qubit, measure after reveal.

    Once the bases are public, each stored (noised) qubit is measured in
    the revealed basis, which is the optimal two-state discrimination for
    depolarized conjugate-coded states.
    """

    def __init__(self, storage_r):
        self.storage_r = _require_float("storage_r", storage_r)

    def after_reveal(self, noisy_states, theta, rng):
        guesses = qsim.measure(noisy_states, theta, rng)
        set_0, set_1 = _random_halves(len(noisy_states), rng)
        return set_0, set_1, {"guesses": guesses}


# --- plain oblivious transfer ---------------------------------------------------


@dataclass
class RotTranscript(_Transcript):
    n: int
    ell: int
    c: int
    x: np.ndarray
    theta: np.ndarray
    theta_hat: np.ndarray | None
    x_hat: np.ndarray | None
    i0: np.ndarray
    i1: np.ndarray
    f0: ToeplitzHash
    f1: ToeplitzHash
    s0: np.ndarray
    s1: np.ndarray
    y: np.ndarray | None
    i_c_empty: bool = False
    adversary: dict | None = None


def run_rot(n, ell, c, bob=None, rng=None):
    """One run of randomized oblivious transfer over n rounds.

    ``n`` must be an integer, ``ell`` one in [1, n] and ``c`` an integer
    0 or 1, else ValueError before anything is drawn; a bool ``n`` runs as
    the integer it is.

    ``bob=None`` plays the honest receiver with choice bit ``c``.  With
    honest parties the receiver's output equals the chosen string; when
    its chosen index set comes out empty (probability 2^-n) both sides
    hash the zero-padded empty string, and the event is flagged.
    Otherwise ``bob`` is a dishonest receiver such as :class:`StoreAllBob`
    with two members: ``storage_r``, the retention of the storage every
    qubit passes through, and ``after_reveal(noisy_states, theta, rng)``,
    which gets only the noised (n, 2, 2) states and the revealed bases
    and returns the index-set message (set_0, set_1) and a record dict.
    Its transfer is drawn by :func:`_storing_trial`, the one function
    that draws a storing transfer, and its index sets are checked after.
    """
    n, ell = _check_sizes(n, ell)
    c = _require_bit("choice bit c", c)
    rng = make_rng(rng)
    if bob is not None:
        # -- waiting time: every qubit goes through storage --
        x, theta, i0, i1, record, f0, f1 = _storing_trial(
            n, ell, bob, _stored_states(bob.storage_r), rng)
        i0 = np.asarray(i0, dtype=np.int64)
        i1 = np.asarray(i1, dtype=np.int64)
        if not np.array_equal(np.sort(np.concatenate([i0, i1])), np.arange(n)):
            raise ValueError("index sets must partition the rounds")
        receiver = dict(theta_hat=None, x_hat=None, y=None, adversary=record)
        s0, s1 = _hash_stack(((f0, x[i0]), (f1, x[i1])))
    else:
        x, theta = _sender_draw(n, rng)
        theta_hat = rng.integers(0, 2, n, dtype=np.uint8)
        x_hat = _honest_measurement(x, theta, theta_hat, rng)
        # -- waiting time --
        i0, i1 = honest_index_sets(theta, theta_hat, c)
        f0, f1 = _hash_pair(n, ell, rng)
        i_c, f_c = (i0, f0) if c == 0 else (i1, f1)
        s0, s1, y = _hash_stack(((f0, x[i0]), (f1, x[i1]), (f_c, x_hat[i_c])))
        receiver = dict(theta_hat=theta_hat, x_hat=x_hat, y=y,
                        i_c_empty=i_c.size == 0)
    return RotTranscript(n=n, ell=ell, c=c, x=x, theta=theta, i0=i0, i1=i1,
                         f0=f0, f1=f1, s0=s0, s1=s1, **receiver)


# --- robust oblivious transfer ---------------------------------------------------


@dataclass
class RobustTranscript(_Transcript):
    n: int
    ell: int
    c: int
    params: dict
    zeta: float
    x: np.ndarray
    theta: np.ndarray
    theta_hat: np.ndarray | None
    click_mask: np.ndarray
    s_remain: np.ndarray
    abort: bool
    x_hat: np.ndarray | None = None
    i0: np.ndarray | None = None
    i1: np.ndarray | None = None
    f0: ToeplitzHash | None = None
    f1: ToeplitzHash | None = None
    syn0: np.ndarray | None = None
    syn1: np.ndarray | None = None
    s0: np.ndarray | None = None
    s1: np.ndarray | None = None
    corrected: np.ndarray | None = None
    y: np.ndarray | None = None
    decode_ok: bool | None = None
    budget_ok: bool | None = None
    adversary: dict | None = None


def _blocks(code, bits):
    """The string zero-padded to whole blocks, one block per row."""
    bits = np.asarray(bits, dtype=np.uint8)
    words = np.zeros((-(-bits.size // code.n), code.n), dtype=np.uint8)
    words.reshape(-1)[:bits.size] = bits
    return words


def block_syndromes(code, bits):
    """Concatenated per-block syndromes of a string padded to whole blocks."""
    return syndrome(code, _blocks(code, bits)).reshape(-1)


def block_correct(code, bits, syndromes):
    """Blockwise coset-leader correction towards the syndromes' string.

    One :func:`codes.syndrome_decode` call corrects the stacked blocks,
    each towards its own n - k target bits; the padding is trimmed off.
    Targets past the last block are ignored.
    """
    words = _blocks(code, bits)
    blocks, red = len(words), code.n - code.k
    targets = gf2.as_bits(syndromes)[:blocks * red].reshape(blocks, red)
    return syndrome_decode(code, words, targets).reshape(-1)[:np.size(bits)]


class WorstCaseReportingBob:
    """Reports the maximal credible number of single-photon rounds missing.

    On top of its genuine no-click rounds it drops
    (ph_noclick - pd_noclick) * n single-photon rounds, exactly the
    worst case the length bound charges for; anything more trips the
    round-count check deterministically.
    """

    def reported_clicks(self, single_mask, click_mask, params, rng):
        extra = params.ph_noclick - params.pd_noclick
        budget = int(round(extra * len(click_mask)))
        reported = click_mask.copy()
        candidates = np.nonzero(single_mask & click_mask)[0]
        reported[candidates[:budget]] = False
        return reported


def run_robust_rot(params, code, c, bob=None, rng=None, eps_target=1e-3):
    """One run of the loss/error-tolerant oblivious transfer.

    Honest receiver: clicks are lost independently with probability
    ph_noclick, surviving matched-basis bits flip with probability
    ph_err.  The sender aborts when the reported click count leaves
    [(1 - p - zeta) n, (1 - p + zeta) n]; zeta = sqrt(ln(2/eps_target)
    / (2n)) keeps the honest abort probability at most eps_target, which
    must lie in (0, 1].  Error correction is blockwise syndrome decoding
    with the given code.  The choice bit ``c`` is an integer 0 or 1, else
    ValueError before anything is drawn.

    ``bob`` may be a dishonest receiver such as
    :class:`WorstCaseReportingBob`, whose ``reported_clicks(single_mask,
    click_mask, params, rng)`` returns the click mask it reports; the run
    then stops after the sender's messages, with no receiver output.
    """
    n = int(params.n)
    if n != params.n:
        raise ValueError("simulation needs an integer round count")
    _, ell = _check_sizes(n, params.ell)
    if not 0.0 < eps_target <= 1.0:
        raise ValueError("eps_target must lie in (0, 1]")
    c = _require_bit("choice bit c", c)
    rng = make_rng(rng)
    zeta = math.sqrt(math.log(2.0 / eps_target) / (2.0 * n))

    x, theta = _sender_draw(n, rng)
    theta_hat = rng.integers(0, 2, n, dtype=np.uint8)
    single_mask = rng.random(n) < params.p1_sent

    if bob is None:
        reported = rng.random(n) >= params.ph_noclick
    else:
        click_mask = rng.random(n) >= params.pd_noclick
        reported = bob.reported_clicks(single_mask, click_mask, params, rng)

    s_remain = np.nonzero(reported)[0]
    m = s_remain.size
    p = params.ph_noclick
    lo = (1.0 - p - zeta) * n
    hi = (1.0 - p + zeta) * n
    abort = not lo <= m <= hi

    base = dict(p1_sent=params.p1_sent, ph_noclick=params.ph_noclick,
                pd_noclick=params.pd_noclick, ph_err=params.ph_err)
    header = dict(n=n, ell=ell, c=c, params=base, zeta=zeta, x=x, theta=theta,
                  theta_hat=theta_hat, click_mask=reported.astype(np.uint8),
                  s_remain=s_remain, abort=abort)
    if abort:
        return RobustTranscript(**header)

    # -- waiting time --
    x_rem = x[s_remain]
    f0, f1 = _hash_pair(n, ell, rng)

    if bob is not None:
        # sender messages only; a dishonest receiver's decoding is its own.
        # Non-single-photon rounds leak their bit outright (the receiver is
        # assumed able to split off a photon without touching the basis).
        multi = np.nonzero(~single_mask[s_remain])[0]
        receiver = dict(adversary={"multi_rounds": multi.tolist(),
                                   "free_bits": bit_string(x_rem[multi])})
        i0, i1 = _random_halves(m, rng)
    else:
        theta_rem = theta[s_remain]
        hat_rem = theta_hat[s_remain]
        # the flips are drawn before the measurement's uniform bits
        flips = rng.random(m) < params.ph_err
        x_hat = (_honest_measurement(x_rem, theta_rem, hat_rem, rng)
                 ^ flips.astype(np.uint8))
        i0, i1 = honest_index_sets(theta_rem, hat_rem, c)

    syn0 = block_syndromes(code, x_rem[i0])
    syn1 = block_syndromes(code, x_rem[i1])
    pairs = ((f0, x_rem[i0]), (f1, x_rem[i1]))
    if bob is None:
        i_c, syn_c, f_c = (i0, syn0, f0) if c == 0 else (i1, syn1, f1)
        corrected = block_correct(code, x_hat[i_c], syn_c)
        s0, s1, y = _hash_stack(pairs + ((f_c, corrected),))
        receiver = dict(x_hat=x_hat, corrected=corrected, y=y,
                        decode_ok=bool(np.array_equal(corrected, x_rem[i_c])))
    else:
        s0, s1 = _hash_stack(pairs)
    return RobustTranscript(
        **header, i0=i0, i1=i1, f0=f0, f1=f1, syn0=syn0, syn1=syn1, s0=s0,
        s1=s1, budget_ok=syndrome_budget_ok(code, params.ph_err), **receiver)


# --- password identification -------------------------------------------------


@dataclass
class QidTranscript(_Transcript):
    w_alice: int
    w_bob: int
    ell: int
    x: np.ndarray
    theta: np.ndarray
    theta_hat: np.ndarray
    x_hat: np.ndarray
    kappa: np.ndarray
    i_w_alice: np.ndarray
    i_w_bob: np.ndarray
    f: ToeplitzHash
    g: ToeplitzHash
    z: np.ndarray
    accept: bool


def qid_kappa(qcode, w_bob, theta_hat):
    """The server's first message: its codeword XOR its measurement bases."""
    return (qcode.password_bases(w_bob) ^ np.asarray(theta_hat,
                                                     dtype=np.uint8))


def run_qid(w_alice, w_bob, qcode, ell, rng=None):
    """One noiseless honest run of the password identification protocol.

    Matching passwords always accept; differing passwords accept only on
    a hash collision.  Both hash families carry a fresh random offset so
    that outputs of correlated inputs stay jointly uniform.  A password
    outside 1..m raises ValueError before anything is drawn.
    """
    code = qcode.code
    n, ell = _check_sizes(code.n, ell)
    bits_alice = qcode.password_bits(w_alice)
    bits_bob = qcode.password_bits(w_bob)
    w_alice, w_bob = int(w_alice), int(w_bob)
    rng = make_rng(rng)
    x, theta = _sender_draw(n, rng)
    theta_hat = rng.integers(0, 2, n, dtype=np.uint8)
    x_hat = _honest_measurement(x, theta, theta_hat, rng)

    # -- waiting time --
    kappa = qid_kappa(qcode, w_bob, theta_hat)
    shifted_alice = qcode.password_bases(w_alice) ^ kappa
    i_w_alice = np.nonzero(theta == shifted_alice)[0]
    # the server's own shifted bases are theta_hat, by construction of kappa
    i_w_bob = np.nonzero(theta == theta_hat)[0]

    f = random_hash(n, ell, rng, affine=True)
    g_inputs = max(code.k, ell)
    g = random_hash(g_inputs, ell, rng, affine=True)

    hashed = _hash_stack(((f, x[i_w_alice]), (g, bits_alice),
                          (f, x_hat[i_w_bob]), (g, bits_bob)))
    z = hashed[0] ^ hashed[1]
    check = hashed[2] ^ hashed[3]
    accept = bool(np.array_equal(z, check))
    return QidTranscript(w_alice=w_alice, w_bob=w_bob, ell=ell, x=x,
                         theta=theta, theta_hat=theta_hat, x_hat=x_hat,
                         kappa=kappa, i_w_alice=i_w_alice, i_w_bob=i_w_bob,
                         f=f, g=g, z=z, accept=accept)


# --- individual-attack leakage estimation ---------------------------------------


def _hidden_nonuniformity(n, p_post, runs):
    """Exact non-uniformity of the hidden string in each of T StoreAllBob runs.

    Each run is (guesses, i0, i1, f0, f1): the receiver's n guesses, the
    index sets it sent (n//2 and n - n//2 rounds) and the two hashes.
    Sums the receiver's product posterior over every value of both
    substrings, for all T runs at once.  A run's distance adds the
    ``_uniform_distance`` of its (hidden, known) table at each selector
    value and divides by the run's mass; returns the T distances.
    """
    guesses, i0, i1, f0, f1 = zip(*runs)
    guesses = np.array(guesses)
    rows = np.arange(len(runs))[:, np.newaxis]
    log_p = math.log2(p_post)
    log_q = math.log2(1.0 - p_post) if p_post < 1.0 else -math.inf
    tables = {}  # by substring width: both halves share one at even n
    parts = []
    for idx in (i0, i1):
        width = len(idx[0])
        if width not in tables:
            values = np.arange(2 ** width)
            bits = gf2.unpack(values, width)
            # the posterior weight of each agreement count, looked up
            counts = np.arange(width + 1)
            if p_post < 1.0:
                weight = 2.0 ** (counts * log_p + (width - counts) * log_q)
            else:  # perfect storage: posterior concentrated on the guess
                weight = (counts == width).astype(float)
            # a value's agreement with the all-zero guess
            tables[width] = (values, bits.T,
                             width - bits.sum(axis=1, dtype=np.int64), weight)
        values, bits_t, agreement, weight = tables[width]
        # agreement of every value with every run's guesses, (T, 2^w)
        agree = agreement[values ^ gf2.pack(guesses[rows, idx])[:, np.newaxis]]
        parts.append((bits_t, agree, weight[agree]))

    (bits0, agree0, w0), (bits1, _, w1) = parts
    # selector: 0 when the first substring's posterior is strictly
    # below 2^(-alpha/2); that substring is then the provably hidden
    # one.  The comparison p^a (1-p)^(w-a) >= p^(n/2) is evaluated as
    # (2a - n) log p + 2(w - a) log(1-p) >= 0 so that a true tie
    # (a = w = n/2) is exactly zero in floating point.
    width0 = len(i0[0])
    if p_post < 1.0:
        counts = np.arange(width0 + 1)
        margin = (2 * counts - n) * log_p + 2 * (width0 - counts) * log_q
        selector = (margin >= 0.0).astype(np.int64)[agree0]
    else:
        selector = (agree0 == width0).astype(np.int64)
    # per-run tables by hash value, each bin summed in value order
    grouped0 = _binned_outputs(f0, bits0, w0[..., np.newaxis],
                               selector[..., np.newaxis], 2)
    grouped1 = _binned_outputs(f1, bits1, w1[..., np.newaxis], 0, 1)[..., 0]
    # joint tables indexed (run, known string, hidden string) per selector
    joint0 = grouped1[:, :, np.newaxis] * grouped0[:, np.newaxis, :, 0]
    joint1 = grouped0[:, :, 1, np.newaxis] * grouped1[:, np.newaxis, :]
    total = joint0.sum(axis=(1, 2)) + joint1.sum(axis=(1, 2))
    # the hidden string is the table's x: it goes to axis -2
    return (_uniform_distance(joint0.swapaxes(1, 2))
            + _uniform_distance(joint1.swapaxes(1, 2))) / total


def _storing_trial(n, ell, bob, stored, rng):
    """One transfer against ``bob``: the one function that draws a storing
    transfer, for :func:`run_rot` and :func:`estimate_leakage` alike.

    ``stored`` is the table of :func:`_stored_states`.  Returns
    (x, theta, i0, i1, record, f0, f1) in the order they are drawn;
    ``i0`` and ``i1`` are the receiver's index sets as it returned them,
    unchecked.
    """
    x, theta = _sender_draw(n, rng)
    i0, i1, record = bob.after_reveal(stored[x, theta], theta, rng)
    f0, f1 = _hash_pair(n, ell, rng)
    return x, theta, i0, i1, record, f0, f1


def _trial_cells(n, ell):
    """Cells of one :func:`estimate_leakage` trial's largest stacked
    tables: its hash sums, its joint tables, or _TRIAL_CELLS."""
    return max(2 ** (n - n // 2) * ell, 4 ** ell, _TRIAL_CELLS)


def _leakage_chunk(n, ell):
    """Trials per stacked chunk of :func:`estimate_leakage`."""
    return max(1, _LEAKAGE_CHUNK_CELLS // _trial_cells(n, ell))


def estimate_leakage(n, ell, r, trials, rng=None, delta=0.01):
    """What an individually storing receiver learns, against the guarantees.

    Runs ``trials`` transfers against :class:`StoreAllBob` with per-qubit
    depolarizing retention ``r``; trial t draws from the t-th child of
    ``rng.spawn`` through :func:`_storing_trial`, the function a
    :func:`run_rot` call with that child draws through.
    Reports the empirical per-bit guess rate (oracle: the
    optimal-discrimination value (1+r)/2) and the empirical
    non-uniformity of the provably hidden string given the other string
    and the selector bit, computed exactly per run from the receiver's
    product posterior and averaged.  Two one-sided guarantees accompany
    it: the hash-smoothing bound 2^(-((alpha/2 - 1 - ell) - ell)/2 - 1)
    at alpha = n log2(2/(1+r)), and the protocol-level statement error
    min(1, 2 eps(delta, n)).  The latter is always 1.0 here: 2 eps < 1
    needs n of about 4.1e5 rounds even as delta -> 1/4, and n <= 24.
    The report's ``r`` is the float the run used, so ``True``, ``1`` and
    ``1.0`` all report 1.0.

    Every input is checked before the first draw; ell may not exceed 12,
    which caps each joint table at 2^24 cells; ``trials`` may not exceed
    ``LEAKAGE_MAX_TRIALS``, nor may ``trials`` times a trial's cells exceed
    what that many trials hold at n = 24 and ell = 1: 24 trials at
    ell = 12, 6,250 at ell = 8.  The draws run trial
    by trial; the posterior sums run on stacked chunks of trials.  A
    chunk holds at most ``_LEAKAGE_CHUNK_CELLS`` cells of its largest
    tables, the (chunk, ell, 2^(n - n//2)) hash sums and the
    (chunk, 2^ell, 2^ell) joint tables, so memory does not grow with
    ``trials``.  The per-run non-uniformities are added to the average
    in trial order, so the report does not depend on the chunking.
    """
    n = _require_integer("n", n)
    trials = _require_integer("trials", trials)
    if not 1 <= n <= LEAKAGE_MAX_N:
        raise ValueError("exact post-processing needs 1 <= n <= %d"
                         % LEAKAGE_MAX_N)
    _, ell = _check_sizes(n, ell)
    if ell > _LEAKAGE_MAX_ELL:
        raise ValueError("ell = %d exceeds the cap of %d: the joint tables "
                         "hold 2^ell x 2^ell cells" % (ell, _LEAKAGE_MAX_ELL))
    if trials < 1:
        raise ValueError("need at least one trial")
    cap = min(LEAKAGE_MAX_TRIALS,
              LEAKAGE_MAX_TRIALS * _trial_cells(LEAKAGE_MAX_N, 1)
              // _trial_cells(n, ell))
    if trials > cap:
        raise PreconditionError("trials = %d exceeds the cap of %d at n = %d "
                                "and ell = %d" % (trials, cap, n, ell))
    statement_bound = min(1.0, 2.0 * ot_epsilon(delta, n))
    stored = _stored_states(r)
    helstrom_rate = qsim.helstrom(stored[0, 0], stored[1, 0])
    p_post = helstrom_rate  # posterior of the true bit matching the guess
    alpha = -n * math.log2(p_post) if p_post < 1.0 else 0.0
    rng = make_rng(rng)

    bob = StoreAllBob(r)
    chunk = _leakage_chunk(n, ell)
    bit_hits = 0
    nonuni_sum = 0.0
    for start in range(0, trials, chunk):
        runs, xs = [], []
        for child in rng.spawn(min(chunk, trials - start)):
            x, _, i0, i1, record, f0, f1 = _storing_trial(n, ell, bob, stored,
                                                          child)
            xs.append(x)
            runs.append((record["guesses"], i0, i1, f0, f1))
        bit_hits += int(np.count_nonzero(
            np.array([run[0] for run in runs]) == np.array(xs)))
        for value in _hidden_nonuniformity(n, p_post, runs).tolist():
            nonuni_sum += value

    bit_total = trials * n
    pa_exponent = -0.5 * ((alpha / 2.0 - 1.0 - ell) - ell) - 1.0
    pa_bound = min(1.0, 2.0 ** pa_exponent)
    return {
        "n": n, "ell": ell, "r": bob.storage_r, "trials": trials,
        "delta": delta,
        "bit_samples": bit_total,
        "per_bit_guess_rate": bit_hits / bit_total,
        "helstrom_rate": helstrom_rate,
        "alpha": alpha,
        "empirical_nonuniformity": nonuni_sum / trials,
        "pa_bound": pa_bound,
        "statement_bound": statement_bound,
    }
