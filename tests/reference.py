"""The references and oracles that tests compare the package against.

Two prefixes, each followed by the name of the function it pins:

- ``reference_<name>``: an implementation that the package replaced, kept
  so that a test can ask for ``==`` with its replacement.  The docstring
  names the commit that replaced it, or since when the tests keep it.
- ``oracle_<name>``: an independent computation of the same quantity,
  by scipy, mpmath or literal loops.

The fixtures that more than one test file uses close the module.
"""

import itertools
import json
import math

import numpy as np
from numpy.fft import irfft, rfft
from scipy.optimize import linprog, minimize_scalar

from noisystorage import bounds, checks, codes, gf2
from noisystorage.bounds import (
    OtParams,
    PreconditionError,
    StorageModel,
    binary_entropy,
    ot_epsilon,
)
from noisystorage.codes import (
    RANDOM_CODE_TRIES,
    LinearCode,
    min_distance,
    syndrome,
    syndrome_decode,
)
from noisystorage.distributions import JointDistribution
from noisystorage.entropy import _uniform_distance
from noisystorage.hashing import (
    FFT_MIN_CELLS,
    ToeplitzHash,
    _columns,
    hash_apply,
    hash_apply_many,
    random_hash,
)
from noisystorage.protocols import (RotTranscript, StoreAllBob, make_rng,
                                    run_rot)
from noisystorage.qsim import bb84_prepare, depolarize, helstrom


# --- bounds ------------------------------------------------------------------


def oracle_strong_converse_exponent(R, r, dim=2):
    """Pins bounds.strong_converse_exponent by scipy's bounded minimizer."""
    lam_p = r + (1.0 - r) / dim
    lam_m = (1.0 - r) / dim

    def neg(alpha):
        if lam_m > 0:
            log_s = np.logaddexp2(alpha * math.log2(lam_p),
                                  math.log2(dim - 1) + alpha * math.log2(lam_m))
            bracket = R - math.log2(dim) + log_s / (1.0 - alpha)
        else:
            bracket = R - math.log2(dim)
        return -(alpha - 1.0) / alpha * bracket

    best = 0.0
    for lo, hi in ((1 + 1e-9, 2.0), (2.0, 100.0), (100.0, 1e6)):
        res = minimize_scalar(neg, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        best = max(best, -res.fun)
    # alpha -> infinity limit
    best = max(best, R - math.log2(dim) - math.log2(lam_p))
    return max(0.0, best)


def reference_strong_converse_exponent(R, storage):
    """Pins bounds.strong_converse_exponent: the scan that db5154e replaced."""
    if not R >= 0.0:  # nan too
        raise PreconditionError("rate R must be nonnegative, got %r" % (R,))
    d = storage.dim
    lam_plus, lam_minus = bounds._eigenvalues(storage)
    log_d = math.log2(d)
    lam_plus_log2 = math.log2(lam_plus)
    f_inf = R - log_d - lam_plus_log2  # alpha -> infinity limit

    if lam_minus == 0.0:
        # noiseless channel: objective is (1 - 1/alpha)(R - log2 d)
        return bounds._finite_exponent(max(0.0, f_inf), R, storage)

    ln_p = math.log(lam_plus)
    ln_m = math.log(lam_minus)
    ln_ratio = ln_m - ln_p
    residue = lam_plus + (d - 1.0) * lam_minus - 1.0

    def objective(s):
        alpha = 1.0 + s
        arg = (lam_plus * math.expm1(s * ln_p)
               + (d - 1.0) * lam_minus * math.expm1(s * ln_m) + residue)
        if arg > -0.5:
            g = math.log1p(arg) / bounds.LN2
        else:
            g = alpha * lam_plus_log2 + math.log2(
                1.0 + (d - 1.0) * math.exp(alpha * ln_ratio))
        return (s * (R - log_d) - g) / alpha

    scan = bounds.ALPHA_SCAN
    best_val = 0.0  # alpha -> 1 limit of the objective
    best_i = -1
    for i, s in enumerate(scan):
        v = objective(s)
        if v > best_val:
            best_val, best_i = v, i

    if best_i < 0:
        return max(0.0, f_inf)

    lo = scan[best_i - 1] if best_i > 0 else 0.0
    hi = scan[best_i + 1] if best_i + 1 < len(scan) else bounds.ALPHA_MAX
    hi = min(hi, bounds.ALPHA_MAX)

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - inv_phi * (b - a)
    c2 = a + inv_phi * (b - a)
    f1, f2 = objective(c1), objective(c2)
    for _ in range(400):
        if b - a <= bounds.ALPHA_BRACKET_TOL * max(1.0, 1.0 + a):
            break
        if f1 >= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - inv_phi * (b - a)
            f1 = objective(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + inv_phi * (b - a)
            f2 = objective(c2)
    else:
        raise bounds.OptimizationError("exponent bracket did not reach "
                                       "tolerance")

    value = max(best_val, f1, f2, f_inf)
    if value < bounds.GAMMA_NOISE_FLOOR:
        return 0.0
    return bounds._finite_exponent(value, R, storage)


def reference_rate_curve(n, delta, nu, r_grid, dim=2):
    """Pins bounds.rate_curve: one gamma call per point, as before db5154e."""
    OtParams(n=n, delta=delta, storage=None)  # checks n and delta
    rows = []
    for r in r_grid:
        t = bounds._transfer_bound(StorageModel(r=float(r), nu=nu, dim=dim),
                                   delta, n, 0.25 - delta, n)
        rows.append({
            "r": float(r), "nu": nu, "n": n, "delta": delta,
            "gamma": t.gamma, "capacity": t.capacity, "ell": t.ell,
            "ot_rate": t.ell / n, "eps": t.eps, "two_eps": 2.0 * t.eps,
            "feasible": t.ell > 0,
        })
    return rows


def oracle_ot_length(n, delta, r, nu):
    """Pins bounds.ot_length: the unfloored length and eps, written out."""
    decay = ((delta / 4.0) ** 2
             / (32.0 * (2.0 + math.log2(4.0 / delta)) ** 2)) * n
    eps = 2.0 * math.exp(-decay)
    log2_inv_eps = decay / math.log(2.0) - 1.0
    gamma = oracle_strong_converse_exponent((0.25 - delta) / nu, r)
    return gamma * nu * n / 2.0 - log2_inv_eps, eps


def oracle_robust_ot_length(params):
    """Pins bounds.robust_ot_length: the unfloored length, written out."""
    m1 = (params.p1_sent - params.ph_noclick + params.pd_noclick) * params.n
    m = (1.0 - params.ph_noclick) * params.n
    eps = 2.0 * math.exp(
        -((params.delta / 4.0) ** 2
          / (32.0 * (2.0 + math.log2(4.0 / params.delta)) ** 2)) * m1)
    rate = (0.25 - params.delta) * m1 / params.n
    gamma = oracle_strong_converse_exponent(rate / params.storage.nu,
                                            params.storage.r)
    h = binary_entropy(params.ph_err)
    return (gamma * params.storage.nu * params.n / 2.0
            - 1.2 * h * m / 2.0 - math.log2(1.0 / eps))


def _pow2_capped(e):
    """2^e, capped at 1 and flushed to 0 below the subnormals."""
    if e >= 0.0:
        return 1.0
    return 0.0 if e < -1074 else 2.0 ** e


def oracle_qid_error(n, m, delta, ell, d_code, r, nu):
    """Pins bounds.qid_error, written out straight."""
    gamma = oracle_strong_converse_exponent(
        (0.25 - delta) * d_code / (nu * n), r)
    sig = (delta / 4.0) ** 2 * math.log2(math.e) / (
        32.0 * (2.0 - math.log2(delta / 4.0)) ** 2)
    t1 = _pow2_capped(-0.5 * (gamma * nu * n - ell))
    t2 = _pow2_capped(-(sig * d_code - math.log2(m) - 3.0))
    return min(1.0, t1 + t2)


def oracle_impersonation_error(n, m, delta, r, nu):
    """Pins bounds.impersonation_error, with mu by bisection."""
    gamma = oracle_strong_converse_exponent((0.25 - delta) / nu, r)
    lo, hi = 0.0, 0.5
    y = 1.0 - math.log2(m) / n
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    sig = (delta / 4.0) ** 2 * math.log2(math.e) / (
        32.0 * (2.0 - math.log2(delta / 4.0)) ** 2)
    t1 = _pow2_capped(-(gamma * nu * mu * n - 6.0 * math.log2(m) - 1.0) / 3.0)
    t2 = _pow2_capped(-(sig * mu * n - math.log2(m) - 4.0))
    return t1 + t2


# --- checks and codes --------------------------------------------------------


def reference_verify_codes(seed, decode=codes.syndrome_decode):
    """Pins checks.verify_codes: the per-word loop that 0fe4e76 replaced."""
    # each word drawn, encoded, noised and decoded on its own; returns the
    # per-check outcomes
    rng = np.random.default_rng(seed)
    catalog = [codes.repetition_code(3), codes.repetition_code(5),
               codes.hamming_7_4(), codes.extended_hamming_8_4(),
               codes.qid_code(16, 7).code, codes.qid_code(8, 12).code]
    outcomes = []
    for code in catalog:
        outcomes.append(not gf2.matmul(code.parity, code.generator.T).any())
        outcomes.append(code.min_distance == codes.min_distance(code)
                        == checks._python_int_distance(code.generator))
        t = (code.min_distance - 1) // 2
        for _ in range(40):
            msg = rng.integers(0, 2, code.k, dtype=np.uint8)
            word = codes.encode(code, msg)
            weight = int(rng.integers(0, t + 1))
            err = np.zeros(code.n, dtype=np.uint8)
            err[rng.choice(code.n, size=weight, replace=False)] = 1
            fixed = decode(code, word ^ err, codes.syndrome(code, word))
            outcomes.append(np.array_equal(fixed, word))
    qc = codes.qid_code(16, 8)
    outcomes.append(
        len({qc.password_bases(w).tobytes() for w in range(1, 17)}) == 16)
    return outcomes


def oracle_coset_leaders(parity):
    """Pins codes.coset_leaders: syndrome -> leader value, over Python ints."""
    # patterns weight by weight; per syndrome the numerically smallest of
    # the lowest weight, the first bit the most significant throughout
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


def reference_random_code(n, k, seed=0):
    """Pins codes.random_code: the loop of full codes that a60631f replaced."""
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


def reference_min_weight(generator):
    """Pins codes._min_weight: the per-generator kernel 0fe4e76 replaced."""
    k, n = generator.shape
    best = n
    chunk = 1 << 14
    for start in range(1, 2 ** k, chunk):
        msgs = np.arange(start, min(start + chunk, 2 ** k))
        words = gf2.matmul(gf2.unpack(msgs, k), generator)
        best = min(best, int(words.sum(axis=1).min()))
    return best


# --- distributions and entropy -----------------------------------------------


def oracle_smoothed_columns(table, eps):
    """Pins entropy._smoothed_columns' objective by scipy's LP solver."""
    # min sum_y max_x q(x, y) over q <= p with a deficit of at most eps
    n_x, n_y = table.shape
    p = table.reshape(-1)
    n_q = p.size
    c = np.concatenate([np.zeros(n_q), np.ones(n_y)])
    rows = []
    rhs = []
    for x in range(n_x):
        for y in range(n_y):
            row = np.zeros(n_q + n_y)
            row[x * n_y + y] = 1.0
            row[n_q + y] = -1.0
            rows.append(row)
            rhs.append(0.0)
    keep = np.zeros(n_q + n_y)
    keep[:n_q] = -1.0
    rows.append(keep)
    rhs.append(-(p.sum() - eps))
    limits = [(0.0, float(pi)) for pi in p] + [(0.0, None)] * n_y
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=limits,
                  method="highs")
    assert res.success
    return res.fun


def reference_smoothed_columns(table, eps):
    """Pins entropy._smoothed_columns: the segment sort c067f5c replaced."""
    n_rows, n_cols = table.shape
    sorted_cols = np.sort(table, axis=0)[::-1, :]  # descending per column
    ceilings = sorted_cols[0, :].copy()
    segments = []  # (unit cost, column, gain capacity)
    for j in range(n_cols):
        col = sorted_cols[:, j]
        for tier in range(n_rows):
            nxt = col[tier + 1] if tier + 1 < n_rows else 0.0
            width = float(col[tier] - nxt)
            if width > 0.0:
                segments.append((tier + 1, j, width))
    segments.sort(key=lambda s: (s[0], s[1]))
    budget = float(eps)
    for cost, j, width in segments:
        if budget <= 0.0:
            break
        gain = min(width, budget / cost)
        ceilings[j] -= gain
        budget -= gain * cost
    return ceilings, float(ceilings.sum())


def reference_uniform_distance(table):
    """Pins entropy._uniform_distance: one table's sum, as before 21ecba0."""
    n_x = table.shape[0]
    col_mass = table.sum(axis=0)
    return float(0.5 * np.abs(table - col_mass[np.newaxis, :] / n_x).sum())


def oracle_psucc_classical(channel, k):
    """Pins entropy.psucc_classical over every encoder and ML decoding."""
    channel = np.asarray(channel, dtype=float)
    n_out, n_in = channel.shape
    n_msgs = 2 ** k
    best = 0.0
    for assignment in itertools.product(range(n_in), repeat=n_msgs):
        cols = channel[:, list(assignment)]
        score = cols.max(axis=1).sum() / n_msgs
        best = max(best, score)
    return best


def reference_psucc_classical(channel, k):
    """Pins entropy.psucc_classical: the subset loop 48952a2 replaced."""
    n_in = channel.shape[1]
    n_msgs = 2 ** k
    best = 0.0
    for subset in itertools.combinations(range(n_in), min(n_msgs, n_in)):
        score = channel[:, subset].max(axis=1).sum()
        if score > best:
            best = score
    return float(best / n_msgs)


def oracle_split_binary(dist, alpha, given_size):
    """Pins entropy.split_binary's achieved min-entropy, by loops."""
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


def oracle_split_multi(dist, alpha, parts):
    """Pins entropy.split_multi's achieved min-entropy, W uniform, by loops."""
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


def reference_grouped(dist, probs, target, given):
    """Pins JointDistribution.grouped, for any probs; kept since d2117c1."""
    # probs as a (|target|, |given|) table, both in the listed order
    keep_axes = dist.axes(list(target) + list(given))
    drop = tuple(i for i in range(len(dist.sizes)) if i not in keep_axes)
    arr = probs.sum(axis=drop) if drop else probs
    surviving = [i for i in range(len(dist.sizes)) if i not in drop]
    arr = np.transpose(arr, [surviving.index(a) for a in keep_axes])
    t_size = int(np.prod(arr.shape[:len(target)]))
    return arr.reshape(t_size, -1)


def reference_select_first_large(dist, alpha, parts, given):
    """Pins entropy._select_first_large: the index scatter cb76d68 replaced."""
    # V per cell and the achieved min-entropy, one conditional per cell
    m = len(parts)
    threshold = 2.0 ** (-alpha / 2.0)
    idx = np.indices(dist.sizes)
    z_flat = np.zeros(dist.sizes, dtype=np.int64)
    for a in dist.axes(given):
        z_flat = z_flat * dist.sizes[a] + idx[a]
    v_cells = np.full(dist.sizes, m - 1, dtype=np.int64)
    taken = np.zeros(dist.sizes, dtype=bool)
    for j, part in enumerate(parts[:-1]):
        table = reference_grouped(dist, dist.probs, [part], given)
        col = table.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(col > 0.0, table / col[np.newaxis, :], 0.0)
        hit = (cond[idx[dist.axis(part)], z_flat] >= threshold) & ~taken
        v_cells[hit] = j
        taken |= hit
    total = 0.0
    for j in range(m):
        masked = np.where(v_cells == j, dist.probs, 0.0)
        for i in range(m):
            if i != j:
                table = reference_grouped(dist, masked, [parts[i]], given)
                total += table.max(axis=0).sum()
    p = total / (m - 1)
    return v_cells, (-float(np.log2(p)) if p > 0 else float("inf"))


def reference_with_register(dist, name, size, values):
    """Pins JointDistribution.with_register by scatter; kept since d2117c1."""
    arr = np.zeros(dist.probs.shape + (size,), dtype=float)
    idx = np.indices(dist.probs.shape)
    arr[tuple(idx) + (values,)] = dist.probs
    return JointDistribution(dist.registers + [(name, size)], arr)


# --- gf2 ---------------------------------------------------------------------


def reference_unpack(value, width):
    """Pins gf2.unpack: the per-bit shift loop; kept since 50e2e26."""
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def reference_pack(bits):
    """Pins gf2.pack: the per-bit shift loop; kept since 50e2e26."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def reference_rref(mat):
    """Pins gf2.rref: the per-row pivot clearing that c067f5c replaced."""
    m = gf2.as_bits(mat).copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot_rows = np.nonzero(m[r:, c])[0]
        if pivot_rows.size == 0:
            continue
        p = r + pivot_rows[0]
        if p != r:
            m[[r, p]] = m[[p, r]]
        hits = np.nonzero(m[:, c])[0]
        for h in hits:
            if h != r:
                m[h] ^= m[r]
        pivots.append(c)
        r += 1
    return m, pivots


# --- hashing -----------------------------------------------------------------


def oracle_toeplitz_matrix(seed, n, ell):
    """Pins ToeplitzHash's matrix: T[i, j] = seed[ell - 1 + j - i]."""
    return np.array([[seed[ell - 1 + j - i] for j in range(n)]
                     for i in range(ell)], dtype=np.uint8)


def oracle_hash_apply_many(seed, offset, n, ell, rows):
    """Pins hashing.hash_apply_many by the literal matrix, plus the offset."""
    t = oracle_toeplitz_matrix(seed, n, ell).astype(np.int64)
    padded = np.zeros((len(rows), n), dtype=np.int64)
    for r, x in enumerate(rows):
        padded[r, :len(x)] = x
    out = (padded @ t.T) % 2
    if offset is not None:
        out ^= np.array(offset)
    return out.tolist()


def reference_hash_apply(h, x):
    """Pins hashing._hash_stack pair by pair: the one-input kernel it
    replaced after a9c4813, one FFT convolution for an input with
    ell * k >= FFT_MIN_CELLS and else one float64 matrix product."""
    x, k = gf2.as_bits(x), np.size(x)
    out = None
    if h.ell * k >= FFT_MIN_CELLS:
        size = 1 << (h.ell + k - 2).bit_length()
        spec = rfft(h.seed[:h.ell + k - 1], size) * rfft(x[::-1], size)
        sums = irfft(spec, size)[k - 1:h.ell + k - 1][::-1]
        out = np.rint(sums)
        if np.abs(sums - out).max() >= 0.25:
            out = None
    if out is None:
        out = x @ _columns(h, k).T
    if h.offset is not None:
        out += h.offset
    return (out % 2).astype(np.uint8)


def oracle_collision_bound(n, ell):
    """Pins hashing.collision_bound over every input pair and hash."""
    worst = 0.0
    hashes = list(all_hashes(n, ell))
    for x in range(2 ** n):
        for y in range(x + 1, 2 ** n):
            hits = sum(
                np.array_equal(hash_apply(h, int_bits(x, n)),
                               hash_apply(h, int_bits(y, n)))
                for h in hashes)
            worst = max(worst, hits / len(hashes))
    return worst


def reference_difference_map(n, ell, diff):
    """Pins the maps collision_bound ranks, one at a time before 38dfa2f."""
    # A @ seed = T_seed @ diff over all seeds: row i is diff from column
    # ell - 1 - i on, as T[i, j] = seed[ell - 1 + j - i]
    a = np.zeros((ell, n + ell - 1), dtype=np.uint8)
    for i in range(ell):
        a[i, ell - 1 - i:ell - 1 - i + n] = diff
    return a


def reference_collision_bound(n, ell):
    """Pins hashing.collision_bound: one rank per diff, as before 38dfa2f."""
    worst = 0.0
    for diff in gf2.unpack(np.arange(1, 2 ** n), n):
        a = reference_difference_map(n, ell, diff)
        worst = max(worst, 2.0 ** (-gf2.rank(a)))
    return worst


def reference_pa_distance(dist, ell, sample_count, rng):
    """Pins hashing.pa_distance: the per-sample loop that 21ecba0 replaced."""
    x_register, *side = dist.names
    n_bits = dist.size_of(x_register).bit_length() - 1
    table = dist.grouped([x_register], side)
    xs = gf2.unpack(np.arange(2 ** n_bits), n_bits)
    side_mass = table.sum(axis=0)
    distances = []
    for _ in range(sample_count):
        h = random_hash(n_bits, ell, rng)
        out_codes = gf2.pack(hash_apply_many(h, xs))
        weights = np.zeros((2 ** ell, table.shape[1]))
        for code in range(2 ** ell):
            weights[code] = table[out_codes == code].sum(axis=0)
        distances.append(0.5 * np.abs(
            weights - side_mass[np.newaxis, :] / 2 ** ell).sum())
    return np.array(distances)


def reference_binned_outputs(hashes, inputs, weights, side, n_side):
    """Pins hashing._binned_outputs: hash by hash, as before 53cfe39."""
    side = np.broadcast_to(side, weights.shape)
    out = np.zeros((len(hashes), 2 ** hashes[0].ell, n_side))
    for i, h in enumerate(hashes):
        out_codes = gf2.pack(hash_apply_many(h, inputs.T))
        np.add.at(out[i], (out_codes[:, np.newaxis], side[i]), weights[i])
    return out


def reference_stacked_binned_outputs(hashes, inputs, weights, side, n_side):
    """Pins hashing._binned_outputs: its rows built by one _columns call per
    hash, before the rows became one gather of the stacked seeds."""
    count, (k, size), ell = len(hashes), inputs.shape, hashes[0].ell
    rows = np.array([_columns(h, k) for h in hashes])
    sums = rows.reshape(count * ell, k) @ inputs
    parity = sums.astype(np.int64).reshape(count, ell, size) & 1
    codes = gf2.pack(parity.transpose(0, 2, 1))  # (count, N)
    bins = ((np.arange(count)[:, np.newaxis] << ell) + codes) * n_side
    bins = bins[..., np.newaxis] + side
    return np.bincount(bins.ravel(), weights=weights.ravel(),
                       minlength=(count << ell) * n_side
                       ).reshape(count, 2 ** ell, n_side)


def reference_bits_to_hex(bits):
    """Pins hashing.bits_to_hex: the per-bit loop that 0a3e287 replaced."""
    return format(reference_pack(bits), "0%dx" % ((len(bits) + 3) // 4))


# --- protocols and qsim ------------------------------------------------------


# the basis vectors, indexed [basis][outcome], written without qsim so that
# a fault there cannot hide in both paths
_SQRT_HALF = 1.0 / np.sqrt(2.0)
_VECTORS = {
    0: (np.array([1.0, 0.0], dtype=complex),
        np.array([0.0, 1.0], dtype=complex)),
    1: (np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex),
        np.array([_SQRT_HALF, -_SQRT_HALF], dtype=complex)),
}


def reference_storing_trial(n, ell, c, r, rng):
    """Pins run_rot with StoreAllBob: its per-qubit loop, since 7738cc7."""
    x = rng.integers(0, 2, n, dtype=np.uint8)
    theta = rng.integers(0, 2, n, dtype=np.uint8)
    guesses = []
    for b, t in zip(x, theta):
        v = _VECTORS[int(t)][int(b)]
        out = (r * np.outer(v, v.conj())
               + (1.0 - r) * 0.5 * np.eye(2, dtype=complex))
        rho = 0.5 * (out + out.conj().T)
        w = _VECTORS[int(t)][1]
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


def _padded_blocks(code, bits):
    """``bits`` zero-padded and cut into blocks of code.n."""
    blocks = math.ceil(len(bits) / code.n) if len(bits) else 0
    padded = np.zeros(blocks * code.n, dtype=np.uint8)
    padded[:len(bits)] = bits
    return [padded[b * code.n:(b + 1) * code.n] for b in range(blocks)]


def reference_block_syndromes(code, bits):
    """Pins protocols.block_syndromes: one call per block, before a45bd38."""
    out = [syndrome(code, block) for block in _padded_blocks(code, bits)]
    return np.concatenate(out) if out else np.zeros(0, dtype=np.uint8)


def reference_block_correct(code, bits, syndromes):
    """Pins protocols.block_correct: one call per block, before a45bd38."""
    red = code.n - code.k
    out = [syndrome_decode(code, block, syndromes[b * red:(b + 1) * red])
           for b, block in enumerate(_padded_blocks(code, bits))]
    joined = np.concatenate(out) if out else np.zeros(0, dtype=np.uint8)
    return joined[:len(bits)]


def reference_hidden_nonuniformity(t, p_post, enum):
    """Pins protocols._hidden_nonuniformity: per trial, before d6ab5a6."""
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


def reference_stacked_hidden_nonuniformity(n, p_post, runs):
    """Pins protocols._hidden_nonuniformity: one posterior pass per half,
    before the halves shared one per width."""
    guesses, i0, i1, f0, f1 = zip(*runs)
    guesses = np.array(guesses)
    log_p = math.log2(p_post)
    log_q = math.log2(1.0 - p_post) if p_post < 1.0 else -math.inf
    parts = []
    for idx in (i0, i1):
        width = len(idx[0])
        values = np.arange(2 ** width)
        bits = gf2.unpack(values, width)
        sub_guesses = np.take_along_axis(guesses, np.array(idx), axis=1)
        agree = width - bits.sum(axis=1, dtype=np.int64)[
            values ^ gf2.pack(sub_guesses)[:, np.newaxis]]
        counts = np.arange(width + 1)
        if p_post < 1.0:
            weight = 2.0 ** (counts * log_p + (width - counts) * log_q)
        else:
            weight = (counts == width).astype(float)
        parts.append((bits.T, agree, weight[agree]))
    (bits0, agree0, w0), (bits1, _, w1) = parts
    width0 = len(i0[0])
    if p_post < 1.0:
        counts = np.arange(width0 + 1)
        margin = (2 * counts - n) * log_p + 2 * (width0 - counts) * log_q
        selector = (margin >= 0.0).astype(np.int64)[agree0]
    else:
        selector = (agree0 == width0).astype(np.int64)
    grouped0 = reference_stacked_binned_outputs(
        f0, bits0, w0[..., np.newaxis], selector[..., np.newaxis], 2)
    grouped1 = reference_stacked_binned_outputs(
        f1, bits1, w1[..., np.newaxis], 0, 1)[..., 0]
    joint0 = grouped1[:, :, np.newaxis] * grouped0[:, np.newaxis, :, 0]
    joint1 = grouped0[:, :, 1, np.newaxis] * grouped1[:, np.newaxis, :]
    total = joint0.sum(axis=(1, 2)) + joint1.sum(axis=(1, 2))
    return (_uniform_distance(joint0.swapaxes(1, 2))
            + _uniform_distance(joint1.swapaxes(1, 2))) / total


def reference_estimate_leakage(n, ell, r, trials, rng=None, delta=0.01):
    """Pins protocols.estimate_leakage: one run_rot a trial, before d6ab5a6."""
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


def oracle_hidden_nonuniformity(transcript, p_post, ell, n):
    """Pins protocols._hidden_nonuniformity over every pair of strings."""
    # the receiver's product posterior given its guesses; the selector
    # compares p^a (1-p)^(w-a) with p^(n/2) in log space, as the estimator
    # does, so that ties resolve alike
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


def reference_bit_string(arr):
    """Pins protocols.bit_string: the per-bit loop that 0a3e287 replaced."""
    return "".join("01"[int(b)] for b in arr)


def reference_basis_string(arr):
    """Pins protocols.basis_string: the per-bit loop 0a3e287 replaced."""
    return "".join("+x"[int(b)] for b in arr)


def reference_born_probability(state, basis, outcome):
    """Pins qsim.born_probability on one state; kept since 7738cc7."""
    v = _VECTORS[basis][outcome]
    return min(1.0, max(0.0, float((v.conj() @ state @ v).real)))


# --- shared fixtures ---------------------------------------------------------


def all_hashes(n, ell):
    """Every ToeplitzHash of the given sizes."""
    for seed in itertools.product((0, 1), repeat=n + ell - 1):
        yield ToeplitzHash(n=n, ell=ell, seed=seed)


def int_bits(v, n):
    """The n big-endian bits of v."""
    return np.array([(v >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8)


def mixture_k4():
    """Two 16-symbol halves: X0 forced to 0 or X1 is, each with odds 1/2."""
    n = 16
    probs = np.zeros((n, n))
    probs[0, :] += 0.5 / n
    probs[:, 0] += 0.5 / n
    return JointDistribution([("X0", n), ("X1", n)], probs)


def stored_bit_guess_probability(r, basis=0):
    """Best guess of a depolarized conjugate-coded bit, basis known."""
    return helstrom(depolarize(bb84_prepare(0, basis), r),
                    depolarize(bb84_prepare(1, basis), r))


def generator_state(rng):
    """The bit generator's state and how many children it has spawned."""
    state = json.dumps(rng.bit_generator.state, sort_keys=True,
                       default=lambda a: a.tolist())
    return state, rng.bit_generator.seed_seq.n_children_spawned


def qubit(r, nu=1.0):
    """Qubit storage with retention r at storage rate nu."""
    return StorageModel(r=r, nu=nu)


# valid record fields, shared by the bounds tests and the input table
ROBUST_GOOD = dict(n=1e10, delta=0.005, storage=qubit(0.1), p1_sent=1.0,
                   ph_noclick=0.6, pd_noclick=0.05, ph_err=0.01)
QID_GOOD = dict(n=1e9, m=16, delta=0.2, storage=qubit(0.1), ell=1000,
                d_code=int(3e8))
