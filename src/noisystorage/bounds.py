"""Security-bound and rate calculators for noisy-storage protocols.

Closed-form pieces (binary entropy, the uncertainty-relation exponent
``sigma``, the oblivious-transfer error ``ot_epsilon``, the depolarizing
channel capacity) plus the numerically optimized strong-converse exponent,
and the string-length / error calculators built from them.  All logs are
base 2; lengths are reported as whole bits.
"""

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field

LN2 = math.log(2.0)
ALPHA_MAX = 1e6          # cap for the exponent optimizer
ALPHA_BRACKET_TOL = 1e-10
GAMMA_NOISE_FLOOR = 1e-13  # optimizer results below this are numerically 0
ALPHA_SCAN = tuple(10.0 ** (e / 10.0) for e in range(-120, 61))  # 1e-12 .. 1e6


class BoundsError(Exception):
    """Base for bound outcomes that are not parameter mistakes."""


class InfeasibleStorageError(BoundsError):
    """The storage channel carries too much information for any guarantee."""


class NoPositiveLengthError(BoundsError):
    """The parameters admit no string of positive length."""


class PreconditionError(ValueError):
    """A stated parameter precondition is violated."""


class OptimizationError(RuntimeError):
    """The exponent optimizer failed to converge."""


# --- storage & parameter records -------------------------------------------


@dataclass(frozen=True)
class StorageModel:
    """Adversary storage: a depolarizing channel family used at rate ``nu``.

    ``r`` is the retention probability (the channel keeps the state with
    probability r, otherwise outputs the maximally mixed state);
    ``nu`` is the number of channel uses per transmitted qubit.
    """

    r: float
    nu: float = 1.0
    dim: int = 2

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0:
            raise PreconditionError("retention r must lie in [0, 1]")
        _require_finite("nu", self.nu)
        if self.nu <= 0.0:
            raise PreconditionError("storage rate nu must be positive")
        _require_integer("channel dimension dim", self.dim)
        if self.dim < 2:
            raise PreconditionError("channel dimension must be at least 2")
        _require_finite("channel dimension dim", self.dim)


@dataclass(frozen=True)
class OtParams:
    """Parameters of a randomized oblivious-transfer instance."""

    n: float
    delta: float
    storage: StorageModel

    def __post_init__(self):
        if not 0.0 < self.delta < 0.25:
            raise PreconditionError("delta must lie in (0, 1/4)")
        _require_finite("n", self.n)
        need = 4.0 / self.delta
        if not math.isfinite(need) or self.n < math.ceil(need):
            raise PreconditionError("n >= 4/delta is required for the "
                                    "security statement")


@dataclass(frozen=True)
class RobustParams:
    """Oblivious transfer with losses, dark counts and bit errors.

    ``m_total`` is the expected number of rounds surviving erasure
    reporting; ``m1`` the minimal number of surviving single-photon rounds
    once a dishonest receiver reports the worst-case set as missing.
    """

    n: float
    delta: float
    storage: StorageModel
    p1_sent: float
    ph_noclick: float
    pd_noclick: float
    ph_err: float
    ell: int | None = None

    def __post_init__(self):
        for name in ("p1_sent", "ph_noclick", "pd_noclick", "ph_err"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise PreconditionError("%s must lie in [0, 1]" % name)
        if not 0.0 < self.delta < 0.25:
            raise PreconditionError("delta must lie in (0, 1/4)")
        if self.ph_err >= 0.5:
            raise PreconditionError("honest error rate must be below 1/2")
        _require_finite("n", self.n)
        if self.n <= 0.0:
            raise PreconditionError("round count n must be positive, got %r"
                                    % (self.n,))
        if self.m1 <= 0.0:
            raise PreconditionError("no single-photon rounds survive "
                                    "(p1_sent - ph_noclick + pd_noclick <= 0)")
        if self.m1 < 4.0 / self.delta:
            raise PreconditionError("m1 = (p1_sent - ph_noclick + pd_noclick)"
                                    " * n >= 4/delta is required for the "
                                    "security statement")
        if self.ell is not None:
            _require_integer("ell", self.ell)

    @property
    def m_total(self):
        return (1.0 - self.ph_noclick) * self.n

    @property
    def m1(self):
        return (self.p1_sent - self.ph_noclick + self.pd_noclick) * self.n


@dataclass(frozen=True)
class QidParams:
    """Parameters of a password-based identification instance.

    ``n`` is the code length (= number of qubits per run), ``m`` the
    number of passwords.  ``mu`` is derived: the inverse binary entropy of
    ``1 - log2(m)/n``, the achievable relative distance of a code with
    ``m`` codewords of length ``n``.
    """

    n: float
    m: int
    delta: float
    storage: StorageModel
    ell: int | None = None
    d_code: int | None = None
    mu: float = field(init=False)

    def __post_init__(self):
        _require_integer("m", self.m)
        if self.m < 2:
            raise PreconditionError("need at least two passwords")
        if not 0.0 < self.delta < 0.25:
            raise PreconditionError("delta must lie in (0, 1/4)")
        _require_finite("n", self.n)
        object.__setattr__(self, "mu", _gv_relative_distance(self.n, self.m))
        if self.ell is not None:
            _require_integer("ell", self.ell)
            if self.ell < 1:
                raise PreconditionError("ell must be a positive length")
            _require_finite("ell", self.ell)
        if self.d_code is not None:
            if self.d_code > self.n:  # inf and huge ints too
                raise PreconditionError(
                    "code distance d_code = %s exceeds the code length "
                    "n = %.6g" % (self.d_code, self.n))
            _require_finite("d_code", self.d_code)  # nan passes the above
            _require_integer("d_code", self.d_code)
            _check_code_distance(self.d_code, self.m, self.delta)


def _require_finite(name, value):
    """Reject nan, +-inf and integers past the float range, naming the
    field."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise PreconditionError("%s has no finite float value" % name) from None
    if not finite:
        raise PreconditionError("%s must be finite, got %r" % (name, value))


def _require_integer(name, value):
    """Reject a value that is not a ``numbers.Integral`` (a bool is one)."""
    if not isinstance(value, numbers.Integral):
        raise PreconditionError("%s must be an integer, got %r"
                                % (name, value))


def _gv_relative_distance(n, m):
    """Achievable relative distance of ``m`` codewords of length ``n``.

    mu = h^-1(1 - log2(m)/n).
    """
    if math.log2(m) >= n:
        raise PreconditionError("log2(m) must be smaller than n")
    return inv_binary_entropy(1.0 - math.log2(m) / n)


def _check_code_distance(d_code, m, delta):
    """Identification needs code distance at least (4 + 4 log2 m)/delta."""
    need = (4.0 + 4.0 * math.log2(m)) / delta
    if d_code < need:
        raise PreconditionError(
            "code distance %d below (4 + 4*log2(m))/delta = %.6g"
            % (d_code, need))


# --- elementary formulas ----------------------------------------------------


def binary_entropy(p):
    """h(p) = -p log2 p - (1-p) log2(1-p), with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def inv_binary_entropy(y):
    """Inverse of the binary entropy on the branch (0, 1/2].

    Bisection until |h(p) - y| <= 1e-12.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError("y must lie in [0, 1]")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo == 0.0:
            break
    p = 0.5 * (lo + hi)
    if abs(binary_entropy(p) - y) > 1e-12:
        raise OptimizationError("binary entropy inversion did not converge")
    return p


def sigma(delta):
    """Exponent of the measurement uncertainty bound.

    sigma(delta) = delta^2 * log2(e) / (32 * (2 - log2(delta))^2).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return delta * delta * math.log2(math.e) / (
        32.0 * (2.0 - math.log2(delta)) ** 2)


def _ot_eps_exponent(delta, n):
    """Natural-log decay rate: epsilon = 2 exp(-rate * n)."""
    if not 0.0 < delta < 0.25:
        raise ValueError("delta must lie in (0, 1/4)")
    if n < 1:
        raise ValueError("n must be at least 1")
    return (delta / 4.0) ** 2 / (32.0 * (2.0 + math.log2(4.0 / delta)) ** 2) * n


def ot_epsilon(delta, n):
    """Security error of randomized OT over n rounds at margin delta.

    epsilon = 2 exp(-(delta/4)^2 / (32 (2 + log2(4/delta))^2) * n);
    equivalently 2 * 2^(-sigma(delta/4) * n).  The security statement
    error of the protocol is 2 * epsilon.
    """
    return 2.0 * math.exp(-_ot_eps_exponent(delta, n))


def _eigenvalues(storage):
    lam_plus = storage.r + (1.0 - storage.r) / storage.dim
    lam_minus = (1.0 - storage.r) / storage.dim
    return lam_plus, lam_minus


def depolarizing_capacity(storage):
    """Classical capacity of the depolarizing channel, in bits.

    For qubits: C = 1 + (1+r)/2 log2((1+r)/2) + (1-r)/2 log2((1-r)/2).
    Dimensions above 2 use the eigenvalue form
    log2(d) + l+ log2(l+) + (d-1) l- log2(l-); treat those values as a
    derived extrapolation rather than a quoted result.
    """
    lam_plus, lam_minus = _eigenvalues(storage)
    d = storage.dim
    c = math.log2(d)
    if lam_plus > 0.0:
        c += lam_plus * math.log2(lam_plus)
    if lam_minus > 0.0:
        c += (d - 1) * lam_minus * math.log2(lam_minus)
    return c


def strong_converse_exponent(R, storage):
    """Decay exponent of decoding success at rate R above capacity.

    gamma(R) = sup over alpha >= 1 of
        (alpha-1)/alpha * (R - log2 d + log2(l+^alpha + (d-1) l-^alpha)/(1-alpha)),
    clipped at 0.  The supremum is located by a log-spaced scan in
    alpha - 1 followed by golden-section refinement (bracket tolerance
    1e-10, alpha capped at 1e6); the alpha -> 1 and alpha -> infinity
    limits are evaluated analytically.  gamma(R) > 0 exactly when R
    exceeds the capacity.

    Precondition: the optimum is a finite float.  The scan's
    s * (R - log2 d) overflows for R above about 1.8e302 (a storage rate
    nu below about 1e-303 at the bound calculators' rates), and that
    raises :class:`PreconditionError` naming R and nu.
    """
    if not R >= 0.0:  # nan too
        raise PreconditionError("rate R must be nonnegative, got %r" % (R,))
    d = storage.dim
    lam_plus, lam_minus = _eigenvalues(storage)
    log_d = math.log2(d)
    lam_plus_log2 = math.log2(lam_plus)
    f_inf = R - log_d - lam_plus_log2  # alpha -> infinity limit

    if lam_minus == 0.0:
        # noiseless channel: objective is (1 - 1/alpha)(R - log2 d)
        return _finite_exponent(max(0.0, f_inf), R, storage)

    ln_p = math.log(lam_plus)
    ln_m = math.log(lam_minus)
    ln_ratio = ln_m - ln_p
    # float residue of lam_plus + (d-1) lam_minus - 1, kept so the
    # objective vanishes exactly in the alpha -> 1 limit
    residue = lam_plus + (d - 1.0) * lam_minus - 1.0

    def objective(s):
        # value at alpha = 1 + s, written so that the alpha -> 1
        # cancellation happens inside expm1/log1p instead of between
        # O(1) terms (the optimum sits at s = O(R - C) near capacity)
        alpha = 1.0 + s
        arg = (lam_plus * math.expm1(s * ln_p)
               + (d - 1.0) * lam_minus * math.expm1(s * ln_m) + residue)
        if arg > -0.5:
            g = math.log1p(arg) / LN2
        else:  # far from alpha = 1; evaluate in log space instead
            g = alpha * lam_plus_log2 + math.log2(
                1.0 + (d - 1.0) * math.exp(alpha * ln_ratio))
        return (s * (R - log_d) - g) / alpha

    # bracket the maximizer: log-spaced scan in s = alpha - 1
    best_val = 0.0  # alpha -> 1 limit of the objective
    best_i = -1
    for i, s in enumerate(ALPHA_SCAN):
        v = objective(s)
        if v > best_val:
            best_val, best_i = v, i

    if best_i < 0:
        return max(0.0, f_inf)

    lo = ALPHA_SCAN[best_i - 1] if best_i > 0 else 0.0
    hi = ALPHA_SCAN[best_i + 1] if best_i + 1 < len(ALPHA_SCAN) else ALPHA_MAX
    hi = min(hi, ALPHA_MAX)

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - inv_phi * (b - a)
    c2 = a + inv_phi * (b - a)
    f1, f2 = objective(c1), objective(c2)
    for _ in range(400):
        if b - a <= ALPHA_BRACKET_TOL * max(1.0, 1.0 + a):
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
        raise OptimizationError("exponent bracket did not reach tolerance")

    value = max(best_val, f1, f2, f_inf)
    # results at the evaluator's noise scale are genuine zeros (R <= C);
    # the smallest real exponents of interest are orders above this
    if value < GAMMA_NOISE_FLOOR:
        return 0.0
    return _finite_exponent(value, R, storage)


def _finite_exponent(value, R, storage):
    """``value``, unless the exponent overflowed to infinity."""
    if not math.isfinite(value):
        raise PreconditionError(
            "the exponent at rate R = %.6g per use of storage at rate "
            "nu = %.6g is not a finite float; R must stay below about 1e302"
            % (R, storage.nu))
    return value


# --- string lengths and errors ----------------------------------------------


def _require_capacity_below(product, limit, text):
    """Raise InfeasibleStorageError unless capacity * nu < ``limit``."""
    if product >= limit:
        raise InfeasibleStorageError(
            ("capacity * nu = %(product).6g " + text)
            % {"product": product, "limit": limit})


# One transfer-bound evaluation: ``value`` = gamma(R/nu)*nu*n/2 - ec_bits -
# log2(1/eps) unfloored; ``ell`` is its floor where capacity * nu < R holds
# and the floor is positive, else 0.
_Transfer = namedtuple("_Transfer", "capacity gamma value ell eps")


def _transfer_bound(storage, delta, n, rate, rounds, ec_bits=0.0, nu_n=None):
    """The transfer bound at rate R, epsilon decaying in ``rounds``.

    ``nu_n`` = nu*n keeps robust OT's float order gamma*(nu*n); plain OT's
    (gamma*nu)*n can differ from it in ell.
    """
    cap = depolarizing_capacity(storage)
    gamma = strong_converse_exponent(rate / storage.nu, storage)
    gain = gamma * storage.nu * n if nu_n is None else gamma * nu_n
    # log2(1/eps) in log space, so that huge n cannot underflow it
    exponent = _ot_eps_exponent(delta, rounds)
    value = gain / 2.0 - ec_bits - (exponent / LN2 - 1.0)
    ell = max(0, math.floor(value)) if cap * storage.nu < rate else 0
    return _Transfer(cap, gamma, value, ell, 2.0 * math.exp(-exponent))


def _positive(t, storage, rate, text):
    """``t``, else InfeasibleStorageError, then NoPositiveLengthError."""
    _require_capacity_below(t.capacity * storage.nu, rate, text)
    if t.ell <= 0:
        raise NoPositiveLengthError(
            "no positive-length OT: the bound evaluates to %.6g bits"
            % t.value)
    return t


def _ot(params):
    """The :func:`ot_length` bound; raises as :func:`_positive` does."""
    rate = 0.25 - params.delta
    t = _transfer_bound(params.storage, params.delta, params.n, rate,
                        params.n)
    return _positive(t, params.storage, rate,
                     "exceeds 1/4 - delta = %(limit).6g; no guarantee is "
                     "possible for this storage")


def _robust(params, ec_variant="rounds"):
    """The :func:`robust_ot_length` bound.  Rejects an unknown ``ec_variant``
    (ValueError) before evaluating anything, then raises as _positive."""
    if ec_variant not in ("rounds", "error-complement"):
        raise ValueError("unknown ec_variant %r" % ec_variant)
    storage, n = params.storage, params.n
    m_ec = (params.m_total if ec_variant == "rounds"
            else (1.0 - params.ph_err) * n)
    rate = (0.25 - params.delta) * params.m1 / n
    t = _transfer_bound(storage, params.delta, n, rate, params.m1,
                        1.2 * binary_entropy(params.ph_err) * m_ec / 2.0,
                        storage.nu * n)
    return _positive(t, storage, rate,
                     "exceeds (1/4 - delta) * m1/n = %(limit).6g")


def ot_length(params):
    """Longest string length for randomized OT, with its error.

    Returns (ell_max, epsilon) where
    ell_max = floor(gamma((1/4-delta)/nu) * nu*n/2 - log2(1/epsilon)) and
    the protocol's security statement error is 2*epsilon.
    """
    t = _ot(params)
    return t.ell, t.eps


def robust_ot_length(params, ec_variant="rounds"):
    """Longest string length for OT with losses and errors.

    The error-correction deduction is 1.2 * h(ph_err) * m/2 where
    ``ec_variant`` selects m: "rounds" uses the surviving round count
    (1 - ph_noclick) * n; the alternative "error-complement" variant uses
    (1 - ph_err) * n.  Epsilon decays in the surviving single-photon
    count m1 instead of n.
    """
    t = _robust(params, ec_variant)
    return t.ell, t.eps


def _two_pow_capped(exponent):
    if exponent >= 0.0:
        return 1.0
    if exponent < -1074:  # below double-precision underflow
        return 0.0
    return 2.0 ** exponent


# One identification-bound evaluation: the storage capacity, the two
# uncapped exponents and the error 2^-e1 + 2^-e2 they give, capped at 1.
_Qid = namedtuple("_Qid", "capacity e1 e2 error")


def _qid(params):
    """The :func:`qid_error` bound; ``d_code`` defaults to floor(mu*n - 1)."""
    d_code = params.d_code
    if d_code is None:
        d_code = math.floor(params.mu * params.n - 1.0)
        _check_code_distance(d_code, params.m, params.delta)
    if params.ell is None:
        raise PreconditionError("the hash length ell is required")
    nu_n = params.storage.nu * params.n
    gamma = strong_converse_exponent(
        (0.25 - params.delta) * d_code / nu_n, params.storage)
    e1 = 0.5 * (gamma * nu_n - params.ell)
    e2 = sigma(params.delta / 4.0) * d_code - math.log2(params.m) - 3.0
    return _Qid(depolarizing_capacity(params.storage), e1, e2,
                min(1.0, _two_pow_capped(-e1) + _two_pow_capped(-e2)))


def qid_error(params):
    """Security error of identification against a dishonest server.

    Two contributions: residual hash-output information after the storage
    channel, and the failure probability of the measurement uncertainty
    bound.  Saturates at 1.
    """
    return _qid(params).error


def impersonation_error(params):
    """Hash length choice and total error against either dishonest party.

    Uses a code meeting the achievable-distance bound, d = mu*n - 1, and
    the hash length ell = gamma((1/4-delta)/nu) * nu * d / 3 that balances
    the two directions.  Each error term saturates at 1, so 2 means no
    guarantee at all.  Assumes the password has at least one bit of
    min-entropy.
    """
    t = _impersonation(params)
    return t.ell, t.error


# One impersonation-bound evaluation: the storage capacity, the hash length
# choice, the two uncapped exponents and the error they give.
_Impersonation = namedtuple("_Impersonation", "capacity ell e1 e2 error")


def _impersonation(params):
    storage = params.storage
    cap = depolarizing_capacity(storage)
    _require_capacity_below(cap * storage.nu, 0.25, "is not below 1/4")
    gamma = strong_converse_exponent((0.25 - params.delta) / storage.nu, storage)
    mu = params.mu
    d = mu * params.n - 1.0
    ell_choice = max(0, math.floor(gamma * storage.nu * d / 3.0))
    log_m = math.log2(params.m)
    e1 = (gamma * storage.nu * mu * params.n - 6.0 * log_m - 1.0) / 3.0
    e2 = sigma(params.delta / 4.0) * mu * params.n - log_m - 4.0
    return _Impersonation(cap, ell_choice, e1, e2,
                          _two_pow_capped(-e1) + _two_pow_capped(-e2))


def dishonest_alice_error(m, ell):
    """Impersonation error of an unbounded user: m^2 / 2^ell."""
    if not m >= 1:  # nan too
        raise PreconditionError("m must be at least 1, got %r" % (m,))
    _require_finite("ell", ell)
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return _two_pow_capped(2.0 * math.log2(m) - ell)


# --- tables ------------------------------------------------------------------


FEASIBLE_REGION_HEADER = ("r", "nu", "capacity", "product", "feasible")
RATE_CURVE_HEADER = ("r", "nu", "n", "delta", "gamma", "capacity", "ell",
                     "ot_rate", "eps", "two_eps", "feasible")


def feasible_region(r_steps, nu_steps, r_max=1.0, nu_max=1.0, dim=2):
    """Grid of (r, nu) cells with capacity, product and the product < 1/4 flag.

    The region boundary is the curve capacity(r) * nu = 1/4.
    """
    if r_steps < 2 or nu_steps < 2:
        raise ValueError("grids need at least 2 steps per axis")
    StorageModel(r=r_max, nu=nu_max, dim=dim)  # bounds every cell's r, nu
    rows = []
    for i in range(r_steps):
        r = r_max * i / (r_steps - 1)
        cap = depolarizing_capacity(StorageModel(r=r, nu=1.0, dim=dim))
        for j in range(nu_steps):
            nu = nu_max * (j + 1) / nu_steps
            product = cap * nu
            rows.append({
                "r": r, "nu": nu, "capacity": cap, "product": product,
                "feasible": product < 0.25,
            })
    return rows


def rate_curve(n, delta, nu, r_grid, dim=2):
    """OT rate ell/n over a grid of retention values r.

    Rows where the storage is infeasible, or where no positive length
    remains, carry ell = 0 and feasible = False.  A delta outside (0, 1/4)
    raises :class:`PreconditionError`.
    """
    OtParams(n=n, delta=delta, storage=None)  # checks delta and n
    rows = []
    for r in r_grid:
        t = _transfer_bound(StorageModel(r=float(r), nu=nu, dim=dim), delta,
                            n, 0.25 - delta, n)
        rows.append({
            "r": float(r), "nu": nu, "n": n, "delta": delta,
            "gamma": t.gamma, "capacity": t.capacity, "ell": t.ell,
            "ot_rate": t.ell / n, "eps": t.eps, "two_eps": 2.0 * t.eps,
            "feasible": t.ell > 0,
        })
    return rows


def format_value(v):
    """Fixed CSV formatting: 12 significant digits for reals."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


def rows_to_csv(rows, header):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(row[h]) for h in header))
    return "\n".join(lines) + "\n"
