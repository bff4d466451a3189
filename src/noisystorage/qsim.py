"""Minimal single-qubit density-matrix simulator.

Covers exactly what the protocol simulations need: conjugate-basis state
preparation, Born-rule measurement, depolarizing noise, and optimal
two-state discrimination.  States are 2x2 complex numpy arrays, or
(..., 2, 2) stacks with arrays of bases; the bases are 0
(computational) and 1 (Hadamard), and nothing else.
"""

import numpy as np

from . import gf2
from .bounds import _require_bit, _require_float

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_BASIS_VECTORS = np.array(  # indexed [basis, outcome]
    [np.eye(2), _SQRT_HALF * np.array([[1.0, 1.0], [1.0, -1.0]])],
    dtype=complex)

IDENTITY = np.eye(2, dtype=complex)


def _bit_index(value, name):
    """A 0/1 scalar or array as an index into _BASIS_VECTORS; anything
    else raises ValueError naming ``name``.  A scalar takes the runners'
    bit rule; an array (a 0-d one too) must have an integer or bool dtype
    and pass gf2.as_bits' one check, so a float bit is refused either way."""
    if not (np.ndim(value) or isinstance(value, np.ndarray)):
        return _require_bit(name, value)
    value = np.asarray(value)
    if value.dtype.kind in "biu":
        try:
            return gf2.as_bits(value).astype(np.intp)
        except ValueError:
            pass
    raise ValueError("%s must be 0 or 1" % name)


def bb84_prepare(bit, basis):
    """Projector of the conjugate-coding state |bit> in the given basis
    (a stack of projectors for arrays of bits or bases)."""
    v = _BASIS_VECTORS[_bit_index(basis, "basis"), _bit_index(bit, "bit")]
    return v[..., :, None] * v.conj()[..., None, :]


def born_probability(state, basis, outcome):
    """Probability of the given measurement outcome in the given basis
    (one per state for a stack of states and an array of bases)."""
    v = _BASIS_VECTORS[_bit_index(basis, "basis"),
                       _bit_index(outcome, "outcome")]
    p = (v.conj()[..., None, :] @ state @ v[..., :, None])[..., 0, 0].real
    p = np.minimum(np.maximum(p, 0.0), 1.0)  # np.clip costs twice this
    return p if p.ndim else float(p)


def measure(state, basis, rng):
    """Sample a measurement outcome with Born probabilities.

    A stack of n states takes one ``rng.random(n)`` draw, the same
    doubles as n single measurements, and gives uint8 outcomes.
    """
    p1 = born_probability(state, basis, 1)
    if np.ndim(p1):
        return (rng.random(p1.size) < p1).astype(np.uint8)
    return int(rng.random() < p1)


def depolarize(state, r):
    """Keep the state with probability r, else output the maximally mixed one."""
    r = _require_float("retention r", r)
    if not 0.0 <= r <= 1.0:
        raise ValueError("retention r must lie in [0, 1]")
    state = np.asarray(state, dtype=complex)
    out = r * state + (1.0 - r) * 0.5 * IDENTITY
    # re-symmetrize double-precision drift
    return 0.5 * (out + np.swapaxes(out, -1, -2).conj())


def helstrom(rho0, rho1, p0=0.5):
    """Best success probability of telling rho0 (prior p0) from rho1.

    1/2 (1 + || p0 rho0 - (1-p0) rho1 ||_1), achieved by measuring the
    sign of the weighted difference.
    """
    if not 0.0 <= p0 <= 1.0:
        raise ValueError("prior must lie in [0, 1]")
    diff = p0 * np.asarray(rho0, dtype=complex) \
        - (1.0 - p0) * np.asarray(rho1, dtype=complex)
    trace_norm = float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())
    return 0.5 * (1.0 + trace_norm)
