"""Small dense linear algebra over GF(2), on uint8 numpy arrays.

Bit strings and integers convert big-endian, first bit most significant,
in ``pack`` and ``unpack`` only.
"""

import numpy as np


def as_bits(a):
    """Coerce to a uint8 array of 0/1 entries.

    Any entry that is not exactly 0 or 1 raises ValueError, before the
    cast that would truncate 0.5 to 0 or wrap -1.  A uint8 array takes one
    ``max`` check.
    """
    arr = np.asarray(a)
    if arr.dtype == np.uint8:
        bits = not arr.size or arr.max() <= 1
    else:
        bits = ((arr == 0) | (arr == 1)).all()
    if not bits:
        raise ValueError("entries must be bits (0 or 1)")
    return arr.astype(np.uint8, copy=False)


def matmul(a, b):
    """Matrix product over GF(2)."""
    return (as_bits(a).astype(np.int64) @ as_bits(b).astype(np.int64)) % 2


def pack(bits):
    """int64 value of each 0/1 string along the last axis (<= 63 bits)."""
    bits = np.asarray(bits, dtype=np.int64)
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1))


def unpack(values, width):
    """The low ``width`` bits of each value, shape ``values.shape + (width,)``.

    uint8; arrays are read as int64, a Python int exactly at any width.
    """
    if isinstance(values, int):
        value = (values & ((1 << width) - 1)).to_bytes(-(-width // 8), "big")
        raw = np.unpackbits(np.frombuffer(value, dtype=np.uint8))
        return raw[raw.size - width:]
    shifts = np.arange(width - 1, -1, -1)
    return ((np.asarray(values, np.int64)[..., None] >> shifts) & 1).astype(
        np.uint8)


def rref(mat):
    """Reduced row-echelon form. Returns (reduced matrix, pivot columns)."""
    m = as_bits(mat).copy()
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
        # clear every other 1 in this column, XOR-ing row r into those rows
        col = m[:, c].copy()
        col[r] = 0
        m ^= col[:, None] & m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(mat):
    return len(rref(mat)[1])


def nullspace(mat):
    """Basis of {x : mat @ x = 0 over GF(2)}, as rows of the returned matrix."""
    red, pivots = rref(mat)
    cols = red.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = red[:len(pivots), free].T
    return basis
