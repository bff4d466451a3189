"""Labeled finite joint probability tables.

A :class:`JointDistribution` is a table over named registers with finite
alphabets.  All entropy, splitting and privacy-amplification computations
operate on these tables.  Alphabets are index sets ``{0, ..., size-1}``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _require_integer

NORMALIZATION_TOL = 1e-12
MAX_CELLS = 2 ** 16


def _check_cells(cells):
    if cells > MAX_CELLS:
        raise ValueError(
            "table has %d cells, exceeding the %d-cell cap" % (cells, MAX_CELLS))


class JointDistribution:
    """Joint probability table over an ordered list of named registers.

    Parameters
    ----------
    registers : sequence of (name, size) pairs
        Register names must be unique, sizes integers >= 1.
    probs : array-like
        Nonnegative table of shape ``tuple(sizes)`` (or flat row-major),
        summing to 1 within ``1e-12``.
    """

    def __init__(self, registers, probs):
        regs = [(str(name), _require_integer("register size", size))
                for name, size in registers]
        axes = {name: i for i, (name, _) in enumerate(regs)}
        if len(axes) != len(regs):
            raise ValueError("register names must be unique")
        if any(size < 1 for _, size in regs):
            raise ValueError("register sizes must be >= 1")
        shape = tuple(size for _, size in regs)
        _check_cells(math.prod(shape))
        arr = np.asarray(probs, dtype=float).reshape(shape)
        if not arr.min() >= -NORMALIZATION_TOL:  # NaN fails too
            raise ValueError("probabilities must be nonnegative")
        arr = np.maximum(arr, 0.0)  # the bytes of np.clip(arr, 0.0, None)
        total = float(np.add.reduce(arr, axis=None))
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise ValueError("probabilities sum to %r, expected 1 within 1e-12" % total)
        self.registers = regs
        self._axes = axes
        self.probs = arr

    @property
    def names(self):
        return [name for name, _ in self.registers]

    @property
    def sizes(self):
        return tuple(size for _, size in self.registers)

    def axis(self, name):
        try:
            return self._axes[name]
        except (KeyError, TypeError):  # a TypeError for an unhashable name
            raise KeyError("unknown register %r" % name) from None

    def axes(self, names):
        return [self.axis(n) for n in names]

    def size_of(self, name):
        return self.registers[self.axis(name)][1]

    def _group(self, probs, target, given):
        """Group ``probs``, any array of this table's shape, into a matrix.

        Registers outside ``target`` and ``given`` are summed out; the rest
        are reshaped to (|target alphabet|, |given alphabet|), both
        row-major in the listed order.  A stack of such arrays along one
        leading axis gives a stack of matrices.  ``probs`` is not validated,
        so masked or mass-deficient tables are fine.
        """
        lead = probs.ndim - len(self.registers)  # 1 for a stack
        keep = self.axes(list(target) + list(given))
        drop = tuple(lead + i for i in range(len(self.registers))
                     if i not in keep)
        arr = np.add.reduce(probs, axis=drop) if drop else probs
        # reorder surviving axes to the requested order
        order = sorted(keep)
        if keep != order:
            rank = order.index
            arr = np.transpose(arr, [*range(lead),
                                     *(lead + rank(a) for a in keep)])
        t_size = math.prod(arr.shape[lead:lead + len(target)])
        return arr.reshape(*arr.shape[:lead], t_size, -1)

    def marginal(self, keep):
        """Marginal distribution over the registers in ``keep`` (order kept)."""
        keep = list(keep)
        regs = [self.registers[a] for a in self.axes(keep)]
        return JointDistribution(regs, self._group(self.probs, keep, []))

    def grouped(self, target, given):
        """Table reshaped to (|target alphabet|, |given alphabet|).

        Registers outside ``target`` and ``given`` are marginalized out.
        Row index enumerates the joint target alphabet, column index the
        joint given alphabet, both row-major in the listed order.
        """
        target = list(target)
        given = list(given)
        if set(target) & set(given):
            raise ValueError("target and given registers must be disjoint")
        return self._group(self.probs, target, given)

    def with_register(self, name, size, values):
        """Append a register whose value is a deterministic function of the cell.

        ``values`` is an integer array of shape ``self.probs.shape`` giving the
        new register's value in each cell; the new axis holds the cell's mass
        one-hot at that value.
        """
        name, size = str(name), _require_integer("register size", size)
        if name in self._axes:
            raise ValueError("register %r already present" % name)
        values = np.asarray(values)
        if values.shape != self.probs.shape:
            raise ValueError("values must match the table shape")
        if values.dtype.kind not in "iu":  # a fraction would match no slot
            raise ValueError("values must be integers")
        if values.min() < 0 or values.max() >= size:
            raise ValueError("values out of range for size %d" % size)
        _check_cells(self.probs.size * size)
        # a one-hot copy of a validated table needs no second validation
        out = JointDistribution.__new__(JointDistribution)
        out.registers = self.registers + [(name, size)]
        out._axes = {**self._axes, name: len(self.registers)}
        out.probs = np.where(values[..., None] == np.arange(size),
                             self.probs[..., None], 0.0)
        return out


@dataclass
class SubDistribution:
    """A table dominated entrywise by a parent distribution.

    Produced by smoothing: at most ``deficit`` total mass has been removed
    from the parent, so ``mass = 1 - deficit_spent``.
    """

    registers: list
    probs: np.ndarray
    mass: float
