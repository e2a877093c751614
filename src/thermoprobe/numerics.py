"""Shared pieces: the column table that scans and commands return, the
geometric grid, the scalar-or-sequence convention of the kernels, and the
exception types the other modules raise. Everything in the package is
deterministic: identical inputs produce bit-identical outputs.
"""

import math


class NoConvergence(RuntimeError):
    """A solution misses its accuracy requirement, such as a root whose
    residual stays above the bound."""


class NonFiniteState(FloatingPointError):
    """A computed quantity, such as a relaxation time or a QFI curve, left the
    finite floating-point range."""


class Table:
    """Rows of data held as columns, one block per series.

    ``columns`` names the fields in order. Each block is a tuple with one
    entry per column: a list holds one value per row of the block, and any
    other value repeats over the block. A list may be shared by several
    blocks, such as the temperature grid of every equilibrium curve.
    ``len(table)`` is the number of rows.
    """

    def __init__(self, columns, blocks):
        for block in blocks:
            lengths = {len(cell) for cell in block if isinstance(cell, list)}
            if len(block) != len(columns) or len(lengths) != 1:
                raise ValueError(f"a block needs one entry per column {columns} "
                                 f"and lists of one length, got lengths {sorted(lengths)}")
        self.columns = columns
        self.blocks = blocks

    def __len__(self):
        return sum(map(self.block_rows, self.blocks))

    @staticmethod
    def block_rows(block):
        """Number of rows of one block: the length of its lists."""
        return next(len(cell) for cell in block if isinstance(cell, list))


def listed(value):
    """(entries, True) for a sequence, ([value], False) for a scalar."""
    try:
        return list(value), True
    except TypeError:
        return [value], False


def mapped(f, value):
    """``f`` over a sequence as a list, or ``f(value)`` for a scalar: each
    kernel works out its grid-independent factors, then maps ``f`` this way."""
    entries, many = listed(value)
    values = list(map(f, entries))
    return values if many else values[0]


def geometric_grid(start, stop, points):
    """``points`` values from ``start`` to ``stop`` in geometric progression,
    both ends exact. Point k is 10 ** (k s + log10(start)), s the step of the
    exponents, so it errs by the exponent's rounding times ln 10: 2e-13 at most."""
    if points == 1:
        return [start]
    low = math.log10(start)
    step = (math.log10(stop) - low) / (points - 1)
    return [start] + [10.0 ** (k * step + low) for k in range(1, points - 1)] + [stop]
