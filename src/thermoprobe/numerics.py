"""Shared pieces: the column table that the commands return, the
geometric grid, the checked excited degeneracy of a probe and the exception
types the other modules raise. Everything in the package is deterministic:
identical inputs produce bit-identical outputs."""

import math


class NoConvergence(ArithmeticError):
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
    ``rows`` counts the rows of all blocks, and ``len(table)`` returns it.

    A Table holds only finite floats, each distinct list checked once: an inf
    or NaN cell raises NonFiniteState naming its column, where the first
    column is a list its value in the first failing row, and the block's
    scalar labels. None, strings, bools and ints of any size pass.
    """

    def __init__(self, columns, blocks):
        checked, rows, blocks = set(), 0, list(blocks)
        for block in blocks:
            lengths = {len(cell) for cell in block if isinstance(cell, list)}
            if len(block) != len(columns) or len(lengths) != 1:
                raise ValueError(f"a block needs one entry per column {columns} "
                                 f"and lists of one length, got lengths {sorted(lengths)}")
            rows += lengths.pop()  # the block's one list length
            for name, cell in zip(columns, block):
                if not (id(cell) in checked or _finite(cell if isinstance(cell, list) else [cell])):
                    raise NonFiniteState(f"{name} is not finite at {_where(columns, block, cell)}")
                checked.add(id(cell))
        self.columns = columns
        self.blocks = blocks
        self.rows = rows

    def __len__(self):
        return self.rows


def _finite(values):
    """Whether every float of a list is finite: one isfinite pass, or float by
    float where the list also holds None, a str or an int beyond the floats."""
    try:
        return all(map(math.isfinite, values))
    except (TypeError, OverflowError):
        return all(math.isfinite(v) for v in values if isinstance(v, float))


def _where(columns, block, cell):
    """The labels of the first row of a block in which ``cell`` is not finite."""
    row = next(k for k, v in enumerate(cell if isinstance(cell, list) else [cell]) if not _finite([v]))
    first = [f"{columns[0]}={block[0][row]}"] if isinstance(block[0], list) else []
    return ", ".join(first + [f"{name}={v}" for name, v in zip(columns, block) if not isinstance(v, list)])


def excited_degeneracy(n):
    """n - 1, the excited levels of an int dimension n, as a float. ValueError
    for n < 2; NonFiniteState naming N where n exceeds the float range."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    try:
        float(n)  # n - 1 is a float wherever n is
    except OverflowError:
        raise NonFiniteState(f"dimension N={n} exceeds the float range") from None
    return float(n - 1)


def geometric_grid(start, stop, points):
    """``points`` values from ``start`` to ``stop`` in geometric progression,
    both ends exact. Point k is 10 ** (k s + log10(start)), s the step of the
    exponents, so it errs by the exponent's rounding times ln 10: 2e-13 at most."""
    if points < 2:
        raise ValueError(f"need at least 2 points, got {points}")
    low = math.log10(start)
    step = (math.log10(stop) - low) / (points - 1)
    return [start] + [10.0 ** (k * step + low) for k in range(1, points - 1)] + [stop]
