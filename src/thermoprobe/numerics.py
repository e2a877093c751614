"""Shared numerical kernels and types: Richardson-refined central
differences for the transient kernels, the QFI value type (a nonnegative
value, scalar or array), the column table that scans and commands return,
and the exception types the other modules raise.

Everything here is deterministic: identical inputs produce bit-identical
outputs, so results can be frozen in regression tests.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

# Machine epsilon of a double, the roundoff floor of central_diff steps.
_EPS = sys.float_info.epsilon


class NoConvergence(RuntimeError):
    """A solution misses its accuracy requirement, such as a root whose
    residual stays above the bound."""


class NonFiniteState(FloatingPointError):
    """A computed quantity, such as a relaxation time or a QFI curve, left the
    finite floating-point range."""


class StepTooSmall(ValueError):
    """Finite-difference step is below the roundoff floor for this abscissa."""


class NegativeTime(ValueError):
    """Evolution times must be nonnegative."""


@dataclass(frozen=True)
class QfiValue:
    """Quantum Fisher information of a probe state w.r.t. temperature.

    value carries units of 1/temperature^2; the lower bound on any unbiased
    estimator's standard deviation over nu interrogations is 1/sqrt(nu*value).
    Transient QFIs computed over an array of contact times carry an array.
    """

    value: float | np.ndarray

    def __post_init__(self):
        negative = self.value < 0.0
        if negative.any() if isinstance(negative, np.ndarray) else negative:
            raise ValueError(f"QFI must be nonnegative, got {self.value}")


@dataclass(frozen=True)
class Table:
    """Rows of data held as columns, one block per series.

    ``columns`` names the fields in order. Each block is a tuple with one
    entry per column: a list holds one value per row of the block, and any
    other value repeats over the block. A list may be shared by several
    blocks, such as the temperature grid of every equilibrium curve.
    ``len(table)`` is the number of rows.
    """

    columns: tuple
    blocks: list

    def __post_init__(self):
        for block in self.blocks:
            lengths = {len(cell) for cell in block if isinstance(cell, list)}
            if len(block) != len(self.columns) or len(lengths) != 1:
                raise ValueError(f"a block needs one entry per column {self.columns} "
                                 f"and lists of one length, got lengths {sorted(lengths)}")

    def __len__(self):
        return sum(map(self.block_rows, self.blocks))

    @staticmethod
    def block_rows(block):
        """Number of rows of one block: the length of its lists."""
        return next(len(cell) for cell in block if isinstance(cell, list))


def central_diff(f, x, h, order=1):
    """Richardson-refined central difference of ``f`` at ``x``.

    order=1 gives f'(x), order=2 gives f''(x); both are O(h^4) accurate after
    one refinement and require f at x +/- h and x +/- h/2. Works for scalar-
    or array-valued f.

    Raises:
        StepTooSmall: when h is under 1e3 machine epsilons relative to |x|.
    """
    if h <= 0.0:
        raise StepTooSmall(f"step must be positive, got {h}")
    if h < 1e3 * _EPS * abs(x):
        raise StepTooSmall(f"step {h:g} is below the roundoff floor at x={x:g}")
    if order == 1:
        def estimate(s):
            return (f(x + s) - f(x - s)) / (2.0 * s)
    elif order == 2:
        f0 = f(x)

        def estimate(s):
            return (f(x + s) - 2.0 * f0 + f(x - s)) / (s * s)
    else:
        raise ValueError(f"order must be 1 or 2, got {order}")
    return (4.0 * estimate(h / 2.0) - estimate(h)) / 3.0
