"""What the kernels share: the geometric grid, the checked excited
degeneracy of a probe and the exception types the other modules raise.
Everything in the package is deterministic: identical inputs produce
bit-identical outputs."""

import math


class NoConvergence(ArithmeticError):
    """A solution misses its accuracy requirement, such as a root whose
    residual stays above the bound."""


class NonFiniteState(FloatingPointError):
    """A computed quantity, such as a relaxation time or a QFI curve, left the
    finite floating-point range."""


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
