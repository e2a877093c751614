"""Shared numerical kernels and types: bracketed root finding,
Richardson-refined central differences for the transient kernels, the QFI
value type (a nonnegative value, scalar or array), and the exception types the
other modules raise.

Everything here is deterministic: identical inputs produce bit-identical
outputs, so results can be frozen in regression tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NoSignChange(ValueError):
    """The endpoints handed to find_root do not straddle a root."""


class NoConvergence(RuntimeError):
    """Iteration budget exhausted before reaching the requested tolerance."""


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
class BracketedRoot:
    """A root together with the final bracket that isolates it."""

    lo: float
    hi: float
    root: float
    residual: float


def find_root(f, lo, hi, tol, max_iter=200):
    """Find a root of ``f`` in ``[lo, hi]`` by Brent's method.

    Bisection guarantees progress; inverse-quadratic/secant steps accelerate
    convergence on smooth stretches. Succeeds only once both the bracket width
    and ``|f(root)|`` are within ``tol``.

    Raises:
        NoSignChange: if ``f(lo) * f(hi) >= 0``.
        NoConvergence: if the tolerance is not met within ``max_iter`` steps.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    a, b = float(lo), float(hi)
    fa, fb = float(f(a)), float(f(b))
    if fa * fb >= 0.0:
        raise NoSignChange(f"f({a:g})={fa:g} and f({b:g})={fb:g} do not bracket a root")
    c, fc = a, fa
    d = e = b - a
    converged = False
    for _ in range(max_iter):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        # b is the best estimate, [b, c] brackets the root. The step floor is
        # purely machine precision so steep residuals can still be polished.
        tol1 = 2.0 * np.finfo(float).eps * abs(b)
        xm = 0.5 * (c - b)
        if abs(c - b) <= tol and abs(fb) <= tol:
            converged = True
            break
        if fb == 0.0:
            converged = True
            break
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += math.copysign(tol1, xm)
        fb = float(f(b))
    if not converged:
        raise NoConvergence(
            f"no root to tolerance {tol:g} within {max_iter} iterations "
            f"(bracket width {abs(c - b):g}, residual {fb:g})"
        )
    lo_out = math.nextafter(min(b, c), -math.inf)
    hi_out = math.nextafter(max(b, c), math.inf)
    return BracketedRoot(lo=lo_out, hi=hi_out, root=b, residual=fb)


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
    if h < 1e3 * np.finfo(float).eps * abs(x):
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
