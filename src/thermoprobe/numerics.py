"""Shared numerical kernels: bracketed root finding, a fixed-step RK4
integrator, and Richardson-refined central differences.

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
    """A computed quantity, such as an ODE state or a relaxation time, left the
    finite floating-point range."""


class StepTooSmall(ValueError):
    """Finite-difference step is below the roundoff floor for this abscissa."""


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


def integrate_ode(rhs, y0, t_end, dt):
    """Integrate ``y' = rhs(y)`` from 0 to ``t_end`` with classic fixed-step RK4.

    The step is ``t_end / ceil(t_end / dt)`` so the endpoint is hit exactly.
    Accepts scalar or array states and returns the same kind.

    Raises:
        NonFiniteState: if any state component becomes non-finite.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < 0.0:
        raise ValueError(f"t_end must be nonnegative, got {t_end}")
    scalar = np.ndim(y0) == 0
    y = np.array(y0, dtype=float, copy=True, ndmin=1)
    if t_end > 0.0:
        nsteps = max(1, math.ceil(t_end / dt))
        h = t_end / nsteps
        # overflow is detected via the isfinite check, not numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(nsteps):
                k1 = np.asarray(rhs(y))
                k2 = np.asarray(rhs(y + 0.5 * h * k1))
                k3 = np.asarray(rhs(y + 0.5 * h * k2))
                k4 = np.asarray(rhs(y + h * k3))
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if not np.all(np.isfinite(y)):
                    raise NonFiniteState(f"state became non-finite during integration to t={t_end}")
    return float(y[0]) if scalar else y


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
