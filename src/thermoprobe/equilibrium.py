"""Thermal-equilibrium sensitivity of fully thermalized probes: the
closed-form QFI of effective two-level spectra, the optimal gap and peak QFI
in closed form, the certificate that the optimum is a true maximum of the
energy variance, and the equilibrium scan over temperature.
"""

from __future__ import annotations

import numpy as np

from .gaussian import qfi_harmonic_equilibrium
from .numerics import NoConvergence, NonFiniteState, Table


class DimensionTooSmall(ValueError):
    """Certificate machinery needs at least a two-level probe."""


def qfi_effective_two_level(x, n, gap):
    """Closed-form QFI of an n-level probe with a single ground level and an
    (n-1)-fold degenerate excited level at ``gap``, evaluated at x = gap/T.
    ``x`` may be an array; the value is then an array over it.

    Written with decaying exponentials so large x cannot overflow, and as
    (n-1) (x^2 e^{-x/2} / (gap (1 + (n-1) e^{-x})))^2 so that no factor goes
    subnormal before the result does (e^{-x/2} stays normal up to x = 1400).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    x = np.asarray(x, dtype=float)
    emh = np.exp(-0.5 * x)
    return (n - 1) * (x * x * emh / (gap * ((n - 1) * emh * emh + 1.0))) ** 2


def _gap_ratio(r):
    """Root x > 2 of (x - 2) - r (x + 2) e^{-x} for an array of r > 0.

    The function is increasing and concave for x > 0 and its root exceeds
    max(2, ln r), so Newton's iterates from there rise monotonically to the
    root; the loop ends once no iterate rises.
    """
    x = np.maximum(2.0, np.log(r))
    while True:
        w = r * np.exp(-x)
        step = ((x - 2.0) - (x + 2.0) * w) / (1.0 + (x + 1.0) * w)
        rising = x - step > x
        if not rising.any():
            return x
        x = np.where(rising, x - step, x)


def _check_temperature(temperature):
    """Raise unless temperature is positive and temperature**4 is finite and nonzero."""
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    try:
        t4 = temperature**4
    except OverflowError:
        raise NonFiniteState(f"temperature**4 overflows at T={temperature:g}") from None
    if t4 == 0.0:
        raise NonFiniteState(f"temperature**4 underflows at T={temperature:g}")


def _optimal_peak(n, n0):
    """x* of the (n, n0) gap equation and the peak variance over T^2,
    x^2 p (1-p), in extended precision, for int arrays n and n0."""
    excited = np.asarray(n - n0, dtype=float)
    ground = np.asarray(n0, dtype=float)
    x = _gap_ratio(excited / ground)
    xl = x.astype(np.longdouble)
    weight = excited * np.exp(-xl)
    total = ground + weight
    residual = np.abs((xl - 2.0) * ground / ((xl + 2.0) * weight) - 1.0)
    worst = residual.argmax()
    if residual.flat[worst] > 1e-10:
        raise NoConvergence(f"gap equation residual {float(residual.flat[worst]):g} exceeds 1e-10 "
                            f"for n={n.flat[worst]}, n0={n0.flat[worst]}")
    return x, xl * xl * weight * ground / (total * total)


def optimal_gap(n, n0, temperature):
    """Variance-maximizing gaps of (n, n0) probes, n0 levels at 0 and n - n0
    at the gap, for ints or int sequences n and n0 that broadcast together.

    The gap is T x*, with x* the root of e^x = ((n-n0)/n0)(x+2)/(x-2).
    Returns arrays (x_star, qfi_peak, excess): x*, the peak QFI
    x^2 p (1-p) / T^2, where p = (n-n0) e^{-x} / (n0 + (n-n0) e^{-x}) is the
    excited population, and the peak variance T^2 x^2 p (1-p) of ground
    degeneracy n0 - 1 less that of n0 (NaN at n0 = 1), from one array solve.
    Peaks and excess are formed in extended precision, where the platform has
    it, and rounded once, since the two peaks of an excess share one digit at
    n <= 64 and three at n0 = 1000.

    Raises:
        ValueError: for n < 2, n0 outside [1, n-1] or a nonpositive temperature.
        OverflowError: when n - n0 or n0 exceeds the float range.
        NoConvergence: when |e^x (x-2) n0 / ((n-n0)(x+2)) - 1| exceeds 1e-10,
            as it does once x* lies too close to 2 to be resolved.
        NonFiniteState: when temperature**4 overflows or underflows.
    """
    # object arrays keep Python ints exact until n - n0 is formed
    n, n0 = np.broadcast_arrays(np.asarray(n, dtype=object), np.asarray(n0, dtype=object))
    if np.any(n < 2):
        raise ValueError(f"need n >= 2, got {n}")
    if np.any((n0 < 1) | (n0 > n - 1)):
        raise ValueError(f"ground degeneracies {n0} must lie in [1, n - 1] for n={n}")
    _check_temperature(temperature)
    lower = (n0 > 1).astype(bool)
    x, peak = _optimal_peak(np.stack([n, n]), np.stack([n0, n0 - lower]))
    t2 = np.longdouble(temperature) ** 2
    excess = np.where(lower, (peak[1] - peak[0]) * t2, np.nan)
    return x[0], (peak[0] / t2).astype(float), excess.astype(float)


def _variance_hessian_diag(eps_i, t, z, h1, h2):
    pref = (np.exp(-eps_i / t) / (z * t)) ** 2
    return pref * (
        2.0 * (h2 - 3.0 * h1 * h1 - 4.0 * t * h1 - t * t)
        + 8.0 * (t + h1) * eps_i
        - 4.0 * eps_i * eps_i
        + z * np.exp(eps_i / t) * (
            2.0 * t * t + 2.0 * h1 * (2.0 * t + h1) - h2
            - 2.0 * (2.0 * t + h1) * eps_i + eps_i * eps_i
        )
    )


def _variance_hessian_offdiag(eps_i, eps_j, t, z, h1, h2):
    pref = np.exp(-(eps_i + eps_j) / t) / (t * t * z * z)
    s = eps_i + eps_j
    return pref * (4.0 * h1 * (s - 2.0 * t) + s * (4.0 * t - s) + 2.0 * h2 - 6.0 * h1 * h1 - 2.0 * t * t)


def hessian_shift_eigenvalue(n, x):
    """Eigenvalue on excited-sector differences, (n-2)-fold degenerate."""
    return -(x - 2.0) / (2.0 * (n - 1))


def hessian_pair_eigenvalue(n, x):
    """Nonzero eigenvalue of the ground/excited 2x2 sector.

    The factor n is forced by the zero row sums of the block matrix: the
    sector trace is a - c and c = -a/(n-1), so the eigenvalue picks up
    n/(n-1) relative to the bare diagonal entry.
    """
    return -n * (x * x - 4.0) / (8.0 * (n - 1))


def hessian_blocks(n, temperature=1.0):
    """The variance Hessian at the (n, 1) optimum for an int or int array n.

    The n x n matrix has a at (0, 0), c in the rest of row and column 0, b on
    the rest of the diagonal and d elsewhere, from the closed-form second
    derivatives with the stationary-state substitutions Z = 2x/(2+x),
    <H> = T(x-2)/2 and <H^2> = T^2 x(x-2)/2. Differences of excited levels
    have eigenvalue b - d; the ground level and the uniform excited vector
    span the block [[a, c sqrt(n-1)], [c sqrt(n-1), b + (n-2) d]], whose two
    eigenvalues are found numerically, batched over n.

    Returns x_star, the entries (a, b, c, d) and the block eigenvalues
    (low, high), each an array over n.
    """
    n = np.asarray(n)
    if np.any(n < 2):
        raise DimensionTooSmall(f"certificate needs n >= 2, got {n}")
    _check_temperature(temperature)
    x, _ = _optimal_peak(n, np.ones_like(n))
    t = float(temperature)
    z = 2.0 * x / (2.0 + x)
    h1 = t * (x - 2.0) / 2.0
    h2 = t * t * x * (x - 2.0) / 2.0
    gap = t * x
    a = _variance_hessian_diag(0.0, t, z, h1, h2)
    b = _variance_hessian_diag(gap, t, z, h1, h2)
    c = _variance_hessian_offdiag(0.0, gap, t, z, h1, h2)
    d = _variance_hessian_offdiag(gap, gap, t, z, h1, h2)
    block = np.empty(n.shape + (2, 2))
    block[..., 0, 0] = a
    block[..., 0, 1] = block[..., 1, 0] = c * np.sqrt(n - 1)
    block[..., 1, 1] = b + (n - 2) * d
    eigenvalues = np.linalg.eigvalsh(block)
    return x, (a, b, c, d), (eigenvalues[..., 0], eigenvalues[..., 1])


def hessian_certificate(n, temperature=1.0):
    """Certify the (n, 1) optimum as a maximum of the energy variance for
    each dimension in the int sequence n.

    The numeric eigenvalues are the block pair of ``hessian_blocks`` and
    b - d, (n-2)-fold; the analytic ones are the pair eigenvalue, 0 and the
    shift eigenvalue, in the same order. The optimum is certified when b - d
    is negative (for n > 2) and the block has one negative eigenvalue and one
    within 1e-8 of zero, relative to the negative one (or 1): its mode is
    the uniform energy shift, which the two distinct row sums of the Hessian
    check. No tolerance is applied to b - d, whose magnitude falls as 1/n.

    Returns a Table with columns N, x_star, lambda_pair, lambda_shift (empty
    at N = 2), shift_multiplicity, eigenvalue_error, zero_mode_residual and
    certifies_maximum.
    """
    n = np.asarray(n)
    x, (a, b, c, d), (low, high) = hessian_blocks(n, temperature)
    pair = hessian_pair_eigenvalue(n, x)
    shift = hessian_shift_eigenvalue(n, x)
    numeric = np.stack([low, high, b - d])
    analytic = np.stack([pair, np.zeros_like(x), shift])
    present = np.stack(np.broadcast_arrays(True, True, n > 2))
    error = np.abs(numeric - analytic).max(axis=0, where=present, initial=0.0)
    tol = 1e-8 * np.maximum(1.0, np.abs(low))
    certifies = (low < -tol) & (np.abs(high) <= tol) & ((b - d < 0.0) | (n == 2))
    residual = np.maximum(np.abs(a + (n - 1) * c), np.abs(c + b + (n - 2) * d))
    dims = n.tolist()
    lambda_shift = [s if k > 2 else None for k, s in zip(dims, shift.tolist())]
    return Table(("N", "x_star", "lambda_pair", "lambda_shift", "shift_multiplicity",
                  "eigenvalue_error", "zero_mode_residual", "certifies_maximum"),
                 [(dims, x.tolist(), pair.tolist(), lambda_shift, (n - 2).tolist(),
                   error.tolist(), residual.tolist(), certifies.tolist())])


def qfi_equilibrium_scan(n_list, x_grid, gap=1.0, include_harmonic=True):
    """Equilibrium QFI curves versus temperature at fixed probe gap.

    Returns a Table with columns N, T, qfi, qfi_normalized and one block per
    probe, in which N is the probe's label and every block shares one T list.
    The normalized column divides each curve by its peak over the grid. The
    harmonic-oscillator curve is appended with N = "ho" when requested. Each
    curve is one kernel call over the grid.

    Raises:
        NonFiniteState: if a temperature is not finite and positive, a QFI is
            not finite, or a curve's peak is zero, so that it cannot be
            normalized.
    """
    n_list = list(n_list)
    if not n_list and not include_harmonic:
        raise ValueError("need at least one probe series")
    x_grid = np.asarray(list(x_grid), dtype=float)
    if x_grid.size == 0 or np.any(x_grid <= 0.0):
        raise ValueError("x_grid must be nonempty and strictly positive")
    # overflow and underflow are caught by the finiteness checks, not numpy warnings
    with np.errstate(all="ignore"):
        temperatures = gap / x_grid
        if not np.all(np.isfinite(temperatures) & (temperatures > 0.0)):
            raise NonFiniteState(f"temperature gap/x is not finite and positive on the grid (gap={gap:g})")
        series = [(n, qfi_effective_two_level(x_grid, n, gap)) for n in n_list]
        if include_harmonic:
            series.append(("ho", qfi_harmonic_equilibrium(gap, temperatures)))
    t_column = temperatures.tolist()
    blocks = []
    for label, values in series:
        peak = float(values.max())
        if not (peak > 0.0 and np.all(np.isfinite(values))):
            raise NonFiniteState(f"QFI curve N={label} has peak {peak} or non-finite values")
        blocks.append((label, t_column, values.tolist(), (values / peak).tolist()))
    return Table(("N", "T", "qfi", "qfi_normalized"), blocks)

