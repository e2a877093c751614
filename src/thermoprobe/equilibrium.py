"""Thermal-equilibrium sensitivity: QFI of fully thermalized probes, in
general and in closed form for effective two-level spectra, the optimal-gap
solver, the analytic certificate that the optimum is a true maximum of the
energy variance, and the equilibrium scan over temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import qfi_harmonic_equilibrium
from .numerics import NoConvergence, NonFiniteState, QfiValue, find_root
from .spectra import EffectiveTwoLevelSpectrum, energy_variance, thermalize


class DimensionTooSmall(ValueError):
    """Certificate machinery needs at least a two-level probe."""


@dataclass(frozen=True)
class OptimalGapResult:
    """Solution of the optimal-gap condition e^x = ((n-n0)/n0)(x+2)/(x-2)."""

    x_star: float
    gap: float
    n: int
    n0: int
    qfi_at_optimum: float
    residual: float


@dataclass(frozen=True)
class HessianCertificate:
    """Variance Hessian at the optimal spectrum plus its analytic spectrum.

    Negative semidefiniteness with a single zero mode (the uniform energy
    shift) certifies the stationary spectrum as a maximum.
    """

    dimension: int
    temperature: float
    x_star: float
    block_entries: tuple  # (a, b, c, d): ground diag, excited diag, ground-excited, excited-excited
    eigenvalues: tuple
    analytic_eigenvalues: tuple
    eigenvalue_error: float
    zero_mode_residual: float

    @property
    def certifies_maximum(self):
        evs = np.array(self.eigenvalues)
        tol = 1e-8 * max(1.0, float(np.abs(evs).max()))
        return bool(evs.max() <= tol and np.sum(np.abs(evs) <= tol) == 1)


def qfi_thermal(ensemble):
    """Equilibrium QFI, variance over T^4 (equivalently heat capacity over T^2)."""
    return QfiValue(value=energy_variance(ensemble) / ensemble.temperature**4)


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


def optimal_gap(n, n0, temperature, tol=1e-12):
    """Solve for the variance-maximizing gap of an (n, n0) two-level probe.

    The root of e^x = ((n-n0)/n0)(x+2)/(x-2) is bracketed in
    (2, 2 + ln(4(n-n0)/n0) + 10) and solved on the rescaled form
    (x-2) - r (x+2) e^{-x}, which stays well conditioned; two Newton polish
    steps push the residual of the original form below 1e-10.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 1 <= n0 <= n - 1:
        raise ValueError(f"ground degeneracy n0={n0} must lie in [1, {n - 1}]")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    r = (n - n0) / n0

    def f(x):
        return (x - 2.0) - r * (x + 2.0) * math.exp(-x)

    lo = 2.0 + 1e-9
    hi = 2.0 + math.log(4.0 * r) + 10.0
    x = find_root(f, lo, hi, tol=tol).root
    for _ in range(2):
        slope = 1.0 + r * (x + 1.0) * math.exp(-x)
        x -= f(x) / slope
    residual = math.exp(x) - r * (x + 2.0) / (x - 2.0)
    if abs(residual) > 1e-10:
        raise NoConvergence(f"gap equation residual {residual:g} exceeds 1e-10 for n={n}, n0={n0}")
    gap = temperature * x
    try:
        t4 = temperature**4
    except OverflowError:
        raise NonFiniteState(f"temperature**4 overflows at T={temperature:g}") from None
    if t4 == 0.0:
        raise NonFiniteState(f"temperature**4 underflows at T={temperature:g}")
    ens = thermalize(EffectiveTwoLevelSpectrum(gap=gap, n=n, n0=n0).expand(), temperature)
    qfi = energy_variance(ens) / t4
    if not math.isfinite(qfi):
        raise NonFiniteState(f"peak QFI {qfi} is not finite for n={n}, n0={n0}, T={temperature:g}")
    return OptimalGapResult(x_star=x, gap=gap, n=n, n0=n0, qfi_at_optimum=qfi, residual=residual)


def _variance_hessian_diag(eps_i, t, z, h1, h2):
    pref = (math.exp(-eps_i / t) / (z * t)) ** 2
    return pref * (
        2.0 * (h2 - 3.0 * h1 * h1 - 4.0 * t * h1 - t * t)
        + 8.0 * (t + h1) * eps_i
        - 4.0 * eps_i * eps_i
        + z * math.exp(eps_i / t) * (
            2.0 * t * t + 2.0 * h1 * (2.0 * t + h1) - h2
            - 2.0 * (2.0 * t + h1) * eps_i + eps_i * eps_i
        )
    )


def _variance_hessian_offdiag(eps_i, eps_j, t, z, h1, h2):
    pref = math.exp(-(eps_i + eps_j) / t) / (t * t * z * z)
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


def hessian_certificate(n, temperature=1.0):
    """Assemble and diagonalize the variance Hessian at the n0=1 optimum.

    The matrix is built from the closed-form second derivatives evaluated with
    the stationary-state substitutions Z = 2x/(2+x), <H> = T(x-2)/2 and
    <H^2> = T^2 x(x-2)/2, then checked against the analytic eigenvalue list
    {shift eigenvalue (n-2 times), pair eigenvalue, 0}.
    """
    if n < 2:
        raise DimensionTooSmall(f"certificate needs n >= 2, got {n}")
    res = optimal_gap(n, 1, temperature)
    x = res.x_star
    t = float(temperature)
    z = 2.0 * x / (2.0 + x)
    h1 = t * (x - 2.0) / 2.0
    h2 = t * t * x * (x - 2.0) / 2.0
    gap = res.gap
    a = _variance_hessian_diag(0.0, t, z, h1, h2)
    b = _variance_hessian_diag(gap, t, z, h1, h2)
    c = _variance_hessian_offdiag(0.0, gap, t, z, h1, h2)
    d = _variance_hessian_offdiag(gap, gap, t, z, h1, h2)
    dense = np.full((n, n), d)
    dense[0, 0] = a
    dense[0, 1:] = c
    dense[1:, 0] = c
    np.fill_diagonal(dense[1:, 1:], b)
    numeric = np.linalg.eigvalsh(dense)
    analytic = np.sort(np.array(
        [hessian_pair_eigenvalue(n, x), 0.0] + [hessian_shift_eigenvalue(n, x)] * (n - 2)
    ))
    return HessianCertificate(
        dimension=n,
        temperature=t,
        x_star=x,
        block_entries=(a, b, c, d),
        eigenvalues=tuple(float(v) for v in numeric),
        analytic_eigenvalues=tuple(float(v) for v in analytic),
        eigenvalue_error=float(np.abs(numeric - analytic).max()),
        zero_mode_residual=float(np.abs(dense.sum(axis=1)).max()),
    )


def qfi_equilibrium_scan(n_list, x_grid, gap=1.0, include_harmonic=True):
    """Equilibrium QFI curves versus temperature at fixed probe gap.

    Returns one row per (probe, grid point) as dicts with keys
    N, T, qfi, qfi_normalized. The normalized column divides each curve by its
    peak over the grid. The harmonic-oscillator curve is appended with
    N = "ho" when requested. Each curve is one kernel call over the grid.

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
            series.append(("ho", qfi_harmonic_equilibrium(gap, temperatures).value))
    t_column = temperatures.tolist()
    rows = []
    for label, values in series:
        peak = float(values.max())
        if not (peak > 0.0 and np.all(np.isfinite(values))):
            raise NonFiniteState(f"QFI curve N={label} has peak {peak} or non-finite values")
        rows.extend(
            {"N": label, "T": t, "qfi": v, "qfi_normalized": w}
            for t, v, w in zip(t_column, values.tolist(), (values / peak).tolist())
        )
    return rows

