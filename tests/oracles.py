"""Independent oracles and helpers used only by the tests.

- Relaxation dynamics: a fixed-step RK4 integrator and the population
  generator of the n-level ladder. The package evolves populations in closed
  form; these integrate the master equation instead.
- Derivatives: Richardson-refined central differences.
- Fidelity curvature: the QFI as -2 d^2F/dT^2 of the Uhlmann fidelity, for
  population vectors, Bloch vectors and single-mode covariances (xx, xp, pp),
  with the Gaussian fidelity from determinant invariants. The package uses
  the variance form at equilibrium and exact temperature derivatives for
  transient states.
- Gibbs statistics of arbitrary finite spectra: populations, the energy
  variance and the equilibrium QFI as variance over T^4. The package computes
  effective two-level probes in closed form instead.
- Closed forms: the transient QFI of a ground-prepared qubit, the mean
  energy, the heat capacity, the relaxed Bloch vector and covariance of any
  preparation, and the thermal and squeezed covariances the tests prepare.
- Spectrum optimality: the pairwise stationarity conditions of the energy
  variance, a global multi-start search for its maximum, against which the
  two-level gap equation of the package is checked, and the dense n x n
  variance Hessian with all its eigenvalues, against which the package's
  2x2 block certificate is checked.
- Roots: plain bisection.
- Tables: the row dicts a column Table stands for, expanded one row at a
  time, so that tests read scans and the renderer's oracles see rows.
- Flags: the command-line form of one parameter value.
- Files: config files that the CLI cannot read, and stdouts it cannot write.
"""

import errno
import io
import math
from dataclasses import dataclass

import numpy as np

from thermoprobe.numerics import NonFiniteState


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
    """Richardson-refined central difference of ``f`` at ``x`` with step ``h``.

    order=1 gives f'(x), order=2 gives f''(x); both are O(h^4) accurate after
    one refinement and take f at x +/- h and x +/- h/2. Works for scalar- or
    array-valued f.
    """
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


def rate_matrix(n, model):
    """Population generator L with dp/dt = L p for the n-level ladder.

    Each excited level exchanges population with the ground level only, all at
    the same transition frequency. The Gibbs vector is a null vector of L.
    """
    down = model.decay_rate
    up = down * math.exp(-model.ratio)
    gen = np.zeros((n, n))
    gen[0, 0] = -(n - 1) * up
    gen[0, 1:] = down
    gen[1:, 0] = up
    np.fill_diagonal(gen[1:, 1:], -down)
    return gen


# Spectra


class NonPositiveTemperature(ValueError):
    """Gibbs states are only defined here for strictly positive temperature."""


@dataclass(frozen=True)
class Spectrum:
    """Energy eigenvalues of a finite-dimensional probe, stored ascending.

    Degenerate levels are kept explicitly (one entry per level) so that
    optimizers over general spectra see the full parameter space.
    """

    energies: tuple

    def __post_init__(self):
        energies = tuple(float(e) for e in self.energies)
        object.__setattr__(self, "energies", energies)
        if len(energies) < 2:
            raise ValueError(f"a probe needs at least 2 levels, got {len(energies)}")
        if not all(math.isfinite(e) for e in energies):
            raise ValueError("all energies must be finite")
        if any(a > b for a, b in zip(energies, energies[1:])):
            raise ValueError("energies must be sorted ascending")

    @property
    def size(self):
        return len(self.energies)

    def as_array(self):
        return np.array(self.energies)


@dataclass(frozen=True)
class EffectiveTwoLevelSpectrum:
    """Spectrum with only two distinct energies: n0 levels at 0, n - n0 at gap."""

    gap: float
    n: int
    n0: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.gap) and self.gap > 0):
            raise ValueError(f"gap must be positive and finite, got {self.gap}")
        if self.n < 2:
            raise ValueError(f"need n >= 2 levels, got {self.n}")
        if not 1 <= self.n0 <= self.n - 1:
            raise ValueError(f"ground degeneracy n0={self.n0} must lie in [1, {self.n - 1}]")

    def expand(self):
        return Spectrum((0.0,) * self.n0 + (self.gap,) * (self.n - self.n0))


@dataclass(frozen=True)
class ThermalEnsemble:
    """A spectrum at thermal equilibrium: Gibbs populations and log partition sum."""

    spectrum: Spectrum
    temperature: float
    populations: tuple
    log_partition: float

    def population_array(self):
        return np.array(self.populations)


def thermalize(spectrum, temperature):
    """Gibbs state of ``spectrum`` at ``temperature``.

    Energies are shifted by the ground energy before exponentiating, which
    keeps every Boltzmann weight in [0, 1] and leaves populations unchanged
    (Gibbs weights are shift invariant). Large-gap regimes then degrade
    gracefully instead of overflowing.
    """
    if not (math.isfinite(temperature) and temperature > 0):
        raise NonPositiveTemperature(f"temperature must be positive, got {temperature}")
    eps = spectrum.as_array()
    ground = eps[0]
    weights = np.exp(-(eps - ground) / temperature)
    scale = float(weights.sum())
    populations = weights / scale
    log_partition = math.log(scale) - ground / temperature
    return ThermalEnsemble(
        spectrum=spectrum,
        temperature=float(temperature),
        populations=tuple(float(p) for p in populations),
        log_partition=log_partition,
    )


def energy_variance(ensemble):
    """Equilibrium energy variance <H^2> - <H>^2, computed in centered form."""
    eps = ensemble.spectrum.as_array()
    p = ensemble.population_array()
    mu = float(np.dot(p, eps))
    return max(float(np.dot(p, (eps - mu) ** 2)), 0.0)


def qfi_thermal(ensemble):
    """Equilibrium QFI, variance over T^4 (equivalently heat capacity over T^2)."""
    return energy_variance(ensemble) / ensemble.temperature**4


def shifted(spectrum, offset):
    return Spectrum(tuple(e + offset for e in spectrum.energies))


def scaled(spectrum, factor):
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    return Spectrum(tuple(e * factor for e in spectrum.energies))


def gap_ratio(spectrum, temperature):
    """Gap-to-temperature ratio at which an effective two-level probe operates."""
    return spectrum.gap / temperature


def mean_energy(ensemble):
    """Equilibrium mean energy, sum_n p_n eps_n."""
    return float(np.dot(ensemble.population_array(), ensemble.spectrum.as_array()))


def heat_capacity(ensemble):
    """d<H>/dT of the probe, equal to the energy variance over T^2."""
    return energy_variance(ensemble) / ensemble.temperature**2


# States


def relaxed_bloch(bloch, model, dt):
    """Lab-frame Bloch vector of a qubit prepared at ``bloch`` after thermal
    contact of length ``dt``: r_z relaxes to -tanh(x/2) at 1/tau, the
    transverse part decays at 1/(2 tau) and precesses at the gap frequency."""
    rx, ry, rz = bloch
    decay = math.exp(-dt / model.relaxation_time)
    rz_eq = -math.tanh(model.ratio / 2.0)
    c, s = math.cos(model.gap * dt), math.sin(model.gap * dt)
    envelope = math.sqrt(decay)
    return np.array([envelope * (rx * c - ry * s), envelope * (rx * s + ry * c), rz_eq + (rz - rz_eq) * decay])


def thermal_covariance(gap, temperature):
    """coth(gap / 2T) times the identity, as (xx, xp, pp)."""
    if gap <= 0 or temperature <= 0:
        raise ValueError("gap and temperature must be positive")
    c = 1.0 / math.tanh(gap / (2.0 * temperature))
    return np.array([c, 0.0, c])


def squeezed_covariance(squeeze):
    """diag(s, 1/s), a pure quadrature-squeezed state, as (xx, xp, pp)."""
    if squeeze <= 0:
        raise ValueError(f"squeeze must be positive, got {squeeze}")
    return np.array([squeeze, 0.0, 1.0 / squeeze])


def relaxed_covariance(sigma0, model, dt):
    """Covariance (xx, xp, pp) after thermal contact of length ``dt``: every
    entry moves toward the thermal one at the net damping coupling * gap^3."""
    f = math.exp(-model.phase_space_damping * dt)
    return f * np.asarray(sigma0) + (1.0 - f) * thermal_covariance(model.gap, model.temperature)


def thermal_covariance_family(gap):
    """Map a temperature to the thermal covariance at fixed mode frequency."""

    def family(temperature):
        return thermal_covariance(gap, temperature)

    return family


# Fidelity curvature


def fidelity_gaussian(sigma1, sigma2):
    """Uhlmann fidelity of two undisplaced single-mode Gaussian states, each
    given as its covariance entries (xx, xp, pp).

    With Delta = det(sigma1 + sigma2) and Lambda = (det sigma1 - 1)(det sigma2 - 1):

        F = 2 / (sqrt(Delta + Lambda) - sqrt(Lambda))

    evaluated in the rationalized form 2 (sqrt(Delta + Lambda) + sqrt(Lambda))
    / Delta, which avoids the subtraction. Lambda is clamped at zero to absorb
    roundoff from near-pure inputs, and the result is capped at 1.
    """
    def det(s):
        return s[0] * s[2] - s[1] * s[1]

    delta = det(np.add(sigma1, sigma2))
    lam = max((det(sigma1) - 1.0) * (det(sigma2) - 1.0), 0.0)
    return min(2.0 * (math.sqrt(delta + lam) + math.sqrt(lam)) / delta, 1.0)


def thermal_population_family(spectrum):
    """Map a temperature to the Gibbs populations of ``spectrum``."""

    def family(temperature):
        return thermalize(spectrum, temperature).population_array()

    return family


def fidelity_qubit(r1, r2):
    """Uhlmann fidelity of two qubits from their Bloch vectors."""
    p1 = max(0.0, 1.0 - float(np.dot(r1, r1)))
    p2 = max(0.0, 1.0 - float(np.dot(r2, r2)))
    return 0.5 * (1.0 + float(np.dot(r1, r2)) + math.sqrt(p1 * p2))


def qfi_bures_oracle(probe, temperature, fidelity=None, step=None):
    """QFI from the curvature of the Uhlmann fidelity across the family.

    ``probe`` is either a Spectrum (its thermal family is used) or a callable
    mapping temperature to a state. The states are population vectors, unless
    ``fidelity`` gives the fidelity of two of them, such as ``fidelity_qubit``
    for Bloch vectors or ``fidelity_gaussian`` for covariances. The curvature
    -2 d^2F/d delta^2 at delta = 0 is taken by Richardson central differences
    with step ``step`` (default 1e-4 * T).

    For populations the fidelity is the squared Bhattacharyya overlap; its
    deficit from 1 is accumulated at the sqrt-population level, which avoids
    the roundoff floor of differencing fidelities that all equal
    1 - O(delta^2).
    """
    if isinstance(probe, Spectrum):
        family = thermal_population_family(probe)
    elif callable(probe):
        family = probe
    else:
        raise TypeError(f"probe must be a Spectrum or a temperature -> state callable, got {type(probe)}")
    h = step if step is not None else 1e-4 * temperature
    state0 = family(temperature)
    if fidelity is not None:
        def fid(delta):
            return fidelity(state0, family(temperature + delta))

        value = -2.0 * central_diff(fid, 0.0, h, order=2)
    else:
        sqrt0 = np.sqrt(np.asarray(state0, dtype=float))

        def hellinger(delta):
            diff = sqrt0 - np.sqrt(np.asarray(family(temperature + delta), dtype=float))
            return 0.5 * float(np.dot(diff, diff))

        # F = (1 - D)^2 with D(0) = D'(0) = 0, hence -2 F''(0) = 4 D''(0)
        value = 4.0 * central_diff(hellinger, 0.0, h, order=2)
    return max(float(value), 0.0)


# Closed forms


def qfi_transient_closed_form_qubit(ratio, dt, tau, temperature):
    """Closed-form transient QFI of a ground-prepared qubit.

    With u = dt/tau and x = ratio:

        F(dt) = x^2 [e^x (e^u - 1) + u (1 + e^x) csch x]^2
                / [(1 + e^x)^2 (e^u - 1) (1 + e^x e^u) T^2]

    The csch x factor is the logarithmic temperature derivative of the
    relaxation rate; expm1 keeps the u << 1 regime exact.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    x = ratio
    u = dt / tau
    em1 = math.expm1(u)
    ex = math.exp(x)
    bracket = ex * em1 + u * (1.0 + ex) / math.sinh(x)
    return x * x * bracket * bracket / (
        (1.0 + ex) ** 2 * em1 * (1.0 + ex * math.exp(u)) * temperature**2
    )


def full_width_half_max(xs, ys):
    """Width of the region where ``ys`` exceeds half its maximum.

    Crossing points are located by linear interpolation; raises if either
    flank never drops below half maximum inside the grid.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    half = ys.max() / 2.0
    i = int(np.argmax(ys))
    left = np.nonzero(ys[:i] < half)[0]
    right = np.nonzero(ys[i:] < half)[0]
    if left.size == 0 or right.size == 0:
        raise ValueError("half maximum is not bracketed inside the grid")
    l = left[-1]
    r = i + right[0]
    x_lo = xs[l] + (half - ys[l]) * (xs[l + 1] - xs[l]) / (ys[l + 1] - ys[l])
    x_hi = xs[r - 1] + (half - ys[r - 1]) * (xs[r] - xs[r - 1]) / (ys[r] - ys[r - 1])
    return x_hi - x_lo


# Spectrum optimality


def stationarity_residual(spectrum, temperature):
    """Pairwise stationarity conditions of the energy variance.

    For every level pair i < j returns (e_i - e_j)(e_i + e_j - 2(<H> + T));
    all entries vanish exactly at spectra that are stationary points of the
    variance, i.e. effective two-level configurations at the critical gap.
    """
    ens = thermalize(spectrum, temperature)
    mu = mean_energy(ens)
    eps = spectrum.energies
    out = []
    for i in range(len(eps)):
        for j in range(i + 1, len(eps)):
            out.append((eps[i] - eps[j]) * (eps[i] + eps[j] - 2.0 * (mu + temperature)))
    return out


def _variance_terms(eps, temperature):
    """Gibbs populations p, deviations d = eps - <H>, variance V and
    h = 2d - (d^2 - V)/T of each row of nonnegative energies ``eps``.
    The variance gradient is dV/d eps_j = p_j h_j."""
    w = np.exp(-eps / temperature)
    p = w / w.sum(axis=-1, keepdims=True)
    d = eps - (p * eps).sum(axis=-1, keepdims=True)
    v = (p * d * d).sum(axis=-1, keepdims=True)
    return p, d, v, 2.0 * d - (d * d - v) / temperature


def max_variance_search(n, temperature, n0=1, starts=64, steps=400, seed=0):
    """Largest Gibbs energy variance over n-level spectra whose n0 lowest
    levels are pinned at energy 0.

    The other n - n0 energies are free in [0, inf). For n0 = 1 this is the
    unconstrained problem, since the variance is invariant under a common
    shift and under permutations of the levels. The free energies of
    ``starts`` random spectra, drawn from [0, 8T], climb the variance
    together by projected gradient ascent; the best one is then polished by
    Newton steps on the analytic Hessian of the free block.

    Returns:
        (variance, energies), the energies sorted ascending.
    """
    t = float(temperature)
    rng = np.random.default_rng(seed)
    eps = np.zeros((starts, n))
    eps[:, n0:] = rng.uniform(0.0, 8.0 * t, (starts, n - n0))
    for _ in range(steps):
        p, _, _, h = _variance_terms(eps, t)
        eps[:, n0:] = np.maximum(eps[:, n0:] + (p * h)[:, n0:], 0.0)
    best = eps[np.argmax(_variance_terms(eps, t)[2][:, 0])]
    eye = np.eye(n)
    for _ in range(20):
        p, d, v, h = _variance_terms(best, t)
        g = p * h
        # d/d eps_k of p_j h_j, from dp_j = -p_j (delta_jk - p_k) / T,
        # d<H>/d eps_k = p_k (1 - d_k / T) and dV/d eps_k = g_k
        hess = (-(p * h)[:, None] * (eye - p[None, :]) / t
                + p[:, None] * ((2.0 - 2.0 * d / t)[:, None] * (eye - (p * (1.0 - d / t))[None, :])
                                + g[None, :] / t))
        move = np.linalg.solve(hess[n0:, n0:], g[n0:])
        best[n0:] -= move
        if np.abs(move).max() <= 1e-15 * t:
            break
    return float(_variance_terms(best, t)[2][0]), np.sort(best)


def dense_hessian(n, entries):
    """Eigenvalues, ascending, and largest absolute row sum of the n x n
    variance Hessian with entries (a, b, c, d): a at (0, 0), c in the rest of
    row and column 0, b on the rest of the diagonal and d elsewhere."""
    a, b, c, d = entries
    dense = np.full((n, n), d)
    dense[0, 0] = a
    dense[0, 1:] = c
    dense[1:, 0] = c
    np.fill_diagonal(dense[1:, 1:], b)
    return np.linalg.eigvalsh(dense), float(np.abs(dense.sum(axis=1)).max())


def certifies_maximum(eigenvalues):
    """All eigenvalues at most 1e-8 relative to the largest (or 1), and
    exactly one of them within that of zero: the uniform shift."""
    evs = np.asarray(eigenvalues)
    tol = 1e-8 * max(1.0, float(np.abs(evs).max()))
    return bool(evs.max() <= tol and np.sum(np.abs(evs) <= tol) == 1)


# Roots


def bisect_root(f, lo, hi):
    """Root of ``f`` in [lo, hi], where f changes sign, by bisection down to
    adjacent doubles."""
    f_lo = f(lo)
    if f_lo * f(hi) >= 0.0:
        raise ValueError(f"f({lo:g}) and f({hi:g}) do not bracket a root")
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if (f(mid) > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid


def rows_of(table):
    """The rows of a Table as dicts in column order, block after block, with
    each scalar repeated over its block."""
    rows = []
    for block in table.blocks:
        count = next(len(cell) for cell in block if isinstance(cell, list))
        columns = [cell if isinstance(cell, list) else [cell] * count for cell in block]
        rows.extend(dict(zip(table.columns, values)) for values in zip(*columns))
    return rows


def flag(key, value):
    """The command-line form of one parameter; None when no flag expresses it."""
    if key == "harmonic":
        return [] if value else ["--no-harmonic"]
    if isinstance(value, bool):
        return [f"--{key.replace('_', '-')}"] if value else []
    if value is None or isinstance(value, dict):
        return None
    if isinstance(value, list):
        value = ",".join(map(repr if key == "t_prep" else str, value))
    elif isinstance(value, float):
        value = repr(value)
    return [f"--{key.replace('_', '-')}={value}"]


# Contents of config files that cannot be parsed: bytes that are not UTF-8, an
# int past Python's 4300-digit limit, an array nested deeper than the decoder
# recurses, and truncated JSON.
CONFIG_BYTES = {
    "not-utf8": b"\xff\xfe",
    "long-int": b'{"points": ' + b"7" * 5000 + b"}",
    "deep": b"[" * 100000,
    "truncated": b'{"points": 3',
}
UNREADABLE_CONFIGS = ["missing", "directory", *CONFIG_BYTES]


def place_unreadable_config(path, kind):
    """Leave at ``path`` one of UNREADABLE_CONFIGS: no file, a directory, or
    a file of unparseable bytes."""
    if kind == "directory":
        path.mkdir()
    elif kind in CONFIG_BYTES:
        path.write_bytes(CONFIG_BYTES[kind])


UNWRITABLE_STDOUTS = ["stdout-write-fails", "stdout-flush-fails", "stdout-closed"]


class FullStdout(io.StringIO):
    """A stdout whose ``write`` or ``flush`` fails as on a full device."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        self._fail_if("write")
        return super().write(text)

    def flush(self):
        self._fail_if("flush")

    def _fail_if(self, method):
        if self.failing == method:
            raise OSError(errno.ENOSPC, "No space left on device")


def unwritable_stdout(kind):
    """One of UNWRITABLE_STDOUTS as ``sys.stdout``: a stream whose write or
    flush fails, or None, which Python sets when file descriptor 1 is closed."""
    return None if kind == "stdout-closed" else FullStdout(kind.split("-")[1])
