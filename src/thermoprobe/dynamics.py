"""Dissipative probe dynamics for partly thermalized thermometry: relaxation
toward the Gibbs state under a thermal generator, transient QFI, the
sensitivity-per-time figure of merit, and its short-interrogation limit.

Level convention for qubits: the Hamiltonian is (gap/2) sigma_z with the
excited state along +z, so the ground preparation is bloch = (0, 0, -1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import qfi_harmonic_transient, vacuum_covariance
from .numerics import NegativeTime, NonFiniteState, QfiValue, Table, central_diff, find_root


class SingularState(ArithmeticError):
    """Bloch-vector QFI is ill conditioned at this pure state."""


@dataclass(frozen=True)
class DissipationModel:
    """Probe-sample contact: gap, sample temperature and flat-coupling strength.

    The coupling enters through a frequency-independent spectral density, so
    the downward rate is coupling * gap^3 / (1 - e^{-gap/T}) and the upward
    rate carries the extra detailed-balance factor e^{-gap/T}.
    """

    gap: float
    temperature: float
    coupling: float

    def __post_init__(self):
        for name in ("gap", "temperature", "coupling"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")

    @property
    def ratio(self):
        return self.gap / self.temperature

    @property
    def decay_rate(self):
        return self.phase_space_damping / -math.expm1(-self.ratio)

    @property
    def excitation_rate(self):
        return self.decay_rate * math.exp(-self.ratio)

    @property
    def relaxation_time(self):
        """1 / (coupling * gap^3 * coth(ratio/2)), the qubit population timescale;
        infinite when coupling * gap^3 underflows to zero."""
        rate = self.phase_space_damping
        return math.tanh(self.ratio / 2.0) / rate if rate > 0.0 else math.inf

    @property
    def phase_space_damping(self):
        """Net damping of second moments, decay_rate - excitation_rate.

        The detailed-balance factors cancel, leaving coupling * gap^3 with no
        temperature dependence.

        Raises:
            NonFiniteState: when gap^3 overflows.
        """
        try:
            return self.coupling * self.gap**3
        except OverflowError:
            raise NonFiniteState(f"rate scale coupling * gap**3 overflows at gap={self.gap:g}") from None

    def at_temperature(self, temperature):
        """Same probe and coupling in contact with a sample at ``temperature``."""
        return DissipationModel(gap=self.gap, temperature=temperature, coupling=self.coupling)


@dataclass(frozen=True)
class QubitState:
    """Two-level state as a Bloch vector (r_x, r_y, r_z)."""

    bloch: tuple

    def __post_init__(self):
        r = tuple(float(v) for v in self.bloch)
        object.__setattr__(self, "bloch", r)
        if len(r) != 3 or not all(math.isfinite(v) for v in r):
            raise ValueError(f"bloch must be three finite components, got {self.bloch}")
        if math.sqrt(sum(v * v for v in r)) > 1.0 + 1e-12:
            raise ValueError(f"bloch norm exceeds 1: {r}")


@dataclass(frozen=True)
class DiagonalState:
    """Populations over the levels of an effective two-level ladder.

    Index 0 is the ground level; the remaining entries sit at the shared gap.
    """

    populations: tuple

    def __post_init__(self):
        p = tuple(float(v) for v in self.populations)
        object.__setattr__(self, "populations", p)
        if len(p) < 2:
            raise ValueError(f"need at least 2 levels, got {len(p)}")
        if min(p) < -1e-12:
            raise ValueError(f"negative population: {min(p)}")
        if abs(sum(p) - 1.0) > 1e-12:
            raise ValueError(f"populations sum to {sum(p)}, expected 1")

    @property
    def size(self):
        return len(self.populations)

    def as_array(self):
        return np.array(self.populations)


@dataclass(frozen=True)
class ProtocolOptimum:
    """Result of maximizing QFI per unit interrogation time over a grid."""

    interrogation_time: float
    rate: float
    short_time_supremum: bool
    short_time_limit: float | None


def plus_qubit():
    """Maximally coherent preparation, equal populations with full coherence."""
    return QubitState((1.0, 0.0, 0.0))


def ground_diagonal(n):
    return DiagonalState((1.0,) + (0.0,) * (n - 1))


def gibbs_diagonal(n, ratio):
    """Gibbs populations of an n-level ladder with (n-1)-fold degenerate gap."""
    w = math.exp(-ratio)
    z = 1.0 + (n - 1) * w
    return DiagonalState((1.0 / z,) + (w / z,) * (n - 1))


def evolve_qubit(state, model, t):
    """Relax a qubit toward the Gibbs state for time ``t``.

    Populations relax at rate decay_rate * (1 + e^{-ratio}); coherences decay
    at half that rate and precess at the gap frequency (the free evolution is
    undone nowhere, i.e. the returned state lives in the lab frame).

    A scalar ``t`` gives a QubitState; an array ``t`` gives the Bloch vectors
    as an array of shape t.shape + (3,).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise NegativeTime(f"t must be nonnegative, got {np.min(t)}")
    x = model.ratio
    tau = model.relaxation_time
    rx, ry, rz = state.bloch
    rz_eq = -math.tanh(x / 2.0)
    rz_t = rz_eq + (rz - rz_eq) * np.exp(-t / tau)
    envelope = np.exp(-t / (2.0 * tau))
    phase = model.gap * t
    c, s = np.cos(phase), np.sin(phase)
    bloch = np.stack([envelope * (rx * c - ry * s), envelope * (rx * s + ry * c), rz_t], axis=-1)
    return QubitState(tuple(bloch)) if t.ndim == 0 else bloch


def evolve_nlevel(state, model, t):
    """Relax diagonal populations of an effective two-level ladder: one ground
    level and state.size - 1 excited levels at model.gap.

    The total excited population approaches its Gibbs value at rate
    decay_rate * (1 + (n-1) e^{-ratio}); imbalances between excited levels
    decay at the bare decay_rate, so symmetric preparations stay symmetric.

    A scalar ``t`` gives a DiagonalState; an array ``t`` gives the populations
    as an array of shape t.shape + (n,).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise NegativeTime(f"t must be nonnegative, got {np.min(t)}")
    n = state.size
    x = model.ratio
    down = model.decay_rate
    w = math.exp(-x)
    total_rate = down * (1.0 + (n - 1) * w)
    excited_eq = (n - 1) * w / (1.0 + (n - 1) * w)
    p = state.as_array()
    excited0 = 1.0 - p[0]
    excited_t = excited_eq + (excited0 - excited_eq) * np.exp(-total_rate * t)
    fade = np.exp(-down * t)
    share0 = excited0 / (n - 1)
    out = excited_t[..., None] / (n - 1) + (p - share0) * fade[..., None]
    out[..., 0] = 1.0 - excited_t
    return DiagonalState(tuple(out)) if t.ndim == 0 else out


def qfi_transient(prep, model, dt):
    """QFI of the probe state after one thermal-contact stage of length ``dt``.

    The preparation and the coupling are held fixed while the sample
    temperature is varied, so the derivative includes the temperature
    dependence of the relaxation rates as well as of the Gibbs target. The
    derivative is a Richardson central difference with step 1e-4 * T; a
    temperature so small that the step underflows raises NonFiniteState.

    Diagonal preparations use the classical Fisher information of the
    populations; qubit preparations with coherence use the Bloch-vector form
    |dr|^2 + (r . dr)^2 / (1 - |r|^2).

    ``dt`` may be an array of contact times: the value is then an array over
    it, and one central difference covers the whole grid.
    """
    dts = np.atleast_1d(np.asarray(dt, dtype=float))
    if not np.all(dts > 0.0):
        raise ValueError(f"dt must be positive, got {np.min(dts)}")
    t0 = model.temperature
    h = 1e-4 * t0
    if not h / 2.0 > 0.0:  # central_diff steps by h and h/2
        raise NonFiniteState(f"temperature step 1e-4*T underflows at T={t0!r}")
    if isinstance(prep, DiagonalState):
        def populations_at(temp):
            return evolve_nlevel(prep, model.at_temperature(temp), dts)

        p = populations_at(t0)
        dp = central_diff(populations_at, t0, h, order=1)
        # a population that underflows to 0 contributes the limit of dp^2 / p, which is 0
        value = np.sum(np.divide(dp * dp, p, out=np.zeros_like(p), where=p > 0.0), axis=-1)
    elif isinstance(prep, QubitState):
        def bloch_at(temp):
            return evolve_qubit(prep, model.at_temperature(temp), dts)

        r = bloch_at(t0)
        dr = central_diff(bloch_at, t0, h, order=1)
        flat = np.sum(dr * dr, axis=-1)
        radial = np.sum(r * dr, axis=-1)
        gap_to_surface = 1.0 - np.sum(r * r, axis=-1)
        if np.any(gap_to_surface <= 0.0):
            # outside the ball by roundoff: the radial correction is undefined
            raise SingularState(
                f"|r|^2 - 1 = {-np.min(gap_to_surface):g} >= 0; the radial correction term diverges"
            )
        ill = (gap_to_surface < 1e-13) & (
            radial * radial > 1e-6 * gap_to_surface * np.maximum(flat, 1e-300)
        )
        if np.any(ill):
            i = int(np.argmax(ill))
            raise SingularState(
                f"|r|^2 = 1 - ({gap_to_surface[i]:g}) with r . dr = {radial[i]:g}; "
                "the radial correction is ill conditioned"
            )
        value = flat + radial * radial / gap_to_surface
    else:
        raise TypeError(f"prep must be a DiagonalState or QubitState, got {type(prep)}")
    value = np.maximum(value, 0.0)
    return QfiValue(value=float(value[0]) if np.ndim(dt) == 0 else value)


def ultimate_rate(n, ratio, coupling, temperature):
    """Short-interrogation limit of QFI per unit time for ground preparations.

    Equals coupling * T * (n-1) * x^5 e^{2x} / (e^x - 1)^3, written with
    decaying exponentials so large ratios cannot overflow. Linear in (n-1)
    and in the coupling.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    emx = math.exp(-ratio)
    return coupling * temperature * (n - 1) * ratio**5 * emx / (-math.expm1(-ratio)) ** 3


def optimal_interrogation_ratio(tol=1e-12):
    """Gap-to-temperature ratio maximizing the short-interrogation rate.

    Solves e^x (5 - x) = 5 + 2x on [0.1, 4.999]; the bracket excludes the
    spurious root at x = 0. The optimum is independent of the probe dimension
    because the dimension only scales the rate.
    """
    return find_root(lambda x: math.exp(x) * (5.0 - x) - (5.0 + 2.0 * x), 0.1, 4.999, tol=tol).root


def _is_ground(prep):
    if isinstance(prep, DiagonalState):
        return prep.populations[0] == 1.0
    if isinstance(prep, QubitState):
        return prep.bloch == (0.0, 0.0, -1.0)
    return False


def optimize_protocol(model, prep, dt_grid):
    """Maximize QFI per unit interrogation time over a grid of durations.

    Interior maxima are refined by golden-section search between the
    neighbors of the best grid point. When the maximum sits on the smallest
    grid point the true optimum is the dt -> 0 supremum, which is flagged and,
    for ground preparations, reported via the closed-form limit.
    """
    dts = [float(v) for v in dt_grid]
    if not dts or any(b <= a for a, b in zip(dts, dts[1:])) or dts[0] <= 0:
        raise ValueError("dt_grid must be positive and strictly ascending")

    def rate(dt):
        return qfi_transient(prep, model, dt).value / dt

    rates = rate(np.array(dts)).tolist()
    best = int(np.argmax(rates))
    if best == 0:
        limit = None
        if _is_ground(prep):
            n = prep.size if isinstance(prep, DiagonalState) else 2
            limit = ultimate_rate(n, model.ratio, model.coupling, model.temperature)
        return ProtocolOptimum(
            interrogation_time=dts[0], rate=rates[0],
            short_time_supremum=True, short_time_limit=limit,
        )
    if best == len(dts) - 1:
        return ProtocolOptimum(
            interrogation_time=dts[-1], rate=rates[-1],
            short_time_supremum=False, short_time_limit=None,
        )
    lo, hi = dts[best - 1], dts[best + 1]
    inv_golden = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_golden * (b - a)
    d = a + inv_golden * (b - a)
    fc, fd = rate(c), rate(d)
    while b - a > 1e-10 * (1.0 + b):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_golden * (b - a)
            fc = rate(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_golden * (b - a)
            fd = rate(d)
    dt_star = 0.5 * (a + b)
    return ProtocolOptimum(
        interrogation_time=dt_star, rate=rate(dt_star),
        short_time_supremum=False, short_time_limit=None,
    )


def parse_preparation_token(token):
    """Validate a preparation token: ground, plus, harmonic, or thermal:<T>."""
    if token in ("ground", "plus", "harmonic"):
        return token, None
    if token.startswith("thermal:"):
        t_prep = float(token.split(":", 1)[1])
        if t_prep <= 0:
            raise ValueError(f"preparation temperature must be positive, got {t_prep}")
        return "thermal", t_prep
    raise ValueError(f"unknown preparation {token!r}; use ground, plus, harmonic or thermal:<T>")


def log_interrogation_grid(model, points=200, lo=1e-3, hi=20.0):
    """Logarithmic interrogation-time grid spanning [lo, hi] relaxation times.

    Raises:
        NonFiniteState: when an end of the grid is zero or infinite, as it is
            for an infinite relaxation time.
    """
    tau = model.relaxation_time
    start, stop = lo * tau, hi * tau
    if not (start > 0.0 and stop < math.inf):
        raise NonFiniteState(
            f"interrogation grid [{start:g}, {stop:g}] for relaxation time {tau:g} is not finite and positive"
        )
    return np.geomspace(start, stop, points)


def transient_scan(preps, n_list, model, dt_grid):
    """QFI-per-time curves for a set of preparations and probe dimensions.

    ``preps`` holds tokens: "ground" (one curve per n in ``n_list``), "plus",
    "harmonic", or "thermal:<T>" (two-level thermal preparation at temperature
    T). Returns a Table with columns prep, N, dt, fisher_rate and one block per
    curve, in which prep and N are the curve's labels and every block shares
    one dt list. Each curve is one transient QFI call over the whole grid.

    Raises:
        NonFiniteState: if a curve has a non-finite value.
    """
    dts = [float(v) for v in dt_grid]
    grid = np.array(dts)
    blocks = []

    def add_curve(label, n, qfi):
        rates = qfi.value / grid
        if not np.all(np.isfinite(rates)):
            raise NonFiniteState(f"QFI-per-time curve prep={label}, N={n} has non-finite values")
        blocks.append((label, n, dts, rates.tolist()))

    # overflow and underflow are caught by the finiteness check, not numpy warnings
    with np.errstate(all="ignore"):
        for token in preps:
            kind, t_prep = parse_preparation_token(token)
            if kind == "ground":
                for n in n_list:
                    add_curve("ground", n, qfi_transient(ground_diagonal(n), model, grid))
            elif kind == "thermal":
                prep = gibbs_diagonal(2, model.gap / t_prep)
                add_curve(f"thermal-{t_prep:g}", 2, qfi_transient(prep, model, grid))
            elif kind == "plus":
                add_curve("plus", 2, qfi_transient(plus_qubit(), model, grid))
            else:  # harmonic
                add_curve("harmonic", "ho", qfi_harmonic_transient(vacuum_covariance(), model, grid))
    return Table(("prep", "N", "dt", "fisher_rate"), blocks)
