"""Dissipative probe dynamics for partly thermalized thermometry: relaxation
toward the Gibbs state under a thermal generator, the transient QFI of each
preparation in closed form, the vacuum-prepared oscillator's included, the
sensitivity-per-time figure of merit, and its short-interrogation limit.

Level convention for qubits: the Hamiltonian is (gap/2) sigma_z with the
excited state along +z, so the ground preparation has Bloch vector (0, 0, -1).
"""

import math

from .numerics import NonFiniteState, Table, excited_degeneracy, geometric_grid


class DissipationModel:
    """Probe-sample contact: gap, sample temperature and flat-coupling strength.

    The coupling enters through a frequency-independent spectral density, so
    the downward rate is coupling * gap^3 / (1 - e^{-gap/T}) and the upward
    rate carries the extra detailed-balance factor e^{-gap/T}.

    Raises:
        ValueError: for a field that is not positive and finite.
        NonFiniteState: when the ratio x = gap/T overflows or underflows to 0, or the decay rate does.
    """

    def __init__(self, gap, temperature, coupling):
        for name, v in (("gap", gap), ("temperature", temperature), ("coupling", coupling)):
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        self.gap, self.temperature, self.coupling = gap, temperature, coupling
        self.ratio = x = gap / temperature
        if not 0.0 < x < math.inf:  # 0 would divide by zero in the decay rate
            raise NonFiniteState(f"ratio gap/temperature {'overflows' if x else 'underflows'} "
                                 f"at T={temperature:g}")
        # w = e^{-x}, 1 - w and d_T w = x w / T, which the transient QFIs read
        self.boltzmann = w = math.exp(-x)
        self.boltzmann_complement = -math.expm1(-x)
        self.boltzmann_slope = x * w / temperature  # x * w first: a w that underflows gives 0, not 0 * inf
        # Net damping of second moments, the downward less the upward rate: the
        # detailed-balance factors cancel, leaving coupling * gap^3 with no
        # temperature dependence.
        try:
            self.phase_space_damping = rate = coupling * gap**3
        except OverflowError:
            rate = math.inf
        self.decay_rate = rate / self.boltzmann_complement  # inf if gap**3, the product or the quotient overflows
        if self.decay_rate == math.inf:
            raise NonFiniteState(f"coupling * gap**3 / (1-e^-x) overflows at coupling={coupling:g}, gap={gap:g}")
        # 1 / (coupling * gap^3 * coth(ratio/2)), the qubit population timescale;
        # infinite when coupling * gap^3 underflows to zero
        self.relaxation_time = math.tanh(x / 2.0) / rate if rate > 0.0 else math.inf


def qfi_transient(n, excited0, model, dts):
    """QFI of an n-level ladder, one ground level below n - 1 levels at the
    gap, after thermal contact of each length in the sequence ``dts``, as a
    list, for a preparation with total excited population ``excited0`` shared
    equally by the excited levels: 0 for the ground preparation, w0 / (1 + w0)
    for a two-level Gibbs state with Boltzmann factor w0.

    The excited levels stay equally populated, so the QFI is the binary
    Fisher information (d_T E)^2 / (E (1 - E)) of the excited population
    E = E_eq (1 - e^{-k dt}) + E_0 e^{-k dt}. With x = gap/T and w = e^{-x},
    E_eq = (n-1) w / z and k = decay_rate * z, z = 1 + (n-1) w, and the
    temperature enters through both: d_T E_eq = (x w / T) (n-1) / z^2 and
    dt d_T k = k dt (x w / T) n / ((1 - w) z). The preparation and the
    coupling are held fixed. 1 - E is formed as a sum, not as a difference,
    and where E underflows to 0 the value is 0.
    """
    w, scale, degeneracy = model.boltzmann, model.boltzmann_slope, excited_degeneracy(n)
    z = 1.0 + degeneracy * w
    excited_eq = degeneracy * w / z
    rate = model.decay_rate * z
    drift = excited_eq - excited0
    z2, zw = z * z, model.boltzmann_complement * z

    def at(d):
        q = rate * d
        stay, moved = math.exp(-q), -math.expm1(-q)
        excited = excited_eq * moved + excited0 * stay
        ground = moved / z + (1.0 - excited0) * stay
        slope = scale * (degeneracy * moved / z2 + drift * stay * q * n / zw)
        return slope * (slope / excited if excited > 0.0 else 0.0) / ground
    return list(map(at, dts))


def qfi_transient_plus(model, dts):
    """QFI of the plus qubit, equal populations with full coherence, after
    thermal contact of each length in the sequence ``dts``, as a list.

    The Bloch vector has transverse length a = e^{-u/2}, u = dt / tau, and
    r_z = -tanh(x/2) s with s = 1 - e^{-u}. Its phase gap * dt does not
    depend on T and drops out, and d_T u = u (x/T) csch x, so
    d_T a = -a u (x/T) csch(x) / 2 and d_T r_z = (x/T) sech^2(x/2) (s - u e^{-u}) / 2.
    The QFI is the Bloch-vector form |dr|^2 + (r . dr)^2 / (1 - |r|^2),
    where 1 - |r|^2 = s (e^{-u} + s sech^2(x/2)) is positive by construction.
    csch and sech^2 are written with w = e^{-x}, so nothing overflows at large
    x.
    """
    tau, w, scale = model.relaxation_time, model.boltzmann, model.boltzmann_slope
    em2 = -math.expm1(-2.0 * model.ratio)
    wp2 = (1.0 + w) ** 2
    tanh_half = model.boltzmann_complement / (1.0 + w)
    sech2 = 4.0 * w / wp2

    def at(d):
        u = d / tau
        envelope, stay, s = math.exp(-0.5 * u), math.exp(-u), -math.expm1(-u)
        d_envelope = -envelope * u * scale / em2
        d_rz = scale * 2.0 * (s - u * stay) / wp2
        radial = envelope * d_envelope - tanh_half * s * d_rz
        # radial / s first: radial^2 alone underflows where u is tiny and the ratio is not
        return d_envelope * d_envelope + d_rz * d_rz + radial * (radial / (s * (stay + s * sech2)))
    return list(map(at, dts))


def qfi_harmonic_transient(model, dts):
    """QFI of a vacuum-prepared oscillator after thermal contact of each length
    in the sequence ``dts``, as a list.

    In the vacuum = identity convention the covariance stays c times the identity,
    c = f + (1 - f) coth(x/2) with x = gap/T and f = e^{-coupling gap^3 dt}, which
    does not depend on T. The QFI is the single-mode Gaussian form (d_T c)^2 / ((c - 1)(c + 1))
    (Šafránek, J. Phys. A 52, 035304 (2019)). With w = e^{-x}, the excess
    c - 1 = (1 - f) 2w / (1 - w) and d_T c = (c - 1) x / (T (1 - w)), so the
    QFI is (1 - f) 2w x^2 / (T^2 (1 - w)^3 (c + 1)): no difference of nearly
    equal numbers, nothing that overflows at large x, and 0 where w underflows.
    """
    x, t = model.ratio, model.temperature
    w, em = model.boltzmann, model.boltzmann_complement
    damping = -model.phase_space_damping
    # w before x * x, so that a w that underflows gives 0, not 0 * inf
    scale = 2.0 * w * x * x / t / t / em**3
    excess = 2.0 * w / em

    def at(d):
        mixed = -math.expm1(damping * d)
        return mixed * scale / (mixed * excess + 2.0)
    return list(map(at, dts))


def ultimate_rate(n, ratio, coupling, temperature):
    """Short-interrogation limit of QFI per unit time for ground preparations.

    Equals coupling * T * (n-1) * x^5 e^{2x} / (e^x - 1)^3, written with
    decaying exponentials so large ratios cannot overflow. Linear in (n-1)
    and in the coupling.
    """
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    emx = math.exp(-ratio)
    return coupling * temperature * excited_degeneracy(n) * ratio**5 * emx / (-math.expm1(-ratio)) ** 3


def optimal_interrogation_ratio():
    """Gap-to-temperature ratio maximizing the short-interrogation rate.

    The root of e^x (5 - x) = 5 + 2x other than x = 0, correctly rounded. The
    optimum is independent of the probe dimension because the dimension only
    scales the rate.
    """
    return 4.8887092350471315


def log_interrogation_grid(model, points=200, lo=1e-3, hi=20.0):
    """Logarithmic interrogation-time grid spanning [lo, hi] relaxation times.
    NonFiniteState when an end of the grid is zero or infinite, as it is for
    an infinite relaxation time."""
    tau = model.relaxation_time
    start, stop = lo * tau, hi * tau
    if not (start > 0.0 and stop < math.inf):
        raise NonFiniteState(
            f"interrogation grid [{start:g}, {stop:g}] for relaxation time {tau:g} is not finite and positive"
        )
    return geometric_grid(start, stop, points)


def thermal_label(t_prep):
    """Series label of the two-level thermal preparation at temperature ``t_prep``."""
    return f"thermal-{t_prep:g}"


def transient_scan(model, dt_grid, n_list, t_preps, include_plus=False, include_harmonic=False):
    """QFI-per-time curves for a set of preparations and probe dimensions.

    The curves come in this order: a ground preparation for each n in
    ``n_list``, a two-level thermal preparation at each temperature in
    ``t_preps``, then the plus qubit and the harmonic vacuum when included.
    Returns a Table with columns prep, N, dt, fisher_rate and one block per
    curve, in which prep and N are the curve's labels and every block shares
    one dt list. Each curve is one transient QFI call over the whole grid; the
    Table refuses a rate that is not finite.
    """
    if not all(t > 0 for t in t_preps):
        raise ValueError(f"preparation temperatures must be positive, got {t_preps}")
    dts = [float(v) for v in dt_grid]
    blocks = []

    def add_curve(label, n, kernel, *args):
        blocks.append((label, n, dts, [v / d for v, d in zip(kernel(*args, model, dts), dts)]))

    for n in n_list:
        add_curve("ground", n, qfi_transient, n, 0.0)
    for t_prep in t_preps:
        w0 = math.exp(-model.gap / t_prep)
        add_curve(thermal_label(t_prep), 2, qfi_transient, 2, w0 / (1.0 + w0))
    if include_plus:
        add_curve("plus", 2, qfi_transient_plus)
    if include_harmonic:
        add_curve("harmonic", "ho", qfi_harmonic_transient)
    return Table(("prep", "N", "dt", "fisher_rate"), blocks)
