"""Dissipative probe dynamics for partly thermalized thermometry: relaxation
toward the Gibbs state under a thermal generator, the transient QFI of each
preparation in closed form, the vacuum-prepared oscillator's included, as a
list over contact times, and the short-interrogation limit of the QFI per
unit time. The transient-scan command divides each list by its contact times.

Level convention for qubits: the Hamiltonian is (gap/2) sigma_z with the
excited state along +z, so the ground preparation has Bloch vector (0, 0, -1).
"""

import math

from .numerics import NonFiniteState, excited_degeneracy


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


def qfi_transient(n, x0, model, dts):
    """QFI of an n-level ladder, one ground level below n - 1 levels at the
    gap, after thermal contact of each length in the sequence ``dts``, as a
    list, for the Gibbs preparation of ratio ``x0`` = gap / T_prep: math.inf
    for the ground state, 0 for equal populations, below 0 for an inversion.

    The excited levels stay equally populated, so the QFI is the binary
    Fisher information (d_T E)^2 / (E (1 - E)) of the excited population
    E = E_eq (1 - e^{-k dt}) + E_0 e^{-k dt}. With x = gap/T, w = e^{-x},
    z = 1 + (n-1) w and w0, z0 alike at x0, E_eq = (n-1) w / z, E_0 =
    (n-1) w0 / z0 and k = decay_rate * z. T enters through E_eq and k:
    d_T E_eq = (x w / T) (n-1) / z^2 and dt d_T k = k dt (x w / T) n /
    ((1 - w) z), with the preparation and the coupling held fixed. E_eq - E_0
    = (n-1)(w - w0) / (z z0) takes w - w0 from an expm1 of -|x - x0|, so it
    neither cancels nor overflows; 1 - E is a sum, and a 0 E gives a 0 QFI.
    """
    w, w0, scale, degeneracy = model.boltzmann, math.exp(-x0), model.boltzmann_slope, excited_degeneracy(n)
    z, z0 = 1.0 + degeneracy * w, 1.0 + degeneracy * w0
    excited_eq, excited0 = degeneracy * w / z, degeneracy * w0 / z0
    ground0 = 1.0 - excited0 if excited0 <= 0.5 else 1.0 / z0  # 1 - E_0 with no cancellation
    apart = model.ratio - x0  # -inf for the ground state, where w - w0 = w
    drift = degeneracy * (-w * math.expm1(apart) if apart <= 0.0 else w0 * math.expm1(-apart)) / (z * z0)
    rate, z2, zw = model.decay_rate * z, z * z, model.boltzmann_complement * z

    def at(d):
        q = rate * d
        stay, moved = math.exp(-q), -math.expm1(-q)
        excited = excited_eq * moved + excited0 * stay
        ground = moved / z + ground0 * stay
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
