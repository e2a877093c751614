"""Single-mode Gaussian probes in the vacuum = identity convention: the
closed-form equilibrium QFI of a harmonic probe and the transient QFI of a
vacuum preparation relaxing toward the thermal state.
"""

import math
import sys


def qfi_harmonic_equilibrium(gap, temperatures):
    """Equilibrium QFI of a thermalized harmonic probe, gap^2 / (4 T^4) *
    csch^2(h) with h = gap / 2T, as a list over the sequence ``temperatures``.

    csch^2(h) is written 4 e^{-2h} / expm1(-2h)^2 and the whole form as the
    square ((gap/T) e^{-h} / (T expm1(-2h)))^2, in which no factor overflows
    before the result does. Where h is subnormal the QFI is 1/T^2, as
    h^2 csch^2(h) = 1 to every digit a double holds; where e^{-h} is 0, 0.
    """
    if gap <= 0 or not all(t > 0 for t in temperatures):
        raise ValueError("gap and temperature must be positive")

    def at(t):
        half = gap / (2.0 * t)
        if half < sys.float_info.min:  # a subnormal h carries too few digits
            return 1.0 / t / t
        emh = math.exp(-half)
        if not emh:  # gap / t overflows from h = 9e307, and inf * 0 is NaN
            return 0.0
        root = gap / t * emh / (t * math.expm1(-2.0 * half))
        return root * root
    return list(map(at, temperatures))


def qfi_harmonic_transient(model, dts):
    """QFI of a vacuum-prepared oscillator after thermal contact of each length
    in the sequence ``dts``, as a list.

    The covariance stays c times the identity, c = f + (1 - f) coth(x/2) with
    x = gap/T and f = e^{-coupling gap^3 dt}, which does not depend on T. The
    QFI is the single-mode Gaussian form (d_T c)^2 / ((c - 1)(c + 1))
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
