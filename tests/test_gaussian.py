import math
import sys

import numpy as np
import pytest

from thermoprobe.dynamics import DissipationModel, ultimate_rate
from thermoprobe.equilibrium import qfi_effective_two_level
from thermoprobe.gaussian import qfi_harmonic_equilibrium, qfi_harmonic_transient

from oracles import (
    fidelity_gaussian,
    qfi_bures_oracle,
    qfi_transient_closed_form_qubit,
    relaxed_covariance,
    squeezed_covariance,
    thermal_covariance,
)

X_TILDE = 4.888709235047135
VACUUM = np.array([1.0, 0.0, 1.0])


def fock_thermal_fidelity(x1, x2, dim=200):
    """Truncated number-basis fidelity of two thermal oscillator states.

    Both states are diagonal in the number basis, so the fidelity is the
    squared Bhattacharyya overlap of geometric distributions.
    """
    n = np.arange(dim)
    w1, w2 = math.exp(-x1), math.exp(-x2)
    p = (1.0 - w1) * w1**n
    q = (1.0 - w2) * w2**n
    return float(np.sqrt(p * q).sum() ** 2)


def model_at(x, temperature=1.0, gamma=1e-3):
    return DissipationModel(gap=x * temperature, temperature=temperature, coupling=gamma)


class TestCovarianceOracles:
    def test_thermal(self):
        t = thermal_covariance(1.0, 0.5)
        assert t[0] == pytest.approx(1.0 / math.tanh(1.0), rel=1e-14)
        assert t[0] == t[2] and t[1] == 0.0
        assert t[0] * t[2] >= 1.0

    def test_relaxed_covariance_mixes_start_and_target(self):
        # at t = ln2 / damping the state is the even mixture of start and target
        m = model_at(2.0)
        t_half = math.log(2.0) / m.phase_space_damping
        s0 = squeezed_covariance(2.0)
        got = relaxed_covariance(s0, m, t_half)
        want = 0.5 * (s0 + thermal_covariance(m.gap, m.temperature))
        assert got == pytest.approx(want, rel=1e-12)


class TestFidelity:
    def test_vacuum_with_itself(self):
        assert fidelity_gaussian(VACUUM, VACUUM) == 1.0

    def test_identical_thermal_states(self):
        s = thermal_covariance(1.0, 0.7)
        assert fidelity_gaussian(s, s) == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_against_thermal_closed_form(self):
        # overlap with the ground state is the ground population 1 - e^{-x}
        for x in (0.4, 1.0, 3.0):
            s = thermal_covariance(1.0, 1.0 / x)
            got = fidelity_gaussian(VACUUM, s)
            assert got == pytest.approx(2.0 / (1.0 + 1.0 / math.tanh(x / 2.0)), rel=1e-13)
            assert got == pytest.approx(1.0 - math.exp(-x), rel=1e-12)

    def test_symmetric(self):
        a = thermal_covariance(1.0, 0.5)
        b = squeezed_covariance(1.7)
        assert fidelity_gaussian(a, b) == pytest.approx(fidelity_gaussian(b, a), rel=1e-14)

    def test_monotone_in_temperature_gap(self):
        base = thermal_covariance(1.0, 0.5)
        f = [fidelity_gaussian(base, thermal_covariance(1.0, t)) for t in (0.5, 0.6, 0.8, 1.2)]
        assert all(a > b for a, b in zip(f, f[1:]))

    def test_bounds_on_random_physical_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            def draw():
                if rng.random() < 0.5:
                    return thermal_covariance(1.0, rng.uniform(0.1, 5.0))
                s = rng.uniform(0.3, 3.0)
                c = rng.uniform(1.0, 3.0)
                return np.array([c * s, 0.0, c / s])

            f = fidelity_gaussian(draw(), draw())
            assert 0.0 <= f <= 1.0

    def test_against_fock_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            x1, x2 = rng.uniform(0.2, 6.0, 2)
            got = fidelity_gaussian(thermal_covariance(1.0, 1.0 / x1), thermal_covariance(1.0, 1.0 / x2))
            assert got == pytest.approx(fock_thermal_fidelity(x1, x2), abs=1e-8)


class TestHarmonicEquilibrium:
    def test_high_temperature_limit(self):
        # T^2 * qfi -> 1 as gap/T -> 0
        x = 1e-3
        t = 1.0 / x
        assert qfi_harmonic_equilibrium(1.0, [t])[0] * t * t == pytest.approx(1.0, abs=1e-6)

    def test_against_two_level_at_same_ratio(self):
        # the oscillator curve sits exactly coth^2(x/2) above the qubit one
        x = 2.4
        t = 1.0 / x
        ho = qfi_harmonic_equilibrium(1.0, [t])[0]
        qb = qfi_effective_two_level([x], 2, 1.0)[0]
        assert ho > qb
        assert ho / qb == pytest.approx(1.0 / math.tanh(x / 2.0) ** 2, rel=1e-12)

    def test_large_ratio_vanishes(self):
        assert qfi_harmonic_equilibrium(1.0, [1.0 / 60.0])[0] < 1e-18
        assert qfi_harmonic_equilibrium(1.0, [1.0 / 2000.0])[0] == 0.0

    def test_ratio_beyond_the_floats_vanishes(self):
        # e^{-h} underflows where gap/T overflows: 0.0, not inf * 0
        assert qfi_harmonic_equilibrium(1.0, [1.0 / 1.7976931348623157e308]) == [0.0]

    @pytest.mark.parametrize("gap, t", [(5e-324, 1.0), (1e-300, 1e23), (1e-300, 3e22), (1e-300, 1.7e23),
                                        (1e-310, 1e10)])
    def test_subnormal_half_ratio_is_the_high_temperature_limit(self, gap, t):
        # h = gap/2T is 0 at the first point, where expm1(-2h) is 0, and
        # subnormal, with too few digits for the closed form, at the others
        assert qfi_harmonic_equilibrium(gap, [t])[0] == pytest.approx(1.0 / t**2, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("gap", [5e-324, 1e-300, 1.0, 1e100])
    def test_matches_mpmath_across_the_ratios(self, gap):
        # log-spaced ratios x = gap/T from the smallest subnormal to 1400;
        # the rounding of h = x/2, carried through e^{-h}, costs about x ulp
        mp = pytest.importorskip("mpmath").mp
        for x in (10.0 ** (k / 4) for k in range(-1293, 13)):
            t = gap / x
            if not 0.0 < t < math.inf:
                continue
            with mp.workdps(50):
                h = mp.mpf(gap) / (2 * mp.mpf(t))
                want = (h / mp.mpf(t) / mp.sinh(h)) ** 2
            if sys.float_info.min < want < sys.float_info.max:
                got = qfi_harmonic_equilibrium(gap, [t])[0]
                assert abs(got - want) <= (1.0 + x) * 5e-16 * want, (gap, x)

    def test_validation(self):
        with pytest.raises(ValueError):
            qfi_harmonic_equilibrium(-1.0, [1.0])


class TestHarmonicTransient:
    def test_long_time_reaches_equilibrium(self):
        m = model_at(X_TILDE)
        got = qfi_harmonic_transient(m, [50.0 / m.phase_space_damping])[0]
        assert got == pytest.approx(qfi_harmonic_equilibrium(m.gap, [m.temperature])[0], rel=1e-12)

    def test_short_time_rate_matches_qubit_limit(self):
        m = model_at(X_TILDE)
        dt = 1e-4 / m.decay_rate
        rate = qfi_harmonic_transient(m, [dt])[0] / dt
        assert rate == pytest.approx(ultimate_rate(2, m.ratio, m.coupling, m.temperature), rel=1e-3)

    @pytest.mark.parametrize("damping_times", [0.05, 0.5, 3.0])
    def test_matches_gaussian_fidelity_oracle(self, damping_times):
        # fidelity curvature of the relaxed covariance across the temperature family
        m = model_at(2.0)
        dt = damping_times / m.phase_space_damping

        def family(temp):
            model = DissipationModel(gap=m.gap, temperature=temp, coupling=m.coupling)
            return relaxed_covariance(VACUUM, model, dt)

        oracle = qfi_bures_oracle(family, m.temperature, fidelity=fidelity_gaussian, step=1e-2)
        assert qfi_harmonic_transient(m, [dt])[0] == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("x", [0.5, X_TILDE, 12.0])
    def test_matches_number_basis_populations(self, x):
        # the relaxed vacuum is thermal with Boltzmann weight (c - 1)/(c + 1),
        # so its QFI is the Fisher information of geometric populations
        m = model_at(x)
        dt = 0.3 / m.phase_space_damping
        levels = np.arange(400)

        def populations(temp):
            model = DissipationModel(gap=m.gap, temperature=temp, coupling=m.coupling)
            c = relaxed_covariance(VACUUM, model, dt)[0]
            weight = (c - 1.0) / (c + 1.0)
            return (1.0 - weight) * weight**levels

        oracle = qfi_bures_oracle(populations, m.temperature)
        assert qfi_harmonic_transient(m, [dt])[0] == pytest.approx(oracle, rel=1e-6)

    def test_close_to_qubit_at_moderate_dt(self):
        m = model_at(X_TILDE)
        dt = 0.1 / m.decay_rate
        ho = qfi_harmonic_transient(m, [dt])[0]
        qb = qfi_transient_closed_form_qubit(m.ratio, dt, m.relaxation_time, m.temperature)
        assert ho == pytest.approx(qb, rel=5e-3)
