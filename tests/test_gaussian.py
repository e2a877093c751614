import math

import numpy as np
import pytest

from thermoprobe.dynamics import DissipationModel, NegativeTime, transient_scan
from thermoprobe.gaussian import (
    CovarianceMatrix,
    UnphysicalCovariance,
    evolve_covariance,
    qfi_harmonic_equilibrium,
    qfi_harmonic_transient,
    vacuum_covariance,
)
from thermoprobe.numerics import NonFiniteState

from oracles import (
    fidelity_gaussian,
    qfi_harmonic_transient_oracle,
    qfi_transient_closed_form_qubit,
    squeezed_covariance,
    thermal_covariance,
)

X_TILDE = 4.888709235047135


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


class TestCovarianceMatrix:
    def test_vacuum_and_thermal(self):
        v = vacuum_covariance()
        assert v.determinant == 1.0
        t = thermal_covariance(1.0, 0.5)
        assert t.xx == pytest.approx(1.0 / math.tanh(1.0), rel=1e-14)
        assert t.xx == t.pp and t.xp == 0.0
        assert t.determinant >= 1.0

    def test_unphysical_rejected(self):
        with pytest.raises(UnphysicalCovariance):
            CovarianceMatrix(0.5, 0.0, 0.5)
        with pytest.raises(UnphysicalCovariance):
            CovarianceMatrix(2.0, 1.5, 1.0)
        with pytest.raises(UnphysicalCovariance):
            CovarianceMatrix(math.nan, 0.0, 1.0)


class TestFidelity:
    def test_vacuum_with_itself(self):
        assert fidelity_gaussian(vacuum_covariance(), vacuum_covariance()) == 1.0

    def test_identical_thermal_states(self):
        s = thermal_covariance(1.0, 0.7)
        assert fidelity_gaussian(s, s) == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_against_thermal_closed_form(self):
        # overlap with the ground state is the ground population 1 - e^{-x}
        for x in (0.4, 1.0, 3.0):
            s = thermal_covariance(1.0, 1.0 / x)
            got = fidelity_gaussian(vacuum_covariance(), s)
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
                return CovarianceMatrix(c * s, 0.0, c / s)

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
        assert qfi_harmonic_equilibrium(1.0, t).value * t * t == pytest.approx(1.0, abs=1e-6)

    def test_against_two_level_at_same_ratio(self):
        # the oscillator curve sits exactly coth^2(x/2) above the qubit one
        from thermoprobe.equilibrium import qfi_effective_two_level

        x = 2.4
        t = 1.0 / x
        ho = qfi_harmonic_equilibrium(1.0, t).value
        qb = qfi_effective_two_level(x, 2, 1.0)
        assert ho > qb
        assert ho / qb == pytest.approx(1.0 / math.tanh(x / 2.0) ** 2, rel=1e-12)

    def test_large_ratio_vanishes(self):
        assert qfi_harmonic_equilibrium(1.0, 1.0 / 60.0).value < 1e-18
        assert qfi_harmonic_equilibrium(1.0, 1.0 / 2000.0).value == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            qfi_harmonic_equilibrium(-1.0, 1.0)


class TestEvolveCovariance:
    def test_time_zero_identity(self):
        m = model_at(X_TILDE)
        s0 = squeezed_covariance(2.0)
        assert evolve_covariance(s0, m, 0.0) == s0

    def test_long_time_reaches_thermal(self):
        m = model_at(X_TILDE)
        target = thermal_covariance(m.gap, m.temperature)
        got = evolve_covariance(vacuum_covariance(), m, 50.0 / m.decay_rate)
        assert got.xx == pytest.approx(target.xx, abs=1e-10)
        assert got.pp == pytest.approx(target.pp, abs=1e-10)

    def test_half_mixing_time(self):
        # at t = ln2 / damping the state is the even mixture of start and target
        m = model_at(2.0)
        t_half = math.log(2.0) / m.phase_space_damping
        got = evolve_covariance(vacuum_covariance(), m, t_half)
        c = thermal_covariance(m.gap, m.temperature).xx
        assert got.xx == pytest.approx(0.5 * (1.0 + c), rel=1e-12)

    def test_negative_time(self):
        with pytest.raises(NegativeTime):
            evolve_covariance(vacuum_covariance(), model_at(2.0), -1.0)

    def test_physicality_preserved(self):
        rng = np.random.default_rng(21)
        m = model_at(1.7)
        for _ in range(50):
            s = rng.uniform(0.3, 3.0)
            c = rng.uniform(1.0, 4.0)
            s0 = CovarianceMatrix(c * s, 0.0, c / s)
            t = rng.uniform(0.0, 5.0 / m.phase_space_damping)
            assert evolve_covariance(s0, m, t).determinant >= 1.0 - 1e-12


class TestHarmonicTransient:
    def test_long_time_reaches_equilibrium(self):
        m = model_at(X_TILDE)
        got = qfi_harmonic_transient(vacuum_covariance(), m, 50.0 / m.phase_space_damping)
        want = qfi_harmonic_equilibrium(m.gap, m.temperature).value
        assert got.value == pytest.approx(want, rel=1e-8)

    def test_short_time_rate_matches_qubit_limit(self):
        from thermoprobe.dynamics import ultimate_rate

        m = model_at(X_TILDE)
        dt = 1e-4 / m.decay_rate
        rate = qfi_harmonic_transient(vacuum_covariance(), m, dt).value / dt
        assert rate == pytest.approx(ultimate_rate(2, m.ratio, m.coupling, m.temperature), rel=1e-3)

    def test_ground_beats_squeezed_at_small_dt(self):
        m = model_at(X_TILDE)
        for dt in (0.01 / m.decay_rate, 0.1 / m.decay_rate):
            ground = qfi_harmonic_transient(vacuum_covariance(), m, dt).value
            squeezed = qfi_harmonic_transient_oracle(squeezed_covariance(2.0), m, dt)
            assert ground > squeezed

    def test_isotropic_and_generic_paths_agree(self):
        # the fidelity-curvature oracle, on a preparation nudged off isotropy,
        # against the deficit form of the package
        m = model_at(2.0)
        dt = 0.5 / m.phase_space_damping
        iso = qfi_harmonic_transient(vacuum_covariance(), m, dt).value
        near = qfi_harmonic_transient_oracle(CovarianceMatrix(1.0 + 1e-9, 0.0, 1.0), m, dt)
        assert near == pytest.approx(iso, rel=1e-4)

    def test_close_to_qubit_at_moderate_dt(self):
        m = model_at(X_TILDE)
        dt = 0.1 / m.decay_rate
        ho = qfi_harmonic_transient(vacuum_covariance(), m, dt).value
        qb = qfi_transient_closed_form_qubit(m.ratio, dt, m.relaxation_time, m.temperature)
        assert ho == pytest.approx(qb, rel=5e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            qfi_harmonic_transient(vacuum_covariance(), model_at(2.0), 0.0)

    def test_underflowing_temperature_step_is_a_numerical_failure(self):
        # at T = 1e-320 the step 1e-4 * T underflows to 0
        m = DissipationModel(gap=1.0, temperature=1e-320, coupling=1e-3)
        with pytest.raises(NonFiniteState, match="temperature step"):
            qfi_harmonic_transient(vacuum_covariance(), m, 1.0)
        with pytest.raises(NonFiniteState, match="temperature step"):
            transient_scan(m, [1.0], [], [], include_harmonic=True)

    def test_rejects_anisotropic_preparation(self):
        m = model_at(2.0)
        with pytest.raises(ValueError, match="isotropic"):
            qfi_harmonic_transient(squeezed_covariance(2.0), m, 0.1)
        with pytest.raises(ValueError, match="isotropic"):
            qfi_harmonic_transient(CovarianceMatrix(1.0 + 1e-9, 0.0, 1.0), m, 0.1)
