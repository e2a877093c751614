import math

import numpy as np
import pytest

from thermoprobe.numerics import central_diff
from thermoprobe.spectra import (
    EffectiveTwoLevelSpectrum,
    NonPositiveTemperature,
    Spectrum,
    energy_variance,
    thermalize,
)

from oracles import gap_ratio, heat_capacity, mean_energy, scaled, shifted


def brute_force_variance(energies, temperature):
    eps = np.asarray(energies, float)
    w = np.exp(-eps / temperature)
    p = w / w.sum()
    return float((p * eps**2).sum() - (p * eps).sum() ** 2)


class TestSpectrum:
    def test_validation(self):
        with pytest.raises(ValueError):
            Spectrum((1.0,))
        with pytest.raises(ValueError):
            Spectrum((2.0, 1.0))
        with pytest.raises(ValueError):
            Spectrum((0.0, math.inf))

    def test_degenerate_levels_allowed(self):
        s = Spectrum((0.0, 1.0, 1.0, 1.0))
        assert s.size == 4

    def test_effective_two_level(self):
        e = EffectiveTwoLevelSpectrum(gap=1.5, n=5, n0=2)
        assert e.expand() == Spectrum((0.0, 0.0, 1.5, 1.5, 1.5))
        assert gap_ratio(e, 0.5) == 3.0
        with pytest.raises(ValueError):
            EffectiveTwoLevelSpectrum(gap=1.0, n=2, n0=2)
        with pytest.raises(ValueError):
            EffectiveTwoLevelSpectrum(gap=-1.0, n=2, n0=1)


class TestThermalize:
    def test_infinite_temperature_limit(self):
        ens = thermalize(Spectrum((0.0, 1.0)), 1e9)
        assert ens.populations[0] == pytest.approx(0.5, abs=1e-9)
        assert ens.populations[1] == pytest.approx(0.5, abs=1e-9)

    def test_two_level_gibbs(self):
        # T equal to the gap: populations 1/(1+e^-1), e^-1/(1+e^-1)
        ens = thermalize(Spectrum((0.0, 2.0)), 2.0)
        z = 1.0 + math.exp(-1.0)
        assert ens.populations[0] == pytest.approx(1.0 / z, abs=1e-15)
        assert ens.populations[1] == pytest.approx(math.exp(-1.0) / z, abs=1e-15)

    def test_shift_invariance_exact(self):
        # binary-exact energies and shift give bit-identical populations
        s = Spectrum((0.0, 0.5, 1.25))
        a = thermalize(s, 0.75)
        b = thermalize(shifted(s, 5.0), 0.75)
        assert a.populations == b.populations

    def test_shift_invariance_generic(self):
        s = Spectrum((0.1, 0.9, 2.3))
        a = np.array(thermalize(s, 1.3).populations)
        b = np.array(thermalize(shifted(s, 0.7), 1.3).populations)
        assert np.abs(a - b).max() <= 1e-14

    def test_populations_are_normalized_and_positive(self):
        ens = thermalize(Spectrum((0.0, 10.0, 50.0)), 1.0)
        assert abs(sum(ens.populations) - 1.0) <= 1e-12
        assert all(p > 0 for p in ens.populations)

    def test_large_ratio_does_not_overflow(self):
        ens = thermalize(Spectrum((0.0, 50.0)), 1.0)
        assert ens.populations[1] == pytest.approx(math.exp(-50.0), rel=1e-12)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(NonPositiveTemperature):
            thermalize(Spectrum((0.0, 1.0)), 0.0)
        with pytest.raises(NonPositiveTemperature):
            thermalize(Spectrum((0.0, 1.0)), -2.0)


class TestMoments:
    def test_mean_energy_two_level(self):
        ens = thermalize(Spectrum((0.0, 1.0)), 1.0)
        assert mean_energy(ens) == pytest.approx(math.exp(-1.0) / (1.0 + math.exp(-1.0)), abs=1e-15)

    def test_mean_energy_degenerate(self):
        ens = thermalize(Spectrum((3.0, 3.0, 3.0)), 0.7)
        assert mean_energy(ens) == pytest.approx(3.0, abs=1e-14)

    @pytest.mark.parametrize("n,n0,x,t", [(2, 1, 2.0, 1.0), (5, 2, 1.3, 0.6), (10, 1, 4.0, 2.0)])
    def test_mean_energy_effective_two_level_closed_form(self, n, n0, x, t):
        ens = thermalize(EffectiveTwoLevelSpectrum(gap=x * t, n=n, n0=n0).expand(), t)
        emx = math.exp(-x)
        want = t * (n - n0) * x * emx / (n0 + (n - n0) * emx)
        assert mean_energy(ens) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n,n0,x,t", [(2, 1, 2.0, 1.0), (5, 2, 1.3, 0.6), (6, 3, 3.1, 1.4)])
    def test_variance_effective_two_level_closed_form(self, n, n0, x, t):
        ens = thermalize(EffectiveTwoLevelSpectrum(gap=x * t, n=n, n0=n0).expand(), t)
        ex = math.exp(x)
        want = t * t * n0 * (n - n0) * x * x * ex / ((n - n0) + n0 * ex) ** 2
        assert energy_variance(ens) == pytest.approx(want, rel=1e-12)

    def test_variance_degenerate_is_zero(self):
        ens = thermalize(Spectrum((2.0, 2.0, 2.0)), 1.0)
        assert energy_variance(ens) == 0.0

    def test_variance_matches_brute_force(self):
        ens = thermalize(Spectrum((0.0, 1.0, 2.0)), 1.0)
        assert energy_variance(ens) == pytest.approx(brute_force_variance((0, 1, 2), 1.0), rel=1e-13)

    def test_heat_capacity_two_level(self):
        x, t = 1.7, 0.9
        ens = thermalize(Spectrum((0.0, x * t)), t)
        ex = math.exp(x)
        assert heat_capacity(ens) == pytest.approx(x * x * ex / (1.0 + ex) ** 2, rel=1e-12)

    def test_heat_capacity_bounds_signal_to_noise(self):
        # single-shot signal-to-noise (T/dT)^2 with dT = qfi^{-1/2} saturates C(T)
        ens = thermalize(Spectrum((0.0, 0.8, 1.1)), 0.6)
        c = heat_capacity(ens)
        qfi = energy_variance(ens) / ens.temperature**4
        snr2 = ens.temperature**2 * qfi
        assert snr2 <= c * (1.0 + 1e-12)
        assert snr2 == pytest.approx(c, rel=1e-12)


class TestInvariants:
    def test_variance_nonnegative_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.integers(2, 8)
            s = Spectrum(tuple(sorted(rng.uniform(0, 5, n))))
            t = rng.uniform(0.1, 6.0)
            assert energy_variance(thermalize(s, t)) >= 0.0

    def test_variance_zero_iff_degenerate(self):
        assert energy_variance(thermalize(Spectrum((1.0, 1.0)), 0.5)) == 0.0
        assert energy_variance(thermalize(Spectrum((1.0, 1.0 + 1e-6)), 0.5)) > 0.0

    def test_shift_leaves_statistics(self):
        s = Spectrum((0.0, 0.7, 1.9))
        a, b = thermalize(s, 1.1), thermalize(shifted(s, -3.2), 1.1)
        assert energy_variance(a) == pytest.approx(energy_variance(b), rel=1e-12)
        assert heat_capacity(a) == pytest.approx(heat_capacity(b), rel=1e-12)

    def test_scale_covariance(self):
        s = Spectrum((0.0, 0.7, 1.9))
        k, t = 2.5, 1.1
        va = energy_variance(thermalize(s, t))
        vb = energy_variance(thermalize(scaled(s, k), k * t))
        assert vb == pytest.approx(k * k * va, rel=1e-12)

    def test_mean_energy_matches_log_partition_derivative(self):
        # <H> = T^2 d(ln Z)/dT across x in [0.1, 10]
        s = Spectrum((0.0, 1.0))
        for x in np.linspace(0.1, 10.0, 23):
            t = 1.0 / x
            got = t * t * central_diff(lambda tt: thermalize(s, tt).log_partition, t, 1e-4 * t)
            assert got == pytest.approx(mean_energy(thermalize(s, t)), rel=1e-6)
