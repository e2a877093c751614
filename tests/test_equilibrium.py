import math

import numpy as np
import pytest

from thermoprobe.equilibrium import (
    DimensionTooSmall,
    QfiValue,
    hessian_certificate,
    hessian_pair_eigenvalue,
    hessian_shift_eigenvalue,
    optimal_gap,
    qfi_effective_two_level,
    qfi_equilibrium_scan,
    qfi_thermal,
)
from thermoprobe.numerics import find_root
from thermoprobe.spectra import (
    EffectiveTwoLevelSpectrum,
    Spectrum,
    energy_variance,
    thermalize,
)

from oracles import (
    full_width_half_max,
    max_variance_search,
    qfi_bures_oracle,
    stationarity_residual,
    thermal_covariance_family,
    thermal_population_family,
)


def two_level_variance(n, n0, x, t):
    ens = thermalize(EffectiveTwoLevelSpectrum(gap=x * t, n=n, n0=n0).expand(), t)
    return energy_variance(ens)


class TestQfiThermal:
    def test_matches_closed_form(self):
        for n, x in [(2, 2.0), (4, 1.1), (10, 3.5)]:
            gap = 1.0
            t = gap / x
            ens = thermalize(EffectiveTwoLevelSpectrum(gap=gap, n=n, n0=1).expand(), t)
            assert qfi_thermal(ens).value == pytest.approx(
                qfi_effective_two_level(x, n, gap), rel=1e-12
            )

    def test_degenerate_spectrum_zero(self):
        ens = thermalize(Spectrum((1.0, 1.0, 1.0)), 0.8)
        assert qfi_thermal(ens).value == 0.0

    def test_qfi_value_rejects_negative(self):
        with pytest.raises(ValueError):
            QfiValue(value=-1.0)


class TestBuresOracle:
    def test_matches_variance_form(self):
        s = Spectrum((0.0, 1.0, 2.0))
        t = 0.7
        got = qfi_bures_oracle(s, t)
        want = qfi_thermal(thermalize(s, t)).value
        assert got == pytest.approx(want, rel=1e-6)

    def test_self_fidelity_curvature_nonnegative(self):
        s = Spectrum((0.0, 0.5))
        assert qfi_bures_oracle(s, 1.3) >= 0.0

    def test_two_level_at_x_two(self):
        t = 1.0
        s = Spectrum((0.0, 2.0))
        assert qfi_bures_oracle(s, t) == pytest.approx(
            qfi_thermal(thermalize(s, t)).value, rel=1e-6
        )

    def test_population_family_callable(self):
        s = Spectrum((0.0, 1.5))
        fam = thermal_population_family(s)
        direct = qfi_bures_oracle(s, 0.9)
        via_family = qfi_bures_oracle(fam, 0.9)
        assert direct == via_family

    def test_harmonic_thermal_family(self):
        # oracle on the covariance family reproduces gap^2/(4T^4) csch^2(gap/2T);
        # the step sits above the roundoff floor of direct fidelity differencing
        from thermoprobe.gaussian import qfi_harmonic_equilibrium

        fam = thermal_covariance_family(1.0)
        for x in np.linspace(0.2, 10.0, 15):
            t = 1.0 / x
            got = qfi_bures_oracle(fam, t, step=2e-3 * t)
            assert got == pytest.approx(qfi_harmonic_equilibrium(1.0, t).value, rel=1e-6)

    def test_random_spectra_oracle_equivalence(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(40):
            n = rng.integers(2, 7)
            s = Spectrum(tuple(sorted(rng.uniform(0, 5, n))))
            t = rng.uniform(0.2, 5.0)
            got = qfi_bures_oracle(s, t)
            want = qfi_thermal(thermalize(s, t)).value
            worst = max(worst, abs(got / want - 1.0))
        assert worst <= 1e-5

    def test_rejects_unknown_probe(self):
        with pytest.raises(TypeError):
            qfi_bures_oracle(3.0, 1.0)

    def test_propagates_step_too_small(self):
        from thermoprobe.numerics import StepTooSmall

        with pytest.raises(StepTooSmall):
            qfi_bures_oracle(Spectrum((0.0, 1.0)), 1.0, step=-1e-3)


class TestStationarity:
    def test_optimal_two_level_is_stationary(self):
        t = 1.0
        x = optimal_gap(2, 1, t).x_star
        res = stationarity_residual(Spectrum((0.0, t * x)), t)
        assert max(abs(r) for r in res) <= 1e-9

    def test_equal_levels_trivially_stationary(self):
        res = stationarity_residual(Spectrum((0.4, 0.4, 0.4)), 0.9)
        assert res == [0.0, 0.0, 0.0]

    def test_generic_spectrum_not_stationary(self):
        res = stationarity_residual(Spectrum((0.0, 1.0, 3.0)), 1.0)
        assert max(abs(r) for r in res) > 1e-3


class TestGlobalSpectrumSearch:
    """The optimal spectrum found over all n-level spectra, not only over
    effective two-level ones, is the single-ground-level solution of the gap
    equation."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 10, 20])
    def test_argmax_is_one_ground_level_below_a_degenerate_excited_level(self, n):
        for t in (0.5, 1.0, 2.5):
            variance, eps = max_variance_search(n, t)
            want = optimal_gap(n, 1, t)
            assert variance == pytest.approx(want.qfi_at_optimum * t**4, rel=1e-12)
            assert eps[1] - eps[0] == pytest.approx(want.gap, rel=1e-9)
            assert eps[-1] - eps[1] <= 1e-9 * t
            assert max(abs(r) for r in stationarity_residual(Spectrum(tuple(eps)), t)) <= 1e-12

    @pytest.mark.parametrize("n", [4, 6, 10, 20])
    def test_degenerate_ground_level_loses(self, n):
        best, _ = max_variance_search(n, 1.0)
        for n0 in (2, 3):
            restricted, _ = max_variance_search(n, 1.0, n0=n0)
            assert restricted == pytest.approx(optimal_gap(n, n0, 1.0).qfi_at_optimum, rel=1e-12)
            assert restricted < best


class TestOptimalGap:
    def test_two_level_value(self):
        res = optimal_gap(2, 1, 1.0)
        assert res.x_star == pytest.approx(2.3993572805154675, abs=1e-10)
        assert abs(res.residual) <= 1e-10
        assert res.gap == pytest.approx(res.x_star, abs=1e-12)

    def test_ten_level_value(self):
        res = optimal_gap(10, 1, 1.0)
        assert res.x_star == pytest.approx(3.4976487162651547, abs=1e-9)
        assert res.x_star == pytest.approx(3.50, abs=5e-3)

    def test_matches_bisection_oracle(self):
        for n, n0 in [(3, 1), (6, 2), (12, 5)]:
            r = (n - n0) / n0
            f = lambda x: (x - 2.0) - r * (x + 2.0) * math.exp(-x)
            a, b = 2.0 + 1e-12, 2.0 + math.log(4 * r) + 10.0
            fa = f(a)
            for _ in range(200):
                m = 0.5 * (a + b)
                if fa * f(m) <= 0:
                    b = m
                else:
                    a, fa = m, f(m)
            assert optimal_gap(n, n0, 1.0).x_star == pytest.approx(0.5 * (a + b), abs=1e-10)

    def test_x_star_exceeds_two_and_grows_with_n(self):
        xs = [optimal_gap(n, 1, 1.0).x_star for n in range(2, 11)]
        assert all(x > 2.0 for x in xs)
        assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_temperature_scaling(self):
        a = optimal_gap(4, 1, 1.0)
        b = optimal_gap(4, 1, 2.5)
        assert b.x_star == a.x_star
        assert b.gap == pytest.approx(2.5 * a.gap, rel=1e-14)

    def test_degeneracy_ordering_identity(self):
        # variance drop between consecutive ground degeneracies is T^2 (x_a^2 - x_b^2)/4
        t = 0.7
        for n, n0 in [(4, 2), (7, 3), (10, 9)]:
            xa = optimal_gap(n, n0 - 1, t).x_star
            xb = optimal_gap(n, n0, t).x_star
            diff = two_level_variance(n, n0 - 1, xa, t) - two_level_variance(n, n0, xb, t)
            assert diff > 0.0
            assert diff == pytest.approx(t * t * (xa * xa - xb * xb) / 4.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_gap(2, 2, 1.0)
        with pytest.raises(ValueError):
            optimal_gap(1, 1, 1.0)
        with pytest.raises(ValueError):
            optimal_gap(3, 1, -1.0)


class TestHessianCertificate:
    def test_analytic_matches_numeric(self):
        for n in (2, 3, 7, 20):
            cert = hessian_certificate(n)
            assert cert.eigenvalue_error <= 1e-8
            assert cert.certifies_maximum

    def test_three_level_eigenvalues(self):
        cert = hessian_certificate(3)
        x = cert.x_star
        assert hessian_shift_eigenvalue(3, x) == pytest.approx(-(x - 2.0) / 4.0, rel=1e-14)
        # the pair eigenvalue carries the dimension factor demanded by the
        # zero-row-sum block structure: lambda = -n (x^2 - 4) / (8 (n - 1))
        assert hessian_pair_eigenvalue(3, x) == pytest.approx(-3.0 * (x * x - 4.0) / 16.0, rel=1e-14)
        evs = np.array(cert.eigenvalues)
        assert evs[0] == pytest.approx(hessian_pair_eigenvalue(3, x), abs=1e-10)
        assert evs[1] == pytest.approx(hessian_shift_eigenvalue(3, x), abs=1e-10)
        assert evs[2] == pytest.approx(0.0, abs=1e-10)

    def test_two_level_by_hand(self):
        # 2x2 case: [[a, -a], [-a, a]] has eigenvalues {0, 2a}
        cert = hessian_certificate(2)
        a, b, c, _ = cert.block_entries
        assert b == pytest.approx(a, rel=1e-12)
        assert c == pytest.approx(-a, rel=1e-12)
        assert sorted(cert.analytic_eigenvalues) == pytest.approx([2 * a, 0.0], abs=1e-12)

    def test_entries_match_finite_differences(self):
        # ground truth: difference the variance itself around the optimum
        for n in (3, 5):
            t = 1.0
            cert = hessian_certificate(n, t)
            gap = t * cert.x_star
            base = [0.0] + [gap] * (n - 1)
            h = 1e-4

            def variance_at(eps):
                order = np.argsort(eps)
                ens = thermalize(Spectrum(tuple(np.asarray(eps)[order])), t)
                return energy_variance(ens)

            for (i, j), want in [((0, 0), cert.block_entries[0]),
                                 ((1, 1), cert.block_entries[1]),
                                 ((0, 1), cert.block_entries[2]),
                                 ((1, 2), cert.block_entries[3])]:
                if n == 2 and (i, j) == (1, 2):
                    continue
                fd = 0.0
                for si, sj, w in [(h, h, 1), (h, -h, -1), (-h, h, -1), (-h, -h, 1)]:
                    eps = list(base)
                    eps[i] += si
                    eps[j] += sj
                    fd += w * variance_at(eps)
                fd /= 4.0 * h * h
                assert fd == pytest.approx(want, abs=5e-6)

    def test_zero_mode_is_uniform_shift(self):
        cert = hessian_certificate(6)
        assert cert.zero_mode_residual <= 1e-12
        near_zero = [v for v in cert.eigenvalues if abs(v) <= 1e-8]
        assert len(near_zero) == 1

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmall):
            hessian_certificate(1)


class TestOptimality:
    def test_random_perturbations_never_increase_variance(self):
        rng = np.random.default_rng(7)
        t = 1.0
        for n in (2, 3, 4):
            x = optimal_gap(n, 1, t).x_star
            base = np.array([0.0] + [t * x] * (n - 1))
            v_opt = two_level_variance(n, 1, x, t)
            for _ in range(1000):
                eps = np.sort(base + rng.uniform(-0.1 * t, 0.1 * t, n))
                v = energy_variance(thermalize(Spectrum(tuple(eps)), t))
                assert v <= v_opt + 1e-12

    def test_dense_gap_grid_argmax(self):
        # 2-parameter grid over both levels of a qubit: the variance argmax is a
        # uniform-shift ridge, so every grid optimum sits at gap = T x*
        t = 1.0
        x_star = optimal_gap(2, 1, t).x_star
        shifts = np.linspace(0.0, 1.0, 11)
        gaps = np.linspace(2.0, 3.0, 1001)
        best, best_gap = -1.0, None
        for e0 in shifts:
            for g in gaps:
                v = energy_variance(thermalize(Spectrum((e0, e0 + g)), t))
                if v > best:
                    best, best_gap = v, g
        assert best_gap == pytest.approx(t * x_star, abs=(gaps[1] - gaps[0]))

    def test_uncertainty_relation_saturation(self):
        # dT ~ qfi^{-1/2} makes (dT/T^2) dH exactly 1
        ens = thermalize(Spectrum((0.0, 1.3, 2.2)), 0.8)
        qfi = qfi_thermal(ens).value
        dt = qfi**-0.5
        dh = math.sqrt(energy_variance(ens))
        assert dt / ens.temperature**2 * dh == pytest.approx(1.0, rel=1e-12)

    def test_peak_qfi_grows_with_dimension(self):
        xs = np.linspace(0.5, 12.0, 4000)
        peaks = [max(qfi_effective_two_level(x, n, 1.0) for x in xs) for n in range(2, 11)]
        assert all(a < b for a, b in zip(peaks, peaks[1:]))


class TestEquilibriumScan:
    def test_row_structure(self):
        rows = qfi_equilibrium_scan([2, 4], [1.0, 2.0, 3.0], gap=1.0)
        assert len(rows) == 3 * 3  # two probes + harmonic
        assert set(rows[0]) == {"N", "T", "qfi", "qfi_normalized"}
        for series in (2, 4, "ho"):
            chunk = [r for r in rows if r["N"] == series]
            assert max(r["qfi_normalized"] for r in chunk) == 1.0

    def test_grid_peak_matches_fixed_gap_peak_equation(self):
        # at fixed gap the qfi-vs-temperature curve peaks where
        # e^x = (n-1)(x+4)/(x-4), not at the fixed-temperature optimum x*
        xs = np.linspace(3.0, 8.0, 200001)
        for n in (2, 10):
            root = find_root(
                lambda x: (x - 4.0) - (n - 1) * (x + 4.0) * math.exp(-x), 4.0 + 1e-9, 12.0, tol=1e-12
            ).root
            vals = np.array([qfi_effective_two_level(x, n, 1.0) for x in xs])
            assert xs[np.argmax(vals)] == pytest.approx(root, abs=2 * (xs[1] - xs[0]))
            assert root != pytest.approx(optimal_gap(n, 1, 1.0).x_star, abs=0.5)

    def test_normalized_width_shrinks_with_dimension(self):
        ts = np.linspace(0.02, 2.0, 20001)
        xs = 1.0 / ts
        w2 = full_width_half_max(ts, np.array([qfi_effective_two_level(x, 2, 1.0) for x in xs]))
        w10 = full_width_half_max(ts, np.array([qfi_effective_two_level(x, 10, 1.0) for x in xs]))
        assert w10 < w2

    def test_validation(self):
        with pytest.raises(ValueError):
            qfi_equilibrium_scan([], [1.0], include_harmonic=False)
        with pytest.raises(ValueError):
            qfi_equilibrium_scan([2], [-1.0])


class TestFullWidthHalfMax:
    def test_triangle(self):
        xs = np.linspace(0.0, 2.0, 2001)
        ys = 1.0 - np.abs(xs - 1.0)
        assert full_width_half_max(xs, ys) == pytest.approx(1.0, abs=1e-3)

    def test_unbracketed_raises(self):
        xs = np.linspace(0.0, 1.0, 101)
        with pytest.raises(ValueError):
            full_width_half_max(xs, np.ones_like(xs))
