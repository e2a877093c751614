import math
from fractions import Fraction

import numpy as np
import pytest

from thermoprobe.cli import _DEFAULTS, cmd_equilibrium_scan
from thermoprobe.equilibrium import (
    hessian_blocks,
    hessian_certificate,
    optimal_gap,
    qfi_effective_two_level,
    qfi_harmonic_equilibrium,
)
from thermoprobe.numerics import NoConvergence

from oracles import (
    EffectiveTwoLevelSpectrum,
    Spectrum,
    bisect_root,
    certifies_maximum,
    dense_hessian,
    energy_variance,
    fidelity_gaussian,
    full_width_half_max,
    max_variance_search,
    qfi_bures_oracle,
    qfi_thermal,
    rows_of,
    stationarity_residual,
    thermal_covariance_family,
    thermal_population_family,
    thermalize,
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
            assert qfi_thermal(ens) == pytest.approx(
                qfi_effective_two_level([x], n, gap)[0], rel=1e-12
            )

    def test_degenerate_spectrum_zero(self):
        ens = thermalize(Spectrum((1.0, 1.0, 1.0)), 0.8)
        assert qfi_thermal(ens) == 0.0


class TestBuresOracle:
    def test_matches_variance_form(self):
        s = Spectrum((0.0, 1.0, 2.0))
        t = 0.7
        got = qfi_bures_oracle(s, t)
        want = qfi_thermal(thermalize(s, t))
        assert got == pytest.approx(want, rel=1e-6)

    def test_self_fidelity_curvature_nonnegative(self):
        s = Spectrum((0.0, 0.5))
        assert qfi_bures_oracle(s, 1.3) >= 0.0

    def test_two_level_at_x_two(self):
        t = 1.0
        s = Spectrum((0.0, 2.0))
        assert qfi_bures_oracle(s, t) == pytest.approx(
            qfi_thermal(thermalize(s, t)), rel=1e-6
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
        fam = thermal_covariance_family(1.0)
        for x in np.linspace(0.2, 10.0, 15):
            t = 1.0 / x
            got = qfi_bures_oracle(fam, t, fidelity=fidelity_gaussian, step=2e-3 * t)
            assert got == pytest.approx(qfi_harmonic_equilibrium(1.0, [t])[0], rel=1e-6)

    def test_random_spectra_oracle_equivalence(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(40):
            n = rng.integers(2, 7)
            s = Spectrum(tuple(sorted(rng.uniform(0, 5, n))))
            t = rng.uniform(0.2, 5.0)
            got = qfi_bures_oracle(s, t)
            want = qfi_thermal(thermalize(s, t))
            worst = max(worst, abs(got / want - 1.0))
        assert worst <= 1e-5

    def test_rejects_unknown_probe(self):
        with pytest.raises(TypeError):
            qfi_bures_oracle(3.0, 1.0)


class TestStationarity:
    def test_optimal_two_level_is_stationary(self):
        t = 1.0
        [x], _, _ = optimal_gap([2], [1], t)
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
            [x], [qfi], _ = optimal_gap([n], [1], t)
            assert variance == pytest.approx(qfi * t**4, rel=1e-12)
            assert eps[1] - eps[0] == pytest.approx(t * x, rel=1e-9)
            assert eps[-1] - eps[1] <= 1e-9 * t
            assert max(abs(r) for r in stationarity_residual(Spectrum(tuple(eps)), t)) <= 1e-12

    @pytest.mark.parametrize("n", [4, 6, 10, 20])
    def test_degenerate_ground_level_loses(self, n):
        best, _ = max_variance_search(n, 1.0)
        for n0 in (2, 3):
            restricted, _ = max_variance_search(n, 1.0, n0=n0)
            assert restricted == pytest.approx(optimal_gap([n], [n0], 1.0)[1][0], rel=1e-12)
            assert restricted < best


def gap_equation_residual(x, n, n0):
    """Relative residual of e^x = ((n - n0)/n0)(x + 2)/(x - 2)."""
    return abs(math.exp(x) * (x - 2.0) * n0 / ((n - n0) * (x + 2.0)) - 1.0)


class TestOptimalGap:
    def test_two_level_value(self):
        [x], _, [excess] = optimal_gap([2], [1], 1.0)
        assert x == pytest.approx(2.3993572805154675, abs=1e-10)
        assert gap_equation_residual(x, 2, 1) <= 1e-10
        assert excess is None  # there is no ground degeneracy 0 to compare with

    def test_ten_level_value(self):
        [x], _, _ = optimal_gap([10], [1], 1.0)
        assert x == pytest.approx(3.4976487162651547, abs=1e-9)
        assert x == pytest.approx(3.50, abs=5e-3)

    def test_matches_bisection_oracle(self):
        for n, n0 in [(3, 1), (6, 2), (12, 5)]:
            r = (n - n0) / n0
            root = bisect_root(lambda x: (x - 2.0) - r * (x + 2.0) * math.exp(-x),
                               2.0 + 1e-12, 2.0 + math.log(4 * r) + 10.0)
            assert optimal_gap([n], [n0], 1.0)[0][0] == pytest.approx(root, abs=1e-10)

    def test_peak_is_the_two_level_variance(self):
        for n, n0, t in [(2, 1, 1.0), (5, 2, 0.6), (12, 5, 2.5)]:
            [x], [qfi], _ = optimal_gap([n], [n0], t)
            want = two_level_variance(n, n0, float(x), t)
            assert qfi * t**4 == pytest.approx(want, rel=1e-13, abs=0.0)
            # at the optimum the variance is T^2 (x^2 - 4) / 4
            assert qfi * t**4 == pytest.approx(t * t * (x * x - 4.0) / 4.0, rel=1e-13, abs=0.0)

    def test_excess_is_the_drop_of_the_peak_variance(self):
        for n, n0, t in [(5, 2, 0.6), (12, 5, 2.5), (40, 39, 1.0)]:
            _, [qfi_low], _ = optimal_gap([n], [n0 - 1], t)
            _, [qfi], [excess] = optimal_gap([n], [n0], t)
            assert excess == pytest.approx((qfi_low - qfi) * t**4, rel=1e-13, abs=0.0)

    def test_one_array_call_equals_calls_per_pair(self):
        pairs = [(n, n0) for n in (2, 7, 40, 10**6) for n0 in (1, 3) if n0 < n]
        columns = optimal_gap([n for n, _ in pairs], [n0 for _, n0 in pairs], 1.3)
        for i, (n, n0) in enumerate(pairs):
            np.testing.assert_array_equal([c[i:i + 1] for c in columns], optimal_gap([n], [n0], 1.3))

    def test_x_star_exceeds_two_and_grows_with_n(self):
        xs, _, _ = optimal_gap(range(2, 11), [1] * 9, 1.0)
        assert all(x > 2.0 for x in xs)
        assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_temperature_scaling(self):
        [xa], [qa], [ea] = optimal_gap([4], [2], 1.0)
        [xb], [qb], [eb] = optimal_gap([4], [2], 2.5)
        assert xb == xa
        assert qb == pytest.approx(qa / 2.5**2, rel=1e-15, abs=0.0)
        assert eb == pytest.approx(2.5**2 * ea, rel=1e-15, abs=0.0)

    def test_degeneracy_ordering_identity(self):
        # variance drop between consecutive ground degeneracies is T^2 (x_a^2 - x_b^2)/4
        t = 0.7
        for n, n0 in [(4, 2), (7, 3), (10, 9)]:
            [xa], _, _ = optimal_gap([n], [n0 - 1], t)
            [xb], _, _ = optimal_gap([n], [n0], t)
            diff = two_level_variance(n, n0 - 1, xa, t) - two_level_variance(n, n0, xb, t)
            assert diff > 0.0
            assert diff == pytest.approx(t * t * (xa * xa - xb * xb) / 4.0, abs=1e-9)

    def test_dimensions_beyond_64_bit_ints(self):
        xs, _, _ = optimal_gap([2**1000] * 2, [1, 2], 1.0)
        for x, n0 in zip(xs, (1, 2)):
            assert gap_equation_residual(x, 2**1000, n0) <= 1e-10

    def test_unresolvable_root_raises(self):
        # x* - 2 is about 4 e^{-2} (n - n0) / n0 = 5e-13, which a double near 2
        # resolves only to 1e-3 relative
        with pytest.raises(NoConvergence, match=f"n={10**12}, n0={10**12 - 1}"):
            optimal_gap([10**12] * 2, [1, 10**12 - 1], 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_gap([2], [2], 1.0)
        with pytest.raises(ValueError):
            optimal_gap([1], [1], 1.0)
        with pytest.raises(ValueError):
            optimal_gap([3, 4], [1, 4], 1.0)
        with pytest.raises(ValueError):
            optimal_gap([3], [1], -1.0)
        with pytest.raises(ValueError):
            optimal_gap([3, 4], [1], 1.0)


class TestHessianCertificate:
    def test_analytic_matches_numeric(self):
        dims = [2, 3, 7, 20]
        columns = hessian_certificate(dims)
        _, _, _, multiplicities, errors, _, certified = columns
        assert [len(column) for column in columns] == [len(dims)] * 7
        for n, multiplicity, error, certifies in zip(dims, multiplicities, errors, certified):
            assert error <= 1e-8
            assert certifies is True
            assert multiplicity == n - 2

    def test_three_level_eigenvalues(self):
        x, (a, b, c, d), (low, high) = hessian_blocks(3)
        _, [pair], [shift], *_ = hessian_certificate([3])
        assert shift == pytest.approx(-(x - 2.0) / 4.0, rel=1e-14)
        # the pair eigenvalue carries the dimension factor demanded by the
        # zero-row-sum block structure: lambda = -n (x^2 - 4) / (8 (n - 1))
        assert pair == pytest.approx(-3.0 * (x * x - 4.0) / 16.0, rel=1e-14)
        assert low == pytest.approx(pair, abs=1e-10)
        assert b - d == pytest.approx(shift, abs=1e-10)
        assert high == pytest.approx(0.0, abs=1e-10)

    def test_two_level_by_hand(self):
        # 2x2 case: [[a, -a], [-a, a]] has eigenvalues {0, 2a}
        _, (a, b, c, _), (low, high) = hessian_blocks(2)
        assert b == pytest.approx(a, rel=1e-12)
        assert c == pytest.approx(-a, rel=1e-12)
        _, [pair], [shift], *_ = hessian_certificate([2])
        assert pair == pytest.approx(2 * a, rel=1e-12)
        assert [low, high] == pytest.approx([2 * a, 0.0], abs=1e-12)
        assert shift is None

    def test_entries_match_finite_differences(self):
        # ground truth: difference the variance itself around the optimum
        # at T = 1, the temperature at which hessian_blocks forms the entries
        for n in (3, 5):
            x, entries, _ = hessian_blocks(n)
            base = [0.0] + [x] * (n - 1)
            h = 1e-4

            def variance_at(eps):
                order = np.argsort(eps)
                ens = thermalize(Spectrum(tuple(np.asarray(eps)[order])), 1.0)
                return energy_variance(ens)

            for (i, j), want in zip([(0, 0), (1, 1), (0, 1), (1, 2)], entries):
                fd = 0.0
                for si, sj, w in [(h, h, 1), (h, -h, -1), (-h, h, -1), (-h, -h, 1)]:
                    eps = list(base)
                    eps[i] += si
                    eps[j] += sj
                    fd += w * variance_at(eps)
                fd /= 4.0 * h * h
                assert fd == pytest.approx(want, abs=5e-6)

    def test_zero_mode_is_uniform_shift(self):
        *_, [residual], _ = hessian_certificate([6])
        assert residual <= 1e-12
        eigenvalues, _ = dense_hessian(6, hessian_blocks(6)[1])
        assert len([v for v in eigenvalues if abs(v) <= 1e-8]) == 1

    def test_blocks_match_the_dense_hessian(self):
        dims = range(2, 65)
        _, pairs, shifts, _, errors, residuals, certified = hessian_certificate(dims)
        for n, pair, shift, error, residual, certifies in zip(dims, pairs, shifts, errors, residuals, certified):
            _, abcd, (low, high) = hessian_blocks(n)
            dense, row_sum = dense_hessian(n, abcd)
            block = np.sort([low, high] + [abcd[1] - abcd[3]] * (n - 2))
            assert np.abs(block - dense).max() <= 1e-14
            assert residual == pytest.approx(row_sum, abs=1e-14)
            assert certifies is certifies_maximum(dense) is True
            analytic = np.sort([pair, 0.0] + [shift] * (n - 2))
            assert error == pytest.approx(np.abs(dense - analytic).max(), abs=1e-14)

    def test_certifies_up_to_the_largest_dimension_a_float_holds(self):
        # b and (n - 2) d are about 1/n and stay normal floats while n does
        n = 2**1024 - 2**970  # float(n) is the largest finite float
        [x_star], [pair], [shift], _, _, _, [certifies] = hessian_certificate([n])
        x = Fraction(x_star)
        assert certifies is True
        assert shift == pytest.approx(float(-(x - 2) / (2 * (n - 1))), rel=1e-12)
        assert pair == pytest.approx(float(-(x * x - 4) * n / (8 * (n - 1))), rel=1e-15)

    def test_dimension_too_small(self):
        with pytest.raises(ValueError, match="n >= 2"):
            hessian_certificate([1])


class TestOptimality:
    def test_random_perturbations_never_increase_variance(self):
        rng = np.random.default_rng(7)
        t = 1.0
        for n in (2, 3, 4):
            [x], _, _ = optimal_gap([n], [1], t)
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
        [x_star], _, _ = optimal_gap([2], [1], t)
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
        qfi = qfi_thermal(ens)
        dt = qfi**-0.5
        dh = math.sqrt(energy_variance(ens))
        assert dt / ens.temperature**2 * dh == pytest.approx(1.0, rel=1e-12)

    def test_peak_qfi_grows_with_dimension(self):
        xs = np.linspace(0.5, 12.0, 4000)
        peaks = [max(qfi_effective_two_level(xs, n, 1.0)) for n in range(2, 11)]
        assert all(a < b for a, b in zip(peaks, peaks[1:]))


class TestEquilibriumScan:
    def test_row_structure(self):
        params = {**_DEFAULTS["equilibrium-scan"], "n": [2, 4], "x_min": 1.0, "x_max": 3.0, "points": 3}
        rows = rows_of(cmd_equilibrium_scan(params))
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
            root = bisect_root(lambda x: (x - 4.0) - (n - 1) * (x + 4.0) * math.exp(-x), 4.0 + 1e-9, 12.0)
            vals = np.array(qfi_effective_two_level(xs, n, 1.0))
            assert xs[np.argmax(vals)] == pytest.approx(root, abs=2 * (xs[1] - xs[0]))
            assert root != pytest.approx(optimal_gap([n], [1], 1.0)[0][0], abs=0.5)

    def test_normalized_width_shrinks_with_dimension(self):
        ts = np.linspace(0.02, 2.0, 20001)
        xs = 1.0 / ts
        w2 = full_width_half_max(ts, np.array(qfi_effective_two_level(xs, 2, 1.0)))
        w10 = full_width_half_max(ts, np.array(qfi_effective_two_level(xs, 10, 1.0)))
        assert w10 < w2

    @pytest.mark.parametrize("x", [1.3e154, 1.35e154, 1e300])
    def test_two_level_qfi_is_zero_where_the_half_exponential_underflows(self, x):
        # from x = 1.34e154 on, x^2 overflows, and inf * e^{-x/2} would be NaN
        assert qfi_effective_two_level([x], 2, 1.0) == [0.0]


class TestFullWidthHalfMax:
    def test_triangle(self):
        xs = np.linspace(0.0, 2.0, 2001)
        ys = 1.0 - np.abs(xs - 1.0)
        assert full_width_half_max(xs, ys) == pytest.approx(1.0, abs=1e-3)

    def test_unbracketed_raises(self):
        xs = np.linspace(0.0, 1.0, 101)
        with pytest.raises(ValueError):
            full_width_half_max(xs, np.ones_like(xs))
