import math

import numpy as np
import pytest

from thermoprobe.cli import _DEFAULTS, cmd_transient_scan
from thermoprobe.dynamics import (
    DissipationModel,
    optimal_interrogation_ratio,
    qfi_harmonic_transient,
    qfi_transient,
    qfi_transient_plus,
    ultimate_rate,
)
from thermoprobe.equilibrium import hessian_certificate, optimal_gap, qfi_effective_two_level, qfi_harmonic_equilibrium
from thermoprobe.numerics import NonFiniteState, geometric_grid

from oracles import (
    Spectrum,
    X_TILDE,
    bisect_root,
    central_diff,
    fidelity_qubit,
    integrate_ode,
    qfi_bures_oracle,
    qfi_thermal,
    qfi_transient_closed_form_qubit,
    rate_matrix,
    relaxed_bloch,
    rows_of,
    thermalize,
)


def default_operating_model(gamma=1e-3, temperature=1.0):
    return DissipationModel(gap=X_TILDE * temperature, temperature=temperature, coupling=gamma)


def equilibrium_qfi(model):
    return qfi_thermal(thermalize(Spectrum((0.0, model.gap)), model.temperature))


class TestDissipationModel:
    def test_rates(self):
        m = DissipationModel(gap=2.0, temperature=1.0, coupling=0.5)
        x = 2.0
        assert m.decay_rate == pytest.approx(0.5 * 8.0 / (1.0 - math.exp(-x)), rel=1e-14)
        assert 1.0 / m.relaxation_time == pytest.approx(0.5 * 8.0 / math.tanh(x / 2.0), rel=1e-14)
        # detailed-balance factors cancel in the net phase-space damping
        up = m.decay_rate * math.exp(-x)
        assert m.phase_space_damping == pytest.approx(m.decay_rate - up, rel=1e-14)
        assert m.phase_space_damping == 0.5 * 8.0
        # the Boltzmann factor, its complement and its temperature derivative
        assert (m.boltzmann, m.boltzmann_complement) == (math.exp(-x), -math.expm1(-x))
        assert m.boltzmann_slope == x * math.exp(-x) / 1.0
        # expm1 is exact at a tiny ratio, where 1 - e^{-x} would read 0
        assert DissipationModel(gap=1e-300, temperature=1.0, coupling=0.5).boltzmann_complement == 1e-300
        # an underflowing w gives a zero slope, also where x / T overflows
        for gap, temperature in [(800.0, 1.0), (1.0, 1e-300)]:
            cold = DissipationModel(gap=gap, temperature=temperature, coupling=0.5)
            assert (cold.boltzmann, cold.boltzmann_slope) == (0.0, 0.0)

    def test_validation(self):
        for bad in [dict(gap=0.0), dict(temperature=-1.0), dict(coupling=0.0)]:
            kw = dict(gap=1.0, temperature=1.0, coupling=1e-3)
            kw.update(bad)
            with pytest.raises(ValueError):
                DissipationModel(**kw)

    @pytest.mark.parametrize("gap, temperature, coupling, flow", [
        (1.0, 1e-320, 1e-3, "overflows"),
        (1e-16, 1e308, 1e300, "underflows"),  # a zero ratio would make the decay rate divide by zero
    ])
    def test_ratio_out_of_range_is_a_numerical_failure(self, gap, temperature, coupling, flow):
        with pytest.raises(NonFiniteState, match=f"gap/temperature {flow}"):
            DissipationModel(gap=gap, temperature=temperature, coupling=coupling)

    def test_rate_scale_overflow_fails_at_construction(self):
        # gap**3 overflows; then only its product with the coupling; then only the
        # decay rate, the product divided by 1 - e^{-x}
        for gap, temperature, coupling in [(1e300, 1.0, 1e-3), (1000.0, 1.0, 1e300), (100.0, 1e10, 1e300)]:
            with pytest.raises(NonFiniteState, match=r"gap\*\*3"):
                DissipationModel(gap=gap, temperature=temperature, coupling=coupling)

    def test_detailed_balance_fixed_point(self):
        m = default_operating_model()
        for n in (2, 5):
            gibbs = thermalize(Spectrum((0.0,) + (m.gap,) * (n - 1)), m.temperature).population_array()
            assert np.abs(rate_matrix(n, m) @ gibbs).max() <= 1e-12


class TestTransientQfi:
    def test_matches_closed_form_across_times(self):
        m = default_operating_model()
        tau = m.relaxation_time
        for u in np.geomspace(0.01, 10.0, 12):
            got = qfi_transient(2, math.inf, m, [u * tau])[0]
            want = qfi_transient_closed_form_qubit(m.ratio, u * tau, tau, m.temperature)
            assert got == pytest.approx(want, rel=1e-12)

    def test_matches_closed_form_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            x = float(rng.uniform(1.0, 8.0))
            u = float(10.0 ** rng.uniform(-2.0, 1.0))
            m = DissipationModel(gap=x, temperature=1.0, coupling=1e-3)
            tau = m.relaxation_time
            got = qfi_transient(2, math.inf, m, [u * tau])[0]
            want = qfi_transient_closed_form_qubit(x, u * tau, tau, 1.0)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n, x0, p0", [
        (4, math.inf, [1.0, 0.0, 0.0, 0.0]),
        (4, math.log(7.0), [0.7, 0.1, 0.1, 0.1]),  # e^{-x0} = 1/7: the Gibbs state with excited population 0.3
        (10, math.inf, [1.0] + [0.0] * 9),
    ], ids=["4-ground", "4-gibbs", "10-ground"])
    def test_ladder_matches_integrated_populations(self, n, x0, p0):
        # RK4-integrated master equation, fidelity curvature across temperature
        m = DissipationModel(gap=3.0, temperature=1.0, coupling=5e-3)
        tau = m.relaxation_time
        dt = 1.3 * tau
        p0 = np.array(p0)

        def populations(temp):
            gen = rate_matrix(n, DissipationModel(gap=m.gap, temperature=temp, coupling=m.coupling))
            return integrate_ode(lambda y: gen @ y, p0, dt, tau / 400.0)

        oracle = qfi_bures_oracle(populations, m.temperature, step=1e-3)
        assert qfi_transient(n, x0, m, [dt])[0] == pytest.approx(oracle, rel=1e-6)

    def test_long_time_reaches_equilibrium_qfi(self):
        m = default_operating_model()
        got = qfi_transient(2, math.inf, m, [60.0 * m.relaxation_time])[0]
        assert got == pytest.approx(equilibrium_qfi(m), rel=1e-12)

    def test_gibbs_preparation_is_stationary(self):
        # preparing at exactly T, x0 = gap/T, pins the state to the fixed point
        # for all dt; with the preparation held fixed the transient QFI rises
        # toward the equilibrium value as (1 - e^{-dt/tau})^2
        m = default_operating_model()
        tau = m.relaxation_time
        eq = equilibrium_qfi(m)
        for u in (0.2, 1.0, 7.0):
            got = qfi_transient(2, m.ratio, m, [u * tau])[0]
            assert got == pytest.approx((1.0 - math.exp(-u)) ** 2 * eq, rel=1e-12)

    def test_ground_qubit_matches_bloch_fidelity_oracle(self):
        m = default_operating_model()
        dt = 0.7 * m.relaxation_time

        def family(temp):
            model = DissipationModel(gap=m.gap, temperature=temp, coupling=m.coupling)
            return relaxed_bloch((0.0, 0.0, -1.0), model, dt)

        oracle = qfi_bures_oracle(family, m.temperature, fidelity=fidelity_qubit, step=1e-2)
        assert qfi_transient(2, math.inf, m, [dt])[0] == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("u", [0.05, 0.5, 4.0])
    def test_plus_matches_lab_frame_bloch_fidelity_oracle(self, u):
        # the oracle keeps the precession, whose phase gap * dt does not depend on T;
        # a step of 1e-2 T keeps the fidelity differences above their roundoff floor
        m = default_operating_model()
        dt = u * m.relaxation_time

        def family(temp):
            model = DissipationModel(gap=m.gap, temperature=temp, coupling=m.coupling)
            return relaxed_bloch((1.0, 0.0, 0.0), model, dt)

        oracle = qfi_bures_oracle(family, m.temperature, fidelity=fidelity_qubit, step=1e-2)
        assert qfi_transient_plus(m, [dt])[0] == pytest.approx(oracle, rel=1e-6)

    def test_plus_reaches_equilibrium_qfi(self):
        m = default_operating_model()
        got = qfi_transient_plus(m, [60.0 * m.relaxation_time])[0]
        assert got == pytest.approx(equilibrium_qfi(m), rel=1e-12)

    def test_plus_rate_near_the_pure_preparation(self):
        # as u = dt/tau -> 0 the radial term dominates: QFI/dt -> (x/T)^2 csch^2(x) / (4 tau)
        m = default_operating_model()
        tau = m.relaxation_time
        limit = (m.ratio / m.temperature / math.sinh(m.ratio)) ** 2 / (4.0 * tau)
        for u in (1e-300, 1e-100, 1e-14):
            assert qfi_transient_plus(m, [u * tau])[0] / (u * tau) == pytest.approx(limit, rel=1e-12)

    def test_every_kernel_takes_a_sequence_and_returns_a_list(self):
        m = default_operating_model()
        for kernel in (lambda s: qfi_transient(4, math.inf, m, s), lambda s: qfi_transient_plus(m, s),
                       lambda s: qfi_harmonic_transient(m, s), lambda s: qfi_effective_two_level(s, 4, 1.0),
                       lambda s: qfi_harmonic_equilibrium(1.0, s)):
            values = kernel([1, 2, 3])
            assert type(values) is list and [type(v) for v in values] == [float] * 3
            assert kernel((1, 2, 3)) == kernel(range(1, 4)) == values
            with pytest.raises(TypeError):
                kernel(2.0)
        columns = optimal_gap([4, 5, 6], [2, 3, 4], 1.0)
        assert [type(c) for c in columns] == [list] * 3 and [len(c) for c in columns] == [3] * 3
        assert optimal_gap((4, 5, 6), (2, 3, 4), 1.0) == optimal_gap(range(4, 7), range(2, 5), 1.0) == columns
        for ns, n0s in ((4, [2]), ([4], 2), (4, 2)):
            with pytest.raises(TypeError):
                optimal_gap(ns, n0s, 1.0)
        columns = hessian_certificate([2, 3, 4])
        assert [type(c) for c in columns] == [list] * 7 and [len(c) for c in columns] == [3] * 7
        assert hessian_certificate((2, 3, 4)) == hessian_certificate(range(2, 5)) == columns
        with pytest.raises(TypeError):
            hessian_certificate(4)
        assert hessian_certificate([]) == ([],) * 7

    def test_underflowing_boltzmann_factor_gives_zero_without_warnings(self):
        # at gap/T = 800, e^{-x} underflows and every exact value with it
        m = DissipationModel(gap=800.0, temperature=1.0, coupling=1e-3)
        grid = geometric_grid(1e-3 * m.relaxation_time, 20.0 * m.relaxation_time, 50)
        for values in (qfi_transient(2, math.inf, m, grid), qfi_transient(2, math.log(7 / 3), m, grid),
                       qfi_transient_plus(m, grid), qfi_harmonic_transient(m, grid)):
            assert values == [0.0] * 50

    @pytest.mark.parametrize("x", [40.0, 100.0, 300.0])
    def test_low_temperature_tail_stays_positive(self, x):
        m = DissipationModel(gap=x, temperature=1.0, coupling=1e-3)
        grid = geometric_grid(1e-3 * m.relaxation_time, 20.0 * m.relaxation_time, 20)
        for values in (qfi_transient(4, math.inf, m, grid), qfi_transient_plus(m, grid),
                       qfi_harmonic_transient(m, grid)):
            assert all(v > 0.0 and math.isfinite(v) for v in values)

    def test_ground_rate_monotone_on_grid(self):
        m = default_operating_model()
        grid = np.array(geometric_grid(1e-3 * m.relaxation_time, 20.0 * m.relaxation_time, 50))
        rates = qfi_transient(2, math.inf, m, grid) / grid
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_thermal_rate_has_interior_grid_maximum(self):
        m = default_operating_model()
        grid = np.array(geometric_grid(1e-3 * m.relaxation_time, 20.0 * m.relaxation_time, 60))
        rates = qfi_transient(2, m.gap / 0.8, m, grid) / grid
        assert max(rates[1:-1]) > max(rates[0], rates[-1])


class TestClosedForm:
    def test_short_time_limit(self):
        m = default_operating_model()
        tau = m.relaxation_time
        dt = 1e-4 * tau
        rate = qfi_transient_closed_form_qubit(m.ratio, dt, tau, 1.0) / dt
        want = ultimate_rate(2, m.ratio, m.coupling, 1.0)
        assert rate == pytest.approx(want, rel=1e-3)

    def test_coupling_rescales_time_only(self):
        # doubling the coupling halves tau; at fixed dt/tau the QFI is unchanged
        t = 1.0
        m1 = DissipationModel(gap=3.0, temperature=t, coupling=1e-3)
        m2 = DissipationModel(gap=3.0, temperature=t, coupling=2e-3)
        assert m2.relaxation_time == pytest.approx(m1.relaxation_time / 2.0, rel=1e-14)
        u = 0.8
        f1 = qfi_transient(2, math.inf, m1, [u * m1.relaxation_time])[0]
        f2 = qfi_transient(2, math.inf, m2, [u * m2.relaxation_time])[0]
        assert f1 == pytest.approx(f2, rel=1e-10)

    def test_positive_finite_at_unit_ratio(self):
        m = default_operating_model()
        tau = m.relaxation_time
        v = qfi_transient_closed_form_qubit(X_TILDE, tau, tau, 1.0)
        assert v > 0.0 and math.isfinite(v)


class TestUltimateRate:
    def test_linear_in_excited_degeneracy(self):
        for x in (0.7, 3.0, X_TILDE):
            r2 = ultimate_rate(2, x, 1e-3, 1.0)
            r10 = ultimate_rate(10, x, 1e-3, 1.0)
            assert r10 / r2 == pytest.approx(9.0, rel=1e-14)

    def test_small_ratio_expansion(self):
        x = 1e-4
        got = ultimate_rate(3, x, 1.0, 2.0)
        assert got == pytest.approx(1.0 * 2.0 * 2.0 * x * x, rel=1e-3)

    def test_optimum_independent_of_dimension(self):
        # the peak is located as the zero of the numerically differenced rate,
        # which resolves far below the sqrt(eps) floor of value comparisons
        def argmax_rate(n):
            def slope(x):
                return central_diff(lambda xx: ultimate_rate(n, xx, 1e-3, 1.0), x, 1e-5)

            return bisect_root(slope, 4.0, 5.5)

        peaks = [argmax_rate(n) for n in (2, 4, 10)]
        assert max(peaks) - min(peaks) <= 1e-8
        assert peaks[0] == pytest.approx(optimal_interrogation_ratio(), abs=1e-7)

    def test_validation(self):
        with pytest.raises(ValueError):
            ultimate_rate(1, 1.0, 1e-3, 1.0)
        with pytest.raises(ValueError):
            ultimate_rate(2, -1.0, 1e-3, 1.0)


class TestOptimalRatio:
    def test_value(self):
        x = optimal_interrogation_ratio()
        assert x == pytest.approx(X_TILDE, abs=1e-9)
        assert x == pytest.approx(4.885, abs=5e-3)
        # defining equation
        assert math.exp(x) * (5.0 - x) == pytest.approx(5.0 + 2.0 * x, rel=1e-10)


class TestTransientScan:
    def test_standard_series_composition(self):
        rows = rows_of(cmd_transient_scan({**_DEFAULTS["transient-scan"], "points": 12}))
        labels = {(r["prep"], r["N"]) for r in rows}
        assert labels == {("ground", 2), ("ground", 4), ("ground", 10),
                          ("thermal-0.8", 2), ("thermal-0.9", 2)}
        assert len(rows) == 5 * 12
        assert all(math.isfinite(r["fisher_rate"]) and r["fisher_rate"] > 0 for r in rows)

    def test_ground_curves_ordered_by_degeneracy_at_small_dt(self):
        rows = rows_of(cmd_transient_scan({**_DEFAULTS["transient-scan"], "t_prep": [], "points": 2}))
        rates = {r["N"]: r["fisher_rate"] for r in rows if r["dt"] == rows[0]["dt"]}
        assert rates[4] / rates[2] == pytest.approx(3.0, rel=1e-3)
        assert rates[10] / rates[2] == pytest.approx(9.0, rel=1e-3)

    def test_harmonic_series(self):
        params = {**_DEFAULTS["transient-scan"], "n": [], "t_prep": [], "include_harmonic": True, "points": 5}
        rows = rows_of(cmd_transient_scan(params))
        assert all(r["N"] == "ho" and r["fisher_rate"] > 0 for r in rows)

    def test_blocks_in_order_ground_thermal_plus_harmonic(self):
        table = cmd_transient_scan({**_DEFAULTS["transient-scan"], "n": [4, 2], "t_prep": [1.7, 0.5],
                                    "include_plus": True, "include_harmonic": True, "points": 2})
        assert [block[:2] for block in table.blocks] == [
            ("ground", 4), ("ground", 2), ("thermal-1.7", 2), ("thermal-0.5", 2), ("plus", 2), ("harmonic", "ho"),
        ]
