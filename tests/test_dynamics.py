import math

import numpy as np
import pytest

from thermoprobe.dynamics import (
    DiagonalState,
    DissipationModel,
    NegativeTime,
    QubitState,
    SingularState,
    evolve_nlevel,
    evolve_qubit,
    log_interrogation_grid,
    gibbs_diagonal,
    ground_diagonal,
    optimal_interrogation_ratio,
    plus_qubit,
    qfi_transient,
    transient_scan,
    ultimate_rate,
)
from thermoprobe.numerics import central_diff

from oracles import (
    Spectrum,
    bisect_root,
    excited_population,
    gibbs_qubit,
    ground_qubit,
    integrate_ode,
    qfi_bures_oracle,
    qfi_thermal,
    qfi_transient_closed_form_qubit,
    rate_matrix,
    rows_of,
    thermalize,
)

X_TILDE = 4.888709235047135


def default_operating_model(gamma=1e-3, temperature=1.0):
    return DissipationModel(gap=X_TILDE * temperature, temperature=temperature, coupling=gamma)


class TestDissipationModel:
    def test_rates(self):
        m = DissipationModel(gap=2.0, temperature=1.0, coupling=0.5)
        x = 2.0
        assert m.decay_rate == pytest.approx(0.5 * 8.0 / (1.0 - math.exp(-x)), rel=1e-14)
        assert m.excitation_rate == pytest.approx(m.decay_rate * math.exp(-x), rel=1e-14)
        assert 1.0 / m.relaxation_time == pytest.approx(0.5 * 8.0 / math.tanh(x / 2.0), rel=1e-14)
        # detailed-balance factors cancel in the net phase-space damping
        assert m.phase_space_damping == pytest.approx(m.decay_rate - m.excitation_rate, rel=1e-14)
        assert m.phase_space_damping == 0.5 * 8.0

    def test_validation(self):
        for bad in [dict(gap=0.0), dict(temperature=-1.0), dict(coupling=0.0)]:
            kw = dict(gap=1.0, temperature=1.0, coupling=1e-3)
            kw.update(bad)
            with pytest.raises(ValueError):
                DissipationModel(**kw)

    def test_at_temperature(self):
        m = default_operating_model()
        m2 = m.at_temperature(1.1)
        assert m2.gap == m.gap and m2.coupling == m.coupling and m2.temperature == 1.1


class TestStates:
    def test_qubit_validation(self):
        with pytest.raises(ValueError):
            QubitState((1.0, 1.0, 1.0))
        assert excited_population(ground_qubit()) == 0.0
        assert excited_population(plus_qubit()) == 0.5

    def test_diagonal_validation(self):
        with pytest.raises(ValueError):
            DiagonalState((0.5, 0.6))
        with pytest.raises(ValueError):
            DiagonalState((1.2, -0.2))
        with pytest.raises(ValueError):
            DiagonalState((1.0,))

    def test_gibbs_states(self):
        x = 1.3
        assert gibbs_qubit(x).bloch[2] == pytest.approx(-math.tanh(x / 2.0), rel=1e-14)
        g = gibbs_diagonal(4, x)
        w = math.exp(-x)
        assert g.populations[1] / g.populations[0] == pytest.approx(w, rel=1e-12)
        assert sum(g.populations) == pytest.approx(1.0, abs=1e-15)


class TestEvolveQubit:
    def test_time_zero_identity(self):
        m = default_operating_model()
        st = QubitState((0.3, -0.2, 0.4))
        assert evolve_qubit(st, m, 0.0) == st

    def test_long_time_reaches_gibbs(self):
        m = default_operating_model()
        st = evolve_qubit(plus_qubit(), m, 50.0 * m.relaxation_time)
        want = gibbs_qubit(m.ratio)
        assert excited_population(st) == pytest.approx(excited_population(want), abs=1e-10)
        assert abs(st.bloch[0]) < 1e-10 and abs(st.bloch[1]) < 1e-10

    def test_ground_preparation_population_law(self):
        m = DissipationModel(gap=2.0, temperature=1.0, coupling=1e-2)
        x, tau = m.ratio, m.relaxation_time
        for t in (0.1 * tau, tau, 3.7 * tau):
            st = evolve_qubit(ground_qubit(), m, t)
            want = (1.0 - math.exp(-t / tau)) * math.exp(-x) / (1.0 + math.exp(-x))
            assert excited_population(st) == pytest.approx(want, abs=1e-13)

    def test_rk4_cross_check(self):
        # the population sector integrated with RK4 agrees with the analytic law
        m = DissipationModel(gap=2.0, temperature=1.0, coupling=1e-2)
        tau = m.relaxation_time
        gen = rate_matrix(2, m)
        p = integrate_ode(lambda y: gen @ y, np.array([1.0, 0.0]), 2.0 * tau, tau / 200.0)
        st = evolve_qubit(ground_qubit(), m, 2.0 * tau)
        assert p[1] == pytest.approx(excited_population(st), abs=1e-8)

    def test_coherence_half_rate_decay(self):
        m = default_operating_model()
        tau = m.relaxation_time
        st = evolve_qubit(plus_qubit(), m, tau)
        amp = math.hypot(st.bloch[0], st.bloch[1])
        assert amp == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_negative_time(self):
        with pytest.raises(NegativeTime):
            evolve_qubit(ground_qubit(), default_operating_model(), -0.1)

    def test_semigroup(self):
        m = default_operating_model()
        tau = m.relaxation_time
        st = QubitState((0.5, 0.1, -0.3))
        once = evolve_qubit(st, m, 1.7 * tau)
        twice = evolve_qubit(evolve_qubit(st, m, 0.4 * tau), m, 1.3 * tau)
        assert np.allclose(once.bloch, twice.bloch, atol=1e-10)


class TestEvolveNlevel:
    def test_two_level_reduces_to_qubit(self):
        m = default_operating_model()
        for t in (0.0, 0.3 * m.relaxation_time, 5.0 * m.relaxation_time):
            diag = evolve_nlevel(ground_diagonal(2), m, t)
            qb = evolve_qubit(ground_qubit(), m, t)
            assert diag.populations[1] == pytest.approx(excited_population(qb), abs=1e-14)

    def test_symmetric_preparation_stays_symmetric(self):
        m = default_operating_model()
        prep = DiagonalState((0.6, 0.1, 0.1, 0.1, 0.1))
        st = evolve_nlevel(prep, m, 0.8 * m.relaxation_time)
        assert len(set(st.populations[1:])) == 1

    def test_asymmetric_preparation_thermalizes(self):
        m = default_operating_model()
        n = 4
        prep = DiagonalState((0.1, 0.8, 0.05, 0.05))
        st = evolve_nlevel(prep, m, 60.0 * m.relaxation_time)
        w = math.exp(-m.ratio)
        total_excited = (n - 1) * w / (1.0 + (n - 1) * w)
        assert 1.0 - st.populations[0] == pytest.approx(total_excited, abs=1e-12)
        assert np.allclose(st.populations[1:], total_excited / (n - 1), atol=1e-12)

    def test_trace_and_positivity(self):
        m = default_operating_model()
        prep = DiagonalState((0.3, 0.7, 0.0, 0.0, 0.0, 0.0))
        for t in np.linspace(0.0, 10.0 * m.relaxation_time, 17):
            st = evolve_nlevel(prep, m, t)
            assert abs(sum(st.populations) - 1.0) <= 1e-10
            assert min(st.populations) >= -1e-12

    def test_detailed_balance_fixed_point(self):
        m = default_operating_model()
        for n in (2, 5):
            gen = rate_matrix(n, m)
            gibbs = gibbs_diagonal(n, m.ratio).as_array()
            assert np.abs(gen @ gibbs).max() <= 1e-12

    def test_rk4_cross_check_multilevel(self):
        m = DissipationModel(gap=3.0, temperature=1.0, coupling=5e-3)
        n = 4
        prep = DiagonalState((0.2, 0.5, 0.2, 0.1))
        tau = m.relaxation_time
        gen = rate_matrix(n, m)
        got = integrate_ode(lambda y: gen @ y, prep.as_array(), 1.3 * tau, tau / 200.0)
        want = evolve_nlevel(prep, m, 1.3 * tau).as_array()
        assert np.abs(got - want).max() <= 1e-8


class TestTransientQfi:
    def test_matches_closed_form_across_times(self):
        m = default_operating_model()
        tau = m.relaxation_time
        for u in np.geomspace(0.01, 10.0, 12):
            got = qfi_transient(ground_diagonal(2), m, u * tau).value
            want = qfi_transient_closed_form_qubit(m.ratio, u * tau, tau, m.temperature)
            assert got == pytest.approx(want, rel=1e-5)

    def test_matches_closed_form_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            x = float(rng.uniform(1.0, 8.0))
            u = float(10.0 ** rng.uniform(-2.0, 1.0))
            m = DissipationModel(gap=x, temperature=1.0, coupling=1e-3)
            tau = m.relaxation_time
            got = qfi_transient(ground_diagonal(2), m, u * tau).value
            want = qfi_transient_closed_form_qubit(x, u * tau, tau, 1.0)
            assert got == pytest.approx(want, rel=1e-5)

    def test_coherent_path_matches_bures_oracle(self):
        # the Bloch-vector QFI formula against the fidelity-curvature oracle
        m = default_operating_model()
        dt = 0.5 * m.relaxation_time
        prep = plus_qubit()

        def family(temp):
            return evolve_qubit(prep, m.at_temperature(temp), dt)

        direct = qfi_transient(prep, m, dt).value
        oracle = qfi_bures_oracle(family, m.temperature)
        assert direct == pytest.approx(oracle, rel=1e-3)

    def test_long_time_reaches_equilibrium_qfi(self):
        m = default_operating_model()
        eq = qfi_thermal(thermalize(Spectrum((0.0, m.gap)), m.temperature)).value
        got = qfi_transient(ground_diagonal(2), m, 60.0 * m.relaxation_time).value
        assert got == pytest.approx(eq, rel=1e-8)

    def test_gibbs_preparation_is_stationary(self):
        # preparing at exactly T pins the state to the fixed point for all dt;
        # with the preparation held fixed the transient QFI rises toward the
        # equilibrium value as (1 - e^{-dt/tau})^2
        m = default_operating_model()
        tau = m.relaxation_time
        prep = gibbs_diagonal(2, m.ratio)
        eq = qfi_thermal(thermalize(Spectrum((0.0, m.gap)), m.temperature)).value
        for u in (0.2, 1.0, 7.0):
            st = evolve_nlevel(prep, m, u * tau)
            assert np.abs(st.as_array() - prep.as_array()).max() <= 1e-14
            got = qfi_transient(prep, m, u * tau).value
            assert got == pytest.approx((1.0 - math.exp(-u)) ** 2 * eq, rel=1e-5)

    def test_qubit_and_diagonal_paths_agree(self):
        m = default_operating_model()
        dt = 0.7 * m.relaxation_time
        via_qubit = qfi_transient(ground_qubit(), m, dt).value
        via_diag = qfi_transient(ground_diagonal(2), m, dt).value
        assert via_qubit == pytest.approx(via_diag, rel=1e-9)

    def test_rotation_frame_does_not_change_qfi(self):
        # the lab-frame phase is temperature independent, so removing it
        # leaves the QFI of a coherent preparation unchanged
        m = default_operating_model()
        dt = 0.4 * m.relaxation_time
        prep = plus_qubit()
        lab = qfi_transient(prep, m, dt).value

        def derotated(temp):
            st = evolve_qubit(prep, m.at_temperature(temp), dt)
            phi = -m.gap * dt
            c, s = math.cos(phi), math.sin(phi)
            rx, ry, rz = st.bloch
            return np.array([rx * c - ry * s, rx * s + ry * c, rz])

        r = derotated(m.temperature)
        dr = central_diff(derotated, m.temperature, 1e-4 * m.temperature)
        frame = float(dr @ dr) + float(r @ dr) ** 2 / (1.0 - float(r @ r))
        assert lab == pytest.approx(frame, rel=1e-9)

    def test_singular_state_guard(self):
        # a preparation marginally outside the Bloch ball (within the type's
        # roundoff tolerance) is still outside it right after a tiny dt
        m = default_operating_model()
        prep = QubitState((1.0 + 5e-13, 0.0, 0.0))
        with pytest.raises(SingularState):
            qfi_transient(prep, m, 1e-15 * m.relaxation_time)

    def test_validation(self):
        m = default_operating_model()
        with pytest.raises(ValueError):
            qfi_transient(ground_diagonal(2), m, 0.0)
        with pytest.raises(TypeError):
            qfi_transient("ground", m, 0.1)

    def test_ground_rate_monotone_on_grid(self):
        m = default_operating_model()
        grid = log_interrogation_grid(m, points=50)
        rates = [qfi_transient(ground_diagonal(2), m, dt).value / dt for dt in grid]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_thermal_rate_has_interior_grid_maximum(self):
        m = default_operating_model()
        grid = log_interrogation_grid(m, points=60)
        rates = qfi_transient(gibbs_diagonal(2, m.gap / 0.8), m, grid).value / grid
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
        f1 = qfi_transient(ground_diagonal(2), m1, u * m1.relaxation_time).value
        f2 = qfi_transient(ground_diagonal(2), m2, u * m2.relaxation_time).value
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
        m = default_operating_model()
        grid = log_interrogation_grid(m, points=12)
        rows = rows_of(transient_scan(m, grid, [2, 4, 10], [0.8, 0.9]))
        labels = {(r["prep"], r["N"]) for r in rows}
        assert labels == {("ground", 2), ("ground", 4), ("ground", 10),
                          ("thermal-0.8", 2), ("thermal-0.9", 2)}
        assert len(rows) == 5 * 12
        assert all(math.isfinite(r["fisher_rate"]) and r["fisher_rate"] > 0 for r in rows)

    def test_ground_curves_ordered_by_degeneracy_at_small_dt(self):
        m = default_operating_model()
        grid = [1e-3 * m.relaxation_time]
        rows = rows_of(transient_scan(m, grid, [2, 4, 10], []))
        rates = {r["N"]: r["fisher_rate"] for r in rows}
        assert rates[4] / rates[2] == pytest.approx(3.0, rel=1e-3)
        assert rates[10] / rates[2] == pytest.approx(9.0, rel=1e-3)

    def test_harmonic_series(self):
        m = default_operating_model()
        grid = log_interrogation_grid(m, points=5)
        rows = rows_of(transient_scan(m, grid, [], [], include_harmonic=True))
        assert all(r["N"] == "ho" and r["fisher_rate"] > 0 for r in rows)

    def test_blocks_in_order_ground_thermal_plus_harmonic(self):
        m = default_operating_model()
        table = transient_scan(m, [0.1, 0.2], [4, 2], [1.7, 0.5], include_plus=True, include_harmonic=True)
        assert [block[:2] for block in table.blocks] == [
            ("ground", 4), ("ground", 2), ("thermal-1.7", 2), ("thermal-0.5", 2), ("plus", 2), ("harmonic", "ho"),
        ]

    @pytest.mark.parametrize("t_prep", [0.0, -0.8, math.nan])
    def test_nonpositive_preparation_temperature(self, t_prep):
        m = default_operating_model()
        with pytest.raises(ValueError):
            transient_scan(m, [0.1], [2], [0.9, t_prep])
