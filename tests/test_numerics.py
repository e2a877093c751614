import math

import numpy as np
import pytest

from thermoprobe.numerics import NonFiniteState, Table, geometric_grid

from oracles import Spectrum, bisect_root, central_diff, integrate_ode, qfi_thermal, thermalize


class TestBisectRoot:
    def test_square_root_to_adjacent_doubles(self):
        root = bisect_root(lambda x: x * x - 2.0, 1.0, 2.0)
        assert abs(root - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))

    def test_decreasing_function(self):
        assert bisect_root(lambda x: 1.0 - x, 0.0, 3.0) == 1.0

    def test_no_sign_change(self):
        with pytest.raises(ValueError):
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


class TestIntegrateOde:
    def test_exponential_decay(self):
        got = integrate_ode(lambda y: -y, 1.0, 1.0, 1e-3)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_zero_rhs_exact(self):
        y0 = np.array([0.3, -0.7, 1.1])
        got = integrate_ode(lambda y: 0.0 * y, y0, 17.0, 0.25)
        assert np.array_equal(got, y0)
        assert integrate_ode(lambda y: 0.0 * y, 0.4, 3.0, 0.1) == 0.4

    def test_fourth_order_convergence(self):
        exact = math.exp(-2.0)
        err = [abs(integrate_ode(lambda y: -y, 1.0, 2.0, dt) - exact) for dt in (0.1, 0.05)]
        ratio = err[0] / err[1]
        assert 12.0 < ratio < 20.0

    def test_non_finite_state(self):
        with pytest.raises(NonFiniteState):
            integrate_ode(lambda y: y * y, 1.0, 5.0, 0.5)  # blows up before t = 5

    def test_validation(self):
        with pytest.raises(ValueError):
            integrate_ode(lambda y: -y, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_ode(lambda y: -y, 1.0, -1.0, 0.1)


class TestCentralDiff:
    def test_first_derivative_square(self):
        assert central_diff(lambda x: x * x, 3.0, 1e-3) == pytest.approx(6.0, abs=1e-10)

    def test_second_derivative_sine_at_zero(self):
        assert central_diff(math.sin, 0.0, 1e-3, order=2) == pytest.approx(0.0, abs=1e-10)

    def test_exact_on_cubics(self):
        f = lambda x: 2.0 * x**3 - x**2 + 0.5 * x - 3.0
        assert central_diff(f, 1.7, 1e-2) == pytest.approx(6.0 * 1.7**2 - 2.0 * 1.7 + 0.5, abs=1e-10)
        assert central_diff(f, -0.4, 1e-2, order=2) == pytest.approx(12.0 * -0.4 - 2.0, abs=1e-10)

    def test_vector_valued(self):
        f = lambda x: np.array([x * x, math.sin(x)])
        got = central_diff(f, 0.5, 1e-3)
        assert np.allclose(got, [1.0, math.cos(0.5)], atol=1e-10)

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            central_diff(lambda x: x, 1.0, 1e-3, order=3)

    def test_fidelity_curvature_is_minus_half_qfi(self):
        # curvature of the thermal-pair fidelity equals -QFI/2
        s = Spectrum((0.0, 1.0, 2.0))
        t0 = 1.0

        def fid(delta):
            p = np.array(thermalize(s, t0).populations)
            q = np.array(thermalize(s, t0 + delta).populations)
            return float(np.sqrt(p * q).sum() ** 2)

        curvature = central_diff(fid, 0.0, 1e-4 * t0, order=2)
        qfi = qfi_thermal(thermalize(s, t0))
        assert curvature == pytest.approx(-qfi / 2.0, rel=1e-5)


class TestGeometricGrid:
    @pytest.mark.parametrize("start, stop", [(1e-300, 1e300), (1e-300, 1e-290), (1e290, 1e300),
                                             (1e-3, 20.0), (8.43e-3, 168.6)])
    @pytest.mark.parametrize("points", [2, 200, 2000, 20000])
    def test_matches_the_exact_progression(self, start, stop, points):
        mp = pytest.importorskip("mpmath")
        grid = geometric_grid(start, stop, points)
        assert len(grid) == points and grid[0] == start and grid[-1] == stop
        with mp.workdps(40):
            ratio = (mp.mpf(stop) / start) ** (mp.mpf(1) / (points - 1))
            exact = mp.mpf(start)
            for k, value in enumerate(grid):
                assert abs(value / exact - 1) <= 1e-12, f"point {k}"
                exact *= ratio

    @pytest.mark.parametrize("points", [1, 0, -3])
    def test_fewer_than_two_points_raise(self, points):
        with pytest.raises(ValueError, match="at least 2 points"):
            geometric_grid(0.5, 2.0, points)


class TestTableGuard:
    COLUMNS = ("prep", "N", "dt", "rate")

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_list_cell_names_column_and_labels(self, bad):
        good = ("ground", 2, [1.0, 2.0], [0.5, 0.25])
        with pytest.raises(NonFiniteState, match=r"^rate is not finite at prep=thermal-0\.8, N=2$"):
            Table(self.COLUMNS, [good, ("thermal-0.8", 2, good[2], [0.5, bad])])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_scalar_cell_names_column_and_labels(self, bad):
        with pytest.raises(NonFiniteState, match=r"^N is not finite at prep=plus, N=(inf|-inf|nan)$"):
            Table(self.COLUMNS, [("plus", bad, [1.0], [0.5])])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_first_list_column_names_the_failing_row(self, bad):
        with pytest.raises(NonFiniteState, match=r"^x is not finite at N=5, label=a$"):
            Table(("N", "label", "x"), [([4, 5, 6], "a", [1.0, bad, bad])])
        with pytest.raises(NonFiniteState, match=r"^label is not finite at N=4, label=(inf|-inf|nan)$"):
            Table(("N", "label", "x"), [([4, 5, 6], bad, [1.0, 1.0, 1.0])])

    def test_non_finite_after_none_in_a_mixed_list(self):
        with pytest.raises(NonFiniteState, match=r"^x is not finite at N=3$"):
            Table(("N", "x"), [([2, 3], [None, math.nan])])

    def test_shared_list_is_named_in_its_first_block(self):
        shared = [1.0, math.inf]
        with pytest.raises(NonFiniteState, match=r"^T is not finite at N=2$"):
            Table(("N", "T"), [(2, shared), (4, shared)])

    def test_accepts_finite_values_of_every_kind(self):
        big = 2**1024 - 2**970  # rounds to 2**1024, beyond the floats
        cells = [None, "ho", True, False, -0.0, 5e-324, -1.7976931348623157e308, big, -big, np.float64(0.5)]
        table = Table(("N", "v", "w"), [(big, cells, list(range(len(cells)))), ("x", cells, [big] * len(cells)),
                                       (None, [-0.0], [5e-324])])
        assert len(table) == 2 * len(cells) + 1
