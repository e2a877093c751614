import math

import numpy as np
import pytest

from thermoprobe.numerics import (
    BracketedRoot,
    NoConvergence,
    NonFiniteState,
    NoSignChange,
    StepTooSmall,
    central_diff,
    find_root,
)

from oracles import integrate_ode


def bisect(f, a, b, tol=1e-14):
    """Plain bisection, the independent oracle for Brent results."""
    fa, fb = f(a), f(b)
    assert fa * fb < 0
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = f(m)
        if fa * fm <= 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
        if b - a < tol:
            break
    return 0.5 * (a + b)


class TestFindRoot:
    def test_linear(self):
        res = find_root(lambda x: x - 1.0, 0.0, 2.0, tol=1e-12)
        assert res.root == pytest.approx(1.0, abs=1e-12)
        assert res.lo < res.root < res.hi
        assert abs(res.residual) <= 1e-12

    def test_gap_equation_vs_bisection(self):
        f = lambda x: math.exp(x) - (x + 2.0) / (x - 2.0)
        oracle = bisect(f, 2.01, 10.0)
        res = find_root(f, 2.01, 10.0, tol=1e-10)
        assert res.root == pytest.approx(oracle, abs=1e-10)
        assert res.root == pytest.approx(2.3994, abs=5e-4)

    def test_rate_optimum_equation_vs_bisection(self):
        # x = 0 also solves this equation; the bracket excludes it
        f = lambda x: math.exp(x) * (5.0 - x) - (5.0 + 2.0 * x)
        oracle = bisect(f, 0.1, 4.999)
        res = find_root(f, 0.1, 4.999, tol=1e-10)
        assert res.root == pytest.approx(oracle, abs=1e-9)
        assert res.root == pytest.approx(4.885, abs=5e-3)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0, tol=1e-8)

    def test_no_convergence_on_impossible_tolerance(self):
        # sqrt(2) is not representable, so |f| can never reach 1e-30
        with pytest.raises(NoConvergence):
            find_root(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-30)

    def test_deterministic(self):
        f = lambda x: math.exp(x) - (x + 2.0) / (x - 2.0)
        a = find_root(f, 2.01, 10.0, tol=1e-12)
        b = find_root(f, 2.01, 10.0, tol=1e-12)
        assert a == b  # bit-identical dataclass contents

    def test_bracket_contains_root_strictly(self):
        res = find_root(math.sin, 2.0, 4.0, tol=1e-13)
        assert isinstance(res, BracketedRoot)
        assert res.lo < res.root < res.hi
        assert res.hi - res.lo <= 1e-12


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

    def test_step_too_small(self):
        with pytest.raises(StepTooSmall):
            central_diff(lambda x: x, 1.0, 1e-14)
        with pytest.raises(StepTooSmall):
            central_diff(lambda x: x, 1.0, -1e-3)

    def test_fidelity_curvature_is_minus_half_qfi(self):
        # curvature of the thermal-pair fidelity equals -QFI/2
        from thermoprobe.spectra import Spectrum, thermalize
        from thermoprobe.equilibrium import qfi_thermal

        s = Spectrum((0.0, 1.0, 2.0))
        t0 = 1.0

        def fid(delta):
            p = np.array(thermalize(s, t0).populations)
            q = np.array(thermalize(s, t0 + delta).populations)
            return float(np.sqrt(p * q).sum() ** 2)

        curvature = central_diff(fid, 0.0, 1e-4 * t0, order=2)
        qfi = qfi_thermal(thermalize(s, t0)).value
        assert curvature == pytest.approx(-qfi / 2.0, rel=1e-5)
