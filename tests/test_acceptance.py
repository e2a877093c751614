"""End-to-end acceptance gate.

Each test exercises one numbered criterion at its stated tolerance and prints
one PASS/FAIL line (visible with `pytest tests/test_acceptance.py -v -s`).
Oracles are independent of the code paths they check: bisection for roots,
RK4 integration plus finite differences for transient sensitivities, and a
truncated number-basis computation for Gaussian fidelities.
"""

import math
import time

import numpy as np
import pytest

from thermoprobe.dynamics import (
    DissipationModel,
    optimal_interrogation_ratio,
    qfi_harmonic_transient,
    qfi_transient,
    qfi_transient_plus,
    ultimate_rate,
)
from thermoprobe.equilibrium import (
    hessian_blocks,
    hessian_certificate,
    optimal_gap,
    qfi_effective_two_level,
)
from thermoprobe.numerics import geometric_grid

from oracles import (
    Spectrum,
    bisect_root,
    central_diff,
    fidelity_gaussian,
    full_width_half_max,
    integrate_ode,
    qfi_bures_oracle,
    qfi_thermal,
    qfi_transient_closed_form_qubit,
    rate_matrix,
    thermal_covariance,
    thermalize,
)

X_TILDE_ORACLE = 4.888709235047135  # bisection on e^x (5 - x) = 5 + 2x, frozen


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)


def test_criterion_01_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        spectrum = Spectrum(tuple(sorted(rng.uniform(0.0, 5.0, n))))
        temp = float(rng.uniform(0.2, 5.0))
        fidelity_path = qfi_bures_oracle(spectrum, temp)
        variance_path = qfi_thermal(thermalize(spectrum, temp))
        worst = max(worst, abs(fidelity_path / variance_path - 1.0))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-5 and elapsed < 5.0
    report(1, "fidelity-curvature QFI matches variance form", ok,
           f"worst rel {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-5
    assert elapsed < 5.0


def test_criterion_02_optimal_gap_and_brute_force():
    start = time.monotonic()
    x_star = float(optimal_gap([2], [1], 1.0)[0][0])
    residual = abs(math.exp(x_star) - (x_star + 2.0) / (x_star - 2.0))
    xs = np.linspace(0.05, 12.0, 100000)
    ex = np.exp(xs)
    variance = xs * xs * ex / (1.0 + ex) ** 2  # units of T^2
    grid_argmax = xs[int(np.argmax(variance))]
    spacing = xs[1] - xs[0]
    elapsed = time.monotonic() - start
    ok = residual < 1e-10 and abs(grid_argmax - x_star) <= spacing and elapsed < 1.0
    report(2, "two-level gap equation and brute-force maximum", ok,
           f"residual {residual:.2e}, |grid - root| {abs(grid_argmax - x_star):.2e}, {elapsed:.2f}s")
    assert residual < 1e-10
    assert abs(grid_argmax - x_star) <= spacing
    assert elapsed < 1.0


def test_criterion_03_degeneracy_ordering():
    temp = 1.0
    worst_gap = math.inf
    worst_identity = 0.0
    for n in range(3, 11):
        for n0 in range(2, n):
            [x_low], [qfi_low], _ = optimal_gap([n], [n0 - 1], temp)
            [x_high], [qfi_high], _ = optimal_gap([n], [n0], temp)
            diff = (qfi_low - qfi_high) * temp**4
            want = temp * temp * (x_low**2 - x_high**2) / 4.0
            worst_gap = min(worst_gap, diff)
            worst_identity = max(worst_identity, abs(diff - want))
    ok = worst_gap > 0.0 and worst_identity <= 1e-9
    report(3, "lower ground degeneracy strictly wins", ok,
           f"min diff {worst_gap:.3e}, identity err {worst_identity:.2e}")
    assert worst_gap > 0.0
    assert worst_identity <= 1e-9


def test_criterion_04_hessian_certification():
    worst_eig = 0.0
    dims = list(range(2, 21))
    _, _, _, _, errors, residuals, _ = hessian_certificate(dims)
    for n, error, residual in zip(dims, errors, residuals):
        _, (_, b, _, d), (low, high) = hessian_blocks(n)
        eigenvalues = [low, high] + [b - d] * (n - 2)
        worst_eig = max(worst_eig, error)
        zero_modes = [v for v in eigenvalues if abs(v) <= 1e-8]
        assert len(zero_modes) == 1, f"n={n}: expected a single zero mode"
        assert residual <= 1e-8, f"n={n}: all-ones vector is not annihilated"
        assert max(eigenvalues) <= 1e-8
    ok = worst_eig <= 1e-8
    report(4, "Hessian eigenvalues match the analytic list", ok, f"worst {worst_eig:.2e}")
    assert ok


def test_criterion_05_equilibrium_curve_properties():
    gap = 1.0
    temps = np.linspace(0.02, 2.0, 20001)
    xs = gap / temps
    curves = {n: np.array(qfi_effective_two_level(xs, n, gap)) for n in (2, 4, 6, 8, 10)}
    harmonic = np.array([gap**2 / (4.0 * t**4) / math.sinh(gap / (2 * t)) ** 2 for t in temps])

    peaks = [curves[n].max() for n in (2, 4, 6, 8, 10)]
    increasing = all(a < b for a, b in zip(peaks, peaks[1:]))

    width_two = full_width_half_max(temps, curves[2] / curves[2].max())
    width_ten = full_width_half_max(temps, curves[10] / curves[10].max())
    narrower = width_ten < width_two

    # The harmonic probe is outperformed at the peak by every optimized probe
    # with n >= 4; the n = 2 curve sits below the harmonic one pointwise
    # (their ratio is exactly tanh^2(x/2) < 1), so it is checked as the
    # documented exception rather than pretending otherwise.
    ho_peak = harmonic.max()
    beaten_at_peak = all(ho_peak < curves[n].max() for n in (4, 6, 8, 10))
    exceeds_off_peak = all((harmonic > curves[n]).any() for n in (2, 4, 6, 8, 10))
    qubit_exception = ho_peak > curves[2].max()

    ok = increasing and narrower and beaten_at_peak and exceeds_off_peak and qubit_exception
    report(5, "equilibrium curve shapes", ok,
           f"peaks increasing {increasing}, width(10) {width_ten:.3f} < width(2) {width_two:.3f}, "
           f"harmonic beaten for n>=4 {beaten_at_peak}")
    assert increasing
    assert narrower
    assert beaten_at_peak
    assert exceeds_off_peak
    assert qubit_exception


def test_criterion_06_transient_closed_form_vs_integrated_dynamics():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    temp = 1.0
    gamma = 1e-3
    worst = 0.0
    for _ in range(50):
        x = float(rng.uniform(1.0, 8.0))
        u = float(10.0 ** rng.uniform(math.log10(0.01), math.log10(10.0)))
        model = DissipationModel(gap=x * temp, temperature=temp, coupling=gamma)
        tau = model.relaxation_time
        dt = u * tau

        def excited_population(sample_temp):
            sample = DissipationModel(gap=model.gap, temperature=sample_temp, coupling=model.coupling)
            gen = rate_matrix(2, sample)
            final = integrate_ode(lambda p: gen @ p, np.array([1.0, 0.0]), dt, tau / 200.0)
            return float(final[1])

        p = excited_population(temp)
        dp = central_diff(excited_population, temp, 1e-4 * temp)
        integrated = dp * dp / (p * (1.0 - p))
        closed = qfi_transient_closed_form_qubit(x, dt, tau, temp)
        worst = max(worst, abs(integrated / closed - 1.0))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-5 and elapsed < 10.0
    report(6, "integrated dynamics reproduce the closed form", ok,
           f"worst rel {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-5
    assert elapsed < 10.0


def test_criterion_07_short_time_limit():
    temp, gamma = 1.0, 1e-3
    x = optimal_interrogation_ratio()
    model = DissipationModel(gap=x * temp, temperature=temp, coupling=gamma)
    dt = 1e-4 * model.relaxation_time
    worst = 0.0
    for n in (2, 4, 10):
        rate = qfi_transient(n, math.inf, model, [dt])[0] / dt
        want = ultimate_rate(n, x, gamma, temp)
        worst = max(worst, abs(rate / want - 1.0))
    ok = worst <= 1e-3
    report(7, "short-interrogation limit", ok, f"worst rel {worst:.2e}")
    assert ok


def test_criterion_08_optimal_ratio():
    root = bisect_root(lambda x: math.exp(x) * (5.0 - x) - (5.0 + 2.0 * x), 0.1, 4.999)
    literal_is_root = abs(optimal_interrogation_ratio() - root) <= math.ulp(root)
    near_oracle = abs(root - X_TILDE_ORACLE) <= 1e-9
    near_quoted = abs(root - 4.885) <= 5e-3

    def refined_argmax(n):
        xs = np.linspace(3.0, 6.0, 100000)
        rates = np.array([ultimate_rate(n, x, 1e-3, 1.0) for x in xs])
        i = int(np.argmax(rates))

        def slope(x):
            return central_diff(lambda xx: ultimate_rate(n, xx, 1e-3, 1.0), x, 1e-5)

        return bisect_root(slope, xs[max(i - 2, 0)], xs[min(i + 2, len(xs) - 1)])

    argmaxes = [refined_argmax(n) for n in (2, 4, 10)]
    matches_root = max(abs(a - root) for a in argmaxes) <= 1e-6
    dimension_free = max(argmaxes) - min(argmaxes) <= 1e-9
    ok = literal_is_root and near_oracle and near_quoted and matches_root and dimension_free
    report(8, "optimal interrogation ratio", ok,
           f"root {root:.10f}, argmax spread {max(argmaxes) - min(argmaxes):.1e}")
    assert literal_is_root
    assert near_oracle
    assert near_quoted
    assert matches_root
    assert dimension_free


def test_criterion_08_ratio_is_correctly_rounded():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        exact = mp.findroot(lambda x: mp.exp(x) * (5 - x) - (5 + 2 * x), 4.9)
    assert optimal_interrogation_ratio() == float(exact)


def test_criterion_09_preparation_dominance():
    temp, gamma = 1.0, 1e-3
    x = optimal_interrogation_ratio()
    model = DissipationModel(gap=x * temp, temperature=temp, coupling=gamma)
    grid = np.array(geometric_grid(1e-3 * model.relaxation_time, 20.0 * model.relaxation_time, 200))
    ground = qfi_transient(2, math.inf, model, grid) / grid
    curves = {}
    for t_prep in (0.8, 0.9):
        curves[t_prep] = qfi_transient(2, model.gap / t_prep, model, grid) / grid
    plus = qfi_transient_plus(model, grid) / grid

    dominates = all((ground > curves[t]).all() for t in (0.8, 0.9)) and (ground > plus).all()
    interior = all(0 < int(np.argmax(curves[t])) < len(grid) - 1 for t in (0.8, 0.9))
    ok = dominates and interior
    report(9, "ground preparation dominates at the optimal ratio", ok,
           f"dominates {dominates}, thermal maxima interior {interior}")
    assert dominates
    assert interior


def test_criterion_10_harmonic_qubit_equivalence():
    temp, gamma = 1.0, 1e-3
    x = optimal_interrogation_ratio()
    model = DissipationModel(gap=x * temp, temperature=temp, coupling=gamma)

    dt_limit = 1e-4 / model.decay_rate
    limit_rate = qfi_harmonic_transient(model, [dt_limit])[0] / dt_limit
    limit_dev = abs(limit_rate / ultimate_rate(2, x, gamma, temp) - 1.0)

    grid = np.geomspace(0.01 / model.decay_rate, 5.0 / model.decay_rate, 200)
    tau = model.relaxation_time
    worst_curve = 0.0
    for dt in grid:
        harmonic = qfi_harmonic_transient(model, [dt])[0] / dt
        qubit = qfi_transient_closed_form_qubit(x, dt, tau, temp) / dt
        worst_curve = max(worst_curve, abs(harmonic / qubit - 1.0))
    ok = limit_dev <= 1e-3 and worst_curve <= 0.02
    report(10, "harmonic probe mirrors the qubit", ok,
           f"limit dev {limit_dev:.2e}, max curve dev {worst_curve:.4f} vs 0.02 allowed")
    assert limit_dev <= 1e-3
    # The curve deviation grows monotonically toward the equilibrium gap
    # coth^2(x/2) - 1 = 3.06e-2 at this operating ratio, so the 2% bound is
    # not attainable over the stated span; the assertion is kept as specified.
    assert worst_curve <= 0.02


def test_criterion_11_gaussian_fidelity_against_number_basis():
    rng = np.random.default_rng(6)
    levels = np.arange(200)
    worst = 0.0
    for _ in range(50):
        x1, x2 = (float(v) for v in rng.uniform(0.2, 6.0, 2))
        got = fidelity_gaussian(thermal_covariance(1.0, 1.0 / x1), thermal_covariance(1.0, 1.0 / x2))
        w1, w2 = math.exp(-x1), math.exp(-x2)
        p = (1.0 - w1) * w1**levels
        q = (1.0 - w2) * w2**levels
        oracle = float(np.sqrt(p * q).sum() ** 2)
        worst = max(worst, abs(got - oracle))
    ok = worst <= 1e-8
    report(11, "Gaussian fidelity matches truncated number basis", ok, f"worst abs {worst:.2e}")
    assert ok
