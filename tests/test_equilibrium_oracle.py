"""The equilibrium closed forms and the optimal-gap columns against
50-digit mpmath.

Both QFI forms are evaluated over whole grids of x = gap/T up to 3000, which
span the band h = x/2 in (355, 700] where the oscillator form overflowed
when written with sinh, and the band x > 1416.8 where e^{-x/2} is subnormal.
The oracle takes the package's own float inputs, so the only error left on
the package side is its floating-point evaluation. Where the exact value lies
below the normal range the result can carry no more than the subnormal
spacing, hence the small absolute allowance.

The two-level form is also checked at every quarter decade of x from the
smallest subnormal to 1400 and every 8 from there to 3000, at gaps from
5e-324 to 1e100 and N up to 10^15, to 1e-15 relative wherever its value is a
normal float.

The optimal-gap columns x_star, qfi_peak and variance_excess_vs_lower_n0 are
checked as the command writes them, for every (n, n0) with n <= 64 and for a
few n0 at n = 10^6 and 10^15, at temperatures down to 1e-100 and up to 1e100.
The oracle solves the gap equation itself.
"""

import functools
import math
import sys

import numpy as np
import pytest

from thermoprobe.cli import cmd_optimal_gap
from thermoprobe.equilibrium import _exp_neg, qfi_effective_two_level, qfi_harmonic_equilibrium

from oracles import rows_of

mp = pytest.importorskip("mpmath")
mp.mp.dps = 50

REL_TOL = 1e-12
ABS_TOL = 4 * math.ulp(0.0)  # a few steps of the subnormal spacing
# the whole CLI range at default settings, then densely across the old overflow band
# and the band where e^{-x/2} is subnormal
X_GRID = np.concatenate([np.geomspace(1e-3, 710.0, 200), np.linspace(710.0, 1400.0, 400)[1:],
                         np.linspace(1400.0, 3000.0, 321)[1:]])


def _assert_close(got, want, label):
    for x, g, w in zip(X_GRID, got, want):
        assert g == pytest.approx(w, rel=REL_TOL, abs=ABS_TOL), f"{label} at x={x!r}"


@pytest.mark.parametrize("n", [2, 10])
@pytest.mark.parametrize("gap", [1.0, 0.02, 37.0])
def test_effective_two_level(n, gap):
    # x^4 (n-1) e^{-x} / (gap^2 (1 + (n-1) e^{-x})^2)
    def oracle(x):
        x = mp.mpf(x)
        w = (n - 1) * mp.exp(-x)
        return float(x**4 * w / (mp.mpf(gap) ** 2 * (1 + w) ** 2))

    _assert_close(qfi_effective_two_level(X_GRID, n, gap), [oracle(x) for x in X_GRID],
                  f"N={n} gap={gap}")


@pytest.mark.parametrize("n", [2, 10, 10**6, 10**15])
@pytest.mark.parametrize("gap", [5e-324, 1e-310, 1e-300, 1e-100, 1.0, 1e100])
def test_effective_two_level_across_the_ratios(n, gap):
    # log-spaced x from the smallest subnormal to 1400, where x^2, the denominator
    # gap (1 + (n-1) e^{-x}) or the root squared may leave the normal floats
    # before the value does, then to 3000, where e^{-x/2} does; checked
    # wherever the value is a normal float
    xs = [5e-324] + [10.0 ** (k / 4) for k in range(-1293, 13)] + [1400.0 + 8.0 * k for k in range(201)]
    for x, got in zip(xs, qfi_effective_two_level(xs, n, gap)):
        w = (n - 1) * mp.exp(-mp.mpf(x))
        want = mp.mpf(x) ** 4 * w / (mp.mpf(gap) ** 2 * (1 + w) ** 2)
        if sys.float_info.min <= want <= sys.float_info.max:
            assert abs(got - want) <= 1e-15 * want, (n, gap, x)


def test_scaled_exponential():
    # e^{-y} as m 2^e, through the switch to the scaled form where e^{-y} is
    # subnormal and on to y = 1500, past the largest x/2 at which a QFI is a
    # normal float; within exp's ulp, the product's rounding and the literal's 1.5e-18
    for y in np.linspace(600.0, 1500.0, 901):
        m, e = _exp_neg(float(y))
        want = mp.exp(-mp.mpf(float(y)))
        assert abs(mp.ldexp(mp.mpf(m), e) / want - 1) <= 3.4e-16, y


@pytest.mark.parametrize("gap", [1.0, 0.02, 37.0, 1e-159])  # T^2 goes subnormal at the last
def test_harmonic(gap):
    # gap^2 / (4 T^4) csch^2(gap / 2T)
    temperatures = (gap / X_GRID).tolist()

    def oracle(t):
        t, g = mp.mpf(t), mp.mpf(gap)
        return float(g**2 / (4 * t**4) / mp.sinh(g / (2 * t)) ** 2)

    _assert_close(qfi_harmonic_equilibrium(gap, temperatures),
                  [oracle(t) for t in temperatures], f"ho gap={gap}")



GAP_REL_TOL = 1e-14
DEGENERACIES = {n: list(range(1, n)) for n in range(2, 65)}
DEGENERACIES.update({10**6: [1, 2, 3, 7, 1000], 10**15: [1, 2, 3, 7, 1000]})


@functools.cache
def exact_peak(n, n0):
    """x* and x^2 p (1 - p) at x*, the peak energy variance over T^2."""
    r = mp.mpf(n - n0) / n0
    x = mp.findroot(lambda x: (x - 2) - r * (x + 2) * mp.exp(-x), max(mp.mpf(2), mp.log(r)) + 1)
    w = r * mp.exp(-x)
    return x, x * x * w / (1 + w) ** 2


@pytest.mark.parametrize("t", [0.3, 1.0, 1.54, 1e-80, 1e77, 1e-100, 1e100, 2e-153, 1e153])
def test_optimal_gap_columns(t):
    t2 = mp.mpf(t) ** 2
    for n, degeneracies in DEGENERACIES.items():
        for row in rows_of(cmd_optimal_gap({"n": [n], "n0": degeneracies, "temperature": t})):
            n0 = row["n0"]
            x, peak = exact_peak(n, n0)
            assert row["x_star"] == pytest.approx(float(x), rel=GAP_REL_TOL, abs=0.0), f"x_star n={n} n0={n0}"
            assert row["qfi_peak"] == pytest.approx(float(peak / t2), rel=GAP_REL_TOL, abs=0.0), \
                f"qfi_peak n={n} n0={n0}"
            if n0 > 1:
                excess = (exact_peak(n, n0 - 1)[1] - peak) * t2
                assert row["variance_excess_vs_lower_n0"] == pytest.approx(float(excess), rel=GAP_REL_TOL,
                                                                           abs=0.0), f"excess n={n} n0={n0}"
