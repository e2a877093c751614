"""The two equilibrium closed forms against 50-digit mpmath.

Both forms are evaluated over whole grids of x = gap/T up to 1400, which
spans the band h = x/2 in (355, 700] where the oscillator form overflowed
when written with sinh. The oracle takes the package's own float inputs, so
the only error left on the package side is its floating-point evaluation.
Where the exact value lies below the normal range the result can carry no
more than the subnormal spacing, hence the small absolute allowance.
"""

import math

import numpy as np
import pytest

from thermoprobe.equilibrium import qfi_effective_two_level
from thermoprobe.gaussian import qfi_harmonic_equilibrium

mp = pytest.importorskip("mpmath")
mp.mp.dps = 50

REL_TOL = 1e-12
ABS_TOL = 4 * math.ulp(0.0)  # a few steps of the subnormal spacing
# the whole CLI range at default settings, then densely across the old overflow band
X_GRID = np.concatenate([np.geomspace(1e-3, 710.0, 200), np.linspace(710.0, 1400.0, 400)[1:]])


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


@pytest.mark.parametrize("gap", [1.0, 0.02, 37.0])
def test_harmonic(gap):
    # gap^2 / (4 T^4) csch^2(gap / 2T)
    temperatures = gap / X_GRID

    def oracle(t):
        t, g = mp.mpf(t), mp.mpf(gap)
        return float(g**2 / (4 * t**4) / mp.sinh(g / (2 * t)) ** 2)

    _assert_close(qfi_harmonic_equilibrium(gap, temperatures).value,
                  [oracle(t) for t in temperatures], f"ho gap={gap}")

