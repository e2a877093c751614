"""Every transient-scan series against exact temperature derivatives.

The oracle propagates each preparation with mpmath: matrix exponentials of
the population and Bloch-equation generators, and the thermal occupation of
the harmonic mode. Derivatives in T come from ``mpmath.diff`` at 30 + x/2
digits, x = gap/T: at large x the oracle forms small quantities, such as
1 - |r|^2, as differences of terms of order one, and at 30 digits its own
error would reach 2.6e-12 at x = 40. The operating points span x from 1e-3
to 100, and every series must match to 1e-12 at every point.

The short-interrogation limit, ``ultimate_rate`` and the ``limits`` rows,
is checked against c T (n-1) x^5 e^{2x} / (e^x - 1)^3 at 50 digits for x
from 1e-3 to 700.
"""

import pytest

from thermoprobe.cli import _DEFAULTS, cmd_limits
from thermoprobe.dynamics import DissipationModel, log_interrogation_grid, transient_scan, ultimate_rate
from thermoprobe.numerics import geometric_grid

from oracles import rows_of

mp = pytest.importorskip("mpmath")

X_TILDE = 4.888709235047135
REL_TOL = 1e-12


def _value_and_derivatives(f, t0):
    """f(t0) and d f_i / dT at t0 for a vector-valued f, one mp.diff per component."""
    cache = {}

    def component(i):
        def g(t):
            if t not in cache:
                cache[t] = f(t)
            return cache[t][i]

        return g

    value = f(t0)
    return value, [mp.diff(component(i), t0) for i in range(len(value))]


def _rates(gap, temp, gamma):
    w = mp.exp(-gap / temp)
    down = gamma * gap**3 / (1 - w)
    return down, down * w


def ladder_qfi(n, ground0, gap, gamma, temp0, dt):
    """Fisher information of the populations of an n-level ladder whose excited
    levels start equally populated.

    Equal excited populations stay equal, so the ladder lumps into a two-state
    chain (ground, all excited) with rates (n-1) up and down, propagated by
    its matrix exponential. The n-1 excited levels then contribute dE^2 / E.
    """

    def populations(temp):
        down, up = _rates(gap, temp, gamma)
        gen = mp.matrix([[-(n - 1) * up, down], [(n - 1) * up, -down]])
        v = mp.expm(gen * dt) * mp.matrix([ground0, 1 - ground0])
        return [v[0], v[1]]

    p, dp = _value_and_derivatives(populations, temp0)
    return sum(d * d / q for d, q in zip(dp, p))


def plus_qfi(gap, gamma, temp0, dt):
    """Bloch-vector QFI of the plus preparation, from the affine Bloch equations."""

    def bloch(temp):
        down, up = _rates(gap, temp, gamma)
        g = down + up
        gen = mp.matrix([
            [-g / 2, -gap, 0, 0],
            [gap, -g / 2, 0, 0],
            [0, 0, -g, -(down - up)],
            [0, 0, 0, 0],
        ])
        v = mp.expm(gen * dt) * mp.matrix([1, 0, 0, 1])
        return [v[0], v[1], v[2]]

    r, dr = _value_and_derivatives(bloch, temp0)
    radial = sum(a * b for a, b in zip(r, dr))
    return sum(d * d for d in dr) + radial**2 / (1 - sum(a * a for a in r))


def harmonic_qfi(gap, gamma, temp0, dt):
    """Vacuum-prepared oscillator: the state stays thermal with covariance c I,
    so the QFI is the Bose-Einstein Fisher information (dc)^2 / (c^2 - 1)."""
    f = mp.exp(-gamma * gap**3 * dt)

    def c(temp):
        return f + (1 - f) * mp.coth(gap / (2 * temp))

    return mp.diff(c, temp0) ** 2 / (c(temp0) ** 2 - 1)


def oracle_rate(row, gap, gamma, temp):
    dt = mp.mpf(row["dt"])
    prep = row["prep"]
    if prep == "ground":
        qfi = ladder_qfi(row["N"], 1, gap, gamma, temp, dt)
    elif prep.startswith("thermal-"):
        w = mp.exp(-gap / mp.mpf(prep.split("-", 1)[1]))
        qfi = ladder_qfi(2, 1 / (1 + w), gap, gamma, temp, dt)
    elif prep == "plus":
        qfi = plus_qfi(gap, gamma, temp, dt)
    else:
        qfi = harmonic_qfi(gap, gamma, temp, dt)
    return float(qfi / dt)


@pytest.mark.parametrize("gap, temperature, gamma, points", [
    (2e-3, 2.0, 1e-1, 4),      # the low end of the stated envelope, x = 1e-3
    (0.05, 5.0, 1e-2, 6),      # x = 0.01
    (X_TILDE, 1.0, 1e-3, 20),  # the CLI's default operating point
    (15.0, 1.6, 2e-4, 20),     # x = 9.4, in the low-temperature tail
    (20.0, 1.0, 1e-3, 6),      # a difference with step 1e-4 T misses the harmonic series by 7 %
    (40.0, 1.0, 1e-3, 6),      # plus and harmonic QFIs of order 1e-35 and 1e-17
    (50.0, 0.5, 1e-3, 4),      # the high end of the stated envelope, x = 100
])
def test_every_series_matches_exact_derivatives(gap, temperature, gamma, points):
    model = DissipationModel(gap=gap, temperature=temperature, coupling=gamma)
    grid = log_interrogation_grid(model, points=points, lo=1e-3, hi=20.0)
    rows = rows_of(transient_scan(model, grid, [2, 4, 10], [0.8], include_plus=True, include_harmonic=True))
    assert {(r["prep"], r["N"]) for r in rows} == {
        ("ground", 2), ("ground", 4), ("ground", 10), ("thermal-0.8", 2), ("plus", 2), ("harmonic", "ho"),
    }
    errors = {}
    with mp.workdps(30 + int(gap / temperature) // 2):
        args = (mp.mpf(gap), mp.mpf(gamma), mp.mpf(temperature))
        for row in rows:
            error = abs(row["fisher_rate"] / oracle_rate(row, *args) - 1.0)
            errors.setdefault((row["prep"], row["N"]), []).append(error)
    # "not e <= tol" so that a NaN error fails too
    failing = {key: bad for key, errs in errors.items() if (bad := [e for e in errs if not e <= REL_TOL])}
    assert not failing, failing


RATE_REL_TOL = 1e-15  # the worst error measured is 6.8e-16


def _rate_error(got, n, x, coupling, temperature):
    """Relative error of ``got`` against c T (n-1) x^5 e^{2x} / (e^x - 1)^3 at 50 digits."""
    with mp.workdps(50):
        x = mp.mpf(x)
        exact = mp.mpf(coupling) * mp.mpf(temperature) * (n - 1) * x**5 * mp.exp(2 * x) / (mp.exp(x) - 1) ** 3
        return float(abs(mp.mpf(got) / exact - 1))


@pytest.mark.parametrize("n", [2, 10])
@pytest.mark.parametrize("coupling, temperature", [(1e-3, 1.0), (0.37, 2.5)])
def test_ultimate_rate(n, coupling, temperature):
    errors = {x: _rate_error(ultimate_rate(n, x, coupling, temperature), n, x, coupling, temperature)
              for x in geometric_grid(1e-3, 700.0, 400)}
    failing = {x: e for x, e in errors.items() if not e <= RATE_REL_TOL}
    assert not failing, failing


def test_limits_rows_at_defaults():
    params = dict(_DEFAULTS["limits"])
    rows = rows_of(cmd_limits(params))
    assert [r["N"] for r in rows] == params["n"]
    for r in rows:
        error = _rate_error(r["rate"], r["N"], r["x_tilde"], params["gamma"], params["temperature"])
        assert error <= RATE_REL_TOL, (r, error)
