"""Every transient-scan series against exact temperature derivatives.

The oracle propagates each preparation with mpmath: matrix exponentials of
the population and Bloch-equation generators, and the thermal occupation of
the harmonic mode. Derivatives in T come from ``mpmath.diff`` at 30 digits,
so the only error left on the package side is its Richardson difference.
"""

import pytest

from thermoprobe.dynamics import DissipationModel, log_interrogation_grid, transient_scan

from oracles import rows_of

mp = pytest.importorskip("mpmath")

X_TILDE = 4.888709235047135
REL_TOL = 1e-5  # acceptance criterion 06's tolerance


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


@pytest.mark.parametrize("gap, temperature, gamma", [
    (X_TILDE, 1.0, 1e-3),  # the CLI's default operating point
    (15.0, 1.6, 2e-4),     # deep in the low-temperature tail, where plus is hardest
])
def test_every_series_matches_exact_derivatives(gap, temperature, gamma):
    model = DissipationModel(gap=gap, temperature=temperature, coupling=gamma)
    grid = log_interrogation_grid(model, points=20, lo=1e-3, hi=20.0)
    rows = rows_of(transient_scan(["ground", "thermal:0.8", "plus", "harmonic"], [2, 4, 10], model, grid))
    assert {(r["prep"], r["N"]) for r in rows} == {
        ("ground", 2), ("ground", 4), ("ground", 10), ("thermal-0.8", 2), ("plus", 2), ("harmonic", "ho"),
    }
    errors = {}
    with mp.workdps(30):
        args = (mp.mpf(gap), mp.mpf(gamma), mp.mpf(temperature))
        for row in rows:
            error = abs(row["fisher_rate"] / oracle_rate(row, *args) - 1.0)
            errors.setdefault((row["prep"], row["N"]), []).append(error)
    # "not e <= tol" so that a NaN error fails too
    failing = {key: bad for key, errs in errors.items() if (bad := [e for e in errs if not e <= REL_TOL])}
    assert not failing, failing
