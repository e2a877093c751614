"""Independent oracles for the relaxation dynamics, used only by the tests: a
fixed-step RK4 integrator and the population generator of the n-level ladder.
The package evolves populations in closed form; these integrate the master
equation instead.
"""

import math

import numpy as np

from thermoprobe.numerics import NonFiniteState


def integrate_ode(rhs, y0, t_end, dt):
    """Integrate ``y' = rhs(y)`` from 0 to ``t_end`` with classic fixed-step RK4.

    The step is ``t_end / ceil(t_end / dt)`` so the endpoint is hit exactly.
    Accepts scalar or array states and returns the same kind.

    Raises:
        NonFiniteState: if any state component becomes non-finite.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < 0.0:
        raise ValueError(f"t_end must be nonnegative, got {t_end}")
    scalar = np.ndim(y0) == 0
    y = np.array(y0, dtype=float, copy=True, ndmin=1)
    if t_end > 0.0:
        nsteps = max(1, math.ceil(t_end / dt))
        h = t_end / nsteps
        # overflow is detected via the isfinite check, not numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(nsteps):
                k1 = np.asarray(rhs(y))
                k2 = np.asarray(rhs(y + 0.5 * h * k1))
                k3 = np.asarray(rhs(y + 0.5 * h * k2))
                k4 = np.asarray(rhs(y + h * k3))
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if not np.all(np.isfinite(y)):
                    raise NonFiniteState(f"state became non-finite during integration to t={t_end}")
    return float(y[0]) if scalar else y


def rate_matrix(n, model):
    """Population generator L with dp/dt = L p for the n-level ladder.

    Each excited level exchanges population with the ground level only, all at
    the same transition frequency. The Gibbs vector is a null vector of L.
    """
    down = model.decay_rate
    up = model.excitation_rate
    gen = np.zeros((n, n))
    gen[0, 0] = -(n - 1) * up
    gen[0, 1:] = down
    gen[1:, 0] = up
    np.fill_diagonal(gen[1:, 1:], -down)
    return gen
