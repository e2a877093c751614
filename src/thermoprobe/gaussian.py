"""Single-mode Gaussian probes: covariance matrices in the vacuum = identity
convention, the closed-form equilibrium QFI of a harmonic probe, dissipative
phase-space evolution, and the transient QFI of isotropic (ground or thermal)
preparations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import NegativeTime, QfiValue, central_diff


class UnphysicalCovariance(ValueError):
    """Covariance matrix violates the uncertainty bound det >= 1."""


@dataclass(frozen=True)
class CovarianceMatrix:
    """2x2 second-moment matrix of a single mode, vacuum normalized to identity."""

    xx: float
    xp: float
    pp: float

    def __post_init__(self):
        vals = (self.xx, self.xp, self.pp)
        if not all(math.isfinite(v) for v in vals):
            raise UnphysicalCovariance(f"entries must be finite, got {vals}")
        if self.xx <= 0.0 or self.pp <= 0.0 or self.determinant < 1.0 - 1e-10:
            raise UnphysicalCovariance(
                f"matrix [[{self.xx}, {self.xp}], [{self.xp}, {self.pp}]] is below the vacuum limit"
            )

    @property
    def determinant(self):
        return self.xx * self.pp - self.xp * self.xp

    @property
    def is_isotropic(self):
        return self.xp == 0.0 and abs(self.xx - self.pp) <= 1e-14 * abs(self.xx)


def vacuum_covariance():
    return CovarianceMatrix(1.0, 0.0, 1.0)


def qfi_harmonic_equilibrium(gap, temperature):
    """Equilibrium QFI of a thermalized harmonic probe, gap^2 / (4 T^4) *
    csch^2(h) with h = gap / 2T. ``temperature`` may be an array; the value is
    then an array over it.

    csch^2(h) is written 4 e^{-2h} / expm1(-2h)^2 and the whole form as the
    square (gap e^{-h} / (T^2 expm1(-2h)))^2: nothing overflows at large h,
    and no factor goes subnormal before the result does (e^{-h} stays normal
    up to h = 700).
    """
    t = np.asarray(temperature, dtype=float)
    if gap <= 0 or np.any(t <= 0):
        raise ValueError("gap and temperature must be positive")
    half = gap / (2.0 * t)
    value = (gap * np.exp(-half) / (t * t * np.expm1(-2.0 * half))) ** 2
    return QfiValue(value=value)


def evolve_covariance(sigma0, model, t):
    """Relax a covariance matrix toward the thermal one for time ``t``.

    The second moments interpolate exponentially at the net phase-space
    damping rate (downward minus upward rate), which for this coupling is
    coupling * gap^3.

    A scalar ``t`` gives a CovarianceMatrix; an array ``t`` gives the entries
    (xx, xp, pp) as an array of shape t.shape + (3,).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise NegativeTime(f"t must be nonnegative, got {np.min(t)}")
    f = np.exp(-model.phase_space_damping * t)
    c = 1.0 / math.tanh(model.ratio / 2.0)
    entries = np.stack(
        [f * sigma0.xx + (1.0 - f) * c, f * sigma0.xp, f * sigma0.pp + (1.0 - f) * c], axis=-1
    )
    return CovarianceMatrix(*entries.tolist()) if t.ndim == 0 else entries


def _thermal_weight(c):
    # Boltzmann factor of the occupation distribution for an isotropic matrix c*I
    return (c - 1.0) / (c + 1.0)


def _isotropic_fidelity_deficit(c1, c2):
    """1 - F for isotropic covariances c1*I, c2*I, accumulated without
    cancellation: (sqrt(w1) - sqrt(w2))^2 / (1 - sqrt(w1 w2))^2 in terms of
    the thermal weights w_i."""
    s1 = np.sqrt(_thermal_weight(c1))
    s2 = np.sqrt(_thermal_weight(c2))
    return (s1 - s2) ** 2 / (1.0 - s1 * s2) ** 2


def qfi_harmonic_transient(sigma0, model, dt):
    """QFI of an isotropic Gaussian probe after thermal contact of length ``dt``.

    The state stays isotropic, c(t) times the identity, so its Uhlmann
    fidelity with the state at a nearby temperature is 1 minus a deficit
    accumulated without cancellation. The deficit's curvature across the
    temperature family is a Richardson central difference with step 1e-4 * T.
    ``dt`` may be an array of contact times: the value is then an array over
    it, and one central difference covers the whole grid.

    Raises:
        ValueError: if ``sigma0`` is not isotropic or a contact time is not
            positive.
    """
    if not sigma0.is_isotropic:
        raise ValueError(f"preparation must be isotropic, got {sigma0}")
    dts = np.atleast_1d(np.asarray(dt, dtype=float))
    if not np.all(dts > 0.0):
        raise ValueError(f"dt must be positive, got {np.min(dts)}")
    t0 = model.temperature

    def scale_at(delta):
        return evolve_covariance(sigma0, model.at_temperature(t0 + delta), dts)[..., 0]

    base = scale_at(0.0)

    def deficit(delta):
        return _isotropic_fidelity_deficit(base, scale_at(delta))

    # F = 1 - deficit with deficit(0) = deficit'(0) = 0, so QFI = 2 deficit''(0)
    value = np.maximum(2.0 * central_diff(deficit, 0.0, 1e-4 * t0, order=2), 0.0)
    return QfiValue(value=float(value[0]) if np.ndim(dt) == 0 else value)
