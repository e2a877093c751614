"""Probe energy spectra and their Gibbs-state statistics.

Units: hbar = k_B = 1 throughout, so energies, temperatures and gaps share one
unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonPositiveTemperature(ValueError):
    """Gibbs states are only defined here for strictly positive temperature."""


@dataclass(frozen=True)
class Spectrum:
    """Energy eigenvalues of a finite-dimensional probe, stored ascending.

    Degenerate levels are kept explicitly (one entry per level) so that
    optimizers over general spectra see the full parameter space.
    """

    energies: tuple

    def __post_init__(self):
        energies = tuple(float(e) for e in self.energies)
        object.__setattr__(self, "energies", energies)
        if len(energies) < 2:
            raise ValueError(f"a probe needs at least 2 levels, got {len(energies)}")
        if not all(math.isfinite(e) for e in energies):
            raise ValueError("all energies must be finite")
        if any(a > b for a, b in zip(energies, energies[1:])):
            raise ValueError("energies must be sorted ascending")

    @property
    def size(self):
        return len(self.energies)

    def as_array(self):
        return np.array(self.energies)


@dataclass(frozen=True)
class EffectiveTwoLevelSpectrum:
    """Spectrum with only two distinct energies: n0 levels at 0, n - n0 at gap."""

    gap: float
    n: int
    n0: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.gap) and self.gap > 0):
            raise ValueError(f"gap must be positive and finite, got {self.gap}")
        if self.n < 2:
            raise ValueError(f"need n >= 2 levels, got {self.n}")
        if not 1 <= self.n0 <= self.n - 1:
            raise ValueError(f"ground degeneracy n0={self.n0} must lie in [1, {self.n - 1}]")

    def expand(self):
        return Spectrum((0.0,) * self.n0 + (self.gap,) * (self.n - self.n0))


@dataclass(frozen=True)
class ThermalEnsemble:
    """A spectrum at thermal equilibrium: Gibbs populations and log partition sum."""

    spectrum: Spectrum
    temperature: float
    populations: tuple
    log_partition: float

    def population_array(self):
        return np.array(self.populations)


def thermalize(spectrum, temperature):
    """Gibbs state of ``spectrum`` at ``temperature``.

    Energies are shifted by the ground energy before exponentiating, which
    keeps every Boltzmann weight in [0, 1] and leaves populations unchanged
    (Gibbs weights are shift invariant). Large-gap regimes then degrade
    gracefully instead of overflowing.
    """
    if not (math.isfinite(temperature) and temperature > 0):
        raise NonPositiveTemperature(f"temperature must be positive, got {temperature}")
    eps = spectrum.as_array()
    ground = eps[0]
    weights = np.exp(-(eps - ground) / temperature)
    scale = float(weights.sum())
    populations = weights / scale
    log_partition = math.log(scale) - ground / temperature
    return ThermalEnsemble(
        spectrum=spectrum,
        temperature=float(temperature),
        populations=tuple(float(p) for p in populations),
        log_partition=log_partition,
    )


def energy_variance(ensemble):
    """Equilibrium energy variance <H^2> - <H>^2, computed in centered form."""
    eps = ensemble.spectrum.as_array()
    p = ensemble.population_array()
    mu = float(np.dot(p, eps))
    return max(float(np.dot(p, (eps - mu) ** 2)), 0.0)
