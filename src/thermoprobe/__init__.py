"""Precision limits of temperature estimation with individual quantum probes.

The package covers two regimes: fully thermalized probes, where the optimal
energy spectrum and the equilibrium quantum Fisher information are computed
and certified, and partly thermalized probes relaxing under a thermal
generator, where the QFI per unit time is traced over the contact time.
"""

from .numerics import NoConvergence, NonFiniteState, geometric_grid
from .equilibrium import (
    hessian_certificate,
    optimal_gap,
    qfi_effective_two_level,
    qfi_harmonic_equilibrium,
)
from .dynamics import (
    DissipationModel,
    optimal_interrogation_ratio,
    qfi_harmonic_transient,
    qfi_transient,
    qfi_transient_plus,
    ultimate_rate,
)

__version__ = "0.1.0"
