"""Precision limits of temperature estimation with individual quantum probes.

The package covers two regimes: fully thermalized probes, where the optimal
energy spectrum and the equilibrium quantum Fisher information are computed
and certified, and partly thermalized probes relaxing under a thermal
generator, where interrogation protocols are optimized over the contact time.
"""

from .numerics import (
    BracketedRoot,
    NegativeTime,
    NoConvergence,
    NonFiniteState,
    NoSignChange,
    QfiValue,
    StepTooSmall,
    central_diff,
    find_root,
)
from .spectra import (
    EffectiveTwoLevelSpectrum,
    NonPositiveTemperature,
    Spectrum,
    ThermalEnsemble,
    energy_variance,
    heat_capacity,
    mean_energy,
    thermalize,
)
from .equilibrium import (
    DimensionTooSmall,
    HessianCertificate,
    OptimalGapResult,
    full_width_half_max,
    hessian_certificate,
    optimal_gap,
    qfi_bures_oracle,
    qfi_effective_two_level,
    qfi_equilibrium_scan,
    qfi_thermal,
    stationarity_residual,
    thermal_population_family,
)
from .dynamics import (
    DiagonalState,
    DissipationModel,
    ProtocolOptimum,
    QubitState,
    SingularState,
    evolve_nlevel,
    evolve_qubit,
    log_interrogation_grid,
    gibbs_diagonal,
    gibbs_qubit,
    ground_diagonal,
    ground_qubit,
    optimal_interrogation_ratio,
    optimize_protocol,
    plus_qubit,
    qfi_transient,
    qfi_transient_closed_form_qubit,
    transient_scan,
    ultimate_rate,
)
from .gaussian import (
    CovarianceMatrix,
    UnphysicalCovariance,
    evolve_covariance,
    fidelity_gaussian,
    qfi_harmonic_equilibrium,
    qfi_harmonic_transient,
    squeezed_covariance,
    thermal_covariance,
    thermal_covariance_family,
    vacuum_covariance,
)

__version__ = "0.1.0"
