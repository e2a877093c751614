"""Precision limits of temperature estimation with individual quantum probes.

The package covers two regimes: fully thermalized probes, where the optimal
energy spectrum and the equilibrium quantum Fisher information are computed
and certified, and partly thermalized probes relaxing under a thermal
generator, where interrogation protocols are optimized over the contact time.
"""

import os
import sys

# The package's BLAS calls are too small to split, so OpenBLAS workers only
# spin; the setting counts only before numpy loads, and an exported value wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .numerics import (
    BracketedRoot,
    NegativeTime,
    NoConvergence,
    NonFiniteState,
    NoSignChange,
    QfiValue,
    StepTooSmall,
    Table,
    central_diff,
    find_root,
)
from .spectra import (
    EffectiveTwoLevelSpectrum,
    NonPositiveTemperature,
    Spectrum,
    ThermalEnsemble,
    energy_variance,
    thermalize,
)
from .equilibrium import (
    DimensionTooSmall,
    HessianCertificate,
    OptimalGapResult,
    hessian_certificate,
    optimal_gap,
    qfi_effective_two_level,
    qfi_equilibrium_scan,
    qfi_thermal,
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
    ground_diagonal,
    optimal_interrogation_ratio,
    optimize_protocol,
    plus_qubit,
    qfi_transient,
    transient_scan,
    ultimate_rate,
)
from .gaussian import (
    CovarianceMatrix,
    UnphysicalCovariance,
    evolve_covariance,
    qfi_harmonic_equilibrium,
    qfi_harmonic_transient,
    vacuum_covariance,
)

__version__ = "0.1.0"
