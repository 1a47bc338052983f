"""Numerical laboratory for finite-volume classical gases.

The pipeline runs from a pair potential to certified spectral data:

1. `potentials` defines the interaction and its regularity diagnostics.
2. `integrals` evaluates configuration integrals Z_m over a box, exactly
   where a closed form exists and by quadrature or scrambled Sobol sampling
   otherwise, with per-entry error estimates and a JSON cache.
3. `partition` assembles the grand-canonical polynomial, finds all its
   zeros with extended-precision safeguards, and certifies the smallest
   one (simplicity, gap, conditioning).
4. `ksop` realizes the finite truncation of the associated transfer
   operator as a companion matrix and measures the residual of the
   integral-equation system it solves.
5. `spectral` extracts the leading eigenvalue, its Riesz projection,
   the reduced resolvent, certified nilpotent defect and pole order,
   power-iteration convergence, and correlation-ray asymptotics.
6. `cluster` handles activity and virial expansions in exact rationals:
   log-series, thermodynamic-limit extrapolation, radius estimates, the
   virial series by Lagrange inversion, bound checks, and claim tables.
7. `oracles` provides exactly solvable references (hard rods on a
   segment, ideal gas) every numerical path is tested against.

`cli` exposes the whole chain as the `kslab` command.
"""

from .cluster import (BoundReport, RadiusEstimate, claim_row, density_bound_check,
                      density_coefficients_extrapolated, density_series, log_series,
                      radius_estimate, richardson, sign_pattern, virial_reversion)
from .errors import (BranchError, ConfigError, ContourError, Degenerate,
                     InsufficientData, KslabError, MissingPrerequisite,
                     NearPole, NotRegular, NumericalError, UseSampling)
from .integrals import Box, IntegralTable, anchored_integral, build_table
from .ksop import KSMatrix, apply_ks_function, build_ks_matrix, ks_residual
from .oracles import IdealModel, TonksModel
from .partition import (PartitionPolynomial, SmallestZero, ZeroSet, assemble,
                        evaluate, smallest_zero, zeros)
from .potentials import PairPotential, regularity_C
from .spectral import (AsymptoticsResult, RieszResult, Spectrum,
                       coefficient_asymptotics, leading_asymptotics,
                       leading_projection, power_convergence, spectrum)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticsResult", "BoundReport", "Box", "BranchError", "ConfigError",
    "ContourError", "Degenerate", "IdealModel", "InsufficientData",
    "IntegralTable", "KSMatrix", "KslabError", "MissingPrerequisite",
    "NearPole", "NotRegular", "NumericalError", "PairPotential",
    "PartitionPolynomial", "RadiusEstimate", "RieszResult",
    "SmallestZero", "Spectrum", "TonksModel", "UseSampling", "ZeroSet",
    "anchored_integral", "apply_ks_function", "assemble",
    "build_ks_matrix", "build_table", "claim_row", "coefficient_asymptotics",
    "density_bound_check", "density_coefficients_extrapolated",
    "density_series", "evaluate", "ks_residual", "leading_asymptotics",
    "leading_projection", "log_series", "power_convergence",
    "radius_estimate", "regularity_C", "richardson",
    "sign_pattern", "smallest_zero", "spectrum", "virial_reversion", "zeros",
]
