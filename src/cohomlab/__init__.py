"""Spectral-gap experiments for invariant vector fields on warped
products: curvature profiles, a flux-form eigensolver, rigidity
diagnostics and the first-eigenvalue sphere criterion.
"""

from ._openblas import quiet_threads as _quiet_threads

# the first import of numpy maps numpy's OpenBLAS; every submodule below
# imports numpy, so this is where that happens unless the program
# imported numpy before cohomlab
with _quiet_threads():
    import numpy as _numpy  # noqa: F401

from .fields import (CauchySchwarzReport, InvariantField, InvariantFunction,
                     bochner_bound, bochner_residual, cauchy_schwarz_check,
                     derivative, reconstruct_potential, second_derivative,
                     weighted_integral)
from .geometry import (OrbitGeometry, RicciProfile, orbit_geometry,
                       ricci_profile)
from .lab import (ObataReport, RigidityDiagnostics, SweepRow, TheoremReport,
                  Verdict, check_bound, obata_check, rigidity_diagnostics,
                  sweep)
from .spectral import (ConvergenceError, ConvergenceStudy, DiscreteOperator,
                       OperatorKind, SpectralResult, assemble,
                       convergence_study, energy_functional,
                       first_nonzero_scalar_eigenvalue, smallest_eigenpair,
                       solve_smallest)
from .warp import (CheckResult, RadialGrid, Topology, ValidationReport,
                   WarpProfile, bump_profile, ensure_usable, grid_for,
                   make_preset, periodic_product_profile, profile_from_config,
                   profile_from_samples, round_profile, validate)

__version__ = "0.1.0"

__all__ = [
    "CauchySchwarzReport", "CheckResult", "ConvergenceError",
    "ConvergenceStudy", "DiscreteOperator", "InvariantField",
    "InvariantFunction", "ObataReport", "OperatorKind", "OrbitGeometry",
    "RadialGrid", "RicciProfile", "RigidityDiagnostics", "SpectralResult",
    "SweepRow", "TheoremReport", "Topology", "ValidationReport", "Verdict",
    "WarpProfile", "assemble", "bochner_bound", "bochner_residual",
    "bump_profile", "cauchy_schwarz_check", "check_bound",
    "convergence_study", "derivative", "energy_functional", "ensure_usable",
    "first_nonzero_scalar_eigenvalue", "grid_for", "make_preset",
    "obata_check", "orbit_geometry", "periodic_product_profile",
    "profile_from_config", "profile_from_samples", "reconstruct_potential",
    "ricci_profile", "rigidity_diagnostics", "round_profile",
    "second_derivative", "smallest_eigenpair", "solve_smallest", "sweep",
    "validate", "weighted_integral",
]
