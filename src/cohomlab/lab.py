"""Numerical experiments on the spectral gap bound lambda_min >= kappa2
for invariant fields on warped products, with rigidity diagnostics and
the first-eigenvalue (Obata) sphere criterion.

Everything here composes the geometry, field calculus and spectral
modules into falsifiable checks: check_bound produces a verdict, the
rigidity residuals quantify how far a minimizer is from the round
equality case, and sweep runs check_bound across a preset family.

Tolerance policy: tol_disc is the discretization uncertainty, measured
by a grid-doubling difference of the vector eigenvalue (floored at
1e-8); tol_rigid = max(1e-4, 10 * tol_disc) is the detection band for
the equality case.  An exact "if and only if" statement needs a
declared band before it can be tested numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .fields import (InvariantField, derivative, radial_calculus,
                     weighted_integral)
from .geometry import OrbitGeometry, orbit_geometry, ricci_profile
from .spectral import OperatorKind, dot, nested_solve
from .warp import (RadialGrid, WarpProfile, ensure_usable,
                   grid_for, lookup_preset, make_preset)

RIGID_FLOOR = 1e-4
DISC_FLOOR = 1e-8


class Verdict(Enum):
    ROUND_SPHERE_DETECTED = "RoundSphereDetected"
    STRICTLY_ABOVE_BOUND = "StrictlyAboveBound"
    HYPOTHESIS_NOT_MET = "HypothesisNotMet"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class RigidityDiagnostics:
    """Residuals of the three equality-case identities.

    umbilic_residual: max of f^2 |H^2 - |B|^2/(n-1)| over nodes.  The
    f^2 weighting matters: the identity is only forced where the
    minimizer does not vanish.  (For warped products this residual is
    zero for every profile, round or not: the orbits are always
    umbilic.  It is a one-way diagnostic.)
    radial_ode_residual: L2(w) norm of f' + H f.
    laplacian_equality_residual: |I2 - n*Ih| / max(1, I2) with
    I2 = integral of (lap h)^2 and Ih = integral of |Hess h|^2 for the
    potential h of the minimizer.
    """

    umbilic_residual: float
    radial_ode_residual: float
    laplacian_equality_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.umbilic_residual, self.radial_ode_residual,
                   self.laplacian_equality_residual)


@dataclass(frozen=True)
class TheoremReport:
    kappa2: float
    lambda_min: float
    gap: float
    bound_holds: bool
    rigidity: RigidityDiagnostics
    obata_mu1: float
    verdict: Verdict
    tol_disc: float
    tol_rigid: float
    grid_N: int
    n: int
    profile_tag: str


@dataclass(frozen=True)
class ObataReport:
    """First-eigenvalue sphere criterion.

    defect = |mu1 - n*kappa2| vanishes (numerically) only on round
    profiles.  g_residual checks the complementary fact that on a round
    profile the derivative g = f' of the vector minimizer is itself a
    scalar eigenfunction of eigenvalue mu = n*kappa2: the dimensionless
    ||K g - mu W g||_{W^-1} / (mu ||g||_W) with the scalar (K, W) that
    gives mu1.  On Round it levels off near 1e-5 from N = 2^14 on (g
    differentiates a computed eigenvector) instead of falling like dx^2.
    """

    defect: float
    mu1: float
    kappa2: float
    g_residual: float
    lambda_min: float
    grid_N: int


@dataclass(frozen=True)
class SweepRow:
    param: float
    kappa2: float
    lambda_min: float
    gap: float
    obata_defect: float
    verdict: Optional[Verdict]
    error: Optional[str] = None


def rigidity_diagnostics(minimizer: InvariantField,
                         geom: OrbitGeometry) -> RigidityDiagnostics:
    """Equality-case residuals for a computed vector minimizer."""
    n = geom.n
    # the minimizer is the gradient profile f = h' of its potential h
    f, fp, lap, hess2 = radial_calculus(minimizer, geom)

    umb = float((f * f * np.abs(geom.H ** 2 - geom.B2 / (n - 1))).max())
    rad = math.sqrt(weighted_integral((fp + geom.H * f) ** 2, geom))

    i2 = weighted_integral(lap * lap, geom)
    ih = weighted_integral(hess2, geom)
    lap_eq = abs(i2 - n * ih) / max(1.0, i2)
    return RigidityDiagnostics(umbilic_residual=umb, radial_ode_residual=rad,
                               laplacian_equality_residual=lap_eq)


def check_bound(profile: WarpProfile, N: int = 2048) -> TheoremReport:
    """Run the bound lambda_min >= kappa2 as an experiment with verdict.

    tol_disc is the grid-doubling difference |lambda_N - lambda_{N/2}|
    floored at 1e-8, so an N without a half grid (odd, or below
    2 * MIN_GRID = 32) raises ValueError naming that N before the
    profile is evaluated on any grid.
    """
    ensure_usable(profile)
    geom = orbit_geometry(profile, grid_for(profile, RadialGrid.halvable(N)))
    # keep the results, not the N operator's three N-sized arrays
    lams, fine = nested_solve(OperatorKind.ROUGH_VECTOR, geom, 2)[:2]
    tol_disc = max(DISC_FLOOR, abs(lams[1] - lams[0]))
    tol_rigid = max(RIGID_FLOOR, 10.0 * tol_disc)

    # keep the scalar, not the profile's two N-sized Ricci arrays
    kappa2 = ricci_profile(geom).kappa2
    mu1 = nested_solve(OperatorKind.SCALAR_LAPLACIAN, geom)[1].lam
    rigid = rigidity_diagnostics(fine.eigenfunction, geom)

    gap = fine.lam - kappa2
    bound_holds = gap >= -tol_disc

    n = profile.n
    if kappa2 <= 0:
        verdict = Verdict.HYPOTHESIS_NOT_MET
    elif (abs(gap) <= tol_rigid
          and abs(mu1 - n * kappa2) <= tol_rigid * n
          and rigid.max_residual < tol_rigid):
        verdict = Verdict.ROUND_SPHERE_DETECTED
    elif gap > tol_rigid:
        verdict = Verdict.STRICTLY_ABOVE_BOUND
    else:
        verdict = Verdict.INCONCLUSIVE

    return TheoremReport(kappa2=kappa2, lambda_min=fine.lam, gap=gap,
                         bound_holds=bound_holds, rigidity=rigid,
                         obata_mu1=mu1, verdict=verdict, tol_disc=tol_disc,
                         tol_rigid=tol_rigid, grid_N=geom.grid.N, n=n,
                         profile_tag=profile.preset_tag)


# --- Obata criterion -----------------------------------------------------

def obata_check(profile: WarpProfile, N: int = 4096) -> ObataReport:
    """First-eigenvalue criterion: mu1 = n*kappa2 detects the round sphere.

    Refuses profiles with kappa2 <= 0: the criterion presupposes the
    curvature hypothesis.  Besides the defect |mu1 - n*kappa2| the
    report carries the residual of the derived function g = f' of the
    vector minimizer against the scalar eigenvalue n*kappa2 (zero in
    the round equality case, where g is itself an eigenfunction).
    """
    grid = grid_for(profile, N)
    geom = orbit_geometry(profile, grid)
    kappa2 = ricci_profile(geom).kappa2
    if kappa2 <= 0:
        raise ValueError(
            f"Obata criterion needs kappa2 > 0; profile "
            f"{profile.preset_tag!r} has kappa2 = {kappa2:.6g}")
    # the scalar eigenfunction is not kept, only mu1 and the operator
    [mu1], scalar = nested_solve(OperatorKind.SCALAR_LAPLACIAN, geom)[::2]
    vec = nested_solve(OperatorKind.ROUGH_VECTOR, geom)[1]
    mu = profile.n * kappa2
    g = grid.retained(derivative(vec.eigenfunction.values, grid, parity="odd"))
    Wg = scalar.weight * g
    res = scalar.matvec(g) - mu * Wg
    g_res = math.sqrt(dot(res, res / scalar.weight) / dot(g, Wg)) / mu
    return ObataReport(defect=abs(mu1 - mu), mu1=mu1, kappa2=kappa2,
                       g_residual=g_res, lambda_min=vec.lam, grid_N=grid.N)


# --- parameter sweeps ----------------------------------------------------

def sweep(family: str, values: Sequence[float], n: int, N: int = 1024,
          param: Optional[str] = None,
          base_params: Optional[dict] = None) -> tuple:
    """check_bound across a preset family; one row per parameter value.

    n is refused unless an integer >= 2, param (default: the family's
    sweep_param) and base_params unless warp.PRESETS has them, and N
    unless check_bound's half grid exists (even N >= 32), all before any
    row runs.  A failing row carries its error message instead of
    aborting the sweep.
    obata_defect is |mu1 - n*kappa2| (well-defined for any sign of kappa2).
    """
    preset = lookup_preset(family)
    n = WarpProfile.dimension(n)
    param = preset.sweep_param if param is None else param
    base = dict(base_params or {})
    preset.check([param, *base])
    RadialGrid.halvable(N)

    def run(value: float) -> SweepRow:
        try:
            prof = make_preset(preset.name, n=n, **{**base, param: value})
            rep = check_bound(prof, N=N)
            return SweepRow(param=value, kappa2=rep.kappa2,
                            lambda_min=rep.lambda_min, gap=rep.gap,
                            obata_defect=abs(rep.obata_mu1 - n * rep.kappa2),
                            verdict=rep.verdict)
        except Exception as exc:  # per-row capture, sweep continues
            return SweepRow(param=value, kappa2=float("nan"),
                            lambda_min=float("nan"), gap=float("nan"),
                            obata_defect=float("nan"), verdict=None,
                            error=f"{type(exc).__name__}: {exc}")

    return tuple(run(float(v)) for v in values)
