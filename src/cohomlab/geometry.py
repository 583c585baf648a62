"""Per-orbit extrinsic geometry and Ricci curvature of a warped product.

With unit normal N = +d/dr the principal orbit {r} x S^{n-1} has mean
curvature H = -phi'/phi and second-fundamental-form norm
|B|^2 = (n-1)(phi'/phi)^2; the sign convention is fixed so that
Delta h = N(f) - (n-1) f H holds verbatim for radial h with f = h'.
Orbits in this class are umbilic, so |B|^2 = (n-1) H^2 exactly.

Flipping the orientation of N flips H but leaves H^2, |B|^2, f*H
products and every reported residual unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .warp import RadialGrid, Topology, WarpProfile, ensure_usable


@dataclass(frozen=True)
class OrbitGeometry:
    """phi, phi', H, |B|^2 on retained nodes; weight w = phi^{n-1} on all.

    For sphere-like profiles w vanishes at the two pole nodes and the
    per-orbit arrays cover nodes 1..N-1 only; periodic profiles have no
    singular nodes and all arrays cover nodes 0..N-1.
    """

    H: np.ndarray
    B2: np.ndarray  # stored: a tiny phi gives a finite H but an infinite B2
    w: np.ndarray
    w_mid: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    grid: RadialGrid
    profile: WarpProfile

    @property
    def n(self) -> int:
        return self.profile.n

    @property
    def w_interior(self) -> np.ndarray:
        return self.grid.retained(self.w)

    def restrict(self) -> "OrbitGeometry":
        """Views of this geometry on the half grid.  Its nodes are the
        even nodes here and its midpoints the odd ones, so this equals
        orbit_geometry on the half grid bit for bit."""
        grid = self.grid
        # retained arrays start at node 0 (periodic) or node 1 (poles
        # dropped); either way the even nodes are every other entry
        even = slice(0 if grid.topology is Topology.PERIODIC else 1, None, 2)
        return OrbitGeometry(H=self.H[even], B2=self.B2[even],
                             w=self.w[::2], w_mid=self.w[1::2],
                             phi=self.phi[even], dphi=self.dphi[even],
                             grid=grid.half(), profile=self.profile)


@dataclass(frozen=True)
class RicciProfile:
    """Radial and tangential Ricci values with the best lower bound.

    kappa2 = ric_min / (n-1) is the largest constant with
    Ric >= (n-1) * kappa2; it may be zero or negative, in which case the
    positive-Ricci hypothesis of the bound has no content.
    """

    ric_radial: np.ndarray
    ric_tangential: np.ndarray
    ric_min: float
    kappa2: float
    argmin_r: float


def _require_finite(profile: WarpProfile, **arrays) -> None:
    for name, arr in arrays.items():
        bad = np.where(~np.isfinite(arr))[0]
        if bad.size:
            raise ValueError(
                f"{name} is not finite at node {int(bad[0])} "
                f"(profile {profile.preset_tag})")


def _require_positive(profile: WarpProfile, grid: RadialGrid,
                      phi: np.ndarray, phi_mid: np.ndarray) -> None:
    """phi > 0 at the retained nodes and at the cell midpoints (a NaN
    passes here and is named by _require_finite)."""
    first = 0 if grid.topology is Topology.PERIODIC else 1
    for at, values, offset in (("node", phi, first),
                               ("the midpoint after node", phi_mid, 0)):
        bad = np.flatnonzero(values <= 0)
        if bad.size:
            raise ValueError(
                f"phi = {values[bad[0]]:.3g} is not positive at {at} "
                f"{bad[0] + offset} (profile {profile.preset_tag})")


def orbit_geometry(profile: WarpProfile, grid: RadialGrid) -> OrbitGeometry:
    """The one evaluation of phi and phi' on grid's nodes: phi positive
    at every retained node and midpoint, everything finite."""
    ensure_usable(profile)
    n = profile.n
    r = grid.nodes
    phi_nodes = np.asarray(profile.phi(r), float)
    phi = grid.retained(phi_nodes)
    # half-node weights: evaluating phi at cell midpoints sidesteps the
    # coordinate singularity without special-casing the pole cells
    phi_mid = np.asarray(profile.phi(grid.midpoints), float)
    _require_positive(profile, grid, phi, phi_mid)
    w_mid = phi_mid ** (n - 1)
    del phi_mid  # checked and spent: freed before the arrays below
    dphi = np.asarray(profile.dphi(grid.retained(r)), float)
    quot = dphi / phi
    H = -quot
    B2 = (n - 1) * quot * quot
    w = phi_nodes ** (n - 1)
    if grid.topology is Topology.SPHERE_LIKE:
        # poles carry zero weight exactly, whatever roundoff phi(L) left
        w[0] = 0.0
        w[-1] = 0.0
    _require_finite(profile, H=H, B2=B2, w=w, w_mid=w_mid)
    return OrbitGeometry(H=H, B2=B2, w=w, w_mid=w_mid, phi=phi, dphi=dphi,
                         grid=grid, profile=profile)


def ricci_profile(geom: OrbitGeometry) -> RicciProfile:
    """Warped-product Ricci values on the retained nodes of geom.

    ric_radial = -(n-1) phi''/phi (any unit normal direction) and
    ric_tangential = -phi''/phi + (n-2)(1 - phi'^2)/phi^2 (any unit
    orbit direction); the adapted frame diagonalizes Ric, so every
    direction is a convex combination of these two and the global
    minimum is the nodewise min over both arrays.  Smooth closure makes
    the omitted pole limits agree with neighboring interior values.
    phi and phi' come from geom; only phi'' is evaluated here.
    """
    profile, n = geom.profile, geom.n
    ri = geom.grid.interior
    phi, dphi = geom.phi, geom.dphi
    d2phi = np.asarray(profile.d2phi(ri), float)
    ric_radial = -(n - 1) * d2phi / phi
    ric_tangential = -d2phi / phi + (n - 2) * (1.0 - dphi * dphi) / (phi * phi)
    _require_finite(profile, ric_radial=ric_radial,
                    ric_tangential=ric_tangential)
    stacked = np.minimum(ric_radial, ric_tangential)
    i = int(np.argmin(stacked))
    ric_min = float(stacked[i])
    return RicciProfile(
        ric_radial=ric_radial,
        ric_tangential=ric_tangential,
        ric_min=ric_min,
        kappa2=ric_min / (n - 1),
        argmin_r=float(ri[i]),
    )
