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
    singular nodes and all arrays cover nodes 0..N-1.  orbit_geometry
    stores the six arrays as rows of one block.
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


def require(profile: WarpProfile, grid: RadialGrid, positive: bool = False,
            **arrays) -> None:
    """Every entry finite, or with positive every entry > 0 (a NaN
    passes that test and is named by the finite one); else ValueError
    naming the grid point of the first bad entry.  One reduction accepts
    an array; only an array it refuses, as it refuses a NaN, is scanned.
    Entry i of w is node i, of x_mid (reported as x) the midpoint after
    node i, and of a retained array node i + 1 on a sphere-like grid,
    node i on a circle.
    """
    first = 0 if grid.topology is Topology.PERIODIC else 1
    for name, values in arrays.items():
        # ndarray methods: about half the call cost of np.min / np.all
        if values.min() > 0 if positive else np.isfinite(values).all():
            continue
        bad = np.flatnonzero(values <= 0 if positive else ~np.isfinite(values))
        if bad.size:
            i = int(bad[0])
            at = (f"the midpoint after node {i}" if name.endswith("_mid")
                  else f"node {i if name == 'w' else i + first}")
            what = (f"= {values[i]:.3g} is not positive" if positive
                    else "is not finite")
            raise ValueError(f"{name.removesuffix('_mid')} {what} at {at} "
                             f"(profile {profile.preset_tag})")


def orbit_geometry(profile: WarpProfile, grid: RadialGrid) -> OrbitGeometry:
    """The one evaluation of phi and phi' on grid's nodes: phi positive
    at every retained node and midpoint, everything finite."""
    ensure_usable(profile)
    n = profile.n
    r = grid.nodes
    phi_nodes = np.asarray(profile.phi(r), float)
    # half-node weights: evaluating phi at cell midpoints sidesteps the
    # coordinate singularity without special-casing the pole cells
    phi_mid = np.asarray(profile.phi(grid.midpoints), float)
    phi_retained = grid.retained(phi_nodes)
    require(profile, grid, positive=True, phi=phi_retained, phi_mid=phi_mid)
    # the six arrays are rows of one block, and an operator takes w_mid
    # and the retained w as views (spectral.assemble): glibc hands free
    # heap back to the kernel above twice the largest block the process
    # has freed, so with N-sized arrays alone every fine-grid op faults
    # its pages in afresh, and freeing a block six times that size keeps
    # them mapped up to N = 3 * 2^14.  Not at 2^16 and up, although a
    # verdict there peaks at 11.1 N doubles, below twice the block:
    # fine-grid's median op faults about 1,100 (2^16) and 700-960 (2^17)
    # pages in (see README)
    block = np.empty((6, r.size))
    m = phi_retained.size
    H, B2, w, w_mid, phi, dphi = (block[0, :m], block[1, :m], block[2],
                                  block[3, :grid.N], block[4, :m],
                                  block[5, :m])
    # x **= e is the in-place form of x ** e: the same power, rounded alike
    w_mid[:] = phi_mid
    w_mid **= n - 1
    del phi_mid  # checked and spent: freed before phi' is evaluated
    phi[:] = phi_retained
    dphi[:] = profile.dphi(grid.retained(r))
    # quot = phi'/phi, held in H's row until H = -quot
    np.divide(dphi, phi, out=H)
    np.multiply(n - 1, H, out=B2)
    B2 *= H
    np.negative(H, out=H)
    w[:] = phi_nodes
    w **= n - 1
    if grid.topology is Topology.SPHERE_LIKE:
        # poles carry zero weight exactly, whatever roundoff phi(L) left
        w[0] = 0.0
        w[-1] = 0.0
    require(profile, grid, H=H, B2=B2, w=w, w_mid=w_mid)
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
    # -(n-1) phi''/phi and (n-2)(1 - phi'^2)/phi^2 + -phi''/phi, formed
    # in place in the order of the whole-array expressions, so rounded
    # alike (a sum or product in either order is the same double): with
    # the nodes at most five N-sized rows are alive, below a solve's peak
    ric_radial = np.multiply(-(n - 1), d2phi)
    ric_radial /= phi
    ric_tangential = dphi * dphi
    np.subtract(1.0, ric_tangential, out=ric_tangential)
    ric_tangential *= n - 2
    quot = phi * phi
    ric_tangential /= quot
    np.negative(d2phi, out=quot)
    del d2phi
    quot /= phi
    ric_tangential += quot
    del quot
    require(profile, geom.grid, ric_radial=ric_radial,
            ric_tangential=ric_tangential)
    stacked = np.minimum(ric_radial, ric_tangential)
    i = int(stacked.argmin())
    ric_min = float(stacked[i])
    return RicciProfile(
        ric_radial=ric_radial,
        ric_tangential=ric_tangential,
        ric_min=ric_min,
        kappa2=ric_min / (n - 1),
        argmin_r=float(ri[i]),
    )
