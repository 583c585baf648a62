"""Invariant fields V = f(r) N, invariant functions h(r), and the
functional and pointwise identities connecting them.

Smooth closure at a sphere-like pole forces a parity on radial
profiles: an invariant function h extends evenly across the pole
(h'(0) = h'(L) = 0) while the profile f of an invariant field extends
oddly (f vanishes there).  Derivatives are centered stencils over
RadialGrid.ghosted, which continues values past the poles with exactly
these parities, so everything is O(dx^2).

Integrals are trapezoidal against the volume weight w = phi^{n-1};
the weight vanishes at sphere-like poles, so the singular endpoints
enter with weight zero and need no special quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import OrbitGeometry, ricci_profile
from .warp import RadialGrid, Topology


def _nodal(values, grid: RadialGrid, what: str) -> np.ndarray:
    """values as floats, refused unless there is one per stored node."""
    v = np.asarray(values, float)
    size = grid.N if grid.topology is Topology.PERIODIC else grid.N + 1
    if v.shape != (size,):
        raise ValueError(
            f"{what} needs {size} nodal values, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class InvariantField:
    """Radial profile f of the invariant vector field f(r) N.

    values covers every node (sphere-like: 0..N with the pole entries
    stored, and equal to zero; periodic: 0..N-1 with implicit wrap).
    """

    values: np.ndarray
    grid: RadialGrid

    def __post_init__(self):
        v = _nodal(self.values, self.grid, "field")
        if self.grid.topology is Topology.SPHERE_LIKE:
            scale = float(np.abs(v).max()) or 1.0
            if max(abs(v[0]), abs(v[-1])) > 1e-12 * scale:
                raise ValueError("invariant fields must vanish at the poles")
            v = v.copy()
            v[0] = 0.0
            v[-1] = 0.0
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class InvariantFunction:
    """Nodal values of an invariant (radial) function h."""

    values: np.ndarray
    grid: RadialGrid

    def __post_init__(self):
        v = _nodal(self.values, self.grid, "function")
        if self.grid.topology is Topology.SPHERE_LIKE:
            # smoothness surrogate: one-sided slope at the poles must be
            # small (an even extension has h'(0) = h'(L) = 0); the
            # dx^(1/3) scaling stays well above the O(dx) slope of any
            # resolvable even function while rejecting O(1) violations
            dx = self.grid.dx
            scale = max(1.0, float(np.abs(v).max()) * 2.0 * np.pi / self.grid.L)
            tol = scale * dx ** (1.0 / 3.0)
            one_sided = max(abs(v[1] - v[0]), abs(v[-1] - v[-2])) / dx
            if one_sided > tol:
                raise ValueError(
                    f"one-sided pole slope {one_sided:.3g} exceeds the "
                    f"smooth-closure tolerance {tol:.3g}")
        object.__setattr__(self, "values", v)


def derivative(values: np.ndarray, grid: RadialGrid, parity: str) -> np.ndarray:
    """Centered d/dr over grid.ghosted(values, parity): 'odd' for
    profiles of fields, 'even' for functions (zero slope at a pole)."""
    e = grid.ghosted(values, parity)
    # nodes 0..N; a circle stores no node N (the seam, node 0 again)
    return (e[2:] - e[:-2])[:np.size(values)] / (2.0 * grid.dx)


def second_derivative(values: np.ndarray, grid: RadialGrid,
                      parity: str) -> np.ndarray:
    """Centered d^2/dr^2 over grid.ghosted(values, parity)."""
    e = grid.ghosted(values, parity)
    dx = grid.dx
    return (e[2:] - 2.0 * e[1:-1] + e[:-2])[:np.size(values)] / (dx * dx)


def weighted_integral(values_interior: np.ndarray, geom: OrbitGeometry) -> float:
    """Trapezoidal integral of (values * w) dr over the whole manifold.

    values are sampled on the interior nodes; the sphere-like pole
    endpoints carry weight zero, so the trapezoid rule reduces to a
    plain weighted sum either way.
    """
    return float((values_interior * geom.w_interior).sum() * geom.grid.dx)


def radial_calculus(fn: InvariantFunction | InvariantField,
                    geom: OrbitGeometry) -> tuple:
    """(f, f', Delta h, |Hess h|^2) at the retained nodes, with f = h'.

    fn is the potential h (f its even derivative, f' its even second
    difference: direct, not chained, for a small truncation constant)
    or the gradient profile f (f' its odd derivative).
    """
    grid = fn.grid
    if isinstance(fn, InvariantFunction):
        f = grid.retained(derivative(fn.values, grid, "even"))
        fp = grid.retained(second_derivative(fn.values, grid, "even"))
    else:
        f = grid.retained(fn.values)
        fp = grid.retained(derivative(fn.values, grid, "odd"))
    n = geom.n
    return f, fp, fp - (n - 1) * f * geom.H, fp * fp + f * f * geom.B2


@dataclass(frozen=True)
class CauchySchwarzReport:
    min_value: float
    argmin_r: float
    equality_nodes: np.ndarray


def cauchy_schwarz_check(h: InvariantFunction,
                         geom: OrbitGeometry) -> CauchySchwarzReport:
    """Nodewise minimum of n |Hess h|^2 - (Delta h)^2.

    Nonnegative in the continuum by Cauchy-Schwarz on the Hessian
    eigenvalues; discretely it may dip below zero by O(dx^2) only.
    Nodes achieving (near) equality are flagged: there the Hessian is
    proportional to the metric.
    """
    _, _, lap, hess2 = radial_calculus(h, geom)
    expr = geom.n * hess2 - lap * lap
    i = int(expr.argmin())
    scale = max(1.0, float(np.abs(expr).max()))
    eq = np.where(np.abs(expr) <= 1e-8 * scale)[0]
    return CauchySchwarzReport(
        min_value=float(expr[i]),
        argmin_r=float(geom.grid.interior[i]),
        equality_nodes=eq,
    )


def reconstruct_potential(field: InvariantField) -> InvariantFunction:
    """Antiderivative h(r) = int_0^r f ds with h(0) = 0.

    On a circle the potential only exists when f integrates to zero
    over the full period; otherwise the field is not a gradient.
    """
    f = field.values
    grid = field.grid
    dx = grid.dx
    if grid.topology is Topology.PERIODIC:
        total = float(f.sum() * dx)
        scale = float(np.abs(f).max()) * grid.L or 1.0
        if abs(total) > 1e-10 * scale:
            raise ValueError(
                f"non-exact field: integral over the period is {total:.3g}")
    y = grid.ghosted(f, "odd")[1:-1]  # nodes 0..N: closes a circle's seam
    # scipy's cumulative_trapezoid expression, so results are bit-identical
    h = np.concatenate(([0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)))
    return InvariantFunction(values=h[:f.size], grid=grid)


def bochner_residual(h: InvariantFunction, geom: OrbitGeometry) -> float:
    """Defect of int (Delta h)^2 = int Ric(grad h, grad h) + int |Hess h|^2.

    grad h = f N is radial, so Ric(grad h, grad h) = ric_radial * f^2.
    Normalized by max(1, int (Delta h)^2 w).
    """
    f, _, lap, hess2 = radial_calculus(h, geom)
    lhs = weighted_integral(lap * lap, geom)
    ric_term = weighted_integral(ricci_profile(geom).ric_radial * f * f, geom)
    hess_term = weighted_integral(hess2, geom)
    return abs(lhs - ric_term - hess_term) / max(1.0, lhs)


def bochner_bound(field: InvariantField, geom: OrbitGeometry) -> float:
    """Lower bound (1/(n-1)) int Ric(V, V) w / int f^2 w for F(V).

    Valid for gradient fields; exceeds kappa2 whenever Ric is constant
    and equals F exactly in the round equality case.
    """
    fi = field.grid.retained(field.values)
    den = weighted_integral(fi * fi, geom)
    if den == 0.0:
        raise ValueError("zero field")
    num = weighted_integral(ricci_profile(geom).ric_radial * fi * fi, geom)
    return num / ((geom.n - 1) * den)
