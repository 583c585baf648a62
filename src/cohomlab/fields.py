"""Invariant fields V = f(r) N, invariant functions h(r), and the
functional and pointwise identities connecting them.

Smooth closure at a sphere-like pole forces a parity on radial
profiles: an invariant function h extends evenly across the pole
(h'(0) = h'(L) = 0) while the profile f of an invariant field extends
oddly (f vanishes there).  Endpoint derivative stencils use exactly
these parities; interior stencils are centered, so everything is
O(dx^2).

Integrals are trapezoidal against the volume weight w = phi^{n-1};
the weight vanishes at sphere-like poles, so the singular endpoints
enter with weight zero and need no special quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import OrbitGeometry, RicciProfile
from .warp import RadialGrid, Topology


def _full_length(grid: RadialGrid) -> int:
    return grid.N if grid.topology is Topology.PERIODIC else grid.N + 1


@dataclass(frozen=True)
class InvariantField:
    """Radial profile f of the invariant vector field f(r) N.

    values covers every node (sphere-like: 0..N with the pole entries
    stored, and equal to zero; periodic: 0..N-1 with implicit wrap).
    """

    values: np.ndarray
    grid: RadialGrid

    def __post_init__(self):
        v = np.asarray(self.values, float)
        if v.shape != (_full_length(self.grid),):
            raise ValueError(
                f"field needs {_full_length(self.grid)} nodal values, "
                f"got shape {v.shape}")
        if self.grid.topology is Topology.SPHERE_LIKE:
            scale = float(np.max(np.abs(v))) or 1.0
            if max(abs(v[0]), abs(v[-1])) > 1e-12 * scale:
                raise ValueError("invariant fields must vanish at the poles")
            v = v.copy()
            v[0] = 0.0
            v[-1] = 0.0
        object.__setattr__(self, "values", v)

    @property
    def interior(self) -> np.ndarray:
        return self.grid.retained(self.values)


@dataclass(frozen=True)
class InvariantFunction:
    """Nodal values of an invariant (radial) function h."""

    values: np.ndarray
    grid: RadialGrid

    def __post_init__(self):
        v = np.asarray(self.values, float)
        if v.shape != (_full_length(self.grid),):
            raise ValueError(
                f"function needs {_full_length(self.grid)} nodal values, "
                f"got shape {v.shape}")
        if self.grid.topology is Topology.SPHERE_LIKE:
            # smoothness surrogate: one-sided slope at the poles must be
            # small (an even extension has h'(0) = h'(L) = 0); the
            # dx^(1/3) scaling stays well above the O(dx) slope of any
            # resolvable even function while rejecting O(1) violations
            dx = self.grid.dx
            scale = max(1.0, float(np.max(np.abs(v))) * 2.0 * np.pi / self.grid.L)
            tol = scale * dx ** (1.0 / 3.0)
            one_sided = max(abs(v[1] - v[0]), abs(v[-1] - v[-2])) / dx
            if one_sided > tol:
                raise ValueError(
                    f"one-sided pole slope {one_sided:.3g} exceeds the "
                    f"smooth-closure tolerance {tol:.3g}")
        object.__setattr__(self, "values", v)

    @property
    def interior(self) -> np.ndarray:
        return self.grid.retained(self.values)


def derivative(values: np.ndarray, grid: RadialGrid, parity: str) -> np.ndarray:
    """Centered d/dr with parity-correct sphere-like endpoints.

    parity 'odd' means values extend as v(-r) = -v(r) across each pole
    (profiles of fields); 'even' means v(-r) = v(r) (functions), whose
    derivative at a pole vanishes identically.
    """
    v = np.asarray(values, float)
    dx = grid.dx
    if grid.topology is Topology.PERIODIC:
        return (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * dx)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    if parity == "odd":
        out[0] = v[1] / dx
        out[-1] = -v[-2] / dx
    elif parity == "even":
        out[0] = 0.0
        out[-1] = 0.0
    else:
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    return out


def second_derivative(values: np.ndarray, grid: RadialGrid,
                      parity: str) -> np.ndarray:
    v = np.asarray(values, float)
    dx = grid.dx
    if grid.topology is Topology.PERIODIC:
        return (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / (dx * dx)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dx * dx)
    if parity == "odd":
        out[0] = 0.0
        out[-1] = 0.0
    elif parity == "even":
        out[0] = 2.0 * (v[1] - v[0]) / (dx * dx)
        out[-1] = 2.0 * (v[-2] - v[-1]) / (dx * dx)
    else:
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    return out


def weighted_integral(values_interior: np.ndarray, geom: OrbitGeometry) -> float:
    """Trapezoidal integral of (values * w) dr over the whole manifold.

    values are sampled on the interior nodes; the sphere-like pole
    endpoints carry weight zero, so the trapezoid rule reduces to a
    plain weighted sum either way.
    """
    return float(np.sum(values_interior * geom.w_interior) * geom.grid.dx)


def cell_diffs(x: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Differences of x across the N cells of grid, x given at the
    retained nodes (sphere-like: against zero pole values; periodic:
    cyclic)."""
    if grid.topology is Topology.PERIODIC:
        return np.roll(x, -1) - x
    d = np.empty(x.size + 1)
    d[0] = x[0]
    np.subtract(x[1:], x[:-1], out=d[1:-1])
    d[-1] = -x[-1]
    return d


# numpy hands a dot product of more than 10^4 doubles to OpenBLAS's
# threaded ddot, whose worker threads then spin on the other cores for
# about 0.1 s after every call; blocks of this size stay single-threaded
DOT_BLOCK = 8192


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b for 1-D arrays, summed over blocks of DOT_BLOCK entries so
    that no single BLAS call crosses OpenBLAS's threading cut-off (short
    vectors are one call, exactly float(a @ b))."""
    if a.size <= DOT_BLOCK:
        return float(a @ b)
    return sum(float(a[i:i + DOT_BLOCK] @ b[i:i + DOT_BLOCK])
               for i in range(0, a.size, DOT_BLOCK))


def difference_form(diffs: np.ndarray, cond: np.ndarray, values: np.ndarray,
                    potential=None) -> float:
    """Stiffness form sum_cells cond (df)^2 + sum_nodes potential f^2.

    diffs are the cell differences of f, cond the cell conductances
    w_mid/dx and potential the nodal term dx w |B|^2 (None for the scalar
    Laplacian).  Every term is nonnegative, so the sum carries no
    cancellation: the relative rounding error stays at machine
    precision at any grid size, unlike x . (K x).
    """
    num = dot(diffs, cond * diffs)
    if potential is not None:
        num += dot(values, potential * values)
    return num


def energy_functional(field: InvariantField, geom: OrbitGeometry) -> float:
    """Rayleigh quotient F(V) = int (f'^2 + |B|^2 f^2) w / int f^2 w.

    The numerator is difference_form, the same formula the assembled
    operator's quadform evaluates, so F is exactly the quotient of the
    stiffness and mass forms: every boundary-compatible trial field
    then satisfies F >= lambda_min up to solver tolerance, not just up
    to discretization error.
    """
    dx = field.grid.dx
    fi = field.interior
    num = difference_form(cell_diffs(fi, field.grid), geom.w_mid / dx, fi,
                          dx * geom.w_interior * geom.B2)
    den = float(np.sum(geom.w_interior * fi * fi) * dx)
    if den == 0.0:
        raise ValueError("zero field")
    return num / den


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
        f = fn.interior
        fp = grid.retained(derivative(fn.values, grid, "odd"))
    n = geom.n
    return f, fp, fp - (n - 1) * f * geom.H, fp * fp + f * f * geom.B2


def laplacian_of_potential(h: InvariantFunction,
                           geom: OrbitGeometry) -> np.ndarray:
    """Delta h = N(f) - (n-1) f H at interior nodes, where f = h'.

    Agrees with the divergence form (w h')'/w to O(dx^2).
    """
    return radial_calculus(h, geom)[2]


def hessian_norm_sq(field: InvariantField, geom: OrbitGeometry) -> np.ndarray:
    """|Hess h|^2 = f'^2 + f^2 |B|^2 nodewise for f the gradient profile."""
    return radial_calculus(field, geom)[3]


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
    i = int(np.argmin(expr))
    scale = max(1.0, float(np.max(np.abs(expr))))
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
    y = f
    if grid.topology is Topology.PERIODIC:
        total = float(np.sum(f) * dx)
        scale = float(np.max(np.abs(f))) * grid.L or 1.0
        if abs(total) > 1e-10 * scale:
            raise ValueError(
                f"non-exact field: integral over the period is {total:.3g}")
        y = np.concatenate([f, f[:1]])  # close the loop at the seam
    # scipy's cumulative_trapezoid expression, so results are bit-identical
    h = np.concatenate(([0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)))
    return InvariantFunction(values=h[:f.size], grid=grid)


def bochner_residual(h: InvariantFunction, geom: OrbitGeometry,
                     ricci: RicciProfile) -> float:
    """Defect of int (Delta h)^2 = int Ric(grad h, grad h) + int |Hess h|^2.

    grad h = f N is radial, so Ric(grad h, grad h) = ric_radial * f^2.
    Normalized by max(1, int (Delta h)^2 w).
    """
    f, _, lap, hess2 = radial_calculus(h, geom)
    lhs = weighted_integral(lap * lap, geom)
    ric_term = weighted_integral(ricci.ric_radial * f * f, geom)
    hess_term = weighted_integral(hess2, geom)
    return abs(lhs - ric_term - hess_term) / max(1.0, lhs)


def bochner_bound(field: InvariantField, geom: OrbitGeometry,
                  ricci: RicciProfile) -> float:
    """Lower bound (1/(n-1)) int Ric(V, V) w / int f^2 w for F(V).

    Valid for gradient fields; exceeds kappa2 whenever Ric is constant
    and equals F exactly in the round equality case.
    """
    fi = field.interior
    den = weighted_integral(fi * fi, geom)
    if den == 0.0:
        raise ValueError("zero field")
    num = weighted_integral(ricci.ric_radial * fi * fi, geom)
    return num / ((geom.n - 1) * den)
