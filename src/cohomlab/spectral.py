"""Flux-form discretization of the rough Laplacian on invariant fields
and of the scalar Laplacian on invariant functions, plus extremal
eigenpair solvers.

Both operators reduce to singular Sturm-Liouville problems in the
radial variable: -(w f')'/w + |B|^2 f = lambda f for the vector case
(Dirichlet at sphere-like poles, where fields must vanish) and
-(w h')'/w = mu h for the scalar case (Neumann, realized by dropping
the pole fluxes).  The divergence (flux) form with half-node weights
w_{i+1/2} = phi^{n-1}(midpoint) keeps the stiffness symmetric and
never evaluates 1/phi at a pole, and it gives the discrete problem the
same variational structure as the energy quotient, so the Rayleigh
principle holds exactly at the discrete level.

Eigenvalues are the positive-spectrum convention: K approximates
-(w f')' + w |B|^2 f >= 0, so the reported spectrum is that of -div
grad (nonnegative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Union

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dpttrf, dpttrs

from .fields import InvariantField, InvariantFunction
from .geometry import OrbitGeometry, orbit_geometry
from .warp import RadialGrid, Topology, WarpProfile, grid_for

# normwise backward error ||K x - lam W x|| / ((||K|| + |lam| ||W||) ||x||)
# at which an iterate counts as an exact eigenpair of a nearby problem
BACKWARD_TOL = 1e-15
# relative change of the eigenvalue between successive steps below
# which that backward error is checked
CHANGE_TOL = 1e-12
# shift sigma = -SHIFT * max(1, |lam_0|).  K - sigma W must stay
# numerically definite: every pivot of its L D L^T factor (dpttrf)
# positive.  On the Neumann problem the constant mode gives it an
# eigenvalue of about |sigma| w dx against ||K|| ~ 4 w / dx, and the
# ratio |sigma| dx^2 / 4 must stay well above machine epsilon:
# a shift of 1e-8 fails that from N = 2^16 on, 1e-2 holds past 2^20.
SHIFT = 1e-2
MAX_ITER = 200
# _solve starts the coarsest grid it solves, when that has at least
# 8 * COARSE_N nodes, from the last grid of its halving chain with at
# least COARSE_N nodes; smaller grids keep the analytic seed
COARSE_N = 4096
# numpy hands a dot product of more than 10^4 doubles to OpenBLAS's
# threaded ddot, whose worker threads then spin on the other cores for
# about 0.1 s after every call; blocks of this size stay single-threaded
DOT_BLOCK = 8192


class OperatorKind(Enum):
    ROUGH_VECTOR = "rough_vector"
    SCALAR_LAPLACIAN = "scalar_laplacian"


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, last_residual: float):
        super().__init__(message)
        self.last_residual = last_residual


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b for 1-D arrays, summed over blocks of DOT_BLOCK entries so
    that no single BLAS call crosses OpenBLAS's threading cut-off (short
    vectors are one call, exactly float(a @ b))."""
    if a.size <= DOT_BLOCK:
        return float(a @ b)
    return sum(float(a[i:i + DOT_BLOCK] @ b[i:i + DOT_BLOCK])
               for i in range(0, a.size, DOT_BLOCK))


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Generalized symmetric eigenproblem K f = lambda W f in flux form.

    K f = D^T (cond * D f) + potential * f, with D f the cell
    differences of f (sphere-like: against zero pole values; periodic:
    cyclic).  cond holds the per-cell conductances w_mid/dx, with the
    two pole cells set to zero for Neumann so that no flux crosses a
    pole; potential is dx w |B|^2 at the retained nodes (None for the
    scalar Laplacian); weight is the diagonal mass W = w dx, positive
    at every retained node.
    """

    kind: OperatorKind
    cond: np.ndarray
    potential: Optional[np.ndarray]
    weight: np.ndarray
    grid: RadialGrid

    @property
    def size(self) -> int:
        return self.weight.size

    @property
    def _periodic(self) -> bool:
        return self.grid.topology is Topology.PERIODIC

    def _node_cond(self) -> np.ndarray:
        """Conductance into each retained node: c_left + c_right."""
        c = self.cond
        return np.roll(c, 1) + c if self._periodic else c[:-1] + c[1:]

    def norm_bound(self) -> float:
        """Largest row sum of |K|, 2 (c_left + c_right) + potential,
        an upper bound on ||K||_2 that is tight for these stencils."""
        row = 2.0 * self._node_cond()
        if self.potential is not None:
            row += self.potential
        return float(np.max(row))

    def _diffs(self, x: np.ndarray) -> np.ndarray:
        """Differences of x across the N cells (x at the retained nodes;
        sphere-like: against zero pole values; periodic: cyclic)."""
        if self._periodic:
            return np.roll(x, -1) - x
        d = np.empty(x.size + 1)
        d[0] = x[0]
        np.subtract(x[1:], x[:-1], out=d[1:-1])
        d[-1] = -x[-1]
        return d

    def matvec(self, x: np.ndarray) -> np.ndarray:
        flux = self.cond * self._diffs(x)
        y = np.roll(flux, 1) - flux if self._periodic else flux[:-1] - flux[1:]
        if self.potential is not None:
            y += self.potential * x
        return y

    def quadform(self, x: np.ndarray) -> float:
        """x^T K x in difference form, sum_cells cond (dx)^2 +
        sum_nodes potential x^2.  Every term is nonnegative, so the sum
        carries no cancellation: the relative rounding error stays at
        machine precision at any grid size, unlike x . (K x)."""
        d = self._diffs(x)
        num = dot(d, self.cond * d)
        if self.potential is not None:
            num += dot(x, self.potential * x)
        return num


@dataclass(frozen=True)
class SpectralResult:
    """lam is the difference-form Rayleigh quotient of the eigenvector;
    residual its normwise backward error (see _inverse_iterate)."""

    lam: float
    eigenfunction: Union[InvariantField, InvariantFunction]
    iterations: int
    residual: float
    grid_N: int
    extrapolated: Optional[float] = None


def assemble(kind: OperatorKind, geom: OrbitGeometry) -> DiscreteOperator:
    """Build the flux-form operator pair (K, W) on geom's grid.

    Sphere-like grids retain the interior nodes 1..N-1 (the poles carry
    zero weight and either a Dirichlet value or no flux); periodic
    grids retain all N distinct nodes and close the cells cyclically.
    """
    grid = geom.grid
    dx = grid.dx
    cond = geom.w_mid / dx
    w = geom.w_interior
    potential = dx * w * geom.B2 if kind is OperatorKind.ROUGH_VECTOR else None
    if (kind is OperatorKind.SCALAR_LAPLACIAN
            and grid.topology is Topology.SPHERE_LIKE):
        # Neumann: no flux through the poles, the two boundary cells conduct 0
        cond[0] = cond[-1] = 0.0
    weight = w * dx
    if not np.all(weight > 0):
        raise ValueError("mass entries must be positive at retained nodes")
    return DiscreteOperator(kind=kind, cond=cond, potential=potential,
                            weight=weight, grid=grid)


def energy_functional(field: InvariantField, geom: OrbitGeometry) -> float:
    """Rayleigh quotient F(V) = int (f'^2 + |B|^2 f^2) w / int f^2 w.

    F is exactly the quotient of the stiffness and mass forms of
    assemble(ROUGH_VECTOR, geom), so every boundary-compatible trial
    field satisfies F >= lambda_min up to solver tolerance, not just up
    to discretization error.
    """
    if field.grid != geom.grid:
        raise ValueError("field and geometry live on different grids")
    op = assemble(OperatorKind.ROUGH_VECTOR, geom)
    x = geom.grid.retained(field.values)
    den = dot(x, op.weight * x)
    if den == 0.0:
        raise ValueError("zero field")
    return op.quadform(x) / den


# --- tridiagonal solves --------------------------------------------------

def cholesky_banded(d: np.ndarray, e: np.ndarray) -> tuple:
    """L D L^T factor (LAPACK dpttrf) of the symmetric tridiagonal with
    diagonal d and off-diagonal e, computed in place over both arrays,
    which the caller must own.  LinAlgError if a pivot is not positive.
    perfbench traces this function under this name (spectral.factor).
    """
    d, e, info = dpttrf(d, e, overwrite_d=1, overwrite_e=1)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of dpttrf")
    return d, e


def cho_solve_banded(factor: tuple, b: np.ndarray) -> np.ndarray:
    """x with (L D L^T) x = b for factor = (d, e) from cholesky_banded
    (LAPACK dpttrs); b is left as it is.  perfbench traces this function
    under this name (spectral.solve)."""
    x, info = dpttrs(*factor, b)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of dpttrs")
    return x


def _factor(op: DiscreteOperator, sigma: float):
    """Solver for K - sigma W from its tridiagonal L D L^T factor.

    For the periodic case K_c = T' + c u u^T with u = e_0 + e_{M-1} and
    c = -cond[-1] < 0 the wrap-around entry, so T' = K_c - c u u^T
    stays positive definite and a single Sherman-Morrison correction
    recovers the cyclic solve.
    """
    periodic, cond = op._periodic, op.cond
    # the diagonal is summed before it meets -sigma W: adding its two
    # terms to -sigma W one at a time rounds differently and moves
    # printed last digits.  d and e are fresh arrays: the factor
    # overwrites them, and a view of cond would corrupt the operator
    d = op._node_cond()
    if op.potential is not None:
        d += op.potential
    d += op.weight * -sigma
    e = -(cond[:-1] if periodic else cond[1:-1])
    if periodic:
        corner = float(-cond[-1])
        d[0] -= corner
        d[-1] -= corner
    factor = cholesky_banded(d, e)

    def chol_solve(b):
        return cho_solve_banded(factor, b)

    if not periodic:
        return chol_solve

    u = np.zeros(op.size)
    u[0] = u[-1] = 1.0
    z = chol_solve(u)
    scale = corner / (1.0 + corner * (z[0] + z[-1]))

    def solve(b):
        y = chol_solve(b)
        y -= (scale * (y[0] + y[-1])) * z
        return y

    return solve


def _parity(kind: OperatorKind) -> str:
    """How an eigenfunction continues past a pole: fields odd, functions
    even (RadialGrid.ghosted)."""
    return "odd" if kind is OperatorKind.ROUGH_VECTOR else "even"


def _seed(op: DiscreteOperator, deflate_constants: bool, start) -> np.ndarray:
    """Deterministic start: start (an eigenfunction on the half grid)
    carried onto this grid by RadialGrid.prolong if given, else the
    grid's lowest mode, nonconstant when deflating (fields odd,
    functions even)."""
    grid = op.grid
    parity = _parity(op.kind)
    if start is None:
        return grid.lowest_mode(parity, nonconstant=deflate_constants)
    if start.grid != grid.half():
        raise ValueError("start must be an eigenfunction on the half grid")
    return grid.retained(start.grid.prolong(start.values, parity))


def _fix_sign(x: np.ndarray) -> None:
    """Flip x in place so that its first non-negligible entry is > 0."""
    a = np.abs(x)
    # argmax finds the first True; an all-zero x gives index 0, not flipped
    if x[np.argmax(a > 1e-12 * a.max())] < 0:
        np.negative(x, out=x)


def _inverse_iterate(op: DiscreteOperator, max_iter: int,
                     deflate_constants: bool, start=None):
    """Shifted inverse iteration on K f = lambda W f from _seed(op).

    One step solves (K - sigma W) y = W x and takes lambda as the
    difference-form quotient of y.  Iteration stops once lambda moved
    by at most CHANGE_TOL |lambda| in the step and the normwise backward error
    (Rigal-Gaches) eta = ||K y - lambda W y|| / ((||K|| + |lambda| ||W||)
    ||y||) is at most BACKWARD_TOL.  Since K y = W x + sigma W y, that
    residual costs no matvec; the returned residual is eta recomputed
    with an explicit K x at the accepted iterate.

    deflate_constants removes the constant mode W-orthogonally from
    every iterate (to step past the kernel of the scalar problem).
    """
    W = op.weight
    scale_K, scale_W = op.norm_bound(), float(np.max(W))
    mass = float(np.sum(W))

    def project(v):
        if deflate_constants:
            v -= dot(W, v) / mass
        return v

    def backward_error(r, lam, v):
        return math.sqrt(dot(r, r) / dot(v, v)) \
            / (scale_K + abs(lam) * scale_W)

    # only y (the iterate, W-normalized after each step), Wy and, within
    # a step, W x stay alive: at N = 2^20 each is 8 MB
    y = project(_seed(op, deflate_constants, start))
    Wy = W * y
    norm = dot(y, Wy)
    if norm <= 0:
        raise ValueError("seed vector vanishes after deflation")
    y /= math.sqrt(norm)
    Wy /= math.sqrt(norm)
    lam = op.quadform(y)
    if lam == 0.0:
        # every flux and potential term vanishes: the seed spans the
        # kernel (constants on a flat product) and needs no step
        return lam, y, 0, backward_error(op.matvec(y), lam, y)

    sigma = -SHIFT * max(1.0, abs(lam))
    solve = _factor(op, sigma)
    change = math.inf
    for it in range(1, max_iter + 1):
        Wx = Wy
        y = project(solve(Wx))
        Wy = W * y
        yWy = dot(y, Wy)
        lam_prev, lam = lam, op.quadform(y) / yWy
        change = abs(lam - lam_prev)
        eta = math.inf
        if change <= CHANGE_TOL * abs(lam):
            # K y - lam W y = W x + (sigma - lam) W y, in Wx's buffer
            Wx += (sigma - lam) * Wy
            eta = backward_error(Wx, lam, y)
        del Wx  # spent; freed before the explicit check below
        s = 1.0 / math.sqrt(yWy)
        y *= s
        Wy *= s
        if eta <= BACKWARD_TOL:
            return lam, y, it, backward_error(op.matvec(y) - lam * Wy,
                                              lam, y)
    eta = backward_error(op.matvec(y) - lam * Wy, lam, y)
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (backward error "
        f"{eta:.3e}, target {BACKWARD_TOL:g}; last eigenvalue change "
        f"{change:.3e}, target {CHANGE_TOL * abs(lam):.3e})",
        last_residual=eta)


def _package(op: DiscreteOperator, lam: float, x: np.ndarray, iterations: int,
             residual: float) -> SpectralResult:
    _fix_sign(x)
    grid = op.grid
    vector = op.kind is OperatorKind.ROUGH_VECTOR
    values = x
    if grid.topology is Topology.SPHERE_LIKE:
        # fields vanish at the poles; functions get the parabolic even
        # extension h = a + b r^2 onto them
        values = np.zeros(grid.N + 1)
        values[1:-1] = x
        if not vector:
            values[0] = (4.0 * x[0] - x[1]) / 3.0
            values[-1] = (4.0 * x[-1] - x[-2]) / 3.0
    cls = InvariantField if vector else InvariantFunction
    return SpectralResult(lam=lam, eigenfunction=cls(values=values, grid=grid),
                          iterations=iterations, residual=residual,
                          grid_N=grid.N)


def smallest_eigenpair(op: DiscreteOperator, max_iter: int = MAX_ITER,
                       start=None) -> SpectralResult:
    """Smallest eigenvalue of K f = lambda W f by shifted inverse iteration.

    Deterministic: the seed is start (an eigenfunction on the half
    grid) interpolated onto this grid, or else _seed's analytic one.
    """
    return _package(op, *_inverse_iterate(
        op, max_iter, deflate_constants=False, start=start))


def first_nonzero_scalar_eigenvalue(op: DiscreteOperator,
                                    max_iter: int = MAX_ITER,
                                    start=None) -> SpectralResult:
    """Smallest eigenvalue on the subspace W-orthogonal to constants.

    The scalar operator annihilates constants (the flux form
    telescopes), so the first nonzero eigenvalue is found by deflating
    the constant mode from every iterate.
    """
    if op.kind is not OperatorKind.SCALAR_LAPLACIAN:
        raise ValueError("first nonzero eigenvalue is a scalar-operator query")
    return _package(op, *_inverse_iterate(
        op, max_iter, deflate_constants=True, start=start))


def _solve(kind: OperatorKind, geom: OrbitGeometry, levels: int = 1) -> tuple:
    """(eigenvalues coarse to fine, result, operator) of kind on geom's
    grid and the levels - 1 grids below it, each solve started from the
    eigenfunction of the one before (nested iteration).

    geom's halving chain (OrbitGeometry.restrict) is built once and runs
    on below the coarsest level while it keeps at least COARSE_N nodes.
    If it reaches three halvings further down, its last grid is solved
    from the analytic seed and carried up by RadialGrid.prolong to start
    the coarsest level; otherwise, or if that solve does not converge,
    the coarsest level keeps the analytic seed, so no solve fails where
    a cold one succeeds.
    """
    chain = [geom]
    while len(chain) < levels or (chain[-1].grid.N % 2 == 0
                                  and chain[-1].grid.N // 2 >= COARSE_N):
        chain.append(chain[-1].restrict())
    solve = (first_nonzero_scalar_eigenvalue
             if kind is OperatorKind.SCALAR_LAPLACIAN else smallest_eigenpair)
    start = None
    if len(chain) >= levels + 3:
        try:
            start = solve(assemble(kind, chain[-1])).eigenfunction
        except ConvergenceError:
            pass
        else:
            values = start.values
            for g in reversed(chain[levels + 1:]):
                values = g.grid.prolong(values, _parity(kind))
            start = replace(start, values=values, grid=chain[levels].grid)
    lams = []
    # each coarser operator is dropped before the next is assembled
    for g in reversed(chain[1:levels]):
        result = solve(assemble(kind, g), start=start)
        lams.append(result.lam)
        start = result.eigenfunction
    op = assemble(kind, geom)
    result = solve(op, start=start)
    lams.append(result.lam)
    return lams, result, op


def _coarse_to_fine(profile: WarpProfile, kind: OperatorKind, N: int,
                    levels: int) -> tuple:
    """(eigenvalues coarse to fine, result at N, geometry at N) of _solve
    on the grids N / 2^(levels-1), ..., N.  The profile is evaluated on
    grid N only, so an N that cannot be halved levels - 1 times is
    refused before that."""
    RadialGrid.halvable(N, levels - 1)
    geom = orbit_geometry(profile, grid_for(profile, N))
    lams, result, _ = _solve(kind, geom, levels)
    return lams, result, geom


def solve_smallest(profile: WarpProfile, kind: OperatorKind, N: int,
                   richardson: bool = False) -> SpectralResult:
    """Assemble and solve at grid N; optionally Richardson-extrapolate
    the eigenvalue against the halved grid (second-order scheme, so
    lam_extrap = lam_N + (lam_N - lam_{N/2}) / 3).  The halved grid is
    solved first and its eigenfunction starts the N solve, whose
    iterations are the ones reported.

    The scalar kind reports the first nonzero eigenvalue.
    """
    lams, result, _ = _coarse_to_fine(profile, kind, N,
                                      levels=2 if richardson else 1)
    extrap = lams[1] + (lams[1] - lams[0]) / 3.0 if richardson else None
    return replace(result, extrapolated=extrap)


@dataclass(frozen=True)
class ConvergenceStudy:
    grids: tuple
    lambdas: tuple
    orders: tuple  # one entry per successive grid triple; None means exact


def convergence_study(profile: WarpProfile, kind: OperatorKind,
                      grids) -> ConvergenceStudy:
    """Eigenvalues over a doubling family of grids with observed orders
    (solved coarse to fine, see _coarse_to_fine).

    order p = log2((lam_N - lam_2N) / (lam_2N - lam_4N)) per triple;
    when successive eigenvalues agree to roundoff (a degenerate exact
    case such as the flat periodic product) the order is reported as
    exact (None).
    """
    grids = [RadialGrid.integral(g) for g in grids]
    if len(grids) < 3:
        raise ValueError("convergence study needs at least 3 grids")
    for a, b in zip(grids, grids[1:]):
        if b != 2 * a:
            raise ValueError("grids must double: got %d after %d" % (b, a))
    lams = _coarse_to_fine(profile, kind, grids[-1], len(grids))[0]
    orders = []
    for l1, l2, l3 in zip(lams, lams[1:], lams[2:]):
        d1 = l1 - l2
        d2 = l2 - l3
        scale = max(1.0, abs(l3))
        if abs(d1) < 1e-13 * scale and abs(d2) < 1e-13 * scale:
            orders.append(None)
        elif d2 == 0.0 or d1 / d2 <= 0.0:
            orders.append(float("nan"))
        else:
            orders.append(math.log2(d1 / d2))
    return ConvergenceStudy(grids=tuple(grids), lambdas=tuple(lams),
                            orders=tuple(orders))
