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

import importlib
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Union

import numpy as np
from numpy.linalg import LinAlgError

from ._openblas import quiet_threads
from .fields import InvariantField, InvariantFunction
from .geometry import OrbitGeometry, orbit_geometry, require
from .warp import RadialGrid, Topology, WarpProfile, grid_for


def _load_lapack():
    """scipy's f2py LAPACK extension module, whose dpttrf and dpttrs are
    the functions scipy.linalg.lapack exports, loaded by path without
    importing the scipy package or scipy.linalg, whose package imports
    are most of a cold start; the public module if the extension file
    is not there.

    Loading the extension maps scipy's own OpenBLAS, whose worker would
    busy-wait on another core for its thread timeout; dpttrf and dpttrs
    never wake it.  The library is mapped in module_from_spec, which
    runs inside quiet_threads (the policy numpy's OpenBLAS is imported
    with too, in cohomlab/__init__).
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("cohomlab needs scipy, which is not installed",
                          name="scipy")
    folder = os.path.join(scipy.submodule_search_locations[0], "linalg")
    paths = [os.path.join(folder, "_flapack" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        return importlib.import_module("scipy.linalg.lapack")
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack",
                                                  path)
    with quiet_threads():
        module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_lapack = _load_lapack()
dpttrf, dpttrs = _lapack.dpttrf, _lapack.dpttrs

# normwise backward error ||K x - lam W x|| / ((||K|| + |lam| ||W||) ||x||)
# at which an iterate counts as an exact eigenpair of a nearby problem
BACKWARD_TOL = 1e-15
# relative change of the eigenvalue between successive steps below
# which that backward error is checked
CHANGE_TOL = 1e-12
# far shift sigma = -SHIFT * max(1, |lam_0|), the fallback wherever a
# near shift (below) is refused.  K - sigma W must stay numerically
# definite: every pivot of its L D L^T factor (dpttrf) positive.  On
# the Neumann problem the constant mode gives it an eigenvalue of about
# |sigma| w dx against ||K|| ~ 4 w / dx, and the ratio |sigma| dx^2 / 4
# must stay well above machine epsilon: a shift of 1e-8 fails that from
# N = 2^16 on, 1e-2 holds past 2^20.
SHIFT = 1e-2
# near shift sigma = lam (1 - DELTA), just below the current quotient
# lam, which is never below the eigenvalue sought (Rayleigh): a step
# then cuts the error by about DELTA lam / (lam_2 - lam).  It is kept
# only if the factor that does the solves certifies, by Sylvester's law
# of inertia, that no eigenvalue sought lies below it (_near_shift).
# Its margin DELTA lam w dx against ||K|| keeps what that factor
# factors definite well above rounding: DELTA lam dx^2 / 4 is about
# 2e-14 at N = 2^20 on Round(1)
DELTA = 1e-2
# a solve whose first near shift was refused tries once more, at the
# first far-shift step that moves lam by at most RETRY |lam|
RETRY = DELTA / 10
MAX_ITER = 200
# nested_solve starts the coarsest grid it solves from a coarse solve when
# it takes three halvings, each of an even grid to one of at least COARSE_N
# nodes, to get below it: the coarse grid is where such halving stops.
# Other grids keep the analytic seed (N = 32770 halves to odd 16385)
COARSE_N = 4096
# numpy hands a dot product of more than 10^4 doubles to OpenBLAS's
# threaded ddot, whose worker threads then spin on the other cores for
# about 0.1 s after every call; blocks of this size stay single-threaded.
# When cohomlab is what imports numpy, quiet_threads makes the workers
# sleep at once, but a program that imported numpy first keeps the
# default timeout
DOT_BLOCK = 8192
# machine epsilon, the unit of the stop rule's rounding floor
EPS = float(np.finfo(float).eps)


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
    # a.dot(b): a @ b's BLAS ddot and bits at about half its call cost
    if a.size <= DOT_BLOCK:
        return float(a.dot(b))
    total = 0.0
    for s in _blocks(a.size):
        total += float(a[s].dot(b[s]))
    return total


def _blocks(size: int) -> list:
    """The slices of range(size), DOT_BLOCK entries each, that dot sums."""
    if size <= DOT_BLOCK:
        return [slice(0, size)]  # dot's one call, at a fifth of the cost
    return [slice(i, min(i + DOT_BLOCK, size))
            for i in range(0, size, DOT_BLOCK)]


def _combined_norm2(v: np.ndarray, c: float, W: np.ndarray, y: np.ndarray,
                    Wy: Optional[np.ndarray] = None) -> float:
    """||v + c W y||^2, summed as dot sums it, with no temporary longer
    than a block; v's entries are spent.  W y is read from Wy if the
    caller has it, else formed a block at a time and left in v."""
    total = 0.0
    for s in _blocks(y.size):
        wy = W[s] * y[s] if Wy is None else Wy[s]
        r = c * wy
        r += v[s]
        if Wy is None:
            v[s] = wy
        total += float(r.dot(r))
        del wy, r  # gone before the next block's are formed
    return total


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
        if not self._periodic:
            return c[:-1] + c[1:]
        s = np.empty(c.size)
        s[0] = c[-1] + c[0]
        np.add(c[:-1], c[1:], out=s[1:])
        return s

    def norm_bound(self, node: Optional[np.ndarray] = None) -> float:
        """Largest row sum of |K|, 2 (c_left + c_right) + potential,
        an upper bound on ||K||_2 that is tight for these stencils;
        node is _node_cond() if the caller has it, and is left as it is.
        """
        row = 2.0 * (self._node_cond() if node is None else node)
        if self.potential is not None:
            row += self.potential
        return float(row.max())

    def _diffs(self, x: np.ndarray, a: int = 0,
               b: Optional[int] = None) -> np.ndarray:
        """Differences of x (at the retained nodes) across cells a..b-1,
        by default all N: sphere-like cell j joins nodes j - 1 and j,
        against zero pole values; periodic cell j joins nodes j and
        j + 1 cyclically."""
        # the cells whose two nodes are both retained are lo..hi-1 (the
        # clamps are conditional expressions: with max and min a call
        # over one block's cells took about 13 % longer)
        m = x.size
        if b is None:
            b = self.cond.size
        d = np.empty(b - a)
        if self._periodic:
            hi = b if b < m - 1 else m - 1
            np.subtract(x[a + 1:hi + 1], x[a:hi], out=d[:hi - a])
            if b == m:
                d[-1] = x[0] - x[-1]
            return d
        lo = a if a > 1 else 1
        hi = b if b < m else m
        np.subtract(x[lo:hi], x[lo - 1:hi - 1], out=d[lo - a:hi - a])
        if a == 0:
            d[0] = x[0]
        if b == m + 1:
            d[-1] = -x[-1]
        return d

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """K x: at each node the flux of the cell before it minus that of
        the cell after it, plus the potential there."""
        flux = self._diffs(x)
        flux *= self.cond
        if self._periodic:  # the cell before node 0 is cell N - 1
            y = np.empty(x.size)
            y[0] = flux[-1] - flux[0]
            np.subtract(flux[:-1], flux[1:], out=y[1:])
        else:
            y = flux[:-1] - flux[1:]
        del flux  # gone before the potential's product is formed
        if self.potential is not None:
            y += self.potential * x
        return y

    def residual(self, x: np.ndarray, lam: float,
                 Wx: np.ndarray) -> np.ndarray:
        """K x - lam Wx for Wx = W x, as one whole array."""
        r = self.matvec(x)
        r -= lam * Wx
        return r

    def quadform(self, x: np.ndarray) -> float:
        """x^T K x in difference form, sum_cells cond (dx)^2 +
        sum_nodes potential x^2, each sum formed a block at a time and
        summed as dot sums it.  Every term is nonnegative, so the sum
        carries no cancellation: the relative rounding error stays at
        machine precision at any grid size, unlike x . (K x)."""
        num = 0.0
        for s in _blocks(self.cond.size):
            d = self._diffs(x, s.start, s.stop)
            num += float(d.dot(self.cond[s] * d))
            del d
        if self.potential is not None:
            pot = 0.0
            for s in _blocks(x.size):
                pot += float(x[s].dot(self.potential[s] * x[s]))
            num += pot
        return num


@dataclass(frozen=True)
class SpectralResult:
    """lam is the difference-form Rayleigh quotient of the eigenvector;
    residual its normwise backward error (see _inverse_iterate); shift
    the sigma of the K - sigma W solve that produced the eigenvector:
    the near shift lam (1 - DELTA) of some earlier quotient lam where
    its factor certified it, else the far shift -SHIFT max(1, |lam_0|),
    and None if the seed needed no step."""

    lam: float
    eigenfunction: Union[InvariantField, InvariantFunction]
    iterations: int
    residual: float
    shift: Optional[float]
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
    require(geom.profile, grid, positive=True, mass=weight)
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


def cho_solve_banded(factor: tuple, b: np.ndarray,
                     overwrite: bool = False) -> np.ndarray:
    """x with (L D L^T) x = b for factor = (d, e) from cholesky_banded
    (LAPACK dpttrs); b is left as it is unless overwrite, when x is
    computed in place over b, which the caller must own.  perfbench
    traces this function under this name (spectral.solve)."""
    x, info = dpttrs(*factor, b, overwrite_b=overwrite)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of dpttrs")
    return x


def _factor(op: DiscreteOperator, sigma: float, pin: Optional[int] = None,
            node: Optional[np.ndarray] = None):
    """Solver for K - sigma W from one tridiagonal L D L^T factor
    (dpttrf), which certifies that no eigenvalue lies below sigma, or
    with a pin exactly one (LinAlgError if not).  node, if given, is
    op._node_cond(), which the factor then overwrites.

    A sphere-like grid without a pin factors K - sigma W itself.
    Otherwise one retained node p is taken out: the pin, or node 0 on a
    circle, where the wrap-around entry couples it to the last node.
    What is factored is K - sigma W with the identity in row and column
    p, a tridiagonal diag(B, 1, B') (B empty at node 0) whose zero
    couplings leave each block's pivots exact.  K - sigma W is
    congruent to diag(B, B', s) with s the 1x1 Schur complement of node
    p, so by Sylvester's law of inertia s > 0 leaves no eigenvalue below
    sigma and s < 0 exactly one, for a scalar operator and sigma > 0
    the constants' 0: 0 < sigma < mu1 (Parlett, The Symmetric
    Eigenvalue Problem, ch. 3).  A solve is one dpttrs and an axpy.  A
    circle takes no pin: what is left of it after a node other than 0
    is not tridiagonal, and after node 0 its scalar problem keeps an
    eigenvalue below mu1 (mu1 / 4 on a flat circle), so no near shift
    would factor.
    """
    periodic = op._periodic
    if pin is not None and periodic:
        raise ValueError("a periodic operator takes no pin")
    # the diagonal is summed before it meets -sigma W: adding its two
    # terms to -sigma W one at a time rounds differently and moves
    # printed last digits.  d and e are fresh arrays: the factor
    # overwrites them, and a view of cond would corrupt the operator
    d = op._node_cond() if node is None else node
    if op.potential is not None:
        d += op.potential
    d += op.weight * -sigma
    e = -(op.cond[:-1] if periodic else op.cond[1:-1])
    if pin is None and not periodic:
        factor = cholesky_banded(d, e)
        return lambda b: cho_solve_banded(factor, b)

    p = pin or 0
    # node p's couplings (neighbour, entry), the wrap-around one last
    links = [(i, float(e[min(i, p)])) for i in (p - 1, p + 1)
             if 0 <= i < d.size]
    if periodic:
        links.append((d.size - 1, float(-op.cond[-1])))
    s = float(d[p])
    d[p] = 1.0
    e[max(p - 1, 0):p + 1] = 0.0
    factor = cholesky_banded(d, e)
    g = np.zeros(d.size)
    for i, c in links:
        g[i] += c
    g = cho_solve_banded(factor, g, overwrite=True)  # g[p] = 0
    for i, c in links:
        s -= c * g[i]
    if not (s > 0 if pin is None else s < 0):
        raise LinAlgError(f"Schur complement {s:.3e} at node {p} not "
                          + ("positive" if pin is None else "negative"))

    blocks = _blocks(d.size)

    def solve(r):
        x = cho_solve_banded(factor, r)
        xp = float(r[p])
        for i, c in links:
            xp -= c * x[i]
        xp /= s
        for b in blocks:
            x[b] -= xp * g[b]
        x[p] = xp
        return x

    return solve


def _sign_change(y: np.ndarray) -> int:
    """Of the two nodes around y's first sign change, the one where |y|
    is smaller."""
    neg = np.signbit(y)
    i = int((neg[1:] != neg[:-1]).argmax())
    return i if abs(y[i]) <= abs(y[i + 1]) else i + 1


def _near_shift(op: DiscreteOperator, lam: float, y: np.ndarray,
                node: Optional[np.ndarray] = None) -> Optional[tuple]:
    """(sigma, solver) for the near shift sigma = lam (1 - DELTA) from
    the quotient lam of the iterate y, kept only where the factor that
    does the solves certifies it, else None; node as for _factor.  A
    refused factor's arrays are gone when this returns.

    Vector kind: _factor finds no eigenvalue below sigma, so sigma lies
    below lambda_min.  Sphere-like scalar kind: pinned at y's sign
    change, _factor finds one, the constants', so 0 < sigma < mu1.  The
    periodic scalar kind has no such certificate (its eigenfunction
    changes sign twice) and is always refused, without a factor.
    """
    if op.kind is OperatorKind.SCALAR_LAPLACIAN and op._periodic:
        return None
    sigma = lam * (1.0 - DELTA)
    pin = None if op.kind is OperatorKind.ROUGH_VECTOR else _sign_change(y)
    try:
        return sigma, _factor(op, sigma, pin, node)
    except LinAlgError:
        return None


def _parity(kind: OperatorKind) -> str:
    """How an eigenfunction continues past a pole: fields odd, functions
    even (RadialGrid.ghosted)."""
    return "odd" if kind is OperatorKind.ROUGH_VECTOR else "even"


def _seed(op: DiscreteOperator, start) -> np.ndarray:
    """Deterministic start: start (an eigenfunction on the half grid)
    carried onto this grid by RadialGrid.prolong if given, else the
    lowest mode of -d^2/dr^2 that op's kind admits: for fields a half
    sine between poles or the constant on a circle; for functions the
    lowest cosine past the deflated constants, one half-wave between
    poles, one full wave around a circle."""
    grid = op.grid
    if start is not None:
        if start.grid != grid.half():
            raise ValueError("start must be an eigenfunction on the half grid")
        return grid.retained(start.grid.prolong(start.values,
                                                _parity(op.kind)))
    r = grid.interior
    sphere = grid.topology is Topology.SPHERE_LIKE
    if op.kind is OperatorKind.ROUGH_VECTOR:
        return np.sin(math.pi * r / grid.L) if sphere else np.ones(r.size)
    return np.cos((1.0 if sphere else 2.0) * math.pi * r / grid.L)


def _fix_sign(x: np.ndarray) -> None:
    """Flip x in place so that its first non-negligible entry is > 0."""
    # |x| is whole: the solve's factor and rows are gone by now
    a = np.abs(x)
    # argmax finds the first True; an all-zero x gives index 0, not flipped
    if x[(a > 1e-12 * a.max()).argmax()] < 0:
        np.negative(x, out=x)


def _inverse_iterate(op: DiscreteOperator, max_iter: int, start: list):
    """Shifted inverse iteration on K f = lambda W f from
    _seed(op, start.pop()), start being _eigenpair's one-element list.

    One step solves (K - sigma W) y = W x and takes lambda as the
    difference-form quotient of y.  sigma is the near shift of the
    seed's quotient (_near_shift) if its factor certifies it, else the
    far shift -SHIFT max(1, |lambda_0|).  Then, except on the periodic
    scalar kind, which has no certificate, the first step that moves
    lambda by at most RETRY |lambda| tries the near shift of the current
    iterate once more, and a second refusal keeps the far shift to the
    end.  Iteration stops once lambda moved by at most CHANGE_TOL
    max(|lambda|, eps ||K|| / max W) in the step and the
    normwise backward error (Rigal-Gaches) eta = ||K y - lambda W y|| /
    ((||K|| + |lambda| ||W||) ||y||) is at most BACKWARD_TOL.
    Since K y = W x + sigma W y, that residual costs no matvec, but the
    identity holds only for an exact solve: the returned residual, eta
    of op.residual's explicit K y - lambda W y at the accepted iterate,
    can exceed BACKWARD_TOL (4.4e-14 on an asymmetric spline's scalar
    solve at N = 256, where a stop test on it stalls).

    The scalar kind removes the constant mode W-orthogonally from
    every iterate (to step past the kernel of the scalar problem).
    """
    W = op.weight
    scale_W = float(W.max())
    scalar = op.kind is OperatorKind.SCALAR_LAPLACIAN
    mass = float(W.sum()) if scalar else None

    def project(v):
        if scalar:
            v -= dot(W, v) / mass
        return v

    def backward_error(r2, lam, v):
        # r2 = ||r||^2 of the residual r of lam at v
        return math.sqrt(r2 / dot(v, v)) / (scale_K + abs(lam) * scale_W)

    # above one block only two N-sized rows stay alive beside the
    # factor, the iterate y (W-normalized after each step) and Wy: a
    # step's solve replaces the spent y, W x stays in Wy's row until the
    # step's reductions, which take block-sized pieces, are done, and
    # the new W y is then formed there (by the backward error's pass in
    # a step that takes it).  At N = 2^20 a row is 8 MB.  Up to one
    # block W y gets a row of its own at once
    small = op.size <= DOT_BLOCK
    y = project(_seed(op, start.pop()))
    Wy = W * y
    norm = dot(y, Wy)
    if norm <= 0:
        raise ValueError("seed vector vanishes after deflation")
    y /= math.sqrt(norm)
    Wy /= math.sqrt(norm)
    lam = op.quadform(y)
    # one node-conductance sum gives ||K|| and the first factor's
    # diagonal, which that factor overwrites
    node = op._node_cond()
    scale_K = op.norm_bound(node)
    # rounding scale of a computed eigenvalue: near lambda = 0 a change
    # relative to |lambda| alone never passes (a flat product's constants
    # carried up by the cubic prolong give lambda ~ 1e-21, not 0)
    lam_floor = EPS * scale_K / scale_W
    if lam == 0.0:
        # every flux and potential term vanishes: the seed spans the
        # kernel (constants on a flat product) and needs no step.  A
        # scalar one is a constant left by deflation as rounding
        if scalar:
            raise ValueError("seed vector vanishes after deflation")
        del node  # gone before the explicit residual is formed whole
        r = op.residual(y, lam, Wy)
        return lam, y, 0, backward_error(dot(r, r), lam, y), None

    # node, spent by a refused near factor, is gone before the far one
    # is made: no solve ever holds two factors
    near = _near_shift(op, lam, y, node)
    del node
    retry = near is None and not (scalar and op._periodic)
    far = -SHIFT * max(1.0, abs(lam))
    sigma, solve = near or (far, _factor(op, far))
    del near  # solve is then the only reference to the factor
    change = math.inf
    for it in range(1, max_iter + 1):
        Wx = Wy
        del y  # spent: the solve's output takes its place
        y = project(solve(Wx))
        if small:
            Wy = W * y
            yWy = dot(y, Wy)
        else:
            Wy, yWy = None, 0.0
            for b in _blocks(y.size):
                yWy += float(y[b].dot(W[b] * y[b]))
        lam_prev, lam = lam, op.quadform(y) / yWy
        change = abs(lam - lam_prev)
        checked = change <= CHANGE_TOL * max(abs(lam), lam_floor)
        eta = math.inf
        if checked:
            # K y - lam W y = W x + (sigma - lam) W y
            eta = backward_error(
                _combined_norm2(Wx, sigma - lam, W, y, Wy), lam, y)
        if Wy is None:
            # W y takes Wx's row, where _combined_norm2 has put it
            Wy = Wx if checked else np.multiply(W, y, out=Wx)
        del Wx  # spent; freed before the explicit check below
        s = 1.0 / math.sqrt(yWy)
        y *= s
        Wy *= s
        if eta <= BACKWARD_TOL:
            del solve  # the factor, gone before r is formed
            r = op.residual(y, lam, Wy)
            return lam, y, it, backward_error(dot(r, r), lam, y), sigma
        if retry and change <= RETRY * abs(lam):
            # the far shift's factor goes first, and is made again if the
            # near shift is refused
            retry, solve = False, None
            sigma, solve = (_near_shift(op, lam, y)
                            or (sigma, _factor(op, sigma)))
    del solve
    r = op.residual(y, lam, Wy)
    eta = backward_error(dot(r, r), lam, y)
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (backward error "
        f"{eta:.3e}, target {BACKWARD_TOL:g}; last eigenvalue change "
        f"{change:.3e}, target {CHANGE_TOL * max(abs(lam), lam_floor):.3e})",
        last_residual=eta)


def _package(op: DiscreteOperator, lam: float, x: np.ndarray, iterations: int,
             residual: float, shift: Optional[float]) -> SpectralResult:
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
    # values is a fresh array here, and a field's poles are exactly 0.0
    eigenfunction = (InvariantField._owning(values, grid) if vector
                     else InvariantFunction(values=values, grid=grid))
    return SpectralResult(lam=lam, eigenfunction=eigenfunction,
                          iterations=iterations, residual=residual,
                          shift=shift, grid_N=grid.N)


def _eigenpair(op: DiscreteOperator, kind: OperatorKind, max_iter: int,
               start: list) -> SpectralResult:
    """The solve behind both entry points, refusing an operator of the
    other kind: op.kind alone picks the seed and the deflation.  start
    is a list holding the entry point's start, which the iteration
    empties once the start is carried onto op's grid: a start handed on
    by its caller is then not kept alive through the iteration."""
    if op.kind is not kind:
        raise ValueError(f"this query needs a {kind.value} operator, "
                         f"got {op.kind.value}")
    return _package(op, *_inverse_iterate(op, max_iter, start))


def smallest_eigenpair(op: DiscreteOperator, max_iter: int = MAX_ITER,
                       start=None) -> SpectralResult:
    """Smallest eigenvalue of K f = lambda W f by shifted inverse iteration.

    Deterministic: the seed is start (an eigenfunction on the half
    grid) interpolated onto this grid, or else _seed's analytic one.
    """
    start = [start]  # rebound: the list, which _eigenpair empties
    return _eigenpair(op, OperatorKind.ROUGH_VECTOR, max_iter, start)


def first_nonzero_scalar_eigenvalue(op: DiscreteOperator,
                                    max_iter: int = MAX_ITER,
                                    start=None) -> SpectralResult:
    """Smallest eigenvalue on the subspace W-orthogonal to constants.

    The scalar operator annihilates constants (the flux form
    telescopes), so the first nonzero eigenvalue is found by deflating
    the constant mode from every iterate.  A start in the constants
    leaves nothing once deflated, and raises ValueError.
    """
    start = [start]  # rebound: the list, which _eigenpair empties
    return _eigenpair(op, OperatorKind.SCALAR_LAPLACIAN, max_iter, start)


def nested_solve(kind: OperatorKind, geom: OrbitGeometry,
                 levels: int = 1) -> tuple:
    """(eigenvalues coarse to fine, result) of kind on geom's grid and
    the levels - 1 grids below it, each solve started from the
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
            del values
    # each start is handed on, not kept: no name here holds it while the
    # solve it seeds runs (_eigenpair).  Each coarser operator is dropped
    # before the next is assembled
    lams, starts = [], [start]
    del start
    for g in reversed(chain[1:levels]):
        result = solve(assemble(kind, g), start=starts.pop())
        lams.append(result.lam)
        starts.append(result.eigenfunction)
        del result
    result = solve(assemble(kind, geom), start=starts.pop())
    lams.append(result.lam)
    return lams, result


def solve_smallest(profile: WarpProfile, kind: OperatorKind, N: int,
                   richardson: bool = False) -> SpectralResult:
    """Assemble and solve at grid N; optionally Richardson-extrapolate
    the eigenvalue against the halved grid (second-order scheme, so
    lam_extrap = lam_N + (lam_N - lam_{N/2}) / 3).  The halved grid is
    solved first and its eigenfunction starts the N solve, whose
    iterations are the ones reported.

    The scalar kind reports the first nonzero eigenvalue.  An N without
    the half grid Richardson needs is refused before the profile is
    evaluated on any grid.
    """
    levels = 2 if richardson else 1
    grid = grid_for(profile, RadialGrid.halvable(N, levels - 1))
    lams, result = nested_solve(kind, orbit_geometry(profile, grid), levels)
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
    (solved coarse to fine by nested_solve).

    order p = log2((lam_N - lam_2N) / (lam_2N - lam_4N)) per triple;
    when successive eigenvalues agree to roundoff (a degenerate exact
    case such as the flat periodic product) the order is reported as
    exact (None).
    """
    grids = RadialGrid.doubling(grids)
    grid = grid_for(profile, RadialGrid.halvable(grids[-1], len(grids) - 1))
    lams = nested_solve(kind, orbit_geometry(profile, grid), len(grids))[0]
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
