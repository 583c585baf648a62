import inspect
import json
import math
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cohomlab
from cohomlab import spectral
from cohomlab import (ConvergenceError, InvariantField,
                      InvariantFunction, OperatorKind, Topology, assemble,
                      convergence_study, energy_functional,
                      first_nonzero_scalar_eigenvalue, grid_for, make_preset,
                      orbit_geometry, profile_from_samples,
                      smallest_eigenpair, solve_smallest)


def _op(profile, kind, N=512):
    grid = grid_for(profile, N)
    geom = orbit_geometry(profile, grid)
    return assemble(kind, geom), grid, geom


def _dense(op):
    """K as a dense matrix, column by column from matvec."""
    return np.column_stack([op.matvec(e) for e in np.eye(op.size)])


def test_assemble_shapes_and_boundaries(round_n2, periodic_n3):
    # Dirichlet and periodic operators conduct through all N cells;
    # Neumann cuts the two pole cells so that no flux leaves
    op, grid, _ = _op(round_n2, OperatorKind.ROUGH_VECTOR)
    assert op.size == grid.N - 1
    assert op.cond.size == grid.N and np.all(op.cond > 0)
    op, grid, _ = _op(round_n2, OperatorKind.SCALAR_LAPLACIAN)
    assert op.cond.size == grid.N and op.cond[0] == op.cond[-1] == 0.0
    op, grid, _ = _op(periodic_n3, OperatorKind.ROUGH_VECTOR)
    assert op.size == grid.N
    assert op.cond.size == grid.N and np.all(op.cond > 0)


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("profile", ["round_n2", "periodic_n3"])
def test_factor_matches_dense_solve(request, profile, kind):
    # the band _factor builds from cond and potential, with node 0
    # pinned on a circle, solves K - sigma W exactly
    op, _, _ = _op(request.getfixturevalue(profile), kind, 64)
    sigma = -0.3
    b = np.random.default_rng(3).standard_normal(op.size)
    ref = np.linalg.solve(_dense(op) - sigma * np.diag(op.weight), b)
    x = spectral._factor(op, sigma)(b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("profile", ["round_n2", "periodic_n3"])
def test_factor_refuses_indefinite_shift(request, profile, kind):
    # sigma = 50 lies above the lowest eigenvalues, so K - sigma W is
    # indefinite and the factor's pivot check must say so
    op, _, _ = _op(request.getfixturevalue(profile), kind, 64)
    with pytest.raises(np.linalg.LinAlgError):
        spectral._factor(op, sigma=50.0)


def _dense_eigh(op):
    """Eigenvalues and W-orthonormal eigenvectors of the dense pencil."""
    return scipy.linalg.eigh(_dense(op), np.diag(op.weight))


def test_pinned_factor_matches_dense_solve(bump01_n2):
    # pinned at the sign change of the dense mu1 eigenvector, with
    # 0 < sigma < mu1, the factor solves K - sigma W exactly
    op, _, _ = _op(bump01_n2, OperatorKind.SCALAR_LAPLACIAN, 64)
    mu, v = _dense_eigh(op)
    sigma = 0.99 * mu[1]
    b = np.random.default_rng(3).standard_normal(op.size)
    ref = np.linalg.solve(_dense(op) - sigma * np.diag(op.weight), b)
    x = spectral._factor(op, sigma, spectral._sign_change(v[:, 1]))(b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_factor_refuses_a_vector_shift_above_lambda_min(bump01_n2):
    op, _, _ = _op(bump01_n2, OperatorKind.ROUGH_VECTOR, 256)
    lam = _dense_eigh(op)[0][0]
    spectral._factor(op, lam * (1 - 1e-3))
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        spectral._factor(op, lam * (1 + 1e-3))


def test_factor_refuses_a_periodic_shift_by_the_schur_complement(
        periodic_n3):
    # just above lambda_min the nodes left after node 0 still have an
    # L D L^T factor (Cauchy interlacing); only the sign of node 0's
    # Schur complement says that K - sigma W is indefinite
    op, _, _ = _op(periodic_n3, OperatorKind.ROUGH_VECTOR, 256)
    lam = _dense_eigh(op)[0][0]
    spectral._factor(op, lam * (1 - 1e-3))
    with pytest.raises(np.linalg.LinAlgError,
                       match="Schur complement .* at node 0 not positive"):
        spectral._factor(op, lam * (1 + 1e-3))


def test_pinned_factor_refuses_a_shift_above_mu1_or_off_the_sign_change(
        bump01_n2):
    op, _, _ = _op(bump01_n2, OperatorKind.SCALAR_LAPLACIAN, 256)
    mu, v = _dense_eigh(op)
    p = spectral._sign_change(v[:, 1])
    spectral._factor(op, mu[1] * (1 - 1e-2), p)
    # above mu1 one of the two blocks is indefinite (Cauchy interlacing)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        spectral._factor(op, mu[1] * (1 + 1e-3), p)
    # pinned a quarter of the way along, or at the first node, the
    # longer block's own lowest eigenvalue lies below sigma
    for q in (op.size // 4, 0):
        with pytest.raises(np.linalg.LinAlgError,
                           match="not positive definite"):
            spectral._factor(op, mu[1] * (1 - 1e-2), q)
    # below 0 both blocks factor, but so does all of K - sigma W: the
    # Schur complement is positive and nothing certifies sigma < mu1
    with pytest.raises(np.linalg.LinAlgError,
                       match="Schur complement .* not negative"):
        spectral._factor(op, -0.3, p)


@pytest.mark.parametrize("pin", [0, 5])
def test_factor_refuses_a_pin_on_a_circle(periodic_n3, pin):
    # a circle minus a node other than 0 is no tridiagonal, and minus
    # node 0 its scalar problem keeps an eigenvalue below mu1
    op, _, _ = _op(periodic_n3, OperatorKind.SCALAR_LAPLACIAN, 64)
    with pytest.raises(ValueError, match="takes no pin"):
        spectral._factor(op, 0.5, pin)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(preset=st.sampled_from([("Round", {"k": 1.0}),
                               ("Bump", {"eps": 0.1}),
                               ("PeriodicProduct", {"c": 1.0, "a": 0.3}),
                               ("PeriodicProduct", {"c": 1.0, "a": 0.0})]),
       kind=st.sampled_from(list(OperatorKind)),
       n=st.integers(2, 5), N=st.sampled_from([16, 64, 256]),
       t=st.floats(-1.5, 1.0),
       pin=st.one_of(st.integers(-2, 2), st.floats(0.0, 1.0)))
def test_factor_certificate_matches_dense_inertia(preset, kind, n, N, t,
                                                   pin):
    # whenever _factor returns, a dense generalized eigh counts exactly
    # the eigenvalues below sigma that its certificate claims: none, or
    # with a pin (sphere-like scalar kind) one, and it solves
    # K - sigma W exactly
    name, params = preset
    op, grid, _ = _op(make_preset(name, n=n, **params), kind, N)
    lams, v = _dense_eigh(op)
    pinned = (kind is OperatorKind.SCALAR_LAPLACIAN
              and grid.topology is Topology.SPHERE_LIKE)
    # sigma spans the gaps on both sides of the lowest eigenvalue it
    # must stay below, lams[j], but keeps clear of every eigenvalue,
    # where neither oracle is exact
    j = 1 if pinned else 0
    below = lams[j] - lams[j - 1] if j else lams[1] - lams[0]
    sigma = lams[j] + t * (lams[j + 1] - lams[j] if t > 0 else below)
    assume(np.min(np.abs(lams - sigma)) >= 1e-5 * lams[-1])
    # an int pin is an offset from the sign change of the dense mu1
    # eigenvector, a float one a fraction of the way along the grid
    p = None
    if pinned and isinstance(pin, int):
        p = min(max(spectral._sign_change(v[:, 1]) + pin, 0), op.size - 1)
    elif pinned:
        p = min(int(pin * op.size), op.size - 1)
    try:
        solve = spectral._factor(op, sigma, p)
    except np.linalg.LinAlgError:
        return
    assert np.sum(lams < sigma) == (1 if pinned else 0)
    b = np.random.default_rng(N).standard_normal(op.size)
    ref = np.linalg.solve(_dense(op) - sigma * np.diag(op.weight), b)
    x = solve(b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def _refuse(*args):
    raise np.linalg.LinAlgError("refused")


@pytest.mark.parametrize("profile, kind, force, message", [
    ("bump01_n2", OperatorKind.ROUGH_VECTOR, "above", "positive definite"),
    ("periodic_n3", OperatorKind.ROUGH_VECTOR, "above", "Schur complement"),
    ("bump01_n2", OperatorKind.SCALAR_LAPLACIAN, "above", "positive definite"),
    ("bump01_n2", OperatorKind.SCALAR_LAPLACIAN, "off_node",
     "positive definite"),
])
def test_refused_near_shift_keeps_the_far_shift(request, monkeypatch,
                                                profile, kind, force,
                                                message):
    # a near shift above the eigenvalue sought (DELTA < 0) or a split
    # pinned a quarter of the way along is refused at the seed and at
    # the re-try, and the solve is then the far-shift one alone
    op, _, _ = _op(request.getfixturevalue(profile), kind, 1024)
    solve = (smallest_eigenpair if kind is OperatorKind.ROUGH_VECTOR
             else first_nonzero_scalar_eigenvalue)
    with monkeypatch.context() as m:
        m.setattr(spectral, "_near_shift", _refuse)
        far = solve(op)
    refusals = []
    near = spectral._near_shift

    def spy(*args):
        try:
            return near(*args)
        except np.linalg.LinAlgError as exc:
            refusals.append(str(exc))
            raise

    monkeypatch.setattr(spectral, "_near_shift", spy)
    if force == "above":
        monkeypatch.setattr(spectral, "DELTA", -spectral.DELTA)
    else:
        monkeypatch.setattr(spectral, "_sign_change", lambda y: y.size // 4)
    res = solve(op)
    assert len(refusals) == 2
    assert all(message in r for r in refusals), refusals
    assert res.shift == far.shift < 0
    assert res.lam == pytest.approx(far.lam, rel=1e-12)


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("profile", ["round_n2", "periodic_n3"])
def test_factor_leaves_operator_alone(request, profile, kind):
    # the LAPACK factor works in place: it must get fresh arrays, never
    # a view of the operator's own
    op, _, _ = _op(request.getfixturevalue(profile), kind, 64)
    arrays = [a for a in (op.cond, op.potential, op.weight) if a is not None]
    before = [a.copy() for a in arrays]
    spectral._factor(op, -0.3)(np.ones(op.size))
    for a, saved in zip(arrays, before):
        assert np.array_equal(a, saved)


def test_mass_is_positive(round_n2, periodic_n3):
    for prof in (round_n2, periodic_n3):
        for kind in OperatorKind:
            op, _, _ = _op(prof, kind)
            assert np.all(op.weight > 0)


def test_scalar_operator_annihilates_constants(round_n2, periodic_n3):
    for prof in (round_n2, periodic_n3):
        op, _, _ = _op(prof, OperatorKind.SCALAR_LAPLACIAN)
        ones = np.ones(op.size)
        resid = np.max(np.abs(op.matvec(ones)))
        assert resid <= 1e-12 * np.max(op.cond)


def test_round_vector_eigenvalue(round_n2):
    res = solve_smallest(round_n2, OperatorKind.ROUGH_VECTOR, 1024)
    assert res.lam == pytest.approx(1.0, rel=1e-5)
    assert res.iterations > 0
    assert isinstance(res.eigenfunction, InvariantField)


def test_round_scalar_mu1(round_n3):
    res = solve_smallest(round_n3, OperatorKind.SCALAR_LAPLACIAN, 1024)
    assert res.lam == pytest.approx(3.0, rel=1e-5)
    assert isinstance(res.eigenfunction, InvariantFunction)
    # W-orthogonal to constants
    grid = res.eigenfunction.grid
    geom = orbit_geometry(round_n3, grid)
    mean = float(np.sum(grid.retained(res.eigenfunction.values)
                        * geom.w_interior)) * grid.dx
    assert abs(mean) <= 1e-8


def test_rayleigh_consistency(round_n2, bump01_n2, periodic_n3):
    # lam is the difference-form quotient of the returned eigenvector,
    # recomputed here from the operator's conductances and mass
    for prof in (round_n2, bump01_n2, periodic_n3):
        for kind in OperatorKind:
            res = solve_smallest(prof, kind, 512)
            op, grid, _ = _op(prof, kind, 512)
            v = res.eigenfunction.values
            # cell differences: cyclic on a circle, else across the
            # stored (zero or extended) pole values, whose cells a
            # Neumann operator does not conduct through
            d = np.diff(np.append(v, v[0]) if prof is periodic_n3 else v)
            x = grid.retained(v)
            num = np.sum(op.cond * d * d)
            if op.potential is not None:
                num += np.sum(op.potential * x * x)
            den = float(np.sum(x * op.weight * x))
            assert res.lam == pytest.approx(num / den, rel=1e-12)


def test_residual_certificate(bump01_n2):
    op, _, _ = _op(bump01_n2, OperatorKind.ROUGH_VECTOR, 1024)
    res = smallest_eigenpair(op)
    x = op.grid.retained(res.eigenfunction.values)
    r = op.matvec(x) - res.lam * op.weight * x
    assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(op.weight * x)
    # the reported residual is the normwise backward error, here
    # recomputed from the dense K with the exact 2-norm
    K = _dense(op)
    r = K @ x - res.lam * op.weight * x
    eta = np.linalg.norm(r) / ((np.linalg.norm(K, 2) + abs(res.lam)
                                * np.max(op.weight)) * np.linalg.norm(x))
    assert eta <= 1e-15
    assert res.residual == pytest.approx(eta, rel=0.5, abs=1e-17)


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("n", [2, 3, 7])
@pytest.mark.parametrize("family, params", [
    ("Round", {"k": 1.0}), ("Round", {"k": 2.0}),
    ("Bump", {"eps": 0.08}), ("Bump", {"eps": 0.3}),
    ("PeriodicProduct", {"c": 1.0, "a": 0.0}),
    ("PeriodicProduct", {"c": 1.0, "a": 0.3}),
])
def test_eigenvalue_matches_dense_eigh(family, params, n, kind):
    # the dense generalized eigenproblem K f = lambda W f is the oracle:
    # the vector kind reports its smallest eigenvalue, the scalar kind
    # its second (the first is the constants' zero)
    profile = make_preset(family, n=n, **params)
    op, _, _ = _op(profile, kind, 256)
    dense = scipy.linalg.eigh(_dense(op), np.diag(op.weight),
                              eigvals_only=True)
    want = dense[0 if kind is OperatorKind.ROUGH_VECTOR else 1]
    assert solve_smallest(profile, kind, 256).lam \
        == pytest.approx(want, rel=1e-10)


def _asymmetric_spline(i):
    """Spline i of 40 fixed sphere-like profiles sin r (1 + sum_j a_j
    sin^2(j r) + b sin r cos r), j = 1..3, with n = 2 + i % 6: phi > 0
    inside, slopes +1 / -1 at the poles, and no mirror symmetry, so the
    scalar eigenfunction's sign change sits off the seed's."""
    rng = np.random.default_rng(i)
    a, b = rng.uniform(-0.15, 0.15, 3), rng.uniform(-0.3, 0.3)
    r = np.linspace(0.0, math.pi, 129)
    s = np.sin(r)
    phi = s * (1.0 + sum(aj * np.sin(j * r) ** 2
                         for j, aj in enumerate(a, 1)) + b * s * np.cos(r))
    return profile_from_samples(r, phi, 2 + i % 6)


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("i", range(40))
def test_eigenvalue_matches_dense_eigh_on_asymmetric_splines(i, kind):
    # whichever shift each solve ends on, near (seed or re-try) or far
    profile = _asymmetric_spline(i)
    op, _, _ = _op(profile, kind, 256)
    want = _dense_eigh(op)[0][0 if kind is OperatorKind.ROUGH_VECTOR else 1]
    assert solve_smallest(profile, kind, 256).lam \
        == pytest.approx(want, rel=1e-10)


_FINE_PROFILES = {
    "round": dict(family="Round", n=3, k=1.0),
    "bump": dict(family="Bump", n=3, eps=0.08),
    "periodic": dict(family="PeriodicProduct", n=3, c=1.0, a=0.3),
}


@pytest.mark.parametrize("N", [2 ** 15, 2 ** 17])
@pytest.mark.parametrize("name", sorted(_FINE_PROFILES))
def test_solvers_converge_on_fine_grids(name, N):
    spec = dict(_FINE_PROFILES[name])
    prof = make_preset(spec.pop("family"), **spec)
    geom = orbit_geometry(prof, grid_for(prof, N))
    vec = smallest_eigenpair(assemble(OperatorKind.ROUGH_VECTOR, geom))
    scal = first_nonzero_scalar_eigenvalue(
        assemble(OperatorKind.SCALAR_LAPLACIAN, geom))
    for res in (vec, scal):
        assert res.residual <= 1e-14
        assert 0 < res.iterations < 50
    if name == "round":
        assert vec.lam == pytest.approx(1.0, rel=1e-9)
        assert scal.lam == pytest.approx(3.0, rel=1e-9)


@pytest.mark.parametrize("N", [1024, 2 ** 15])
@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("n", [2, 3, 7])
@pytest.mark.parametrize("name", sorted(_FINE_PROFILES))
def test_coarse_start_matches_seed(name, n, kind, N):
    # the N solve started from the interpolated N/2 eigenfunction
    # reaches the seeded solve's eigenpair under the same certificate,
    # and at fine grids the cubic interpolant needs a single step
    spec = dict(_FINE_PROFILES[name], n=n)
    prof = make_preset(spec.pop("family"), **spec)
    geom = orbit_geometry(prof, grid_for(prof, N))
    half = geom.restrict()
    solve = (smallest_eigenpair if kind is OperatorKind.ROUGH_VECTOR
             else first_nonzero_scalar_eigenvalue)
    start = solve(assemble(kind, half)).eigenfunction
    op = assemble(kind, geom)
    warm, cold = solve(op, start=start), solve(op)
    assert warm.lam == pytest.approx(cold.lam, rel=1e-12)
    assert max(warm.residual, cold.residual) <= 1e-15
    if N == 2 ** 15:
        assert warm.iterations == 1


def _cold(kind, geom, start=None):
    """The op-level solve from start, or else from the analytic seed."""
    op = assemble(kind, geom)
    if kind is OperatorKind.ROUGH_VECTOR:
        return smallest_eigenpair(op, start=start)
    return first_nonzero_scalar_eigenvalue(op, start=start)


def _peak(fn, N):
    """tracemalloc's peak while fn() runs, in units of N doubles."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (8 * N)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["bump", "periodic"])
def test_solve_and_check_bound_memory(name):
    # what one solve allocates on top of its assembled operator: the
    # iterate, W y, W x, the factor's d and e (and a pinned factor's g),
    # a solve's output and a quotient's two temporaries.  A refused near
    # shift's arrays must be gone before the far shift factors, and the
    # far shift's before a re-try factors (with both alive the periodic
    # vector seed peaks above 9 N doubles); no operator or solve may
    # keep another N-sized array.  check_bound's bound is its measured
    # peak, 17.54 N doubles, rounded up.  The lower bound shows that
    # tracemalloc sees numpy's buffers
    N = 2 ** 15
    spec = dict(_FINE_PROFILES[name])
    prof = make_preset(spec.pop("family"), **spec)
    geom = orbit_geometry(prof, grid_for(prof, N))
    for kind in OperatorKind:
        half = _cold(kind, geom.restrict()).eigenfunction
        op = assemble(kind, geom)
        for start in (None, half):
            assert 6.0 < _peak(
                lambda: spectral._eigenpair(op, kind, 200, start), N) <= 9.0
    del geom, op, half
    assert _peak(lambda: cohomlab.check_bound(prof, N), N) <= 18.0


@pytest.mark.parametrize("N", [2 ** 15, 3 * 2 ** 14])
@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("n", [2, 3, 7])
@pytest.mark.parametrize("name", sorted(_FINE_PROFILES))
def test_cold_fine_solve_starts_on_the_coarse_grid(name, n, kind, N):
    # on these multiples of 8 with N >= 8 * COARSE_N, a solve without a
    # start begins on a grid of 4096..8191 nodes, whose eigenfunction,
    # carried up by the cubic, leaves the N solve a single step (the
    # analytic seed takes 3-5 off the round sphere, and 10-13 for the
    # periodic scalar kind, which keeps the far shift)
    spec = dict(_FINE_PROFILES[name], n=n)
    prof = make_preset(spec.pop("family"), **spec)
    geom = orbit_geometry(prof, grid_for(prof, N))
    warm, cold = spectral.nested_solve(kind, geom)[1], _cold(kind, geom)
    assert warm.lam == pytest.approx(cold.lam, rel=1e-12)
    assert warm.residual <= 1e-15
    assert warm.iterations == 1


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("N, levels, sizes", [
    (2 ** 15, 1, [2 ** 12, 2 ** 15]),
    (3 * 2 ** 14, 1, [6144, 3 * 2 ** 14]),
    (2 ** 16, 2, [2 ** 12, 2 ** 15, 2 ** 16]),
])
def test_failed_coarse_solve_falls_back_to_the_seed(kind, N, levels, sizes,
                                                    monkeypatch):
    # a coarse solve that raises ConvergenceError leaves the solves above
    # it exactly those from the analytic seed (a doubling pair: its N/2
    # solve cold, its N solve from that), so it fails nowhere a cold
    # solve succeeds
    bump = make_preset("Bump", n=3, eps=0.08)
    geom = orbit_geometry(bump, grid_for(bump, N))
    cold = [_cold(kind, geom.restrict() if levels == 2 else geom)]
    if levels == 2:
        cold.append(_cold(kind, geom, start=cold[0].eigenfunction))
    seen = []
    iterate = spectral._inverse_iterate

    def coarse_fails(op, *a, **k):
        seen.append(op.grid.N)
        if op.grid.N < 8 * spectral.COARSE_N:
            raise ConvergenceError("forced", last_residual=1.0)
        return iterate(op, *a, **k)

    monkeypatch.setattr(spectral, "_inverse_iterate", coarse_fails)
    lams, res, _ = spectral.nested_solve(kind, geom, levels)
    assert seen == sizes
    assert lams == [c.lam for c in cold]
    assert (res.iterations, res.residual) \
        == (cold[-1].iterations, cold[-1].residual)
    np.testing.assert_array_equal(res.eigenfunction.values,
                                  cold[-1].eigenfunction.values)


# most steps per solve below the coarse-start grids, by (kind, started
# from the half grid); the far shift alone takes 5-9, 2-5 and 6-17
_STEP_LIMITS = {
    (OperatorKind.ROUGH_VECTOR, False): 3,
    (OperatorKind.ROUGH_VECTOR, True): 2,
    (OperatorKind.SCALAR_LAPLACIAN, False): 4,
    (OperatorKind.SCALAR_LAPLACIAN, True): 4,
}
_STEP_PROFILES = [("Round", {"k": 1.0}), ("Bump", {"eps": 0.08}),
                  ("Bump", {"eps": 0.25})]


@pytest.mark.parametrize("N", [1024, 4096])
@pytest.mark.parametrize("n", [2, 3, 7])
@pytest.mark.parametrize("entry, family, params", [
    (entry, family, params) for entry in
    ("check_bound", "obata_check", "vector", "scalar")
    for family, params in _STEP_PROFILES
    # obata_check refuses kappa2 = 1 - 6 eps < 0
    if not (entry == "obata_check" and params.get("eps") == 0.25)])
def test_every_solve_keeps_a_near_shift(monkeypatch, entry, family, params,
                                        n, N):
    # every solve of these entry points ends on a certified near shift,
    # in at most _STEP_LIMITS steps: a silent fallback to the far shift
    # fails here
    solves = []
    iterate = spectral._inverse_iterate

    def spy(op, max_iter, start=None):
        out = iterate(op, max_iter, start)
        solves.append((op.kind, start is not None, out[2], out[-1]))
        return out

    monkeypatch.setattr(spectral, "_inverse_iterate", spy)
    profile = make_preset(family, n=n, **params)
    if entry == "check_bound":
        cohomlab.check_bound(profile, N=N)
    elif entry == "obata_check":
        cohomlab.obata_check(profile, N=N)
    else:
        solve_smallest(profile, OperatorKind.ROUGH_VECTOR if entry == "vector"
                       else OperatorKind.SCALAR_LAPLACIAN, N, richardson=True)
    assert solves
    for kind, warm, steps, shift in solves:
        assert shift > 0, (kind, warm)
        assert steps <= _STEP_LIMITS[kind, warm], (kind, warm)


def _phase_trap(p):
    r = np.linspace(0.0, 2 * math.pi, 129)
    phi = 1.0 + 0.3 * np.sin(r + p)
    phi[-1] = phi[0]
    return profile_from_samples(r, phi, 3, topology=Topology.PERIODIC)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0, math.pi / 2])
def test_coarse_start_keeps_the_seed_eigenvalue_on_the_phase_trap(p):
    # phi = 1 + 0.3 sin(r + p) has mu1 = 1.01540 and mu2 = 1.11159 with
    # a rate near 0.91 between them: the cold solve takes 11-151 steps
    # at 2^15 and the coarse one up to 197 of MAX_ITER at 4096.  The
    # coarse start stays in the seed's parity class, so at p = pi/2
    # both return mu2 (ROADMAP item 8), not one of each
    prof = _phase_trap(p)
    N = 2 ** 15
    geom = orbit_geometry(prof, grid_for(prof, N))
    cold = _cold(OperatorKind.SCALAR_LAPLACIAN, geom)
    warm = solve_smallest(prof, OperatorKind.SCALAR_LAPLACIAN, N)
    assert warm.lam == pytest.approx(cold.lam, rel=1e-12)
    mu = 1.11159 if p == math.pi / 2 else 1.01540
    assert warm.lam == pytest.approx(mu, abs=1e-5)


def test_fine_solve_stays_on_one_core(package_env):
    # a BLAS dot product on more than 10^4 doubles wakes OpenBLAS's
    # thread pool, whose workers then spin on the other cores: the
    # CPU time of a fine solve would be about twice its wall time on
    # two cores.  numpy is imported first, so its OpenBLAS keeps the
    # default thread timeout (cohomlab would import it with the
    # shortest, after which the workers sleep at once and the blocks
    # would not be tested).  The timed runs follow a warm-up run, so
    # this does not see the spin of the workers each OpenBLAS copy
    # starts when it is mapped at import; test_lapack_loader checks
    # that.  A fresh interpreter keeps other tests' threads out.
    code = textwrap.dedent("""
        import time
        import numpy
        from cohomlab import OperatorKind, make_preset, solve_smallest
        prof = make_preset("Round", n=3, k=1.0)
        def run():
            solve_smallest(prof, OperatorKind.ROUGH_VECTOR, 2 ** 17,
                           richardson=True)
        run()
        wall, cpu = time.perf_counter(), time.process_time()
        for _ in range(3):
            run()
        print((time.process_time() - cpu) / (time.perf_counter() - wall))
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=package_env).stdout
    assert float(out) <= 1.3


LOADER_CHECK = """
import importlib.util, json, os, sys
{before}
seen, umath = [], []
real = importlib.util.module_from_spec
def spy(spec):
    seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
    return real(spec)
importlib.util.module_from_spec = spy
class UmathSpy:
    # numpy's OpenBLAS is mapped when this extension module is loaded
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy._core._multiarray_umath":
            umath.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
sys.meta_path.insert(0, UmathSpy)
env = dict(os.environ)
from cohomlab import spectral
facts = {{"loaded": [m for m in ("scipy.linalg", "numpy.f2py")
                    if m in sys.modules],
          "env_kept": dict(os.environ) == env, "seen": seen,
          "umath": umath}}
import numpy as np, scipy.linalg
facts["same"] = (scipy.linalg.lapack.dpttrf is spectral.dpttrf
                 and scipy.linalg.lapack.dpttrs is spectral.dpttrs)
facts["eigh"] = scipy.linalg.eigh(np.diag([2.0, 1.0]), eigvals_only=True
                                  ).tolist()
print(json.dumps(facts))
"""


@pytest.mark.parametrize("before,user,loaded,seen,umath", [
    # cohomlab first: numpy and scipy's extension are each loaded with
    # OpenBLAS's shortest thread timeout in the environment, during the
    # load only
    ("", {}, [], ["4"], ["4"]),
    # a timeout the user set is the one OpenBLAS reads
    ("", {"OPENBLAS_THREAD_TIMEOUT": "8"}, [], ["8"], ["8"]),
    ("", {"GOTO_THREAD_TIMEOUT": "8"}, [], [None], [None]),
    # scipy.linalg, and with it numpy, first: the same extension module,
    # already loaded
    ("import scipy.linalg", {}, ["scipy.linalg", "numpy.f2py"], ["4"], []),
    # no extension file: the public import
    ("import importlib.machinery\n"
     "importlib.machinery.EXTENSION_SUFFIXES[:] = ['.missing']", {},
     ["scipy.linalg", "numpy.f2py"], [], ["4"]),
])
def test_lapack_loader(package_env, before, user, loaded, seen, umath):
    env = {k: v for k, v in package_env.items()
           if k not in ("OPENBLAS_THREAD_TIMEOUT", "GOTO_THREAD_TIMEOUT")}
    out = subprocess.run(
        [sys.executable, "-c", LOADER_CHECK.format(before=before)],
        capture_output=True, text=True, check=True, env={**env, **user})
    facts = json.loads(out.stdout)
    assert facts == {"loaded": loaded, "env_kept": True, "seen": seen,
                     "umath": umath, "same": True, "eigh": [1.0, 2.0]}


def test_import_without_scipy_names_it(package_env):
    code = "import sys; sys.modules['scipy'] = None; import cohomlab"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=package_env)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == (
        "ImportError: cohomlab needs scipy, which is not installed")


def test_start_must_live_on_the_half_grid(round_n2):
    op, _, _ = _op(round_n2, OperatorKind.ROUGH_VECTOR, 512)
    other = smallest_eigenpair(_op(round_n2, OperatorKind.ROUGH_VECTOR,
                                   128)[0]).eigenfunction
    with pytest.raises(ValueError, match="half grid"):
        smallest_eigenpair(op, start=other)


def test_round_eigenvalues_at_two_to_the_twenty(round_n3):
    N = 2 ** 20
    vec = solve_smallest(round_n3, OperatorKind.ROUGH_VECTOR, N)
    scal = solve_smallest(round_n3, OperatorKind.SCALAR_LAPLACIAN, N)
    # second-order discretization error alone: 2.5e-13 and 7.5e-13
    assert abs(vec.lam - 1.0) <= 1e-12
    assert abs(scal.lam - 3.0) / 3.0 <= 3e-12


def test_convergence_order_on_fine_grids():
    bump = make_preset("Bump", n=3, eps=0.08)
    study = convergence_study(bump, OperatorKind.ROUGH_VECTOR,
                              [2 ** 15, 2 ** 16, 2 ** 17])
    assert study.orders[0] == pytest.approx(2.0, abs=0.2)


def test_quadform_is_energy_functional(bump01_n2, periodic_n3):
    rng = np.random.default_rng(7)
    for prof in (bump01_n2, periodic_n3):
        op, grid, geom = _op(prof, OperatorKind.ROUGH_VECTOR, 1024)
        x = rng.standard_normal(op.size)
        if grid.topology is Topology.SPHERE_LIKE:
            field = InvariantField(values=np.concatenate(([0.0], x, [0.0])),
                                   grid=grid)
        else:
            field = InvariantField(values=x, grid=grid)
        quotient = op.quadform(x) / float(x @ (op.weight * x))
        assert quotient == pytest.approx(energy_functional(field, geom),
                                         rel=1e-14)
        # and the difference form is the stiffness x . K x
        assert op.quadform(x) == pytest.approx(float(x @ op.matvec(x)),
                                               rel=1e-12)


@pytest.mark.parametrize("N", [1024, 2 ** 15])
@pytest.mark.parametrize("kind", list(OperatorKind))
def test_periodic_stencils_match_roll(periodic_n3, kind, N):
    # the cyclic differences and fluxes are slices with the operands of
    # np.roll's shifted arrays in the same order: equal bit for bit
    op, _, _ = _op(periodic_n3, kind, N)
    x = np.random.default_rng(11).standard_normal(op.size)
    c, pot = op.cond, op.potential
    d = np.roll(x, -1) - x
    flux = c * d
    Kx = np.roll(flux, 1) - flux
    xKx = spectral.dot(d, c * d)
    if pot is not None:
        Kx += pot * x
        xKx += spectral.dot(x, pot * x)
    assert np.array_equal(op._node_cond(), np.roll(c, 1) + c)
    assert np.array_equal(op.matvec(x), Kx)
    assert op.quadform(x) == xKx


def test_eigenvalue_normalization(round_n2):
    res = solve_smallest(round_n2, OperatorKind.ROUGH_VECTOR, 512)
    grid = res.eigenfunction.grid
    geom = orbit_geometry(round_n2, grid)
    fi = grid.retained(res.eigenfunction.values)
    assert float(np.sum(fi * fi * geom.w_interior) * grid.dx) \
        == pytest.approx(1.0, rel=1e-12)
    nz = fi[np.abs(fi) > 1e-12 * np.max(np.abs(fi))]
    assert nz[0] > 0  # deterministic sign


@pytest.mark.parametrize("x, expected", [
    ([1e-20, -3.0, 2.0], [-1e-20, 3.0, -2.0]),  # first entry negligible
    ([0.5, -1.0], [0.5, -1.0]),
    ([0.0, 0.0], [0.0, 0.0]),
])
def test_fix_sign(x, expected):
    x = np.array(x)
    spectral._fix_sign(x)
    np.testing.assert_array_equal(x, expected)


def test_flat_periodic_is_exact_kernel():
    flat = make_preset("PeriodicProduct", n=3, c=1.0, a=0.0)
    res = solve_smallest(flat, OperatorKind.ROUGH_VECTOR, 256)
    assert res.lam == 0.0
    assert res.iterations == 0  # the seed already solves it
    assert res.shift is None
    v = res.eigenfunction.values
    assert np.max(np.abs(v - v[0])) == 0.0


@pytest.mark.parametrize("entry", ["check_bound", "richardson"])
@pytest.mark.parametrize("N", [256, 1024, 4096, 2 ** 16, 3 * 2 ** 15])
@pytest.mark.parametrize("n", [2, 3, 7])
def test_flat_periodic_stops_at_the_rounding_floor(n, N, entry):
    # the coarse start carried up by the cubic gives the constants a
    # quotient of about 1e-21, not the exact 0 that skips iteration, and
    # a change relative to |lam| alone never passes there: the stop rule
    # floors |lam| at the operator's rounding scale eps ||K|| / max W.
    # The near shift lam (1 - DELTA) is as small there, K - sigma W is
    # singular to working precision, and rounding alone decides whether
    # its factor is kept.  Below 2^15 the half grid's constants carried
    # up stay exactly constant and need no step
    flat = make_preset("PeriodicProduct", n=n, c=1.0, a=0.0)
    if entry == "check_bound":
        lam = cohomlab.check_bound(flat, N=N).lambda_min
    else:
        lam = solve_smallest(flat, OperatorKind.ROUGH_VECTOR, N,
                             richardson=True).lam
    op = _op(flat, OperatorKind.ROUGH_VECTOR, N)[0]
    assert 0.0 <= lam <= np.finfo(float).eps * op.norm_bound() \
        / np.max(op.weight)


def test_periodic_modulated_eigenvalue(periodic_n3):
    res = solve_smallest(periodic_n3, OperatorKind.ROUGH_VECTOR, 1024)
    assert res.lam == pytest.approx(0.0843062568, abs=1e-7)
    assert res.lam > 0


def test_flat_periodic_scalar_mu1():
    flat = make_preset("PeriodicProduct", n=3, c=1.0, a=0.0)
    res = solve_smallest(flat, OperatorKind.SCALAR_LAPLACIAN, 512)
    # first nonzero mode cos(2 pi r / L), eigenvalue (2 pi / L)^2 = 1
    assert res.lam == pytest.approx(1.0, rel=1e-4)


def test_richardson_extrapolation(round_n2):
    res = solve_smallest(round_n2, OperatorKind.ROUGH_VECTOR, 1024,
                         richardson=True)
    assert res.extrapolated is not None
    assert abs(res.extrapolated - 1.0) <= 1e-9
    with pytest.raises(ValueError, match="even"):
        solve_smallest(round_n2, OperatorKind.ROUGH_VECTOR, 129,
                       richardson=True)


def test_richardson_odd_grid_fails_before_solving(round_n2, monkeypatch):
    # an N without its half grids is refused, naming that N, before the
    # profile is evaluated on any grid
    calls = []
    iterate = spectral._inverse_iterate
    monkeypatch.setattr(spectral, "_inverse_iterate",
                        lambda op, *a, **k: calls.append(op.grid.N)
                        or iterate(op, *a, **k))
    geometry = spectral.orbit_geometry
    monkeypatch.setattr(spectral, "orbit_geometry",
                        lambda *a: calls.append(a) or geometry(*a))
    for N in (129, 20):
        with pytest.raises(ValueError, match=f"even N >= 32, got {N}$"):
            solve_smallest(round_n2, OperatorKind.ROUGH_VECTOR, N,
                           richardson=True)
    with pytest.raises(ValueError, match="even N >= 32, got 32 / 2 = 16$"):
        convergence_study(round_n2, OperatorKind.ROUGH_VECTOR, [8, 16, 32])
    # each entry is checked, not truncated or parsed by int()
    for bad in (64.9, "64"):
        with pytest.raises(ValueError, match=f"integer, got {bad!r}$"):
            convergence_study(round_n2, OperatorKind.ROUGH_VECTOR,
                              [bad, 128, 256])
    assert calls == []


@pytest.mark.parametrize("solve, kind", [
    (first_nonzero_scalar_eigenvalue, OperatorKind.ROUGH_VECTOR),
    (smallest_eigenpair, OperatorKind.SCALAR_LAPLACIAN),
], ids=["first_nonzero", "smallest"])
def test_first_nonzero_requires_scalar(round_n2, solve, kind):
    # each entry point poses one kind's quotient; the other kind is
    # refused, not solved (a scalar operator's smallest pair is the
    # constant, lambda = 0 in no steps)
    op, _, _ = _op(round_n2, kind)
    with pytest.raises(ValueError, match=f"got {kind.value}$"):
        solve(op)


def test_convergence_error_carries_residual(round_n2):
    op, _, _ = _op(round_n2, OperatorKind.ROUGH_VECTOR, 1024)
    with pytest.raises(ConvergenceError) as info:
        smallest_eigenpair(op, max_iter=1)
    assert info.value.last_residual > 0


def test_no_public_callable_takes_tol():
    # the stop rule is spectral.CHANGE_TOL and BACKWARD_TOL, set by no caller
    for name in cohomlab.__all__:
        try:
            params = inspect.signature(getattr(cohomlab, name)).parameters
        except (TypeError, ValueError):  # not callable, or no signature
            continue
        assert "tol" not in params, name


def test_convergence_study_orders(round_n2):
    study = convergence_study(round_n2, OperatorKind.ROUGH_VECTOR,
                              [256, 512, 1024])
    assert len(study.orders) == 1
    assert study.orders[0] == pytest.approx(2.0, abs=0.2)
    with pytest.raises(ValueError, match="double"):
        convergence_study(round_n2, OperatorKind.ROUGH_VECTOR, [256, 700, 1400])
    with pytest.raises(ValueError, match="3 grids"):
        convergence_study(round_n2, OperatorKind.ROUGH_VECTOR, [256, 512])


def test_convergence_study_exact_case():
    flat = make_preset("PeriodicProduct", n=3, c=1.0, a=0.0)
    study = convergence_study(flat, OperatorKind.ROUGH_VECTOR, [64, 128, 256])
    assert study.orders == (None,)  # reported as exact


@pytest.mark.parametrize("lams", [(1.0, 0.9, 1.0), (1.0, 0.9, 0.9)])
def test_convergence_study_order_of_a_non_monotone_triple(round_n2,
                                                          monkeypatch, lams):
    # no order exists when the differences change sign or the second is 0
    monkeypatch.setattr(spectral, "nested_solve",
                        lambda *args: (list(lams), None, None))
    study = convergence_study(round_n2, OperatorKind.ROUGH_VECTOR,
                              [64, 128, 256])
    assert math.isnan(study.orders[0])


def test_eigenfunction_matches_sine(round_n2):
    res = solve_smallest(round_n2, OperatorKind.ROUGH_VECTOR, 2048)
    grid = res.eigenfunction.grid
    geom = orbit_geometry(round_n2, grid)
    fi = grid.retained(res.eigenfunction.values)
    ti = np.sin(grid.interior)
    c = float(np.sum(fi * ti * geom.w_interior)
              / np.sum(ti * ti * geom.w_interior))
    err = math.sqrt(float(np.sum((fi - c * ti) ** 2 * geom.w_interior)
                          / np.sum(fi * fi * geom.w_interior)))
    assert err <= 1e-4


def test_variational_bound_on_eigenfunction(round_n2, bump01_n2):
    # quotient and operator share one quadrature: F(eigf) = lambda
    for prof in (round_n2, bump01_n2):
        res = solve_smallest(prof, OperatorKind.ROUGH_VECTOR, 512)
        geom = orbit_geometry(prof, res.eigenfunction.grid)
        assert energy_functional(res.eigenfunction, geom) \
            == pytest.approx(res.lam, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(c=st.floats(0.5, 2.0))
def test_curvature_scaling_covariance(c):
    lam1 = solve_smallest(make_preset("Round", n=3, k=1.0),
                          OperatorKind.ROUGH_VECTOR, 256).lam
    lam2 = solve_smallest(make_preset("Round", n=3, k=c),
                          OperatorKind.ROUGH_VECTOR, 256).lam
    assert lam2 == pytest.approx(c * c * lam1, rel=1e-6)


@settings(max_examples=15, deadline=None)
@given(eps=st.floats(0.0, 0.45))
def test_solver_converges_across_bump_family(eps):
    res = solve_smallest(make_preset("Bump", n=3, eps=eps),
                         OperatorKind.ROUGH_VECTOR, 256)
    assert res.residual <= 1e-14  # backward-error certificate recorded
    assert res.lam > 0
