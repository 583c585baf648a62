import inspect
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
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
    # the band _factor builds from cond and potential, with the
    # Sherman-Morrison corner on a circle, solves K - sigma W exactly
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


@pytest.mark.parametrize("N", [2 ** 15, 3 * 2 ** 14])
@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("n", [2, 3, 7])
@pytest.mark.parametrize("name", sorted(_FINE_PROFILES))
def test_cold_fine_solve_starts_on_the_coarse_grid(name, n, kind, N):
    # from N = 8 * COARSE_N on, a solve without a start begins on a grid
    # of 4096..8191 nodes, whose eigenfunction, carried up by the cubic,
    # leaves the N solve a single step (the analytic seed takes 5-12
    # off the round sphere)
    spec = dict(_FINE_PROFILES[name], n=n)
    prof = make_preset(spec.pop("family"), **spec)
    geom = orbit_geometry(prof, grid_for(prof, N))
    warm, cold = spectral._solve(kind, geom)[1], _cold(kind, geom)
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
    lams, res, _ = spectral._solve(kind, geom, levels)
    assert seen == sizes
    assert lams == [c.lam for c in cold]
    assert (res.iterations, res.residual) \
        == (cold[-1].iterations, cold[-1].residual)
    np.testing.assert_array_equal(res.eigenfunction.values,
                                  cold[-1].eigenfunction.values)


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
    # two cores.  A fresh interpreter keeps other tests' threads out.
    code = textwrap.dedent("""
        import time
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
    v = res.eigenfunction.values
    assert np.max(np.abs(v - v[0])) == 0.0


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


def test_first_nonzero_requires_scalar(round_n2):
    op, _, _ = _op(round_n2, OperatorKind.ROUGH_VECTOR)
    with pytest.raises(ValueError, match="scalar"):
        first_nonzero_scalar_eigenvalue(op)


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
    monkeypatch.setattr(spectral, "_coarse_to_fine",
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
