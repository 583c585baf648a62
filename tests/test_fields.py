import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomlab import spectral
from cohomlab import (InvariantField, InvariantFunction, Topology,
                      bochner_bound, bochner_residual, cauchy_schwarz_check,
                      derivative, energy_functional, grid_for, make_preset,
                      orbit_geometry, reconstruct_potential,
                      second_derivative, solve_smallest, weighted_integral,
                      OperatorKind)
from cohomlab.fields import radial_calculus


@pytest.fixture(scope="module")
def round_setup():
    p = make_preset("Round", n=2, k=1.0)
    grid = grid_for(p, 1024)
    return p, grid, orbit_geometry(p, grid)


@pytest.mark.parametrize("size", [1, 8191, 8192, 8193, 3 * 2 ** 14 + 1])
def test_dot_matches_reference(size):
    # short vectors are one BLAS call, long ones a sum over blocks
    rng = np.random.default_rng(size)
    a, b = rng.standard_normal(size), rng.standard_normal(size)
    exact = math.fsum(a * b)
    assert abs(spectral.dot(a, b) - exact) <= 1e-15 * math.fsum(np.abs(a * b))


def test_field_must_vanish_at_poles(round_setup):
    _, grid, _ = round_setup
    with pytest.raises(ValueError, match="vanish"):
        InvariantField(values=np.ones(grid.N + 1), grid=grid)
    v = np.sin(grid.nodes)
    f = InvariantField(values=v, grid=grid)
    assert f.values[0] == 0.0 and f.values[-1] == 0.0
    # sin(L) is rounding, not 0.0: zeroed in a copy, v is left alone
    assert v[-1] != 0.0 and not np.shares_memory(f.values, v)
    # a caller's array is copied even with exact zeros at the poles, so
    # no later edit of it reaches a pole, and -0.0 is stored as 0.0
    v[0], v[-1] = -0.0, 0.0
    f = InvariantField(values=v, grid=grid)
    assert not np.shares_memory(f.values, v)
    assert not np.signbit(f.values[0])
    v[-1] = 1.0
    assert f.values[-1] == 0.0
    # one exact zero does not excuse the other pole
    for pole in (0, -1):
        w = np.sin(grid.nodes)
        w[[0, -1]] = 0.0
        w[pole] = 1e-3
        with pytest.raises(ValueError, match="vanish"):
            InvariantField(values=w, grid=grid)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("node", [0, 7, -1])
@pytest.mark.parametrize("cls", [InvariantField, InvariantFunction])
@pytest.mark.parametrize("periodic", [False, True])
def test_nodal_values_must_be_finite(round_setup, periodic_n3, periodic,
                                     cls, node, bad):
    # a NaN at a pole used to be stored as 0.0, an interior one to make
    # energy_functional NaN, and an inf function was accepted
    grid = grid_for(periodic_n3, 64) if periodic else round_setup[1]
    r = grid.nodes
    v = np.sin(r) if cls is InvariantField else np.cos(r)
    v[node] = bad
    with pytest.raises(ValueError,
                       match=f"not finite at node {node % r.size}$"):
        cls(values=v, grid=grid)


@pytest.mark.parametrize("cls", [InvariantField, InvariantFunction])
def test_nodal_values_need_one_per_stored_node(round_setup, periodic_n3, cls):
    # a sphere-like grid stores nodes 0..N, a circle 0..N-1
    for grid in (round_setup[1], grid_for(periodic_n3, 64)):
        stored = grid.nodes.size
        for size in (stored - 1, stored + 1):
            with pytest.raises(ValueError, match=rf"needs {stored} nodal "
                               rf"values, got shape \({size},\)$"):
                cls(values=np.zeros(size), grid=grid)


def test_function_needs_flat_pole_slope(round_setup):
    _, grid, _ = round_setup
    InvariantFunction(values=np.cos(grid.nodes), grid=grid)  # even: fine
    with pytest.raises(ValueError):
        InvariantFunction(values=np.sin(grid.nodes), grid=grid)


def test_derivative_parity_endpoints(round_setup):
    _, grid, _ = round_setup
    f = np.sin(grid.nodes)  # odd at both poles
    d = derivative(f, grid, "odd")
    assert d[0] == pytest.approx(1.0, abs=1e-5)
    assert d[-1] == pytest.approx(np.cos(grid.L), abs=1e-5)
    h = np.cos(grid.nodes)  # even: slope pinned to zero
    dh = derivative(h, grid, "even")
    assert dh[0] == 0.0 and dh[-1] == 0.0
    with pytest.raises(ValueError):
        derivative(f, grid, "sideways")
    periodic = grid_for(make_preset("PeriodicProduct", n=3, c=1.0, a=0.2), 64)
    with pytest.raises(ValueError, match="parity"):
        derivative(np.sin(periodic.nodes), periodic, "sideways")


def test_derivative_second_order(round_setup):
    p, _, _ = round_setup
    errs = []
    for N in (256, 512):
        g = grid_for(p, N)
        d = derivative(np.sin(g.nodes), g, "odd")
        errs.append(float(np.max(np.abs(d - np.cos(g.nodes)))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


def test_second_derivative_even_endpoint(round_setup):
    p, _, _ = round_setup
    g = grid_for(p, 512)
    d2 = second_derivative(np.cos(g.nodes), g, "even")
    assert d2[0] == pytest.approx(-1.0, abs=1e-3)
    assert float(np.max(np.abs(d2 + np.cos(g.nodes)))) < 1e-3


def test_periodic_derivative_wraps():
    p = make_preset("PeriodicProduct", n=3, c=1.0, a=0.2)
    g = grid_for(p, 256)
    t = 2 * math.pi * g.nodes / p.L
    d = derivative(np.sin(t), g, "even")
    np.testing.assert_allclose(d, (2 * math.pi / p.L) * np.cos(t), atol=1e-3)


def test_weighted_integral_round(round_setup):
    _, grid, geom = round_setup
    # int_0^pi sin^2 * sin dr = 4/3
    fi = np.sin(grid.interior)
    assert weighted_integral(fi * fi, geom) == pytest.approx(4 / 3, abs=1e-5)


def test_energy_functional_on_round_trial(round_setup):
    p, grid, geom = round_setup
    trial = InvariantField(values=np.sin(grid.nodes), grid=grid)
    F = energy_functional(trial, geom)
    assert F == pytest.approx(1.0, abs=1e-4)
    lam = solve_smallest(p, OperatorKind.ROUGH_VECTOR, grid.N).lam
    assert F >= lam - 1e-9


def test_energy_functional_rejects_zero_field(round_setup):
    _, grid, geom = round_setup
    z = InvariantField(values=np.zeros(grid.N + 1), grid=grid)
    with pytest.raises(ValueError, match="zero"):
        energy_functional(z, geom)
    with pytest.raises(ValueError, match="^zero field$"):
        bochner_bound(z, geom)


def test_energy_functional_refuses_a_field_of_another_grid(round_setup):
    _, grid, geom = round_setup
    half = grid.half()
    f = InvariantField(values=np.sin(half.nodes), grid=half)
    with pytest.raises(ValueError, match="different grids"):
        energy_functional(f, geom)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scale=st.floats(1e-6, 1e6),
       coefs=st.lists(st.floats(-2, 2), min_size=2, max_size=5))
def test_energy_functional_scale_invariant(scale, coefs):
    p = make_preset("Bump", n=3, eps=0.1)
    grid = grid_for(p, 128)
    geom = orbit_geometry(p, grid)
    v = sum(c * np.sin((j + 1) * math.pi * grid.nodes / p.L)
            for j, c in enumerate(coefs))
    if not np.any(np.abs(v) > 1e-9):
        return
    F1 = energy_functional(InvariantField(values=v, grid=grid), geom)
    F2 = energy_functional(InvariantField(values=scale * v, grid=grid), geom)
    assert F2 == pytest.approx(F1, rel=1e-12)


def test_laplacian_of_potential_round(round_setup):
    _, grid, geom = round_setup
    # h = cos r is the first scalar eigenfunction: Delta h = -2 h (n = 2)
    h = InvariantFunction(values=np.cos(grid.nodes), grid=grid)
    lap = radial_calculus(h, geom)[2]
    np.testing.assert_allclose(lap, -2.0 * np.cos(grid.interior), atol=1e-4)


def test_cauchy_schwarz_equality_on_round(round_setup):
    _, grid, geom = round_setup
    h = InvariantFunction(values=np.cos(grid.nodes), grid=grid)
    rep = cauchy_schwarz_check(h, geom)
    # round first eigenfunction realizes pointwise equality
    assert rep.min_value >= -1e-10
    assert rep.equality_nodes.size == grid.interior.size


def test_cauchy_schwarz_generic_nonnegative(round_setup):
    _, grid, geom = round_setup
    h = InvariantFunction(values=np.exp(np.cos(grid.nodes)), grid=grid)
    rep = cauchy_schwarz_check(h, geom)
    assert rep.min_value >= -1e-8
    assert 0.0 <= rep.argmin_r <= grid.L


def test_reconstruct_potential_round(round_setup):
    _, grid, geom = round_setup
    f = InvariantField(values=-np.sin(grid.nodes), grid=grid)
    h = reconstruct_potential(f)
    target = np.cos(grid.nodes) - 1.0  # h(0) = 0 normalization
    np.testing.assert_allclose(h.values, target, atol=1e-5)


def test_reconstruct_potential_periodic_needs_zero_mean():
    p = make_preset("PeriodicProduct", n=3, c=1.0, a=0.2)
    grid = grid_for(p, 256)
    t = 2 * math.pi * grid.nodes / p.L
    reconstruct_potential(InvariantField(values=np.sin(t), grid=grid))
    with pytest.raises(ValueError, match="non-exact"):
        reconstruct_potential(InvariantField(values=np.cos(t) + 0.5,
                                             grid=grid))


def test_bochner_residual_decays(round_setup):
    p, _, _ = round_setup
    vals = []
    for N in (512, 1024):
        g = grid_for(p, N)
        geom = orbit_geometry(p, g)
        h = InvariantFunction(values=np.cos(math.pi * g.nodes / p.L), grid=g)
        vals.append(bochner_residual(h, geom))
    assert vals[1] <= 1e-4
    assert vals[0] / vals[1] == pytest.approx(4.0, abs=0.6)


def test_radial_calculus_periodic(periodic_n3):
    # h = cos(2 pi r / L) on the closed manifold S^1 x S^2: every node
    # is retained and the derivative stencils wrap around the seam
    p = periodic_n3
    om = 2 * math.pi / p.L
    lap_errs, bochner = [], []
    for N in (256, 512):
        g = grid_for(p, N)
        geom = orbit_geometry(p, g)
        r = g.nodes
        h = InvariantFunction(values=np.cos(om * r), grid=g)
        # divergence form (w h')'/w = h'' + (n-1) (phi'/phi) h'
        exact = -om * om * np.cos(om * r) \
            - (p.n - 1) * p.dphi(r) / p.phi(r) * om * np.sin(om * r)
        lap_errs.append(float(np.max(np.abs(
            radial_calculus(h, geom)[2] - exact))))
        assert cauchy_schwarz_check(h, geom).min_value >= -g.dx ** 2
        bochner.append(bochner_residual(h, geom))
    assert lap_errs[1] <= 0.2 * (2 * math.pi / 512) ** 2
    assert lap_errs[0] / lap_errs[1] == pytest.approx(4.0, rel=0.1)
    assert bochner[1] <= 1e-5
    assert bochner[0] / bochner[1] == pytest.approx(4.0, abs=0.6)


def test_bochner_bound_below_energy(round_setup):
    # discrete form of the gradient lemma: the inequality holds up to
    # discretization tolerance, estimated by eigenvalue grid doubling
    p, grid, geom = round_setup
    lam_n = solve_smallest(p, OperatorKind.ROUGH_VECTOR, grid.N).lam
    lam_h = solve_smallest(p, OperatorKind.ROUGH_VECTOR, grid.N // 2).lam
    tol_disc = max(1e-8, abs(lam_n - lam_h))
    for j in (1, 2, 3):
        f = InvariantField(values=np.sin(j * math.pi * grid.nodes / p.L),
                           grid=grid)
        assert energy_functional(f, geom) >= bochner_bound(f, geom) \
            - tol_disc


def test_bochner_bound_tight_on_round_minimizer(round_setup):
    p, grid, geom = round_setup
    f = InvariantField(values=np.sin(grid.nodes), grid=grid)
    assert bochner_bound(f, geom) == pytest.approx(1.0, abs=1e-9)
    assert energy_functional(f, geom) == pytest.approx(1.0, abs=1e-4)
