"""Acceptance gate: one numbered test family per criterion, run at the
stated tolerances.  The terminal summary (conftest) prints a PASS/FAIL
line per criterion.

Three sub-parts are structurally unattainable and are marked
xfail(strict=True) with the mathematical reason inline; weakening the
assertion or special-casing the implementation would misreport what
the computation does, so they stay red by design:

* the derived-function residual at n = 4 (the nodal |B|^2 term has an
  O(1/r) truncation whose squared mass scales like dx^(n-4): the
  residual is grid-independent exactly in dimension 4),
* kappa2 > 0 on Bump(eps) for eps in {0.2, 0.3} (kappa2 = 1 - 6 eps
  in the pole limit, negative there),
* the Bump(0.2) verdict/umbilic clauses that presuppose kappa2 > 0 or
  a non-umbilic family (warped-product orbits are always umbilic).
"""

import math
import time

import numpy as np
import pytest

from cohomlab import (InvariantField, InvariantFunction, OperatorKind,
                      Verdict, cauchy_schwarz_check, check_bound,
                      convergence_study, derivative, energy_functional,
                      grid_for, make_preset, obata_check, orbit_geometry,
                      ricci_profile, second_derivative, solve_smallest,
                      weighted_integral, Topology)

NK_SET = [(n, k) for n in (2, 3, 4, 7) for k in (0.5, 1.0, 2.0)]


def _tol_disc(profile, N):
    lam_n = solve_smallest(profile, OperatorKind.ROUGH_VECTOR, N).lam
    lam_h = solve_smallest(profile, OperatorKind.ROUGH_VECTOR, N // 2).lam
    return max(1e-8, abs(lam_n - lam_h))


# --- 1: round-sphere infimum ---------------------------------------------

def test_criterion_1_round_infimum():
    for n, k in NK_SET:
        t0 = time.perf_counter()
        prof = make_preset("Round", n=n, k=k)
        res = solve_smallest(prof, OperatorKind.ROUGH_VECTOR, 4096,
                             richardson=True)
        assert abs(res.lam - k * k) / (k * k) <= 1e-5, (n, k)
        assert abs(res.extrapolated - k * k) / (k * k) <= 1e-7, (n, k)
        grid = res.eigenfunction.grid
        geom = orbit_geometry(prof, grid)
        ti = np.sin(k * grid.interior)
        fi = grid.retained(res.eigenfunction.values)
        c = weighted_integral(fi * ti, geom) / weighted_integral(ti * ti, geom)
        err = math.sqrt(weighted_integral((fi - c * ti) ** 2, geom)
                        / weighted_integral(fi * fi, geom))
        assert err <= 1e-4, (n, k)
        assert time.perf_counter() - t0 <= 1.0, (n, k)


# --- 2: Obata criterion ---------------------------------------------------

def test_criterion_2_first_eigenvalue():
    for n, k in NK_SET:
        rep = obata_check(make_preset("Round", n=n, k=k), N=4096)
        assert abs(rep.mu1 - n * k * k) / (n * k * k) <= 1e-4, (n, k)


def test_criterion_2_derived_function_residual():
    by_n = {}
    for n, k in NK_SET:
        if n == 4:
            continue  # see the dimension-4 twin below
        rep = obata_check(make_preset("Round", n=n, k=k), N=4096)
        assert rep.g_residual <= 1e-3, (n, k, rep.g_residual)
        by_n.setdefault(n, []).append(rep.g_residual)
    # the residual is dimensionless: a scaled round sphere gives the same
    for n, res in by_n.items():
        assert max(res) - min(res) <= 1e-3 * min(res), (n, res)


@pytest.mark.xfail(
    strict=True,
    reason="the minimizer inherits an O(dx^2/r) pole artifact from the "
           "nodal |B|^2 term; its derivative residual carries L2(w) mass "
           "dx^(n-4) and is grid-independent at n = 4 "
           "(0.0962 at every k and N)")
def test_criterion_2_derived_function_residual_dim4():
    for k in (0.5, 1.0, 2.0):
        rep = obata_check(make_preset("Round", n=4, k=k), N=4096)
        assert rep.g_residual <= 1e-3, (4, k, rep.g_residual)


# --- 3: the bound on the Bump family --------------------------------------

def test_criterion_3_bump_gap():
    for n in (2, 3):
        for eps in (0.05, 0.1, 0.2, 0.3):
            prof = make_preset("Bump", n=n, eps=eps)
            rep = check_bound(prof, N=4096)
            assert rep.gap >= -rep.tol_disc, (n, eps)
            assert rep.gap > 10 * rep.tol_disc, (n, eps)
        rep0 = check_bound(make_preset("Bump", n=n, eps=0.0), N=4096)
        assert abs(rep0.gap) <= 1e-5, n
        small = check_bound(make_preset("Bump", n=n, eps=0.01), N=4096)
        large = check_bound(make_preset("Bump", n=n, eps=0.3), N=4096)
        assert small.gap < large.gap, n


def test_criterion_3_small_eps_curvature_confirmed():
    for n in (2, 3):
        for eps in (0.05, 0.1):
            ric = ricci_profile(orbit_geometry(
                make_preset("Bump", n=n, eps=eps),
                grid_for(make_preset("Bump", n=n, eps=eps), 4096)))
            assert ric.kappa2 > 0, (n, eps)


@pytest.mark.xfail(
    strict=True,
    reason="kappa2(Bump(eps)) = 1 - 6 eps in the pole limit, negative for "
           "eps in {0.2, 0.3}; the curvature hypothesis cannot be "
           "confirmed there")
def test_criterion_3_large_eps_curvature_claim():
    for n in (2, 3):
        for eps in (0.2, 0.3):
            prof = make_preset("Bump", n=n, eps=eps)
            ric = ricci_profile(orbit_geometry(prof, grid_for(prof, 4096)))
            assert ric.kappa2 > 0, (n, eps)


# --- 4: Bochner identity ---------------------------------------------------

BOCHNER_PROFILES = [("Round", {"n": 2, "k": 1.0}),
                    ("Round", {"n": 3, "k": 1.0}),
                    ("Bump", {"n": 2, "eps": 0.1}),
                    ("Bump", {"n": 3, "eps": 0.2})]


def _bochner_residual_at(prof, N):
    from cohomlab import bochner_residual
    grid = grid_for(prof, N)
    geom = orbit_geometry(prof, grid)
    h = InvariantFunction(values=np.cos(math.pi * grid.nodes / prof.L),
                          grid=grid)
    return bochner_residual(h, geom)


def test_criterion_4_bochner_identity():
    for kind, params in BOCHNER_PROFILES:
        n = params["n"]
        prof = make_preset(kind, **params)
        r2048 = _bochner_residual_at(prof, 2048)
        r4096 = _bochner_residual_at(prof, 4096)
        assert r4096 <= 1e-4, (kind, params)
        assert 3.5 <= r2048 / r4096 <= 4.5, (kind, params)

    # closed form on the n = 2 round sphere: both sides equal 8/3
    prof = make_preset("Round", n=2, k=1.0)
    grid = grid_for(prof, 4096)
    geom = orbit_geometry(prof, grid)
    ric = ricci_profile(geom)
    h = np.cos(grid.nodes)
    f = derivative(h, grid, "even")[1:-1]
    fp = second_derivative(h, grid, "even")[1:-1]
    lap = fp - (geom.n - 1) * f * geom.H
    lhs = weighted_integral(lap * lap, geom)
    rhs = weighted_integral(ric.ric_radial * f * f, geom) \
        + weighted_integral(fp * fp + geom.B2 * f * f, geom)
    assert abs(lhs - 8.0 / 3.0) <= 1e-6
    assert abs(rhs - 8.0 / 3.0) <= 1e-6


# --- 5: Cauchy-Schwarz across a corpus -------------------------------------

CORPUS = [("Round", {"n": 2, "k": 1.0}),
          ("Round", {"n": 3, "k": 2.0}),
          ("Bump", {"n": 2, "eps": 0.1}),
          ("Bump", {"n": 3, "eps": 0.3}),
          ("PeriodicProduct", {"n": 3, "c": 1.0, "a": 0.3})]


def _test_functions(grid, L):
    r = grid.nodes
    if grid.topology is Topology.PERIODIC:
        t = 2.0 * math.pi * r / L
        fns = []
        for j in (1, 2, 3):
            fns += [np.cos(j * t), np.sin(j * t)]
        fns += [np.exp(np.cos(t)), np.exp(0.5 * np.sin(2 * t)),
                np.cos(t) ** 3, np.sin(t) * np.cos(2 * t),
                1.0 / (2.0 + np.cos(t)), np.cos(t) + 0.3 * np.sin(3 * t),
                np.cosh(np.cos(t)), np.cos(2 * t) * np.exp(0.2 * np.cos(t)),
                0.5 * np.cos(t) - 0.25 * np.sin(2 * t),
                np.sin(t) ** 2, np.cos(3 * t) * np.cos(t),
                np.sin(2 * t) ** 2, 2.0 + np.cos(t), np.sin(t + 0.0) ** 4]
    else:
        x = np.cos(math.pi * r / L)  # even at both poles
        s2 = np.sin(math.pi * r / L) ** 2
        fns = [np.cos(j * math.pi * r / L) for j in (1, 2, 3, 4)]
        fns += [x ** 2, x ** 3 - x, np.exp(x), np.exp(-x * x), s2, s2 * x,
                1.0 / (2.0 + x), np.cosh(x), x * np.exp(x),
                0.5 * x - 0.3 * x ** 2 + 0.2 * x ** 3, np.sin(s2),
                np.log(2.0 + x), x ** 4, s2 * s2, np.sqrt(2.0 + x),
                np.tanh(x)]
    assert len(fns) == 20
    return fns


def test_criterion_5_cauchy_schwarz_corpus():
    for kind, params in CORPUS:
        prof = make_preset(kind, **params)
        tol = _tol_disc(prof, 2048)
        grid = grid_for(prof, 2048)
        geom = orbit_geometry(prof, grid)
        for i, values in enumerate(_test_functions(grid, prof.L)):
            rep = cauchy_schwarz_check(InvariantFunction(values=values,
                                                         grid=grid), geom)
            assert rep.min_value >= -tol, (kind, params, i, rep.min_value)


# --- 6: rigidity diagnostics -----------------------------------------------

def _rigidity(prof, N):
    from cohomlab import assemble, rigidity_diagnostics, smallest_eigenpair
    grid = grid_for(prof, N)
    geom = orbit_geometry(prof, grid)
    res = smallest_eigenpair(assemble(OperatorKind.ROUGH_VECTOR, geom))
    return rigidity_diagnostics(res.eigenfunction, geom)


def test_criterion_6_round_residuals_second_order():
    prof = make_preset("Round", n=3, k=1.0)
    by_grid = {N: _rigidity(prof, N) for N in (1024, 2048, 4096)}
    C = 1.0
    for N, d in by_grid.items():
        dx = prof.L / N
        assert d.radial_ode_residual <= C * dx * dx, N
        assert d.umbilic_residual <= C * dx * dx, N  # identically zero
    r1 = by_grid[1024].radial_ode_residual / by_grid[2048].radial_ode_residual
    r2 = by_grid[2048].radial_ode_residual / by_grid[4096].radial_ode_residual
    assert 3.4 <= r1 <= 4.6 and 3.4 <= r2 <= 4.6


def test_criterion_6_bump_stalls_and_never_detects_round():
    prof = make_preset("Bump", n=3, eps=0.2)
    rep = check_bound(prof, N=2048)
    d1, d2 = _rigidity(prof, 1024), _rigidity(prof, 2048)
    # the radial first-order residual stabilizes well above the band
    assert d2.radial_ode_residual > 10 * rep.tol_rigid
    assert d1.radial_ode_residual == pytest.approx(d2.radial_ode_residual,
                                                   rel=1e-2)
    assert rep.verdict is not Verdict.ROUND_SPHERE_DETECTED

    # nearest family member satisfying the curvature hypothesis: the
    # strict verdict and the stall are both visible at eps = 0.1
    rep01 = check_bound(make_preset("Bump", n=3, eps=0.1), N=2048)
    assert rep01.verdict is Verdict.STRICTLY_ABOVE_BOUND
    assert _rigidity(make_preset("Bump", n=3, eps=0.1),
                     2048).radial_ode_residual > 10 * rep01.tol_rigid


@pytest.mark.xfail(
    strict=True,
    reason="Bump(0.2) has kappa2 = -0.2 < 0, so the verdict is "
           "HypothesisNotMet by definition, and warped-product orbits are "
           "umbilic for every profile, so the shape-operator residual is "
           "identically zero rather than stabilizing above the band")
def test_criterion_6_bump_verdict_and_umbilic_claim():
    prof = make_preset("Bump", n=3, eps=0.2)
    rep = check_bound(prof, N=2048)
    d = _rigidity(prof, 2048)
    assert rep.verdict is Verdict.STRICTLY_ABOVE_BOUND
    assert d.umbilic_residual > 10 * rep.tol_rigid


# --- 7: variational consistency --------------------------------------------

def test_criterion_7_random_trials_respect_rayleigh_bound():
    rng = np.random.default_rng(20260815)
    for kind, params in CORPUS:
        prof = make_preset(kind, **params)
        grid = grid_for(prof, 1024)
        geom = orbit_geometry(prof, grid)
        lam = solve_smallest(prof, OperatorKind.ROUGH_VECTOR, 1024).lam
        r = grid.nodes
        for _ in range(100):
            if grid.topology is Topology.PERIODIC:
                t = 2.0 * math.pi * r / prof.L
                coef = rng.standard_normal(7)
                v = coef[0] * np.ones_like(r)
                for j in (1, 2, 3):
                    v = v + coef[2 * j - 1] * np.cos(j * t) \
                        + coef[2 * j] * np.sin(j * t)
            else:
                coef = rng.standard_normal(6)
                v = np.zeros_like(r)
                for j in range(1, 7):
                    v = v + coef[j - 1] * np.sin(j * math.pi * r / prof.L)
            if not np.any(np.abs(v) > 1e-12):
                continue
            F = energy_functional(InvariantField(values=v, grid=grid), geom)
            assert F >= lam - 1e-9, (kind, params)


# --- 8: periodic hypothesis necessity --------------------------------------

PERIODIC_CORPUS = [(1.0, 0.0, 3), (1.0, 0.3, 3), (1.5, 0.2, 2),
                   (2.0, 0.5, 4), (0.7, 0.35, 3)]


def test_criterion_8_periodic_profiles_never_meet_hypothesis():
    for c, a, n in PERIODIC_CORPUS:
        prof = make_preset("PeriodicProduct", n=n, c=c, a=a)
        rep = check_bound(prof, N=1024)
        assert rep.kappa2 <= 0, (c, a, n)
        assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET, (c, a, n)

    flat = make_preset("PeriodicProduct", n=3, c=1.0, a=0.0)
    res = solve_smallest(flat, OperatorKind.ROUGH_VECTOR, 1024)
    assert abs(res.lam) <= 1e-10
    v = res.eigenfunction.values
    assert np.max(np.abs(v - v[0])) <= 1e-10 * abs(v[0])


# --- 9: convergence order ---------------------------------------------------

def test_criterion_9_convergence_order():
    study = convergence_study(make_preset("Round", n=2, k=1.0),
                              OperatorKind.ROUGH_VECTOR, [256, 512, 1024])
    assert 1.8 <= study.orders[0] <= 2.2
