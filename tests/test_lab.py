import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomlab import lab, spectral
from cohomlab import (OperatorKind, Verdict, assemble, check_bound,
                      convergence_study, grid_for, make_preset, obata_check,
                      orbit_geometry, ricci_profile, rigidity_diagnostics,
                      smallest_eigenpair, solve_smallest, sweep)


def _minimizer(profile, N):
    grid = grid_for(profile, N)
    geom = orbit_geometry(profile, grid)
    res = smallest_eigenpair(assemble(OperatorKind.ROUGH_VECTOR, geom))
    return res, geom


def test_round_detection(round_n2):
    rep = check_bound(round_n2, N=2048)
    assert rep.verdict is Verdict.ROUND_SPHERE_DETECTED
    assert rep.bound_holds
    assert abs(rep.gap) <= rep.tol_rigid
    assert abs(rep.obata_mu1 - 2 * rep.kappa2) <= 2 * rep.tol_rigid
    assert rep.rigidity.max_residual < rep.tol_rigid


def test_strictly_above_on_small_bump(bump01_n2):
    rep = check_bound(bump01_n2, N=2048)
    assert rep.verdict is Verdict.STRICTLY_ABOVE_BOUND
    assert rep.kappa2 > 0
    assert rep.gap > rep.tol_rigid
    assert rep.bound_holds


def test_hypothesis_not_met_on_large_bump():
    rep = check_bound(make_preset("Bump", n=2, eps=0.3), N=1024)
    assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert rep.kappa2 <= 0
    assert rep.bound_holds  # lambda_min >= 0 > kappa2 still


def test_periodic_always_hypothesis_not_met(periodic_n3):
    rep = check_bound(periodic_n3, N=1024)
    assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert rep.kappa2 <= 0


def test_bound_holds_definition(bump01_n2):
    rep = check_bound(bump01_n2, N=1024)
    assert rep.bound_holds == (rep.gap >= -rep.tol_disc)
    assert rep.tol_rigid == max(1e-4, 10 * rep.tol_disc)
    assert rep.tol_disc >= 1e-8


def test_obata_band_is_n_rigid_tolerances():
    # |mu1 - n kappa2| lies between tol_rigid and n tol_rigid, inside the
    # Obata band, so this nearly round profile is still detected as round
    n = 7
    rep = check_bound(make_preset("Bump", n=n, eps=3e-6), N=2048)
    defect = abs(rep.obata_mu1 - n * rep.kappa2)
    assert rep.verdict is Verdict.ROUND_SPHERE_DETECTED
    assert rep.tol_rigid == 1e-4
    assert defect == pytest.approx(1.50e-4, rel=0.01)
    assert rep.gap == pytest.approx(2.16e-5, rel=0.01)
    assert rep.tol_rigid < defect <= n * rep.tol_rigid


def test_rigid_band_is_ten_discretization_tolerances():
    # on a coarse grid the gap lies between tol_disc and 10 tol_disc,
    # inside the rigidity band, so the profile is detected as round, not
    # read as strictly above the bound
    rep = check_bound(make_preset("Bump", n=2, eps=3e-4), N=64)
    assert rep.verdict is Verdict.ROUND_SPHERE_DETECTED
    assert rep.tol_disc == pytest.approx(7.55e-4, rel=0.01)
    assert rep.tol_rigid == pytest.approx(7.55e-3, rel=0.01)
    assert rep.gap == pytest.approx(1.66e-3, rel=0.01)
    assert rep.tol_disc < rep.gap <= rep.tol_rigid


def test_negative_kappa2_reads_the_tangential_term():
    # where the curvature hypothesis fails, the printed kappa2 is the
    # minimum over both Ricci terms; here the tangential node minimum
    # lies 1.1e-4 below the radial one, so kappa2 from the radial term
    # alone would print another number
    n, N = 3, 256
    profile = make_preset("Bump", n=n, eps=0.3)
    ric = ricci_profile(orbit_geometry(profile, grid_for(profile, N)))
    rep = check_bound(profile, N=N)
    assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert rep.kappa2 == float(np.min(ric.ric_tangential)) / (n - 1)
    assert rep.kappa2 == pytest.approx(-0.7996680, abs=1e-7)
    assert float(np.min(ric.ric_radial)) / (n - 1) \
        == pytest.approx(-0.7995573, abs=1e-7)


def test_check_bound_needs_even_grid(round_n2, monkeypatch):
    # the doubling test needs the half grid, so an odd N, or one whose
    # half is below the smallest grid (18 halves to 9), is refused with
    # that N before the profile is evaluated on any grid
    calls = []
    geometry = lab.orbit_geometry
    monkeypatch.setattr(lab, "orbit_geometry",
                        lambda *a: calls.append(a) or geometry(*a))
    for N in (333, 18, 20, 30):
        with pytest.raises(ValueError, match=f"even N >= 32, got {N}$"):
            check_bound(round_n2, N=N)
    with pytest.raises(ValueError, match="integer, got 2048.0$"):
        check_bound(round_n2, N=2048.0)
    assert calls == []


@pytest.mark.parametrize("N", [1025, 18])
def test_sweep_refuses_grid_without_half_grid_before_any_row(monkeypatch, N):
    # 1025 is odd; 18 halves to 9, below the smallest grid
    calls = []
    monkeypatch.setattr(lab, "check_bound",
                        lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=f"even N >= 32, got {N}"):
        sweep("Bump", [0.0, 0.1], n=2, N=N)
    assert calls == []


@pytest.mark.parametrize("n", [1, 2.5, True])
def test_sweep_refuses_a_bad_dimension_before_any_row(monkeypatch, n):
    calls = []
    monkeypatch.setattr(lab, "check_bound",
                        lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError,
                       match="dimension n must be an integer >= 2"):
        sweep("Bump", [0.0, 0.1], n=n)
    assert calls == []


def _solve_sizes(monkeypatch):
    """Grid size of every inverse iteration from now on."""
    seen = []
    iterate = spectral._inverse_iterate
    monkeypatch.setattr(spectral, "_inverse_iterate",
                        lambda op, *a, **k: seen.append(op.grid.N)
                        or iterate(op, *a, **k))
    return seen


@pytest.mark.parametrize("N, sizes", [
    (2 ** 14, [2 ** 13, 2 ** 14, 2 ** 14]),
    (2 ** 15, [2 ** 14, 2 ** 15, 2 ** 12, 2 ** 15]),
    (2 ** 16, [2 ** 12, 2 ** 15, 2 ** 16, 2 ** 12, 2 ** 16]),
    # halving stops at the odd 16385: no coarse start
    (32770, [16385, 32770, 32770]),
])
def test_check_bound_solves_coarse_grids_from_two_to_the_fifteen(
        round_n2, monkeypatch, N, sizes):
    # the vector pair N/2 -> N, then mu1; a solve with no start on a
    # multiple of 8 with at least 8 * COARSE_N nodes first solves the
    # grid where even halving to at least COARSE_N nodes stops
    seen = _solve_sizes(monkeypatch)
    check_bound(round_n2, N=N)
    assert seen == sizes


@pytest.mark.parametrize("run, sizes", [
    (lambda p: solve_smallest(p, OperatorKind.ROUGH_VECTOR, 2 ** 16,
                              richardson=True),
     [2 ** 12, 2 ** 15, 2 ** 16]),
    (lambda p: convergence_study(p, OperatorKind.ROUGH_VECTOR,
                                 [2 ** 15, 2 ** 16, 2 ** 17]),
     [2 ** 12, 2 ** 15, 2 ** 16, 2 ** 17]),
], ids=["richardson", "convergence_study"])
def test_nested_solves_start_on_one_coarse_grid(round_n2, monkeypatch, run,
                                                sizes):
    # one coarse solve below the coarsest grid of the family, then the
    # family coarse to fine, each grid solved once
    seen = _solve_sizes(monkeypatch)
    run(round_n2)
    assert seen == sizes


def test_obata_mu1_is_check_bounds(bump01_n2, monkeypatch):
    # obata_check takes mu1 and its scalar operator from the same
    # spectral.nested_solve call as check_bound's mu1, and its vector solve
    # from one more: each a coarse solve on N/8, then N
    N = 2 ** 15
    mu1 = check_bound(bump01_n2, N=N).obata_mu1
    seen = _solve_sizes(monkeypatch)
    assert obata_check(bump01_n2, N=N).mu1 == pytest.approx(mu1, rel=1e-12)
    assert seen == [N // 8, N] * 2


def test_rigidity_residuals_vanish_on_round(round_n3):
    prev = None
    for N in (512, 1024, 2048):
        res, geom = _minimizer(round_n3, N)
        d = rigidity_diagnostics(res.eigenfunction, geom)
        assert d.umbilic_residual == 0.0
        assert d.laplacian_equality_residual <= 1e-10
        if prev is not None:
            assert prev / d.radial_ode_residual == pytest.approx(4.0, abs=0.5)
        prev = d.radial_ode_residual


def test_rigidity_residuals_stall_on_bump():
    prof = make_preset("Bump", n=3, eps=0.1)
    vals = []
    for N in (1024, 2048):
        res, geom = _minimizer(prof, N)
        vals.append(rigidity_diagnostics(res.eigenfunction,
                                         geom).radial_ode_residual)
    assert vals[1] > 1e-3
    assert vals[0] == pytest.approx(vals[1], rel=1e-3)  # stabilized


def test_rigidity_one_way_shape_distance():
    # a RoundSphereDetected verdict implies phi is max-norm close to
    # the round profile sin(sqrt(kappa2) r)/sqrt(kappa2)
    tol_shape = 1e-3
    corpus = [make_preset("Round", n=2, k=1.0),
              make_preset("Round", n=3, k=2.0),
              make_preset("Bump", n=2, eps=0.0),
              make_preset("Bump", n=2, eps=0.01),
              make_preset("Bump", n=3, eps=0.1)]
    detected = 0
    for prof in corpus:
        rep = check_bound(prof, N=1024)
        if rep.verdict is not Verdict.ROUND_SPHERE_DETECTED:
            continue
        detected += 1
        k = math.sqrt(rep.kappa2)
        r = np.linspace(0, prof.L, 257)
        dist = float(np.max(np.abs(prof.phi(r) - np.sin(k * r) / k)))
        assert dist <= tol_shape
    assert detected >= 2  # the genuinely round members


def test_obata_round_defect_small(round_n2):
    rep = obata_check(round_n2, N=2048)
    assert rep.defect <= 1e-4 * 2
    assert rep.g_residual <= 1e-3
    assert rep.mu1 == pytest.approx(2.0, rel=1e-4)
    assert rep.kappa2 == pytest.approx(1.0, rel=1e-9)
    assert rep.grid_N == 2048


def test_obata_scaled_round():
    rep = obata_check(make_preset("Round", n=2, k=2.0), N=2048)
    assert rep.mu1 == pytest.approx(8.0, rel=1e-4)


def test_obata_detects_off_round():
    rep = obata_check(make_preset("Bump", n=2, eps=0.1), N=1024)
    assert rep.defect > 1e-3  # an order above the detection band
    assert rep.g_residual > 1e-2


def test_obata_refuses_nonpositive_kappa2():
    with pytest.raises(ValueError, match="kappa2"):
        obata_check(make_preset("Bump", n=2, eps=0.25), N=512)
    with pytest.raises(ValueError, match="kappa2"):
        obata_check(make_preset("PeriodicProduct", n=3, c=1.0, a=0.3), N=512)


def test_obata_refuses_non_integer_grid(round_n2):
    with pytest.raises(ValueError, match="integer, got 1024.0$"):
        obata_check(round_n2, N=1024.0)


def test_numpy_grid_size_reports_dump_as_json(round_n2):
    # a numpy integer N is kept as a Python int on the grid, so every
    # report that carries grid_N serializes
    N = np.int64(256)
    reports = (check_bound(round_n2, N=N), obata_check(round_n2, N=N),
               spectral.solve_smallest(round_n2, OperatorKind.ROUGH_VECTOR,
                                       N))
    for report in reports:
        assert json.loads(json.dumps(report.grid_N)) == 256
    assert type(grid_for(round_n2, N).N) is int


@pytest.mark.parametrize("N", [1024, 2 ** 15])
@pytest.mark.parametrize("check", [check_bound, obata_check])
def test_profile_read_once_per_grid(round_n2, check, N):
    # phi on the nodes and midpoints of grid N (the half grid and, from
    # N = 2^15 on, the coarse start's grid are restrictions), phi' and
    # phi'' once each on its retained nodes
    seen = {"phi": [], "dphi": [], "d2phi": []}

    def counted(name):
        fn = getattr(round_n2, name)
        return lambda r: seen[name].append(np.array(r, float)) or fn(r)

    prof = dataclasses.replace(round_n2, **{k: counted(k) for k in seen})
    # the validation samples are not grid reads; reuse the original's
    prof.__dict__["validation"] = round_n2.validation
    check(prof, N=N)
    grid = grid_for(round_n2, N)
    assert [r.size for r in seen["phi"]] == [N + 1, N]
    np.testing.assert_array_equal(seen["phi"][0], grid.nodes)
    np.testing.assert_array_equal(seen["phi"][1], grid.midpoints)
    for name in ("dphi", "d2phi"):
        assert len(seen[name]) == 1
        np.testing.assert_array_equal(seen[name][0], grid.interior)


def test_sweep_rows_ordered_and_complete():
    rows = sweep("Bump", [0.0, 0.05, 0.1], n=2, N=512)
    assert [r.param for r in rows] == [0.0, 0.05, 0.1]
    assert rows[0].verdict is Verdict.ROUND_SPHERE_DETECTED
    assert all(r.verdict is Verdict.STRICTLY_ABOVE_BOUND for r in rows[1:])
    assert all(r.error is None for r in rows)
    assert rows[0].gap == pytest.approx(0.0, abs=1e-5)


def test_sweep_gap_grows_from_round():
    rows = sweep("Bump", [0.01, 0.3], n=2, N=1024)
    assert rows[0].gap < rows[1].gap


def test_sweep_round_family_ratio():
    rows = sweep("Round", [0.5, 1.0, 2.0], n=3, N=1024)
    for r in rows:
        assert r.lambda_min / r.kappa2 == pytest.approx(1.0, abs=1e-4)
        assert r.verdict is Verdict.ROUND_SPHERE_DETECTED


def test_sweep_captures_row_errors():
    # a = c makes the profile touch zero: constructor refuses, row
    # records the error, remaining rows are unaffected
    rows = sweep("PeriodicProduct", [0.2, 1.0, 0.4], n=3, N=512,
                 base_params={"c": 1.0})
    assert rows[0].error is None
    assert rows[1].error is not None and "ValueError" in rows[1].error
    assert math.isnan(rows[1].lambda_min)
    assert rows[2].error is None
    assert rows[0].verdict is Verdict.HYPOTHESIS_NOT_MET


def test_sweep_unknown_family():
    with pytest.raises(ValueError, match="family"):
        sweep("torus", [0.1], n=2)


def test_sweep_rejects_unknown_parameters():
    # the family has no such parameter: refuse before any row runs
    # instead of returning identical rows
    with pytest.raises(ValueError, match="'eps'"):
        sweep("Round", [0.1, 0.2], n=2, N=256, param="eps")
    with pytest.raises(ValueError, match="'cc'"):
        sweep("PeriodicProduct", [0.1], n=3, N=256, base_params={"cc": 2.0})


@settings(max_examples=10, deadline=None)
@given(eps=st.floats(0.0, 0.16))
def test_bound_soundness_on_bump_family(eps):
    # kappa2 = 1 - 6 eps > 0 on this range; the bound must hold
    rep = check_bound(make_preset("Bump", n=2, eps=eps), N=512)
    assert rep.kappa2 > 0
    assert rep.lambda_min >= rep.kappa2 - rep.tol_disc
    assert rep.bound_holds


@settings(max_examples=10, deadline=None)
@given(c=st.floats(0.6, 1.8), frac=st.floats(0.05, 0.7))
def test_periodic_verdict_property(c, frac):
    prof = make_preset("PeriodicProduct", n=3, c=c, a=c * frac)
    rep = check_bound(prof, N=512)
    assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET
