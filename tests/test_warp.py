import dataclasses
import gc
import json
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomlab import warp
from cohomlab import (Topology, Verdict, bump_profile, check_bound,
                      ensure_usable, grid_for, make_preset,
                      periodic_product_profile, profile_from_config,
                      profile_from_samples, round_profile, validate)
from cohomlab.warp import ANALYTIC_CLOSURE_TOL, MIN_GRID


def test_round_profile_basics():
    p = round_profile(k=1.0, n=2)
    assert p.topology is Topology.SPHERE_LIKE
    assert p.L == pytest.approx(math.pi)
    r = np.linspace(0.01, p.L - 0.01, 50)
    np.testing.assert_allclose(p.phi(r), np.sin(r), atol=1e-14)
    # second derivative identity phi'' = -k^2 phi
    np.testing.assert_allclose(p.d2phi(r), -p.phi(r), atol=1e-9)


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_round_closure(k, n):
    rep = validate(round_profile(k=k, n=n))
    assert rep.usable, rep.failures()
    closure = [c for c in rep.checks if "closure" in c.name]
    assert closure and all(c.residual <= ANALYTIC_CLOSURE_TOL for c in closure)


def test_periodic_product_closure():
    rep = validate(periodic_product_profile(c=1.0, a=0.3, n=3))
    assert rep.usable, rep.failures()
    closure = [c for c in rep.checks if c.name.startswith("periodic")]
    assert closure and all(c.residual <= 1e-10 for c in closure)


def test_bump_zero_eps_is_round():
    b = bump_profile(eps=0.0, n=2)
    r = np.linspace(0, math.pi, 33)
    np.testing.assert_allclose(b.phi(r), np.sin(r), atol=1e-15)


@pytest.mark.parametrize("n", [2.5, 3.0, True, 1, np.int64(1)])
def test_profile_refuses_a_dimension_that_is_not_an_integer_ge_2(n):
    with pytest.raises(ValueError,
                       match="dimension n must be an integer >= 2"):
        round_profile(k=1.0, n=n)


def test_profile_stores_a_numpy_dimension_as_int():
    # a numpy n used to leak into kappa2 and make bound_holds a
    # numpy.bool_, which json.dumps refuses
    p = round_profile(k=1.0, n=np.int64(3))
    assert type(p.n) is int and p.n == 3
    rep = check_bound(p, N=256)
    assert type(rep.n) is int and type(rep.bound_holds) is bool
    assert json.loads(json.dumps(dataclasses.asdict(rep),
                                 default=lambda v: v.value))["n"] == 3


@settings(max_examples=30, deadline=None)
@given(k=st.floats(0.3, 3.0), n=st.integers(2, 7))
def test_round_always_usable(k, n):
    assert validate(round_profile(k=k, n=n)).usable


@settings(max_examples=30, deadline=None)
@given(eps=st.floats(0.0, 0.45), n=st.integers(2, 5))
def test_bump_always_usable(eps, n):
    assert validate(bump_profile(eps=eps, n=n)).usable


@settings(max_examples=30, deadline=None)
@given(c=st.floats(0.5, 2.0), frac=st.floats(0.0, 0.8), n=st.integers(2, 5))
def test_periodic_product_always_usable(c, frac, n):
    assert validate(periodic_product_profile(c=c, a=c * frac, n=n)).usable


def test_periodic_product_rejects_touching_zero():
    with pytest.raises(ValueError):
        periodic_product_profile(c=1.0, a=1.0, n=3)


def test_make_preset_spellings():
    a = make_preset("PeriodicProduct", n=3, c=1.0, a=0.2)
    b = make_preset("periodic_product", n=3, c=1.0, a=0.2)
    assert a.preset_tag == b.preset_tag
    with pytest.raises(ValueError):
        make_preset("fancy", n=2)
    with pytest.raises(ValueError, match="'kk'"):
        make_preset("Round", n=2, kk=3.0)  # no silent k = 1.0


def test_spline_profile_reproduces_samples():
    r = np.linspace(0, math.pi, 257)
    samples = np.sin(r)
    p = profile_from_samples(r, samples, n=3, topology=Topology.SPHERE_LIKE)
    np.testing.assert_allclose(p.phi(r), samples, atol=1e-13)
    assert validate(p).usable
    mid = np.linspace(0.2, math.pi - 0.2, 41)
    np.testing.assert_allclose(p.phi(mid), np.sin(mid), atol=1e-8)


def test_spline_profile_detects_negative_phi():
    r = np.linspace(0, math.pi, 129)
    samples = np.sin(r) - 0.4 * np.sin(r) ** 3 - 0.62 * np.sin(2 * r) ** 2
    p = profile_from_samples(r, samples, n=2, topology=Topology.SPHERE_LIKE)
    rep = validate(p)
    assert not rep.usable
    # the error lists each failed check with its residual
    first = rep.failures()[0]
    assert first.name == "positivity" and first.residual <= 0
    with pytest.raises(ValueError, match=re.escape(
            f"failed: positivity ({first.residual:.3g})")):
        ensure_usable(p)


def test_ghosted_reflects_at_poles_and_wraps_on_a_circle():
    g = grid_for(round_profile(k=1.0, n=2), 16)
    v = np.arange(17.0) + 1.0  # v[1] = 2, v[-2] = 16
    np.testing.assert_array_equal(g.ghosted(v, "odd")[[0, -1]], [-2.0, -16.0])
    np.testing.assert_array_equal(g.ghosted(v, "even")[[0, -1]], [2.0, 16.0])
    c = grid_for(periodic_product_profile(c=1.0, a=0.2, n=3), 16)
    w = np.arange(16.0)
    np.testing.assert_array_equal(c.ghosted(w, "even"),
                                  np.r_[15.0, w, 0.0, 1.0])


@pytest.mark.parametrize("parity, power", [("odd", 3), ("even", 2)])
def test_prolong_is_exact_on_cubics_across_the_poles(parity, power):
    # (r - p)^3 is odd and (r - p)^2 even about a pole p, so the ghost
    # values are exact and the 4-point cubic reproduces them on the
    # half of the doubled grid next to that pole, first midpoint included
    g = grid_for(round_profile(k=1.0, n=2), 32)
    fine = np.arange(2 * g.N + 1) * (g.dx / 2)
    for pole, side in ((0.0, slice(None, g.N + 1)), (g.L, slice(g.N, None))):
        x = g.prolong((g.nodes - pole) ** power, parity)
        assert x.shape == fine.shape
        np.testing.assert_allclose(x[side], (fine[side] - pole) ** power,
                                   rtol=0, atol=1e-14)


def test_prolong_on_a_circle_is_fourth_order():
    err = []
    for N in (32, 64, 128):
        g = grid_for(periodic_product_profile(c=1.0, a=0.2, n=3), N)
        x = g.prolong(np.cos(2 * math.pi * g.nodes / g.L), "even")
        fine = np.arange(2 * N) * (g.dx / 2)
        assert x.shape == fine.shape
        err.append(np.max(np.abs(x - np.cos(2 * math.pi * fine / g.L))))
    for coarse, finer in zip(err, err[1:]):
        assert math.log2(coarse / finer) == pytest.approx(4.0, abs=0.1)


def test_grid_shapes():
    p = round_profile(k=1.0, n=2)
    g = grid_for(p, 64)
    assert g.nodes.shape == (65,)
    assert g.interior.shape == (63,)
    assert g.dx == pytest.approx(math.pi / 64)
    assert g.midpoints.shape == (64,)
    q = periodic_product_profile(c=1.0, a=0.2, n=3)
    gp = grid_for(q, 64)
    assert gp.nodes.shape == (64,)  # seam node dropped
    assert gp.dx == pytest.approx(q.L / 64)


def test_grid_minimum_size():
    p = round_profile(k=1.0, n=2)
    with pytest.raises(ValueError):
        grid_for(p, MIN_GRID // 2)
    # grid_for(p, 100.7) would build 102 nodes, the last one past L
    for N in (100.7, 64.0, True, "64"):
        with pytest.raises(ValueError, match=f"integer, got {N!r}$"):
            grid_for(p, N)
        with pytest.raises(ValueError, match=f"integer, got {N!r}$"):
            warp.RadialGrid.halvable(N)
    assert grid_for(p, np.int64(64)).nodes.size == 65


def test_config_errors_name_paths():
    with pytest.raises(ValueError, match="preset.k"):
        profile_from_config({"n": 2, "topology": "sphere_like",
                             "preset": {"type": "round"}, "grid": {"N": 64}})
    with pytest.raises(ValueError, match="topology"):
        profile_from_config({"n": 2, "topology": "periodic",
                             "preset": {"type": "round", "k": 1.0},
                             "grid": {"N": 64}})
    with pytest.raises(ValueError, match="preset.kk"):
        profile_from_config({"n": 2, "topology": "sphere_like",
                             "preset": {"type": "round", "k": 1.0, "kk": 3},
                             "grid": {"N": 64}})


def test_config_accepts_samples():
    r = np.linspace(0, math.pi, 129)
    cfg = {"n": 2, "topology": "sphere_like",
           "preset": {"type": "samples", "r": list(r),
                      "phi": list(np.sin(r))},
           "grid": {"N": 128}}
    p, g = profile_from_config(json.loads(json.dumps(cfg)))
    assert validate(p).usable
    assert g.N == 128


def _periodic_samples(mismatch=0.0):
    r = np.linspace(0, 2 * math.pi, 129)
    phi = 1.0 + 0.3 * np.sin(r)
    phi[-1] += mismatch
    return r, phi


def test_periodic_samples_must_match_at_the_seam():
    r, phi = _periodic_samples(mismatch=1e-3)
    with pytest.raises(ValueError, match="seam"):
        profile_from_samples(r, phi, n=3, topology=Topology.PERIODIC)


@pytest.mark.parametrize("mismatch, accepted", [
    (1e-16, True), (1e-14, False), (1e-9, False)])
def test_periodic_seam_is_checked_to_rounding(mismatch, accepted):
    # a periodic spline reads phi[0] at both ends, so the seam may differ
    # by rounding only, 1e-15 relative and absolute (and 1e-3 above)
    r, phi = _periodic_samples(mismatch=mismatch)
    if accepted:
        p = profile_from_samples(r, phi, n=3, topology=Topology.PERIODIC)
        assert validate(p).usable
    else:
        with pytest.raises(ValueError, match="must match at the seam"):
            profile_from_samples(r, phi, n=3, topology=Topology.PERIODIC)


@pytest.mark.parametrize("which, index, value", [
    ("r", 5, math.nan), ("r", -1, math.inf), ("phi", 5, math.nan),
    ("phi", 0, -math.inf)])
@pytest.mark.parametrize("topology", list(Topology))
def test_samples_must_be_finite(which, index, value, topology):
    # a NaN would otherwise reach validate, and an infinite last
    # abscissa still increases strictly
    r, phi = _periodic_samples()
    samples = {"r": r, "phi": phi}
    samples[which][index] = value
    with pytest.raises(ValueError, match="samples must be finite"):
        profile_from_samples(samples["r"], samples["phi"], n=3,
                             topology=topology)


def _spline_samples(topology, uniform, m):
    rng = np.random.default_rng(m)
    L = 2 * math.pi if topology is Topology.PERIODIC else math.pi
    if uniform:
        r = np.linspace(0.0, L, m)
    else:
        r = np.concatenate(([0.0], np.sort(rng.uniform(0.0, L, m - 2)), [L]))
        r += 0.5  # splines start anywhere; the profile starts at 0
    x = r - r[0]
    if topology is Topology.PERIODIC:
        phi = 1.0 + 0.3 * np.sin(x + 0.4) + 0.1 * np.cos(3 * x)
        phi[-1] = phi[0]
    else:
        s = np.sin(x)
        phi = s * (1.0 + 0.1 * s * s + 0.01 * rng.standard_normal(m))
    return r, phi


@pytest.mark.parametrize("m", [4, 5, 17, 129, 257])
@pytest.mark.parametrize("uniform", [True, False],
                         ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("topology", list(Topology))
def test_spline_matches_scipy_cubic_spline(topology, uniform, m):
    # the lab's own tridiagonal solve gives CubicSpline's interpolant at
    # the samples, between them and just outside both ends (where a
    # clamped spline extends its end cubics and a periodic one wraps)
    from scipy.interpolate import CubicSpline
    r, phi = _spline_samples(topology, uniform, m)
    bc = ("periodic" if topology is Topology.PERIODIC
          else ((1, 1.0), (1, -1.0)))
    reference = CubicSpline(r, phi, bc_type=bc)
    p = profile_from_samples(r, phi, n=3, topology=topology)
    h = np.diff(r)
    x = np.concatenate((r, r[:-1] + 0.37 * h, r[1:] - 0.81 * h,
                        [r[0] - 0.01 * h[0], r[0] - 1e-9,
                         r[-1] + 1e-9, r[-1] + 0.01 * h[-1]]))
    for nu, (f, tol) in enumerate([(p.phi, 1e-13), (p.dphi, 1e-13),
                                   (p.d2phi, 1e-10)]):
        want = reference(x, nu)
        got = f(x - r[0])
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), nu


def test_config_accepts_periodic_samples():
    # the spline wraps, so the profile is usable and its lab verdict is
    # that of 1 + 0.3 sin(r), whose curvature is negative somewhere
    r, phi = _periodic_samples()
    cfg = {"n": 3, "topology": "periodic",
           "preset": {"type": "samples", "r": list(r), "phi": list(phi)},
           "grid": {"N": 512}}
    p, g = profile_from_config(json.loads(json.dumps(cfg)))
    assert p.topology is Topology.PERIODIC and validate(p).usable
    rep = check_bound(p, N=g.N)
    assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert rep.kappa2 == pytest.approx(-0.4287, abs=1e-4)
    assert rep.obata_mu1 == pytest.approx(1.0153851, rel=1e-7)


def test_validation_is_cached(monkeypatch):
    # validate runs once per profile, and the report it leaves on the
    # profile does not keep the profile alive
    calls = []
    run = warp.validate
    monkeypatch.setattr(warp, "validate",
                        lambda profile: calls.append(profile) or run(profile))
    p = round_profile(k=1.0, n=4)
    check_bound(p, N=64)
    check_bound(p, N=64)
    q = round_profile(k=1.0, n=4)
    ensure_usable(q)
    assert calls == [p, q]
    ref = weakref.ref(p)
    calls.clear()
    del p
    gc.collect()
    assert ref() is None


def _fd1(fn, r, h):
    return (fn(r + h) - fn(r - h)) / (2.0 * h)


def _validate_reference(profile):
    """validate as written with one profile call per check (12 on a
    sphere-like profile, 14 on a periodic one): the reference whose
    report validate's single evaluation of phi, phi' and phi'' must
    reproduce, residual for residual."""
    L, tol = profile.L, profile.closure_tol
    checks = []

    samples = 512
    rs = (np.arange(1, samples) / samples) * L
    vals = np.asarray(profile.phi(rs), float)
    bad = np.where(~(vals > 0))[0]
    low = float(vals[bad[0]]) if bad.size else float(vals.min())
    checks.append(warp.CheckResult("positivity", not bad.size, low))

    if profile.topology is Topology.SPHERE_LIKE:
        res = {
            "closure phi(0)=0": abs(float(profile.phi(0.0))),
            "closure phi(L)=0": abs(float(profile.phi(L))),
            "closure phi'(0)=1": abs(float(profile.dphi(0.0)) - 1.0),
            "closure phi'(L)=-1": abs(float(profile.dphi(L)) + 1.0),
        }
    else:
        res = {
            "periodic phi": abs(float(profile.phi(0.0))
                                - float(profile.phi(L))),
            "periodic phi'": abs(float(profile.dphi(0.0))
                                 - float(profile.dphi(L))),
            "periodic phi''": abs(float(profile.d2phi(0.0))
                                  - float(profile.d2phi(L))),
        }
    for name, r in res.items():
        checks.append(warp.CheckResult(name, r <= tol, r))

    probe = (np.arange(1, 32) / 32.0) * L
    h = 1e-5 * L
    e1 = float(np.max(np.abs(_fd1(profile.phi, probe, h)
                             - profile.dphi(probe))))
    e2 = float(np.max(np.abs(_fd1(profile.dphi, probe, h)
                             - profile.d2phi(probe))))
    scale = max(1.0, float(np.max(np.abs(profile.dphi(probe)))))
    checks.append(warp.CheckResult("phi' consistent with phi",
                                   e1 <= 1e-6 * scale, e1))
    checks.append(warp.CheckResult("phi'' consistent with phi'",
                                   e2 <= 1e-4 * scale, e2))
    return warp.ValidationReport(checks=tuple(checks))


def _dip(r0, s=0.0005 * math.pi, slope=1.0):
    """slope * sin r minus a Gaussian dip of depth 1.2 and width s at
    r0, on [0, pi]."""

    def dip(r):
        u = (np.asarray(r, float) - r0) / s
        return u, 1.2 * np.exp(-u * u)

    return warp.WarpProfile(
        n=3, topology=Topology.SPHERE_LIKE, L=math.pi,
        phi=lambda r: slope * np.sin(r) - dip(r)[1],
        dphi=lambda r: slope * np.cos(r) + 2 * dip(r)[0] / s * dip(r)[1],
        d2phi=lambda r: -slope * np.sin(r)
        - (4 * dip(r)[0] ** 2 - 2) / (s * s) * dip(r)[1],
        preset_tag="dip")


_REFERENCE_PROFILES = {
    "round": lambda: round_profile(k=1.0, n=2),
    "round_k2.5": lambda: round_profile(k=2.5, n=3),
    "bump": lambda: bump_profile(eps=0.1, n=3),
    "bump_negative": lambda: bump_profile(eps=-0.4, n=2),
    "periodic_product": lambda: periodic_product_profile(c=1.0, a=0.3, n=3),
    "periodic_product_L3": lambda: periodic_product_profile(
        c=2.0, a=0.5, n=4, L=3.0),
    "samples": lambda: profile_from_samples(
        np.linspace(0, math.pi, 129),
        np.sin(np.linspace(0, math.pi, 129)) * 1.05, n=3),
    "periodic_samples": lambda: profile_from_samples(
        *_periodic_samples(), n=3, topology=Topology.PERIODIC),
    # phi < 0 between positivity samples 100 and 101: every check passes
    "dip_between_samples": lambda: _dip(101.5 / 512 * math.pi),
    # a dip at the first probe + h, narrow enough to miss the probe
    # and every sample: only the derivative checks see it
    "dip_at_a_probe": lambda: _dip(math.pi / 32 * (1 + 32e-5), s=5e-6),
    # positivity fails
    "negative_samples": lambda: profile_from_samples(
        np.linspace(0, math.pi, 129),
        [math.sin(r) - 0.4 * math.sin(r) ** 3 - 0.62 * math.sin(2 * r) ** 2
         for r in np.linspace(0, math.pi, 129)], n=2),
    # closure fails: phi'(0) = 1.1 (the dip lies outside [0, pi])
    "wrong_slope": lambda: _dip(10.0, slope=1.1),
    # positivity fails at a NaN sample past a positive minimum
    "nan_sample": lambda: dataclasses.replace(
        round_profile(k=1.0, n=3),
        phi=lambda r: np.where(r == 300 / 512 * math.pi, np.nan, np.sin(r))),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_PROFILES))
def test_validate_matches_the_per_check_reference(name):
    p = _REFERENCE_PROFILES[name]()
    calls = []

    def counted(f):
        return lambda r: calls.append(f) or f(r)

    q = dataclasses.replace(p, phi=counted(p.phi), dphi=counted(p.dphi),
                            d2phi=counted(p.d2phi))
    # repr: a NaN residual would make == fail on equal reports
    assert repr(validate(q)) == repr(_validate_reference(p))
    assert sorted(map(id, calls)) == sorted(map(id, (p.phi, p.dphi,
                                                     p.d2phi)))
