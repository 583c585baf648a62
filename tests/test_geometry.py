import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomlab import (Topology, WarpProfile, check_bound, grid_for,
                      make_preset, orbit_geometry, periodic_product_profile,
                      profile_from_samples, ricci_profile, round_profile)


def _setup(profile, N=512):
    grid = grid_for(profile, N)
    return grid, orbit_geometry(profile, grid)


def test_round_mean_curvature_and_shape_operator():
    p = round_profile(k=1.0, n=3)
    grid, geom = _setup(p)
    r = grid.interior
    np.testing.assert_allclose(geom.H, -np.cos(r) / np.sin(r), rtol=1e-12)
    np.testing.assert_allclose(geom.B2, 2 * (np.cos(r) / np.sin(r)) ** 2,
                               rtol=1e-12)


def test_weights_vanish_at_poles_only():
    p = round_profile(k=2.0, n=4)
    grid, geom = _setup(p)
    assert geom.w[0] == 0.0 and geom.w[-1] == 0.0
    assert np.all(geom.w[1:-1] > 0)
    assert np.all(geom.w_mid > 0)


def test_round_ricci_is_constant():
    for n in (2, 3, 4, 7):
        for k in (0.5, 1.0, 2.0):
            p = round_profile(k=k, n=n)
            grid = grid_for(p, 512)
            ric = ricci_profile(orbit_geometry(p, grid))
            np.testing.assert_allclose(ric.ric_radial, (n - 1) * k * k,
                                       rtol=1e-9)
            np.testing.assert_allclose(ric.ric_tangential, (n - 1) * k * k,
                                       rtol=1e-9)
            assert ric.kappa2 == pytest.approx(k * k, rel=1e-9)


def test_bump_kappa2_closed_form():
    # ric_min is attained at the poles where it tends to (n-1)(1 - 6 eps)
    for n in (2, 3):
        for eps in (0.05, 0.1, 0.2, 0.3):
            p = make_preset("Bump", n=n, eps=eps)
            ric = ricci_profile(orbit_geometry(p, grid_for(p, 2048)))
            assert ric.kappa2 == pytest.approx(1.0 - 6.0 * eps, abs=1e-4)


def test_flat_product_ricci():
    p = periodic_product_profile(c=1.0, a=0.0, n=3)
    ric = ricci_profile(orbit_geometry(p, grid_for(p, 256)))
    np.testing.assert_allclose(ric.ric_radial, 0.0, atol=1e-14)
    np.testing.assert_allclose(ric.ric_tangential, 1.0, atol=1e-14)
    assert ric.kappa2 == 0.0


@settings(max_examples=25, deadline=None)
@given(c=st.floats(0.5, 2.0), frac=st.floats(0.05, 0.8),
       n=st.integers(2, 5))
def test_periodic_ric_min_nonpositive(c, frac, n):
    # at the minimum of phi, phi'' >= 0 forces ric_radial <= 0
    p = periodic_product_profile(c=c, a=c * frac, n=n)
    ric = ricci_profile(orbit_geometry(p, grid_for(p, 256)))
    assert ric.ric_min <= 1e-12
    assert ric.kappa2 <= 1e-12


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["round", "bump"]),
       par=st.floats(0.05, 0.4), n=st.integers(2, 6))
def test_orbits_are_umbilic(kind, par, n):
    # |B|^2 = (n-1) H^2 for every warped product, so the shape-operator
    # residual is a one-way diagnostic
    if kind == "round":
        p = make_preset("round", n=n, k=0.5 + par)
    else:
        p = make_preset("bump", n=n, eps=par)
    grid, geom = _setup(p, 256)
    np.testing.assert_allclose(geom.B2, (n - 1) * geom.H ** 2, rtol=1e-12)


def test_curvature_scaling_covariance():
    base = ricci_profile(orbit_geometry(
        round_profile(k=1.0, n=3), grid_for(round_profile(k=1.0, n=3), 512)))
    for c in (0.5, 2.0, 3.0):
        scaled = ricci_profile(orbit_geometry(
            round_profile(k=c, n=3), grid_for(round_profile(k=c, n=3), 512)))
        assert scaled.kappa2 == pytest.approx(c * c * base.kappa2, rel=1e-6)


def test_argmin_location_round():
    p = round_profile(k=1.0, n=2)
    ric = ricci_profile(orbit_geometry(p, grid_for(p, 256)))
    assert 0 < ric.argmin_r < p.L


def test_nonfinite_ricci_is_refused():
    # phi'' is NaN past 0.99 L, beyond validate's last probe at 31/32 L,
    # so the profile is usable and only the Ricci arrays see the NaN
    p = WarpProfile(n=2, topology=Topology.SPHERE_LIKE, L=math.pi,
                    phi=np.sin, dphi=np.cos,
                    d2phi=lambda r: np.where(np.asarray(r) > 0.99 * math.pi,
                                             np.nan, -np.sin(r)),
                    preset_tag="nan-tail")
    assert p.validation.usable
    # the first retained node past 0.99 L is node 254, entry 253
    msg = "ric_radial is not finite at node 253 "
    with pytest.raises(ValueError, match=msg):
        ricci_profile(orbit_geometry(p, grid_for(p, 256)))
    with pytest.raises(ValueError, match=msg):
        check_bound(p, N=256)


def _dip(n, r0=101.5 / 512 * math.pi, s=0.0005 * math.pi):
    """sin r minus a Gaussian dip of depth 1.2 and width s at r0, by
    default midway between validate's positivity samples 100 and 101
    (at k L / 512): phi is positive at every sample but reaches -0.62
    on the grid."""

    def dip(r):
        u = (np.asarray(r, float) - r0) / s
        return u, 1.2 * np.exp(-u * u)

    def phi(r):
        return np.sin(r) - dip(r)[1]

    def dphi(r):
        u, e = dip(r)
        return np.cos(r) + 2 * u / s * e

    def d2phi(r):
        u, e = dip(r)
        return -np.sin(r) - (4 * u * u - 2) / (s * s) * e

    return WarpProfile(n=n, topology=Topology.SPHERE_LIKE, L=math.pi,
                       phi=phi, dphi=dphi, d2phi=d2phi, preset_tag="dip")


@pytest.mark.parametrize("n, dip, where", [
    (2, {}, "-0.363 is not positive at node 811 "),
    (3, {}, "-0.363 is not positive at node 811 "),
    (4, {}, "-0.363 is not positive at node 811 "),
    # narrow enough to miss nodes 811 and 812 but not the midpoint
    (3, {"r0": 811.5 / 4096 * math.pi, "s": 2.5e-4},
     "-0.617 is not positive at the midpoint after node 811 "),
], ids=["n2", "n3", "n4", "midpoint"])
def test_profile_not_positive_on_the_grid_is_refused(n, dip, where):
    # at odd n the mass phi^(n-1) stays positive, so without this check
    # n = 3 got a HypothesisNotMet verdict with kappa2 = -1.0e7
    p = _dip(n, **dip)
    assert p.validation.usable
    msg = "^phi = " + re.escape(where + "(profile dip)")
    with pytest.raises(ValueError, match=msg):
        orbit_geometry(p, grid_for(p, 4096))
    with pytest.raises(ValueError, match=msg):
        check_bound(p, N=4096)


def test_nan_phi_is_not_finite_rather_than_not_positive():
    # node 101 of N = 1024 lies between validate's samples
    node = 101 * (math.pi / 1024)
    p = WarpProfile(n=3, topology=Topology.SPHERE_LIKE, L=math.pi,
                    phi=lambda r: np.where(r == node, np.nan, np.sin(r)),
                    dphi=np.cos, d2phi=lambda r: -np.sin(r), preset_tag="nan")
    assert p.validation.usable
    with pytest.raises(ValueError, match="^H is not finite at node "):
        orbit_geometry(p, grid_for(p, 1024))


def test_midpoint_weights_avoid_pole_singularity():
    p = round_profile(k=1.0, n=5)
    grid, geom = _setup(p, 128)
    mids = grid.midpoints
    np.testing.assert_allclose(geom.w_mid, np.sin(mids) ** 4, rtol=1e-12)


@pytest.mark.parametrize("N", [1024, 3 * 1024])
@pytest.mark.parametrize("name", ["round", "bump", "periodic", "samples"])
def test_restrict_is_half_grid_geometry(name, N):
    if name == "samples":
        r = np.linspace(0, math.pi, 129)
        p = profile_from_samples(r, np.sin(r) * (1 + 0.05 * np.sin(r) ** 2),
                                 n=3, topology=Topology.SPHERE_LIKE)
    else:
        p = {"round": lambda: round_profile(k=1.3, n=3),
             "bump": lambda: make_preset("Bump", n=4, eps=0.08),
             "periodic": lambda: periodic_product_profile(c=1.0, a=0.3, n=3),
             }[name]()
    half = orbit_geometry(p, grid_for(p, N)).restrict()
    ref = orbit_geometry(p, grid_for(p, N // 2))
    assert half.grid == ref.grid and half.n == ref.n
    for attr in ("H", "B2", "w", "w_mid", "phi", "dphi"):
        assert np.array_equal(getattr(half, attr), getattr(ref, attr)), attr
    with pytest.raises(ValueError, match="even"):
        orbit_geometry(p, grid_for(p, 2 * N + 1)).restrict()
