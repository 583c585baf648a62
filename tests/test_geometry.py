import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomlab import geometry
from cohomlab import (RadialGrid, Topology, WarpProfile, check_bound,
                      grid_for, make_preset, orbit_geometry,
                      periodic_product_profile, profile_from_samples,
                      ricci_profile, round_profile)


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
    msg = "ric_radial is not finite at node 254 "
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


@pytest.mark.parametrize("topology, at, where", [
    (Topology.SPHERE_LIKE, 101, "H is not finite at node 101 "),
    (Topology.SPHERE_LIKE, 101.5,
     "w is not finite at the midpoint after node 101 "),
    (Topology.PERIODIC, 101, "H is not finite at node 101 "),
], ids=["node", "midpoint", "periodic"])
def test_nan_phi_is_not_finite_rather_than_not_positive(topology, at, where):
    # node 101 of N = 1024 and the midpoint after it lie between
    # validate's samples; the message names the grid point, not the
    # index into the retained or midpoint array
    sphere = topology is Topology.SPHERE_LIKE
    L, lift = (math.pi, 0.0) if sphere else (2 * math.pi, 2.0)
    r0 = at * (L / 1024)
    p = WarpProfile(n=3, topology=topology, L=L,
                    phi=lambda r: np.where(r == r0, np.nan, np.sin(r) + lift),
                    dphi=np.cos, d2phi=lambda r: -np.sin(r), preset_tag="nan")
    assert p.validation.usable
    msg = "^" + re.escape(where + "(profile nan)") + "$"
    with pytest.raises(ValueError, match=msg):
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


def _block_case(name, n):
    if name == "samples":
        r = np.linspace(0, math.pi, 129)
        return profile_from_samples(r, np.sin(r) * (1 + 0.05 * np.sin(r) ** 2),
                                    n=n, topology=Topology.SPHERE_LIKE)
    return {"round": lambda: round_profile(k=1.3, n=n),
            "bump": lambda: make_preset("Bump", n=n, eps=0.08),
            "periodic": lambda: periodic_product_profile(c=1.0, a=0.3, n=n),
            }[name]()


GEOMETRY_ARRAYS = ("H", "B2", "w", "w_mid", "phi", "dphi")


@pytest.mark.parametrize("name", ["round", "periodic"])
def test_orbit_geometry_arrays_share_one_block(name):
    # one allocation, so that freeing it keeps fine-grid pages mapped
    _, geom = _setup(_block_case(name, 3), 1024)
    block = geom.H.base
    assert isinstance(block, np.ndarray)
    for attr in GEOMETRY_ARRAYS:
        a = getattr(geom, attr)
        assert a.base is block and np.shares_memory(a, block), attr


@pytest.mark.parametrize("N", [1024, 2 ** 15])
@pytest.mark.parametrize("n", [2, 3, 7])
@pytest.mark.parametrize("name", ["round", "bump", "periodic", "samples"])
def test_orbit_geometry_matches_reference_formulas(name, n, N):
    # the arrays are written in place, with the same operations in the
    # same order as these fresh-array formulas, so they agree bit for bit
    p = _block_case(name, n)
    grid = grid_for(p, N)
    geom = orbit_geometry(p, grid)
    r = grid.nodes
    phi_nodes = np.asarray(p.phi(r), float)
    phi = grid.retained(phi_nodes)
    w_mid = np.asarray(p.phi(grid.midpoints), float) ** (n - 1)
    dphi = np.asarray(p.dphi(grid.retained(r)), float)
    quot = dphi / phi
    w = phi_nodes ** (n - 1)
    if grid.topology is Topology.SPHERE_LIKE:
        w[0] = w[-1] = 0.0
    ref = {"H": -quot, "B2": (n - 1) * quot * quot, "w": w, "w_mid": w_mid,
           "phi": phi, "dphi": dphi}
    for attr in GEOMETRY_ARRAYS:
        assert np.array_equal(getattr(geom, attr), ref[attr]), attr


def _require_reference(profile, grid, positive=False, **arrays):
    """geometry._require as written with a full scan of every array:
    the reference for the names and values its one-reduction form gives
    in its error messages."""
    first = 0 if grid.topology is Topology.PERIODIC else 1
    for name, values in arrays.items():
        bad = np.flatnonzero(values <= 0 if positive else ~np.isfinite(values))
        if bad.size:
            i = int(bad[0])
            at = (f"the midpoint after node {i}" if name.endswith("_mid")
                  else f"node {i if name == 'w' else i + first}")
            what = (f"= {values[i]:.3g} is not positive" if positive
                    else "is not finite")
            raise ValueError(f"{name.removesuffix('_mid')} {what} at {at} "
                             f"(profile {profile.preset_tag})")


def _refusal(require, *args, **arrays):
    try:
        require(*args, **arrays)
    except ValueError as exc:
        return str(exc)
    return None


# (positive, array names) of each _require call in orbit_geometry and
# ricci_profile
_REQUIRE_CALLS = [(True, ("phi", "phi_mid")),
                  (False, ("H", "B2", "w", "w_mid")),
                  (False, ("ric_radial", "ric_tangential"))]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("topology", list(Topology))
def test_require_names_the_first_bad_entry_as_the_full_scan_does(topology,
                                                                 value):
    p = round_profile(k=1.0, n=2)  # only its tag is read
    grid = RadialGrid(N=64, L=math.pi, topology=topology)

    def good(name):
        size = (grid.nodes.size if name == "w" else grid.N
                if name.endswith("_mid") else grid.interior.size)
        return np.linspace(0.5, 2.0, size)

    refused = 0
    for positive, names in _REQUIRE_CALLS:
        for name in names:
            last = good(name).size - 1
            for at in (0, last // 2, last):
                arrays = {k: good(k) for k in names}
                arrays[name][at] = value
                if at < last:
                    # a later bad entry, named only where value passes
                    arrays[name][last] = -2.0 if positive else math.nan
                got = _refusal(geometry._require, p, grid, positive, **arrays)
                assert got == _refusal(_require_reference, p, grid,
                                       positive, **arrays)
                refused += got is not None
    assert refused
