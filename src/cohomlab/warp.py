"""Warped-product manifold profiles over an interval or a circle.

A profile describes a metric dr^2 + phi(r)^2 g_{S^{n-1}} on either
[0, L] x S^{n-1} (sphere-like, two singular point-orbits at the ends)
or S^1 x S^{n-1} (periodic).  Smooth closure of a sphere-like profile
requires phi(0) = phi(L) = 0 with phi'(0) = 1 and phi'(L) = -1; a
periodic profile must match value and first two derivatives at the
seam.  Profiles are immutable; each keeps its validation report.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

ANALYTIC_CLOSURE_TOL = 1e-10
SPLINE_CLOSURE_TOL = 1e-6
MIN_GRID = 16


class Topology(Enum):
    SPHERE_LIKE = "sphere_like"
    PERIODIC = "periodic"


@dataclass(frozen=True, eq=False)
class WarpProfile:
    """Warping function phi with its first two derivatives.

    phi, dphi, d2phi accept and return numpy arrays (or floats).
    closure_tol separates modeling error from discretization error:
    analytic presets must close to 1e-10, sampled splines to 1e-6.
    """

    n: int
    topology: Topology
    L: float
    phi: Callable
    dphi: Callable
    d2phi: Callable
    preset_tag: str
    closure_tol: float = ANALYTIC_CLOSURE_TOL

    def __post_init__(self):
        # stored as a Python int, so that reports carrying n dump as JSON
        object.__setattr__(self, "n", self.dimension(self.n))
        if not self.L > 0:
            raise ValueError(f"domain length must be positive, got {self.L}")

    @staticmethod
    def dimension(n) -> int:
        """int(n); n must be an integer >= 2 (numpy integers pass, bool
        not)."""
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) \
                or n < 2:
            raise ValueError(f"dimension n must be an integer >= 2, "
                             f"got {n!r}")
        return int(n)

    @functools.cached_property
    def validation(self) -> "ValidationReport":
        """validate(self), run on first use and kept with the profile."""
        return validate(self)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform nodes r_i = i * (L / N), i = 0..N, and their edge rules:
    retained nodes, ghost nodes past a pole or the seam, halvable N."""

    N: int
    L: float
    topology: Topology

    def __post_init__(self):
        # stored as a Python int, so that reports carrying N dump as JSON
        object.__setattr__(self, "N", self.integral(self.N))
        if self.N < MIN_GRID:
            raise ValueError(f"grid needs N >= {MIN_GRID}, got {self.N}")

    @staticmethod
    def integral(N) -> int:
        """int(N); N must be an integer (numpy integers pass, bool not)."""
        if isinstance(N, bool) or not isinstance(N, numbers.Integral):
            raise ValueError(f"grid N must be an integer, got {N!r}")
        return int(N)

    @staticmethod
    def halvable(N: int, halvings: int = 1) -> int:
        """N, refused unless an integer and every grid met while halving
        it that many times is even with at least 2 * MIN_GRID nodes."""
        RadialGrid.integral(N)
        for j in range(halvings):
            if (N >> j) % 2 or N >> j < 2 * MIN_GRID:
                got = N if j == 0 else f"{N} / {2 ** j} = {N >> j}"
                raise ValueError(f"the half grid needs an even N >= "
                                 f"{2 * MIN_GRID}, got {got}")
        return N

    @staticmethod
    def doubling(grids) -> list:
        """grids as integers, refused unless 3 or more, each twice the one
        before: the family a convergence study solves."""
        grids = [RadialGrid.integral(g) for g in grids]
        if len(grids) < 3 or any(b != 2 * a
                                 for a, b in zip(grids, grids[1:])):
            raise ValueError(f"a convergence study needs 3 grids or more, "
                             f"each double the one before, got {grids}")
        return grids

    def half(self) -> "RadialGrid":
        return replace(self, N=self.halvable(self.N) // 2)

    def ghosted(self, values, parity: str) -> np.ndarray:
        """values at every node, extended to nodes -1..N+1: cyclically on
        a circle, else by the reflection smooth closure forces at a pole,
        v(-r) = -v(r) for parity 'odd' (fields), +v(r) for 'even'."""
        v = np.asarray(values, float)
        if parity not in ("odd", "even"):
            raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
        if self.topology is Topology.PERIODIC:
            return np.concatenate((v[-1:], v, v[:2]))
        s = -1.0 if parity == "odd" else 1.0
        return np.concatenate(((s * v[1],), v, (s * v[-2],)))

    def prolong(self, values, parity: str) -> np.ndarray:
        """values at every node, carried to every node of the grid with
        2 N cells: the even nodes are these, each odd one the 4-point
        cubic (-v[j-1] + 9 v[j] + 9 v[j+1] - v[j+2]) / 16 through the
        nearest four, past a pole or the seam those of ghosted."""
        v = np.asarray(values, float)
        ext = self.ghosted(v, parity)
        mid = (9.0 * (ext[1:-2] + ext[2:-1]) - ext[:-3] - ext[3:]) / 16.0
        x = np.empty(v.size + mid.size)
        x[::2] = v
        x[1::2] = mid
        return x

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def nodes(self) -> np.ndarray:
        """All nodes 0..N (periodic arrays drop the duplicate seam node)."""
        if self.topology is Topology.PERIODIC:
            return np.arange(self.N) * self.dx
        return np.arange(self.N + 1) * self.dx

    def retained(self, values):
        """values at the retained nodes: every node of a periodic grid,
        all but the two singular poles of a sphere-like one."""
        if self.topology is Topology.PERIODIC:
            return values
        return values[1:-1]

    @property
    def interior(self) -> np.ndarray:
        """Nodes carrying per-orbit data: poles excluded when singular."""
        return self.retained(self.nodes)

    @property
    def midpoints(self) -> np.ndarray:
        return (np.arange(self.N) + 0.5) * self.dx


def grid_for(profile: WarpProfile, N: int) -> RadialGrid:
    return RadialGrid(N=N, L=profile.L, topology=profile.topology)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def usable(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def round_profile(k: float, n: int) -> WarpProfile:
    """Round sphere of curvature k^2: phi = sin(kr)/k on [0, pi/k]."""
    if not k > 0:
        raise ValueError(f"curvature scale k must be positive, got {k}")
    return WarpProfile(
        n=n,
        topology=Topology.SPHERE_LIKE,
        L=math.pi / k,
        phi=lambda r: np.sin(k * np.asarray(r, float)) / k,
        dphi=lambda r: np.cos(k * np.asarray(r, float)),
        d2phi=lambda r: -k * np.sin(k * np.asarray(r, float)),
        preset_tag=f"round(k={k!r})",
    )


def bump_profile(eps: float, n: int) -> WarpProfile:
    """One-parameter deformation of the unit round profile on [0, pi].

    phi = sin(r) * (1 + eps * sin(r)^2).  eps = 0 collapses to round(k=1).
    """
    if not abs(eps) < 1:
        raise ValueError(f"bump needs |eps| < 1 to keep phi positive, got {eps}")

    def phi(r):
        s = np.sin(np.asarray(r, float))
        return s * (1.0 + eps * s * s)

    def dphi(r):
        r = np.asarray(r, float)
        s, c = np.sin(r), np.cos(r)
        return c * (1.0 + 3.0 * eps * s * s)

    def d2phi(r):
        r = np.asarray(r, float)
        s = np.sin(r)
        return -s * (1.0 - 6.0 * eps + 9.0 * eps * s * s)

    return WarpProfile(
        n=n,
        topology=Topology.SPHERE_LIKE,
        L=math.pi,
        phi=phi,
        dphi=dphi,
        d2phi=d2phi,
        preset_tag=f"bump(eps={eps!r})",
    )


def periodic_product_profile(c: float, a: float, n: int,
                             L: float = 2.0 * math.pi) -> WarpProfile:
    """Fiber radius c modulated by a * sin(2 pi r / L) around a circle.

    a = 0 is the flat metric product S^1 x S^{n-1}.
    """
    if not (0 <= a < c):
        raise ValueError(f"periodic product needs 0 <= a < c, got a={a}, c={c}")
    om = 2.0 * math.pi / L
    return WarpProfile(
        n=n,
        topology=Topology.PERIODIC,
        L=L,
        phi=lambda r: c + a * np.sin(om * np.asarray(r, float)),
        dphi=lambda r: a * om * np.cos(om * np.asarray(r, float)),
        d2phi=lambda r: -a * om * om * np.sin(om * np.asarray(r, float)),
        preset_tag=f"periodic_product(c={c!r}, a={a!r})",
    )


def profile_from_samples(r: Sequence[float], phi: Sequence[float], n: int,
                         topology: Topology = Topology.SPHERE_LIKE) -> WarpProfile:
    """Cubic-spline profile through (r, phi) samples.

    Sphere-like splines are clamped to the closure slopes +1 / -1 at the
    ends; periodic splines wrap.  C^2 evaluation is needed because the
    Ricci formulas read phi''.
    """
    from scipy.interpolate import CubicSpline  # costly import, splines only

    r = np.asarray(r, float)
    phi = np.asarray(phi, float)
    if r.ndim != 1 or r.shape != phi.shape or r.size < 4:
        raise ValueError("samples need matching 1-d arrays of length >= 4")
    if not np.all(np.diff(r) > 0):
        raise ValueError("sample abscissae must be strictly increasing")
    if topology is Topology.SPHERE_LIKE:
        spline = CubicSpline(r, phi, bc_type=((1, 1.0), (1, -1.0)))
    else:
        if abs(phi[0] - phi[-1]) > SPLINE_CLOSURE_TOL:
            raise ValueError("periodic samples must match at the seam")
        spline = CubicSpline(r, phi, bc_type="periodic")
    d1 = spline.derivative(1)
    d2 = spline.derivative(2)
    return WarpProfile(
        n=n,
        topology=topology,
        L=float(r[-1] - r[0]),
        phi=lambda x: spline(np.asarray(x, float) + r[0]),
        dphi=lambda x: d1(np.asarray(x, float) + r[0]),
        d2phi=lambda x: d2(np.asarray(x, float) + r[0]),
        preset_tag=f"samples(m={r.size})",
        closure_tol=SPLINE_CLOSURE_TOL,
    )


@dataclass(frozen=True)
class Preset:
    """An analytic preset: builder, parameters with their API defaults,
    the ones a config must give, the one sweep varies, and topology."""

    name: str
    builder: Callable
    defaults: dict
    required: tuple
    sweep_param: str
    topology: Topology

    def check(self, names, path: str = "") -> None:
        """Raise ValueError on a non-parameter, naming path.format(it)."""
        for p in names:
            if not (isinstance(p, str) and p in self.defaults):
                where = f"config path '{path.format(p)}': " if path else ""
                raise ValueError(
                    f"{where}preset {self.name!r} has no parameter {p!r} "
                    f"(it takes {', '.join(self.defaults)})")


PRESETS = {p.name: p for p in (
    Preset("round", round_profile, {"k": 1.0}, ("k",), "k",
           Topology.SPHERE_LIKE),
    Preset("bump", bump_profile, {"eps": 0.0}, ("eps",), "eps",
           Topology.SPHERE_LIKE),
    Preset("periodic_product", periodic_product_profile,
           {"c": 1.0, "a": 0.0, "L": 2.0 * math.pi}, ("c", "a"), "a",
           Topology.PERIODIC),
)}


def lookup_preset(kind: str) -> Preset:
    """PRESETS entry; "periodic_product" and "PeriodicProduct" both work."""
    for preset in PRESETS.values():
        if preset.name.replace("_", "") == kind.lower().replace("_", ""):
            return preset
    raise ValueError(f"unknown preset family {kind!r} "
                     f"(known: {', '.join(PRESETS)})")


def make_preset(kind: str, n: int, **params) -> WarpProfile:
    """Build the PRESETS entry named kind; omitted parameters take their
    defaults, unknown ones raise ValueError."""
    preset = lookup_preset(kind)
    preset.check(params)
    return preset.builder(n=n, **{**preset.defaults, **params})


def _fd1(fn, r, h):
    return (fn(r + h) - fn(r - h)) / (2.0 * h)


def validate(profile: WarpProfile) -> ValidationReport:
    """Run positivity, closure and derivative-consistency checks.

    Report-valued: failures never raise here.  Downstream operations
    refuse profiles whose report is not usable.
    """
    L, tol = profile.L, profile.closure_tol
    checks = []

    samples = 512  # interior points at which phi > 0 is checked
    rs = (np.arange(1, samples) / samples) * L
    vals = np.asarray(profile.phi(rs), float)
    bad = np.where(~(vals > 0))[0]
    # the first non-positive sample, else the smallest value
    low = float(vals[bad[0]]) if bad.size else float(vals.min())
    checks.append(CheckResult("positivity", not bad.size, low))

    if profile.topology is Topology.SPHERE_LIKE:
        res = {
            "closure phi(0)=0": abs(float(profile.phi(0.0))),
            "closure phi(L)=0": abs(float(profile.phi(L))),
            "closure phi'(0)=1": abs(float(profile.dphi(0.0)) - 1.0),
            "closure phi'(L)=-1": abs(float(profile.dphi(L)) + 1.0),
        }
    else:
        res = {
            "periodic phi": abs(float(profile.phi(0.0)) - float(profile.phi(L))),
            "periodic phi'": abs(float(profile.dphi(0.0)) - float(profile.dphi(L))),
            "periodic phi''": abs(float(profile.d2phi(0.0)) - float(profile.d2phi(L))),
        }
    for name, r in res.items():
        checks.append(CheckResult(name, r <= tol, r))

    # supplied derivatives must agree with finite differences of phi itself
    probe = (np.arange(1, 32) / 32.0) * L
    h = 1e-5 * L
    e1 = float(np.max(np.abs(_fd1(profile.phi, probe, h)
                             - profile.dphi(probe))))
    e2 = float(np.max(np.abs(_fd1(profile.dphi, probe, h)
                             - profile.d2phi(probe))))
    scale = max(1.0, float(np.max(np.abs(profile.dphi(probe)))))
    checks.append(CheckResult("phi' consistent with phi", e1 <= 1e-6 * scale, e1))
    checks.append(CheckResult("phi'' consistent with phi'", e2 <= 1e-4 * scale, e2))

    return ValidationReport(checks=tuple(checks))


def ensure_usable(profile: WarpProfile) -> None:
    """Raise ValueError unless profile.validation (run once) is usable."""
    rep = profile.validation
    if not rep.usable:
        failed = ", ".join(f"{c.name} ({c.residual:.3g})"
                           for c in rep.failures())
        raise ValueError(
            f"profile {profile.preset_tag} is not usable; failed: {failed}")


# --- JSON config schema -------------------------------------------------
#
# {"n": int >= 2, "topology": "sphere_like"|"periodic",
#  "preset": {"type": <a PRESETS name>|"samples", <its parameters>},
#  "grid": {"N": int >= MIN_GRID},
#  "sweep": {"param": <a preset parameter>, "values": [number]},  (optional)
#  "converge": {"grids": [int >= MIN_GRID], 3 or more, doubling}} (optional)
#
# read_config checks the whole document at once, and refuses any key
# outside it; errors name the config path.

# top-level keys, each with its section's keys (None: not a keyed section)
CONFIG_KEYS = {"n": None, "topology": None, "preset": None, "grid": ("N",),
               "sweep": ("param", "values"), "converge": ("grids",)}


def _cfg_object(cfg, path: str, known=None) -> dict:
    """cfg, refused unless an object with no key outside known (if given)."""
    if not isinstance(cfg, dict):
        where = f"config path '{path[:-1]}'" if path else "config"
        raise ValueError(f"{where}: expected an object, got {cfg!r}")
    unknown = [k for k in cfg if known is not None and k not in known]
    if unknown:
        raise ValueError(f"config path '{path}{unknown[0]}': unknown key "
                         f"(known: {', '.join(known)})")
    return cfg


def _cfg_get(cfg: dict, key: str, path: str):
    if key not in _cfg_object(cfg, path):
        raise ValueError(f"config path '{path}{key}': missing")
    return cfg[key]


def _cfg_real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ValueError(f"config path '{path}': expected a finite number, "
                         f"got {value!r}")
    return float(value)


def _cfg_int(value, path: str, minimum: int = MIN_GRID) -> int:
    """value, refused (naming path) unless an integer >= minimum."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < minimum:
        raise ValueError(f"config path '{path}': expected integer >= "
                         f"{minimum}, got {value!r}")
    return value


def _cfg_list(values, path: str, item=_cfg_real) -> list:
    """values checked as a list, each entry by item(entry, its path)."""
    if not isinstance(values, list):
        raise ValueError(f"config path '{path}': expected a list, "
                         f"got {values!r}")
    return [item(v, f"{path}[{i}]") for i, v in enumerate(values)]


class Config(NamedTuple):
    """A checked config document; params are the preset's ({} for
    samples), sweep_values is None without a sweep."""
    profile: WarpProfile
    grid: RadialGrid
    preset: str
    params: dict
    sweep_param: str | None
    sweep_values: list | None
    converge_grids: list


def read_config(cfg) -> Config:
    """Check the whole config document and build what it describes;
    raise ValueError naming the config path of the first bad value."""
    _cfg_object(cfg, "", CONFIG_KEYS)
    sections = {key: _cfg_object(cfg.get(key, {}), f"{key}.", known)
                for key, known in CONFIG_KEYS.items() if known}
    n = _cfg_int(_cfg_get(cfg, "n", ""), "n", minimum=2)
    topo_name = _cfg_get(cfg, "topology", "")
    if topo_name not in ("sphere_like", "periodic"):
        raise ValueError(f"config path 'topology': expected 'sphere_like' "
                         f"or 'periodic', got {topo_name!r}")
    topology = Topology(topo_name)
    preset = _cfg_get(cfg, "preset", "")
    ptype = _cfg_get(preset, "type", "preset.")
    entry, params = PRESETS.get(str(ptype)), {}
    if ptype == "samples":
        _cfg_object(preset, "preset.", ("type", "r", "phi"))
        profile = profile_from_samples(
            _cfg_list(_cfg_get(preset, "r", "preset."), "preset.r"),
            _cfg_list(_cfg_get(preset, "phi", "preset."), "preset.phi"),
            n=n, topology=topology)
    else:
        if entry is None:
            raise ValueError(
                f"config path 'preset.type': unknown type {ptype!r}")
        if entry.topology is not topology:
            raise ValueError(
                f"config path 'topology': preset {ptype!r} implies "
                f"{entry.topology.value!r}, config says {topo_name!r}")
        entry.check((k for k in preset if k != "type"), path="preset.{}")
        params = {
            p: _cfg_real(_cfg_get(preset, p, "preset.") if p in entry.required
                         else preset.get(p, default), f"preset.{p}")
            for p, default in entry.defaults.items()}
        profile = entry.builder(n=n, **params)
    N = _cfg_int(_cfg_get(_cfg_get(cfg, "grid", ""), "N", "grid."), "grid.N")
    sweep, converge = sections["sweep"], sections["converge"]
    param = sweep.get("param")
    if "sweep" in cfg and entry is None:
        raise ValueError("config path 'sweep': a 'samples' preset has no "
                         "parameter to sweep")
    if param is not None:
        entry.check([param], path="sweep.param")
    values = (_cfg_list(_cfg_get(sweep, "values", "sweep."), "sweep.values")
              if "sweep" in cfg else None)
    grids = _cfg_list(converge.get("grids", []), "converge.grids", _cfg_int)
    if "grids" in converge:
        try:
            RadialGrid.doubling(grids)
        except ValueError as exc:
            raise ValueError(f"config path 'converge.grids': {exc}") from None
    return Config(profile, grid_for(profile, N), ptype, params, param,
                  values, grids)


def profile_from_config(cfg: dict) -> tuple[WarpProfile, RadialGrid]:
    """The profile and grid of a config document, refused as read_config
    refuses it: every section is checked, read here or not."""
    return read_config(cfg)[:2]
