"""Seeded inputs, the ops that drive cohomlab, and the checks on their
outputs.

Every workload is a closed loop with one client: the next op starts
when the previous one has returned.  Ops come in rounds; a round is a
fixed mix of op kinds and grid sizes whose parameters and order the
seed draws, and a phase runs whole rounds, so every run covers the
same mix.

An op's outcome is one of
  ok          returned, and the output passed its check;
  unconverged raised cohomlab.ConvergenceError, the solver's typed
              refusal (the known defect on fine grids);
  wrong       returned an output that failed its check;
  error       raised anything else.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from speed import Speed
from tracing import merge_totals

# Round answers must match k^2 and n k^2 this closely, relative, at
# every grid size the workloads use.
ROUND_REL_TOL = 1e-5
# Bump pole-limit curvature is kappa2 = 1 - 6 eps; the grid value may
# differ by O(dx^2).
BUMP_KAPPA_TOL = 1e-3
# Cubic splines through m >= 64 samples of Bump(eps <= 0.1) miss the
# pole-limit curvature by up to 0.027 (scanned over every m in
# [64, 256], n in {2, 3, 7} and the grids used here).
SAMPLES_KAPPA_TOL = 0.05
# No bump eps is drawn within this distance of 1/6, where the sign of
# kappa2 depends on the grid.
BUMP_BAND = 0.02

SUBPROCESS_TIMEOUT_S = 120

COMMITTED_CONFIGS = ("configs/round_n2.json", "configs/bump02_n2.json",
                     "configs/periodic_n3.json")

WORKLOADS = {
    "verify-mix": "interactive API path, per-step eigensolver overhead "
                  "dominates and memory traffic does not",
    "fine-grid": "N = 2^14..2^17, the geometry, factor and solve kernels "
                 "work outside L2, and the solver's known defect shows",
    "sweep-bump": "the only path through lab.sweep's thread pool and "
                  "per-row profile construction and validation",
    "cold-verify": "fresh CLI processes, where interpreter start and "
                   "import dominate",
}


@dataclass
class Op:
    kind: str      # check_bound | obata | solve | sweep | verify
    spec: dict     # profile family, parameters, n, N
    units: int = 1  # ops this call counts for (sweep rows)


# --- inputs -------------------------------------------------------------

def _bump_eps(rng: random.Random, lo: float, hi: float) -> float:
    while True:
        eps = rng.uniform(lo, hi)
        if abs(eps - 1.0 / 6.0) >= BUMP_BAND:
            return eps


def _samples_spec(rng: random.Random, n: int, N: int) -> dict:
    """Samples of a Bump(eps) profile, for profile_from_samples."""
    eps = rng.uniform(0.02, 0.1)
    m = rng.randint(64, 256)
    r = np.linspace(0.0, math.pi, m)
    s = np.sin(r)
    return {"family": "samples", "eps": eps, "m": m, "n": n, "N": N,
            "r": r, "phi": s * (1.0 + eps * s * s)}


def _draw_spec(rng: random.Random, family: str, n: int, N: int,
               round_k=(0.5, 2.0)) -> dict:
    if family == "round":
        return {"family": "round", "k": rng.uniform(*round_k), "n": n, "N": N}
    if family == "bump":
        return {"family": "bump", "eps": _bump_eps(rng, 0.02, 0.15),
                "n": n, "N": N}
    if family == "periodic":
        return {"family": "periodic", "a": rng.uniform(0.1, 0.5), "n": n,
                "N": N}
    return _samples_spec(rng, n, N)


def verify_mix_round(rng: random.Random, small: bool = False) -> list:
    """Ten ops: 6 check_bound, 2 obata_check (kappa2 > 0 only), 2
    solve_smallest(richardson=True), each on a freshly drawn profile.
    Every family appears in each round's check_bound ops."""
    grids = (256, 512) if small else (1024, 2048, 4096)
    every = ("round", "bump", "periodic", "samples")
    positive = ("round", "bump", "samples")
    plan = ([("check_bound", f) for f in every]
            + [("check_bound", rng.choice(every)) for _ in range(2)]
            + [("obata", rng.choice(positive)) for _ in range(2)]
            + [("solve", rng.choice(every)) for _ in range(2)])
    rng.shuffle(plan)
    return [Op(kind, _draw_spec(rng, family, rng.choice((2, 3, 7)),
                                rng.choice(grids)))
            for kind, family in plan]


def fine_grid_round(rng: random.Random, small: bool = False) -> list:
    """check_bound and solve_smallest(richardson=True) on Round(k = 1),
    Bump and PeriodicProduct at every N, n = 3, in seeded order.

    Round's relative error does not depend on k except through roundoff,
    which is all that is left of it on these grids, so k is fixed and
    lam_err_max repeats from run to run.  (The seed-commit solver also
    converges at 2^15 for k <= 0.6 and fails at 2^14 for k >= 1.2.)
    Op time roughly doubles with each power of two, so with four sizes
    the median op falls between the 2^15 and 2^16 groups and jumps by
    their gap from run to run; a fifth size, 3 * 2^14, puts it inside
    one group."""
    grids = ((2 ** 14, 2 ** 15) if small
             else (2 ** 14, 2 ** 15, 3 * 2 ** 14, 2 ** 16, 2 ** 17))
    ops = []
    for family in ("round", "bump", "periodic"):
        for N in grids:
            for kind in ("check_bound", "solve"):
                ops.append(Op(kind, _draw_spec(rng, family, 3, N,
                                               round_k=(1.0, 1.0))))
    rng.shuffle(ops)
    return ops


def sweep_round(rng: random.Random, small: bool = False) -> list:
    """One sweep("Bump", ...) call: eps = 0 (the round sphere) plus
    seeded eps in [0.02, 0.3] away from 1/6, in seeded order."""
    rows, N = (8, 1024) if small else (40, 4096)
    values = [0.0] + [_bump_eps(rng, 0.02, 0.3) for _ in range(rows - 1)]
    rng.shuffle(values)
    return [Op("sweep", {"family": "bump", "values": values, "n": 3, "N": N},
               units=rows)]


def cold_verify_round(rng: random.Random, configs: list) -> list:
    """Each config once, in seeded order."""
    ops = [Op("verify", spec) for spec in configs]
    rng.shuffle(ops)
    return ops


def write_samples_config(rng: random.Random, path: str) -> None:
    spec = _samples_spec(rng, 2, 2048)
    cfg = {"n": 2, "topology": "sphere_like",
           "preset": {"type": "samples", "r": spec["r"].tolist(),
                      "phi": spec["phi"].tolist()},
           "grid": {"N": 2048}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    with open(path + ".spec", "w", encoding="utf-8") as fh:
        json.dump({"eps": spec["eps"], "m": spec["m"]}, fh)


def config_spec(path: str) -> dict:
    """Profile spec of a CLI config, for the same checks as the API ops."""
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    preset = cfg["preset"]
    spec = {"n": cfg["n"], "N": cfg["grid"]["N"], "path": path}
    kind = preset["type"]
    if kind == "round":
        spec.update(family="round", k=float(preset["k"]))
    elif kind == "bump":
        spec.update(family="bump", eps=float(preset["eps"]))
    elif kind == "periodic_product":
        spec.update(family="periodic", a=float(preset["a"]))
    elif kind == "samples":
        with open(path + ".spec", encoding="utf-8") as fh:
            spec.update(family="samples", **json.load(fh))
    else:
        raise ValueError(f"no checks for preset type {kind!r} in {path}")
    return spec


# --- checks -------------------------------------------------------------

def _round_k(spec: dict):
    if spec["family"] == "round":
        return spec["k"]
    if spec["family"] == "bump" and spec["eps"] == 0.0:
        return 1.0
    return None


def _expected_verdict(spec: dict) -> str:
    if _round_k(spec) is not None:
        return "RoundSphereDetected"
    if spec["family"] == "periodic":
        return "HypothesisNotMet"
    return ("StrictlyAboveBound" if spec["eps"] < 1.0 / 6.0
            else "HypothesisNotMet")


def _rel(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


@dataclass
class Check:
    problems: list = field(default_factory=list)
    lam_err: float = None
    mu1_err: float = None

    def need(self, cond: bool, what: str) -> None:
        if not cond:
            self.problems.append(what)

    def round_errors(self, spec, lam, mu1):
        k = _round_k(spec)
        if k is None:
            return
        if lam is not None:
            self.lam_err = _rel(lam, k * k)
            self.need(self.lam_err <= ROUND_REL_TOL,
                      f"lambda error {self.lam_err:.2e}")
        if mu1 is not None:
            self.mu1_err = _rel(mu1, spec["n"] * k * k)
            self.need(self.mu1_err <= ROUND_REL_TOL,
                      f"mu1 error {self.mu1_err:.2e}")

    def kappa2(self, spec, kappa2):
        family = spec["family"]
        k = _round_k(spec)
        if k is not None:
            self.need(_rel(kappa2, k * k) <= ROUND_REL_TOL, "round kappa2")
        elif family == "bump":
            self.need(abs(kappa2 - (1 - 6 * spec["eps"])) <= BUMP_KAPPA_TOL,
                      f"bump kappa2 {kappa2!r}")
        elif family == "samples":
            self.need(abs(kappa2 - (1 - 6 * spec["eps"]))
                      <= SAMPLES_KAPPA_TOL, f"samples kappa2 {kappa2!r}")
        else:
            self.need(kappa2 < 0, f"periodic kappa2 {kappa2!r}")


def report_payload(report) -> dict:
    """check_bound's report as the CLI prints it."""
    payload = asdict(report)
    payload["verdict"] = report.verdict.value
    return payload


def check_payload(spec: dict, p: dict) -> Check:
    """Checks on a check_bound payload (API report or CLI stdout)."""
    c = Check()
    c.need(p["verdict"] == _expected_verdict(spec),
           f"verdict {p['verdict']} for {spec['family']}")
    c.need(bool(p["bound_holds"]), "bound does not hold")
    c.need(all(math.isfinite(p[key]) for key in
               ("lambda_min", "obata_mu1", "kappa2", "gap")),
           "non-finite value")
    c.kappa2(spec, p["kappa2"])
    c.round_errors(spec, p["lambda_min"], p["obata_mu1"])
    return c


def check_obata(spec: dict, rep) -> Check:
    c = Check()
    n = spec["n"]
    c.kappa2(spec, rep.kappa2)
    if _round_k(spec) is not None:
        c.round_errors(spec, rep.lambda_min, rep.mu1)
    else:
        # off the sphere both inequalities are strict: lambda_min >
        # kappa2, and (Lichnerowicz, Obata) mu1 > n kappa2
        c.need(rep.lambda_min > rep.kappa2, "vector bound violated")
        c.need(rep.mu1 > n * rep.kappa2 * (1 + 1e-3),
               "non-round profile has no Obata defect")
    return c


def check_solve(spec: dict, res) -> Check:
    c = Check()
    lam, extrap = res.lam, res.extrapolated
    c.need(math.isfinite(lam) and math.isfinite(extrap), "non-finite lambda")
    c.round_errors(spec, lam, None)
    if _round_k(spec) is not None:
        k2 = _round_k(spec) ** 2
        c.need(_rel(extrap, k2) <= ROUND_REL_TOL, "extrapolated lambda")
    elif spec["family"] == "periodic":
        c.need(lam > 0, "periodic lambda not positive")
    else:
        # the bound lambda_min >= kappa2 with kappa2 near 1 - 6 eps
        slack = (BUMP_KAPPA_TOL if spec["family"] == "bump"
                 else SAMPLES_KAPPA_TOL)
        c.need(lam >= 1 - 6 * spec["eps"] - slack, "bound violated")
    return c


def check_sweep_row(spec: dict, row) -> Check:
    c = Check()
    if row.error:
        c.problems.append(row.error)
        return c
    c.need(row.verdict.value == _expected_verdict(spec),
           f"verdict {row.verdict.value} for eps={spec['eps']!r}")
    c.kappa2(spec, row.kappa2)
    if _round_k(spec) is not None:
        c.round_errors(spec, row.lambda_min, None)
        # kappa2 is k^2 to roundoff here, so the defect measures mu1
        c.mu1_err = row.obata_defect / (spec["n"] * row.kappa2)
        c.need(c.mu1_err <= ROUND_REL_TOL, "obata defect")
    return c


# --- running ops --------------------------------------------------------

def build_profile(cl, spec: dict):
    family, n = spec["family"], spec["n"]
    if family == "round":
        return cl.round_profile(spec["k"], n)
    if family == "bump":
        return cl.bump_profile(spec["eps"], n)
    if family == "periodic":
        return cl.periodic_product_profile(1.0, spec["a"], n)
    return cl.profile_from_samples(spec["r"], spec["phi"], n)


def child_env(root: str) -> dict:
    """Environment for cohomlab child processes: the checkout's source,
    and the library's default worker count."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("COHOMLAB_THREADS", None)
    return env


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Tally:
    """Outcomes and timings of one phase; timings are speed-scaled
    (see speed.py) except raw_busy_s."""
    latencies: list = field(default_factory=list)  # seconds per op
    by_label: dict = field(default_factory=dict)   # op label -> latencies
    busy_s: float = 0.0
    raw_busy_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    outcomes: dict = field(default_factory=lambda: {
        "ok": 0, "unconverged": 0, "wrong": 0, "error": 0})
    lam_err_max: float = None
    mu1_err_max: float = None
    # repr of every op's answer, to compare runs; strings, because
    # retained containers would lengthen the cyclic GC's pauses inside
    # later ops
    answers: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    cli_compute_s: list = field(default_factory=list)
    child_totals: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.outcomes["wrong"] + self.outcomes["error"]

    def record(self, outcome: str, check: Check = None, where: str = ""):
        if outcome == "ok" and check is not None and check.problems:
            outcome = "wrong"
        self.outcomes[outcome] += 1
        if check is not None:
            if check.problems and len(self.problems) < 20:
                self.problems.append(f"{where}: {'; '.join(check.problems)}")
            for attr in ("lam_err", "mu1_err"):
                value = getattr(check, attr)
                if value is not None:
                    best = getattr(self, attr + "_max")
                    setattr(self, attr + "_max",
                            value if best is None else max(best, value))


class Runner:
    """Executes ops against one imported cohomlab and tallies them."""

    def __init__(self, cl, root: str, expected_stdout: dict = None,
                 traced_cli: bool = False):
        self.cl = cl
        self.root = root
        self.expected_stdout = expected_stdout or {}
        self.traced_cli = traced_cli
        self.env = child_env(root)
        self.speed = Speed()

    def run(self, op: Op, tally: Tally) -> None:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = self._call(op)
        except self.cl.ConvergenceError:
            result, outcome = None, "unconverged"
        except Exception as exc:  # any other raise is a failed op
            result, outcome = None, "error"
            tally.problems.append(f"{op.kind} {_where(op.spec)}: "
                                  f"{type(exc).__name__}: {exc}")
        else:
            outcome = "ok"
        elapsed = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        scale = self.speed.scale(elapsed)
        tally.cpu_s += cpu * scale
        tally.busy_s += elapsed * scale
        tally.raw_busy_s += elapsed
        tally.attempted += op.units
        tally.latencies.append(elapsed * scale / op.units)
        tally.by_label.setdefault(_label(op), []).append(
            elapsed * scale / op.units)
        if result is None:
            tally.outcomes[outcome] += op.units
            tally.answers.append(repr((op.kind, outcome)))
            return
        self._check(op, result, tally)

    def _call(self, op: Op):
        cl, spec = self.cl, op.spec
        if op.kind == "check_bound":
            return cl.check_bound(build_profile(cl, spec), N=spec["N"])
        if op.kind == "obata":
            return cl.obata_check(build_profile(cl, spec), N=spec["N"])
        if op.kind == "solve":
            return cl.solve_smallest(build_profile(cl, spec),
                                     cl.OperatorKind.ROUGH_VECTOR, spec["N"],
                                     richardson=True)
        if op.kind == "sweep":
            return cl.sweep("Bump", spec["values"], n=spec["n"], N=spec["N"])
        if op.kind == "verify":
            return self._verify(spec["path"])
        raise ValueError(f"unknown op kind {op.kind!r}")

    def _verify(self, path: str):
        if self.traced_cli:
            argv = [sys.executable,
                    os.path.join(os.path.dirname(__file__), "cli_child.py")]
        else:
            argv = [sys.executable, "-m", "cohomlab"]
        proc = subprocess.run(argv + ["verify", "--config", path],
                              cwd=self.root, env=self.env,
                              capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        return proc

    def _check(self, op: Op, result, tally: Tally) -> None:
        spec, where = op.spec, f"{op.kind} {_where(op.spec)}"
        if op.kind == "check_bound":
            payload = report_payload(result)
            tally.answers.append(repr((op.kind, payload)))
            tally.record("ok", check_payload(spec, payload), where)
        elif op.kind == "obata":
            tally.answers.append(repr((op.kind, asdict(result))))
            tally.record("ok", check_obata(spec, result), where)
        elif op.kind == "solve":
            tally.answers.append(repr((op.kind, result.lam,
                                       result.extrapolated,
                                       result.iterations)))
            tally.record("ok", check_solve(spec, result), where)
        elif op.kind == "sweep":
            tally.answers.append(repr([(r.param, r.lambda_min,
                                        r.verdict and r.verdict.value)
                                       for r in result]))
            for row in result:
                if row.error and row.error.startswith("ConvergenceError"):
                    tally.record("unconverged")
                    continue
                row_spec = {"family": "bump", "eps": row.param,
                            "n": spec["n"], "N": spec["N"]}
                tally.record("ok", check_sweep_row(row_spec, row),
                             f"sweep row eps={row.param!r}")
        else:
            self._check_cli(spec, result, tally, where)

    def _check_cli(self, spec, proc, tally: Tally, where: str) -> None:
        if self.traced_cli:
            stderr = proc.stderr.rstrip("\n").rsplit("\n", 1)
            marker = "PERFBENCH "
            if stderr and stderr[-1].startswith(marker):
                child = json.loads(stderr[-1][len(marker):])
                tally.cli_compute_s.append(child["compute_s"])
                merge_totals(tally.child_totals, child["totals"])
        tally.answers.append(proc.stdout)
        if proc.returncode != 0:
            tally.record("error")
            tally.problems.append(f"{where}: exit {proc.returncode} "
                                  f"{proc.stdout.strip()[:200]}")
            return
        check = Check()
        expected = self.expected_stdout.get(spec["path"])
        check.need(proc.stdout == expected,
                   "stdout differs from the in-process check_bound payload")
        if not check.problems:
            check = check_payload(spec, json.loads(proc.stdout))
        tally.record("ok", check, where)


def _label(op: Op) -> str:
    if op.kind == "verify":
        return "verify " + os.path.basename(op.spec["path"])
    return f"{op.kind} N={op.spec['N']}"


def _where(spec: dict) -> str:
    keys = ("family", "k", "eps", "a", "m", "n", "N", "path")
    return " ".join(f"{k}={spec[k]!r}" for k in keys if k in spec)


def expected_cli_stdout(cl, path: str) -> str:
    """What `cohomlab verify --config path` must print, from the API."""
    with open(path, encoding="utf-8") as fh:
        profile, grid = cl.profile_from_config(json.load(fh))
    report = cl.check_bound(profile, N=grid.N)
    return json.dumps(report_payload(report), sort_keys=True, indent=2) + "\n"
