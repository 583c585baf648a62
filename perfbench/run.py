"""cohomlab benchmark: time to a checked verdict, per workload and layer.

Run from the root of a cohomlab checkout:

    python3 perfbench/run.py --workload verify-mix --seed 1 --seconds 10 \
        --trace 0

The seed draws every input; the program sees only those inputs.  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs the workload untraced for half the time and traced for the other
half and reports the per-layer metrics.  Every op's output is checked
as it goes.  The last stdout line is the JSON result; the line before
it is the run's record with provenance.  Generated inputs, the result
record and the span trace go to .perfbench/ in the checkout.

An op is one API call, one sweep row or one CLI process.  Ops that
raise cohomlab.ConvergenceError (the solver's typed refusal) count as
attempted and unconverged, not as failed: `failed` counts only wrong
outputs and other exceptions, and fail_ratio = 1 - ok_ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import workloads as w
from speed import Speed
from tracing import Tracer, merge_totals

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench")

SETUP_RUNS = 5          # fresh processes timed for setup_s
PROBE_RUNS = 3          # importtime and bare-interpreter probes
MIN_SAMPLES = 32        # latency samples per phase, whatever --seconds
TAIL_BEYOND = 10        # samples beyond the reported tail percentile

WARM_UP = """
import cohomlab as cl
cl.check_bound(cl.round_profile(1.0, 3), N=256)
cl.obata_check(cl.bump_profile(0.05, 3), N=256)
cl.solve_smallest(cl.periodic_product_profile(1.0, 0.3, 3),
                  cl.OperatorKind.ROUGH_VECTOR, 256, richardson=True)
"""

IMPORTS = ("cohomlab", "scipy.linalg", "scipy.interpolate", "scipy.integrate")


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# --- set-up -------------------------------------------------------------

def _timed_setup() -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    cohomlab and run the warm-up."""
    code = WARM_UP + "print('ready', flush=True)\n"
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                          env=w.child_env(ROOT), stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    if rc != 0 or line.strip() != "ready":
        _fail(f"set-up process failed with exit code {rc}")
    return elapsed


def _import_cohomlab():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ.pop("COHOMLAB_THREADS", None)
    scope = {}
    exec(WARM_UP, scope)
    cl = scope["cl"]
    if not os.path.abspath(cl.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        _fail(f"imported cohomlab from {cl.__file__}, not from ./src")
    return cl


# --- probes for the traced run -----------------------------------------

def _import_times(runs: int) -> dict:
    """Cumulative import ms per module from `python -X importtime`,
    median over fresh processes; 0 for a module not imported."""
    samples = {name: [] for name in IMPORTS}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cohomlab"],
            cwd=ROOT, env=w.child_env(ROOT), capture_output=True, text=True,
            timeout=60, check=True)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:"):
                name = parts[2].strip()
                if name in samples and name not in seen:
                    seen[name] = int(parts[1]) / 1e3
        for name in IMPORTS:
            samples[name].append(seen.get(name, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def _interpreter_ms(runs: int) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT,
                       timeout=60, check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


# --- provenance ---------------------------------------------------------

def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]),
                      encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cache_bytes(level: int):
    try:
        out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"],
                             capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    return {"seed": seed, "git_commit": _git_commit(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "l2_bytes": _cache_bytes(2), "l3_bytes": _cache_bytes(3)}


# --- phases and metrics -------------------------------------------------

def run_phase(runner, next_round, seconds: float, min_samples: int,
              tracer=None):
    tally = w.Tally()
    if tracer is not None:
        tracer.install()
    try:
        end = time.perf_counter() + seconds
        while (time.perf_counter() < end
               or len(tally.latencies) < min_samples):
            for op in next_round():
                runner.run(op, tally)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return tally


def tail(latencies: list) -> tuple:
    """(value, percentile, samples): the highest percentile with at
    least TAIL_BEYOND samples beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    i = max(0, n - TAIL_BEYOND - 1)
    return lat[i], 100.0 * (i + 1) / n, n


def end_to_end(tally, setup_s: float) -> dict:
    """End-to-end metrics of an untraced phase.  An error metric with no
    Round answer to measure reads 1.0, a 100 % error."""
    tail_s, _, _ = tail(tally.latencies)
    n = tally.attempted
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / tally.busy_s, "1/s"),
        "latency_p50_ms": (statistics.median(tally.latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "ok_ratio": (tally.outcomes["ok"] / n, "ratio"),
        "lam_err_max": (1.0 if tally.lam_err_max is None
                        else tally.lam_err_max, "rel"),
        "mu1_err_max": (1.0 if tally.mu1_err_max is None
                        else tally.mu1_err_max, "rel"),
        "cpu_ms_per_op": (tally.cpu_s * 1e3 / n, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


LAYER_CALLS = ("spectral.eigensolve", "spectral.solve", "spectral.factor",
               "geometry.orbit_geometry", "warp.validate")
LAYER_SELF = ("spectral.eigensolve", "spectral.solve", "spectral.factor",
              "geometry.orbit_geometry", "geometry.ricci_profile",
              "spectral.assemble", "lab.obata_check", "lab.check_bound",
              "lab.rigidity_diagnostics", "fields.derivative",
              "fields.weighted_integral", "warp.validate")


def per_layer(totals: dict, sweeps: dict, ops: int, scale: float,
              untraced_ops_per_s: float, traced_ops_per_s: float,
              imports: dict, interpreter_ms: float,
              cli_compute_s: list) -> dict:
    """Per-layer metrics of a traced phase; times are multiplied by
    that phase's median speed scale (probe times are scaled already)."""
    def get(name, key):
        return totals.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in LAYER_CALLS:
        m[f"{name}.calls"] = (get(name, "calls") / ops, "calls/op")
    for name in LAYER_SELF:
        m[f"{name}.self_ms"] = (get(name, "self_s") * 1e3 * scale / ops,
                                "ms/op")
    es = "spectral.eigensolve"
    m[f"{es}.ms_per_step"] = (ratio(get(es, "total_s") * 1e3 * scale,
                                    get(es, "steps")), "ms/step")
    m[f"{es}.steps_per_solve"] = (ratio(get(es, "steps"), get(es, "calls")),
                                  "steps/call")
    m[f"{es}.converged_ratio"] = (ratio(get(es, "converged"),
                                        get(es, "calls")), "ratio")
    m["geometry.orbit_geometry.bytes_computed"] = (
        get("geometry.orbit_geometry", "bytes") / ops, "B/op")
    m["warp.ensure_usable.hit_ratio"] = (
        ratio(get("warp.ensure_usable", "hits"),
              get("warp.ensure_usable", "calls")), "ratio")
    m["lab.sweep.workers"] = (ratio(sweeps["workers"], sweeps["sweeps"]),
                              "threads")
    m["lab.sweep.parallel_efficiency"] = (
        ratio(sweeps["busy_s"], sweeps["capacity_s"]), "ratio")
    m["cli.interpreter_ms"] = (interpreter_ms, "ms")
    m["cli.compute_ms"] = (statistics.median(cli_compute_s) * 1e3 * scale
                           if cli_compute_s else 0.0, "ms")
    for name in IMPORTS:
        m[f"import.{name.replace('.', '_')}_ms"] = (imports[name], "ms")
    m["bench.trace_overhead_ratio"] = (
        ratio(untraced_ops_per_s, traced_ops_per_s), "ratio")
    return m


# --- main ---------------------------------------------------------------

def make_rounds(name: str, seed: int, small: bool = False):
    """Round generator of a workload, plus the configs cold-verify runs
    (its samples config is written to OUT here)."""
    rng = random.Random(seed)
    if name == "verify-mix":
        return (lambda: w.verify_mix_round(rng, small)), []
    if name == "fine-grid":
        return (lambda: w.fine_grid_round(rng, small)), []
    if name == "sweep-bump":
        return (lambda: w.sweep_round(rng, small)), []
    os.makedirs(OUT, exist_ok=True)
    samples = os.path.join(OUT, f"samples-seed{seed}.json")
    w.write_samples_config(rng, samples)
    configs = [w.config_spec(p) for p in
               (*(os.path.join(ROOT, c) for c in w.COMMITTED_CONFIGS),
                samples)]
    return (lambda: w.cold_verify_round(rng, configs)), configs


def measure(workload: str, seed: int, seconds: float, trace: bool,
            small: bool = False) -> tuple:
    """One benchmark run: (result, record).  small runs the reduced
    inputs with one round per phase, for the benchmark's own tests."""
    setup_runs, probe_runs = (1, 1) if small else (SETUP_RUNS, PROBE_RUNS)
    min_samples = 1 if small else MIN_SAMPLES
    speed = Speed()
    setup_raw = [_timed_setup() for _ in range(setup_runs)]
    setup_s = statistics.median(t * speed.scale(t) for t in setup_raw)
    cl = _import_cohomlab()
    next_round, configs = make_rounds(workload, seed, small)
    expected = {c["path"]: w.expected_cli_stdout(cl, c["path"])
                for c in configs}

    record = {"workload": workload, "trace": int(trace), "seconds": seconds,
              **provenance(seed)}
    if trace:
        probe_scale = speed.median_scale()
        imports = {k: v * probe_scale
                   for k, v in _import_times(probe_runs).items()}
        interpreter_ms = _interpreter_ms(probe_runs) * probe_scale
        half = seconds / 2.0
        plain = run_phase(w.Runner(cl, ROOT, expected), next_round, half,
                          min_samples)
        tracer = Tracer()
        runner = w.Runner(cl, ROOT, expected, traced_cli=True)
        traced = run_phase(runner, next_round, half, min_samples, tracer)
        totals = tracer.totals()
        merge_totals(totals, traced.child_totals)
        metrics = per_layer(totals, tracer.sweep_stats(), traced.attempted,
                            runner.speed.median_scale(),
                            plain.attempted / plain.busy_s,
                            traced.attempted / traced.busy_s, imports,
                            interpreter_ms, traced.cli_compute_s)
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl"))
        phases = [plain, traced]
    else:
        tally = run_phase(w.Runner(cl, ROOT, expected), next_round, seconds,
                          min_samples)
        metrics = end_to_end(tally, setup_s)
        phases = [tally]

    attempted = sum(t.attempted for t in phases)
    failed = sum(t.failed for t in phases)
    outcomes = {k: sum(t.outcomes[k] for t in phases)
                for k in phases[0].outcomes}
    _, pct, samples = tail(phases[-1].latencies)
    record.update(outcomes=outcomes, fail_ratio=1 - outcomes["ok"] / attempted,
                  tail_percentile=pct, tail_samples=samples,
                  setup_raw_s=setup_raw, setup_scale=speed.median_scale(),
                  raw_ops_per_s=[t.attempted / t.raw_busy_s for t in phases],
                  latency_p50_ms_by_op={
                      k: statistics.median(v) * 1e3
                      for k, v in sorted(phases[-1].by_label.items())},
                  problems=[p for t in phases for p in t.problems][:20])
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(w.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cohomlab",
                                       "__init__.py")):
        _fail("run from the root of a cohomlab checkout (no src/cohomlab)")
    for path in w.COMMITTED_CONFIGS:
        if not os.path.isfile(os.path.join(ROOT, path)):
            _fail(f"missing {path}")

    result, record = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    record["metrics"] = result["metrics"]
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for k, m in result["metrics"].items():
        print(f"{args.workload:12s} {k:45s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:12s} {'fail_ratio':45s} {record['fail_ratio']:14.6g}"
          f" ratio ({record['outcomes']})")
    if not args.trace:
        print(f"{args.workload:12s} latency_tail_ms is p"
              f"{record['tail_percentile']:.2f} of {record['tail_samples']}"
              " samples")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
