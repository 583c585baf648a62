"""Tests of the benchmark itself, at reduced size.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import cohomlab as cl  # noqa: E402
import run  # noqa: E402
import workloads as w  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYERS = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# per-layer metric -> the workload that must reach it
REACHED_ON = {
    "verify-mix": [
        "spectral.eigensolve.calls", "spectral.eigensolve.self_ms",
        "spectral.eigensolve.ms_per_step", "spectral.solve.calls",
        "spectral.solve.self_ms", "lab.obata_check.self_ms",
        "lab.check_bound.self_ms", "lab.rigidity_diagnostics.self_ms",
        "fields.derivative.self_ms", "fields.weighted_integral.self_ms",
    ],
    "fine-grid": [
        "spectral.factor.calls", "spectral.factor.self_ms",
        "geometry.orbit_geometry.calls", "geometry.orbit_geometry.self_ms",
        "geometry.orbit_geometry.bytes_computed",
        "geometry.ricci_profile.self_ms", "spectral.assemble.self_ms",
        "spectral.eigensolve.converged_ratio",
        "spectral.eigensolve.steps_per_solve",
    ],
    "sweep-bump": [
        "warp.validate.calls", "warp.validate.self_ms",
        "warp.ensure_usable.hit_ratio", "lab.sweep.workers",
        "lab.sweep.parallel_efficiency",
    ],
    "cold-verify": [
        "cli.interpreter_ms", "cli.compute_ms", "import.cohomlab_ms",
        "import.scipy_linalg_ms", "import.scipy_interpolate_ms",
        "import.scipy_integrate_ms",
    ],
}


@pytest.fixture(scope="module", autouse=True)
def checkout(tmp_path_factory):
    """Run against this repository, with outputs in a temporary dir."""
    saved = run.ROOT, run.OUT
    run.ROOT = str(REPO)
    run.OUT = str(tmp_path_factory.mktemp("perfbench"))
    yield
    run.ROOT, run.OUT = saved


_runs = {}


def small_run(workload, trace):
    key = (workload, trace)
    if key not in _runs:
        _runs[key] = run.measure(workload, seed=7, seconds=0.0, trace=trace,
                                 small=True)
    return _runs[key]


@pytest.mark.parametrize("workload", list(w.WORKLOADS))
def test_workload_runs_small(workload):
    result, record = small_run(workload, False)
    assert result["correct"], record["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == E2E
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name
        assert m["unit"] == UNITS[name], name
    assert record["outcomes"]["wrong"] == record["outcomes"]["error"] == 0


@pytest.mark.parametrize("workload", list(w.WORKLOADS))
def test_named_spans_fire(workload):
    result, record = small_run(workload, True)
    assert result["correct"], record["problems"]
    metrics = result["metrics"]
    assert list(metrics) == LAYERS
    assert all(m["unit"] == UNITS[name] for name, m in metrics.items())
    assert metrics["bench.trace_overhead_ratio"]["value"] > 0
    for name in REACHED_ON[workload]:
        assert metrics[name]["value"] > 0, f"{name} is zero on {workload}"


def test_benchmark_json_lists_every_workload():
    assert [x["name"] for x in SPEC["workloads"]] == list(w.WORKLOADS)
    assert sorted(sum(REACHED_ON.values(), [])) == sorted(
        n for n in LAYERS if n != "bench.trace_overhead_ratio")


@pytest.mark.parametrize("workload", list(w.WORKLOADS))
def test_traced_and_untraced_answers_match(workload):
    expected = None
    answers = []
    for traced in (False, True):
        next_round, configs = run.make_rounds(workload, 3, small=True)
        if expected is None:
            expected = {c["path"]: w.expected_cli_stdout(cl, c["path"])
                        for c in configs}
        runner = w.Runner(cl, str(REPO), expected, traced_cli=traced)
        answers.append(run.run_phase(runner, next_round, 0.0, 1,
                                     Tracer() if traced else None).answers)
    assert answers[0] == answers[1]
    assert answers[0]


def test_tracer_self_time_and_threads():
    import cohomlab.lab as lab
    tracer = Tracer()
    spans = tracer.spans

    def leaf():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        wrapped_leaf()
        wrapped_leaf()

    wrapped_leaf = tracer._wrap(leaf, "leaf")
    wrapped_outer = tracer._wrap(outer, "outer")
    worker = threading.Thread(target=wrapped_leaf)
    worker.start()
    wrapped_outer()
    worker.join(timeout=5)
    assert not worker.is_alive()
    outer_span = next(s for s in spans if s[2] == "outer")
    children = [s for s in spans if s[1] == outer_span[0]]
    assert len(children) == 2          # the worker's leaf is not a child
    totals = tracer.totals()
    assert totals["leaf"]["calls"] == 3
    assert 0.005 < totals["outer"]["self_s"] < 0.03
    # installing and removing leaves the program as it was
    original = lab.check_bound
    with tracer:
        assert lab.check_bound is not original
    assert lab.check_bound is original


def test_refuses_without_a_checkout(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "verify-mix", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench").exists()
