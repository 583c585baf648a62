"""Per-layer spans around the calls into each cohomlab module.

The tracer replaces selected functions in every cohomlab module
namespace that binds them (aliases such as ``cli.run_sweep`` included)
with wrappers that record a span, and puts the originals back on
``uninstall``.  Functions that cohomlab imports inside a function body
(``solve_smallest`` imports ``orbit_geometry`` and ``grid_for`` at call
time) are reached through the defining module's attribute, which is
wrapped too.  Nothing in the program changes on disk.

Spans are ``(id, parent, name, thread, start, end, info)`` tuples kept
in memory.  Each thread has its own stack of open spans, so a sweep
row computed on a worker thread nests under that thread's spans and
never under whatever the main thread has open.  Self time is a span's
duration minus the time its children cover; children run on the span's
own thread, one after another, so that is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import threading
import time
from collections import defaultdict

MODULES = ("cohomlab", "cohomlab.warp", "cohomlab.geometry",
           "cohomlab.fields", "cohomlab.spectral", "cohomlab.lab",
           "cohomlab.cli")

# (defining module, attribute) -> span name
TARGETS = {
    ("cohomlab.warp", "validate"): "warp.validate",
    ("cohomlab.warp", "ensure_usable"): "warp.ensure_usable",
    ("cohomlab.warp", "make_preset"): "warp.make_preset",
    ("cohomlab.geometry", "orbit_geometry"): "geometry.orbit_geometry",
    ("cohomlab.geometry", "ricci_profile"): "geometry.ricci_profile",
    ("cohomlab.fields", "derivative"): "fields.derivative",
    ("cohomlab.fields", "weighted_integral"): "fields.weighted_integral",
    ("cohomlab.spectral", "assemble"): "spectral.assemble",
    ("cohomlab.spectral", "cholesky_banded"): "spectral.factor",
    ("cohomlab.spectral", "cho_solve_banded"): "spectral.solve",
    ("cohomlab.spectral", "smallest_eigenpair"): "spectral.eigensolve",
    ("cohomlab.spectral", "first_nonzero_scalar_eigenvalue"):
        "spectral.eigensolve",
    ("cohomlab.spectral", "solve_smallest"): "spectral.solve_smallest",
    ("cohomlab.lab", "check_bound"): "lab.check_bound",
    ("cohomlab.lab", "obata_check"): "lab.obata_check",
    ("cohomlab.lab", "rigidity_diagnostics"): "lab.rigidity_diagnostics",
    ("cohomlab.lab", "sweep"): "lab.sweep",
}


def _eigensolve_info(fn):
    """Steps and convergence of one eigensolve call, from its result or
    from the iteration cap it hit."""
    sig = inspect.signature(fn)
    convergence_error = importlib.import_module(
        "cohomlab.spectral").ConvergenceError

    def info(args, kwargs, result, exc):
        if exc is None:
            return {"steps": result.iterations, "converged": 1}
        if isinstance(exc, convergence_error) and math.isfinite(
                exc.last_residual):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return {"steps": bound.arguments["max_iter"], "converged": 0}
        return {"steps": 0, "converged": 0}
    return info


def _geometry_info(args, kwargs, result, exc):
    if exc is not None:
        return {}
    # bytes of the arrays orbit_geometry returns: computed from their
    # sizes, not measured
    return {"bytes": sum(a.nbytes for a in
                         (result.H, result.B2, result.w, result.w_mid))}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, info=None):
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = info(args, kwargs, result, exc) if info else {}
                if exc is not None:
                    extra["error"] = type(exc).__name__
                spans.append((sid, parent, name, threading.get_ident(),
                              t0, t1, extra))
        return wrapper

    def install(self):
        """Wrap every target in every cohomlab namespace that binds it.

        A target that no longer exists raises, so a rename in the
        program fails here instead of reporting zero."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(m) for m in MODULES]
        for (home, attr), name in TARGETS.items():
            original = getattr(importlib.import_module(home), attr)
            info = None
            if name == "spectral.eigensolve":
                info = _eigensolve_info(original)
            elif name == "geometry.orbit_geometry":
                info = _geometry_info
            wrapper = self._wrap(original, name, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def totals(self) -> dict:
        """Summable per-name sums over all spans recorded so far."""
        child_time = defaultdict(float)
        has_validate_child = set()
        for sid, parent, name, _, t0, t1, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
                if name == "warp.validate":
                    has_validate_child.add(parent)
        out = defaultdict(lambda: defaultdict(float))
        for sid, _, name, _, t0, t1, extra in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_time[sid]
            for key, value in extra.items():
                if key != "error":
                    agg[key] += value
            if name == "warp.ensure_usable" and sid not in has_validate_child:
                agg["hits"] += 1
        return {name: dict(agg) for name, agg in out.items()}

    def sweep_stats(self) -> dict:
        """Workers and parallel efficiency of each lab.sweep span.

        A sweep's rows are the lab.check_bound spans that start and end
        inside it, on any thread.  Efficiency is the rows' summed time
        over sweep wall time times the number of threads that ran rows.
        """
        sweeps = [s for s in self.spans if s[2] == "lab.sweep"]
        rows = [s for s in self.spans if s[2] == "lab.check_bound"]
        workers, busy, capacity = 0, 0.0, 0.0
        for _, _, _, _, t0, t1, _ in sweeps:
            mine = [r for r in rows if r[4] >= t0 and r[5] <= t1]
            threads = len({r[3] for r in mine})
            workers += threads
            busy += sum(r[5] - r[4] for r in mine)
            capacity += (t1 - t0) * threads
        return {"sweeps": len(sweeps), "workers": workers, "busy_s": busy,
                "capacity_s": capacity}

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, tid, t0, t1, extra in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "thread": tid,
                                     "start": t0, "end": t1, **extra})
                         + "\n")


def merge_totals(into: dict, other: dict) -> None:
    for name, agg in other.items():
        dest = into.setdefault(name, {})
        for key, value in agg.items():
            dest[key] = dest.get(key, 0.0) + value
