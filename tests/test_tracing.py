"""The benchmark's tracer (perfbench/tracing.py) wraps program functions
by module and name.  This test installs it against src/, so renaming or
dropping a traced function fails the main suite and not only the
benchmark's own tests."""

import importlib
import importlib.util
from pathlib import Path

import cohomlab

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_restores_it():
    tracing = _tracing()
    originals = {(home, attr): getattr(importlib.import_module(home), attr)
                 for home, attr in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()  # raises if a target no longer exists
    try:
        cohomlab.sweep("Bump", [0.0], n=2, N=64)
        cohomlab.obata_check(cohomlab.make_preset("Round", n=2), N=64)
        cohomlab.solve_smallest(cohomlab.make_preset("Round", n=2),
                                cohomlab.OperatorKind.ROUGH_VECTOR, 64)
    finally:
        tracer.uninstall()
    assert {span[2] for span in tracer.spans} == set(tracing.TARGETS.values())
    for (home, attr), original in originals.items():
        assert getattr(importlib.import_module(home), attr) is original
