"""Smoke test: each script in scripts/ runs end to end on small grids."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

ARGV = {
    "bump_gap_sweep": ["--grid", "256", "--stop", "0.1"],
    "convergence_report": ["--grids", "64", "128", "256"],
    "round_spectrum_report": ["--dims", "2", "--curvatures", "1.0",
                              "--grid", "256"],
}


def test_every_script_is_covered():
    assert sorted(p.stem for p in SCRIPTS.glob("*.py")) == sorted(ARGV)


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(ARGV))
def test_script_main_returns_zero(name, capsys):
    assert _load(name).main(ARGV[name]) == 0
    assert capsys.readouterr().out


def test_bump_sweep_stops_at_stop(monkeypatch, capsys):
    # rows are counted like the CLI's sweep: none past --stop
    module = _load("bump_gap_sweep")
    seen = []
    monkeypatch.setattr(module, "sweep",
                        lambda family, values, **kw: seen.extend(values) or ())
    assert module.main(["--stop", "0.29", "--step", "0.1"]) == 0
    assert seen == pytest.approx([0.0, 0.1, 0.2])
    assert seen[-1] <= 0.29
    with pytest.raises(SystemExit) as exc:
        module.main(["--step", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["--step", "1e-300"], "--step"),
    (["--stop", "inf"], "--stop"),
])
def test_bump_sweep_refuses_too_many_rows(monkeypatch, capsys, argv, flag):
    # the config's row bound: refused before any value is built or row runs
    module = _load("bump_gap_sweep")
    monkeypatch.setattr(module, "sweep",
                        lambda *a, **kw: pytest.fail("a row ran"))
    with pytest.raises(SystemExit) as exc:
        module.main(argv)
    assert exc.value.code == 2
    assert f"option '{flag}'" in capsys.readouterr().err
