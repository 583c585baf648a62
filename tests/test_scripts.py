"""Smoke test: each script in scripts/ runs end to end on small grids."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

ARGV = {
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

