"""Golden CLI outputs: the stdout of `verify`, of `spectrum --richardson`
(both kinds) and of `geometry` on the committed configs, compared byte
for byte with the files in tests/golden/, and the sha256 of the
`geometry --csv` file, compared with its .sha256 file there.

A change that moves any printed digit regenerates the files, from the
repository root, with

    PYTHONPATH=src python tests/test_golden.py

and lists every moved digit, old and new value, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from cohomlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ("round_n2", "bump02_n2", "periodic_n3")
COMMANDS = {
    "verify": ["verify"],
    "spectrum-vector": ["spectrum", "--richardson"],
    "spectrum-scalar": ["spectrum", "--richardson", "--kind", "scalar"],
    "geometry": ["geometry"],
}
CASES = [(config, command) for config in CONFIGS for command in COMMANDS]


def _stdout(config, command, *extra):
    argv = [*COMMANDS[command], "--config",
            str(ROOT / "configs" / f"{config}.json"), *extra]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _golden(config, command):
    return ROOT / "tests" / "golden" / f"{config}.{command}.json"


def _csv_sha256(config, directory):
    """(exit code, sha256 hex digest + newline) of `geometry --csv`."""
    path = Path(directory) / "geometry.csv"
    code, _ = _stdout(config, "geometry", "--csv", str(path))
    return code, hashlib.sha256(path.read_bytes()).hexdigest() + "\n"


def _golden_sha256(config):
    return ROOT / "tests" / "golden" / f"{config}.geometry.csv.sha256"


@pytest.mark.parametrize("config,command", CASES)
def test_cli_stdout_matches_golden(config, command):
    code, out = _stdout(config, command)
    assert code == 0
    assert out == _golden(config, command).read_text(encoding="utf-8")


@pytest.mark.parametrize("config", CONFIGS)
def test_geometry_csv_matches_golden_sha256(config, tmp_path):
    code, digest = _csv_sha256(config, tmp_path)
    assert code == 0
    assert digest == _golden_sha256(config).read_text(encoding="utf-8")


if __name__ == "__main__":
    for config, command in CASES:
        _golden(config, command).write_text(_stdout(config, command)[1],
                                            encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            _golden_sha256(config).write_text(_csv_sha256(config, tmp)[1],
                                              encoding="utf-8")
