"""Golden CLI outputs: the stdout of `verify`, of `spectrum --richardson`
(both kinds) and of `geometry` on the committed configs, of `sweep` on
bump02_n2 and of `converge` (both kinds) on periodic_n3, compared byte
for byte with the files in tests/golden/, and the sha256 of the
`geometry --csv` profile file and of the `spectrum --richardson --csv`
eigenfunction file (both kinds), each compared with its .sha256 file
there.

A change that moves any printed digit regenerates the files, from the
repository root, with

    PYTHONPATH=src python tests/test_golden.py

and lists every moved digit, old and new value, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import textwrap
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
    "sweep": ["sweep"],
    "converge-vector": ["converge"],
    "converge-scalar": ["converge", "--kind", "scalar"],
}
CASES = [(config, command) for config in CONFIGS
         for command in ("verify", "spectrum-vector", "spectrum-scalar",
                         "geometry")]
CASES += [("bump02_n2", "sweep"), ("periodic_n3", "converge-vector"),
          ("periodic_n3", "converge-scalar")]


def _stdout(config, command, *extra):
    argv = [*COMMANDS[command], "--config",
            str(ROOT / "configs" / f"{config}.json"), *extra]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _golden(config, command):
    suffix = "csv" if command == "sweep" else "json"
    return ROOT / "tests" / "golden" / f"{config}.{command}.{suffix}"


CSV_CASES = [(config, command) for config in CONFIGS
             for command in ("geometry", "spectrum-vector",
                             "spectrum-scalar")]


def _csv_sha256(config, command, directory):
    """(exit code, sha256 hex digest + newline) of the command's --csv."""
    path = Path(directory) / f"{config}.{command}.csv"
    code, _ = _stdout(config, command, "--csv", str(path))
    return code, hashlib.sha256(path.read_bytes()).hexdigest() + "\n"


def _golden_sha256(config, command):
    return ROOT / "tests" / "golden" / f"{config}.{command}.csv.sha256"


@pytest.mark.parametrize("config,command", CASES)
def test_cli_stdout_matches_golden(config, command):
    code, out = _stdout(config, command)
    assert code == 0
    assert out == _golden(config, command).read_text(encoding="utf-8")


@pytest.mark.parametrize("config,command", CSV_CASES)
def test_csv_matches_golden_sha256(config, command, tmp_path):
    code, digest = _csv_sha256(config, command, tmp_path)
    assert code == 0
    assert digest == _golden_sha256(config, command).read_text(
        encoding="utf-8")


def test_verify_matches_golden_after_scipy_linalg(package_env):
    # cohomlab loads scipy's LAPACK extension by path; a program that
    # imported scipy.linalg first gets the same extension module and
    # must print the same digits
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        import scipy.linalg
        from cohomlab.cli import main
        outs = []
        for path in sys.argv[1:]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                outs.append(main(["verify", "--config", path]))
            outs.append(buf.getvalue())
        print(json.dumps(outs))
    """)
    paths = [str(ROOT / "configs" / f"{config}.json") for config in CONFIGS]
    out = subprocess.run([sys.executable, "-c", code, *paths],
                         capture_output=True, text=True, check=True,
                         env=package_env).stdout
    expected = []
    for config in CONFIGS:
        expected += [0, _golden(config, "verify").read_text(encoding="utf-8")]
    assert json.loads(out) == expected


if __name__ == "__main__":
    for config, command in CASES:
        _golden(config, command).write_text(_stdout(config, command)[1],
                                            encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        for config, command in CSV_CASES:
            _golden_sha256(config, command).write_text(
                _csv_sha256(config, command, tmp)[1], encoding="utf-8")
