"""Golden CLI outputs: the stdout of `verify` and of `spectrum
--richardson` (both kinds) on the committed configs, compared byte for
byte with the files in tests/golden/.

A change that moves any printed digit regenerates the files, from the
repository root, with

    PYTHONPATH=src python tests/test_golden.py

and lists every moved digit, old and new value, in CHANGES.md.
"""

import contextlib
import io
from pathlib import Path

import pytest

from cohomlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = {
    "verify": ["verify"],
    "spectrum-vector": ["spectrum", "--richardson"],
    "spectrum-scalar": ["spectrum", "--richardson", "--kind", "scalar"],
}
CASES = [(config, command)
         for config in ("round_n2", "bump02_n2", "periodic_n3")
         for command in COMMANDS]


def _stdout(config, command):
    argv = [*COMMANDS[command], "--config",
            str(ROOT / "configs" / f"{config}.json")]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _golden(config, command):
    return ROOT / "tests" / "golden" / f"{config}.{command}.json"


@pytest.mark.parametrize("config,command", CASES)
def test_cli_stdout_matches_golden(config, command):
    code, out = _stdout(config, command)
    assert code == 0
    assert out == _golden(config, command).read_text(encoding="utf-8")


if __name__ == "__main__":
    for config, command in CASES:
        _golden(config, command).write_text(_stdout(config, command)[1],
                                            encoding="utf-8")
