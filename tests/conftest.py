"""Shared fixtures and the acceptance summary.

test_acceptance.py encodes each acceptance criterion in tests named
test_criterion_<k>_*; the terminal-summary hook below folds their
outcomes into one PASS/FAIL line per criterion so the suite output
documents the acceptance state explicitly.  Criteria with an
expected-failure sub-part (structurally unattainable; see
notes/decisions.md outside the package) report FAIL with a marker
rather than being silently weakened.
"""

import os
import re
from pathlib import Path

import pytest

CRITERIA = {
    1: "round-sphere infimum lambda_min = k^2 (+ Richardson, eigenfunction)",
    2: "Obata criterion mu1 = n k^2 and derived-function residual",
    3: "bound on the Bump family: gap >= 0, strict for eps >= 0.05",
    4: "Bochner identity residual, ratio-4 decay, closed form 8/3",
    5: "Cauchy-Schwarz n|Hess h|^2 >= (Delta h)^2 across corpus",
    6: "rigidity diagnostics: ratio-4 on Round, stabilization on Bump",
    7: "variational consistency of 100 random trial fields per profile",
    8: "periodic profiles: HypothesisNotMet, flat product lambda = 0",
    9: "convergence order p in [1.8, 2.2]",
}

_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error", "xfailed", "xpassed"):
        for rep in terminalreporter.stats.get(status, []):
            m = _PATTERN.search(getattr(rep, "nodeid", ""))
            if m:
                outcomes.setdefault(int(m.group(1)), set()).add(status)
    if not outcomes:
        return
    tr = terminalreporter
    tr.write_sep("=", "acceptance criteria")
    for num in sorted(outcomes):
        got = outcomes[num]
        if got & {"failed", "error", "xpassed"}:
            state = "FAIL"
        elif "xfailed" in got:
            state = "FAIL (expected: documented unattainable sub-part)"
        else:
            state = "PASS"
        tr.write_line(f"criterion {num}: {state} - {CRITERIA[num]}")


@pytest.fixture(scope="session")
def package_env():
    """os.environ with the directory of the imported cohomlab first on
    PYTHONPATH, so that a child interpreter imports the same package."""
    import cohomlab
    root = str(Path(cohomlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture(scope="session")
def round_n2():
    from cohomlab import make_preset
    return make_preset("Round", n=2, k=1.0)


@pytest.fixture(scope="session")
def round_n3():
    from cohomlab import make_preset
    return make_preset("Round", n=3, k=1.0)


@pytest.fixture(scope="session")
def bump01_n2():
    from cohomlab import make_preset
    return make_preset("Bump", n=2, eps=0.1)


@pytest.fixture(scope="session")
def periodic_n3():
    from cohomlab import make_preset
    return make_preset("PeriodicProduct", n=3, c=1.0, a=0.3)
