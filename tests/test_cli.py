import ast
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cohomlab
from cohomlab import ConvergenceError, profile_from_config
from cohomlab.cli import main
from cohomlab.lab import RigidityDiagnostics, TheoremReport, Verdict


@pytest.fixture()
def round_cfg(tmp_path):
    cfg = {"n": 2, "topology": "sphere_like",
           "preset": {"type": "round", "k": 1.0}, "grid": {"N": 512}}
    path = tmp_path / "round.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture()
def periodic_cfg(tmp_path):
    cfg = {"n": 3, "topology": "periodic",
           "preset": {"type": "periodic_product", "c": 1.0, "a": 0.3,
                      "L": 2 * math.pi},
           "grid": {"N": 512},
           "sweep": {"param": "a", "values": [0.0, 0.3]},
           "converge": {"grids": [128, 256, 512]}}
    path = tmp_path / "periodic.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_verify_round_exit_zero(round_cfg, capsys):
    code = main(["verify", "--config", round_cfg])
    out = capsys.readouterr()
    assert code == 0
    payload = json.loads(out.out)
    assert payload["verdict"] == "RoundSphereDetected"
    assert payload["bound_holds"] is True
    assert "verdict" in out.err  # human summary on stderr


def test_verify_periodic_exit_zero(periodic_cfg, capsys):
    # HypothesisNotMet is exit 0: the bound is not violated
    code = main(["verify", "--config", periodic_cfg])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] == "HypothesisNotMet"


def test_verify_inconclusive_exit_zero(tmp_path, capsys):
    # Inconclusive is exit 0: the bound holds (tests/test_lab.py)
    path = tmp_path / "bump.json"
    path.write_text(json.dumps({"n": 2, "topology": "sphere_like",
                                "preset": {"type": "bump", "eps": 1.56e-5},
                                "grid": {"N": 2048}}))
    code = main(["verify", "--config", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] == "Inconclusive"
    assert payload["bound_holds"] is True


def test_verify_exit_one_on_violation(round_cfg, capsys, monkeypatch):
    # no usable profile violates the bound (that is the theorem), so
    # the exit-1 contract is exercised with a stubbed report
    fake = TheoremReport(
        kappa2=1.0, lambda_min=0.5, gap=-0.5, bound_holds=False,
        rigidity=RigidityDiagnostics(0.0, 1.0, 1.0), obata_mu1=1.0,
        verdict=Verdict.STRICTLY_ABOVE_BOUND, tol_disc=1e-8,
        tol_rigid=1e-4, grid_N=512, n=2, profile_tag="stub")
    monkeypatch.setattr("cohomlab.cli.check_bound", lambda *a, **k: fake)
    assert main(["verify", "--config", round_cfg]) == 1
    assert json.loads(capsys.readouterr().out)["bound_holds"] is False


@pytest.mark.parametrize("command, path, N", [
    ("verify", "grid.N", 512), ("spectrum", "grid.N", 512),
    ("converge", "converge.grids[2]", 512)],
    ids=["verify", "spectrum", "converge"])
def test_out_of_memory_is_exit_two(periodic_cfg, capsys, monkeypatch,
                                   command, path, N):
    # a grid too large for memory is a refusal (exit 2, one line of
    # error JSON naming the config path of the grid and its N), not a
    # violated bound (exit 1) with a traceback
    def oom(*args, **kwargs):
        raise MemoryError("Unable to allocate 22.4 GiB for an array")

    for name in ("check_bound", "solve_smallest", "convergence_study"):
        monkeypatch.setattr(f"cohomlab.cli.{name}", oom)
    code = main([command, "--config", periodic_cfg])
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out) == {
        "error": f"config path '{path}': grid N = {N} does not fit in "
                 f"memory: Unable to allocate 22.4 GiB for an array",
        "type": "MemoryError"}


def test_solver_error_is_exit_two(round_cfg, capsys, monkeypatch):
    # a solve that does not converge is refused with its last residual
    def stall(*args, **kwargs):
        raise ConvergenceError("no convergence after 200 steps", 3.5e-9)

    monkeypatch.setattr("cohomlab.cli.check_bound", stall)
    code = main(["verify", "--config", round_cfg])
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": "no convergence after 200 steps",
                               "type": "solver", "last_residual": 3.5e-9}


def test_spectrum_scalar_near_two(round_cfg, capsys):
    code = main(["spectrum", "--config", round_cfg, "--kind", "scalar"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["lambda"] == pytest.approx(2.0, rel=1e-4)
    assert payload["grid_N"] == 512
    assert payload["lambda_extrapolated"] is None
    assert payload["iterations"] >= 1
    assert payload["residual"] >= 0


def test_spectrum_richardson_at_config_grid(tmp_path, capsys):
    path = tmp_path / "round.json"
    path.write_text(json.dumps({**_ROUND, "n": 2, "grid": {"N": 1024}}))
    code = main(["spectrum", "--config", str(path), "--richardson"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["grid_N"] == 1024
    assert payload["lambda_extrapolated"] == pytest.approx(1.0, abs=1e-8)


def test_spectrum_eigenfunction_csv(round_cfg, tmp_path, capsys):
    csv_path = tmp_path / "eig.csv"
    main(["spectrum", "--config", round_cfg, "--csv", str(csv_path)])
    capsys.readouterr()
    lines = csv_path.read_text().split("\n")
    assert lines[0] == "r,f"
    assert len(lines) == 512 + 3  # header + N+1 nodes + trailing newline
    assert not csv_path.read_text().count("\r")


def test_geometry_json_and_csv(round_cfg, tmp_path, capsys):
    csv_path = tmp_path / "geom.csv"
    code = main(["geometry", "--config", round_cfg, "--csv", str(csv_path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["kappa2"] == pytest.approx(1.0, rel=1e-9)
    assert payload["ric_min"] == pytest.approx(1.0, rel=1e-9)
    header = csv_path.read_text().split("\n")[0]
    assert header == "r,phi,H,B2,w,ric_radial,ric_tangential"


@pytest.mark.parametrize("command", ["geometry", "spectrum", "verify",
                                     "sweep", "converge"])
def test_no_subcommand_takes_tol(round_cfg, capsys, command):
    # the solver's stop rule is fixed, so --tol is an unknown option
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", round_cfg, "--tol", "1e-10"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["spectrum", "--grid", "64"],
                                  ["converge", "--grids", "64,128,256"]])
def test_grid_flags_are_unknown_options(round_cfg, capsys, argv):
    # grid sizes come from the config only: grid.N and converge.grids
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", round_cfg])
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err


def test_sweep_csv_schema(periodic_cfg, capsys):
    code = main(["sweep", "--config", periodic_cfg])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "param,kappa2,lambda_min,gap,obata_defect,verdict,error"
    assert len(lines) == 3
    flat = lines[1].split(",")
    assert float(flat[0]) == 0.0
    assert abs(float(flat[2])) <= 1e-10  # flat product lambda
    assert flat[5] == "HypothesisNotMet"


def test_converge_reports_order(periodic_cfg, capsys):
    code = main(["converge", "--config", periodic_cfg])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["grids"] == [128, 256, 512]
    assert payload["orders"][0] == pytest.approx(2.0, abs=0.2)


def test_converge_orders_on_committed_config(capsys):
    # solved coarse to fine from one restricted geometry; the orders
    # are those of independent solves from the analytic seeds
    config = Path(__file__).parent.parent / "configs" / "periodic_n3.json"
    expected = {"vector": 2.0001451004, "scalar": 1.9999721126}
    for kind, order in expected.items():
        assert main(["converge", "--config", str(config),
                     "--kind", kind]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["orders"] == [pytest.approx(order, abs=1e-3)]


def test_converge_reads_config_grids(tmp_path, capsys):
    path = tmp_path / "round.json"
    path.write_text(json.dumps({**_ROUND, "n": 2,
                                "converge": {"grids": [128, 256, 512]}}))
    code = main(["converge", "--config", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["orders"][0] == pytest.approx(2.0, abs=0.2)


def test_missing_config_is_exit_two(capsys):
    code = main(["verify", "--config", "/does/not/exist.json"])
    out = capsys.readouterr().out
    assert code == 2
    err = json.loads(out)
    assert "error" in err and "\n" not in out.rstrip("\n")


def test_invalid_json_config_is_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2,')
    code = main(["verify", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out)["error"].startswith("config is not valid JSON")


def test_deeply_nested_config_is_exit_two(tmp_path, capsys):
    # json's decoder recurses once per level; exit 1 would claim a violation
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code = main(["verify", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out)["error"] == ("config is not valid JSON: "
                                        "nested too deeply")


def test_config_error_names_path(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "topology": "sphere_like",
                                "preset": {"type": "round"},
                                "grid": {"N": 64}}))
    code = main(["verify", "--config", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "preset.k" in payload["error"]


_SWEEP = {"values": [1.0]}
_ROUND = {"n": 3, "topology": "sphere_like",
          "preset": {"type": "round", "k": 1.0}, "grid": {"N": 64}}

# bad documents: refused at load whichever subcommand runs, and by
# profile_from_config
BAD_DOCUMENTS = [
    pytest.param("verify", {"preset": {"type": "round", "k": None}},
                 "preset.k", id="null"),
    pytest.param("verify", {"preset": {"type": "round", "k": "x"}},
                 "preset.k", id="string"),
    pytest.param("verify", {"preset": {"type": "samples",
                                       "r": [0.0, 1.0, 2.0, 3.0],
                                       "phi": [0.0, 1.0, 1.0, 0.0],
                                       "k": 3.0}},
                 "preset.k", id="samples-stray-key"),
    pytest.param("sweep", {"sweep": {"values": [None]}}, "sweep.values[0]",
                 id="sweep-values-null"),
    pytest.param("sweep", {"sweep": {"start": 0.0, **_SWEEP}},
                 "sweep.start", id="sweep-start-unknown"),
    pytest.param("sweep", {"sweep": {"stop": 1.0, **_SWEEP}},
                 "sweep.stop", id="sweep-stop-unknown"),
    pytest.param("sweep", {"sweep": {"step": 0.5, **_SWEEP}},
                 "sweep.step", id="sweep-step-unknown"),
    pytest.param("sweep", {"sweep": {"param": "k"}}, "sweep.values",
                 id="sweep-without-values"),
    pytest.param("sweep", {"sweep": {"param": ["k"], **_SWEEP}},
                 "sweep.param", id="sweep-param-list"),
    pytest.param("verify", {"sweep": {"param": "x", **_SWEEP}},
                 "sweep.param", id="sweep-param-unknown"),
    pytest.param("sweep", {"preset": {"type": "samples",
                                      "r": [0.0, 1.0, 2.0, 3.0],
                                      "phi": [0.0, 1.0, 1.0, 0.0]},
                           "sweep": _SWEEP},
                 "sweep", id="sweep-of-samples"),
    pytest.param("converge", {"converge": {"grids": [None]}},
                 "converge.grids[0]", id="converge-grids-null"),
    pytest.param("converge", {"converge": {"grids": "256"}},
                 "converge.grids", id="converge-grids-string"),
    pytest.param("converge", {"converge": [256]}, "converge",
                 id="converge-not-object"),
    pytest.param("converge", {"converge": {"grids": [256, 300, 600]}},
                 "converge.grids", id="converge-grids-not-doubling"),
    pytest.param("converge", {"converge": {"grids": [256, 512]}},
                 "converge.grids", id="converge-grids-too-few"),
    pytest.param("verify", {"sovler": {"tol": 1e-3}}, "sovler",
                 id="unknown-top-key"),
    pytest.param("verify", {"grid": {"N": 64, "n": 64}}, "grid.n",
                 id="unknown-grid-key"),
    pytest.param("spectrum", {"solver": {"tol": 1e-10, "richardson": True}},
                 "solver", id="solver-section"),
    pytest.param("sweep", {"sweep": {"parameter": "k", **_SWEEP}},
                 "sweep.parameter", id="unknown-sweep-key"),
    pytest.param("converge", {"converge": {"grid": [64, 128, 256]}},
                 "converge.grid", id="unknown-converge-key"),
    pytest.param("verify", {"sweep": {"vals": [1.0]}}, "sweep.vals",
                 id="unknown-key-in-unread-section"),
    pytest.param("verify", {"sweep": {"values": "x"}}, "sweep.values",
                 id="sweep-values-string-in-unread-section"),
    pytest.param("verify", {"sweep": {"param": ["k"], **_SWEEP}},
                 "sweep.param", id="sweep-param-list-in-unread-section"),
    pytest.param("verify", {"converge": {"grids": [256, 512]}},
                 "converge.grids",
                 id="converge-grids-too-few-in-unread-section"),
    pytest.param("spectrum", {"converge": {"grids": [8]}},
                 "converge.grids[0]",
                 id="converge-grids-small-in-unread-section"),
    pytest.param("verify", {"topology": "torus"}, "topology",
                 id="topology-unknown"),
    # a JSON integer too large for a float, where a number is expected
    pytest.param("verify", {"preset": {"type": "round", "k": 10 ** 400}},
                 "preset.k", id="k-too-large-for-a-float"),
    pytest.param("sweep", {"sweep": {"values": [0.5, 10 ** 400]}},
                 "sweep.values[1]", id="sweep-value-too-large-for-a-float"),
    pytest.param("verify", {"n": 10 ** 400}, "n",
                 id="n-too-large-for-a-float"),
    # a grid whose N + 1 float64 nodes no array index reaches
    pytest.param("verify", {"grid": {"N": 10 ** 300}}, "grid.N",
                 id="grid-N-10-to-the-300"),
    pytest.param("verify", {"grid": {"N": 2 ** 62}}, "grid.N",
                 id="grid-N-2-to-the-62"),
    pytest.param("converge", {"converge": {"grids": [2 ** 60, 2 ** 61,
                                                     2 ** 62]}},
                 "converge.grids[0]", id="converge-grids-too-large"),
    pytest.param("verify", {"preset": {"type": "ellipsoid"}}, "preset.type",
                 id="preset-type-unknown"),
    # values each of which is a finite number, refused by the builder
    pytest.param("verify", {"preset": {"type": "round", "k": 0}}, "preset",
                 id="round-k-zero"),
    pytest.param("verify", {"preset": {"type": "bump", "eps": 1.5}},
                 "preset", id="bump-eps-large"),
    *(pytest.param("verify", {"topology": "periodic", "preset": {
        "type": "periodic_product", "c": 1.0, **params}}, "preset", id=name)
      for name, params in [("periodic-L-zero", {"a": 0.3, "L": 0}),
                           ("periodic-L-negative", {"a": 0.3, "L": -1.0}),
                           ("periodic-a-not-below-c", {"a": 1.0})]),
    *(pytest.param("verify", {"topology": topology, "preset": {
        "type": "samples", "r": r, "phi": phi}}, "preset", id=name)
      for name, topology, r, phi in [
          ("samples-short", "sphere_like", [0.0, 1.0, 2.0], [0.0, 1.0, 0.0]),
          ("samples-lengths", "sphere_like", [0.0, 1.0, 2.0, 3.0],
           [0.0, 1.0, 1.0, 1.0, 0.0]),
          ("samples-order", "sphere_like", [0.0, 2.0, 1.0, 3.0],
           [0.0, 1.0, 1.0, 0.0]),
          ("samples-seam", "periodic", [0.0, 1.0, 2.0, 3.0],
           [1.0, 1.2, 0.8, 1.1])]),
]


@pytest.mark.parametrize("command, section, path", [
    *BAD_DOCUMENTS,
    pytest.param("verify", {"grid": {"N": 65}}, "grid.N", id="verify-odd-N"),
    pytest.param("verify", {"grid": {"N": 18}}, "grid.N",
                 id="verify-half-grid-too-small"),
    pytest.param("sweep", {"grid": {"N": 65}, "sweep": _SWEEP}, "grid.N",
                 id="sweep-odd-N"),
    pytest.param("sweep", {}, "sweep", id="sweep-without-section"),
    pytest.param("converge", {}, "converge.grids",
                 id="converge-without-grids"),
    pytest.param("spectrum --richardson", {"grid": {"N": 65}}, "grid.N",
                 id="richardson-odd-config-N"),
])
def test_bad_preset_value_names_path(tmp_path, capsys, command, section,
                                     path):
    # every bad config value exits 2 with one line of error JSON naming
    # its config path, never with a traceback
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({**_ROUND, **section}))
    code = main([*command.split(), "--config", str(cfg_path)])
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("\n") == 1  # one-line error JSON, no traceback
    assert f"config path '{path}'" in json.loads(out)["error"]


@pytest.mark.parametrize("command, section, path", BAD_DOCUMENTS)
def test_profile_from_config_refuses_bad_documents(command, section, path):
    # the API refuses exactly what every subcommand refuses at load
    with pytest.raises(ValueError, match=f"config path '{re.escape(path)}'"):
        profile_from_config({**_ROUND, **section})


def test_outputs_are_byte_identical(round_cfg, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "--config", round_cfg, "--out", str(a)])
    main(["verify", "--config", round_cfg, "--out", str(b)])
    out = capsys.readouterr().out
    assert a.read_bytes() == b.read_bytes()
    assert out == ""  # nothing on stdout when --out given


@pytest.mark.parametrize("drop, topology, named", [
    ("n", "sphere_like", "'n'"),
    (None, "periodic", "'topology'"),
])
def test_sweep_config_checked_like_verify(tmp_path, capsys, drop, topology,
                                          named):
    cfg = {"n": 2, "topology": topology,
           "preset": {"type": "round", "k": 1.0}, "grid": {"N": 64},
           "sweep": {"values": [1.0]}}
    cfg.pop(drop, None)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    code = main(["sweep", "--config", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert named in payload["error"]


def test_package_env_repr_shows_only_pythonpath(package_env):
    # a failing test prints its fixtures' reprs: the environment's other
    # variables, whatever they hold, stay out of the log
    assert len(package_env) > 1
    assert repr(package_env) == (
        f"ChildEnv(PYTHONPATH={package_env['PYTHONPATH']!r}, ...)")


def test_import_skips_interpolate_and_integrate(package_env):
    # cohomlab never imports scipy.interpolate or scipy.integrate, not
    # even for spline profiles: they dominate cold-start time.  Nor the
    # scipy package itself or scipy.linalg: the LAPACK extension is
    # loaded by path, and is the one scipy module left in sys.modules
    code = ("import sys, cohomlab; print(sorted(m for m in "
            "('scipy', 'scipy._lib', 'scipy.linalg', 'scipy.interpolate', "
            "'scipy.integrate') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=package_env).stdout
    assert out.strip() == "[]"


def test_spline_verify_imports_no_scipy_subpackage(package_env, tmp_path):
    # a samples config solves its spline with the LAPACK functions the
    # lab already loads, so a cold verify imports none of the scipy
    # packages CubicSpline would pull in
    r = [math.pi * i / 64 for i in range(65)]
    phi = [math.sin(x) * (1.0 + 0.05 * math.sin(x) ** 2) for x in r]
    path = tmp_path / "samples.json"
    path.write_text(json.dumps({
        "n": 2, "topology": "sphere_like",
        "preset": {"type": "samples", "r": r, "phi": phi},
        "grid": {"N": 256}}))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cohomlab", "verify",
         "--config", str(path)], capture_output=True, text=True,
        env=package_env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "StrictlyAboveBound"
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "cohomlab.warp" in imported
    assert imported & {"scipy.interpolate", "scipy.special",
                       "scipy.optimize", "scipy.linalg"} == set()


def test_python_m_cohomlab_prints_the_golden_verify(package_env):
    # python -m cohomlab runs __main__.py, the path of a cold CLI start
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "cohomlab", "verify",
         "--config", str(root / "configs" / "round_n2.json")],
        capture_output=True, env=package_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout \
        == (root / "tests" / "golden" / "round_n2.verify.json").read_bytes()


def test_no_module_imports_a_private_name_of_another():
    # modules talk through public names only: a name with a leading
    # underscore stays inside the module that defines it
    package = Path(cohomlab.__file__).resolve().parent
    private = [(path.name, node.module, alias.name)
               for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
