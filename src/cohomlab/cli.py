"""Command-line interface: geometry, spectrum, verify, sweep, converge.

Configs are JSON, checked whole at load (see warp.read_config).  Outputs are
deterministic: JSON uses sorted keys and shortest round-trip floats,
CSV uses comma delimiter, header row and LF endings, and solver seeds
are fixed, so identical configs give byte-identical files.
Machine-readable output goes to stdout unless --out is given; a short
human summary always goes to stderr.

Exit codes: 0 success (including HypothesisNotMet verdicts), 1 bound
violation (verify only), 2 config/IO/solver/out-of-memory errors
(one-line error JSON on stdout).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from typing import Optional

from .geometry import orbit_geometry, ricci_profile
from .lab import TheoremReport, check_bound, sweep as run_sweep
from .spectral import (ConvergenceError, OperatorKind, convergence_study,
                       solve_smallest)
from .warp import Config, RadialGrid, at_config_path, read_config

KINDS = {"vector": OperatorKind.ROUGH_VECTOR,
         "scalar": OperatorKind.SCALAR_LAPLACIAN}


def _load_config(path: str) -> Config:
    """The config at path, checked whole by read_config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from None
    except RecursionError:  # json's decoder recurses once per nesting level
        raise ValueError("config is not valid JSON: nested too deeply") \
            from None
    return read_config(cfg)


def _emit_text(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, out: Optional[str]) -> None:
    _emit_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _cmd_geometry(cfg: Config, args) -> int:
    profile, grid = cfg.profile, cfg.grid
    geom = orbit_geometry(profile, grid)
    ricci = ricci_profile(geom)
    payload = {
        "profile": profile.preset_tag,
        "n": profile.n,
        "topology": profile.topology.value,
        "grid_N": grid.N,
        "kappa2": ricci.kappa2,
        "ric_min": ricci.ric_min,
        "argmin_r": ricci.argmin_r,
    }
    if args.csv:
        rows = zip(grid.interior, geom.phi, geom.H, geom.B2, geom.w_interior,
                   ricci.ric_radial, ricci.ric_tangential)
        _emit_text(_csv_text(
            ["r", "phi", "H", "B2", "w", "ric_radial", "ric_tangential"],
            rows), args.csv)
    _emit_json(payload, args.out)
    _say(f"geometry {profile.preset_tag}: kappa2={ricci.kappa2:.6g} "
         f"ric_min={ricci.ric_min:.6g} at r={ricci.argmin_r:.6g}")
    return 0


def _cmd_spectrum(cfg: Config, args) -> int:
    profile, N = cfg.profile, cfg.grid.N
    if args.richardson:
        at_config_path("grid.N", RadialGrid.halvable, N)
    result = solve_smallest(profile, KINDS[args.kind], N,
                            richardson=args.richardson)
    payload = {
        "profile": profile.preset_tag,
        "kind": args.kind,
        "lambda": result.lam,
        "lambda_extrapolated": result.extrapolated,
        "grid_N": result.grid_N,
        "residual": result.residual,
        "iterations": result.iterations,
    }
    if args.csv:
        fn = result.eigenfunction
        full_r = fn.grid.nodes
        _emit_text(_csv_text(["r", "f"], zip(full_r, fn.values)), args.csv)
    _emit_json(payload, args.out)
    extra = ("" if result.extrapolated is None
             else f" (richardson {result.extrapolated!r})")
    _say(f"spectrum {args.kind} {profile.preset_tag}: "
         f"lambda={result.lam!r}{extra} in {result.iterations} iterations")
    return 0


def _report_payload(rep: TheoremReport) -> dict:
    payload = asdict(rep)
    payload["verdict"] = rep.verdict.value
    return payload


def _cmd_verify(cfg: Config, args) -> int:
    profile, grid = cfg.profile, cfg.grid
    rep = check_bound(profile,
                      N=at_config_path("grid.N", RadialGrid.halvable, grid.N))
    _emit_json(_report_payload(rep), args.out)
    _say(f"verify {profile.preset_tag}: verdict={rep.verdict.value} "
         f"gap={rep.gap:.6g} (tol_disc={rep.tol_disc:.2g})")
    return 0 if rep.bound_holds else 1


def _cmd_sweep(cfg: Config, args) -> int:
    if cfg.sweep_values is None:
        raise ValueError("config path 'sweep': missing")
    rows = run_sweep(cfg.preset, cfg.sweep_values, n=cfg.profile.n,
                     N=at_config_path("grid.N", RadialGrid.halvable,
                                      cfg.grid.N),
                     param=cfg.sweep_param, base_params=cfg.params)
    table = [(r.param, r.kappa2, r.lambda_min, r.gap, r.obata_defect,
              r.verdict.value if r.verdict else "", r.error or "")
             for r in rows]
    _emit_text(_csv_text(
        ["param", "kappa2", "lambda_min", "gap", "obata_defect", "verdict",
         "error"], table), args.out)
    failed = sum(1 for r in rows if r.error)
    _say(f"sweep {cfg.preset} x{len(rows)} rows"
         + (f" ({failed} failed)" if failed else ""))
    return 0


def _cmd_converge(cfg: Config, args) -> int:
    profile = cfg.profile
    if not cfg.converge_grids:
        raise ValueError("config path 'converge.grids': missing")
    study = convergence_study(profile, KINDS[args.kind], cfg.converge_grids)
    orders = ["exact" if p is None else p for p in study.orders]
    payload = {
        "profile": profile.preset_tag,
        "kind": args.kind,
        "grids": list(study.grids),
        "lambda": list(study.lambdas),
        "orders": orders,
    }
    _emit_json(payload, args.out)
    _say(f"converge {profile.preset_tag}: orders "
         + ", ".join(o if isinstance(o, str) else f"{o:.3f}" for o in orders))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohomlab",
        description="spectral-gap experiments on warped-product manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="write JSON/CSV here instead of stdout")

    p = sub.add_parser("geometry", help="curvature and weight profiles")
    common(p)
    p.add_argument("--csv", help="write plot-ready profile CSV here")
    p.set_defaults(func=_cmd_geometry)

    p = sub.add_parser("spectrum", help="extremal eigenvalue")
    common(p)
    p.add_argument("--kind", choices=KINDS, default="vector")
    p.add_argument("--richardson", action="store_true",
                   help="extrapolate against the halved grid")
    p.add_argument("--csv", help="write eigenfunction CSV here")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("verify", help="run the bound check with verdict")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="bound check across a preset family")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("converge", help="grid convergence study")
    common(p)
    p.add_argument("--kind", choices=KINDS, default="vector")
    p.set_defaults(func=_cmd_converge)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_load_config(args.config), args)
    except ConvergenceError as exc:
        print(json.dumps({"error": str(exc), "type": "solver",
                          "last_residual": exc.last_residual}))
        return 2
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}))
        return 2
    except MemoryError as exc:  # a grid N too large for this machine
        print(json.dumps({"error": str(exc) or "out of memory",
                          "type": "MemoryError"}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
