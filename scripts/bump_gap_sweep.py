"""Sweep the bump family and tabulate the spectral gap.

Prints one row per eps with kappa2, lambda_min, the gap and the
verdict; optionally writes the same rows to CSV.

    python scripts/bump_gap_sweep.py --n 3 --stop 0.3 --step 0.05 --out gap.csv
"""

import argparse
import csv
import sys

import numpy as np

from cohomlab import sweep
from cohomlab.warp import sweep_range


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=3, help="orbit dimension + 1")
    ap.add_argument("--start", type=float, default=0.0)
    ap.add_argument("--stop", type=float, default=0.3)
    ap.add_argument("--step", type=float, default=0.05)
    ap.add_argument("--grid", type=int, default=2048)
    ap.add_argument("--out", help="CSV destination (default: stdout table only)")
    args = ap.parse_args(argv)

    try:  # the config's sweep rule and row bound, for --start/stop/step
        values = sweep_range(vars(args), prefix="--")
    except ValueError as exc:
        ap.error(str(exc))
    rows = sweep("Bump", values, n=args.n, N=args.grid)

    print(f"# bump family, n = {args.n}, N = {args.grid}")
    print(f"{'eps':>6} {'kappa2':>12} {'lambda_min':>14} {'gap':>12}  verdict")
    for row in rows:
        verdict = row.verdict.value if row.verdict else row.error
        print(f"{row.param:6.3f} {row.kappa2:12.6f} {row.lambda_min:14.9f} "
              f"{row.gap:12.6f}  {verdict}")

    # the gap should vanish at eps = 0 and grow with eps while the
    # curvature hypothesis holds
    gaps = [r.gap for r in rows if np.isfinite(r.gap)]
    if gaps and gaps == sorted(gaps):
        print("# gap is monotone over the sweep")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["eps", "kappa2", "lambda_min", "gap",
                        "obata_defect", "verdict"])
            for row in rows:
                w.writerow([row.param, row.kappa2, row.lambda_min, row.gap,
                            row.obata_defect,
                            row.verdict.value if row.verdict else ""])
        print(f"# wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
