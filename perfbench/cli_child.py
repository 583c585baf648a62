"""`cohomlab <args>` in this process, with spans on.

Runs the CLI as `python -m cohomlab <args>` would, with the tracer
installed after import, and appends one line to stderr:
`PERFBENCH {"compute_s": ..., "totals": {...}}`.  Stdout is the CLI's
own.  Usage: python cli_child.py verify --config X
"""

import json
import sys
import time

from cohomlab import cli  # what `python -m cohomlab` imports
from tracing import Tracer

if __name__ == "__main__":
    t0 = time.perf_counter()
    with Tracer() as tracer:
        rc = cli.main(sys.argv[1:])
    compute_s = time.perf_counter() - t0
    sys.stdout.flush()
    print("PERFBENCH " + json.dumps({"compute_s": compute_s,
                                     "totals": tracer.totals()}),
          file=sys.stderr)
    sys.exit(rc)
