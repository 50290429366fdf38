"""Run the finslerkit CLI with tracing installed.

Usage: python3 perfbench/suite_child.py <finslerkit CLI arguments>

Prints one JSON object: the CLI's JSON report, the time ``import
finslerkit.cli`` took, and the per-layer metrics and breakdown tables of
the run.  Exits with the CLI's status.
"""

import contextlib
import io
import json
import sys
import time

START = time.perf_counter()
import finslerkit.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - START

from tracing import Tracer, breakdown, layer_metrics  # noqa: E402


def main(argv):
    out = io.StringIO()
    with Tracer() as tracer, contextlib.redirect_stdout(out):
        status = cli.main(argv)
    snap = tracer.snapshot()
    print(json.dumps({"report": json.loads(out.getvalue()), "import_s": IMPORT_S,
                      "layers": layer_metrics(snap), "breakdown": breakdown(snap)}))
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
