"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED [--smoke]

Prints one JSON object: ``setup_s``, the seconds from the script's first
line to the end of the workload's set-up (imports, metric builds, claim
loading, cold caches).
"""

import json
import sys
import time

START = time.perf_counter()

from workloads import WORKLOADS, _import_finslerkit  # noqa: E402


def main(argv):
    name, seed = argv[0], int(argv[1])
    _import_finslerkit()
    workload = WORKLOADS[name]()
    workload.setup(seed, smoke="--smoke" in argv)
    done = time.perf_counter()
    getattr(workload, "teardown", lambda: None)()
    print(json.dumps({"setup_s": done - START}))


if __name__ == "__main__":
    main(sys.argv[1:])
