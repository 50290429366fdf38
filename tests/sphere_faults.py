"""Minor page faults of repeated sphere passes in a fresh process.

    python tests/sphere_faults.py            # one measurement
    python tests/sphere_faults.py --runs 40  # 40 fresh processes, one at a time

A process that builds no n >= 4 rule calls an S on the slab and a
closed-one-form residual once each, then five more times, and prints one
line per call: the median and the most minor page faults of those five.
`test_sphere_passes_after_the_first_reuse_their_pages` runs it once and
asserts a median of 0 and fewer than MOST.  Whether a run keeps that
bound turns on glibc's allocator layout, which a change to what a sphere
pass allocates can move in only some runs; `--runs N` reports how many of
N fresh runs break it, and exits 1 if any does.
"""

import os
import resource
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

#: A call keeps the bound when fewer than MOST pages fault in each repeat.
MOST = 64


def measure():
    import numpy as np

    from finslerkit import verify, zoo
    from finslerkit.geometry import TangentSample, s_curvature

    slab = zoo.make_incomplete_slab(dimension=3)
    funk = zoo.make_funk_shifted([0.3, 0.0, 0.1], dimension=3)
    at = TangentSample([0.1, 0.2, 0.1], [0.3, -0.4, 0.5])
    dirs = verify._fit_directions(np.random.default_rng(5), 3)
    for call in (lambda: s_curvature(slab, at),
                 lambda: verify._closed_one_form_residual(funk, 0.5, at.x, dirs)):
        call()
        faults = []
        for _ in range(5):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            call()
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        print(statistics.median(faults), max(faults))


def fresh_runs(count):
    """Measure in `count` fresh processes, one after another, and report
    how many break the bound; True if none does."""
    import subprocess

    broken = 0
    for k in range(count):
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             capture_output=True, text=True, timeout=300, check=True)
        calls = [tuple(map(float, line.split())) for line in out.stdout.splitlines()]
        if not all(median == 0 and most < MOST for median, most in calls):
            broken += 1
            print(f"run {k + 1}: {out.stdout.split()}")
    print(f"{broken} of {count} fresh runs break the bound")
    return not broken


if __name__ == "__main__":
    if sys.argv[1:2] == ["--runs"]:
        sys.exit(0 if fresh_runs(int(sys.argv[2])) else 1)
    measure()
