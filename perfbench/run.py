"""finslerkit benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload pointwise --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  ``--smoke`` shrinks the inputs to about a second
of work.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment, the unit count behind each mean or median and the detail
tables.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (CLAIMS_FILE, ROOT, SRC, WORKLOADS, SpeedProbe,  # noqa: E402
                       child_env)

SETUP_PROBES = 7
SETUP_TICKS = 30     # speed-probe ticks before and after each set-up probe
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "samples_per_s": "1/s", "peak_rss_mb": "MB",
                    "accuracy_digits": "digits"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink inputs to about a second of work")
    return p.parse_args(argv)


def environment(args):
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "finslerkit").glob("*.py")):
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except OSError:
        commit = ""
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "git_commit": commit or "unknown", "src_sha256": digest.hexdigest()[:16],
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke}


def probe_setup(args, count):
    """Seconds of `count` cold set-ups, each timed inside a fresh interpreter
    from its first line (interpreter start and exit are left out): raw, and
    scaled by speed-probe ticks taken just before and after each."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    raw, scaled = [], []
    for _ in range(count):
        probe = SpeedProbe()
        for _ in range(SETUP_TICKS):
            probe.tick()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=str(ROOT), timeout=170)
        for _ in range(SETUP_TICKS):
            probe.tick()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        raw.append(json.loads(proc.stdout)["setup_s"])
        scaled.append(raw[-1] * probe.speed())
    return raw, scaled


def run_reps(workload, seconds, probe, on_unit=None):
    """Run units until the unit boundary nearest to `seconds` (at least
    one); per-unit wall and CPU seconds, without the speed probe's ticks,
    and results."""
    walls, cpus, results = [], [], []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin + statistics.mean(walls) / 2 < seconds:
        spent0, cpu0, wall0 = probe.spent, time.process_time(), time.perf_counter()
        result = workload.run_unit(probe)
        ticks = probe.spent - spent0
        walls.append(time.perf_counter() - wall0 - ticks)
        cpus.append(time.process_time() - cpu0 - ticks + (result.child_cpu_s or 0.0))
        results.append(result)
        if on_unit is not None:
            on_unit(result)
    return walls, cpus, results


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload.name == "suite" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def verdicts(results):
    """(correct, attempted, failed, problems, failures) over all units.

    Every unit repeats the same seeded work, so each check counts once,
    however many units the run fits: `attempted` is the number of distinct
    checks and `failed` the number that failed in any unit.  Both then
    follow the seed alone, not the machine's speed.  A check whose verdict
    differs between units counts as failed and is named in the problems."""
    passed = {}
    for c in (c for r in results for c in r.checks):
        passed.setdefault(c.name, set()).add(c.passed)
    problems = [p for r in results for p in r.problems]
    problems += [f"{name}: verdict differs between units of the same inputs"
                 for name, seen in passed.items() if len(seen) > 1]
    failures = sorted(name for name, seen in passed.items() if False in seen)
    return (not problems and bool(passed), len(passed), len(failures),
            problems, failures)


def end_to_end(args, workload):
    # scaled: between two sets of ten runs an hour apart the raw median
    # set-up rose by 30 % on pointwise with the machine's drift
    raw_setups, setups = probe_setup(args, 1 if args.smoke else SETUP_PROBES)
    probe = SpeedProbe()
    walls, cpus, results = run_reps(workload, args.seconds, probe)
    correct, attempted, failed, problems, failures = verdicts(results)
    # mean, not median, over units: the machine switches between speed
    # states every few seconds, and a median over units jumps with whichever
    # state held most of them, while the mean weights each by its time
    speed = probe.speed()
    wall = statistics.mean(walls) * speed
    unit = results[-1]
    digits = {c.name: c.digits for c in unit.checks if c.digits is not None}
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": statistics.mean(cpus) * speed,
        "samples_per_s": unit.samples / wall,
        "peak_rss_mb": peak_rss_mb(workload),
        # the mean, not the minimum: the minimum follows one claim that sits
        # near its tolerance (szabo-s-curvature), which swings with the seed
        "accuracy_digits": statistics.mean(digits.values()) if digits else float("nan"),
    }
    detail = {"units": len(walls), "unit_walls_s": walls, "unit_cpus_s": cpus,
              "raw_wall_s": statistics.mean(walls), "raw_cpu_s": statistics.mean(cpus),
              "speed_factor": speed, "probe_ticks": len(probe.samples),
              "raw_setups_s": raw_setups, "setups_s": setups, "samples_per_unit": unit.samples,
              "checks_per_unit": len(unit.checks),
              "traces_per_unit": unit.traces,
              "traces_per_s": unit.traces / wall if unit.traces else 0.0,
              "failed_ratio": failed / attempted if attempted else 0.0,
              "accuracy_digits_min": min(digits.values(), default=float("nan")),
              "failures": failures, "problems": problems[:20], "check_digits": digits}
    detail.update(unit.notes)
    return correct, attempted, failed, metrics, detail, END_TO_END_UNITS


def traced(args, workload):
    from tracing import Tracer, breakdown, layer_metrics
    from finslerkit import quadrature

    probe = SpeedProbe()     # its ticks are left out of the unit times
    # untraced units for a third of the time: the base of the tracing overhead
    base_walls, _, base_results = run_reps(workload, args.seconds / 3.0, probe)
    per_unit, tables, rules = [], [], set()
    if workload.name == "suite":
        def collect(result):
            child = result.child
            per_unit.append({**child["layers"], "cli.import_s": child["import_s"]})
            tables.append(child["breakdown"])
            rules.update(tuple(r) for r in child["breakdown"]["sphere_rules"])

        workload.runner = [str(HERE / "suite_child.py")]
        walls, _, results = run_reps(workload, args.seconds * 2.0 / 3.0, probe, collect)
    else:
        tracer = Tracer()

        def collect(result):
            snap = tracer.snapshot()
            tracer.reset()
            per_unit.append({**layer_metrics(snap), "cli.import_s": 0.0})
            tables.append(breakdown(snap))
            rules.update(snap.rules)

        with tracer:
            walls, _, results = run_reps(workload, args.seconds * 2.0 / 3.0, probe, collect)
    metrics = {k: statistics.median(u[k] for u in per_unit) for k in per_unit[0]}
    cold = 0.0
    for n, level in sorted(rules):
        start = time.perf_counter()
        quadrature.sphere_rule.__wrapped__(n, level)
        cold += time.perf_counter() - start
    metrics["quadrature.sphere_rule.cold_s"] = cold
    metrics["trace.overhead_s"] = statistics.mean(walls) - statistics.mean(base_walls)
    correct, attempted, failed, problems, failures = verdicts(base_results + results)
    detail = {"units": len(walls), "unit_walls_s": walls, "untraced_walls_s": base_walls,
              "failures": failures, "problems": problems[:20], "tables": tables[-1]}
    units = {k: layer_unit(k) for k in metrics}
    return correct, attempted, failed, metrics, detail, units


def layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".flops"):
        return "flop"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith((".calls", "_calls", ".nodes", ".rhs_evals", ".steps")):
        return "count"
    return "ratio"


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "finslerkit" / "__init__.py").is_file() or not CLAIMS_FILE.is_file():
        print(f"error: no finslerkit source tree at {ROOT} (need src/finslerkit and "
              f"{CLAIMS_FILE.relative_to(ROOT)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, smoke=args.smoke)
    try:
        if args.trace:
            correct, attempted, failed, metrics, detail, units = traced(args, workload)
        else:
            correct, attempted, failed, metrics, detail, units = end_to_end(args, workload)
    finally:
        getattr(workload, "teardown", lambda: None)()
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            correct = False
            detail.setdefault("problems", []).append(f"metric {name} is {value!r}")
    print(json.dumps({"environment": environment(args), **detail}))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
