"""Tests of the benchmark harness itself (not part of the package's tier-1).

Run from the repository root:

    python3 -m pytest perfbench/tests -q

The smoke runs take about a minute, and the speed-probe tests about two
more at full size.
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import run_reps, verdicts  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import (WORKLOADS, Check, SpeedProbe, UnitResult,  # noqa: E402
                       _import_finslerkit, claim_checks)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    env = json.loads(detail_line)["environment"]
    assert {"python", "numpy", "scipy", "nproc", "git_commit", "seed"} <= set(env)


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run("--workload", "pointwise", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_work_counters_repeat_exactly_and_tracing_uninstalls():
    _import_finslerkit()
    from finslerkit import geometry, jets, verify

    originals = (jets.Jet.__mul__, geometry.riemann, verify.fundamental_tensor,
                 verify.SamplePlan.draw)
    workload = WORKLOADS["pointwise"]()
    workload.setup(5, smoke=True)
    counts = []
    with Tracer() as tracer:
        assert jets.Jet.__mul__ is not originals[0]
        for _ in range(2):
            workload.run_unit(SpeedProbe())
            m = layer_metrics(tracer.snapshot())
            tracer.reset()
            counts.append({k: m[k] for k in ("jets.mul.calls", "jets.mul.flops",
                                             "geometry.f2_jets_per_sample",
                                             "geometry.riemann.calls")})
    assert counts[0] == counts[1]
    assert counts[0]["jets.mul.calls"] > 0
    assert (jets.Jet.__mul__, geometry.riemann, verify.fundamental_tensor,
            verify.SamplePlan.draw) == originals


def test_claim_checks_flag_a_verdict_that_contradicts_its_deviation():
    _import_finslerkit()
    from finslerkit import verify
    from finslerkit.zoo import MetricSpec

    claim = verify.Claim(id="c", metric=MetricSpec("euclidean", 2),
                         quantity="flag_curvature", tolerance=1e-6,
                         samples=verify.SamplePlan(count=3))
    record = {"claim_id": "c", "passed": True, "count": 3, "tolerance": 1e-6,
              "worst_sample": {"deviation": 1e-3}}
    checks, problems = claim_checks([record], [claim])
    assert problems and checks == [Check("c", True, 1e-3, 1e-6)]
    failed = dict(record, passed=False)
    checks, problems = claim_checks([failed], [claim])
    assert not problems and not checks[0].passed
    assert checks[0].digits == pytest.approx(-3.0)


def test_verdicts_count_each_check_once_however_many_units_ran():
    unit = UnitResult(samples=1, problems=[],
                      checks=[Check("a", True), Check("b", False)])
    for units in (1, 3):
        assert verdicts([unit] * units) == (True, 2, 1, [], ["b"])
    flipped = UnitResult(samples=1, problems=[],
                         checks=[Check("a", False), Check("b", False)])
    correct, attempted, failed, problems, failures = verdicts([unit, flipped])
    assert (correct, attempted, failed, failures) == (False, 2, 2, ["a", "b"])
    assert problems and "a" in problems[0]


#: the finslerkit functions a unit of each in-process workload spends its time in
HEAVY = {"pointwise": ("verify", ("run_claim",)),
         "quadrature": ("verify", ("run_claim",)),
         "transport": ("flow", ("integrate_geodesic", "torsion_trace", "jacobi_propagate"))}


@pytest.mark.parametrize("workload_name", sorted(HEAVY))
def test_speed_probe_scaling_keeps_a_program_slowdown(workload_name, monkeypatch):
    """A unit whose finslerkit calls each run twice reads about twice as
    long after scaling: the probe follows the machine, not the program.
    Full-size units for the claim workloads; smoke size for transport."""
    _import_finslerkit()
    import importlib
    module_name, names = HEAVY[workload_name]
    module = importlib.import_module(f"finslerkit.{module_name}")
    workload = WORKLOADS[workload_name]()
    workload.setup(7, smoke=workload_name == "transport")

    def doubled(fn):
        def wrapper(*args, **kwargs):
            fn(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapper

    ratios = []
    for _ in range(4):       # adjacent pairs, so machine drift hits both alike
        scaled = {}
        for factor in (1, 2):
            if factor == 2:
                for name in names:
                    monkeypatch.setattr(module, name, doubled(getattr(module, name)))
            probe = SpeedProbe()
            walls, _, _ = run_reps(workload, 0.0, probe)
            scaled[factor] = statistics.mean(walls) * probe.speed()
            monkeypatch.undo()
        ratios.append(scaled[2] / scaled[1])
    assert 1.7 < statistics.median(ratios) < 2.3, ratios
