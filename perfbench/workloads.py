"""The four benchmark workloads: inputs from a seed, one unit of work, checks.

Each workload builds its inputs from the workload seed in ``setup`` and
then runs the same fixed unit of work as often as the run allows.  A unit
returns how many tangent samples it evaluated and one ``Check`` per
correctness verdict: claim verdicts and the transport gates.  A check that
fails counts as a failed operation; a result that is malformed or
inconsistent with its own verdict makes the run incorrect.

Why these workloads (each stresses a different layer):

* ``pointwise``: claims whose quantity is a pointwise tensor identity.
  Unbatched jets in at most 6 directions plus Python overhead; no flow and
  no quadrature.
* ``quadrature``: S-curvature claims.  Jets carry trailing batch axes of
  512 to 65536 sphere nodes, so numpy bandwidth bounds the work.
* ``transport``: geodesics, torsion traces and Jacobi fields (the flow
  layer), as in acceptance criterion 06.
* ``suite``: the ``finslerkit suite`` command in a child process:
  interpreter start, imports, YAML, the threaded ``run_suite`` path and
  the JSON report.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLAIMS_FILE = ROOT / "claims" / "acceptance.yaml"
OUT_DIR = Path(__file__).resolve().parent / "out"

POINTWISE_QUANTITIES = ("flag_curvature", "mean_cartan", "mean_landsberg",
                        "cartan_orthogonality", "berwald_quadratic", "spray_split",
                        "det_identity", "riemann_annihilates_torsion", "funk_pde",
                        "cartan_bound")
QUADRATURE_QUANTITIES = ("s_curvature", "s_curvature_ratio", "closed_one_form")
#: Geodesic claims; their cost follows where the few seeded samples land
#: (szabo-phi-constancy takes 9 to 18 s across seeds), so the suite leaves
#: them to ``transport``.
GEODESIC_QUANTITIES = ("sskk1_residual", "phi_constancy")

#: Generated S-curvature claims beyond the shipped ones: n = 3 uses the
#: 32768-node product rule, n = 4 the 65536-node QMC rule.
GENERATED_S_CLAIMS = (
    {"id": "funk-s-curvature-ratio-n3", "dimension": 3, "count": 10},
    {"id": "funk-s-curvature-ratio-n4", "dimension": 4, "count": 6},
)

#: Transport: acceptance criterion 06 (three halving solver tolerances,
#: 33 trace nodes, starts at margin 0.4) on unit-speed geodesics of length
#: 0.5.  Per unit: shifted Funk from one seeded point in 3 directions
#: spread evenly from a seeded angle, and one seeded szabo_epsilon start.
TRANSPORT_TOLS = (2e-5, 1e-5, 5e-6)
TRANSPORT_NODES = 33
TRANSPORT_T_END = 0.5
SMOKE_T_END = 0.02
FUNK = ("funk_ball_shifted", 2, {"a": [0.3, 0.0]})
FUNK_DIRECTIONS = 3
SZABO = ("szabo_epsilon", 3, {"eps": 0.5})
TRANSPORT_GATE = 1e-4
HALVING_GATE = 2.0


class SpeedProbe:
    """Times a small fixed kernel, which shares no code with finslerkit,
    between the steps of a unit: before each claim, and before each
    geodesic, torsion trace and Jacobi field of ``transport``.

    The benchmark runs on a shared 2-core machine whose speed drifts by a
    fifth or more over tens of seconds as other tenants come and go; ten
    runs of the same work spread by 0.16 to 0.29 ((Q3 - Q1) / median).
    The kernel slows down with the machine, so unit times are scaled by
    REFERENCE_S / (mean kernel time): they read as seconds on the
    reference machine at its reference speed.  A change to finslerkit
    does not move the kernel, so it shows in full in the scaled times
    (tests/test_perfbench.py checks this with a unit that does twice the
    work).  A run without ticks is not scaled.
    """

    #: mean kernel seconds on the machine the baseline was measured on
    #: (shared 2-core Intel Xeon machine at 2.1 GHz)
    REFERENCE_S = 1.1e-3

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def tick(self):
        start = time.perf_counter()
        acc = 0.0
        for i in range(8000):
            acc += math.sqrt(i) * 0.5
        small = np.arange(64.0)
        for _ in range(300):
            small = small * 1.0000001 + 0.5
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def speed(self):
        """Factor that scales this run's times to the reference machine."""
        return self.REFERENCE_S / statistics.mean(self.samples) if self.samples else 1.0


@dataclasses.dataclass(frozen=True)
class Check:
    """One correctness verdict.  `tolerance` is None for pass/fail checks."""

    name: str
    passed: bool
    deviation: float = None
    tolerance: float = None

    @property
    def digits(self):
        """log10(tolerance / deviation), the deviation floored at 1e-16 tol."""
        if self.tolerance is None:
            return None
        return math.log10(self.tolerance / max(self.deviation, 1e-16 * self.tolerance))


@dataclasses.dataclass
class UnitResult:
    samples: int
    checks: list
    problems: list
    traces: int = 0
    child_cpu_s: float = None     # CPU of child processes, when the unit spawns one
    child: dict = None            # the child's JSON output, when the unit spawns one
    notes: dict = dataclasses.field(default_factory=dict)   # for the detail line


def _import_finslerkit():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import finslerkit  # noqa: F401


def _load_shipped_claims():
    from finslerkit import verify
    return verify.load_claims(str(CLAIMS_FILE))


def _reseed(claim, seed, count=None):
    plan = dataclasses.replace(claim.samples, seed=seed,
                               count=claim.samples.count if count is None else count)
    return dataclasses.replace(claim, samples=plan)


def claim_checks(records, claims):
    """Checks and consistency problems from claim report records (dicts as in
    the JSON report) against the claims that were run."""
    checks, problems = [], []
    by_id = {r["claim_id"]: r for r in records}
    if sorted(by_id) != sorted(c.id for c in claims):
        problems.append(f"report claims {sorted(by_id)} != {sorted(c.id for c in claims)}")
    for claim in claims:
        rec = by_id.get(claim.id)
        if rec is None:
            continue
        passed = bool(rec["passed"])
        if rec["count"] == 0:          # evaluation or construction error
            if passed:
                problems.append(f"{claim.id}: passed with no samples")
            checks.append(Check(claim.id, False))
            continue
        if rec["count"] != claim.samples.count:
            problems.append(f"{claim.id}: {rec['count']} samples, "
                            f"expected {claim.samples.count}")
        dev = rec["worst_sample"].get("deviation")
        if dev is None or not math.isfinite(dev):
            problems.append(f"{claim.id}: worst deviation {dev!r} is not finite")
            checks.append(Check(claim.id, False))
            continue
        if claim.target.get("kind") == "exceeds":    # pass/fail only
            checks.append(Check(claim.id, passed))
            continue
        if passed != (dev <= rec["tolerance"]):
            problems.append(f"{claim.id}: verdict {passed} but deviation "
                            f"{dev:.3e} vs tolerance {rec['tolerance']:.3e}")
        checks.append(Check(claim.id, passed, float(dev), float(rec["tolerance"])))
    return checks, problems


class _ClaimWorkload:
    """Claims run in process through ``verify.run_claim``."""

    def setup(self, seed, smoke=False):
        _import_finslerkit()
        from finslerkit import verify
        self.claims = [_reseed(c, seed) for c in self._claims(seed)]
        if smoke:
            self.claims = [_reseed(c, seed, count=min(c.samples.count, 2))
                           for c in self.claims[:: max(len(self.claims) // 4, 1)]]
        # cold caches (jet index tables, sphere rules) fill on a one-sample pass
        for c in self.claims:
            verify.run_claim(_reseed(c, seed, count=1))

    def run_unit(self, probe):
        from finslerkit import verify
        reports = []
        for c in self.claims:
            probe.tick()
            reports.append(verify.run_claim(c))
        checks, problems = claim_checks([r.to_dict() for r in reports], self.claims)
        return UnitResult(samples=sum(r.count for r in reports), checks=checks,
                          problems=problems)


class Pointwise(_ClaimWorkload):
    name = "pointwise"

    def _claims(self, seed):
        return [c for c in _load_shipped_claims() if c.quantity in POINTWISE_QUANTITIES]


class Quadrature(_ClaimWorkload):
    name = "quadrature"

    def _claims(self, seed):
        from finslerkit import verify
        from finslerkit.zoo import MetricSpec
        shipped = [c for c in _load_shipped_claims()
                   if c.quantity in QUADRATURE_QUANTITIES]
        generated = [verify.Claim(
            id=g["id"], metric=MetricSpec("funk_ball_shifted", g["dimension"]),
            quantity="s_curvature_ratio", target={"kind": "constant", "value": 0.5},
            tolerance=1e-3, samples=verify.SamplePlan(count=g["count"], seed=seed),
            reference="S-curvature of the ball metric equals (n+1)F/2")
            for g in GENERATED_S_CLAIMS]
        return shipped + generated


class Transport:
    """Acceptance criterion 06 with seeded starts, on shifted Funk (n=2) and
    szabo_epsilon (n=3).

    Every start is scaled to unit speed, F(x0, y0) = 1, so every geodesic
    has the same length.  Solver cost grows with the length, and criterion
    06's unscaled normal draws vary it enough (Jacobi fields took 1.0 to
    3.7 s) that a unit of a few starts would not be steady.  The Funk
    directions are spread evenly around their point for the same reason:
    the cost depends on the heading relative to the boundary.
    """

    name = "transport"

    def setup(self, seed, smoke=False):
        _import_finslerkit()
        from finslerkit import flow, zoo
        rng = np.random.default_rng(seed)
        self.t_end = SMOKE_T_END if smoke else TRANSPORT_T_END
        self.starts = []
        for kind, dim, params in (FUNK, SZABO):
            spec = zoo.MetricSpec(kind, dim, params)
            metric = zoo.build_metric(spec)
            x0 = metric.domain.sample_interior(rng, margin=0.4)
            if kind == FUNK[0]:
                angle = rng.uniform(0.0, 2.0 * np.pi)
                count = 1 if smoke else FUNK_DIRECTIONS
                angles = angle + 2.0 * np.pi * np.arange(count) / count
                directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            else:
                directions = [rng.standard_normal(dim)]
            for y0 in directions:
                self.starts.append((spec, x0, y0 / float(metric.evaluate(x0, y0))))
            # cold caches: one short trace on each metric
            tr = flow.integrate_geodesic(metric, *self.starts[-1][1:], (0.0, 0.05),
                                         tol=1e-4, nodes=5)
            flow.torsion_trace(metric, tr, check_tol=None)

    def run_unit(self, probe):
        from finslerkit import flow, geometry, zoo
        metrics = {}
        checks, problems = [], []
        halving = {tol: [] for tol in TRANSPORT_TOLS}
        ratios = {}
        traces = samples = 0
        for i, (spec, x0, y0) in enumerate(self.starts):
            if spec.kind not in metrics:
                metrics[spec.kind] = zoo.build_metric(spec)
            metric = metrics[spec.kind]
            tag = f"{spec.kind}[{i}]"
            for tol in TRANSPORT_TOLS:
                probe.tick()
                tr = flow.integrate_geodesic(metric, x0, y0, (0.0, self.t_end), tol=tol,
                                             nodes=TRANSPORT_NODES)
                probe.tick()
                tt = flow.torsion_trace(metric, tr, check_tol=None)
                traces += 1
                samples += len(tr.times)
                if spec.kind == FUNK[0]:
                    halving[tol].append(float(tt.residual_of_t.max()))
            scale = max(float(np.abs(tt.I_of_t).max()), 1e-30)
            resid = float(tt.residual_of_t.max()) / scale
            probe.tick()
            V = flow.jacobi_propagate(metric, tr, tt.I_of_t[0], tt.DI_of_t[0])
            jac = float(np.abs(V - tt.I_of_t).max()) / scale
            for name, dev in (("torsion_residual", resid), ("jacobi_error", jac)):
                if not math.isfinite(dev):
                    problems.append(f"{tag} {name} is {dev}")
                    dev = math.inf
                checks.append(Check(f"{tag}.{name}", dev <= TRANSPORT_GATE,
                                    dev, TRANSPORT_GATE))
            cn = geometry.cartan_norm(metric, x0)
            if not (math.isfinite(cn.value) and cn.value > 0.0
                    and abs(np.linalg.norm(cn.direction) - 1.0) < 1e-9):
                problems.append(f"{tag}: cartan_norm gave {cn}")
        means = [float(np.mean(halving[tol])) for tol in TRANSPORT_TOLS]
        for k in range(len(means) - 1):
            ratio = means[k] / means[k + 1] if means[k + 1] > 0.0 else math.inf
            checks.append(Check(f"funk_halving_ratio_m{k + 1}", ratio >= HALVING_GATE))
            ratios[f"m{k + 1}"] = ratio
        return UnitResult(samples=samples, checks=checks, problems=problems,
                          traces=traces, notes={"halving_ratios": ratios})


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


class Suite:
    """``finslerkit suite --jobs 2`` in a child process, from a cold start."""

    name = "suite"
    command = ("suite", "--jobs", "2")
    #: interpreter arguments that start the CLI; the traced run swaps in
    #: a script that installs tracing first
    runner = ("-m", "finslerkit.cli")

    def setup(self, seed, smoke=False):
        _import_finslerkit()
        import finslerkit.cli  # noqa: F401  (the import a CLI start pays)
        import yaml
        self.claims = [c for c in _load_shipped_claims()
                       if c.quantity not in GEODESIC_QUANTITIES]
        if smoke:
            self.claims = [_reseed(c, seed, count=min(c.samples.count, 2))
                           for c in self.claims[:: max(len(self.claims) // 4, 1)]]
        OUT_DIR.mkdir(exist_ok=True)
        self.claims_path = OUT_DIR / f"suite-claims-{os.getpid()}.yaml"
        self.claims_path.write_text(yaml.safe_dump([c.to_dict() for c in self.claims],
                                                   sort_keys=False))
        self.seed = seed

    def run_unit(self, probe):
        """Run the CLI once in a child process.

        No probe ticks: ticks while the child runs also time the child's
        own load, which scaled wall time to about 0.6 of the real one, and
        ticks between children missed the drift (ten-run spread 0.19
        scaled against 0.04 raw)."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run([sys.executable, *self.runner, *self.command, "--file",
                               str(self.claims_path), "--seed", str(self.seed)],
                              capture_output=True, text=True, env=child_env(),
                              cwd=str(ROOT), timeout=170)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        if proc.returncode not in (0, 1):
            return UnitResult(samples=0, checks=[], child_cpu_s=cpu, problems=[
                f"finslerkit suite exited {proc.returncode}: {proc.stderr.strip()[-500:]}"])
        out = json.loads(proc.stdout)
        report = out.get("report", out)
        records = report["claims"]
        checks, problems = claim_checks(records, self.claims)
        if (proc.returncode == 0) != report["passed"]:
            problems.append(f"exit status {proc.returncode} but passed={report['passed']}")
        return UnitResult(samples=sum(r["count"] for r in records), checks=checks,
                          problems=problems, child_cpu_s=cpu, child=out)

    def teardown(self):
        self.claims_path.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (Pointwise, Quadrature, Transport, Suite)}
