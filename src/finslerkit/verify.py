"""Declarative verification: claims as data, sampled checks, reports.

A Claim names a metric, a quantity, a target, a tolerance, and a sampling
plan.  run_claim evaluates the quantity over the plan and compares against
the target; run_suite executes many claims with deterministic aggregation.
A malformed claim raises InvalidParameterError when it is built; metric
constructor or geometry errors become failed reports, never crashes.

run_claim first draws every sample's random input (a flag pole, a
difference direction) in sample order, then evaluates pointwise
quantities on stacks of up to _CHUNK samples, one bundle per stack.  The
report is the one a sample-by-sample loop gives: a stack that fails is
evaluated again one sample at a time, so the first failing sample is the
one named.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import yaml

from .errors import FinslerError, InvalidParameterError
from .geometry import (TangentSample, _dot, _mv, _vmv, flag_curvature,
                       fundamental_tensor, local_geometry, s_curvature)
from .jets import extract, seed
from .zoo import MetricSpec, build_metric
from . import flow

TARGET_KINDS = ("constant", "zero", "upper_bound", "exceeds")


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sampling of tangent vectors: interior points with a
    boundary margin, directions uniform on the sphere."""

    count: int = 200
    margin: float = 0.05
    seed: int = 0

    def draw(self, metric):
        rng = np.random.default_rng(self.seed)
        out = []
        for _ in range(self.count):
            x = metric.domain.sample_interior(rng, margin=self.margin)
            y = rng.standard_normal(metric.dimension)
            y /= np.linalg.norm(y)
            out.append(TangentSample(x, y))
        return out


@dataclass(frozen=True)
class Claim:
    id: str
    metric: MetricSpec
    quantity: str
    target: dict = field(default_factory=lambda: {"kind": "zero"})
    tolerance: float = 1e-8
    tolerance_kind: str = "absolute"
    samples: SamplePlan = field(default_factory=SamplePlan)
    parameters: dict = field(default_factory=dict)
    reference: str = ""

    def __post_init__(self):
        if self.quantity not in _EVALUATORS:
            raise InvalidParameterError(f"unknown quantity {self.quantity!r}")
        kind = self.target.get("kind", "zero")
        if kind not in TARGET_KINDS:
            raise InvalidParameterError(f"unknown target kind {self.target!r}")
        if kind != "zero" and "value" not in self.target:
            raise InvalidParameterError(f"target kind {kind!r} needs a value")
        if self.tolerance <= 0.0:
            raise InvalidParameterError("tolerance must be positive")
        if self.tolerance_kind not in ("absolute", "relative"):
            raise InvalidParameterError(f"unknown tolerance_kind {self.tolerance_kind!r}")
        _check_keys(f"{self.quantity} parameter", self.parameters,
                    _PARAMETERS.get(self.quantity, ()),
                    required=("c",) if self.quantity == "closed_one_form" else ())

    @classmethod
    def from_dict(cls, data):
        _check_keys("claim", data, [f.name for f in fields(cls)],
                    required=("id", "metric", "quantity"))
        data = dict(data)
        metric = data.pop("metric")
        if isinstance(metric, dict):
            metric = MetricSpec.from_dict(metric)
        plan = data.pop("samples", {})
        if isinstance(plan, dict):
            _check_keys("sample plan", plan, [f.name for f in fields(SamplePlan)])
            plan = SamplePlan(**plan)
        if "tolerance" in data:
            data["tolerance"] = float(data["tolerance"])
        target = data.get("target")
        if isinstance(target, dict) and "value" in target:
            data["target"] = {**target, "value": float(target["value"])}
        return cls(metric=metric, samples=plan, **data)

    def to_dict(self):
        out = asdict(self)
        out["metric"] = self.metric.to_dict()
        return out


def _check_keys(what, data, known, required=()):
    """Reject a `what` record with a key not in `known`, or without a
    `required` one."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise InvalidParameterError(f"unknown {what} keys: {unknown}")
    missing = [k for k in required if k not in data]
    if missing:
        raise InvalidParameterError(f"{what} lacks keys: {missing}")


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    passed: bool
    count: int
    stats: dict
    worst_sample: dict
    tolerance: float
    seed: int
    runtime: float
    detail: str = ""

    def to_dict(self):
        return asdict(self)


def load_claims(path_or_stream):
    """Claims from a YAML document: a list of claim records."""
    own = isinstance(path_or_stream, (str, bytes))
    stream = open(path_or_stream) if own else path_or_stream
    try:
        data = yaml.safe_load(stream) or []
    finally:
        if own:
            stream.close()
    return [Claim.from_dict(rec) for rec in data]


# -- quantity evaluators ------------------------------------------------------
#
# An evaluator takes (metric, at, drawn, params).  `at` is one TangentSample,
# or, for the quantities in _STACKED, a stack of up to _CHUNK samples (see
# geometry.py), and the evaluator returns one value per sample.  `drawn` is
# what the quantity's draw function took from the claim's rng for each
# sample, stacked like `at`, or None for a quantity that draws nothing.

#: Samples per stack for the quantities in _STACKED.  Larger stacks cost
#: memory without running faster.
_CHUNK = 32


def _random_flag_pole(rng, n, y):
    while True:
        u = rng.standard_normal(n)
        u -= (u @ y) / (y @ y) * y
        if np.linalg.norm(u) > 1e-3:
            return u / np.linalg.norm(u)


def _draw_flag_pole(metric, at, rng, params):
    u = params.get("u")
    return _random_flag_pole(rng, metric.dimension, at.y) if u is None else np.asarray(u, float)


def _eval_flag_curvature(metric, at, u, params):
    return flag_curvature(metric, at, u)


def _eval_s_curvature(metric, at, drawn, params):
    return s_curvature(metric, at)


def _eval_s_ratio(metric, at, drawn, params):
    n = metric.dimension
    return s_curvature(metric, at) / ((n + 1) * float(metric.evaluate(at.x, at.y)))


def _eval_mean_cartan(metric, at, drawn, params):
    lg = local_geometry(metric, at, "I")
    return lg.conorm(lg.I)


def _eval_mean_landsberg(metric, at, drawn, params):
    lg = local_geometry(metric, at, "R")
    return lg.conorm(lg.J)


def _eval_cartan_orthogonality(metric, at, drawn, params):
    """|I_i y^i| scaled by ||I||_g F; zero by homogeneity."""
    lg = local_geometry(metric, at, "I")
    scale = lg.conorm(lg.I) * lg.F
    return np.abs(_dot(lg.I, at.y)) / np.maximum(scale, 1e-30)


def _geodesic_torsion(metric, at, params, t_span=(0.0, 1.5)):
    """Torsion trace along the geodesic from `at`, integrated over the
    claim's `t_span` (default as given) with its `nodes` and `ode_tol`."""
    trace = flow.integrate_geodesic(metric, at.x, at.y,
                                    tuple(params.get("t_span", t_span)),
                                    tol=params.get("ode_tol", 1e-10),
                                    nodes=int(params.get("nodes", 33)))
    return flow.torsion_trace(metric, trace, check_tol=None)


def _eval_sskk1(metric, at, drawn, params):
    """Max torsion-equation residual along a short geodesic, relative to
    the largest torsion norm on the trace."""
    tt = _geodesic_torsion(metric, at, params, t_span=(0.0, 1.0))
    scale = max(float(np.max(tt.phi_of_t)), 1e-30)
    return float(np.max(tt.residual_of_t)) / scale


def _factors(metric, at):
    """The factor metrics of a product metric, each with its part of `at`."""
    a1, a2 = metric.extras["factors"]
    n1 = a1.dimension
    return ((a1, TangentSample(at.x[..., :n1], at.y[..., :n1])),
            (a2, TangentSample(at.x[..., n1:], at.y[..., n1:])))


def _eval_det_identity(metric, at, drawn, params):
    """Relative error of det g against the product factorization."""
    (a1, at1), (a2, at2) = _factors(metric, at)
    g1 = fundamental_tensor(a1, at1).g
    g2 = fundamental_tensor(a2, at2).g
    p = metric.extras["profile"].partials(_vmv(at1.y, g1, at1.y), _vmv(at2.y, g2, at2.y))
    n1, n2 = a1.dimension, a2.dimension
    h = (p["f_s"] ** (n1 - 1) * p["f_t"] ** (n2 - 1)
         * (p["f_s"] * p["f_t"] - 2.0 * p["f"] * p["f_st"]))
    predicted = h * np.linalg.det(g1) * np.linalg.det(g2)
    actual = np.linalg.det(fundamental_tensor(metric, at).g)
    return np.abs(actual - predicted) / np.abs(actual)


def _eval_spray_split(metric, at, drawn, params):
    """Relative error of the product spray against the factor sprays."""
    G = local_geometry(metric, at, "G").G
    predicted = np.concatenate([local_geometry(a, part, "G").G
                                for a, part in _factors(metric, at)], axis=-1)
    scale = np.maximum(np.max(np.abs(predicted), axis=-1), 1.0)
    return np.max(np.abs(G - predicted), axis=-1) / scale


def _eval_riemann_annihilates_torsion(metric, at, drawn, params):
    """max(||R(I)||, |g(R(I), I)|) scaled by ||R|| ||I||; zero for products
    whose factor curvatures annihilate the factor torsion components."""
    lg = local_geometry(metric, at, "R")
    torsion = _mv(lg.g_inverse, lg.I)
    ri = _mv(lg.R, torsion)
    flat = lg.R.reshape(lg.R.shape[:-2] + (-1,))
    scale = np.maximum(np.sqrt(_dot(flat, flat)) * np.maximum(lg.conorm(lg.I), 1e-30), 1e-30)
    ri_norm = np.sqrt(np.maximum(_vmv(ri, lg.g, ri), 0.0))
    pairing = np.abs(_vmv(ri, lg.g, torsion))
    return np.maximum(ri_norm, pairing) / scale


def _eval_funk_pde(metric, at, drawn, params):
    """max_k |F_{x^k} - F F_{y^k}| for Funk-type metrics."""
    n = metric.dimension
    dirs = list(np.eye(2 * n))
    jets = seed(np.concatenate([at.x, at.y], axis=-1).T, dirs, 1)
    theta = metric.evaluate(jets[:n], jets[n:])
    th = extract(theta, (0,) * 2 * n)
    worst = 0.0
    for k in range(n):
        ex = tuple(1 if i == k else 0 for i in range(2 * n))
        ey = tuple(1 if i == n + k else 0 for i in range(2 * n))
        worst = np.maximum(worst, np.abs(extract(theta, ex) - th * extract(theta, ey)))
    return worst


def _draw_direction(metric, at, rng, params):
    d = rng.standard_normal(metric.dimension)
    return d / np.linalg.norm(d)


def _eval_berwald_quadratic(metric, at, d, params):
    """Deviation of G from y-quadratic: finite difference, in a random
    direction d, of the jet-exact y-Hessian of the spray.  Both ends of
    the difference share one bundle."""
    h = params.get("step", 1e-4)
    n = metric.dimension
    ends = np.stack([at.y + h * d, at.y - h * d]).reshape(-1, n)
    x = np.broadcast_to(at.x, (2,) + at.x.shape).reshape(-1, n)
    G_yy = local_geometry(metric, TangentSample(x, ends), "R").G_yy
    G_yy = G_yy.reshape((2,) + at.y.shape + (n, n))
    diff = (G_yy[0] - G_yy[1]) / (2.0 * h)
    return np.max(np.abs(diff), axis=(-3, -2, -1))


def _eval_phi_convexity(metric, at, drawn, params):
    """Largest violation of discrete phi'' >= 0 along a geodesic."""
    tt = _geodesic_torsion(metric, at, params)
    seconds = flow.phi_second_differences(tt, floor=params.get("floor", 1e-6))
    if seconds.size == 0:
        return 0.0
    return max(0.0, -float(np.min(seconds)))


def _eval_phi_constancy(metric, at, drawn, params):
    """Relative spread of phi along a geodesic (zero when phi is constant)."""
    phi = _geodesic_torsion(metric, at, params).phi_of_t
    return float(phi.max() - phi.min()) / max(float(phi.max()), 1e-30)


def _eval_cartan_bound(metric, at, drawn, params):
    """||I||_g minus the Randers bound (n+1)/sqrt(2) sqrt(1 - sqrt(1 - b^2))."""
    beta_norm = metric.extras.get("beta_norm")
    if beta_norm is None:
        raise InvalidParameterError(
            f"metric {metric.name} does not expose a drift-form norm")
    b = beta_norm(at.x)
    bound = (metric.dimension + 1) / np.sqrt(2.0) * np.sqrt(1.0 - np.sqrt(1.0 - b * b))
    # ||I_y|| is (-1)-homogeneous in y; the bound applies at F-unit vectors
    lg = local_geometry(metric, at, "I")
    return lg.F * lg.conorm(lg.I) - bound


def _draw_seed(metric, at, rng, params):
    return int(rng.integers(2 ** 31))


def _eval_closed_one_form(metric, at, seed_, params):
    """Worst residual of the almost-constant S-curvature test at a point."""
    rep = closed_one_form_check(metric, params["c"], SamplePlan(count=1, seed=seed_),
                                base_points=[at.x])
    return rep.stats["max"]


#: quantity -> (evaluator, draw), with draw None when it draws nothing
_EVALUATORS = {
    "flag_curvature": (_eval_flag_curvature, _draw_flag_pole),
    "s_curvature": (_eval_s_curvature, None),
    "s_curvature_ratio": (_eval_s_ratio, None),
    "mean_cartan": (_eval_mean_cartan, None),
    "mean_landsberg": (_eval_mean_landsberg, None),
    "cartan_orthogonality": (_eval_cartan_orthogonality, None),
    "sskk1_residual": (_eval_sskk1, None),
    "det_identity": (_eval_det_identity, None),
    "spray_split": (_eval_spray_split, None),
    "funk_pde": (_eval_funk_pde, None),
    "berwald_quadratic": (_eval_berwald_quadratic, _draw_direction),
    "phi_convexity": (_eval_phi_convexity, None),
    "phi_constancy": (_eval_phi_constancy, None),
    "closed_one_form": (_eval_closed_one_form, _draw_seed),
    "cartan_bound": (_eval_cartan_bound, None),
    "riemann_annihilates_torsion": (_eval_riemann_annihilates_torsion, None),
}

_GEODESIC = ("t_span", "ode_tol", "nodes")  # read by _geodesic_torsion

#: quantity -> the claim parameters it reads, none if it is not listed; a
#: claim may set no others
_PARAMETERS = {"flag_curvature": ("u",), "berwald_quadratic": ("step",),
               "closed_one_form": ("c",), "sskk1_residual": _GEODESIC,
               "phi_constancy": _GEODESIC, "phi_convexity": _GEODESIC + ("floor",)}

QUANTITIES = tuple(_EVALUATORS)

#: Quantities evaluated on stacks of samples.  The others, geodesics and
#: quadrature, take one sample at a time.
_STACKED = frozenset({"flag_curvature", "mean_cartan", "mean_landsberg",
                      "cartan_orthogonality", "det_identity", "spray_split",
                      "funk_pde", "berwald_quadratic", "cartan_bound",
                      "riemann_annihilates_torsion"})


# -- targets ------------------------------------------------------------------

def _deviation(observed, target, tolerance_kind):
    kind = target.get("kind", "zero")
    if kind == "zero":
        return abs(observed)
    ref = float(target["value"])
    if kind == "constant":
        dev = abs(observed - ref)
        return dev / max(abs(ref), 1e-30) if tolerance_kind == "relative" else dev
    return max(0.0, observed - ref)  # upper_bound


def run_claim(claim):
    """Evaluate one claim; errors are captured into a failed report."""
    start = time.perf_counter()
    seed_used = claim.samples.seed

    def failed(msg):
        return ClaimReport(claim_id=claim.id, passed=False, count=0, stats={},
                           worst_sample={}, tolerance=claim.tolerance,
                           seed=seed_used, runtime=time.perf_counter() - start,
                           detail=msg)

    try:
        metric = build_metric(claim.metric)
    except FinslerError as exc:
        return failed(f"metric construction failed: {exc}")
    rng = np.random.default_rng(seed_used + 1)
    evaluate, draw = _EVALUATORS[claim.quantity]
    params = claim.parameters
    samples = claim.samples.draw(metric)
    # every sample's rng-dependent input first, in sample order
    drawn = [draw(metric, at, rng, params) if draw else None for at in samples]
    chunk = _CHUNK if claim.quantity in _STACKED else 1
    values = []
    for first in range(0, len(samples), chunk):
        part, inputs = samples[first:first + chunk], drawn[first:first + chunk]
        if chunk > 1:
            stack = TangentSample(np.stack([at.x for at in part]),
                                  np.stack([at.y for at in part]))
            extra = None if draw is None else np.stack(inputs)
            try:
                values.extend(evaluate(metric, stack, extra, params))
                continue
            except FinslerError:
                pass  # one sample at a time below, to report the first that fails
        for at, extra in zip(part, inputs):
            try:
                values.append(float(evaluate(metric, at, extra, params)))
            except FinslerError as exc:
                return failed(f"evaluation failed at x={at.x}, y={at.y}: {exc}")
    values = np.asarray(values)
    kind = claim.target.get("kind", "zero")
    if kind == "exceeds":
        threshold = float(claim.target["value"])
        passed = bool(values.size) and float(values.max()) > threshold
        worst_idx = int(values.argmax()) if values.size else 0
        worst_dev = threshold - float(values.max()) if values.size else np.inf
    else:
        devs = np.array([_deviation(v, claim.target, claim.tolerance_kind)
                         for v in values])
        passed = bool(np.all(devs <= claim.tolerance)) if values.size else True
        worst_idx = int(devs.argmax()) if values.size else 0
        worst_dev = float(devs.max()) if values.size else 0.0
    stats = {}
    worst = {}
    if values.size:
        stats = {"min": float(values.min()), "max": float(values.max()),
                 "mean": float(values.mean()), "stddev": float(values.std())}
        at = samples[worst_idx]
        worst = {"x": at.x.tolist(), "y": at.y.tolist(),
                 "observed": float(values[worst_idx]), "deviation": worst_dev}
    return ClaimReport(claim_id=claim.id, passed=passed, count=len(values),
                       stats=stats, worst_sample=worst, tolerance=claim.tolerance,
                       seed=seed_used, runtime=time.perf_counter() - start)


def closed_one_form_check(metric, c, samples=None, tol=1e-3, base_points=None):
    """Test S(x, y) = (n+1) c F(x, y) + gamma_x(y) with gamma a closed 1-form.

    gamma is fitted as a linear form in y over max(2n, 6) unit directions;
    the fit residual checks linearity, and antisymmetry of the x-Jacobian
    of the fitted coefficients (central differences, step 1e-4) checks
    closedness.  The reported statistic is the worse of the two residuals
    per base point.
    """
    step = 1e-4
    start = time.perf_counter()
    samples = samples or SamplePlan(count=10)
    n = metric.dimension
    rng = np.random.default_rng(samples.seed + 2)
    dirs = rng.standard_normal((max(2 * n, 6), n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    if base_points is None:
        base_points = [metric.domain.sample_interior(rng, margin=samples.margin)
                       for _ in range(samples.count)]

    def gamma_coeffs(x):
        g = np.array([s_curvature(metric, TangentSample(x, d))
                      - (n + 1) * c * float(metric.evaluate(x, d)) for d in dirs])
        coeff, res, rank, _ = np.linalg.lstsq(dirs, g, rcond=None)
        if rank < n:
            raise InvalidParameterError("direction set is rank-deficient")
        resid = float(np.max(np.abs(dirs @ coeff - g)))
        return coeff, resid, float(np.max(np.abs(g)))

    residuals = []
    worst = {}
    for x in base_points:
        coeff0, lin_resid, g_scale = gamma_coeffs(np.asarray(x, float))
        scale = max(g_scale, 1.0)
        jac = np.empty((n, n))
        for m in range(n):
            e = np.zeros(n)
            e[m] = step
            cp, rp, sp = gamma_coeffs(np.asarray(x, float) + e)
            cm, rm, sm = gamma_coeffs(np.asarray(x, float) - e)
            jac[:, m] = (cp - cm) / (2.0 * step)
            lin_resid = max(lin_resid, rp, rm)
            scale = max(scale, sp, sm)
        closed_resid = float(np.max(np.abs(jac - jac.T)))
        total = max(lin_resid, closed_resid) / scale
        residuals.append(total)
        if not worst or total >= max(residuals):
            worst = {"x": np.asarray(x, float).tolist(), "observed": total,
                     "deviation": total,
                     "linearity": lin_resid / scale, "closedness": closed_resid / scale}
    residuals = np.asarray(residuals)
    passed = bool(np.all(residuals <= tol))
    stats = {"min": float(residuals.min()), "max": float(residuals.max()),
             "mean": float(residuals.mean()), "stddev": float(residuals.std())}
    return ClaimReport(claim_id=f"closed_one_form[{metric.name}]", passed=passed,
                       count=len(residuals), stats=stats, worst_sample=worst,
                       tolerance=tol, seed=samples.seed,
                       runtime=time.perf_counter() - start)


def run_suite(claims, parallelism=1):
    """Run claims (possibly in parallel) and merge reports by claim id."""
    if parallelism > 1 and len(claims) > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            reports = list(pool.map(run_claim, claims))
    else:
        reports = [run_claim(c) for c in claims]
    reports.sort(key=lambda r: r.claim_id)
    return SuiteReport(reports=reports)


@dataclass(frozen=True)
class SuiteReport:
    reports: list

    @property
    def passed(self):
        return all(r.passed for r in self.reports)

    @property
    def exit_status(self):
        return 0 if self.passed else 1

    def failures(self):
        return [r for r in self.reports if not r.passed]

    def to_json(self, include_runtime=True):
        recs = []
        for r in self.reports:
            d = r.to_dict()
            if not include_runtime:
                d.pop("runtime")
            recs.append(d)
        return json.dumps({"passed": self.passed, "claims": recs},
                          indent=2, sort_keys=True)

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["claim_id", "passed", "count", "min", "max", "mean",
                         "stddev", "worst_deviation", "tolerance", "seed",
                         "runtime"])
        for r in self.reports:
            writer.writerow([
                r.claim_id, r.passed, r.count,
                r.stats.get("min", ""), r.stats.get("max", ""),
                r.stats.get("mean", ""), r.stats.get("stddev", ""),
                r.worst_sample.get("deviation", ""), r.tolerance, r.seed,
                f"{r.runtime:.3f}",
            ])
        return buf.getvalue()
