"""Declarative verification: claims as data, sampled checks, reports.

A Claim names a metric, a quantity, a target, a tolerance, and a sampling
plan.  run_claim evaluates the quantity over the plan and compares against
the target; run_suite executes many claims with deterministic aggregation.
Each quantity is declared once, in _QUANTITIES.  A malformed claim raises
InvalidParameterError when it is built (its own, metric, sample plan and
target records all pass errors._check_keys); metric constructor or geometry
errors become failed reports, never crashes.

run_claim first draws every sample's random input (a flag pole, a
Berwald comparison direction, closed-1-form fit directions) in sample
order, then evaluates stacked quantities on stacks of up to _CHUNK
samples, one bundle per stack.  The report is the one a sample-by-sample
loop gives: a stack that fails is evaluated again one sample at a time,
so the first failing sample is the one named.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from itertools import groupby

import numpy as np
import yaml

from .errors import (FinslerError, InvalidParameterError, _check_keys, _integer, _number,
                     _vector)
from .geometry import (TangentSample, _density_slope, _dot, _gnorm, _mv, _norm_at, _phase_jets,
                       _vmv, flag_curvature, fundamental_tensor, local_geometry, s_curvature)
from .jets import partials
from .quadrature import on_sphere
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

    def __post_init__(self):
        object.__setattr__(self, "count", _integer("sample count", self.count, least=1))
        object.__setattr__(self, "margin",
                           _number("sample margin", self.margin, least=0.0, below=1.0))
        object.__setattr__(self, "seed", _integer("sample seed", self.seed, least=0))

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
        if not isinstance(self.id, str) or not self.id:
            raise InvalidParameterError(f"claim id must be a non-empty string, not {self.id!r}")
        for name, record in (("metric", MetricSpec), ("samples", SamplePlan)):
            if not isinstance(getattr(self, name), record):
                raise InvalidParameterError(
                    f"claim {name} must be a {record.__name__}, not {getattr(self, name)!r}")
        _integer("claim metric dimension", self.metric.dimension, least=2)
        quantity = _QUANTITIES.get(self.quantity)
        if quantity is None:
            raise InvalidParameterError(f"unknown quantity {self.quantity!r}")
        _check_keys("target", self.target, ("kind", "value"))
        kind = self.target.get("kind", "zero")
        if kind not in TARGET_KINDS:
            raise InvalidParameterError(f"unknown target kind {self.target!r}")
        if kind != "zero" and "value" not in self.target:
            raise InvalidParameterError(f"target kind {kind!r} needs a value")
        if "value" in self.target:
            object.__setattr__(self, "target", {
                **self.target, "value": _number("target value", self.target["value"])})
        object.__setattr__(self, "tolerance", _number("tolerance", self.tolerance, above=0.0))
        if self.tolerance_kind not in ("absolute", "relative"):
            raise InvalidParameterError(f"unknown tolerance_kind {self.tolerance_kind!r}")
        if self.tolerance_kind == "relative" and kind != "constant":
            raise InvalidParameterError(
                f"tolerance_kind 'relative' needs a constant target, not {kind!r}")
        what = f"{self.quantity} parameter"
        _check_keys(what, self.parameters, quantity.parameters, quantity.required)
        object.__setattr__(self, "parameters", {k: quantity.parameters[k](
            f"{what} {k}", v, self.metric.dimension) for k, v in self.parameters.items()})

    @classmethod
    def from_dict(cls, data):
        _check_keys("claim", data, [f.name for f in fields(cls)],
                    required=("id", "metric", "quantity"))
        plan = data.get("samples", {})
        _check_keys("sample plan", plan, [f.name for f in fields(SamplePlan)])
        return cls(**{**data, "metric": MetricSpec.from_dict(data["metric"]),
                      "samples": SamplePlan(**plan)})

    def to_dict(self):
        out = asdict(self)
        out["metric"] = self.metric.to_dict()
        return out


def _real(what, value, n):
    return _number(what, value)


def _nodes(what, value, n):
    """A trace's node count, at least 2 as integrate_geodesic needs."""
    return _integer(what, value, least=2)


def _ode_tol(what, value, n):
    """A solver tolerance in (0, 1), as the flow's solves need."""
    return _number(what, value, above=0.0, below=1.0)


def _numbers(count=None):
    """A converter to a list of `count` numbers, n when count is None."""
    def convert(what, value, n):
        return _vector(what, value, n if count is None else count).tolist()
    return convert


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
    """Claims from a YAML document: a list of claim records.  A document
    that is not YAML raises InvalidParameterError, from yaml's error."""
    try:
        if isinstance(path_or_stream, (str, bytes)):
            with open(path_or_stream) as stream:
                data = yaml.safe_load(stream)
        else:
            data = yaml.safe_load(path_or_stream)
    except yaml.YAMLError as exc:
        raise InvalidParameterError(f"claim file is not YAML: {exc}") from exc
    if not isinstance(data, (list, dict)):  # a scalar document is one record
        data = [] if data is None else [data]
    return [Claim.from_dict(rec) for rec in data]


# -- quantities ---------------------------------------------------------------

#: Samples per stack for the stacked quantities.  A szabo_epsilon need-"R"
#: bundle reading R and J took 513 µs a row alone, and 138, 107, 100 and
#: 96 µs a row in stacks of 32, 64, 100 and 128 (best of 7, 2-core Xeon,
#: numpy 2.4), while the tracemalloc peak of a flag-curvature stack grows
#: with the stack: 1.1, 2.2 and 3.4 MB at 32, 64 and 100.  At 64 every
#: shipped stacked claim but the 100-sample one is one stack, for about
#: 2 MB a stack.
_CHUNK = 64


@dataclass(frozen=True)
class _Quantity:
    """What run_claim knows of a quantity.

    evaluate(metric, at, drawn, params) takes one TangentSample `at`, or for
    a `stacked` quantity a stack of up to _CHUNK samples (see geometry.py),
    and returns one value per sample.  `drawn` is what draw(metric, at, rng,
    params) took from the claim's rng for each sample, stacked like `at`, or
    None when `draw` is None.  `parameters` maps each claim parameter the
    quantity reads (a claim may set no others) to its converter, and
    `required` names those it needs.  convert(what, value, n), n the metric
    dimension, returns the value read or raises InvalidParameterError.
    Geodesic and quadrature quantities take one sample at a time.
    """

    evaluate: object
    draw: object = None
    parameters: dict = field(default_factory=dict)
    required: tuple = ()
    stacked: bool = False


def _draw_flag_pole(metric, at, rng, params):
    """The claim's `u`, or a random unit vector off y."""
    if "u" in params:
        return np.asarray(params["u"], float)
    y = at.y
    while True:
        u = rng.standard_normal(metric.dimension)
        u -= (u @ y) / (y @ y) * y
        if np.linalg.norm(u) > 1e-3:
            return u / np.linalg.norm(u)


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
    claim's `t_span` (default as given) with its `nodes` and `ode_tol`:
    the parameters _along_geodesic declares."""
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
    ri_norm = _gnorm(ri, lg.g)
    pairing = np.abs(_vmv(ri, lg.g, torsion))
    return np.maximum(ri_norm, pairing) / scale


def _eval_funk_pde(metric, at, drawn, params):
    """max_k |F_{x^k} - F F_{y^k}| for Funk-type metrics."""
    n = metric.dimension
    f = _phase_jets(metric, at.x, at.y, 1)[0]
    d = partials(f, range(2 * n)).value  # [..., k]: F_{x^k}, then F_{y^k}
    return np.max(np.abs(d[..., :n] - f.value[..., None] * d[..., n:]), axis=-1)


def _draw_direction(metric, at, rng, params):
    d = rng.standard_normal(metric.dimension)
    return d / np.linalg.norm(d)


def _eval_berwald_quadratic(metric, at, d, params):
    """Deviation of G from y-quadratic: max |G_yy(x, y) - G_yy(x, d)| of the
    jet-exact y-Hessian of the spray, d a random unit direction.  G is
    y-quadratic exactly when G_yy(x, .) is constant.  Both directions
    share one bundle."""
    n = metric.dimension
    ys = np.stack([at.y, d]).reshape(-1, n)
    x = np.broadcast_to(at.x, (2,) + at.x.shape).reshape(-1, n)
    G_yy = local_geometry(metric, TangentSample(x, ys), "R").G_yy
    G_yy = G_yy.reshape((2,) + at.y.shape + (n, n))
    return np.max(np.abs(G_yy[0] - G_yy[1]), axis=(-3, -2, -1))


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
    return _norm_at(metric, at.x, at.y) - bound


def _fit_directions(rng, n):
    """max(2n, 6) unit directions for the closed-1-form fit."""
    dirs = rng.standard_normal((max(2 * n, 6), n))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _draw_fit_directions(metric, at, rng, params):
    return _fit_directions(np.random.default_rng(int(rng.integers(2 ** 31)) + 2),
                           metric.dimension)


def _eval_closed_one_form(metric, at, dirs, params):
    """Worst residual of the almost-constant S-curvature test at a point."""
    return _closed_one_form_residual(metric, params["c"], at.x, dirs)[0]


def _along_geodesic(evaluate, **parameters):
    """A quantity read off _geodesic_torsion, with its parameters."""
    return _Quantity(evaluate, parameters={"t_span": _numbers(2), "ode_tol": _ode_tol,
                                           "nodes": _nodes, **parameters})


_QUANTITIES = {
    "flag_curvature": _Quantity(lambda metric, at, u, params: flag_curvature(metric, at, u),
                                _draw_flag_pole, {"u": _numbers()}, stacked=True),
    "s_curvature": _Quantity(lambda metric, at, drawn, params: s_curvature(metric, at)),
    "s_curvature_ratio": _Quantity(_eval_s_ratio),
    "mean_cartan": _Quantity(_eval_mean_cartan, stacked=True),
    "mean_landsberg": _Quantity(_eval_mean_landsberg, stacked=True),
    "cartan_orthogonality": _Quantity(_eval_cartan_orthogonality, stacked=True),
    "sskk1_residual": _along_geodesic(_eval_sskk1),
    "det_identity": _Quantity(_eval_det_identity, stacked=True),
    "spray_split": _Quantity(_eval_spray_split, stacked=True),
    "funk_pde": _Quantity(_eval_funk_pde, stacked=True),
    "berwald_quadratic": _Quantity(_eval_berwald_quadratic, _draw_direction,
                                   stacked=True),
    "phi_convexity": _along_geodesic(_eval_phi_convexity, floor=_real),
    "phi_constancy": _along_geodesic(_eval_phi_constancy),
    "closed_one_form": _Quantity(_eval_closed_one_form, _draw_fit_directions,
                                 {"c": _real}, required=("c",)),
    "cartan_bound": _Quantity(_eval_cartan_bound, stacked=True),
    "riemann_annihilates_torsion": _Quantity(_eval_riemann_annihilates_torsion,
                                             stacked=True),
}


# -- reports ------------------------------------------------------------------

def _report(claim_id, passed, values, worst, tolerance, seed, start, detail=""):
    """The report on `values`, with their min, max, mean and stddev."""
    values = np.asarray(values, dtype=float)
    stats = {}
    if values.size:
        stats = {"min": float(values.min()), "max": float(values.max()),
                 "mean": float(values.mean()), "stddev": float(values.std())}
    return ClaimReport(claim_id=claim_id, passed=passed, count=values.size, stats=stats,
                       worst_sample=worst, tolerance=tolerance, seed=seed,
                       runtime=time.perf_counter() - start, detail=detail)


def run_claim(claim):
    """Evaluate one claim; errors are captured into a failed report."""
    start = time.perf_counter()
    seed_used = claim.samples.seed

    def failed(detail):
        return _report(claim.id, False, [], {}, claim.tolerance, seed_used, start, detail)

    try:
        metric = build_metric(claim.metric)
    except FinslerError as exc:
        return failed(f"metric construction failed: {exc}")
    rng = np.random.default_rng(seed_used + 1)
    quantity, params = _QUANTITIES[claim.quantity], claim.parameters
    evaluate, draw = quantity.evaluate, quantity.draw
    samples = claim.samples.draw(metric)
    # every sample's rng-dependent input first, in sample order
    drawn = [draw(metric, at, rng, params) if draw else None for at in samples]
    chunk = _CHUNK if quantity.stacked else 1
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
    ref = 0.0 if kind == "zero" else float(claim.target["value"])
    if kind == "exceeds":
        passed = float(values.max()) > ref
        worst_idx = int(values.argmax())
        worst_dev = ref - float(values.max())
    else:
        relative = kind == "constant" and claim.tolerance_kind == "relative"
        over = values - ref
        devs = (np.where(over > 0.0, over, 0.0) if kind == "upper_bound"
                else np.abs(over) / (max(abs(ref), 1e-30) if relative else 1.0))
        passed = bool(np.all(devs <= claim.tolerance))
        worst_idx = int(devs.argmax())
        worst_dev = float(devs.max())
    at = samples[worst_idx]
    worst = {"x": at.x.tolist(), "y": at.y.tolist(),
             "observed": float(values[worst_idx]), "deviation": worst_dev}
    return _report(claim.id, passed, values, worst, claim.tolerance, seed_used, start)


def _gamma_fit(metric, c, x, dirs):
    """gamma(y) = S(x, y) - (n+1) c F(x, y) at the unit directions `dirs`,
    and the least-squares fit of gamma and its x-gradient as linear forms
    in y: coeff[:, 0] are gamma's coefficients, coeff[i, 1 + m] their
    d/dx^m.  One need-"R" bundle over `dirs` gives tr N, F and their
    x-gradients, one sphere pass the density slope and its x-gradient."""
    n = metric.dimension
    lg = local_geometry(metric, TangentSample(np.broadcast_to(x, dirs.shape), dirs), "R")
    slope, slope_x = on_sphere(n, lambda points, weights: _density_slope(
        metric, x, dirs, points, weights, jacobian=True))
    gamma = np.trace(lg.N, axis1=-2, axis2=-1) - slope - (n + 1) * c * lg.F
    gamma_x = (np.einsum("...iki->...k", lg.G_xy) - slope_x
               - (n + 1) * c * partials(lg.f, range(n)).value)
    coeff, _, rank, _ = np.linalg.lstsq(dirs, np.column_stack([gamma, gamma_x]), rcond=None)
    if rank < n:
        raise InvalidParameterError("direction set is rank-deficient")
    return gamma, coeff


def _closed_one_form_residual(metric, c, x, dirs):
    """Residuals at x of S(x, y) = (n+1) c F(x, y) + gamma_x(y) with gamma a
    closed 1-form, relative to max |gamma| or 1: (the worse of the two,
    linearity, closedness).  The residual of _gamma_fit measures linearity,
    the antisymmetric part of the coefficients' x-Jacobian closedness."""
    gamma, coeff = _gamma_fit(metric, c, x, dirs)
    scale = max(float(np.max(np.abs(gamma))), 1.0)
    linearity = float(np.max(np.abs(dirs @ coeff[:, 0] - gamma))) / scale
    closedness = float(np.max(np.abs(coeff[:, 1:] - coeff[:, 1:].T))) / scale
    return max(linearity, closedness), linearity, closedness


def closed_one_form_check(metric, c, samples=None, tol=1e-3):
    """_closed_one_form_residual at the plan's base points (10 by default),
    with max(2n, 6) fit directions; it passes if every residual is at most
    `tol`.  Each point costs one need-"R" bundle over the fit directions
    and one sphere pass; no derivative is taken by finite differences.  A
    `c` that is not a finite number, a `tol` that is not positive and
    finite, or `samples` that is neither a SamplePlan nor None raises
    InvalidParameterError."""
    start = time.perf_counter()
    c = _number("closed_one_form_check: c", c)
    tol = _number("closed_one_form_check: tol", tol, above=0.0)
    samples = SamplePlan(count=10) if samples is None else samples
    if not isinstance(samples, SamplePlan):
        raise InvalidParameterError(
            f"closed_one_form_check: samples must be a SamplePlan or None, not {samples!r}")
    rng = np.random.default_rng(samples.seed + 2)
    dirs = _fit_directions(rng, metric.dimension)
    residuals, worst = [], {}
    for _ in range(samples.count):
        x = metric.domain.sample_interior(rng, margin=samples.margin)
        total, linearity, closedness = _closed_one_form_residual(metric, c, x, dirs)
        residuals.append(total)
        if not worst or total >= max(residuals):
            worst = {"x": np.asarray(x, float).tolist(), "observed": total,
                     "deviation": total, "linearity": linearity, "closedness": closedness}
    return _report(f"closed_one_form[{metric.name}]", all(r <= tol for r in residuals),
                   residuals, worst, tol, samples.seed, start)


def run_suite(claims, parallelism=1):
    """Run claims (possibly in parallel), one report each, sorted by claim
    id.  Claims that share an id, or a `parallelism` that is not an integer
    of at least 1, raise InvalidParameterError before any claim runs."""
    parallelism = _integer("parallelism", parallelism, least=1)
    repeated = [i for i, same in groupby(sorted(c.id for c in claims)) if len(list(same)) > 1]
    if repeated:
        raise InvalidParameterError(f"claim ids must be unique; repeated: {repeated}")
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
        recs = [{k: v for k, v in r.to_dict().items() if include_runtime or k != "runtime"}
                for r in self.reports]
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
