"""Each shared read-out against the spellings it replaced.

The g-norm, the power series of jsqrt and jpow, the two conformal space
forms and the density slope's gradient were each written out in several
places.  The spellings below are those, kept verbatim, and each test checks
bit for bit, on every default zoo kind at 6 samples alone and as one stack,
that the one shared spelling computes what they computed.
"""

import numpy as np
import pytest

from finslerkit import flow, geometry, verify, zoo
from finslerkit.geometry import TangentSample, _mv, _scalar, _vmv, local_geometry
from finslerkit.jets import Jet, deriv, hessian, jpow, jsqrt, seed
from finslerkit.quadrature import sphere_rule

SPECS = {spec.kind: spec for spec in zoo.default_specs()}

R_FIELDS = ("F", "g", "g_inverse", "G", "N", "G_yy", "G_x", "G_xy", "R", "I", "J")


def _samples(metric, seed=41):
    """A stack of 6 samples, then each of them alone."""
    rng = np.random.default_rng(seed)
    x = np.array([metric.domain.sample_interior(rng, margin=0.05) for _ in range(6)])
    at = TangentSample(x, rng.standard_normal(x.shape))
    return [at] + [TangentSample(x1, y1) for x1, y1 in zip(at.x, at.y)]


def _same(got, want, what=""):
    assert type(got) is type(want), what
    a, b = np.asarray(got), np.asarray(want)
    assert a.shape == b.shape and a.tobytes() == b.tobytes(), what


def _same_fields(metric, reference, at):
    got = local_geometry(metric, at, "R")
    want = local_geometry(reference, at, "R")
    for name in R_FIELDS:
        _same(getattr(got, name), getattr(want, name), name)


# -- the g-norm -------------------------------------------------------------------

def _ref_record_norm(v, a):
    """FundamentalTensor.norm and LocalGeometry.conorm, which were each
    spelled this way."""
    return _scalar(np.sqrt(np.maximum(_vmv(v, a, v), 0.0)))


def _ref_phi(lg):
    """torsion_trace's phi."""
    I = _mv(lg.g_inverse, lg.I)
    return np.sqrt(np.maximum(_vmv(I, lg.g, I), 0.0))


def _ref_riemann_annihilates_torsion(metric, at):
    lg = local_geometry(metric, at, "R")
    torsion = _mv(lg.g_inverse, lg.I)
    ri = _mv(lg.R, torsion)
    flat = lg.R.reshape(lg.R.shape[:-2] + (-1,))
    scale = np.maximum(np.sqrt(verify._dot(flat, flat))
                       * np.maximum(_ref_record_norm(lg.I, lg.g_inverse), 1e-30), 1e-30)
    ri_norm = np.sqrt(np.maximum(_vmv(ri, lg.g, ri), 0.0))
    pairing = np.abs(_vmv(ri, lg.g, torsion))
    return np.maximum(ri_norm, pairing) / scale


def _ref_cartan_bound(metric, at):
    b = metric.extras["beta_norm"](at.x)
    bound = (metric.dimension + 1) / np.sqrt(2.0) * np.sqrt(1.0 - np.sqrt(1.0 - b * b))
    lg = local_geometry(metric, at, "I")
    return lg.F * _ref_record_norm(lg.I, lg.g_inverse) - bound


@pytest.mark.parametrize("kind", SPECS)
def test_g_norms_match_their_spellings(kind):
    metric = zoo.build_metric(SPECS[kind])
    for at in _samples(metric):
        lg = local_geometry(metric, at, "R")
        u = at.y[..., ::-1] + 0.25
        ft = geometry.fundamental_tensor(metric, at)
        _same(ft.norm(u), _ref_record_norm(u, ft.g))
        for covector in (lg.I, lg.J):
            _same(lg.conorm(covector), _ref_record_norm(covector, lg.g_inverse))
        _same(verify._eval_riemann_annihilates_torsion(metric, at, None, {}),
              _ref_riemann_annihilates_torsion(metric, at))
        if "beta_norm" in metric.extras:
            _same(verify._eval_cartan_bound(metric, at, None, {}),
                  _ref_cartan_bound(metric, at))
    # torsion_trace's phi on the stack's 6 points as trace nodes, and each alone
    stack, *alone = _samples(metric)
    trace = flow.GeodesicTrace(times=flow.chebyshev_nodes(0.0, 1.0, 6), positions=stack.x,
                               velocities=stack.y, speed_drift=0.0)
    phi = flow.torsion_trace(metric, trace, check_tol=None).phi_of_t
    _same(phi, _ref_phi(local_geometry(metric, stack, "R")))
    for k, at in enumerate(alone):
        _same(phi[k], _ref_phi(local_geometry(metric, at, "R")))


# -- the power series -------------------------------------------------------------

def _ref_jsqrt(x):
    if not isinstance(x, Jet):
        return np.sqrt(x)
    v = x.value
    series = [np.sqrt(v)]
    for k in range(1, x.order + 1):
        series.append(series[-1] * (0.5 - (k - 1)) / (k * v))
    return x._compose(series)


def _ref_jpow(x, exponent):
    v = x.value
    series = [np.power(v, exponent)]
    for k in range(1, x.order + 1):
        series.append(series[-1] * (exponent - (k - 1)) / (k * v))
    return x._compose(series)


@pytest.mark.parametrize("kind", SPECS)
def test_jsqrt_matches_its_series_in_every_metric(kind, monkeypatch):
    """Every zoo kind takes a square root; the metric evaluated through the
    old series gives every need-"R" field bit for bit."""
    metric = zoo.build_metric(SPECS[kind])
    for at in _samples(metric):
        got = local_geometry(metric, at, "R")
        with monkeypatch.context() as patch:
            patch.setattr(zoo, "jsqrt", _ref_jsqrt)
            want = local_geometry(metric, at, "R")
        for name in R_FIELDS:
            _same(getattr(got, name), getattr(want, name), name)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_jsqrt_and_jpow_match_their_series(order):
    rng = np.random.default_rng(order)
    point = 0.5 + rng.random((3, 7))
    for x in seed(point, list(rng.standard_normal((3, 3))), order):
        _same(jsqrt(x).coeffs, _ref_jsqrt(x).coeffs)
        for exponent in (0.5, 1.5, -1.7, np.float64(2.5)):
            _same(jpow(x, exponent).coeffs, _ref_jpow(x, exponent).coeffs)


# -- the conformal space forms ---------------------------------------------------

def _ref_make_riemannian(model="flat", dimension=2):
    dom = zoo.Box(-10.0 * np.ones(dimension), 10.0 * np.ones(dimension))
    if model == "flat":
        def qform(x, y):
            return zoo._dot(y, y)
    elif model == "sphere":
        def qform(x, y):  # stereographic chart of the unit sphere
            c = 1.0 + zoo._dot(x, x)
            return 4.0 * zoo._dot(y, y) / (c * c)
    else:
        dom = zoo.Ball(dimension)

        def qform(x, y):  # Poincare disk
            c = 1.0 - zoo._dot(x, x)
            return 4.0 * zoo._dot(y, y) / (c * c)
    return geometry.MetricField(
        dimension=dimension, domain=dom, evaluate=lambda x, y: jsqrt(qform(x, y)),
        name=f"riemannian[{model}]", spec=zoo.MetricSpec("riemannian", dimension,
                                                         {"model": model}),
        extras={"quadratic_form": qform})


SPACE_FORMS = {**SPECS,
               "sphere-2": zoo.MetricSpec("riemannian", 2, {"model": "sphere"}),
               "sphere-3": zoo.MetricSpec("riemannian", 3, {"model": "sphere"}),
               "randers-sphere": zoo.MetricSpec("randers", 2, {"model": "sphere",
                                                               "b": [0.004, 0.0]}),
               "randers-disk": zoo.MetricSpec("randers", 2, {"model": "hyperbolic_disk",
                                                             "b": [0.1, 0.05]})}


@pytest.mark.parametrize("name", SPACE_FORMS)
def test_space_forms_match_their_two_closures(name, monkeypatch):
    """Every kind built on make_riemannian (the products' disk factor, the
    Randers models, the flat norms) as built on the sphere and disk
    closures, which also keep their own domains."""
    metric = zoo.build_metric(SPACE_FORMS[name])
    with monkeypatch.context() as patch:
        patch.setattr(zoo, "make_riemannian", _ref_make_riemannian)
        reference = zoo.build_metric(SPACE_FORMS[name])
    draws = []
    for domain in (metric.domain, reference.domain):
        rng = np.random.default_rng(43)
        draws.append(np.array([domain.sample_interior(rng, margin=margin)
                               for margin in (0.0, 0.05, 0.2) for _ in range(5)]))
    assert type(metric.domain) is type(reference.domain)
    _same(*draws)
    for at in _samples(reference):
        _same_fields(metric, reference, at)


# -- the density slope's gradient -------------------------------------------------

def _ref_density_slope(metric, x, y, points, weights, jacobian=False):
    n, order = metric.dimension, 2 if jacobian else 1
    fj = metric.evaluate(seed(x, list(np.eye(n)), order), list(points.T))
    if not isinstance(fj, Jet):  # metric independent of x
        fj = Jet.constant(fj, n, order)
    fvals = fj.value
    grad = np.stack([deriv(fj, d).value for d in range(n)])
    ball = weights * fvals ** (-n)
    denom = float(np.sum(ball)) / n
    w = ball / (denom * fvals)
    v = np.sum(grad * w, axis=-1)
    slope = np.sum(y * v, axis=-1)
    if not jacobian:
        return slope
    hess = hessian(fj, range(n)).value
    dv = (np.einsum("p,pkm->km", w, hess)
          - (n + 1) * np.einsum("kp,mp->km", grad * (w / fvals), grad) + np.outer(v, v))
    return slope, y @ dv


@pytest.mark.parametrize("kind", SPECS)
def test_density_slope_matches_the_stacked_partials(kind):
    """The slope and its x-gradient at one y and at a stack of 6, on the
    level-0 rule and the level-1 rule the tolerance check reads."""
    metric = zoo.build_metric(SPECS[kind])
    stack, first, *_ = _samples(metric)
    for level, (x, y) in ((0, (first.x, first.y)), (1, (first.x, first.y)),
                          (0, (stack.x[0], stack.y))):
        rule = sphere_rule(metric.dimension, level)
        for jacobian in (False, True):
            got = geometry._density_slope(metric, x, y, *rule, jacobian=jacobian)
            want = _ref_density_slope(metric, x, y, *rule, jacobian=jacobian)
            for a, b in zip(got, want) if jacobian else [(got, want)]:
                _same(a, b)
