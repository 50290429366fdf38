"""Constructors for every concrete metric the harness verifies.

All constructors return immutable `MetricField` values whose `evaluate`
works over plain numbers, batched numpy arrays, and jets, so curvature
derivations can differentiate straight through them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .domains import Ball, Box, DiskCylinder, Domain, ProductDomain
from .errors import (ImplicitSolveError, InvalidParameterError, InvalidProfileError,
                     _check_keys, _integer, _number, _vector)
from .geometry import MetricField
from .jets import Jet, deriv, extract, hessian, jsqrt, jwhere, seed, value

def _dot(u, v):
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


# -- metric specification ----------------------------------------------------

@dataclass(frozen=True)
class MetricSpec:
    """Serializable description of a zoo metric."""

    kind: str
    dimension: int
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameterError(f"unknown metric kind {self.kind!r}")
        if not isinstance(self.parameters, dict):
            raise InvalidParameterError(
                f"metric spec parameters must be a mapping, not {self.parameters!r}")
        object.__setattr__(self, "dimension",
                           _integer("metric dimension", self.dimension, least=1))

    def to_dict(self):
        return {"kind": self.kind, "dimension": int(self.dimension),
                "parameters": _plain(self.parameters)}

    @classmethod
    def from_dict(cls, data):
        _check_keys("metric spec", data, ("kind", "dimension", "parameters"),
                    required=("kind", "dimension"))
        return cls(**data)

    def to_yaml(self):
        return yaml.safe_dump(self.to_dict(), sort_keys=False)

    @classmethod
    def from_yaml(cls, text):
        return cls.from_dict(yaml.safe_load(text))


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


# -- simple norms and Riemannian models --------------------------------------

def make_euclidean(dimension=2):
    """The flat riemannian metric |y| under its own kind name."""
    return replace(make_riemannian("flat", dimension), name="euclidean",
                   spec=MetricSpec("euclidean", dimension))


def make_minkowski(dimension=2, b=None):
    """Locally Minkowski (x-independent) Randers-type norm |y| + <b, y>: the
    flat randers metric under its own kind name."""
    dimension = _integer("dimension", dimension, least=1)
    b = _vector("b", b, dimension, lead=0.4, unit_ball=True)
    return replace(make_randers("flat", dimension, b), name="minkowski",
                   spec=MetricSpec("minkowski", dimension, {"b": b}))


RIEMANN_MODELS = ("flat", "sphere", "hyperbolic_disk")


def make_riemannian(model="flat", dimension=2):
    """F = sqrt(a_ij(x) y^i y^j) for a named space form: the flat metric, the
    round sphere in its stereographic chart, or the Poincare disk.  A metric
    of one's own goes in as a MetricField."""
    dimension = _integer("dimension", dimension, least=1)
    if model not in RIEMANN_MODELS:
        raise InvalidParameterError(f"unknown Riemannian model {model!r}")
    dom = (Ball(dimension) if model == "hyperbolic_disk"
           else Box(-10.0 * np.ones(dimension), 10.0 * np.ones(dimension)))
    if model == "flat":
        def qform(x, y):
            return _dot(y, y)
    else:  # 4|y|^2 / (1 +- |x|^2)^2: the sphere's stereographic chart or the Poincare disk
        bend = operator.add if model == "sphere" else operator.sub

        def qform(x, y):
            c = bend(1.0, _dot(x, x))
            return 4.0 * _dot(y, y) / (c * c)
    spec = MetricSpec("riemannian", dimension, {"model": model})
    return MetricField(
        dimension=dimension,
        domain=dom,
        evaluate=lambda x, y: jsqrt(qform(x, y)),
        name=f"riemannian[{model}]",
        spec=spec,
        extras={"quadratic_form": qform},
    )


def _half_hessian(qform, x, n):
    """a_ij = 1/2 d^2 q / dy^i dy^j of a quadratic form q(x, y) at a point
    x of shape (n,), or at each row of a stack x of shape (K, n)."""
    x = np.asarray(x, dtype=float)
    q = qform(list(np.moveaxis(x, -1, 0)), seed(np.zeros(n), list(np.eye(n)), 2))
    return np.broadcast_to(0.5 * hessian(q, range(n)).value, x.shape[:-1] + (n, n))


def make_randers(model="flat", dimension=2, b=None):
    """Randers metric F = alpha + beta over the Riemannian `model` alpha,
    with beta = <b, y> and the ||beta||_x < 1 gate sampled at 200 interior
    points, or read once at the origin on the flat model, where it is |b|
    everywhere."""
    base = make_riemannian(model, dimension)
    # ||beta||_x < 1 is gated below, at sampled points; |b| may exceed 1
    b = _vector("b", b, dimension, lead=0.5)
    qform = base.extras["quadratic_form"]

    def beta_norm(x):
        """||beta||_x at a point, or at each row of a stack of points."""
        a = _half_hessian(qform, x, dimension)
        solved = np.linalg.solve(a, np.broadcast_to(b, a.shape[:-1])[..., None])[..., 0]
        norm = np.sqrt(np.sum(solved * b, axis=-1))
        return float(norm) if norm.ndim == 0 else norm

    if model == "flat":  # a = I, so ||beta||_x = |b| at every point
        points = np.zeros((1, dimension))
    else:
        rng = np.random.default_rng(11)
        points = np.array([base.domain.sample_interior(rng) for _ in range(200)])
    for x, nb in zip(points, beta_norm(points)):
        if nb >= 1.0:
            raise InvalidParameterError(
                f"||beta||_x = {nb:.4f} >= 1 at x = {x}")
    spec = MetricSpec("randers", dimension, {"model": model, "b": b})
    return MetricField(
        dimension=dimension,
        domain=base.domain,
        evaluate=lambda x, y: jsqrt(qform(x, y)) + _dot(b, y),
        name=f"randers[{model}]",
        spec=spec,
        extras={"beta_norm": beta_norm},
    )


# -- Funk-type metrics --------------------------------------------------------

def make_funk_shifted(a=None, dimension=2):
    """Shifted Funk family on the unit ball (closed form)."""
    dimension = _integer("dimension", dimension, least=1)
    a = _vector("a", a, dimension, lead=0.0, unit_ball=True)

    def evaluate(x, y):
        xx = _dot(x, x)
        yy = _dot(y, y)
        xy = _dot(x, y)
        theta = (jsqrt(yy - (xx * yy - xy * xy)) + xy) / (1.0 - xx)
        return theta + _dot(a, y) / (1.0 + _dot(a, x))

    spec = MetricSpec("funk_ball_shifted", dimension, {"a": a})
    return MetricField(dimension=dimension, domain=Ball(dimension),
                       evaluate=evaluate, name="funk_ball_shifted", spec=spec,
                       extras={"shift": a})


@dataclass(frozen=True)
class _PhiDomain(Domain):
    """Open unit ball of a Minkowski norm, sampled by rejection."""

    dimension: int
    phi: callable
    half_width: float

    def margin(self, x):
        return float(1.0 - self.phi(list(np.asarray(x, dtype=float))))

    def margins(self, xs):
        return 1.0 - np.asarray(self.phi(list(xs.T)), dtype=float)

    def sample_interior(self, rng, margin=0.05):
        for _ in range(10_000):
            x = self.half_width * (2.0 * rng.random(self.dimension) - 1.0)
            if self.phi(list(x)) < 1.0 - margin:
                return x
        raise InvalidParameterError("rejection sampling failed for phi-ball domain")


def _theta_root(phi, x, y, tol=1e-13, max_iter=80):
    """Safeguarded Newton + bisection for theta = phi(y + theta x).

    Vectorized over trailing axes of the x and y components.  The residual
    r(theta) = theta - phi(y + theta x) is strictly increasing (slope at
    least 1 - phi(x) > 0 inside the chart), so the root is unique and
    bracketed by [0, phi(y) / (1 - phi(x))].  Returns the root and the
    slope of r there, both from the last Newton pass.
    """
    x = [np.asarray(c, dtype=float) for c in x]
    phi_x = np.asarray(phi(x), dtype=float)
    if np.any(phi_x >= 1.0):
        raise ImplicitSolveError(
            f"base point outside the phi-ball (phi(x)={np.max(phi_x):.4f})")
    y = [np.asarray(c, dtype=float) for c in y]
    phi_y = np.asarray(phi(y), dtype=float)
    lo = np.zeros_like(phi_y)
    hi = phi_y / (1.0 - phi_x) + 1e-12
    theta = phi_y.copy()
    scale = np.maximum(phi_y, 1.0)
    done = np.zeros(theta.shape, dtype=bool)
    for _ in range(max_iter):
        tj = Jet(np.stack([theta, np.ones_like(theta)]), 1, 1)
        r = tj - phi([yc + tj * xc for yc, xc in zip(y, x)])
        res = np.asarray(r.value, dtype=float)
        slope = np.asarray(deriv(r, 0).value, dtype=float)
        done |= np.abs(res) <= tol * scale
        if np.all(done):
            return (theta if theta.ndim else float(theta)), slope
        lo = np.where(res < 0.0, theta, lo)
        hi = np.where(res > 0.0, theta, hi)
        step = np.divide(res, slope, out=np.zeros_like(res), where=slope > 0.0)
        candidate = theta - step
        bad = (candidate <= lo) | (candidate >= hi) | ~np.isfinite(candidate)
        # a converged entry stays put, so each entry iterates as it would alone
        theta = np.where(done, theta, np.where(bad, 0.5 * (lo + hi), candidate))
    raise ImplicitSolveError("implicit Funk equation did not converge")


def _theta_jet(phi, x, y):
    """Lift the implicit Funk solution through jet-valued (x, y).

    Scalar root first, then Newton-preconditioned fixed-point iterations in
    jet arithmetic: the update multiplier has (near-)zero value part, so
    each sweep knocks out one nilpotent order.
    """
    template = next(c for c in list(x) + list(y) if isinstance(c, Jet))
    ndir, order, cap = template.ndir, template.order, template.cap
    xv = [value(c) for c in x]
    yv = [np.asarray(value(c), dtype=float) for c in y]
    theta0, slope = _theta_root(phi, xv, yv)
    theta = Jet.constant(np.asarray(theta0, dtype=float), ndir, order, cap)
    for _ in range(order + 2):
        residual = theta - phi([yc + theta * xc for yc, xc in zip(y, x)])
        theta = theta - residual / slope
    residual = theta - phi([yc + theta * xc for yc, xc in zip(y, x)])
    # rounding scales with each sample's largest coefficient (1e7 near the edge)
    size = np.maximum(np.max(np.abs(theta.coeffs), axis=0), 1.0)
    if np.any(np.max(np.abs(residual.coeffs), axis=0) > 1e-9 * size):
        raise ImplicitSolveError("jet propagation through the Funk equation stalled")
    return theta


def make_funk_implicit(phi=None, dimension=2, b=None):
    """Funk metric of the unit phi-ball, solved from theta = phi(y + theta x).

    phi is "euclidean" (default), the norm of make_euclidean, or "randers"
    with a drift b, the norm of make_minkowski; any other phi, a callable
    included, raises InvalidParameterError.
    """
    dimension = _integer("dimension", dimension, least=1)
    if b is not None and phi != "randers":
        raise InvalidParameterError(f"a drift b applies to phi = 'randers', not {phi!r}")
    if phi is None or phi == "euclidean":
        params = {"phi": "euclidean"}
        norm, half_width = make_euclidean(dimension), 1.0
    elif phi == "randers":
        b = _vector("b", b, dimension, lead=0.3, unit_ball=True)
        params = {"phi": "randers", "b": b}
        norm, half_width = make_minkowski(dimension, b), 1.0 / (1.0 - np.linalg.norm(b))
    else:
        raise InvalidParameterError(f"unsupported Minkowski norm {phi!r}")

    def phi_fn(v):  # a norm does not read x
        return norm.evaluate(None, v)

    def evaluate(x, y):
        if any(isinstance(c, Jet) for c in list(x) + list(y)):
            return _theta_jet(phi_fn, x, y)
        return _theta_root(phi_fn, x, y)[0]

    spec = MetricSpec("funk_implicit", dimension, params)
    return MetricField(
        dimension=dimension,
        domain=_PhiDomain(dimension, phi_fn, half_width),
        evaluate=evaluate, name="funk_implicit", spec=spec,
    )


# -- product (Berwald) metrics ------------------------------------------------

GATE_CONDITIONS = ("f_s > 0", "f_t > 0", "f_s + 2 s f_ss > 0",
                   "f_t + 2 t f_tt > 0", "f_s f_t - 2 f f_st > 0")


@dataclass(frozen=True)
class ProductProfile:
    """Positively 1-homogeneous profile f(s, t) for product metrics."""

    f: callable
    name: str = "profile"
    parameters: dict = field(default_factory=dict)

    def partials(self, s, t):
        """f and its partials up to second order at (s, t)."""
        js, jt = seed([s, t], [np.array([1.0, 0.0]), np.array([0.0, 1.0])], 2)
        fj = self.f(js, jt)
        return {
            "f": extract(fj, (0, 0)), "f_s": extract(fj, (1, 0)),
            "f_t": extract(fj, (0, 1)), "f_ss": extract(fj, (2, 0)),
            "f_st": extract(fj, (1, 1)), "f_tt": extract(fj, (0, 2)),
        }

    def gate(self, s, t):
        """Values of the five positivity conditions at (s, t)."""
        p = self.partials(s, t)
        return {
            GATE_CONDITIONS[0]: p["f_s"],
            GATE_CONDITIONS[1]: p["f_t"],
            GATE_CONDITIONS[2]: p["f_s"] + 2.0 * s * p["f_ss"],
            GATE_CONDITIONS[3]: p["f_t"] + 2.0 * t * p["f_tt"],
            GATE_CONDITIONS[4]: p["f_s"] * p["f_t"] - 2.0 * p["f"] * p["f_st"],
        }

    def validate(self):
        """Homogeneity, non-vanishing, and the positivity gate on a 13 x 13
        quadrant grid, evaluated for all points at once.  The first failing
        point, and at it the first failing check in the order above, raises."""
        grid = np.geomspace(1e-3, 1e3, 13)
        s, t = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
        fval = np.asarray(value(self.f(s, t)), dtype=float)
        f2 = np.asarray(value(self.f(2.0 * s, 2.0 * t)), dtype=float)
        gate = self.gate(s, t)
        fails = {"homogeneity": np.abs(f2 - 2.0 * fval) > 1e-12 * np.maximum(1.0, np.abs(f2)),
                 "f > 0": fval <= 0.0,
                 **{cond: val <= 0.0 for cond, val in gate.items()}}
        failed = np.stack(list(fails.values()), axis=-1)
        points = np.flatnonzero(failed.any(axis=-1))
        if points.size == 0:
            return self
        k = points[0]
        cond = list(fails)[int(np.argmax(failed[k]))]
        at = f"(s, t) = ({s[k]:g}, {t[k]:g})"
        if cond == "homogeneity":
            raise InvalidProfileError(f"profile not 1-homogeneous at {at}", condition=cond)
        if cond == "f > 0":
            raise InvalidProfileError(f"profile vanishes at {at}", condition=cond)
        raise InvalidProfileError(f"condition {cond} fails at {at} "
                                  f"(value {gate[cond][k]:.3e})", condition=cond)


def linear_profile():
    return ProductProfile(f=lambda s, t: s + t, name="linear")


def epsilon_profile(eps):
    eps = _number("eps", eps)
    return ProductProfile(
        f=lambda s, t: s + t + eps * jsqrt(s * s + t * t),
        name="epsilon", parameters={"eps": eps})


def make_szabo_product(alpha1, alpha2, profile):
    """F = sqrt(f(alpha1^2, alpha2^2)) on the product chart; checks the profile
    and that each factor is Riemannian: its extras["quadratic_form"], which
    make_riemannian's metrics carry, gives alpha^2 = a_ij(x) y^i y^j."""
    profile.validate()
    n1, n2 = alpha1.dimension, alpha2.dimension
    for alpha in (alpha1, alpha2):
        if "quadratic_form" not in alpha.extras:
            raise InvalidParameterError(
                f"product factor {alpha.name} must be Riemannian, with a quadratic form")
    q1, q2 = alpha1.extras["quadratic_form"], alpha2.extras["quadratic_form"]

    def evaluate(x, y):
        s = q1(x[:n1], y[:n1])
        t = q2(x[n1:], y[n1:])
        return jsqrt(profile.f(s, t))

    params = {"profile": profile.name, **profile.parameters,
              "factor1": alpha1.spec.to_dict() if alpha1.spec else None,
              "factor2": alpha2.spec.to_dict() if alpha2.spec else None}
    spec = MetricSpec("szabo_product", n1 + n2, params)
    return MetricField(
        dimension=n1 + n2,
        domain=ProductDomain(alpha1.domain, alpha2.domain, n1),
        evaluate=evaluate, name="szabo_product", spec=spec,
        extras={"factors": (alpha1, alpha2), "profile": profile},
    )


def _szabo_product_from_spec(dimension, profile="epsilon", eps=None, factor1=None,
                            factor2=None):
    """make_szabo_product from spec parameters: factor specs (by default the
    hyperbolic disk and the flat line) and a named profile.  `dimension` is
    the sum of the factors'; build_metric checks it against the spec."""
    alpha1 = build_metric(factor1) if factor1 else make_riemannian("hyperbolic_disk", 2)
    alpha2 = build_metric(factor2) if factor2 else make_riemannian("flat", 1)
    if profile == "epsilon":
        shape = epsilon_profile(0.5 if eps is None else eps)
    elif profile == "linear" and eps is None:
        shape = linear_profile()
    else:
        raise InvalidParameterError(f"no product profile {profile!r} with eps = {eps}")
    return make_szabo_product(alpha1, alpha2, shape)


def make_szabo_epsilon(eps=0.5):
    """Hyperbolic-plane x flat-line Berwald family with the 4th-root profile."""
    metric = _szabo_product_from_spec(3, eps=eps)
    return replace(metric, name="szabo_epsilon",
                   spec=MetricSpec("szabo_epsilon", 3, {"eps": float(eps)}))


# -- incomplete slab ----------------------------------------------------------

def make_incomplete_slab(dimension=3):
    """Flat, zero-S metric on the solid cylinder s^2 + t^2 < 1 with J != 0."""
    dimension = _integer("slab metric dimension", dimension, least=2)

    def evaluate(x, y):
        s, t = x[0], x[1]
        u, v = y[0], y[1]
        w = s * v - t * u
        c = 1.0 - (s * s + t * t)
        q = _dot(y, y)
        r = jsqrt(w * w + q * c)
        # (r - w) / c cancels catastrophically for w > 0 as c -> 0; switch
        # to the conjugate form q / (r + w) on that branch, node by node
        w_val = np.asarray(value(w))
        with np.errstate(invalid="ignore", divide="ignore"):
            conjugate, direct = q / (r + w), (r - w) / c
        if isinstance(r, Jet):
            return jwhere(w_val >= 0.0, conjugate, direct)
        return np.where(w_val >= 0.0, conjugate, direct)

    spec = MetricSpec("incomplete_slab", dimension)
    return MetricField(dimension=dimension, domain=DiskCylinder(dimension),
                       evaluate=evaluate, name="incomplete_slab", spec=spec)


# -- spec-driven construction --------------------------------------------------

#: kind -> (constructor, the spec parameters the kind accepts).  Each
#: constructor takes the spec's dimension and parameters as keywords.
_CONSTRUCTORS = {
    "euclidean": (make_euclidean, ()),
    "minkowski": (make_minkowski, ("b",)),
    "riemannian": (make_riemannian, ("model",)),
    "randers": (make_randers, ("model", "b")),
    "funk_ball_shifted": (make_funk_shifted, ("a",)),
    "funk_implicit": (make_funk_implicit, ("phi", "b")),
    "szabo_product": (_szabo_product_from_spec, ("profile", "eps", "factor1", "factor2")),
    "szabo_epsilon": (lambda dimension, **p: make_szabo_epsilon(**p), ("eps",)),
    "incomplete_slab": (make_incomplete_slab, ()),
}
KINDS = tuple(_CONSTRUCTORS)


def build_metric(spec):
    """Construct the metric described by a MetricSpec (or its dict form).

    A parameter the kind does not accept, a null parameter, or a metric
    whose dimension is not the spec's, raises InvalidParameterError.
    """
    if isinstance(spec, dict):
        spec = MetricSpec.from_dict(spec)
    make, accepted = _CONSTRUCTORS[spec.kind]
    _check_keys(f"{spec.kind} spec parameter", spec.parameters, accepted)
    metric = make(dimension=spec.dimension, **spec.parameters)
    if metric.dimension != spec.dimension:
        raise InvalidParameterError(
            f"{spec.kind} has dimension {metric.dimension}, not {spec.dimension}")
    return metric


def default_specs():
    """One representative spec per zoo kind (the acceptance sampling set)."""
    return [
        MetricSpec("euclidean", 2),
        MetricSpec("minkowski", 2, {"b": [0.4, 0.0]}),
        MetricSpec("riemannian", 2, {"model": "hyperbolic_disk"}),
        MetricSpec("randers", 2, {"model": "flat", "b": [0.5, 0.0]}),
        MetricSpec("funk_ball_shifted", 2, {"a": [0.3, 0.0]}),
        MetricSpec("funk_implicit", 2, {"phi": "euclidean"}),
        MetricSpec("szabo_product", 3, {"profile": "epsilon", "eps": 0.5}),
        MetricSpec("szabo_epsilon", 3, {"eps": 0.5}),
        MetricSpec("incomplete_slab", 3),
    ]
