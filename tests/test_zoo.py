"""Metric constructors, parameter gates, and spec round-trips."""

import re

import numpy as np
import pytest

from finslerkit import geometry, verify, zoo
from finslerkit.errors import InvalidParameterError, InvalidProfileError
from finslerkit.geometry import TangentSample
from finslerkit.jets import Jet, extract, jsqrt, seed, value


def test_minkowski_rejects_unit_drift():
    with pytest.raises(InvalidParameterError):
        zoo.make_minkowski(2, b=[1.0, 0.0])


def test_randers_rejects_unit_one_form():
    with pytest.raises(InvalidParameterError):
        zoo.make_randers(b=[0.8, 0.8])


def test_funk_rejects_shift_outside_ball():
    with pytest.raises(InvalidParameterError):
        zoo.make_funk_shifted([1.2, 0.0])


def test_profile_gate_rejects_negative_epsilon():
    with pytest.raises(InvalidProfileError) as err:
        zoo.epsilon_profile(-0.8).validate()
    assert err.value.condition in zoo.GATE_CONDITIONS + ("homogeneity", "f > 0")


def test_profile_gate_accepts_default_epsilon():
    zoo.epsilon_profile(0.5).validate()
    zoo.linear_profile().validate()


def test_funk_at_origin_is_the_norm():
    m = zoo.make_funk_shifted([0.0, 0.0])
    assert float(m.evaluate(np.zeros(2), np.array([1.0, 0.0]))) == pytest.approx(
        1.0, abs=1e-12)
    m = zoo.make_funk_shifted([0.3, 0.0])
    y = np.array([0.4, -0.7])
    want = np.linalg.norm(y) + 0.3 * y[0]
    assert float(m.evaluate(np.zeros(2), y)) == pytest.approx(want, abs=1e-12)


def test_implicit_funk_reduces_to_norm_at_origin():
    m = zoo.make_funk_implicit()
    y = np.array([0.8, 0.3])
    assert float(m.evaluate(np.zeros(2), y)) == pytest.approx(
        np.linalg.norm(y), abs=1e-12)


def test_implicit_funk_matches_closed_form():
    implicit = zoo.make_funk_implicit()
    closed = zoo.make_funk_shifted([0.0, 0.0])
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = implicit.domain.sample_interior(rng, margin=0.05)
        y = rng.standard_normal(2)
        got = float(implicit.evaluate(x, y))
        want = float(closed.evaluate(x, y))
        assert got == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))


@pytest.mark.parametrize("phi,b", [("euclidean", None), ("randers", [0.3, 0.0])])
def test_implicit_funk_satisfies_its_pde(phi, b):
    """Theta_{x^k} = Theta Theta_{y^k} for the implicit solution."""
    m = zoo.make_funk_implicit(phi=phi, b=b)
    rng = np.random.default_rng(23)
    dirs = [np.eye(4)[i] for i in range(4)]
    for _ in range(20):
        x = m.domain.sample_interior(rng, margin=0.1)
        y = rng.standard_normal(2)
        jets = seed(np.concatenate([x, y]), dirs, 1)
        theta = m.evaluate(jets[:2], jets[2:])
        t0 = value(theta)
        for k in range(2):
            dx = extract(theta, tuple(int(i == k) for i in range(4)))
            dy = extract(theta, tuple(int(i == k + 2) for i in range(4)))
            assert abs(dx - t0 * dy) <= 1e-8 * max(1.0, abs(t0))


def test_slab_at_origin_is_euclidean():
    m = zoo.make_incomplete_slab()
    y = np.array([0.3, -0.8, 0.5])
    got = float(m.evaluate(np.zeros(3), y))
    assert got == pytest.approx(np.linalg.norm(y), abs=1e-12)


def test_linear_profile_product_has_no_torsion():
    disk = zoo.make_riemannian(model="hyperbolic_disk", dimension=2)
    line = zoo.make_riemannian(model="flat", dimension=1)
    m = zoo.make_szabo_product(disk, line, zoo.linear_profile())
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = m.domain.sample_interior(rng, margin=0.1)
        y = rng.standard_normal(3)
        tv = geometry.mean_cartan(m, TangentSample(x, y))
        assert np.allclose(tv.I, 0.0, atol=1e-9)


def test_spec_round_trip_through_yaml():
    for spec in zoo.default_specs():
        text = spec.to_yaml()
        back = zoo.MetricSpec.from_yaml(text)
        assert back == spec
        zoo.build_metric(back)


def test_spec_rejects_unknown_keys():
    with pytest.raises((InvalidParameterError, ValueError, TypeError)):
        zoo.MetricSpec.from_dict(
            {"kind": "euclidean", "dimension": 2, "flavor": "mint"})


def test_build_metric_rejects_unknown_kind():
    with pytest.raises(InvalidParameterError):
        zoo.build_metric(zoo.MetricSpec("projective_cabbage", 2, {}))


@pytest.mark.parametrize("spec", zoo.default_specs(), ids=lambda s: s.kind)
def test_every_kind_passes_basic_invariants(spec):
    """Homogeneity, SPD fundamental tensor, and torsion orthogonality."""
    m = zoo.build_metric(spec)
    rng = np.random.default_rng(31)
    for _ in range(10):
        x = m.domain.sample_interior(rng, margin=0.1)
        y = rng.standard_normal(m.dimension)
        at = TangentSample(x, y)
        F = float(m.evaluate(x, y))
        assert F > 0.0
        assert float(m.evaluate(x, 2.0 * y)) == pytest.approx(2.0 * F, rel=1e-10)
        ft = geometry.fundamental_tensor(m, at)
        eig = np.linalg.eigvalsh(ft.g)
        assert eig.min() > 0.0
        assert float(y @ ft.g @ y) == pytest.approx(F * F, rel=1e-8)
        tv = geometry.mean_cartan(m, at)
        scale = max(1.0, np.linalg.norm(tv.I))
        assert abs(float(tv.I @ y)) <= 1e-8 * scale * max(1.0, F)


@pytest.mark.parametrize("s_gap", [1e-8, 1e-6, 1e-4])
def test_slab_batched_jet_picks_each_nodes_branch(slab, s_gap):
    # a batch of directions mixes signs of w = s v - t u; each node must
    # take its own branch, as a per-node evaluation does
    x = np.array([0.0, 1.0 - s_gap, 0.1])
    dirs = np.random.default_rng(0).normal(size=(64, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    xj = seed(x, list(np.eye(3)), 1)
    batched = slab.evaluate(xj, list(dirs.T))
    for k, y in enumerate(dirs):
        single = slab.evaluate(seed(x, list(np.eye(3)), 1), list(y))
        assert np.allclose(batched.coeffs[:, k], single.coeffs, rtol=1e-13, atol=0.0)


#: Specs with input that a builder could silently drop, override or misread.
IGNORED_INPUT_SPECS = {
    "funk-unknown-key": {"kind": "funk_ball_shifted", "dimension": 2,
                         "parameters": {"shift": [0.5, 0.0]}},
    "szabo-misspelt-profile": {"kind": "szabo_product", "dimension": 3,
                               "parameters": {"profile": "lineaar"}},
    "szabo-linear-with-eps": {"kind": "szabo_product", "dimension": 3,
                              "parameters": {"profile": "linear", "eps": 0.5}},
    "szabo-product-wrong-dimension": {"kind": "szabo_product", "dimension": 4},
    "szabo-epsilon-wrong-dimension": {"kind": "szabo_epsilon", "dimension": 5},
    "implicit-euclidean-with-drift": {"kind": "funk_implicit", "dimension": 2,
                                      "parameters": {"phi": "euclidean",
                                                     "b": [0.3, 0.0]}},
    "constructor-only-argument": {"kind": "riemannian", "dimension": 2,
                                  "parameters": {"model": "flat",
                                                 "gate_samples": 3}},
    "minkowski-long-drift": {"kind": "minkowski", "dimension": 2,
                             "parameters": {"b": [0.1, 0.2, 0.3]}},
    "minkowski-short-drift": {"kind": "minkowski", "dimension": 3,
                              "parameters": {"b": [0.1]}},
    "implicit-randers-long-drift": {"kind": "funk_implicit", "dimension": 2,
                                    "parameters": {"phi": "randers",
                                                   "b": [0.1, 0.2, 0.3]}},
    "randers-long-drift": {"kind": "randers", "dimension": 2,
                           "parameters": {"b": [0.1, 0.2, 0.3]}},
    "minkowski-text-drift": {"kind": "minkowski", "dimension": 2,
                             "parameters": {"b": ["x", 0.1]}},
    "funk-text-shift": {"kind": "funk_ball_shifted", "dimension": 2,
                        "parameters": {"a": "abc"}},
    "funk-nan-shift": {"kind": "funk_ball_shifted", "dimension": 2,
                       "parameters": {"a": [float("nan"), 0.0]}},
    "minkowski-boolean-drift": {"kind": "minkowski", "dimension": 2,
                                "parameters": {"b": [False, False]}},
    "funk-boolean-shift": {"kind": "funk_ball_shifted", "dimension": 2,
                           "parameters": {"a": [0.2, False]}},
    "szabo-boolean-eps": {"kind": "szabo_epsilon", "dimension": 3,
                          "parameters": {"eps": True}},
    "szabo-text-eps": {"kind": "szabo_epsilon", "dimension": 3,
                       "parameters": {"eps": "abc"}},
    "szabo-nan-eps": {"kind": "szabo_epsilon", "dimension": 3,
                      "parameters": {"eps": float("nan")}},
    "szabo-product-infinite-eps": {"kind": "szabo_product", "dimension": 3,
                                   "parameters": {"profile": "epsilon",
                                                  "eps": float("inf")}},
}


@pytest.mark.parametrize("spec", IGNORED_INPUT_SPECS.values(),
                         ids=IGNORED_INPUT_SPECS.keys())
def test_spec_input_that_would_be_ignored_is_rejected(spec):
    with pytest.raises(InvalidParameterError):
        zoo.build_metric(spec)


def test_a_callable_minkowski_norm_is_refused():
    """A user's own metric goes in as a MetricField, not as a callable phi."""
    with pytest.raises(InvalidParameterError, match="unsupported Minkowski norm"):
        zoo.make_funk_implicit(phi=lambda v: jsqrt(v[0] * v[0] + v[1] * v[1]))


def test_kinds_follow_the_spec_table_in_order():
    assert zoo.KINDS == ("euclidean", "minkowski", "riemannian", "randers",
                         "funk_ball_shifted", "funk_implicit", "szabo_product",
                         "szabo_epsilon", "incomplete_slab")


#: Profiles that fail the gate, with the message and condition the
#: point-by-point gate raised for them: the first failing grid point in
#: (s outer, t inner) order, and at it the first failing check.
FAILING_PROFILES = {
    "fails-at-many-points": (lambda s, t: s + t - 1.5 * jsqrt(s * t),
                             "condition f_s > 0 fails at (s, t) = (0.001, 0.00316228) "
                             "(value -3.337e-01)", "f_s > 0"),
    "third-condition-first": (lambda s, t: s + t - 0.8 * jsqrt(s * s + t * t),
                              "condition f_s + 2 s f_ss > 0 fails at (s, t) = (0.001, 0.001) "
                              "(value -1.314e-01)", "f_s + 2 s f_ss > 0"),
    "not-homogeneous": (lambda s, t: s + t + 1e-3 * s * t,
                        "profile not 1-homogeneous at (s, t) = (0.001, 0.001)", "homogeneity"),
    "vanishes": (lambda s, t: s - t,
                 "profile vanishes at (s, t) = (0.001, 0.001)", "f > 0"),
}


@pytest.mark.parametrize("f, message, condition", FAILING_PROFILES.values(),
                         ids=FAILING_PROFILES.keys())
def test_profile_gate_reports_its_first_failing_point(f, message, condition):
    with pytest.raises(InvalidProfileError) as err:
        zoo.ProductProfile(f=f).validate()
    assert str(err.value) == message
    assert err.value.condition == condition


def test_randers_gate_reports_its_first_failing_point():
    """On the sphere chart ||beta||_x grows with |x|; of the 200 gate
    points the third is the first where it reaches 1."""
    with pytest.raises(InvalidParameterError) as err:
        zoo.make_randers("sphere", b=[0.02, 0.0])
    assert str(err.value) == "||beta||_x = 1.0057 >= 1 at x = [-6.33733048  7.70779841]"


@pytest.mark.parametrize("b, message", [
    ([1.2, 0.0], "||beta||_x = 1.2000 >= 1 at x = [0. 0.]"),
    ([1.0, 0.0], "||beta||_x = 1.0000 >= 1 at x = [0. 0.]"),
    ([0.8, 0.8], "||beta||_x = 1.1314 >= 1 at x = [0. 0.]"),
    ([0.6, 0.0], None),
], ids=["above-1", "at-1", "diagonal", "inside"])
def test_a_flat_randers_gate_draws_no_points(monkeypatch, b, message):
    """On the flat model ||beta||_x = |b| at every point, so the gate reads
    it once, at the origin, instead of at 200 drawn points."""
    def no_draws(self, rng, margin=0.05):
        raise AssertionError("the flat gate drew a point")

    monkeypatch.setattr(zoo.Box, "sample_interior", no_draws)
    if message is None:
        assert zoo.make_randers("flat", 2, b).extras["beta_norm"]([3.0, -7.0]) == 0.6
        zoo.make_minkowski(3)
        return
    with pytest.raises(InvalidParameterError) as err:
        zoo.make_randers("flat", 2, b)
    assert str(err.value) == message


def test_randers_drift_norm_takes_points_and_stacks():
    m = zoo.make_randers("hyperbolic_disk", b=[0.5, 0.0])
    x = np.array([[0.1, 0.2], [-0.4, 0.3], [0.0, 0.0]])
    stacked = m.extras["beta_norm"](x)
    assert [m.extras["beta_norm"](row) for row in x] == pytest.approx(stacked, rel=1e-15)
    assert stacked[2] == pytest.approx(0.25, rel=1e-15)  # |b| (1 - |x|^2) / 2


@pytest.mark.parametrize("spec", [
    {"kind": "euclidean", "dimension": 2, "parameters": None},
    {"kind": "euclidean", "dimension": 2, "parameters": [0.5]},
    {"kind": "euclidean", "dimension": None},
    {"kind": "euclidean"},
    {"kind": "szabo_epsilon", "dimension": 3, "parameters": {"eps": None}},
    {"kind": "minkowski", "dimension": 2, "parameters": {"b": None}},
], ids=["null-parameters", "list-parameters", "null-dimension", "no-dimension",
        "null-eps", "null-drift"])
def test_spec_with_null_or_mistyped_values_is_rejected(spec):
    with pytest.raises(InvalidParameterError):
        zoo.build_metric(spec)


# -- the flat norms against the closures they were written as -------------------

def _ref_dot(u, v):
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def _ref_box(dimension):
    return zoo.Box(-10.0 * np.ones(dimension), 10.0 * np.ones(dimension))


def _ref_euclidean(dimension):
    return geometry.MetricField(dimension=dimension, domain=_ref_box(dimension),
                                evaluate=lambda x, y: jsqrt(_ref_dot(y, y)))


def _ref_minkowski(dimension, b):
    b = np.asarray(b, dtype=float)
    return geometry.MetricField(
        dimension=dimension, domain=_ref_box(dimension),
        evaluate=lambda x, y: jsqrt(_ref_dot(y, y)) + _ref_dot(b, y))


def _ref_funk_implicit(b=None):
    """The implicit Funk metric with its gauge phi written out as a closure."""
    if b is None:
        half_width = 1.0

        def phi(v):
            return jsqrt(_ref_dot(v, v))
    else:
        b = np.asarray(b, dtype=float)
        half_width = 1.0 / (1.0 - np.linalg.norm(b))

        def phi(v):
            return jsqrt(_ref_dot(v, v)) + _ref_dot(b, v)

    def evaluate(x, y):
        if any(isinstance(c, Jet) for c in list(x) + list(y)):
            return zoo._theta_jet(phi, x, y)
        return zoo._theta_root(phi, x, y)[0]

    return geometry.MetricField(dimension=2, domain=zoo._PhiDomain(2, phi, half_width),
                                evaluate=evaluate)


_R_FIELDS = ("F", "g", "g_inverse", "G", "N", "G_yy", "G_x", "G_xy", "R", "I", "J")

FLAT_NORMS = {
    "euclidean-2": (lambda: zoo.make_euclidean(2), lambda: _ref_euclidean(2)),
    "euclidean-3": (lambda: zoo.make_euclidean(3), lambda: _ref_euclidean(3)),
    "minkowski-default": (lambda: zoo.make_minkowski(2),
                          lambda: _ref_minkowski(2, [0.4, 0.0])),
    "minkowski-3": (lambda: zoo.make_minkowski(3, [0.1, 0.2, 0.3]),
                    lambda: _ref_minkowski(3, [0.1, 0.2, 0.3])),
    "funk-implicit-euclidean": (lambda: zoo.make_funk_implicit(),
                                lambda: _ref_funk_implicit()),
    "funk-implicit-randers": (lambda: zoo.make_funk_implicit("randers"),
                              lambda: _ref_funk_implicit([0.3, 0.0])),
}


@pytest.mark.parametrize("build, reference", FLAT_NORMS.values(), ids=FLAT_NORMS.keys())
def test_flat_norms_are_bit_identical_to_their_closures(build, reference):
    """The metrics built on the flat riemannian and randers models give
    F and every need-"R" field bit for bit as the closures they replaced,
    at each of 6 samples alone and as one stack."""
    m, ref = build(), reference()
    rng = np.random.default_rng(41)
    x = np.array([ref.domain.sample_interior(rng, margin=0.05) for _ in range(6)])
    at = TangentSample(x, rng.standard_normal(x.shape))
    for sample in [at] + [TangentSample(x1, y1) for x1, y1 in zip(at.x, at.y)]:
        got = geometry.local_geometry(m, sample, "R")
        want = geometry.local_geometry(ref, sample, "R")
        for name in _R_FIELDS:
            a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("phi, b", [(None, None), ("randers", [0.3, 0.0])])
def test_implicit_funk_domain_is_bit_identical_to_its_closure(phi, b):
    m, ref = zoo.make_funk_implicit(phi), _ref_funk_implicit(b)
    draws = []
    for domain in (m.domain, ref.domain):
        rng = np.random.default_rng(43)
        points = [domain.sample_interior(rng, margin=margin)
                  for margin in (0.05, 0.2, 0.0) for _ in range(10)]
        draws.append((np.array(points), [domain.margin(p) for p in points]))
    assert draws[0][0].tobytes() == draws[1][0].tobytes()
    assert draws[0][1] == draws[1][1]


@pytest.mark.parametrize("build", [
    lambda: zoo.make_incomplete_slab("3"),
    lambda: zoo.make_riemannian("flat", 2.5),
    lambda: zoo.make_euclidean("2"),
    lambda: zoo.make_randers("flat", "2"),
    lambda: zoo.make_minkowski(2.5),
    lambda: zoo.make_funk_shifted(None, 2.5),
    lambda: zoo.make_funk_implicit(None, 2.5),
    lambda: zoo.make_funk_implicit("randers", None),
], ids=["text-slab", "fractional-riemannian", "text-euclidean", "text-randers",
        "fractional-minkowski", "fractional-funk-shifted", "fractional-funk-implicit",
        "null-funk-implicit-randers"])
def test_a_constructor_refuses_a_dimension_that_is_not_a_whole_number(build):
    """Each raised a bare TypeError before its dimension was gated."""
    with pytest.raises(InvalidParameterError, match="dimension"):
        build()


RANDERS_FACTOR = {"kind": "randers", "dimension": 2,
                  "parameters": {"model": "flat", "b": [0.5, 0.0]}}
MINKOWSKI_FACTOR = {"kind": "minkowski", "dimension": 1, "parameters": {"b": [0.4]}}


@pytest.mark.parametrize("build, name", [
    (lambda: zoo.make_szabo_product(zoo.make_funk_shifted(), zoo.make_riemannian("flat", 1),
                                    zoo.epsilon_profile(0.5)), "funk_ball_shifted"),
    (lambda: zoo.make_szabo_product(zoo.make_randers("flat", 2, [0.5, 0.0]),
                                    zoo.make_riemannian("flat", 1), zoo.epsilon_profile(0.5)),
     "randers[flat]"),
    (lambda: zoo.make_szabo_product(zoo.make_riemannian("flat", 2), zoo.make_minkowski(1),
                                    zoo.epsilon_profile(0.5)), "minkowski"),
    (lambda: zoo.build_metric(zoo.MetricSpec("szabo_product", 3, {"factor1": RANDERS_FACTOR})),
     "randers[flat]"),
    (lambda: zoo.build_metric(zoo.MetricSpec("szabo_product", 3,
                                             {"factor2": MINKOWSKI_FACTOR})), "minkowski"),
], ids=["funk", "randers", "minkowski", "spec-factor1-randers", "spec-factor2-minkowski"])
def test_a_product_factor_that_is_not_riemannian_is_refused_by_name(build, name):
    """A shifted Funk factor used to raise KeyError: 'quadratic_form'.  A
    Randers or Minkowski factor passed as its alpha: the product of
    make_randers("flat", 2, [0.5, 0.0]) and the flat line gave the flat
    product's 1.224744871391589 at x = 0, y = e_1, dropping beta."""
    with pytest.raises(InvalidParameterError,
                       match=re.escape(f"factor {name} must be Riemannian")):
        build()
