"""Metric constructors, parameter gates, and spec round-trips."""

import numpy as np
import pytest

from finslerkit import geometry, verify, zoo
from finslerkit.errors import (DegenerateMetricError, InvalidParameterError,
                               InvalidProfileError)
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


def test_riemannian_rejects_non_spd_matrix():
    bad = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises((InvalidParameterError, DegenerateMetricError)):
        zoo.make_riemannian(model="custom", matrix_field=lambda x: bad,
                            domain=zoo.Box(np.full(2, -1.0), np.full(2, 1.0)))


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
        assert np.allclose(tv.covariant, 0.0, atol=1e-9)


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
        scale = max(1.0, np.linalg.norm(tv.covariant))
        assert abs(float(tv.covariant @ y)) <= 1e-8 * scale * max(1.0, F)


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
}


@pytest.mark.parametrize("spec", IGNORED_INPUT_SPECS.values(),
                         ids=IGNORED_INPUT_SPECS.keys())
def test_spec_input_that_would_be_ignored_is_rejected(spec):
    with pytest.raises(InvalidParameterError):
        zoo.build_metric(spec)


@pytest.mark.parametrize("model", ["flat", "sphere", "hyperbolic_disk"])
@pytest.mark.parametrize("extra", [{"domain": zoo.Ball(2)},
                                   {"matrix_field": lambda x: np.eye(2)}],
                         ids=["domain", "matrix_field"])
def test_space_forms_reject_custom_model_arguments(model, extra):
    with pytest.raises(InvalidParameterError):
        zoo.make_riemannian(model, 2, **extra)


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
