"""Claim objects, sample plans, and suite execution."""

import dataclasses
import io
import json
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import richardson_derivative

from finslerkit import verify, zoo
from finslerkit.errors import InvalidParameterError
from finslerkit.geometry import TangentSample, s_curvature
from finslerkit.jets import value
from finslerkit.verify import (Claim, SamplePlan, closed_one_form_check,
                               load_claims, run_claim, run_suite)


def _claim(**overrides):
    base = dict(
        id="funk-reference-curvature",
        metric=zoo.MetricSpec("funk_ball_shifted", 2, {"a": [0.3, 0.0]}),
        quantity="flag_curvature",
        target={"kind": "constant", "value": -0.25},
        tolerance=1e-6,
        tolerance_kind="relative",
        samples=SamplePlan(count=50, seed=11),
    )
    base.update(overrides)
    return Claim(**base)


def test_funk_curvature_claim_passes():
    report = run_claim(_claim())
    assert report.passed
    assert report.count == 50


def test_riemannian_cartan_claim_passes():
    claim = _claim(
        id="flat-model-mean-cartan",
        metric=zoo.MetricSpec("riemannian", 2, {"model": "flat"}),
        quantity="mean_cartan",
        target={"kind": "zero"},
        tolerance=1e-10,
        tolerance_kind="absolute",
    )
    assert run_claim(claim).passed


def test_berwald_claim_passes():
    claim = _claim(
        id="product-berwald-spray",
        metric=zoo.MetricSpec("szabo_epsilon", 3, {"eps": 0.5}),
        quantity="berwald_quadratic",
        target={"kind": "zero"},
        tolerance=1e-7,
        tolerance_kind="absolute",
        samples=SamplePlan(count=20, seed=3),
    )
    assert run_claim(claim).passed


def test_same_seed_gives_identical_statistics():
    r1 = run_claim(_claim())
    r2 = run_claim(_claim())
    assert r1.stats == r2.stats
    assert r1.worst_sample == r2.worst_sample


def test_different_seed_gives_different_samples():
    r1 = run_claim(_claim())
    r2 = run_claim(_claim(samples=SamplePlan(count=50, seed=12)))
    assert r1.stats != r2.stats


def test_violated_tolerance_fails_and_is_named():
    good = _claim()
    bad = _claim(id="funk-impossible-precision", tolerance=1e-16)
    suite = run_suite([good, bad])
    assert not suite.passed
    assert suite.exit_status == 1
    assert [r.claim_id for r in suite.failures()] == ["funk-impossible-precision"]


@pytest.mark.parametrize("tolerance, passed", [(1e-6, True), (1e-16, False)])
def test_runtime_is_the_wall_time_of_the_claim(tolerance, passed):
    """50 samples run as two stacks; runtime still counts from the start
    of the claim."""
    start = time.perf_counter()
    report = run_claim(_claim(tolerance=tolerance))
    wall = time.perf_counter() - start
    assert report.passed is passed
    assert 0.0 <= report.runtime <= wall


def test_bad_constructor_fails_only_its_claim():
    good = _claim()
    broken = _claim(
        id="overdriven-shift",
        metric=zoo.MetricSpec("funk_ball_shifted", 2, {"a": [1.5, 0.0]}))
    suite = run_suite([broken, good])
    assert [r.claim_id for r in suite.failures()] == ["overdriven-shift"]
    by_id = {r.claim_id: r for r in suite.reports}
    assert by_id["funk-reference-curvature"].passed
    assert not by_id["overdriven-shift"].passed
    assert by_id["overdriven-shift"].detail


def test_empty_suite_passes():
    suite = run_suite([])
    assert suite.passed
    assert suite.exit_status == 0


def test_parallel_run_matches_serial():
    claims = [_claim(), _claim(id="second", samples=SamplePlan(count=30, seed=5))]
    serial = run_suite(claims, parallelism=1)
    parallel = run_suite(claims, parallelism=2)
    s = json.loads(serial.to_json(include_runtime=False))
    p = json.loads(parallel.to_json(include_runtime=False))
    assert s == p


@pytest.mark.parametrize("parallelism", [1, 2])
def test_claims_that_share_an_id_are_refused_before_any_runs(monkeypatch, parallelism):
    """Two reports named `a` would be indistinguishable, so a list with a
    repeated id runs no claim; the message names every repeated id."""
    ran = []
    monkeypatch.setattr(verify, "run_claim", ran.append)
    claims = [_claim(id="a"), _claim(id="b"), _claim(id="a"), _claim(id="c"),
              _claim(id="c"), _claim(id="a")]
    with pytest.raises(InvalidParameterError, match=r"repeated: \['a', 'c'\]"):
        run_suite(claims, parallelism=parallelism)
    assert ran == []


@pytest.mark.parametrize("parallelism", [0, -1, 1.5, True])
def test_fewer_than_one_worker_is_refused(parallelism):
    with pytest.raises(InvalidParameterError):
        run_suite([_claim()], parallelism=parallelism)


def test_claim_validation_rejects_unknown_quantity():
    with pytest.raises(InvalidParameterError):
        _claim(quantity="regret")


def test_claim_validation_rejects_unknown_target_kind():
    with pytest.raises(InvalidParameterError):
        _claim(target={"kind": "approximately_vibes", "value": 0.0})


@pytest.mark.parametrize("build", [
    lambda: _claim(tolerance=True),
    lambda: _claim(tolerance=float("nan")),
    lambda: _claim(target={"kind": "constant", "value": float("nan")}),
    lambda: SamplePlan(margin=float("nan")),
    lambda: SamplePlan(margin=1.0),
    lambda: SamplePlan(seed=-1),
    lambda: zoo.MetricSpec("euclidean", True),
    lambda: zoo.MetricSpec("euclidean", 0),
    lambda: zoo.MetricSpec("euclidean", -1),
], ids=["boolean-tolerance", "nan-tolerance", "nan-target-value", "nan-margin",
        "unit-margin", "negative-seed", "boolean-dimension", "zero-dimension",
        "negative-dimension"])
def test_a_record_built_in_python_passes_the_number_gates(build):
    """Claims, sample plans and metric specs check their numbers when they
    are built, not only when read from a claim file."""
    with pytest.raises(InvalidParameterError):
        build()


@pytest.mark.parametrize("build", [
    lambda: _claim(samples={"count": 3}),
    lambda: _claim(metric={"kind": "euclidean", "dimension": 2}),
    lambda: _claim(metric={"kind": "euclidean", "dimension": 2},
                   parameters={"u": [1.0, 0.0]}),
    lambda: _claim(metric=zoo.MetricSpec("euclidean", 1)),
], ids=["samples-mapping", "metric-mapping", "metric-mapping-with-parameter",
        "one-dimensional-metric"])
def test_a_claim_built_in_python_checks_its_nested_records(build):
    """A claim takes a MetricSpec of dimension at least 2 and a SamplePlan;
    anything else is refused when the claim is built, not midway through
    run_claim."""
    with pytest.raises(InvalidParameterError):
        build()


@pytest.mark.parametrize("spec", [
    zoo.MetricSpec("funk_ball_shifted", 2, {"a": [0.3, 0.0]}),
    zoo.MetricSpec("incomplete_slab", 3),
], ids=["funk-shifted", "slab"])
def test_berwald_claim_fails_on_a_metric_that_is_not_berwald(spec):
    """Comparing G_yy at two directions tells a spray that is not quadratic
    from rounding at every sample."""
    report = run_claim(_claim(
        id="not-berwald", metric=spec, quantity="berwald_quadratic",
        target={"kind": "zero"}, tolerance=1e-7, tolerance_kind="absolute",
        samples=SamplePlan(count=25, seed=3)))
    assert not report.passed and report.count == 25
    assert report.stats["min"] > 1e-2


def test_malformed_claim_is_refused_when_built(malformed_claim_yaml):
    with pytest.raises(InvalidParameterError):
        load_claims(io.StringIO(malformed_claim_yaml))


@pytest.mark.parametrize("document", ["- id: [unclosed\n", "- id: a\n  id: b: c\n",
                                      "\t- id: a\n"],
                         ids=["unclosed-flow", "mapping-in-a-plain-scalar", "tab-indent"])
def test_a_claim_file_that_is_not_yaml_is_an_invalid_parameter(document):
    """yaml's own parse error used to escape the Python entry point; it is
    kept as the cause."""
    with pytest.raises(InvalidParameterError, match="not YAML") as err:
        load_claims(io.StringIO(document))
    assert isinstance(err.value.__cause__, yaml.YAMLError)


@pytest.mark.parametrize("document", [yaml.safe_dump(["flat-cartan"])],
                         ids=["bare-string-record"])
def test_a_claim_that_is_not_a_mapping_is_refused_as_such(document):
    """A claim file is a list of mappings: a bare-string record is refused
    so."""
    with pytest.raises(InvalidParameterError, match="claim must be a mapping"):
        load_claims(io.StringIO(document))


@pytest.mark.parametrize("document", [
    yaml.safe_dump({"id": "flat-cartan", "quantity": "mean_cartan",
                    "metric": {"kind": "euclidean", "dimension": 2}}, sort_keys=False),
    "5\n",
    "flat-cartan\n",
], ids=["one-claim-mapping", "number", "string"])
def test_a_claim_file_that_is_not_a_list_is_refused_as_such(document):
    """A document of one claim mapping was read as records named by its
    keys ("claim must be a mapping, not 'id'"), and a scalar document as
    one record; each is refused for what the file must hold."""
    with pytest.raises(InvalidParameterError,
                       match="a claim file holds a list of claim records"):
        load_claims(io.StringIO(document))


def test_an_empty_claim_file_holds_no_claim():
    assert load_claims(io.StringIO("")) == []
    assert load_claims(io.StringIO("[]\n")) == []


def test_the_shipped_claims_pass_the_checks_made_when_a_claim_is_built():
    claims = load_claims(str(Path(__file__).parents[1] / "claims" / "acceptance.yaml"))
    assert len(claims) == 23


def test_load_claims_coerces_scalar_strings():
    text = """
- id: roundtrip
  metric: {kind: euclidean, dimension: 2}
  quantity: mean_cartan
  target: {kind: zero}
  tolerance: "1e-9"
  tolerance_kind: absolute
  samples: {count: 10, seed: 1}
"""
    claims = load_claims(io.StringIO(text))
    assert len(claims) == 1
    assert claims[0].tolerance == 1e-9
    assert run_claim(claims[0]).passed


def test_closed_one_form_accepts_shifted_funk_drift():
    """gamma = S - (n+1) F / 2 is a closed 1-form for the shifted family."""
    m = zoo.make_funk_shifted([0.3, 0.0])
    result = closed_one_form_check(m, c=0.5)
    assert result.passed
    assert result.worst_sample["linearity"] <= 1e-3
    assert result.worst_sample["closedness"] <= 1e-3


def test_closed_one_form_rejects_wrong_constant():
    m = zoo.make_funk_shifted([0.3, 0.0])
    result = closed_one_form_check(m, c=0.3)
    assert not result.passed


def test_closed_one_form_flat_case_is_exactly_zero():
    m = zoo.make_minkowski(2, b=[0.2, 0.0])
    result = closed_one_form_check(m, c=0.0)
    assert result.passed
    assert result.stats["max"] <= 1e-9


def test_closed_one_form_residual_of_shifted_funk_is_rounding():
    """With gamma's x-Jacobian from jets, criterion 03's residual is
    rounding (a central difference of refits read 1.31e-11)."""
    m = zoo.make_funk_shifted([0.3, 0.0])
    result = closed_one_form_check(m, c=0.5, samples=SamplePlan(count=10, seed=23))
    assert result.stats["max"] <= 1e-13


def test_a_cartan_bound_on_a_metric_without_a_drift_norm_is_refused():
    """The Randers bound needs ||beta||_x, which the Funk metric does not expose;
    run_claim reports the refusal as the claim's failure."""
    spec = zoo.MetricSpec("funk_ball_shifted", 2, {"a": [0.3, 0.0]})
    at = TangentSample(np.array([0.1, 0.2]), np.array([1.0, 0.0]))
    with pytest.raises(InvalidParameterError, match="does not expose a drift-form norm"):
        verify._eval_cartan_bound(zoo.build_metric(spec), at, None, {})
    report = run_claim(_claim(id="funk-cartan-bound", metric=spec, quantity="cartan_bound",
                              target={"kind": "upper_bound", "value": 0.0},
                              tolerance_kind="absolute", samples=SamplePlan(count=3, seed=1)))
    assert not report.passed and "does not expose a drift-form norm" in report.detail


def test_a_rank_deficient_fit_direction_set_is_refused(funk_shifted):
    dirs = np.tile([[0.6, 0.8]], (6, 1))
    with pytest.raises(InvalidParameterError, match="rank-deficient"):
        verify._gamma_fit(funk_shifted, 0.5, np.array([0.1, 0.2]), dirs)


def _gamma_coefficients(metric, c, x, dirs):
    """gamma's fitted coefficients at x from s_curvature and F, sample by sample."""
    n = metric.dimension
    gamma = [s_curvature(metric, TangentSample(x, d))
             - (n + 1) * c * float(metric.evaluate(x, d)) for d in dirs]
    return np.linalg.lstsq(dirs, np.array(gamma), rcond=None)[0]


@pytest.mark.parametrize("spec,c", [
    (zoo.MetricSpec("randers", 2, {"model": "hyperbolic_disk", "b": [0.3, 0.1]}), 0.5),
    (zoo.MetricSpec("szabo_epsilon", 3, {"eps": 0.5}), 0.0),
    (zoo.MetricSpec("funk_ball_shifted", 2, {"a": [0.3, 0.0]}), 0.5),
], ids=lambda v: getattr(v, "kind", str(v)))
def test_gamma_jacobian_matches_a_central_difference(spec, c):
    metric = zoo.build_metric(spec)
    n = metric.dimension
    rng = np.random.default_rng(5)
    dirs = verify._fit_directions(rng, n)
    x = metric.domain.sample_interior(rng, margin=0.2)
    _, coeff = verify._gamma_fit(metric, c, x, dirs)
    assert np.allclose(coeff[:, 0], _gamma_coefficients(metric, c, x, dirs),
                       rtol=0.0, atol=1e-12)
    jac = coeff[:, 1:]
    fd = np.column_stack([richardson_derivative(
        lambda p: _gamma_coefficients(metric, c, p, dirs), x, e) for e in np.eye(n)])
    assert np.max(np.abs(jac - fd)) <= 1e-7 * max(1.0, np.max(np.abs(jac)))


def test_closed_one_form_takes_one_bundle_and_one_sphere_pass_per_point():
    """Each point evaluates F twice: once for its need-"R" bundle over the
    fit directions, once on the sphere rule."""
    m = zoo.make_funk_shifted([0.3, 0.0])
    calls = []

    def evaluate(x, y):
        calls.append(np.shape(value(y[0])))
        return m.evaluate(x, y)

    counted = dataclasses.replace(m, evaluate=evaluate)
    dirs = verify._fit_directions(np.random.default_rng(0), 2)
    verify._closed_one_form_residual(counted, 0.5, np.array([0.1, -0.2]), dirs)
    assert calls == [(len(dirs),), (512,)]


def test_a_malformed_metric_parameter_fails_only_its_claim():
    """eps: abc on a product metric is a failed report, not an exception
    that stops the suite."""
    bad = _claim(id="text-eps", metric=zoo.MetricSpec("szabo_epsilon", 3, {"eps": "abc"}))
    report = run_suite([bad, _claim()])
    assert [r.claim_id for r in report.failures()] == ["text-eps"]
    assert "eps" in report.failures()[0].detail


def test_report_serialization_round_trip():
    suite = run_suite([_claim(samples=SamplePlan(count=10, seed=2))])
    payload = json.loads(suite.to_json())
    assert payload["passed"] is True
    assert payload["claims"][0]["claim_id"] == "funk-reference-curvature"
    csv_text = suite.to_csv()
    assert "funk-reference-curvature" in csv_text
    assert csv_text.count("\n") >= 2


@pytest.mark.parametrize("spec", [
    zoo.MetricSpec("minkowski", 2, {"b": [0.3, 0.0]}),
    zoo.MetricSpec("funk_ball_shifted", 2),
], ids=lambda s: s.kind)
def test_phi_convexity_claim_passes(spec):
    claim = _claim(
        id=f"{spec.kind}-phi-convexity", metric=spec, quantity="phi_convexity",
        target={"kind": "zero"}, tolerance=1e-4, tolerance_kind="absolute",
        samples=SamplePlan(count=3, margin=0.3, seed=0),
        parameters={"t_span": [0.0, 0.5]})
    report = run_claim(claim)
    assert report.passed, report.detail
    assert report.count == 3


def test_a_claim_built_in_python_needs_an_id():
    """Claim(id=None) used to be built; a claim file's null id was refused."""
    with pytest.raises(InvalidParameterError, match="claim id"):
        _claim(id=None)


@pytest.mark.parametrize("arguments, name", [
    ({"c": "abc"}, "c"),
    ({"c": 0.5, "tol": None}, "tol"),
    ({"c": 0.5, "tol": float("nan")}, "tol"),
    ({"c": 0.5, "samples": {"count": 1}}, "samples"),
], ids=["text-c", "null-tol", "nan-tol", "samples-mapping"])
def test_closed_one_form_check_refuses_malformed_arguments_by_name(arguments, name):
    """These raised numpy's UFuncTypeError, a bare TypeError and an
    AttributeError, and a NaN tol failed every point."""
    m = zoo.make_funk_shifted([0.3, 0.0])
    with pytest.raises(InvalidParameterError, match=f"closed_one_form_check: {name}"):
        closed_one_form_check(m, **arguments)


SHIPPED = load_claims(str(Path(__file__).parents[1] / "claims" / "acceptance.yaml"))


@pytest.mark.parametrize("claim", SHIPPED + [
    _claim(id="funk-flag-curvature-fixed-edge", parameters={"u": [1.0, 0.0]})
], ids=lambda claim: claim.id)
def test_every_shipped_claim_runs_in_process(claim):
    """Each shipped claim at 2 samples and its own seed, and one flag
    curvature claim with a fixed edge u, gives a report whose verdict
    follows from its worst deviation.  Whether a claim passes is not
    asserted: `finslerkit suite` shows that, szabo-s-curvature's known
    failure included."""
    claim = dataclasses.replace(claim, samples=dataclasses.replace(claim.samples, count=2))
    report = run_claim(claim)
    assert (report.count, report.detail) == (2, "")
    assert np.all(np.isfinite(list(report.stats.values())))
    deviation = report.worst_sample["deviation"]
    if claim.target["kind"] == "exceeds":  # the deviation is target minus the largest value
        assert report.passed == (deviation < 0.0)
    else:
        assert report.passed == (deviation <= claim.tolerance)
