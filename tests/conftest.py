"""Shared fixtures, finite-difference helpers and a test deadline."""

import signal
from contextlib import contextmanager

import numpy as np
import pytest
import yaml

from finslerkit import zoo


@contextmanager
def deadline(seconds):
    """Fail the test once the block has run `seconds` of wall time.  The
    failure is not an Exception, so no `except` in the code under test
    swallows it."""
    def expire(signum, frame):
        pytest.fail(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def richardson_derivative(fun, x, direction, order=1, step=1e-3):
    """Directional derivative of `fun` at `x` by Richardson extrapolation.

    Central differences at steps h and h/2 are combined to cancel the
    leading error term. `order` may be 1 or 2.
    """
    d = np.asarray(direction, dtype=float)

    def central(h):
        if order == 1:
            return (fun(x + h * d) - fun(x - h * d)) / (2.0 * h)
        return (fun(x + h * d) - 2.0 * fun(x) + fun(x - h * d)) / (h * h)

    coarse = central(step)
    fine = central(step / 2.0)
    weight = 4.0 if order == 1 else 4.0
    return (weight * fine - coarse) / (weight - 1.0)


@pytest.fixture(scope="session")
def funk_shifted():
    return zoo.make_funk_shifted([0.3, 0.0], dimension=2)


@pytest.fixture(scope="session")
def funk_plain():
    return zoo.make_funk_shifted([0.0, 0.0], dimension=2)


@pytest.fixture(scope="session")
def slab():
    return zoo.make_incomplete_slab(dimension=3)


@pytest.fixture(scope="session")
def szabo():
    return zoo.make_szabo_epsilon(eps=0.5)


@pytest.fixture(scope="session")
def zoo_metrics():
    """One built metric per kind, keyed by kind string."""
    return {spec.kind: zoo.build_metric(spec) for spec in zoo.default_specs()}


_CLAIM = {"id": "flat-cartan", "metric": {"kind": "euclidean", "dimension": 2},
          "quantity": "mean_cartan", "target": {"kind": "zero"},
          "tolerance": 1e-9, "samples": {"count": 5, "seed": 1}}


def _edited(drop=(), **changes):
    record = {**_CLAIM, **changes}
    for key in drop:
        del record[key]
    return record


#: Claim records that must be refused when the claim is built.
MALFORMED_CLAIMS = {
    "unknown-claim-key": _edited(drop=["tolerance"], tolerence=1e-9),
    "unknown-plan-key": _edited(samples={"count": 5, "sed": 1}),
    "no-metric": _edited(drop=["metric"]),
    "closed-one-form-without-c": _edited(
        metric={"kind": "funk_ball_shifted", "dimension": 2},
        quantity="closed_one_form"),
    "constant-without-value": _edited(target={"kind": "constant"}),
    "upper-bound-without-value": _edited(target={"kind": "upper_bound"}),
    "exceeds-without-value": _edited(target={"kind": "exceeds"}),
    "unknown-tolerance-kind": _edited(tolerance_kind="relativ"),
    "relative-tolerance-on-a-zero-target": _edited(tolerance_kind="relative"),
    "relative-tolerance-on-an-exceeds-target": _edited(
        target={"kind": "exceeds", "value": 1.0}, tolerance_kind="relative"),
    "parameter-the-quantity-does-not-read": _edited(parameters={"stepp": 3}),
    "null-parameters": _edited(parameters=None),
    "null-target-value": _edited(target={"kind": "constant", "value": None}),
    "null-target": _edited(target=None),
    "number-target": _edited(target=5),
    "null-samples": _edited(samples=None),
    "null-sample-count": _edited(samples={"count": None}),
    "fractional-sample-count": _edited(samples={"count": 2.5}),
    "zero-sample-count": _edited(samples={"count": 0}),
    "null-metric": _edited(metric=None),
    "metric-kind-without-spec": _edited(metric="euclidean"),
    "null-tolerance": _edited(tolerance=None),
    "bare-string-record": "flat-cartan",
    # berwald_quadratic reads no parameters, so any `step` is refused
    "text-step": _edited(quantity="berwald_quadratic", parameters={"step": "abc"}),
    "retired-step": _edited(quantity="berwald_quadratic", parameters={"step": 1e-4}),
    "text-floor": _edited(quantity="phi_convexity", parameters={"floor": "abc"}),
    "number-t-span": _edited(quantity="phi_constancy", parameters={"t_span": 5}),
    "fractional-nodes": _edited(quantity="phi_constancy", parameters={"nodes": 2.7}),
    # the flow needs at least 2 trace nodes and a solver tolerance in (0, 1)
    "one-node-trace": _edited(quantity="phi_constancy", parameters={"nodes": 1}),
    "large-ode-tol": _edited(quantity="sskk1_residual", parameters={"ode_tol": 5.0}),
    "zero-ode-tol": _edited(quantity="phi_convexity", parameters={"ode_tol": 0.0}),
    "short-flag-edge": _edited(quantity="flag_curvature", parameters={"u": [1.0]}),
    "boolean-tolerance": _edited(tolerance=True),
    "boolean-target-value": _edited(target={"kind": "upper_bound", "value": False}),
    "boolean-step": _edited(quantity="berwald_quadratic", parameters={"step": True}),
    "boolean-floor": _edited(quantity="phi_convexity", parameters={"floor": True}),
    "boolean-flag-edge": _edited(quantity="flag_curvature", parameters={"u": [True, False]}),
    "nan-tolerance": _edited(tolerance=float("nan")),
    "infinite-c": _edited(metric={"kind": "funk_ball_shifted", "dimension": 2},
                          quantity="closed_one_form", parameters={"c": float("inf")}),
    # no flag and no sphere in one dimension: the flag pole draw never ends
    "one-dimensional-flag-curvature": _edited(metric={"kind": "euclidean", "dimension": 1},
                                              quantity="flag_curvature"),
    "one-dimensional-s-curvature": _edited(metric={"kind": "euclidean", "dimension": 1},
                                           quantity="s_curvature"),
    "zero-dimensional-metric": _edited(metric={"kind": "euclidean", "dimension": 0}),
    "negative-dimensional-metric": _edited(metric={"kind": "euclidean", "dimension": -1}),
    "negative-seed": _edited(samples={"count": 5, "seed": -1}),
    "unit-margin": _edited(samples={"count": 5, "margin": 1.0}),
    "negative-margin": _edited(samples={"count": 5, "margin": -0.1}),
}


@pytest.fixture(params=list(MALFORMED_CLAIMS.values()), ids=list(MALFORMED_CLAIMS))
def malformed_claim_yaml(request):
    """A one-claim YAML document whose claim is malformed."""
    return yaml.safe_dump([request.param], sort_keys=False)
