"""Pointwise differential-geometric quantities."""

import dataclasses
import hashlib
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from finslerkit import flow, geometry, quadrature, verify, zoo
from finslerkit.errors import (DegenerateFlagError, DegenerateMetricError, DomainError,
                               FinslerError, InvalidParameterError, OutOfOrderError,
                               QuadratureToleranceError)
from finslerkit.geometry import (TangentSample, cartan_norm, distortion,
                                 flag_curvature, fundamental_tensor,
                                 local_geometry, mean_cartan, mean_landsberg,
                                 riemann, s_curvature, spray, volume_density)
from finslerkit.jets import extract, jsqrt, seed, value
from finslerkit.quadrature import ball_volume, sphere_area, sphere_rule

CONST_SPD = np.array([[2.0, 0.3], [0.3, 1.5]])

# Frozen outputs of oracles/slab_landsberg_reference.py (60-digit mpmath
# run, values rounded to 20 significant digits).
SLAB_SAMPLES = [
    (0.1, 0.2, 0.0, 0.3, -0.4, 1.0),
    (-0.3, 0.1, 0.5, 1.0, 0.2, -0.7),
    (0.4, -0.2, -1.0, -0.5, 0.8, 0.3),
    (0.0, 0.5, 2.0, 0.9, -0.1, 0.6),
    (0.25, 0.25, -0.5, -0.2, -0.3, -1.1),
]
SLAB_LANDSBERG_NORMS = [
    1.2991218170011759355,
    1.9841643961501274692,
    1.8271312499804580271,
    2.6345806458301324445,
    1.0716223072130419624,
]

# Frozen output of oracles/randers_volume_reference.py (4000^2 grid count
# of the unit ball of |y| + 0.5 y_1 in the plane).
RANDERS_GRID_DENSITY = 0.6495083510


def _const_riemannian():
    """F = sqrt(y^T A y) for the constant SPD matrix A, as a MetricField."""
    a = CONST_SPD
    return geometry.MetricField(
        dimension=2, domain=zoo.Box(np.full(2, -2.0), np.full(2, 2.0)),
        evaluate=lambda x, y: jsqrt(a[0, 0] * y[0] * y[0] + 2.0 * a[0, 1] * y[0] * y[1]
                                    + a[1, 1] * y[1] * y[1]),
        name="const_riemannian")


def _sample(metric, seed_=0, count=1):
    rng = np.random.default_rng(seed_)
    out = []
    for _ in range(count):
        x = metric.domain.sample_interior(rng, margin=0.1)
        y = rng.standard_normal(metric.dimension)
        out.append(TangentSample(x, y))
    return out if count > 1 else out[0]


def test_euclidean_fundamental_tensor_is_identity():
    m = zoo.make_euclidean(3)
    at = TangentSample(np.zeros(3), np.array([0.4, -1.0, 0.7]))
    ft = fundamental_tensor(m, at)
    assert np.allclose(ft.g, np.eye(3), atol=1e-12)
    assert np.allclose(ft.g_inverse, np.eye(3), atol=1e-12)


def test_riemannian_fundamental_tensor_equals_coefficient_matrix():
    m = _const_riemannian()
    for at in _sample(m, seed_=1, count=5):
        ft = fundamental_tensor(m, at)
        assert np.allclose(ft.g, CONST_SPD, atol=1e-11)


def test_product_fundamental_tensor_block_structure(szabo):
    """g splits into 2 f_ss ybar ybar^T + f_s gbar blocks plus mixed terms."""
    profile = szabo.extras["profile"]
    a1, a2 = szabo.extras["factors"]
    n1 = a1.dimension
    for at in _sample(szabo, seed_=2, count=5):
        x1, x2 = at.x[:n1], at.x[n1:]
        y1, y2 = at.y[:n1], at.y[n1:]
        g1 = fundamental_tensor(a1, TangentSample(x1, y1)).g
        g2 = fundamental_tensor(a2, TangentSample(x2, y2)).g
        s = float(y1 @ g1 @ y1)
        t = float(y2 @ g2 @ y2)
        p = profile.partials(s, t)
        yb1 = g1 @ y1
        yb2 = g2 @ y2
        g = fundamental_tensor(szabo, at).g
        top = 2.0 * p["f_ss"] * np.outer(yb1, yb1) + p["f_s"] * g1
        bot = 2.0 * p["f_tt"] * np.outer(yb2, yb2) + p["f_t"] * g2
        mix = 2.0 * p["f_st"] * np.outer(yb1, yb2)
        assert np.allclose(g[:n1, :n1], top, atol=1e-10)
        assert np.allclose(g[n1:, n1:], bot, atol=1e-10)
        assert np.allclose(g[:n1, n1:], mix, atol=1e-10)


def test_minkowski_spray_vanishes():
    m = zoo.make_minkowski(2, b=[0.4, 0.1])
    for at in _sample(m, seed_=3, count=5):
        sd = spray(m, at)
        assert np.allclose(sd.G, 0.0, atol=1e-12)
        assert np.allclose(sd.N, 0.0, atol=1e-12)


def test_shifted_funk_spray_is_projective(funk_shifted):
    """G^i = P y^i with P built from F and the shift one-form."""
    a = np.asarray(funk_shifted.extras["shift"], dtype=float)
    for at in _sample(funk_shifted, seed_=4, count=8):
        F = float(funk_shifted.evaluate(at.x, at.y))
        drift = float(a @ at.y) / (1.0 + float(a @ at.x))
        theta = F - drift
        P = 0.5 * (theta - drift)
        sd = spray(m := funk_shifted, at)
        assert np.allclose(sd.G, P * at.y, atol=1e-8 * max(1.0, abs(P)))


def test_product_spray_splits_into_factor_sprays(szabo):
    a1, a2 = szabo.extras["factors"]
    n1 = a1.dimension
    for at in _sample(szabo, seed_=5, count=5):
        sd = spray(szabo, at)
        s1 = spray(a1, TangentSample(at.x[:n1], at.y[:n1]))
        s2 = spray(a2, TangentSample(at.x[n1:], at.y[n1:]))
        assert np.allclose(sd.G[:n1], s1.G, atol=1e-8)
        assert np.allclose(sd.G[n1:], s2.G, atol=1e-8)


def test_minkowski_riemann_vanishes():
    m = zoo.make_minkowski(3)
    at = _sample(m, seed_=6)
    assert np.allclose(riemann(m, at).R, 0.0, atol=1e-12)


def test_slab_riemann_vanishes(slab):
    for at in _sample(slab, seed_=7, count=5):
        assert np.allclose(riemann(slab, at).R, 0.0, atol=1e-8)


def test_flag_curvature_is_pole_invariant(funk_shifted):
    rng = np.random.default_rng(8)
    at = _sample(funk_shifted, seed_=8)
    u = rng.standard_normal(2)
    k0 = flag_curvature(funk_shifted, at, u)
    k1 = flag_curvature(funk_shifted, at, u + 0.7 * at.y)
    k2 = flag_curvature(funk_shifted, at, 3.2 * u)
    assert k1 == pytest.approx(k0, rel=1e-9)
    assert k2 == pytest.approx(k0, rel=1e-9)


def test_flag_curvature_rejects_degenerate_pole(funk_shifted):
    at = _sample(funk_shifted, seed_=9)
    with pytest.raises(DegenerateFlagError):
        flag_curvature(funk_shifted, at, 2.0 * at.y)


def test_volume_density_euclidean_is_one():
    m = zoo.make_euclidean(2)
    assert volume_density(m, np.zeros(2)) == pytest.approx(1.0, abs=1e-10)


def test_volume_density_riemannian_is_sqrt_det():
    m = _const_riemannian()
    want = np.sqrt(np.linalg.det(CONST_SPD))
    got = volume_density(m, np.array([0.3, -0.5]))
    assert got == pytest.approx(want, abs=1e-8)


def test_volume_density_randers_matches_grid_count():
    m = zoo.make_randers(b=[0.5, 0.0])
    got = volume_density(m, np.zeros(2))
    assert got == pytest.approx(RANDERS_GRID_DENSITY, rel=1e-4)


def test_distortion_euclidean_vanishes():
    m = zoo.make_euclidean(2)
    at = TangentSample(np.zeros(2), np.array([0.3, 0.9]))
    assert distortion(m, at) == pytest.approx(0.0, abs=1e-10)


def test_distortion_riemannian_vanishes():
    m = _const_riemannian()
    for at in _sample(m, seed_=10, count=3):
        assert distortion(m, at) == pytest.approx(0.0, abs=1e-7)


def test_distortion_minkowski_is_position_independent():
    m = zoo.make_minkowski(2, b=[0.4, 0.0])
    y = np.array([0.7, -0.2])
    t1 = distortion(m, TangentSample(np.array([0.1, 0.3]), y))
    t2 = distortion(m, TangentSample(np.array([-0.6, 0.2]), y))
    assert t1 == pytest.approx(t2, abs=1e-8)


def test_mean_cartan_riemannian_vanishes():
    m = _const_riemannian()
    for at in _sample(m, seed_=11, count=5):
        assert np.allclose(mean_cartan(m, at).I, 0.0, atol=1e-10)


def test_product_mean_cartan_is_radial(szabo):
    """I_a = (h_s / h) ybar_a where h = f_s^(n1-1) f_t^(n2-1) C, C = f_s f_t - 2 f f_st."""
    profile = szabo.extras["profile"]
    a1, a2 = szabo.extras["factors"]
    n1, n2 = a1.dimension, a2.dimension
    for at in _sample(szabo, seed_=12, count=5):
        g1 = fundamental_tensor(a1, TangentSample(at.x[:n1], at.y[:n1])).g
        g2 = fundamental_tensor(a2, TangentSample(at.x[n1:], at.y[n1:])).g
        s = float(at.y[:n1] @ g1 @ at.y[:n1])
        t = float(at.y[n1:] @ g2 @ at.y[n1:])
        js, jt = seed([s, t], [np.array([1.0, 0.0]), np.array([0.0, 1.0])], 3)
        fj = profile.f(js, jt)
        f, f_s, f_t = extract(fj, (0, 0)), extract(fj, (1, 0)), extract(fj, (0, 1))
        f_ss, f_st = extract(fj, (2, 0)), extract(fj, (1, 1))
        f_sst = extract(fj, (2, 1))
        C = f_s * f_t - 2.0 * f * f_st
        C_s = f_ss * f_t - f_s * f_st - 2.0 * f * f_sst
        ratio = (n1 - 1) * f_ss / f_s + (n2 - 1) * f_st / f_t + C_s / C
        ybar = np.concatenate([g1 @ at.y[:n1], np.zeros(n2)])
        want = ratio * ybar
        got = mean_cartan(szabo, at).I
        scale = max(1.0, np.linalg.norm(want))
        assert np.allclose(got[:n1], want[:n1], atol=1e-8 * scale)


def test_mean_landsberg_riemannian_vanishes():
    m = _const_riemannian()
    for at in _sample(m, seed_=13, count=3):
        assert np.allclose(mean_landsberg(m, at).J, 0.0, atol=1e-8)


def test_mean_landsberg_product_vanishes(szabo):
    for at in _sample(szabo, seed_=14, count=3):
        assert np.allclose(mean_landsberg(szabo, at).J, 0.0, atol=1e-7)


def test_mean_landsberg_slab_matches_oracle(slab):
    for sample, want in zip(SLAB_SAMPLES, SLAB_LANDSBERG_NORMS):
        at = TangentSample(np.array(sample[:3]), np.array(sample[3:]))
        lj = mean_landsberg(slab, at)
        got = lj.conorm(lj.J)
        assert got == pytest.approx(want, rel=1e-10)


def test_s_curvature_riemannian_vanishes():
    m = _const_riemannian()
    for at in _sample(m, seed_=15, count=3):
        assert s_curvature(m, at) == pytest.approx(0.0, abs=1e-4)


def test_cartan_norm_riemannian_vanishes():
    m = _const_riemannian()
    assert cartan_norm(m, np.array([0.2, 0.1])).value == pytest.approx(
        0.0, abs=1e-8)


def test_cartan_norm_randers_monotone_and_bounded():
    bound = 3.0 / np.sqrt(2.0)
    values = []
    for b in np.arange(0.0, 0.95, 0.1):
        m = zoo.make_randers(b=[b, 0.0])
        values.append(cartan_norm(m, np.zeros(2)).value)
    assert all(np.diff(values) > -1e-12)
    assert all(v < bound for v in values)


def test_local_geometry_agrees_across_needs_and_refuses_the_rest(szabo):
    at = _sample(szabo, seed_=18)
    full = geometry.local_geometry(szabo, at, "R")
    for need, fields in (("g", ("F", "g", "g_inverse")), ("I", ("I",)),
                         ("G", ("G",)), ("N", ("N", "I"))):
        lg = geometry.local_geometry(szabo, at, need)
        for name in fields:
            want = np.asarray(getattr(full, name))
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.allclose(getattr(lg, name), want, rtol=0, atol=1e-12 * scale)
    with pytest.raises(OutOfOrderError):
        geometry.local_geometry(szabo, at, "I").G
    with pytest.raises(OutOfOrderError):
        geometry.local_geometry(szabo, at, "N").R
    with pytest.raises(InvalidParameterError, match="need 'Q'"):  # a bare KeyError once
        geometry.local_geometry(szabo, at, "Q")


@pytest.mark.parametrize("need, order", [("N", 3), ("R", 4)])
def test_a_phase_bundle_keeps_f2_up_to_chart_order_two(szabo, need, order):
    """F^2 is read up to chart order 2; those coefficients are the bits of
    the uncapped jet, and one of chart order 3 is refused, not returned."""
    at = _sample(szabo, seed_=18)
    f2 = geometry.local_geometry(szabo, at, need).f2
    assert f2.cap == (3, 2)
    js = seed(np.concatenate([at.x, at.y]), list(np.eye(6)), order)
    f = szabo.evaluate(js[:3], js[3:])
    uncapped = f * f
    for alpha in [(0, 0, 0, 2, 1, 0), (1, 0, 0, 0, 1, 0), (0, 1, 1, 0, 0, 1), (2, 0, 0, 0, 0, 0)]:
        if sum(alpha) <= order:
            assert extract(f2, alpha) == extract(uncapped, alpha)
    with pytest.raises(OutOfOrderError, match="cap"):
        extract(f2, (1, 1, 1, 0, 0, 0))
    assert geometry.local_geometry(szabo, at, "G").f2.cap == (3, 1)  # G reads chart order 1


@pytest.mark.parametrize("spec", zoo.default_specs(), ids=lambda s: s.kind)
def test_a_need_g_bundle_capped_at_chart_order_one_keeps_the_bits(spec):
    """A need-"G" phase jet keeps F^2 up to chart order 1 only; F, g and G
    are the bits of the jet that keeps chart order 2, for one sample and
    for a stack."""
    m = zoo.build_metric(spec)
    n = m.dimension
    samples = _sample(m, seed_=31, count=4)
    stack = TangentSample(np.stack([at.x for at in samples]), np.stack([at.y for at in samples]))
    for at in (samples[0], stack):
        lg = geometry.local_geometry(m, at, "G")
        assert lg.f2.cap == (n, 1)
        js = seed(np.concatenate([at.x, at.y], axis=-1).T, np.eye(2 * n), 2, (n, 2))
        assert js[0].cap is None  # chart order 2 is all an order-2 jet has
        f = m.evaluate(js[:n], js[n:])
        full = geometry.LocalGeometry(at=at, f=f, f2=f * f, ys=js[n:])
        for name in ("F", "g", "G"):
            got, want = np.asarray(getattr(lg, name)), np.asarray(getattr(full, name))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def _sign_changing_metric():
    """F = |y| + 1.5 y^1 + 0.1 x^1 y^2: negative where y points along -e1."""
    return geometry.MetricField(
        dimension=2, domain=zoo.Box(np.full(2, -1.0), np.full(2, 1.0)),
        evaluate=lambda x, y: (jsqrt(y[0] * y[0] + y[1] * y[1]) + 1.5 * y[0]
                               + 0.1 * x[0] * y[1]),
        name="sign_changing")


@pytest.mark.parametrize("operation", [
    fundamental_tensor, spray, riemann, mean_cartan, mean_landsberg,
    s_curvature,
    lambda m, at: flow.integrate_geodesic(m, at.x, at.y, (0.0, 0.1), nodes=9),
], ids=["fundamental_tensor", "spray", "riemann", "mean_cartan",
        "mean_landsberg", "s_curvature", "integrate_geodesic"])
def test_non_positive_F_is_a_degenerate_metric(operation):
    m = _sign_changing_metric()
    at = TangentSample(np.array([0.3, 0.1]), np.array([-1.0, 0.2]))
    assert float(m.evaluate(at.x, at.y)) < 0.0
    with pytest.raises(DegenerateMetricError):
        operation(m, at)


def test_s_curvature_honours_quadrature_tolerance(szabo):
    at = _sample(szabo, seed_=16)
    assert s_curvature(szabo, at, tol=1e-6) == s_curvature(szabo, at)
    with pytest.raises(QuadratureToleranceError):
        s_curvature(szabo, at, tol=1e-30)


def test_one_f2_jet_per_sample(monkeypatch, funk_shifted):
    """Each public tensor call and Jacobi right-hand side evaluates F^2
    once, through _y_jets or _phase_jets; a cartan_norm scan and a torsion
    trace evaluate it once, on a stack of every direction or node."""
    calls = []
    for name in ("_y_jets", "_phase_jets"):
        original = getattr(geometry, name)

        def counted(metric, x, y, order, original=original):
            calls.append(x.shape[:-1])
            return original(metric, x, y, order)

        monkeypatch.setattr(geometry, name, counted)
    m = funk_shifted
    at = _sample(m, seed_=17)
    u = np.array([0.3, -1.0])
    for operation in (fundamental_tensor, spray, riemann, mean_cartan,
                      mean_landsberg, s_curvature, distortion,
                      lambda m, at: flag_curvature(m, at, u)):
        calls.clear()
        operation(m, at)
        assert len(calls) == 1
    calls.clear()
    cartan_norm(m, at.x, coarse=8, refine=False)
    assert calls == [(8,)]

    trace = flow.integrate_geodesic(m, at.x, at.y, (0.0, 0.2), nodes=9)
    calls.clear()
    flow.torsion_trace(m, trace, check_tol=None)
    assert calls == [(len(trace.times),)]
    calls.clear()
    flow.connection_along(m, trace)
    assert calls == [(len(trace.times),)]

    rhs_calls = []
    solve_ivp = flow.solve_ivp

    def counted_solve_ivp(fun, *args, **kwargs):
        def rhs(t, state):
            rhs_calls.append(t)
            return fun(t, state)
        return solve_ivp(rhs, *args, **kwargs)

    monkeypatch.setattr(flow, "solve_ivp", counted_solve_ivp)
    calls.clear()
    flow.jacobi_propagate(m, trace, np.array([0.0, 1.0]), np.zeros(2), tol=1e-6)
    assert rhs_calls and len(calls) == len(rhs_calls)


# want: the maxima a Nelder-Mead refine over unnormalised directions finds
@pytest.mark.parametrize("x, want", [
    ((0.1, 0.2), 0.66168940434123),
    ((-0.3, 0.05), 0.07864839435196),
])
def test_cartan_norm_refines_along_the_angle(funk_shifted, monkeypatch, x, want):
    x = np.array(x)
    dense = cartan_norm(funk_shifted, x, coarse=2000, refine=False).value
    bundles = []
    real = geometry.local_geometry
    monkeypatch.setattr(geometry, "local_geometry",
                        lambda *args: bundles.append(1) or real(*args))
    result = cartan_norm(funk_shifted, x)
    assert len(bundles) <= 130
    assert result.value == pytest.approx(want, rel=0, abs=1e-12)
    assert result.value >= dense
    assert np.linalg.norm(result.direction) == pytest.approx(1.0, abs=1e-14)


def _nelder_mead_cartan_norm(metric, x):
    """The n >= 3 ascent cartan_norm used before its compass search, kept
    as a reference: Nelder-Mead on an unnormalised vector d from the best
    scanned direction, reading the norm at d/|d|."""
    from scipy.optimize import minimize

    def negative_norm(d):
        lg = local_geometry(metric, TangentSample(x, d / np.linalg.norm(d)), "I")
        return -(lg.conorm(lg.I) * lg.F)

    scan = cartan_norm(metric, x, refine=False)
    res = minimize(negative_norm, scan.direction, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400})
    return max(scan.value, -res.fun)


@pytest.mark.parametrize("fixture", ["szabo", "slab"])
def test_cartan_norm_compass_ascent_is_cheap_and_reaches_nelder_mead(request, fixture,
                                                                     monkeypatch):
    """At 50 seeded points, the n = 3 compass search builds at most 38
    bundles per call (Nelder-Mead built about 190, one per vertex), and
    its value is never below Nelder-Mead's by more than 1e-9 relative."""
    metric = request.getfixturevalue(fixture)
    rng = np.random.default_rng(29)
    points = [metric.domain.sample_interior(rng, margin=0.1) for _ in range(50)]
    wants = [_nelder_mead_cartan_norm(metric, x) for x in points]
    bundles = []
    real = geometry.local_geometry
    monkeypatch.setattr(geometry, "local_geometry",
                        lambda *args: bundles.append(1) or real(*args))
    for x, want in zip(points, wants):
        bundles.clear()
        result = cartan_norm(metric, x)
        assert len(bundles) <= 38
        assert result.value >= want * (1.0 - 1e-9)
        assert np.linalg.norm(result.direction) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("coarse", [0, -3, 1.5, True, "8"])
@pytest.mark.parametrize("fixture", ["funk_shifted", "szabo"])
def test_cartan_norm_refuses_a_scan_size_that_is_not_a_positive_whole_number(
        request, fixture, coarse):
    metric = request.getfixturevalue(fixture)
    x = np.zeros(metric.dimension)
    with pytest.raises(InvalidParameterError, match="coarse"):
        cartan_norm(metric, x, coarse=coarse, refine=False)


_VIEWS = {
    "local_geometry": lambda m, at: local_geometry(m, at, "R").R,
    "fundamental_tensor": fundamental_tensor,
    "spray": spray,
    "riemann": riemann,
    "flag_curvature": lambda m, at: flag_curvature(m, at, at.y),
    "mean_cartan": mean_cartan,
    "mean_landsberg": mean_landsberg,
    "s_curvature": s_curvature,
    "distortion": distortion,
}


@pytest.mark.parametrize("view", list(_VIEWS))
@pytest.mark.parametrize("x, y", [
    (np.full(2, 0.1), np.ones(3)),
    (np.full(3, 0.1), np.ones(3)),
    (np.full((4, 2), 0.1), np.ones((3, 2))),
    (np.full((2, 3), 0.1), np.ones((2, 3))),
    (np.full((2, 3, 2), 0.1), np.ones((2, 3, 2))),
    (0.1, 1.0),
    (np.zeros((0, 2)), np.zeros((0, 2))),
], ids=["y-of-3", "both-of-3", "stacks-of-4-and-3", "stack-of-3-vectors",
        "two-sample-axes", "scalars", "stack-of-none"])
def test_a_tangent_sample_of_the_wrong_shape_is_refused_by_every_view(funk_shifted, view,
                                                                      x, y):
    """x and y must share one shape, (n,) or (K, n) with K >= 1; each view
    used to raise a bare numpy error (an IndexError for K = 0) or read the
    wrong coordinates."""
    with pytest.raises(InvalidParameterError, match="tangent sample"):
        _VIEWS[view](funk_shifted, TangentSample(x, y))


@pytest.mark.parametrize("x, y", [
    (["a", "b"], [1.0, 0.0]),
    ([0.1, 0.2], [1.0, "b"]),
    ([0.1, [0.2, 0.3]], [1.0, 0.0]),
    ({"x": 0.1}, [1.0, 0.0]),
], ids=["text-x", "text-in-y", "ragged-x", "mapping-x"])
def test_a_tangent_sample_that_is_not_numbers_is_refused(x, y):
    """Each raised numpy's bare ValueError or TypeError."""
    with pytest.raises(InvalidParameterError, match="tangent sample"):
        TangentSample(x, y)


@pytest.mark.parametrize("x, y", [
    ([0.1, 0.2], [True, False]),
    ([0.1, 0.2], [np.True_, 0.5]),
    ([True, 0.2], [0.3, 0.4]),
    ([0.1, 0.2], np.array([False, True])),
    ([[0.1, 0.2]], [[0.5, True]]),
], ids=["bools", "numpy-bool", "bool-in-x", "bool-array", "stack-with-a-bool"])
def test_a_tangent_sample_with_a_bool_entry_is_refused(funk_shifted, x, y):
    """y = [True, False] was read as [1.0, 0.0]: fundamental_tensor
    returned that direction's g."""
    with pytest.raises(InvalidParameterError, match="tangent sample needs numbers"):
        fundamental_tensor(funk_shifted, TangentSample(x, y))


@pytest.mark.parametrize("y", [[np.inf, 0.0], [0.3, np.nan], [[0.3, 0.4], [-np.inf, 0.1]]],
                         ids=["inf", "nan", "stack-with-an-inf"])
def test_a_tangent_direction_that_is_not_finite_is_named(funk_shifted, y):
    """It used to give RuntimeWarnings and then "F = nan is not positive";
    the bundle gate names y before any jet is built."""
    x = np.full(np.shape(y), 0.1)
    with pytest.raises(DegenerateMetricError, match=r"y = \[.*\] is not finite"):
        fundamental_tensor(funk_shifted, TangentSample(x, y))


@pytest.mark.parametrize("y", [[1e200, 0.0], [1e-160, 2e-160], [1e-200, 0.0],
                               [[0.3, 0.4], [1e200, 0.0]]],
                         ids=["huge", "tiny", "tinier", "stack-with-a-huge-row"])
def test_a_tangent_direction_of_extreme_size_is_refused_by_name(funk_shifted, y):
    """Each used to give overflow or invalid-value RuntimeWarnings and then
    "F = nan is not positive", which names the wrong cause."""
    x = np.full(np.shape(y), 0.1)
    with pytest.raises(InvalidParameterError, match=r"y = \[.*\] has largest entry .* outside"):
        fundamental_tensor(funk_shifted, TangentSample(x, y))


@pytest.mark.parametrize("spec", zoo.default_specs(), ids=lambda s: s.kind)
def test_every_kind_resolves_a_tangent_direction_at_the_ends_of_the_size_range(spec):
    """At the ends of the accepted range every default kind gives finite
    quantities at every need, without a RuntimeWarning (or raises a
    FinslerError, as the implicit Funk solve does at the tiny end)."""
    m = zoo.build_metric(spec)
    rng = np.random.default_rng(3)
    x = m.domain.sample_interior(rng)
    d = rng.normal(size=m.dimension)
    d /= np.abs(d).max()
    for size in geometry.Y_SIZE_RANGE:
        for need, fields in (("g", "F g g_inverse"), ("I", "I"), ("G", "G"),
                             ("N", "N G_x"), ("R", "G_xy G_yy R J")):
            try:
                lg = local_geometry(m, TangentSample(x, d * size), need)
            except FinslerError:
                continue
            for name in fields.split():
                assert np.isfinite(getattr(lg, name)).all(), (size, need, name)
    below, above = geometry.Y_SIZE_RANGE[0] * 0.5, geometry.Y_SIZE_RANGE[1] * 2.0
    for size in (below, above):
        with pytest.raises(InvalidParameterError, match="outside"):
            local_geometry(m, TangentSample(x, d * size), "g")


def test_a_point_that_is_not_finite_is_still_outside_the_domain(funk_shifted):
    """The domain check comes before the check of y."""
    with pytest.raises(DomainError):
        fundamental_tensor(funk_shifted, TangentSample([np.nan, 0.1], [np.inf, 0.0]))


def test_s_curvature_refuses_a_stack_before_building_a_bundle(funk_shifted, monkeypatch):
    """S is one number per sample and takes one sample; a (K, n) stack
    used to build a K-row bundle and then fail in float()."""
    bundles = []
    real = geometry.local_geometry
    monkeypatch.setattr(geometry, "local_geometry",
                        lambda *args: bundles.append(1) or real(*args))
    at = TangentSample(np.full((3, 2), 0.1), np.eye(2)[[0, 1, 0]])
    with pytest.raises(InvalidParameterError, match="one tangent sample"):
        s_curvature(funk_shifted, at)
    assert bundles == []


@pytest.mark.parametrize("y, u", [
    ([1.0, 0.0], [np.nan, 1.0]),
    ([1.0, 0.0], ["a", 1.0]),
    ([1.0, 0.0], [0.0, 1.0, 0.0]),
    ([1.0, 0.0], [[0.0, 1.0]]),
    (np.eye(2)[[0, 1, 0]], np.eye(2)[[1, 0]]),
    ([0.3, 0.4], [True, False]),
    ([0.3, 0.4], [np.True_, np.float64(0.5)]),
    ([0.3, 0.4], [True, 0.5]),
    ([0.3, 0.4], np.array([False, True])),
    (np.eye(2)[[0, 1]] + 0.1, [[0.5, 1.0], [1.0, True]]),
], ids=["nan", "not-a-number", "of-3", "of-shape-1x2", "stack-of-2-for-3", "bools",
        "numpy-bool", "mixed-bool", "bool-array", "stack-with-a-bool"])
def test_a_flag_edge_that_is_not_finite_numbers_of_the_pole_shape_is_refused(
        funk_shifted, y, u):
    """A NaN edge used to give a NaN curvature, an entry that is not a
    number numpy's bare ValueError, and a bool edge such as [True, False]
    a curvature, as if it were [1.0, 0.0]."""
    at = TangentSample(np.full(np.shape(y), 0.1), y)
    with pytest.raises(InvalidParameterError, match="flag_curvature: u"):
        flag_curvature(funk_shifted, at, u)


@pytest.mark.parametrize("call, name", [
    (lambda m, x: volume_density(m, x), "volume_density: x"),
    (lambda m, x: cartan_norm(m, x, coarse=16, refine=False), "cartan_norm: x"),
    (lambda m, x: flow.growth_estimate(m, x, [0.5], directions=2, coarse=16, nodes=9),
     "growth_estimate: p"),
], ids=["volume_density", "cartan_norm", "growth_estimate"])
@pytest.mark.parametrize("x", [np.zeros(3), np.zeros(1), [np.nan, 0.0], [True, 0.0]],
                         ids=["of-3", "of-1", "nan", "boolean"])
def test_a_point_that_is_not_n_finite_numbers_is_refused_by_name(funk_shifted, call, name,
                                                                 x):
    """volume_density on the plane at a point of R^3 used to return a number,
    and growth_estimate refused it only in its first geodesic."""
    with pytest.raises(InvalidParameterError, match=f"{name} = .* finite numbers"):
        call(funk_shifted, x)


@pytest.mark.parametrize("refine", ["no", 2, None, 0, np.float64(1.0)],
                         ids=["text", "two", "none", "zero", "float64"])
def test_a_refine_flag_that_is_not_a_bool_is_refused(funk_shifted, refine):
    """refine="no" used to refine, since the flag was read by truthiness."""
    with pytest.raises(InvalidParameterError, match="cartan_norm: refine"):
        cartan_norm(funk_shifted, [0.1, 0.2], coarse=16, refine=refine)


@pytest.fixture
def alone(monkeypatch):
    """Split passes as a process with no other Python thread does: the
    test process may hold idle threads of earlier tests."""
    monkeypatch.setattr(quadrature, "_alone", lambda: True)


def _is_the_rule_once(batches, points):
    """Whether the node batches F saw, each a (k, n) array, are one batch
    equal to `points`, or on a split pass exactly two whose join in one of
    the two orders is `points` (its two threads call F in either order)."""
    if len(batches) != (2 if len(points) >= quadrature.SPLIT_NODES else 1):
        return False
    return any(np.array_equal(np.concatenate(order), points)
               for order in (batches, batches[::-1]))


@pytest.mark.parametrize("fixture,nodes", [("funk_shifted", 512), ("szabo", 32768)])
def test_untoleranced_quadrature_evaluates_only_the_full_rule(request, alone, fixture, nodes):
    """With tol=None, volume_density and s_curvature evaluate F on the
    level-0 sphere rule only, never on the half-size rule: the y nodes F
    saw are the rule's points, each once, whether or not the pass is split."""
    base = request.getfixturevalue(fixture)
    points = sphere_rule(base.dimension)[0]
    assert len(points) == nodes
    batches = []

    def recorded(x, y):
        if np.ndim(value(y[0])) > 0:
            batches.append(np.column_stack([value(c) for c in y]))
        return base.evaluate(x, y)

    m = dataclasses.replace(base, evaluate=recorded)
    at = _sample(base, seed_=18)
    volume_density(m, at.x)
    assert _is_the_rule_once(batches, points)
    batches.clear()
    s_curvature(m, at)
    assert _is_the_rule_once(batches, points)


def _split_metrics():
    """Every default spec with n >= 3 and the n = 6 shifted Funk metric,
    whose 65536-node rule is the largest."""
    specs = [s for s in zoo.default_specs() if s.dimension >= 3]
    return ([pytest.param(zoo.build_metric(s), id=s.kind) for s in specs]
            + [pytest.param(zoo.make_funk_shifted([0.2, 0.1, 0.0, 0.0, 0.0, 0.1], 6),
                            id="funk_shifted-6")])


def _whole(evaluate, points):
    return evaluate(points)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("metric", _split_metrics())
def test_a_split_pass_gives_the_bits_of_one_whole_rule_evaluation(alone, metric, order):
    """Each node's x-seeded F jet is computed as it is in the whole batch,
    so the two joined halves are the whole rule's coefficients exactly."""
    from finslerkit.quadrature import SPLIT_NODES, on_nodes
    points = sphere_rule(metric.dimension)[0]
    assert len(points) >= SPLIT_NODES
    x = _sample(metric, seed_=19).x
    n = metric.dimension

    def f_coeffs(p):
        return metric.evaluate(seed(x, list(np.eye(n)), order), list(p.T)).coeffs

    assert np.array_equal(on_nodes(f_coeffs, points), f_coeffs(points))


@pytest.mark.parametrize("metric", _split_metrics()[:-1])
def test_sphere_passes_give_the_bits_of_unsplit_passes(alone, metric, monkeypatch):
    """S, sigma_F and the closed-1-form residual (the Jacobian pass) read
    the same floats when on_nodes is a plain whole-batch call."""
    at = _sample(metric, seed_=20)
    dirs = verify._fit_directions(np.random.default_rng(20), metric.dimension)

    def readings():
        return (s_curvature(metric, at), volume_density(metric, at.x),
                verify._closed_one_form_residual(metric, 0.5, at.x, dirs))

    split = readings()
    monkeypatch.setattr(geometry, "on_nodes", _whole)
    assert readings() == split


def _holds_worker_node(y, n):
    """Whether batched y nodes hold the first node of the second half of
    the level-0 S^{n-1} rule, the half a split pass gives the worker."""
    points = sphere_rule(n)[0]
    return (np.ndim(value(y[0])) > 0
            and bool(np.any((np.column_stack(y) == points[len(points) // 2]).all(axis=1))))


def test_an_error_on_the_worker_half_is_raised_and_the_worker_recovers(alone, szabo):
    """The worker's FinslerError reaches the caller, and the next pass on a
    good metric returns, so no task is left behind on the worker."""
    def failing(x, y):
        if _holds_worker_node(y, 3):
            raise DomainError("worker half")
        return szabo.evaluate(x, y)

    at = _sample(szabo, seed_=21)
    with pytest.raises(DomainError, match="worker half"):
        s_curvature(dataclasses.replace(szabo, evaluate=failing), at)
    assert np.isfinite(s_curvature(szabo, at))


@pytest.mark.parametrize("split", [True, False], ids=["split", "serial"])
def test_the_worker_half_runs_under_the_callers_errstate(alone, szabo, monkeypatch, split):
    """numpy keeps np.errstate in a context variable; the worker's half
    runs in a copy of the caller's context, so a division by zero there
    raises as it does in a serial pass."""
    def dividing(x, y):
        if _holds_worker_node(y, 3):
            np.divide(1.0, np.zeros(1))
        return szabo.evaluate(x, y)

    if not split:
        monkeypatch.setattr(geometry, "on_nodes", _whole)
    m = dataclasses.replace(szabo, evaluate=dividing)
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        volume_density(m, _sample(szabo, seed_=22).x)


def test_threads_splitting_at_once_get_the_serial_bits(alone, szabo, slab, monkeypatch):
    """Callers that split on several threads at once (a thread may start
    after a caller found itself alone) share the one worker, and each gets
    the S of an unsplit pass; four callers on two cores, switching threads
    every 10 microseconds."""
    from concurrent.futures import ThreadPoolExecutor
    cases = [(szabo, _sample(szabo, seed_=23)), (slab, _sample(slab, seed_=24))] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(s_curvature, *case) for case in cases]
            split = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(geometry, "on_nodes", _whole)
    assert split == [s_curvature(*case) for case in cases]


def test_a_pass_beside_another_python_thread_is_not_split(szabo):
    """Another Python thread (a claim thread of finslerkit suite --jobs 2)
    is taken to hold the second core: F sees the whole rule in one batch,
    on the calling thread."""
    import threading
    batches = []

    def recorded(x, y):
        if np.ndim(value(y[0])) > 0:
            batches.append(threading.current_thread())
        return szabo.evaluate(x, y)

    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        s_curvature(dataclasses.replace(szabo, evaluate=recorded), _sample(szabo, seed_=25))
    finally:
        release.set()
        other.join()
    assert batches == [threading.current_thread()]


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0, True],
                         ids=["nan", "inf", "negative", "zero", "true"])
def test_a_quadrature_tolerance_that_is_not_positive_and_finite_is_refused(funk_shifted, tol):
    """Such a `tol` is neither ignored nor read as a failed quadrature."""
    at = _sample(funk_shifted, seed_=16)
    with pytest.raises(InvalidParameterError, match="positive and finite"):
        s_curvature(funk_shifted, at, tol=tol)
    with pytest.raises(InvalidParameterError, match="positive and finite"):
        volume_density(funk_shifted, at.x, tol=tol)


_SPHERE_SUMS = """
import sys
sys.path.insert(0, {root!r})
import numpy as np
from finslerkit import verify, zoo
from finslerkit.geometry import TangentSample, s_curvature, volume_density
for metric in (zoo.make_funk_shifted([0.3, 0.0]), zoo.make_szabo_epsilon(eps=0.5),
               zoo.make_funk_shifted([0.3, 0.0, 0.1], dimension=3),
               zoo.make_funk_shifted([0.3, 0.0, 0.0, 0.1], dimension=4)):
    rng = np.random.default_rng(3)
    x = metric.domain.sample_interior(rng, margin=0.1)
    dirs = verify._fit_directions(rng, metric.dimension)
    gamma, coeff = verify._gamma_fit(metric, 0.5, x, dirs)
    values = [s_curvature(metric, TangentSample(x, dirs[0])), volume_density(metric, x),
              *gamma, *coeff.ravel()]
    print(metric.name, *(float(v).hex() for v in values))
"""


def test_sphere_sums_do_not_depend_on_the_blas_thread_count():
    """S, sigma_F and the closed-1-form fit (the Jacobian path) for n = 2,
    3 and 4 have the same bits with one BLAS thread and with two: every
    sum over a sphere rule's nodes runs on the calling thread."""
    root = os.path.dirname(os.path.dirname(geometry.__file__))
    runs = [subprocess.Popen([sys.executable, "-c", _SPHERE_SUMS.format(root=root)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            for threads in ("1", "2")]
    outputs = []
    for run in runs:
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
        outputs.append(out.splitlines())
    assert len(outputs[0]) == 4
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("level", [0, 1])
def test_cached_sphere_rules_are_read_only(n, level):
    """Every caller gets the same cached arrays, so none may edit them."""
    for table in sphere_rule(n, level):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


@pytest.mark.parametrize("n", [1, 0])
def test_no_sphere_rule_below_the_circle(n):
    with pytest.raises(InvalidParameterError):
        sphere_rule(n)


@pytest.mark.parametrize("n, level", [
    (2, -1), (2, 1.5), (2, "1"), (2, None), (2, True), (2.0, 0), (3.0, 1), ("3", 0),
    (None, 0)])
def test_sphere_rule_refuses_a_malformed_dimension_or_level(n, level):
    """n is an integer of at least 2 and level one of at least 0; a bool or
    a float is refused even when the equal int rule is cached."""
    sphere_rule(2, 1), sphere_rule(3, 1), sphere_rule(2)
    with pytest.raises(InvalidParameterError, match="sphere quadrature"):
        sphere_rule(n, level)


@pytest.mark.parametrize("n, most", [(2, 9), (3, 7), (4, 4), (5, 3)])
def test_sphere_rule_levels_stop_where_a_factor_runs_out_of_nodes(n, most):
    """The circle's 512 nodes and the 128, 16 and 8 Gauss t-nodes of the
    S^2, S^3 and S^4 rules halve down to one node, and no further."""
    points, weights = sphere_rule(n, most)
    assert len(points) >= 1 and math.isclose(weights.sum(), sphere_area(n))
    with pytest.raises(InvalidParameterError, match=f"the most is {most}"):
        sphere_rule(n, most + 1)


@pytest.mark.parametrize("n, level, digests", [
    (2, 0, ("09fcfd93b547652540d92075c1af4a41c725a568f992229b78679807bd2ca43e",
            "1633b81b4f48eb6289e1ebc599d7915a70ce92af22b8621e271c6ab3747a7c82")),
    (2, 1, ("aa5838c26beac9e717b234cd8d382c372440cfe341ce576b49e9d2e7ec43e024",
            "fcdfa8b4b985b60c7f4c74b9c5459b14881cff6c290ded0287b1538562862fc6")),
    (3, 0, ("d8ab3a605d56c0edb284182970bc9005266db1db05957d9fc93649f0af6d3d0b",
            "9df2f0b531877b089a9cb958e1196880d66168e84363a44ce51fcb15ed714b58")),
    (3, 1, ("443dd1294129f52c8aa647343f9273d0b3d993b85a0f4c3b43e16cf67476af6c",
            "db3ff1b273abfa47e7f4ba5aaef0a9f6c4aa5dc8341047a25a58c4f71282b6a8")),
])
def test_circle_and_s2_rules_keep_their_bits(n, level, digests):
    """The S^2 rule is the recursion's first step, Gauss-Legendre times the
    level + 1 circle, and gives the points and weights the dedicated S^2
    product rule gave, bit for bit."""
    points, weights = sphere_rule(n, level)
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (points, weights)) == digests


@pytest.mark.parametrize("n", range(4, 17))
def test_higher_sphere_rules_stay_within_2_to_the_16_nodes_and_shrink_by_level(n):
    """Each level has fewer nodes than the one below it, so the tol=
    comparison always reads a coarser rule."""
    sizes = [len(sphere_rule(n, level)[1]) for level in range(2)]
    assert sizes[0] <= 2 ** 16 and sizes[1] < sizes[0]


def test_no_sphere_rule_above_16_dimensions():
    """Within 2^16 nodes, S^16 would have one Gauss node a factor and no
    level-1 rule to compare against."""
    with pytest.raises(InvalidParameterError, match="dimension n = 17"):
        sphere_rule(17)


@pytest.mark.parametrize("n", range(2, 7))
def test_volume_density_of_a_minkowski_randers_metric_is_exact(n):
    """For F = |y| + <b, y>, sigma_F = (1 - |b|^2)^((n+1)/2).  The Gauss
    products resolve it to rounding for n <= 4 and to 1e-6 above; the n >= 4
    rule they replaced missed by 2.9e-5 to 7.9e-5."""
    b = np.zeros(n)
    b[0], b[-1] = 0.4, 0.2
    want = (1.0 - b @ b) ** (0.5 * (n + 1))
    got = volume_density(zoo.make_minkowski(n, b), np.zeros(n))
    assert got == pytest.approx(want, rel=1e-12 if n <= 4 else 1e-6, abs=0.0)


_SPHERE_FAULTS = """
import resource, statistics, sys
sys.path.insert(0, {root!r})
import numpy as np
from finslerkit import verify, zoo
from finslerkit.geometry import TangentSample, s_curvature
slab = zoo.make_incomplete_slab(dimension=3)
funk = zoo.make_funk_shifted([0.3, 0.0, 0.1], dimension=3)
at = TangentSample([0.1, 0.2, 0.1], [0.3, -0.4, 0.5])
dirs = verify._fit_directions(np.random.default_rng(5), 3)
for call in (lambda: s_curvature(slab, at),
             lambda: verify._closed_one_form_residual(funk, 0.5, at.x, dirs)):
    call()
    faults = []
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(statistics.median(faults), max(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_sphere_passes_after_the_first_reuse_their_pages():
    """In a fresh process that builds no n >= 4 rule, an S on the slab
    and a closed-one-form residual (whose jets carry 10 coefficients)
    re-faulted 1500 to 9000 pages per call, until the first sphere rule
    raised glibc's mmap threshold by freeing one large array."""
    import finslerkit
    root = os.path.dirname(os.path.dirname(finslerkit.__file__))
    out = subprocess.run([sys.executable, "-c", _SPHERE_FAULTS.format(root=root)],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    for line in out.stdout.splitlines():
        median, most = map(float, line.split())
        assert median == 0 and most < 64, out.stdout


_THREADS_STARTED = """
import sys, threading
sys.path.insert(0, {root!r})
from finslerkit import zoo
from finslerkit.geometry import TangentSample, s_curvature, volume_density
funk = zoo.make_funk_shifted([0.3, 0.0])
slab = zoo.make_incomplete_slab(dimension=3)
s_curvature(funk, TangentSample([0.1, 0.2], [0.3, -0.4]), tol=1e-3)
volume_density(funk, [0.1, 0.2])
print(threading.active_count())
s_curvature(slab, TangentSample([0.1, 0.2, 0.1], [0.3, -0.4, 0.5]))
print(threading.active_count())
"""


def test_only_a_split_pass_starts_the_worker_thread():
    """Passes below SPLIT_NODES (the 512-node circle) start no thread; the
    first split starts one worker, and no more."""
    import finslerkit
    root = os.path.dirname(os.path.dirname(finslerkit.__file__))
    out = subprocess.run([sys.executable, "-c", _THREADS_STARTED.format(root=root)],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "2"]


_FORKED_SPLIT = """
import os, signal, sys
sys.path.insert(0, {root!r})
from finslerkit import zoo
from finslerkit.geometry import TangentSample, s_curvature
slab = zoo.make_incomplete_slab(dimension=3)
at = TangentSample([0.1, 0.2, 0.1], [0.3, -0.4, 0.5])
parent = s_curvature(slab, at)
pid = os.fork()
if pid == 0:
    signal.alarm(30)
    os._exit(0 if s_curvature(slab, at) == parent else 1)
print(os.waitpid(pid, 0)[1])
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_child_forked_after_a_split_pass_splits_its_own():
    """A forked child runs none of its parent's threads: its split pass
    used to queue the worker's half for the parent's worker and wait for
    ever (the child's alarm ends it, status 14)."""
    import finslerkit
    root = os.path.dirname(os.path.dirname(finslerkit.__file__))
    out = subprocess.run([sys.executable, "-c", _FORKED_SPLIT.format(root=root)],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0"]


@pytest.mark.parametrize("n", [3, 4])
def test_volume_density_honours_quadrature_tolerance(n):
    """The level-1 comparison bounds the density's quadrature for every
    rule, the n >= 4 Gegenbauer products included."""
    m = zoo.make_funk_shifted([0.3] + [0.0] * (n - 1), dimension=n)
    x = np.full(n, 0.1)
    assert volume_density(m, x, tol=1e-2) == volume_density(m, x)
    with pytest.raises(QuadratureToleranceError) as err:
        volume_density(m, x, tol=1e-30)
    assert err.value.error > 0.0
    assert volume_density(m, x) == pytest.approx(
        ball_volume(n) / err.value.estimate, rel=1e-15)


def test_a_single_sample_spray_bundle_truncates_a_handful_of_jets(monkeypatch):
    """Jets of one order combine without truncation, so an unbatched need-G
    bundle truncates only where orders really differ (in the spray's
    contraction), not at every sum and product."""
    from finslerkit import jets

    calls = []
    truncated = jets.Jet.truncated

    def counted(self, order):
        calls.append(order)
        return truncated(self, order)

    monkeypatch.setattr(jets.Jet, "truncated", counted)
    m = zoo.build_metric(zoo.MetricSpec("funk_ball_shifted", 2, {"a": [0.3, 0.0]}))
    local_geometry(m, TangentSample([0.1, 0.2], [0.6, -0.4]), "G").G
    assert 0 < len(calls) <= 6


@pytest.mark.parametrize("read", ["inner", "norm", "conorm"])
@pytest.mark.parametrize("y, v", [
    ([0.3, 0.4], [1.0, 0.0, 0.0]),
    ([0.3, 0.4], ["a", 1.0]),
    ([0.3, 0.4], [np.nan, 1.0]),
    (np.eye(2)[[0, 1, 0]] + 0.1, np.eye(2)),
    ([0.3, 0.4], [True, False]),
], ids=["of-3", "not-a-number", "nan", "2x2-against-3-rows", "bools"])
def test_a_read_out_refuses_a_vector_that_is_not_finite_numbers_of_the_shape_of_y(
        funk_shifted, read, y, v):
    """Each raised numpy's bare ValueError or TypeError, or gave NaN; a
    bool vector gave a number, as if its entries were 1.0 and 0.0."""
    lg = local_geometry(funk_shifted, TangentSample(np.full(np.shape(y), 0.1), y), "I")
    args = (v, v) if read == "inner" else (v,)
    with pytest.raises(InvalidParameterError, match=f"{read}: "):
        getattr(lg, read)(*args)


@pytest.mark.parametrize("call", [
    lambda m: cartan_norm(m, [0.1]),
    lambda m: cartan_norm(m, [0.1], refine=False),
    lambda m: flow.growth_estimate(m, [0.1], [0.5], directions=1, nodes=9),
], ids=["cartan_norm", "cartan_norm-unrefined", "growth_estimate"])
def test_the_cartan_norm_of_a_one_dimensional_metric_is_refused(call):
    """Its indicatrix has no tangent direction: the ascent polled none and
    raised a bare IndexError, and the scans alone returned a value."""
    with pytest.raises(InvalidParameterError, match="dimension n >= 2"):
        call(zoo.make_riemannian("flat", 1))


_FIELDS = ("g", "g_inverse", "I", "G", "N", "R", "J")


def _fields(bundle):
    return [np.asarray(getattr(bundle, name)).tobytes() for name in _FIELDS]


def _bundle(m, samples):
    x = np.array([[0.1, 0.2], [-0.2, 0.1], [0.3, -0.1]][:samples])
    y = np.array([[0.6, -0.4], [0.2, 0.5], [-0.3, -0.7]][:samples])
    at = TangentSample(x[0], y[0]) if samples == 1 else TangentSample(x, y)
    return local_geometry(m, at, "R")


def _not_found(tmp_path):
    return None


def _fails_to_load(tmp_path):
    """A spec for a file that is no extension module: loading it raises
    ImportError."""
    import importlib.util

    path = tmp_path / "_flapack.so"
    path.write_bytes(b"not a shared object")
    return importlib.util.spec_from_file_location(geometry._FLAPACK, path)


@pytest.mark.parametrize("spec", [_not_found, _fails_to_load],
                         ids=["no-spec", "load-fails"])
@pytest.mark.parametrize("samples", [1, 3])
def test_a_bundle_factors_g_through_scipy_linalg_when_the_lapack_file_does_not_load(
        funk_shifted, monkeypatch, tmp_path, spec, samples):
    """Without the extension's file, dpotrf and dpotrs come from
    scipy.linalg.lapack, and every field has the same bits."""
    from scipy.linalg import lapack

    direct = _fields(_bundle(funk_shifted, samples))
    monkeypatch.setattr(geometry, "dpotrf", None)
    monkeypatch.setattr(geometry, "dpotrs", None)
    monkeypatch.setattr(geometry, "_flapack_spec", lambda: spec(tmp_path))
    monkeypatch.delitem(sys.modules, geometry._FLAPACK)
    assert _fields(_bundle(funk_shifted, samples)) == direct
    assert geometry.dpotrf is lapack.dpotrf and geometry.dpotrs is lapack.dpotrs


_LAPACK_THEN_SCIPY_LINALG = """
import sys
sys.path.insert(0, {root!r})
from finslerkit import geometry, zoo
geometry.fundamental_tensor(zoo.make_funk_shifted([0.3, 0.0]),
                            geometry.TangentSample([0.1, 0.2], [0.5, -0.3]))
print("scipy.linalg" in sys.modules, geometry._FLAPACK in sys.modules)
from scipy.linalg import lapack
print(geometry.dpotrf is lapack.dpotrf, geometry.dpotrs is lapack.dpotrs)
"""


def test_scipy_linalg_imported_after_a_bundle_reuses_its_lapack_functions():
    """A bundle loads scipy's LAPACK extension alone and registers it, so
    a later `import scipy.linalg` (as scipy.integrate and scipy.stats do)
    finds the same module: its dpotrf and dpotrs are the bundle's."""
    root = os.path.dirname(os.path.dirname(geometry.__file__))
    out = subprocess.run([sys.executable, "-c", _LAPACK_THEN_SCIPY_LINALG.format(root=root)],
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["False", "True", "True", "True"], out.stderr
