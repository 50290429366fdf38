"""Geodesic integration, covariant transport, and torsion traces."""

import io
import logging
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import deadline
from scipy.integrate import solve_ivp

from finslerkit import flow, geometry, zoo
from finslerkit.errors import DomainError, InvalidParameterError, ResolutionError
from finslerkit.flow import (covariant_derivative_along, growth_estimate,
                             integrate_geodesic, jacobi_propagate,
                             torsion_trace)
from finslerkit.geometry import TangentSample, local_geometry


def test_minkowski_geodesics_are_straight():
    m = zoo.make_minkowski(2, b=[0.3, 0.0])
    x0 = np.array([0.2, -0.1])
    y0 = np.array([0.5, 0.4])
    tr = integrate_geodesic(m, x0, y0, (0.0, 1.5), nodes=33)
    want = x0[None, :] + tr.times[:, None] * y0[None, :]
    assert np.abs(tr.positions - want).max() <= 1e-10
    assert np.abs(tr.velocities - y0[None, :]).max() <= 1e-10
    assert not tr.exit


def test_funk_ray_from_origin():
    """From the centre the unit-speed Funk geodesic is x(t) = (1 - e^-t) e."""
    m = zoo.make_funk_shifted([0.0, 0.0])
    tr = integrate_geodesic(m, np.zeros(2), np.array([1.0, 0.0]), (0.0, 3.0),
                            nodes=33)
    assert np.abs(tr.positions[:, 0] - (1.0 - np.exp(-tr.times))).max() <= 1e-8
    assert np.abs(tr.positions[:, 1]).max() <= 1e-10
    assert not tr.exit


def test_funk_geodesics_are_collinear():
    m = zoo.make_funk_shifted([0.0, 0.0])
    x0 = np.array([0.1, 0.2])
    y0 = np.array([0.6, -0.3])
    tr = integrate_geodesic(m, x0, y0, (0.0, 1.0), nodes=33)
    disp = tr.positions - x0[None, :]
    cross = disp[:, 0] * y0[1] - disp[:, 1] * y0[0]
    assert np.abs(cross).max() <= 1e-8


def test_sphere_great_circle_closed_form():
    m = zoo.make_riemannian(model="sphere", dimension=2)
    tr = integrate_geodesic(m, np.zeros(2), np.array([1.0, 0.0]), (0.0, 1.2),
                            nodes=33)
    assert np.abs(tr.positions[:, 0] - np.tan(tr.times)).max() <= 1e-7
    assert np.abs(tr.positions[:, 1]).max() <= 1e-10


def test_hyperbolic_radial_geodesic_closed_form():
    m = zoo.make_riemannian(model="hyperbolic_disk", dimension=2)
    tr = integrate_geodesic(m, np.zeros(2), np.array([1.0, 0.0]), (0.0, 2.0),
                            nodes=33)
    assert np.abs(tr.positions[:, 0] - np.tanh(tr.times)).max() <= 1e-7


def test_speed_drift_stays_small(funk_shifted):
    tr = integrate_geodesic(funk_shifted, np.array([0.1, -0.2]),
                            np.array([0.8, 0.5]), (0.0, 1.0), nodes=33)
    assert tr.speed_drift <= 1e-8


def test_geodesic_trace_reports_solver_work(funk_shifted, monkeypatch):
    bundles = []
    real = flow.local_geometry
    monkeypatch.setattr(flow, "local_geometry",
                        lambda *args: bundles.append(1) or real(*args))
    tr = integrate_geodesic(funk_shifted, np.array([0.1, -0.2]),
                            np.array([0.8, 0.5]), (0.0, 1.0), nodes=33)
    assert tr.steps > 0 and tr.nfev > tr.steps
    assert tr.nfev == len(bundles)  # one spray bundle per right-hand side


def test_velocity_is_parallel_along_geodesics(funk_shifted):
    tr = integrate_geodesic(funk_shifted, np.array([0.1, -0.2]),
                            np.array([0.8, 0.5]), (0.0, 1.0), nodes=33)
    dv = covariant_derivative_along(funk_shifted, tr, tr.velocities)
    scale = np.abs(tr.velocities).max()
    assert np.abs(dv).max() <= 1e-7 * scale


def test_derivative_of_scaled_velocity_field(funk_shifted):
    """D(t sigma-dot) = sigma-dot by the Leibniz rule."""
    tr = integrate_geodesic(funk_shifted, np.array([0.1, -0.2]),
                            np.array([0.8, 0.5]), (0.0, 1.0), nodes=33)
    field = tr.times[:, None] * tr.velocities
    dv = covariant_derivative_along(funk_shifted, tr, field)
    assert np.abs(dv - tr.velocities).max() <= 1e-6


def test_sphere_unit_normal_is_parallel():
    """The chart-rescaled unit normal along a great circle has DV = 0."""
    m = zoo.make_riemannian(model="sphere", dimension=2)
    tr = integrate_geodesic(m, np.zeros(2), np.array([0.5, 0.0]), (0.0, 2.4),
                            nodes=33)
    # conformal factor 2 / (1 + |x|^2), so the unit normal is (1 + x^2) / 2 e2
    V = (1.0 + tr.positions[:, 0] ** 2)[:, None] / 2.0 * np.array([[0.0, 1.0]])
    dv = covariant_derivative_along(m, tr, V)
    assert np.abs(dv).max() <= 1e-8


def test_riemannian_torsion_trace_vanishes():
    m = zoo.make_riemannian(model="hyperbolic_disk", dimension=2)
    tr = integrate_geodesic(m, np.array([0.1, 0.0]), np.array([0.4, 0.3]),
                            (0.0, 1.0), nodes=33)
    tt = torsion_trace(m, tr, check_tol=None)
    assert np.abs(tt.I_of_t).max() <= 1e-9
    assert np.abs(tt.residual_of_t).max() <= 1e-8


def test_torsion_routes_that_disagree_above_check_tol_raise(funk_shifted):
    """The two routes to DI agree to about 2e-11 here, above a check_tol of 1e-300."""
    tr = integrate_geodesic(funk_shifted, np.array([0.1, -0.2]), np.array([0.8, 0.5]),
                            (0.0, 1.0), nodes=33)
    assert 0.0 < torsion_trace(funk_shifted, tr).di_disagreement < 1e-5
    with pytest.raises(ResolutionError, match="routes disagree"):
        torsion_trace(funk_shifted, tr, check_tol=1e-300)


def test_product_torsion_is_parallel(szabo):
    rng = np.random.default_rng(3)
    x0 = szabo.domain.sample_interior(rng, margin=0.2)
    y0 = rng.standard_normal(3)
    tr = integrate_geodesic(szabo, x0, y0, (0.0, 0.6), nodes=33)
    tt = torsion_trace(szabo, tr, check_tol=None)
    scale = max(1.0, np.abs(tt.I_of_t).max())
    assert np.abs(tt.DI_of_t).max() <= 1e-6 * scale
    phi = tt.phi_of_t
    assert np.abs(phi - phi[0]).max() <= 1e-6 * max(1.0, abs(phi[0]))


def test_shifted_funk_transport_equation(funk_shifted):
    tr = integrate_geodesic(funk_shifted, np.array([0.1, -0.2]),
                            np.array([0.8, 0.5]), (0.0, 1.0), nodes=33)
    tt = torsion_trace(funk_shifted, tr)
    scale = np.abs(tt.I_of_t).max()
    assert np.abs(tt.residual_of_t).max() <= 1e-4 * scale
    assert tt.di_disagreement <= 1e-5


def test_jacobi_field_flat_case():
    m = zoo.make_euclidean(2)
    tr = integrate_geodesic(m, np.zeros(2), np.array([1.0, 0.0]), (0.0, 2.0),
                            nodes=33)
    V0 = np.array([0.3, -0.1])
    DV0 = np.array([0.2, 0.5])
    V = jacobi_propagate(m, tr, V0, DV0)
    want = V0[None, :] + tr.times[:, None] * DV0[None, :]
    assert np.abs(V - want).max() <= 1e-8


def test_jacobi_field_on_the_sphere():
    """Unit-speed great circle with g-unit DV(0): |V(t)|_g = sin(t)."""
    m = zoo.make_riemannian(model="sphere", dimension=2)
    tr = integrate_geodesic(m, np.zeros(2), np.array([0.5, 0.0]), (0.0, 2.4),
                            nodes=33)
    from finslerkit.geometry import TangentSample, fundamental_tensor
    V = jacobi_propagate(m, tr, np.zeros(2), np.array([0.0, 0.5]))
    norms = []
    for k in range(len(tr.times)):
        ft = fundamental_tensor(m, TangentSample(tr.positions[k],
                                                 tr.velocities[k]))
        norms.append(np.sqrt(float(V[k] @ ft.g @ V[k])))
    assert np.abs(np.asarray(norms) - np.sin(tr.times)).max() <= 1e-7


def test_slab_geodesic_exits_the_chart(slab):
    tr = integrate_geodesic(slab, np.zeros(3), np.array([1.0, 0.2, 0.0]),
                            (0.0, 5.0), nodes=33)
    assert tr.exit
    assert tr.exit_time is not None and 0.0 < tr.exit_time < 5.0
    assert slab.domain.margin(tr.positions[-1]) > 0.0
    assert tr.speed_drift <= 1e-8


def test_growth_riemannian_torsion_is_zero():
    m = zoo.make_riemannian(model="hyperbolic_disk", dimension=2)
    records, covered = growth_estimate(m, np.zeros(2), [0.4],
                                       directions=3, coarse=16, nodes=17)
    assert covered
    assert records[0][1] <= 1e-8


def test_growth_minkowski_torsion_is_constant():
    m = zoo.make_minkowski(2, b=[0.4, 0.0])
    records, covered = growth_estimate(m, np.zeros(2), [0.3, 0.9],
                                       directions=3, coarse=16, nodes=17)
    assert covered
    assert records[0][1] == pytest.approx(records[1][1], rel=1e-6)


def test_growth_funk_bounded_and_monotone(funk_plain):
    records, covered = growth_estimate(funk_plain, np.zeros(2),
                                       [0.5, 1.0, 1.5],
                                       directions=3, coarse=16, nodes=17)
    assert covered
    values = [v for _, v in records]
    assert all(np.diff(values) >= -1e-12)
    assert values[-1] < 3.0 / np.sqrt(2.0)


def test_resolution_error_on_under_resolved_field(funk_shifted):
    tr = integrate_geodesic(funk_shifted, np.array([0.1, -0.2]),
                            np.array([0.8, 0.5]), (0.0, 1.0), nodes=9)
    rough = np.sin(40.0 * tr.times)[:, None] * tr.velocities
    with pytest.raises(ResolutionError):
        covariant_derivative_along(funk_shifted, tr, rough, tol=1e-8)


def _funk_trace(funk_shifted):
    return integrate_geodesic(funk_shifted, np.array([0.1, -0.2]),
                              np.array([0.8, 0.5]), (0.0, 1.0), nodes=33)


def test_jacobi_solve_that_stops_short_is_a_resolution_error(funk_shifted,
                                                             monkeypatch):
    """A right-hand side that turns NaN past the midpoint stops the solver
    early; the field must not be extrapolated past the stop."""
    tr = _funk_trace(funk_shifted)
    midpoint = 0.5 * (tr.times[0] + tr.times[-1])
    solve_ivp = flow.solve_ivp

    def poisoned_solve_ivp(fun, *args, **kwargs):
        def rhs(t, state):
            return np.full_like(state, np.nan) if t > midpoint else fun(t, state)
        return solve_ivp(rhs, *args, **kwargs)

    monkeypatch.setattr(flow, "solve_ivp", poisoned_solve_ivp)
    with pytest.raises(ResolutionError, match="stopped at t = 0.5"):
        jacobi_propagate(funk_shifted, tr, np.array([0.0, 1.0]), np.zeros(2))


def test_solver_work_is_logged(funk_shifted, caplog):
    caplog.set_level(logging.DEBUG, logger="finslerkit.flow")
    tr = _funk_trace(funk_shifted)
    jacobi_propagate(funk_shifted, tr, np.array([0.0, 1.0]), np.zeros(2),
                     tol=1e-6)
    records = [r for r in caplog.records if r.name == "finslerkit.flow"]
    assert [r.levelno for r in records] == [logging.DEBUG, logging.DEBUG]
    geodesic, jacobi = (r.getMessage() for r in records)
    assert geodesic == (f"integrate_geodesic: RK45 nfev={tr.nfev} "
                        f"steps={tr.steps} status=0")
    assert jacobi.startswith("jacobi_propagate: DOP853 nfev=")
    assert jacobi.endswith(" status=0")


def test_jacobi_field_reconstructs_torsion_with_few_bundles(funk_shifted,
                                                           monkeypatch):
    """D^2 I + R(I) = 0, so the Jacobi field started at (I, DI) is I."""
    tr = _funk_trace(funk_shifted)
    tt = torsion_trace(funk_shifted, tr)
    bundles = []
    real = flow.local_geometry
    monkeypatch.setattr(flow, "local_geometry",
                        lambda *args: bundles.append(1) or real(*args))
    V = jacobi_propagate(funk_shifted, tr, tt.I_of_t[0], tt.DI_of_t[0])
    assert len(bundles) <= 200
    scale = np.abs(tt.I_of_t).max()
    assert np.abs(V - tt.I_of_t).max() <= 1e-10 * scale


def test_jacobi_field_builds_only_spray_bundles(funk_shifted, monkeypatch):
    """Each right-hand side reads G, N and G_x: no curvature bundle."""
    tr = _funk_trace(funk_shifted)
    needs = []
    real = flow.local_geometry
    monkeypatch.setattr(flow, "local_geometry",
                        lambda metric, at, need: needs.append(need) or real(metric, at, need))
    jacobi_propagate(funk_shifted, tr, np.array([0.0, 1.0]), np.array([0.3, 0.2]),
                     tol=1e-6)
    assert needs and set(needs) == {"N"}


def _curvature_jacobi(metric, trace, V0, DV0, tol=1e-10):
    """V at the trace nodes from the Jacobi equation written with the
    curvature operator: V' = W - N V, W' = -R V - N W with W = DV."""
    n = metric.dimension

    def rhs(t, state):
        x, y, v, w = np.split(state, 4)
        lg = local_geometry(metric, TangentSample(x, y), "R")
        return np.concatenate([y, -2.0 * lg.G, w - lg.N @ v, -lg.R @ v - lg.N @ w])

    inner = flow._solver_tol(tol)
    state0 = np.concatenate([trace.positions[0], trace.velocities[0], V0, DV0])
    sol = solve_ivp(rhs, (trace.times[0], trace.times[-1]), state0, method="DOP853",
                    rtol=inner, atol=inner, dense_output=True)
    assert sol.success
    return sol.sol(trace.times)[2 * n:3 * n].T


@pytest.mark.parametrize("case", ["funk_shifted", "szabo"])
def test_jacobi_field_matches_the_curvature_form(case, request):
    """The linearised spray and D^2 V + R(V) = 0 give the same field."""
    metric = request.getfixturevalue(case)
    rng = np.random.default_rng(41)
    n = metric.dimension
    x0 = metric.domain.sample_interior(rng, margin=0.3)
    y0 = rng.standard_normal(n)
    y0 /= float(metric.evaluate(x0, y0))
    V0, DV0 = rng.standard_normal(n), rng.standard_normal(n)
    tr = integrate_geodesic(metric, x0, y0, (0.0, 0.5), nodes=17)
    V = jacobi_propagate(metric, tr, V0, DV0)
    want = _curvature_jacobi(metric, tr, V0, DV0)
    assert np.abs(V - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("x0, y0", [
    ([0.1, -0.2, 0.0], [0.8, 0.5]),
    ([0.1, -0.2], [0.8, 0.5, 0.0]),
    ([0.1, -0.2], [np.nan, 0.5]),
    ([0.1, np.inf], [0.8, 0.5]),
    ([[0.1, -0.2]], [0.8, 0.5]),
    (None, [0.8, 0.5]),
    ([0.1, -0.2], [True, 0.5]),
], ids=["x0-of-3", "y0-of-3", "nan-in-y0", "inf-in-x0", "x0-of-shape-1x2", "no-x0",
        "boolean-in-y0"])
def test_malformed_geodesic_start_is_an_invalid_parameter(funk_shifted, x0, y0):
    with pytest.raises(InvalidParameterError, match="finite numbers"):
        integrate_geodesic(funk_shifted, x0, y0, (0.0, 0.5), nodes=9)


@pytest.mark.parametrize("V0, DV0", [
    ([0.0, 1.0, 0.0], [0.0, 0.0]),
    ([0.0, 1.0], [0.0]),
    (np.eye(2), [0.0, 0.0]),
    ([0.0, np.nan], [0.0, 0.0]),
    ([0.0, 1.0], "ab"),
    ([True, 1.0], [0.0, 0.0]),
], ids=["V0-of-3", "DV0-of-1", "V0-of-shape-2x2", "nan-in-V0", "text-DV0", "boolean-in-V0"])
def test_malformed_jacobi_start_is_an_invalid_parameter(funk_shifted, V0, DV0):
    trace = integrate_geodesic(funk_shifted, [0.1, -0.2], [0.8, 0.5], (0.0, 0.5), nodes=9)
    with pytest.raises(InvalidParameterError, match="finite numbers"):
        jacobi_propagate(funk_shifted, trace, V0, DV0)


@pytest.mark.parametrize("x0", [[2.0, 0.0], [1.0 - 5e-10, 0.0]],
                         ids=["outside-the-chart", "inside-the-exit-band"])
def test_start_not_inside_the_exit_margin_is_a_domain_error(funk_shifted, x0):
    """Either start would stall the solver at t = 0: outside the chart the
    right-hand side is NaN from the first step, and inside the 1e-9 band
    the exit event never sees the margin cross."""
    with deadline(1.0), pytest.raises(DomainError, match="margin"):
        integrate_geodesic(funk_shifted, np.array(x0), np.array([1.0, 0.0]),
                           (0.0, 1.0))


@pytest.mark.parametrize("solve", [
    lambda m, tr: integrate_geodesic(m, tr.positions[0], tr.velocities[0], (0.0, np.nan)),
    lambda m, tr: jacobi_propagate(m, tr, [1.0, 0.0], [0.0, 0.0], tol=0.0),
    lambda m, tr: integrate_geodesic(m, tr.positions[0], tr.velocities[0], (0.0,)),
    lambda m, tr: integrate_geodesic(m, tr.positions[0], tr.velocities[0], (0.0, 0.2, 0.4)),
    lambda m, tr: integrate_geodesic(m, tr.positions[0], tr.velocities[0], 0.2),
    lambda m, tr: integrate_geodesic(m, tr.positions[0], tr.velocities[0], (0.0, True)),
], ids=["geodesic-to-nan", "jacobi-at-zero-tolerance", "span-of-1", "span-of-3",
        "scalar-span", "boolean-span-end"])
def test_a_solve_without_a_finite_span_and_positive_tolerance_is_refused(funk_shifted,
                                                                         solve):
    """A NaN end time would keep the solver stepping for ever."""
    trace = integrate_geodesic(funk_shifted, [0.1, -0.2], [0.8, 0.5], (0.0, 0.5), nodes=9)
    with deadline(5.0), pytest.raises(InvalidParameterError):
        solve(funk_shifted, trace)


@pytest.mark.parametrize("tol", [1.0, 5.0, 1e300])
@pytest.mark.parametrize("solve", [
    lambda m, tr, tol: integrate_geodesic(m, tr.positions[0], tr.velocities[0],
                                          (0.0, 0.5), tol=tol),
    lambda m, tr, tol: jacobi_propagate(m, tr, [1.0, 0.0], [0.0, 0.0], tol=tol),
], ids=["geodesic", "jacobi"])
def test_a_tolerance_not_below_one_is_refused(funk_shifted, solve, tol):
    """1e300 used to overflow in the per-step tolerance, and a tolerance of
    1 or more asks for no accuracy at all."""
    trace = integrate_geodesic(funk_shifted, [0.1, -0.2], [0.8, 0.5], (0.0, 0.5), nodes=9)
    with deadline(5.0), pytest.raises(InvalidParameterError, match=r"not in \(0, 1\)"):
        solve(funk_shifted, trace, tol)


_INFINITE_TOL = """
import sys
sys.path.insert(0, {root!r})
from finslerkit import flow, zoo
m = zoo.make_funk_shifted([0.3, 0.0])
trace = flow.integrate_geodesic(m, (0, 0), (1, 0), (0, 1), nodes=9)
for solve in (lambda: flow.integrate_geodesic(m, (0, 0), (1, 0), (0, 1), tol=float("inf")),
              lambda: flow.jacobi_propagate(m, trace, (0, 1), (0, 0), tol=float("inf"))):
    try:
        solve()
        print("returned")
    except Exception as exc:
        print(type(exc).__name__)
"""


def test_an_infinite_tolerance_is_refused_within_a_deadline():
    """A geodesic solve at tol = inf used to run for minutes; it runs in a
    child process, killed at the deadline, so a hang fails the test."""
    root = os.path.dirname(os.path.dirname(flow.__file__))
    try:
        out = subprocess.run([sys.executable, "-c", _INFINITE_TOL.format(root=root)],
                             capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail("no result within 30 s")
    assert out.stdout.split() == ["InvalidParameterError"] * 2, out.stderr


_STALLING_START = """
import sys
sys.path.insert(0, {root!r})
from finslerkit import flow, zoo
from finslerkit.errors import ResolutionError
try:
    flow.integrate_geodesic(zoo.make_funk_implicit(), (0.1, 0.0), (8.0, 0.3), (0.0, 3.0),
                            tol=1e-10)
    print("returned")
except ResolutionError as exc:
    print(exc)
"""


def test_a_solve_that_stalls_at_the_chart_edge_gives_up_within_a_deadline():
    """On the implicit Funk chart this start creeps towards the edge, where
    theta = phi(y + theta x) loses precision, and used to take 25,000
    right-hand sides in 12 s without returning.  It runs in a child
    process, killed at the deadline, so a hang fails the test."""
    root = os.path.dirname(os.path.dirname(flow.__file__))
    try:
        out = subprocess.run([sys.executable, "-c", _STALLING_START.format(root=root)],
                             capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("no result within 60 s")
    assert out.stdout.startswith("integrate_geodesic: solve gave up at t = "), out.stderr
    assert f"after {flow.RHS_BUDGET} right-hand sides" in out.stdout
    assert "chart margin" in out.stdout


def test_every_solve_counts_against_the_budget(funk_shifted, monkeypatch):
    """A budget below what a short geodesic and its Jacobi field take makes
    both raise, with the time, the chart margin and the count."""
    trace = integrate_geodesic(funk_shifted, [0.1, -0.2], [0.8, 0.5], (0.0, 0.5), nodes=9)
    monkeypatch.setattr(flow, "RHS_BUDGET", 5)
    with pytest.raises(ResolutionError, match=r"gave up at t = .* chart margin 0\.\d+.*"
                                              r"after 5 right-hand sides"):
        integrate_geodesic(funk_shifted, [0.1, -0.2], [0.8, 0.5], (0.0, 0.5), nodes=9)
    with pytest.raises(ResolutionError, match="jacobi_propagate: solve gave up"):
        jacobi_propagate(funk_shifted, trace, [1.0, 0.0], [0.0, 0.0])


@pytest.mark.parametrize("arguments, name", [
    ({"radii": []}, "radii"),
    ({"radii": [-1.0]}, "radii"),
    ({"radii": [0.5, np.nan]}, "radii"),
    ({"radii": [np.nan]}, "radii"),
    ({"directions": 0}, "directions"),
    ({"directions": -2}, "directions"),
    ({"directions": 1.5}, "directions"),
    ({"coarse": 0}, "coarse"),
    ({"coarse": -3}, "coarse"),
    ({"coarse": 1.5}, "coarse"),
    ({"coarse": True}, "coarse"),
    ({"nodes": 2.5}, "nodes"),
    ({"nodes": np.float64(9.0)}, "nodes"),
    ({"nodes": "9"}, "nodes"),
    ({"refine": "no"}, "refine"),
    ({"refine": 2}, "refine"),
    ({"refine": None}, "refine"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
], ids=["no-radii", "negative-radius", "nan-among-radii", "nan-radius", "no-directions",
        "negative-directions", "fractional-directions", "coarse-0", "coarse-negative",
        "coarse-fractional", "coarse-true", "fractional-nodes", "float64-nodes", "text-nodes",
        "text-refine", "refine-2", "refine-none", "negative-seed", "fractional-seed",
        "true-seed"])
def test_growth_estimate_refuses_malformed_arguments_by_name(funk_plain, arguments, name):
    """Each used to raise a bare numpy or Python error, return a record
    from the centre alone, run on silently (seed=True drew as seed 1) or,
    for a negative radius, never return."""
    kwargs = {"radii": [0.5], "directions": 2, "coarse": 16, "nodes": 9, **arguments}
    with deadline(5.0), pytest.raises(InvalidParameterError, match=name):
        growth_estimate(funk_plain, np.zeros(2), **kwargs)


@pytest.mark.parametrize("nodes", [2.5, np.float64(9.0), "9"],
                         ids=["fractional", "float64", "text"])
def test_geodesic_nodes_that_are_not_an_integer_are_refused(funk_shifted, nodes):
    """nodes=2.5 used to give a 3-node trace with a repeated time, and "9"
    raised a bare TypeError."""
    with pytest.raises(InvalidParameterError, match="nodes"):
        integrate_geodesic(funk_shifted, [0.1, -0.2], [0.8, 0.5], (0.0, 0.2), nodes=nodes)


def test_a_time_span_of_numeric_strings_reads_as_numbers(funk_shifted):
    """As the CLI's --t-span and a claim's t_span are read."""
    want = integrate_geodesic(funk_shifted, [0.1, -0.2], [0.8, 0.5], (0.0, 0.2), nodes=9)
    got = integrate_geodesic(funk_shifted, [0.1, -0.2], [0.8, 0.5], ("0", "0.2"), nodes=9)
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.positions, want.positions)


@pytest.mark.parametrize("call", [
    lambda m, tr: torsion_trace(m, tr, check_tol=np.nan),
    lambda m, tr: torsion_trace(m, tr, check_tol=np.inf),
    lambda m, tr: torsion_trace(m, tr, check_tol=-1.0),
    lambda m, tr: covariant_derivative_along(m, tr, tr.velocities, tol=np.nan),
    lambda m, tr: covariant_derivative_along(m, tr, tr.velocities, tol=0.0),
    lambda m, tr: flow.phi_second_differences(torsion_trace(m, tr, check_tol=None),
                                              floor=np.nan),
    lambda m, tr: flow.phi_second_differences(torsion_trace(m, tr, check_tol=None),
                                              floor=np.inf),
], ids=["nan-check-tol", "infinite-check-tol", "negative-check-tol", "nan-tol",
        "zero-tol", "nan-floor", "infinite-floor"])
def test_a_threshold_that_switches_its_check_off_is_refused(funk_shifted, call):
    """A NaN or infinite tolerance used to skip its check, a negative one to
    fail it whatever the trace, and a NaN floor to keep no sample at all."""
    trace = integrate_geodesic(funk_shifted, [0.1, -0.2], [0.8, 0.5], (0.0, 0.5), nodes=9)
    with pytest.raises(InvalidParameterError):
        call(funk_shifted, trace)


@pytest.mark.parametrize("X, connections", [
    (lambda tr: tr.velocities[:, :1], None),
    (lambda tr: tr.velocities[1:], None),
    (lambda tr: tr.velocities, lambda tr: np.zeros((len(tr.times), 2, 3))),
    (lambda tr: tr.velocities, lambda tr: np.zeros((len(tr.times) - 1, 2, 2))),
    (lambda tr: tr.velocities, lambda tr: np.zeros((2, 2))),
], ids=["X-of-1-column", "X-short-a-node", "connections-of-2x3", "connections-short-a-node",
        "connections-unstacked"])
def test_a_field_or_connections_not_shaped_as_the_trace_are_refused(funk_shifted, X,
                                                                   connections):
    """Each used to raise numpy's bare ValueError from a matmul or einsum."""
    trace = integrate_geodesic(funk_shifted, [0.1, -0.2], [0.8, 0.5], (0.0, 0.5), nodes=9)
    conns = None if connections is None else connections(trace)
    with pytest.raises(InvalidParameterError, match="covariant_derivative_along"):
        covariant_derivative_along(funk_shifted, trace, X(trace), connections=conns)


def test_geodesic_solve_that_stops_short_is_a_resolution_error(funk_shifted,
                                                               monkeypatch):
    """A right-hand side that turns NaN past the midpoint, well inside the
    chart, is a stalled solve and not a boundary exit."""
    solve_ivp = flow.solve_ivp

    def poisoned_solve_ivp(fun, *args, **kwargs):
        def rhs(t, state):
            return np.full_like(state, np.nan) if t > 0.5 else fun(t, state)
        return solve_ivp(rhs, *args, **kwargs)

    monkeypatch.setattr(flow, "solve_ivp", poisoned_solve_ivp)
    with deadline(30.0), pytest.raises(ResolutionError, match="stopped at t = 0.5"):
        integrate_geodesic(funk_shifted, np.array([0.1, -0.2]),
                           np.array([0.8, 0.5]), (0.0, 1.0), nodes=33)


def test_implicit_funk_torsion_trace_near_the_chart_edge():
    """On this trace the implicit Funk jets carry coefficients up to about
    2e7; they converge to rounding, which scales with them, and the trace
    matches the closed-form Funk metric's."""
    x0, y0 = np.array([-0.477, -0.403]), np.array([-0.413, -2.441])
    traces = [torsion_trace(m, integrate_geodesic(m, x0, y0, (0.0, 0.5), nodes=33))
              for m in (zoo.make_funk_implicit(), zoo.make_funk_shifted([0.0, 0.0]))]
    implicit, closed = (tt.phi_of_t for tt in traces)
    assert np.abs(implicit - closed).max() <= 1e-10 * closed.max()


def test_trace_csv_prints_each_value_to_twelve_digits(tmp_path):
    """One header row, then %.12g values: signed zeros, non-finite values
    and exponents as Python prints them, the same to a path or a buffer."""
    column = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e14, 1.0 / 3.0])
    trace = flow.GeodesicTrace(times=column, positions=column[:, None],
                               velocities=-column[:, None], speed_drift=0.0)
    buffer = io.StringIO()
    flow.trace_to_csv(trace, buffer)
    assert buffer.getvalue() == ("t,x1,y1\n0,0,-0\n-0,-0,0\nnan,nan,nan\ninf,inf,-inf\n"
                                 "-inf,-inf,inf\n1e+14,1e+14,-1e+14\n"
                                 "0.333333333333,0.333333333333,-0.333333333333\n")
    flow.trace_to_csv(trace, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_text() == buffer.getvalue()


@pytest.mark.parametrize("t_span", [(0.0, 0.0), (0.3, 0.3), (-1.0, -1.0)])
def test_a_geodesic_span_of_zero_length_is_refused(funk_shifted, t_span):
    """Its trace had every node at one time, and torsion_trace on it
    divided by zero."""
    with deadline(5.0), pytest.raises(InvalidParameterError, match="t_span"):
        integrate_geodesic(funk_shifted, [0.1, 0.2], [0.5, -0.3], t_span)


@pytest.mark.parametrize("trace", ["not a trace", None, np.zeros((3, 5))],
                         ids=["text", "none", "array"])
def test_trace_csv_refuses_what_is_not_a_trace(trace):
    """Each raised a bare AttributeError."""
    with pytest.raises(InvalidParameterError, match="trace_to_csv"):
        flow.trace_to_csv(trace, io.StringIO())


def _same_solve(mine, ref):
    """The owned solve_ivp's result has scipy's bits: steps, states, work,
    status, message, event times and the dense output at trace nodes."""
    assert np.array_equal(mine.t, ref.t)
    assert np.array_equal(mine.y, ref.y)
    assert (mine.nfev, mine.status, mine.message) == (ref.nfev, ref.status, ref.message)
    if len(ref.t) > 1:
        nodes = flow.chebyshev_nodes(ref.t[0], ref.t[-1], 33)
        assert np.array_equal(mine.sol(nodes), ref.sol(nodes))
    if ref.t_events is None:
        assert mine.t_events is None
    else:
        assert len(mine.t_events) == len(ref.t_events)
        assert all(np.array_equal(a, b) for a, b in zip(mine.t_events, ref.t_events))


@pytest.fixture
def against_scipy(monkeypatch):
    """Each flow solve runs the owned solver and scipy's on the same
    right-hand side and events, at the requested tolerance itself; the
    results are checked equal and collected, and the owned one is used."""
    solves = []
    owned = flow.solve_ivp

    def both(fun, t_span, y0, **kwargs):
        mine = owned(fun, t_span, y0, **kwargs)
        ref = solve_ivp(fun, t_span, y0, **kwargs)
        _same_solve(mine, ref)
        solves.append(mine)
        return mine

    monkeypatch.setattr(flow, "solve_ivp", both)
    monkeypatch.setattr(flow, "_solver_tol", lambda tol: tol)
    return solves


BIT_STARTS = 8


@pytest.mark.parametrize("kind,t_end", [("funk_ball_shifted", 0.5), ("szabo_epsilon", 0.5),
                                        ("incomplete_slab", 1.0)])
def test_owned_runge_kutta_gives_scipys_bits(zoo_metrics, against_scipy, kind, t_end):
    """Seeded starts, each at one of three tolerances; the first runs
    backwards.  Geodesics (RK45 with the chart-exit event) and, on three
    starts, Jacobi fields (DOP853) agree with scipy.integrate.solve_ivp bit
    for bit, also where they stop short.  Most slab geodesics leave the
    chart through the event."""
    metric = zoo_metrics[kind]
    rng = np.random.default_rng(33)
    exits = 0
    for k in range(BIT_STARTS):
        x0 = metric.domain.sample_interior(rng, margin=0.2)
        y0 = rng.standard_normal(metric.dimension)
        y0 /= float(metric.evaluate(x0, y0))
        tol = (1e-6, 1e-10, 1e-13)[k % 3]
        span = (0.0, -t_end) if k == 0 else (0.0, t_end)
        trace = integrate_geodesic(metric, x0, y0, span, tol=tol, nodes=9)
        exits += trace.exit
        if k < 3:
            V0, DV0 = rng.standard_normal((2, metric.dimension))
            try:
                jacobi_propagate(metric, trace, V0, DV0, tol=tol)
            except ResolutionError:
                # both solvers stopped alike: the last stages of a field to
                # a chart exit may fall outside the chart
                assert trace.exit
    assert len(against_scipy) == BIT_STARTS + 3
    if kind == "incomplete_slab":
        assert exits >= BIT_STARTS // 2
        assert sum(s.status == 1 for s in against_scipy) == exits


@pytest.mark.parametrize("method", ["RK45", "DOP853"])
def test_owned_runge_kutta_fails_on_a_nan_right_hand_side_as_scipy_does(funk_shifted,
                                                                        method):
    """A right-hand side that turns NaN part way stops both solvers with
    the same too-small step, at the same time, after the same work."""
    def rhs(t, state):
        try:
            if t > 0.5:
                raise DomainError("poisoned")
            lg = local_geometry(funk_shifted, TangentSample(state[:2], state[2:]), "G")
        except DomainError:  # as integrate_geodesic's right-hand side does
            return np.full_like(state, np.nan)
        return np.concatenate([state[2:], -2.0 * lg.G])

    state0 = np.array([0.1, -0.2, 0.4, 0.25])
    kwargs = dict(method=method, rtol=1e-10, atol=1e-10, dense_output=True)
    mine = flow.solve_ivp(rhs, (0.0, 1.0), state0, **kwargs)
    _same_solve(mine, solve_ivp(rhs, (0.0, 1.0), state0, **kwargs))
    assert mine.status == -1


def test_owned_tableaus_are_scipys():
    """RK45's rationals round to scipy's floats, and the DOP853
    coefficients loaded from scipy's file are the ones scipy's DOP853
    holds."""
    import importlib.util

    from scipy.integrate._ivp import rk

    for name in "ABCEP":
        assert np.array_equal(getattr(flow._RK45, name), getattr(rk.RK45, name)), name
    spec = geometry._scipy_spec(flow._DOP853_COEFFICIENTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    pair = flow._DOP853(module)
    assert (pair.n_stages, pair.error_order) == (rk.DOP853.n_stages,
                                                 rk.DOP853.error_estimator_order)
    for name in ("A", "B", "C", "E3", "E5", "D", "A_EXTRA", "C_EXTRA"):
        assert np.array_equal(getattr(pair, name), getattr(rk.DOP853, name)), name


_FLOW_BITS = """
import hashlib, sys
sys.path.insert(0, {root!r})
from finslerkit import flow, geometry, zoo
if {module!r}:
    found = geometry._scipy_spec
    geometry._scipy_spec = lambda name: None if name == {module!r} else found(name)
slab = flow.integrate_geodesic(zoo.make_incomplete_slab(), [0, 0, 0], [1, 0.2, 0.1], (0, 5))
funk = zoo.make_funk_shifted([0.3, 0.0])
trace = flow.integrate_geodesic(funk, [0.1, -0.2], [0.8, 0.5], (0.0, 1.0), nodes=33)
V = flow.jacobi_propagate(funk, trace, [0.0, 1.0], [0.3, 0.2], tol=1e-6)
print(slab.exit_time.hex(), hashlib.sha256(V.tobytes()).hexdigest(),
      {module!r}.rpartition('.')[0] in sys.modules)
"""


def _flow_bits(module):
    """An exiting slab geodesic's exit time, a hash of a DOP853 Jacobi
    field's bits, and whether the package of `module` was imported, from a
    fresh interpreter in which the file of `module` is not found."""
    root = os.path.dirname(os.path.dirname(flow.__file__))
    out = subprocess.run([sys.executable, "-c", _FLOW_BITS.format(root=root, module=module)],
                         capture_output=True, text=True, timeout=120)
    assert len(out.stdout.split()) == 3, out.stderr
    return out.stdout.split()


@pytest.fixture(scope="module")
def flow_bits_from_files():
    return _flow_bits("")


@pytest.mark.parametrize("module", ["scipy.integrate._ivp.dop853_coefficients",
                                    "scipy.optimize._zeros"], ids=["dop853", "zeros"])
def test_a_flow_takes_a_scipy_module_from_its_package_when_its_file_is_not_found(
        flow_bits_from_files, module):
    """Without the file of the DOP853 coefficients or of the root finder,
    the module comes with its scipy package; an exiting geodesic's exit
    time and a DOP853 Jacobi field keep their bits."""
    assert flow_bits_from_files[2] == "False"
    assert _flow_bits(module) == flow_bits_from_files[:2] + ["True"]
