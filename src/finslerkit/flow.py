"""Geodesic flow, transport along geodesics, and torsion diagnostics.

Geodesics integrate the spray ODE with an adaptive Runge-Kutta pair and
are re-sampled on a fixed Chebyshev grid so that time derivatives of
quantities along the trace can be taken with a spectral differentiation
matrix (the torsion diagnostics need two of them).  A geodesic exits where
the chart margin falls to EXIT_MARGIN; a start not farther inside raises
DomainError, and a solve that stops short, or would take more than
RHS_BUDGET right-hand sides, raises ResolutionError.

Geodesics use the 5(4) Dormand-Prince pair (RK45): the torsion residual
of a trace must halve with the requested tolerance, and `_solver_tol`
is tuned to that pair's error response (see there).  Jacobi fields use
the 8(5,3) pair DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
II.10), which needs about a third of RK45's right-hand sides at the same
tolerance.  A Jacobi field is the variation field of a family of
geodesics, so it solves the linearised spray equation, which needs G, N
and dG/dx but no curvature: each of its right-hand sides is one need-"N"
bundle (see geometry.py).  Every solve logs its method, right-hand-side
evaluations, accepted steps and status at DEBUG level on the
``finslerkit.flow`` logger.

A trace is evaluated as one (K, n) stack of its nodes: one bundle (see
geometry.py) for `torsion_trace` or `connection_along`, one evaluation of
F for the speed check, each node bit for bit as alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, InvalidParameterError, ResolutionError, _flag, _integer,
                     _number, _vector)
from .geometry import (TangentSample, _cartan_norms, _check_domain, _gnorm, _mv, _scan_size,
                       local_geometry)

#: Dense-output nodes per trace; odd so the grid nests once for error checks.
TRACE_NODES = 257

#: Chart margin at which a geodesic exits: strictly inside, since some charts
#: are approached asymptotically (the margin flattens instead of crossing 0).
EXIT_MARGIN = 1e-9

#: Right-hand sides after which a solve raises ResolutionError instead of
#: creeping on towards a chart edge it cannot resolve.  The largest solves
#: that finish take 1,952 in the tests, 4,832 in the shipped suite at seeds
#: 1-10 (3,758 at seeds 11-30) and 182 in the transport benchmark at seeds
#: 1-10.
RHS_BUDGET = 10_000

_log = logging.getLogger(__name__)


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first solve: the import
    costs about half a second that commands without a flow need not pay."""
    from scipy import integrate

    return integrate.solve_ivp(*args, **kwargs)


def _solver_tol(tol):
    """Internal per-step tolerance for a requested trace accuracy.

    Adaptive Runge-Kutta global error grows sublinearly in the per-step
    tolerance, so the solver runs tighter than requested; this keeps the
    delivered accuracy proportional to `tol`.

    The exponent is tuned to RK45, which is why geodesics stay on it:
    with DOP853 at the same per-step tolerance, criterion 06's torsion
    residual no longer halves with `tol` (halving ratios m1 = 1.18 and
    m2 = 1.22 on one shifted-Funk transport run, where the gate needs
    both at least 2).  Jacobi fields are not gated on that rate and run
    DOP853 at this tolerance.
    """
    return max(tol ** 1.5, 1e-13)


def _solve(caller, metric, rhs, t_span, state0, method, tol, events=None):
    """solve_ivp with dense output at the per-step tolerance for `tol`,
    logged at DEBUG level; the state starts with the chart point.  A `tol`
    outside (0, 1) or a `t_span` that is not two finite numbers (solve_ivp
    would never reach a NaN end) raises InvalidParameterError, a solve that
    stops short or would take more than RHS_BUDGET right-hand sides
    ResolutionError."""
    tol = _number(f"{caller}: tolerance", tol, above=0.0, below=1.0)
    t_span = _vector(f"{caller}: t_span", t_span, 2)
    inner = _solver_tol(tol)
    count = 0

    def counted(t, state):
        nonlocal count
        count += 1
        if count > RHS_BUDGET:
            margin = metric.domain.margin(state[:metric.dimension])
            raise ResolutionError(
                f"{caller}: solve gave up at t = {t:.6g} of {t_span[1]:.6g}, chart "
                f"margin {margin:.3g}, after {RHS_BUDGET} right-hand sides")
        return rhs(t, state)

    sol = solve_ivp(counted, t_span, state0, method=method, rtol=inner, atol=inner,
                    dense_output=True, events=events)
    _log.debug("%s: %s nfev=%d steps=%d status=%d", caller, method,
               sol.nfev, len(sol.t) - 1, sol.status)
    if sol.status == -1:
        raise ResolutionError(
            f"{caller}: solve stopped at t = {sol.t[-1]:.6g} of {t_span[1]:.6g}: "
            f"{sol.message}")
    return sol


def chebyshev_nodes(a, b, count=TRACE_NODES):
    """Chebyshev points of the second kind on [a, b], increasing."""
    k = np.arange(count)
    return 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * (count - 1 - k) / (count - 1))


def chebyshev_diff_matrix(nodes):
    """Spectral differentiation matrix for Chebyshev points of the 2nd kind."""
    n = len(nodes)
    c = np.ones(n)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n)
    t = nodes.reshape(-1, 1)
    dt = t - t.T + np.eye(n)
    d = np.outer(c, 1.0 / c) / dt
    d -= np.diag(d.sum(axis=1))
    return d


@dataclass(frozen=True)
class GeodesicTrace:
    times: np.ndarray
    positions: np.ndarray   # (K, n)
    velocities: np.ndarray  # (K, n)
    speed_drift: float
    exit: bool = False
    exit_time: float = None
    nfev: int = 0    # right-hand-side evaluations made by the ODE solver
    steps: int = 0   # accepted solver steps

    @property
    def diff_matrix(self):
        return chebyshev_diff_matrix(self.times)


@dataclass(frozen=True)
class TorsionTrace:
    trace: GeodesicTrace
    I_of_t: np.ndarray         # (K, n) contravariant mean Cartan torsion
    DI_of_t: np.ndarray        # (K, n) covariant derivative (pointwise route)
    D2I_of_t: np.ndarray       # (K, n)
    phi_of_t: np.ndarray       # (K,)
    residual_of_t: np.ndarray  # (K,) g-norm of D^2 I + R(I)
    di_disagreement: float = 0.0   # max gap between the two DI routes


def integrate_geodesic(metric, x0, y0, t_span, tol=1e-10, nodes=TRACE_NODES):
    """Integrate the spray ODE; stops with an exit flag, at `exit_time`, where
    the chart margin falls to EXIT_MARGIN.  A start whose margin is not
    above EXIT_MARGIN raises DomainError; a stalled solve ResolutionError;
    `nodes` that is not an integer of at least 2, an x0 or y0 that is not n
    finite numbers, or a `t_span` that is not two, InvalidParameterError.
    """
    nodes = _integer("integrate_geodesic: nodes", nodes, least=2)
    n = metric.dimension
    x0 = _vector("integrate_geodesic: x0", x0, n)
    y0 = _vector("integrate_geodesic: y0", y0, n)
    margin = metric.domain.margin(x0)
    if not margin > EXIT_MARGIN:  # outside, or NaN
        raise DomainError(f"geodesic start {x0} has chart margin {margin:.3g} in "
                          f"{metric.name}, not above {EXIT_MARGIN:g}")

    def rhs(t, state):
        try:
            lg = local_geometry(metric, TangentSample(state[:n], state[n:]), "G")
        except DomainError:  # outside, or NaN
            return np.full(2 * n, np.nan)
        return np.concatenate([state[n:], -2.0 * lg.G])

    def near_boundary(t, state):
        return metric.domain.margin(state[:n]) - EXIT_MARGIN

    near_boundary.terminal = True
    near_boundary.direction = -1
    sol = _solve("integrate_geodesic", metric, rhs, t_span, np.concatenate([x0, y0]),
                 "RK45", tol, events=near_boundary)
    exited = bool(sol.t_events[0].size)
    t_end = float(sol.t[-1])  # the end of t_span, or the exit time
    times = chebyshev_nodes(sol.t[0], t_end, nodes)
    states = sol.sol(times)
    positions = states[:n].T.copy()
    velocities = states[n:].T.copy()
    speeds = np.asarray(metric.evaluate(positions.T, velocities.T), dtype=float)
    drift = float(np.max(np.abs(speeds - speeds[0])))
    return GeodesicTrace(times=times, positions=positions, velocities=velocities,
                         speed_drift=drift, exit=exited,
                         exit_time=t_end if exited else None,
                         nfev=int(sol.nfev), steps=len(sol.t) - 1)


def connection_along(metric, trace):
    """N^i_j(sigma, sigma-dot) at every trace node, (K, n, n) in C order."""
    at = TangentSample(trace.positions, trace.velocities)
    return np.ascontiguousarray(local_geometry(metric, at, "N").N)


def covariant_derivative_along(metric, trace, X_of_t, connections=None, tol=None):
    """D_{sigma-dot} X along the trace: spectral d/dt plus the N-connection term.

    With `tol` set, the derivative is recomputed on the nested half grid and
    a disagreement above `tol` raises ResolutionError; a `tol` that is not
    positive and finite, an `X_of_t` that is not (nodes, n) or `connections`
    that are not (nodes, n, n) raise InvalidParameterError.
    """
    if tol is not None:
        tol = _number("covariant_derivative_along: tol", tol, above=0.0)
    X = np.asarray(X_of_t, dtype=float)
    if connections is None:
        connections = connection_along(metric, trace)
    connections = np.asarray(connections, dtype=float)
    nodes, n = trace.positions.shape
    for name, got, want in (("X_of_t", X, (nodes, n)),
                            ("connections", connections, (nodes, n, n))):
        if got.shape != want:
            raise InvalidParameterError(
                f"covariant_derivative_along: {name} of shape {got.shape} is not {want}")
    dX = trace.diff_matrix @ X
    out = dX + np.einsum("kij,kj->ki", connections, X)
    if tol is not None:
        coarse = chebyshev_diff_matrix(trace.times[::2]) @ X[::2]
        gap = float(np.max(np.abs(coarse - dX[::2])))
        if gap > tol:
            raise ResolutionError(
                f"time-derivative disagreement {gap:.3e} above tolerance {tol:.3e}")
    return out


def torsion_trace(metric, trace, check_tol=1e-5):
    """Mean Cartan torsion diagnostics along a geodesic.

    I(t) is evaluated pointwise; DI comes from the pointwise mean Landsberg
    vector (the two agree along geodesics) and is cross-checked against the
    spectral derivative of the transported components; D^2 I takes one
    spectral derivative of DI.  The residual is the g-norm of D^2 I + R(I).
    Route disagreement above `check_tol` raises ResolutionError; None turns
    the check off, and a `check_tol` that is not positive and finite raises
    InvalidParameterError.
    """
    if check_tol is not None:
        check_tol = _number("torsion_trace: check_tol", check_tol, above=0.0)
    lg = local_geometry(metric, TangentSample(trace.positions, trace.velocities), "R")
    I, J = _mv(lg.g_inverse, lg.I), _mv(lg.g_inverse, lg.J)
    phi = _gnorm(I, lg.g)
    # in C order, as a loop over the nodes would store them: numpy picks
    # its einsum kernels, and so their rounding, by memory layout
    gs, conns, rops = (np.ascontiguousarray(a) for a in (lg.g, lg.N, lg.R))
    DI_numeric = covariant_derivative_along(metric, trace, I, connections=conns)
    # pointwise route: D I = J along geodesics
    gap = np.sqrt(np.einsum("ki,kij,kj->k", DI_numeric - J, gs, DI_numeric - J))
    scale = max(float(np.max(np.abs(I))), 1e-30)
    disagreement = float(np.max(gap)) / scale
    if check_tol is not None and disagreement > check_tol:
        raise ResolutionError(
            f"covariant-derivative routes disagree by {disagreement:.3e}")
    D2I = covariant_derivative_along(metric, trace, J, connections=conns)
    resid_vec = D2I + np.einsum("kij,kj->ki", rops, I)
    residual = np.sqrt(np.einsum("ki,kij,kj->k", resid_vec, gs, resid_vec))
    return TorsionTrace(trace=trace, I_of_t=I, DI_of_t=J, D2I_of_t=D2I,
                        phi_of_t=phi, residual_of_t=residual,
                        di_disagreement=disagreement)


def jacobi_propagate(metric, trace, V0, DV0, tol=1e-10):
    """Integrate the Jacobi equation D^2 V + R(V) = 0 along the trace, from
    V(0) = V0 and DV(0) = DV0.

    Returns V at the trace nodes.  The solve runs the linearised spray
    equation V'' = -2 G_x V - 2 N V' instead, jointly with the geodesic
    itself so that G, N and G_x are evaluated on the exact current state:
    one need-"N" bundle per right-hand side, from V'(0) = DV0 - N V0.  A V0
    or DV0 that is not n finite numbers raises InvalidParameterError, a
    solve that stops before the end of the trace ResolutionError.
    """
    n = metric.dimension
    V0 = _vector("jacobi_propagate: V0", V0, n)
    DV0 = _vector("jacobi_propagate: DV0", DV0, n)
    x0, y0 = trace.positions[0], trace.velocities[0]
    start = local_geometry(metric, TangentSample(x0, y0), "N")
    state0 = np.concatenate([x0, y0, V0, DV0 - start.N @ V0])
    # solve_ivp's first right-hand side is at the start state: the start
    # bundle serves it
    unused = [start]

    def rhs(t, state):
        x, y, v, u = state[:n], state[n:2 * n], state[2 * n:3 * n], state[3 * n:]
        if unused and np.array_equal(state, state0):
            lg = unused.pop()
        else:
            try:
                lg = local_geometry(metric, TangentSample(x, y), "N")
            except DomainError:  # outside, or NaN
                return np.full(4 * n, np.nan)
        return np.concatenate([y, -2.0 * lg.G, u, -2.0 * (lg.G_x @ v + lg.N @ u)])

    sol = _solve("jacobi_propagate", metric, rhs, (trace.times[0], trace.times[-1]),
                 state0, "DOP853", tol)
    states = sol.sol(trace.times)
    return states[2 * n:3 * n].T.copy()


def growth_estimate(metric, p, radii, directions=12, seed=0, refine=False,
                    coarse=None, nodes=65):
    """Running suprema of the Cartan norm over forward geodesic balls.

    Shoots `directions` unit-speed geodesics from `p`, records the Cartan
    norm at points with forward distance below each radius, and returns
    (radius, supremum) pairs.  Forward distance along the shot geodesics
    stands in for the symmetrized distance; incomplete charts give a
    partial result with a coverage flag.  `coarse` and `nodes` trade
    accuracy for speed.  The coarse scans of `p` and of every trace node
    share stacked bundles (see geometry.cartan_norm); with `refine`, each
    point then ascends alone.  `p` must be n finite numbers, `radii` one or
    more finite numbers, none negative, `directions` an integer of at least
    1, `nodes` one of at least 2 and `refine` a bool, or
    InvalidParameterError.
    """
    radii = np.sort(_vector("growth_estimate: radii", radii, None))
    _number("growth_estimate: smallest of the radii", radii[0], least=0.0)
    directions = _integer("growth_estimate: directions", directions, least=1)
    nodes = _integer("growth_estimate: nodes", nodes, least=2)
    refine = _flag("growth_estimate: refine", refine)
    n = metric.dimension
    coarse = _scan_size(coarse, n)
    p = _vector("growth_estimate: p", p, n)
    _check_domain(metric, p)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((directions, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    times, points = [np.zeros(1)], [p[None]]
    full_coverage = True
    for d in dirs:
        y0 = d / float(metric.evaluate(p, d))
        trace = integrate_geodesic(metric, p, y0, (0.0, float(radii[-1])), tol=1e-9,
                                   nodes=nodes)
        if trace.exit:
            full_coverage = False
        times.append(trace.times[1:])
        points.append(trace.positions[1:])
    norms = _cartan_norms(metric, np.concatenate(points), coarse, refine)
    records = sorted(zip(np.concatenate(times).tolist(), (r.value for r in norms)))
    out = []
    best = 0.0
    idx = 0
    for r in radii:
        while idx < len(records) and records[idx][0] <= r:
            best = max(best, records[idx][1])
            idx += 1
        out.append((float(r), best))
    return out, full_coverage


def phi_second_differences(torsion, floor=1e-9):
    """Discrete second derivative of phi where phi > floor (uneven grid);
    a `floor` that is not a finite number raises InvalidParameterError."""
    floor = _number("phi_second_differences: floor", floor)
    t, phi = torsion.trace.times, torsion.phi_of_t
    h1, h2 = t[1:-1] - t[:-2], t[2:] - t[1:-1]
    second = 2.0 * (h1 * phi[2:] - (h1 + h2) * phi[1:-1] + h2 * phi[:-2]) \
        / (h1 * h2 * (h1 + h2))
    return second[np.minimum(np.minimum(phi[:-2], phi[1:-1]), phi[2:]) > floor]


def trace_to_csv(torsion_or_trace, path_or_buffer):
    """Columnar CSV export: t, position, velocity, then phi/residual if present."""
    torsion = torsion_or_trace if isinstance(torsion_or_trace, TorsionTrace) else None
    trace = torsion.trace if torsion else torsion_or_trace
    n = trace.positions.shape[1]
    header = ["t"] + [f"x{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(n)]
    columns = [trace.times, trace.positions, trace.velocities]
    if torsion:
        header += ["phi", "residual"]
        columns += [torsion.phi_of_t, torsion.residual_of_t]
    np.savetxt(path_or_buffer, np.column_stack(columns), fmt="%.12g", delimiter=",",
               header=",".join(header), comments="")
