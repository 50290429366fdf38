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

Both pairs run on this module's own stepper, a port of scipy 1.17's
solve_ivp for RK45 and DOP853 that keeps its bits (see `_rk_solve`), so a
flow imports no scipy.integrate, and with it no scipy.linalg, optimize or
sparse package.  It reads two scipy files, each loaded alone on first use:
the DOP853 coefficients, and the C root finder behind
scipy.optimize.brentq, which places a chart exit.

A trace is evaluated as one (K, n) stack of its nodes: one bundle (see
geometry.py) for `torsion_trace` or `connection_along`, one evaluation of
F for the speed check, each node bit for bit as alone.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, InvalidParameterError, ResolutionError, _flag, _integer,
                     _number, _vector)
from .geometry import (TangentSample, _cartan_norms, _check_domain, _gnorm, _mv, _scan_size,
                       _scipy_module, local_geometry)

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


# -- explicit Runge-Kutta pairs ----------------------------------------------
#
# scipy 1.17's solve_ivp for RK45 and DOP853, written once as a generator
# with the same numpy calls in the same order, so every step, right-hand
# side, interpolant and event root has scipy's bits.  The function names
# in the comments are scipy's.

#: Step-size control of scipy's RungeKutta: safety factor, and the least
#: and largest factor by which one step may change the next.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10

EPS = np.finfo(float).eps

#: The DOP853 coefficients (numpy alone), loaded at the first DOP853 solve,
#: and the C root finder behind scipy.optimize.brentq, at the first event
#: root; neither imports its scipy package.
_DOP853_COEFFICIENTS = "scipy.integrate._ivp.dop853_coefficients"
_ZEROS = "scipy.optimize._zeros"

_MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
             1: "A termination event occurred.",
             -1: "Required step size is less than spacing between numbers."}


def _rms(x):
    """scipy's `norm`."""
    return np.linalg.norm(x) / x.size ** 0.5


class _RK45:
    """The 5(4) pair of Dormand & Prince, "A family of embedded Runge-Kutta
    formulae", J. Comput. Appl. Math. 6 (1980), with Shampine's quartic
    interpolant; the rationals as scipy's RK45 writes them, so they round
    to the same floats."""
    n_stages = 6
    error_order = 4
    C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
    A = np.array([
        [0, 0, 0, 0, 0],
        [1/5, 0, 0, 0, 0],
        [3/40, 9/40, 0, 0, 0],
        [44/45, -56/15, 32/9, 0, 0],
        [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
        [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
    ])
    B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
    E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
    P = np.array([
        [1, -8048581381/2820520608, 8663915743/2820520608,
         -12715105075/11282082432],
        [0, 0, 0, 0],
        [0, 131558114200/32700410799, -68118460800/10900136933,
         87487479700/32700410799],
        [0, -1754552775/470086768, 14199869525/1410260304,
         -10690763975/1880347072],
        [0, 127303824393/49829197408, -318862633887/49829197408,
         701980252875 / 199316789632],
        [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
        [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
    #: stages computed for the interpolant alone: none
    A_EXTRA = C_EXTRA = ()
    rows = n_stages + 1

    def error_norm(self, K, h, scale):
        return _rms(np.dot(K.T, self.E) * h / scale)

    def interpolant(self, K, t_old, t, y_old, y, f, h):
        return _RkInterpolant(t_old, t, y_old, K.T.dot(self.P))


class _DOP853:
    """The 8(5,3) pair of Hairer, Norsett & Wanner, with its 7th-degree
    interpolant, which takes three more stages; the coefficients are
    scipy's."""
    error_order = 7

    def __init__(self, coefficients):
        n = self.n_stages = coefficients.N_STAGES
        self.A = coefficients.A[:n, :n]
        self.B = coefficients.B
        self.C = coefficients.C[:n]
        self.E3, self.E5, self.D = coefficients.E3, coefficients.E5, coefficients.D
        self.A_EXTRA = coefficients.A[n + 1:]
        self.C_EXTRA = coefficients.C[n + 1:]
        self.rows = coefficients.N_STAGES_EXTENDED
        self.power = coefficients.INTERPOLATOR_POWER

    def error_norm(self, K, h, scale):
        K = K[:self.n_stages + 1]
        err5 = np.dot(K.T, self.E5) / scale
        err3 = np.dot(K.T, self.E3) / scale
        err5_norm_2 = np.linalg.norm(err5)**2
        err3_norm_2 = np.linalg.norm(err3)**2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))

    def interpolant(self, K, t_old, t, y_old, y, f, h):
        F = np.empty((self.power, len(y_old)))
        f_old = K[0]
        delta_y = y - y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (f + f_old)
        F[3:] = h * np.dot(self.D, K)
        return _Dop853Interpolant(t_old, t, y_old, F)


class _RkInterpolant:
    """RkDenseOutput: y(t) on one step, at a time or a 1-D array of them."""

    def __init__(self, t_old, t, y_old, Q):
        self.t_old, self.h, self.Q, self.y_old = t_old, t - t_old, Q, y_old

    def __call__(self, t):
        t = np.asarray(t)
        x = (t - self.t_old) / self.h
        order = self.Q.shape[1] - 1
        if t.ndim == 0:
            p = np.cumprod(np.tile(x, order + 1))
        else:
            p = np.cumprod(np.tile(x, (order + 1, 1)), axis=0)
        y = self.h * np.dot(self.Q, p)
        if y.ndim == 2:
            y += self.y_old[:, None]
        else:
            y += self.y_old
        return y


class _Dop853Interpolant:
    """Dop853DenseOutput: y(t) on one step, at a time or a 1-D array of
    them."""

    def __init__(self, t_old, t, y_old, F):
        self.t_old, self.h, self.F, self.y_old = t_old, t - t_old, F, y_old

    def __call__(self, t):
        t = np.asarray(t)
        x = (t - self.t_old) / self.h
        if t.ndim == 0:
            y = np.zeros_like(self.y_old)
        else:
            x = x[:, None]
            y = np.zeros((len(x), len(self.y_old)))
        for i, f in enumerate(reversed(self.F)):
            y += f
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += self.y_old
        return y.T


class _OdeSolution:
    """OdeSolution: the step interpolants joined, evaluated at a 1-D array
    of times, each group of times that falls in one step at once."""

    def __init__(self, ts, interpolants):
        self.interpolants = interpolants
        self.ascending = ts[-1] >= ts[0]
        self.side = "left" if self.ascending else "right"
        self.ts_sorted = ts if self.ascending else ts[::-1]

    def __call__(self, t):
        t = np.asarray(t)
        last = len(self.interpolants) - 1
        order = np.argsort(t)
        reverse = np.empty_like(order)
        reverse[order] = np.arange(order.shape[0])
        t_sorted = t[order]
        segments = np.clip(np.searchsorted(self.ts_sorted, t_sorted, side=self.side) - 1,
                           0, last)
        if not self.ascending:
            segments = last - segments
        ys = []
        group_start = 0
        for segment, group in itertools.groupby(segments):
            group_end = group_start + len(list(group))
            ys.append(self.interpolants[segment](t_sorted[group_start:group_end]))
            group_start = group_end
        return np.hstack(ys)[:, reverse]


@dataclass
class _OdeResult:
    t: np.ndarray
    y: np.ndarray
    sol: _OdeSolution   # None without dense output
    t_events: list      # [the event's times as an array], or None without an event
    status: int         # 0 at the end of t_span, 1 at a terminal event, -1 failed
    message: str
    nfev: int = 0


def _select_initial_step(t0, y0, t_bound, f0, direction, order, rtol, atol):
    """select_initial_step (Hairer, Norsett & Wanner, II.4), asking for its
    one right-hand side."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = yield t0 + h0 * direction, y1
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, interval_length)


def _rk_step(pair, t, y, f, h, K):
    """rk_step: y and f at t + h, asking for each stage's right-hand side;
    the stages are left in K."""
    A, B, C = pair.A, pair.B, pair.C
    K[0] = f
    for s, (a, c) in enumerate(zip(A[1:], C[1:]), start=1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = yield t + c * h, y + dy
    y_new = y + h * np.dot(K[:pair.n_stages].T, B)
    f_new = yield t + h, y_new
    K[pair.n_stages] = f_new
    return y_new, f_new


def _dense_output(pair, K, t_old, t, y_old, y, f, h):
    """The interpolant of the step from t_old to t, asking first for the
    right-hand sides of the pair's extra stages (DOP853's three)."""
    for s, (a, c) in enumerate(zip(pair.A_EXTRA, pair.C_EXTRA), start=pair.n_stages + 1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = yield t_old + c * h, y_old + dy
    return pair.interpolant(K, t_old, t, y_old, y, f, h)


def _event_root(event, sol, t_old, t):
    """solve_event_equation: scipy.optimize.brentq's C search for the event's
    zero on the step, behind brentq's check for a NaN value."""
    zeros = _scipy_module(_ZEROS)

    def checked(s):
        value = event(s, sol(s))
        if np.isnan(value):
            raise ValueError(f"The function value at x={s} is NaN; solver cannot continue.")
        return value

    return zeros._brentq(checked, t_old, t, 4 * EPS, 4 * EPS, 100, (), False, True)


def _rk_solve(t_span, y0, method, rtol, atol, dense_output, event):
    """solve_ivp's loop over an RK45 or DOP853 solver, as a generator: it
    yields each (t, y) whose right-hand side it needs and is sent that
    right-hand side as a float array; it returns the _OdeResult, whose
    `nfev` the caller fills in.

    `t_span` is two distinct numbers; `rtol` is at least 100 EPS, and
    `atol` a number; `event` is None or one event function, with scipy's
    optional `direction` and a `terminal` that stops the solve at its
    first root.
    """
    pair = _RK45() if method == "RK45" else _DOP853(_scipy_module(_DOP853_COEFFICIENTS))
    t0, t_bound = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    direction = np.sign(t_bound - t0)
    t = t0
    f = yield t, y
    h_abs = yield from _select_initial_step(t, y, t_bound, f, direction, pair.error_order,
                                            rtol, atol)
    K = np.empty((pair.rows, y.size))
    error_exponent = -1 / (pair.error_order + 1)
    ts, ys, interpolants = [t0], [y0], []
    if event is not None:
        g = event(t0, y0)
        event_dir = getattr(event, "direction", 0)
        t_events = []
    status = None
    while status is None:
        # RungeKutta._step_impl
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = yield from _rk_step(pair, t, y, f, h, K)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = pair.error_norm(K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** error_exponent)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** error_exponent)
            step_rejected = True
        if status == -1:
            break
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if direction * (t - t_bound) >= 0:
            status = 0
        # solve_ivp's loop: the step's interpolant, events, and the trace
        sol = None
        if dense_output:
            sol = yield from _dense_output(pair, K, t_old, t, y_old, y, f, h)
            interpolants.append(sol)
        t_end, y_end = t, y
        if event is not None:
            g_new = event(t, y)
            # find_active_events
            up = g <= 0 and g_new >= 0
            down = g >= 0 and g_new <= 0
            if (up and event_dir > 0 or down and event_dir < 0
                    or (up or down) and event_dir == 0):
                if sol is None:
                    sol = yield from _dense_output(pair, K, t_old, t, y_old, y, f, h)
                root = _event_root(event, sol, t_old, t)
                t_events.append(root)
                if getattr(event, "terminal", False):
                    status = 1
                    t_end = root
                    y_end = sol(t_end)
            g = g_new
        if len(ts) > 1 and ts[-1] == t_end and dense_output:
            interpolants.pop()
        else:
            ts.append(t_end)
            ys.append(y_end)
    ts = np.array(ts)
    return _OdeResult(t=ts, y=np.vstack(ys).T,
                      sol=_OdeSolution(ts, interpolants) if dense_output else None,
                      t_events=None if event is None else [np.asarray(t_events)],
                      status=status, message=_MESSAGES[status])


def solve_ivp(fun, t_span, y0, method="RK45", rtol=1e-3, atol=1e-6, dense_output=False,
              events=None):
    """scipy.integrate.solve_ivp for the arguments finslerkit passes, with
    the same bits: `method` "RK45" or "DOP853", `events` None or one event
    function, and no `t_eval`, `max_step` or `first_step`.  The result has
    scipy's `t`, `y`, `sol`, `t_events`, `status`, `message` and `nfev`."""
    if method not in ("RK45", "DOP853"):
        raise InvalidParameterError(f"solve_ivp: method {method!r} is not RK45 or DOP853")
    steps = _rk_solve(t_span, y0, method, rtol, atol, dense_output, events)
    nfev = 0
    try:
        t, y = next(steps)
        while True:
            nfev += 1
            t, y = steps.send(np.asarray(fun(t, y), dtype=float))
    except StopIteration as done:
        result = done.value
    result.nfev = nfev
    return result


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
    outside (0, 1), or a `t_span` that is not two distinct finite numbers
    (solve_ivp would never reach a NaN end, and a span of zero length gives
    nodes all at one time), raises InvalidParameterError, a solve that
    stops short or would take more than RHS_BUDGET right-hand sides
    ResolutionError."""
    tol = _number(f"{caller}: tolerance", tol, above=0.0, below=1.0)
    t_span = _vector(f"{caller}: t_span", t_span, 2)
    if t_span[0] == t_span[1]:
        raise InvalidParameterError(
            f"{caller}: t_span = ({t_span[0]:g}, {t_span[1]:g}) has zero length")
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
    exit_time: float = None  # where the chart margin fell to EXIT_MARGIN, or None
    nfev: int = 0    # right-hand-side evaluations made by the ODE solver
    steps: int = 0   # accepted solver steps

    @property
    def exit(self):
        return self.exit_time is not None

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
    finite numbers, or a `t_span` that is not two distinct finite numbers,
    InvalidParameterError.
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
    t_end = float(sol.t[-1])  # the end of t_span, or the exit time
    times = chebyshev_nodes(sol.t[0], t_end, nodes)
    states = sol.sol(times)
    positions = states[:n].T.copy()
    velocities = states[n:].T.copy()
    speeds = np.asarray(metric.evaluate(positions.T, velocities.T), dtype=float)
    drift = float(np.max(np.abs(speeds - speeds[0])))
    return GeodesicTrace(times=times, positions=positions, velocities=velocities,
                         speed_drift=drift,
                         exit_time=t_end if sol.t_events[0].size else None,
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
    1, `nodes` one of at least 2, `seed` one of at least 0 and `refine` a
    bool, or InvalidParameterError.
    """
    radii = np.sort(_vector("growth_estimate: radii", radii, None))
    _number("growth_estimate: smallest of the radii", radii[0], least=0.0)
    directions = _integer("growth_estimate: directions", directions, least=1)
    nodes = _integer("growth_estimate: nodes", nodes, least=2)
    seed = _integer("growth_estimate: seed", seed, least=0)
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
    """Columnar CSV export: t, position, velocity, then phi/residual if present.
    Anything but a GeodesicTrace or TorsionTrace raises InvalidParameterError."""
    torsion = torsion_or_trace if isinstance(torsion_or_trace, TorsionTrace) else None
    trace = torsion.trace if torsion else torsion_or_trace
    if not isinstance(trace, GeodesicTrace):
        raise InvalidParameterError(
            f"trace_to_csv: {type(torsion_or_trace).__name__} is not a GeodesicTrace "
            f"or TorsionTrace")
    n = trace.positions.shape[1]
    header = ["t"] + [f"x{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(n)]
    columns = [trace.times, trace.positions, trace.velocities]
    if torsion:
        header += ["phi", "residual"]
        columns += [torsion.phi_of_t, torsion.residual_of_t]
    np.savetxt(path_or_buffer, np.column_stack(columns), fmt="%.12g", delimiter=",",
               header=",".join(header), comments="")
