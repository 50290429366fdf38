"""Spans and work counters recorded from outside finslerkit.

``Tracer.install`` swaps each traced function of the package for a
wrapper at every place a caller looks it up: the attribute of its own
module, the names other finslerkit modules imported from it, and the
class attributes of ``Jet`` and ``SamplePlan``.  ``Tracer.uninstall``
puts the originals back.  Nothing inside the package changes, and with
tracing off the package runs its own functions untouched.

A span's self time is its duration minus the time of the spans it
encloses.  Each thread keeps its own span stack and totals, so the
threaded ``run_suite`` path takes no lock per call; totals are merged
when read.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter

#: Geometry functions traced as spans (ROADMAP layer L1).
GEOMETRY_FUNCTIONS = ("fundamental_tensor", "spray", "riemann", "flag_curvature",
                      "mean_cartan", "mean_landsberg", "s_curvature", "cartan_norm")
FLOW_FUNCTIONS = ("integrate_geodesic", "torsion_trace", "jacobi_propagate")
LIFTED_FUNCTIONS = ("jsqrt", "jexp", "jlog", "jpow")


class _ThreadTotals:
    """Span stack and running totals of one thread."""

    def __init__(self):
        self.stack = []                      # child time of each open span
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.samples = set()                 # distinct samples fed to an F^2 jet
        self.rules = set()                   # (n, level) sphere rules requested
        self.mul_shapes = defaultdict(lambda: [0, 0.0])    # (ndir, order, batch)
        self.by_kind = defaultdict(lambda: [0, 0.0])       # (function, metric)


@dataclasses.dataclass
class Snapshot:
    """Totals of all threads since the last reset."""

    self_s: dict
    incl_s: dict
    calls: dict
    counts: dict
    distinct_samples: int
    rules: set
    mul_shapes: dict
    by_kind: dict


def _product_terms(ndir, order):
    """Terms of the gather product of two jets: pairs of multi-indices in
    `ndir` variables with total degree <= `order`, i.e. C(2 ndir + order, order)."""
    return math.comb(2 * ndir + order, order)


class Tracer:
    """Installs span wrappers on finslerkit and collects their totals."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._saved = []          # (owner, name, original) for uninstall

    # -- per-thread totals -------------------------------------------------

    def _totals(self):
        t = getattr(self._local, "totals", None)
        if t is None:
            t = _ThreadTotals()
            with self._lock:
                self._threads.append(t)
            self._local.totals = t
        return t

    def reset(self):
        with self._lock:
            threads = list(self._threads)
        for t in threads:
            stack = t.stack
            t.__init__()
            t.stack = stack       # keep spans that are still open

    def snapshot(self):
        with self._lock:
            threads = list(self._threads)
        out = Snapshot(defaultdict(float), defaultdict(float), defaultdict(int),
                       defaultdict(float), 0, set(), defaultdict(lambda: [0, 0.0]),
                       defaultdict(lambda: [0, 0.0]))
        samples = set()
        for t in threads:
            for src, dst in ((t.self_s, out.self_s), (t.incl_s, out.incl_s),
                             (t.calls, out.calls), (t.counts, out.counts)):
                for k, v in src.items():
                    dst[k] += v
            for src, dst in ((t.mul_shapes, out.mul_shapes), (t.by_kind, out.by_kind)):
                for k, (c, s) in src.items():
                    dst[k][0] += c
                    dst[k][1] += s
            samples |= t.samples
            out.rules |= t.rules
        out.distinct_samples = len(samples)
        return out

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, after=None):
        """Wrap `fn` in a span; `after(totals, args, result, self_time)`
        records extra counts once the call returns."""
        totals = self._totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = totals()
            stack = t.stack
            stack.append(0.0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - start
                own = dt - stack.pop()
                t.self_s[name] += own
                t.incl_s[name] += dt
                t.calls[name] += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(t, args, result, own, dt)
            return result

        return wrapper

    def _mul(self, fn, jet_cls):
        terms = {}

        def after(t, args, result, own, _dt):
            coeffs = result.coeffs
            batch = coeffs.size // coeffs.shape[0]
            n = coeffs.shape[0]
            if isinstance(args[1], jet_cls):
                key = (result.ndir, result.order)
                big_t = terms.get(key)
                if big_t is None:
                    big_t = terms[key] = _product_terms(*key)
                t.counts["jets.mul.flops"] += 2 * big_t * batch
                # gather both operands, multiply, scatter-add: 7 loads or
                # stores per term plus the output, 8 bytes each
                t.counts["jets.mul.bytes"] += 8 * batch * (7 * big_t + n)
                shape = t.mul_shapes[(result.ndir, result.order, batch)]
                shape[0] += 1
                shape[1] += own
            else:
                t.counts["jets.mul.flops"] += n * batch
                t.counts["jets.mul.bytes"] += 16 * n * batch
            if coeffs.ndim > 1:
                t.counts["jets.mul.batched_self_s"] += own

        return self._span("jets.mul", fn, after)

    def _geometry(self, name, fn):
        def after(t, args, _result, _own, dt):
            entry = t.by_kind[(name, getattr(args[0], "name", "?"))]
            entry[0] += 1
            entry[1] += dt

        return self._span(f"geometry.{name}", fn, after)

    def _f2_jets(self, fn):
        totals = self._totals

        @functools.wraps(fn)
        def wrapper(metric, x, y, order):
            t = totals()
            t.counts["geometry.f2_jets"] += 1
            t.samples.add((metric.name, np.asarray(x, dtype=float).tobytes(),
                           np.asarray(y, dtype=float).tobytes()))
            return fn(metric, x, y, order)

        return wrapper

    def _sphere_rule(self, fn):
        totals = self._totals

        @functools.wraps(fn)
        def wrapper(n, level=0):
            result = fn(n, level)
            t = totals()
            t.counts["quadrature.nodes"] += len(result[1])
            t.rules.add((n, level))
            return result

        return wrapper

    def _solve_ivp(self, fn):
        totals = self._totals

        @functools.wraps(fn)
        def wrapper(fun, *args, **kwargs):
            t = totals()

            def timed_rhs(time_, state):
                start = _clock()
                try:
                    return fun(time_, state)
                finally:
                    t.counts["flow.rhs_s"] += _clock() - start

            sol = fn(timed_rhs, *args, **kwargs)
            t.counts["flow.rhs_evals"] += sol.nfev
            t.counts["flow.steps"] += len(sol.t) - 1
            return sol

        return wrapper

    def _run_suite(self, fn):
        totals = self._totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            wall0, cpu0 = _clock(), time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                t = totals()
                t.counts["verify.suite.wall_s"] += _clock() - wall0
                t.counts["verify.suite.cpu_s"] += time.process_time() - cpu0

        return wrapper

    def _evaluate(self, fn, jet_cls):
        """Span around one metric's evaluate callable, classified by input."""
        def after(t, args, _result, _own, _dt):
            jet = batched = False
            for part in args:
                for c in part:
                    if isinstance(c, jet_cls):
                        jet = True
                        batched = batched or c.coeffs.ndim > 1
                    elif np.ndim(c) > 0:
                        batched = True
            if jet:
                t.counts["zoo.evaluate.jet_calls"] += 1
            if batched:
                t.counts["zoo.evaluate.batched_calls"] += 1

        wrapper = self._span("zoo.evaluate", fn, after)
        wrapper._perfbench_traced = True
        return wrapper

    def _traced_metric(self, metric, jet_cls):
        if getattr(metric.evaluate, "_perfbench_traced", False):
            return metric
        extras = dict(metric.extras)
        if "factors" in extras:
            extras["factors"] = tuple(self._traced_metric(f, jet_cls)
                                      for f in extras["factors"])
        return dataclasses.replace(metric, extras=extras,
                                   evaluate=self._evaluate(metric.evaluate, jet_cls))

    def _build_metric(self, fn, jet_cls):
        span = self._span("zoo.build_metric", fn)

        @functools.wraps(fn)
        def wrapper(spec):
            return self._traced_metric(span(spec), jet_cls)

        return wrapper

    # -- installation ----------------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every finslerkit module name bound to `original` at
        `replacement`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "finslerkit"
                                   or mod_name.startswith("finslerkit.")):
                continue
            for attr in [a for a, v in vars(mod).items() if v is original]:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, replacement)

    def _set_attr(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        from finslerkit import flow, geometry, jets, quadrature, verify, zoo

        if self._saved:
            raise RuntimeError("tracing is already installed")
        jet = jets.Jet
        mul = self._mul(jet.__mul__, jet)
        self._set_attr(jet, "__mul__", mul)
        self._set_attr(jet, "__rmul__", mul)
        for attr in ("__truediv__", "__rtruediv__"):
            self._set_attr(jet, attr, self._span("jets.lifted", jet.__dict__[attr]))
        for name in LIFTED_FUNCTIONS:
            fn = getattr(jets, name)
            self._rebind(fn, self._span("jets.lifted", fn))
        self._rebind(jets.deriv, self._span("jets.deriv", jets.deriv))
        self._rebind(jets.seed, self._span("jets.seed", jets.seed))

        self._rebind(zoo.build_metric, self._build_metric(zoo.build_metric, jet))

        for name in GEOMETRY_FUNCTIONS:
            fn = getattr(geometry, name)
            self._rebind(fn, self._geometry(name, fn))
        for name in ("_y_jets", "_phase_jets"):
            fn = getattr(geometry, name)
            self._rebind(fn, self._f2_jets(fn))

        self._rebind(quadrature.sphere_rule, self._sphere_rule(quadrature.sphere_rule))

        for name in FLOW_FUNCTIONS:
            fn = getattr(flow, name)
            self._rebind(fn, self._span(f"flow.{name}", fn))
        self._rebind(flow.solve_ivp, self._solve_ivp(flow.solve_ivp))

        self._rebind(verify.run_claim, self._span("verify.run_claim", verify.run_claim))
        self._rebind(verify.run_suite, self._run_suite(verify.run_suite))
        self._set_attr(verify.SamplePlan, "draw",
                       self._span("verify.draw", verify.SamplePlan.draw))
        cli = sys.modules.get("finslerkit.cli")
        if cli is not None:
            self._rebind(cli._emit_report, self._span("cli.report", cli._emit_report))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_metrics(snap):
    """Per-layer metrics of one unit of work from its snapshot.

    Names match ``per_layer`` in BENCHMARK.json, except the three that need
    a measurement outside the spans (sphere-rule cold time, CLI import
    time, tracing overhead), which the caller adds.
    """
    m = {}
    for layer in ("jets.mul", "jets.deriv", "jets.lifted"):
        m[f"{layer}.calls"] = snap.calls.get(layer, 0)
        m[f"{layer}.self_s"] = snap.self_s.get(layer, 0.0)
    m["jets.seed.calls"] = snap.calls.get("jets.seed", 0)
    m["jets.mul.flops"] = snap.counts.get("jets.mul.flops", 0)
    m["jets.mul.bytes"] = snap.counts.get("jets.mul.bytes", 0)
    mul_s = m["jets.mul.self_s"]
    m["jets.mul.batched_share"] = (snap.counts.get("jets.mul.batched_self_s", 0.0) / mul_s
                                   if mul_s else 0.0)
    m["zoo.evaluate.calls"] = snap.calls.get("zoo.evaluate", 0)
    m["zoo.evaluate.jet_calls"] = snap.counts.get("zoo.evaluate.jet_calls", 0)
    m["zoo.evaluate.batched_calls"] = snap.counts.get("zoo.evaluate.batched_calls", 0)
    m["zoo.evaluate.self_s"] = snap.self_s.get("zoo.evaluate", 0.0)
    m["zoo.build_metric.s"] = snap.incl_s.get("zoo.build_metric", 0.0)
    for name in GEOMETRY_FUNCTIONS:
        m[f"geometry.{name}.calls"] = snap.calls.get(f"geometry.{name}", 0)
        m[f"geometry.{name}.self_s"] = snap.self_s.get(f"geometry.{name}", 0.0)
    f2 = snap.counts.get("geometry.f2_jets", 0)
    m["geometry.f2_jets_per_sample"] = f2 / snap.distinct_samples if snap.distinct_samples else 0.0
    m["quadrature.nodes"] = snap.counts.get("quadrature.nodes", 0)
    for name in FLOW_FUNCTIONS:
        m[f"flow.{name}.calls"] = snap.calls.get(f"flow.{name}", 0)
        m[f"flow.{name}.self_s"] = snap.self_s.get(f"flow.{name}", 0.0)
    evals = snap.counts.get("flow.rhs_evals", 0)
    steps = snap.counts.get("flow.steps", 0)
    m["flow.rhs_evals"] = evals
    m["flow.steps"] = steps
    m["flow.rhs_per_step"] = evals / steps if steps else 0.0
    m["flow.rhs_ms"] = 1e3 * snap.counts.get("flow.rhs_s", 0.0) / evals if evals else 0.0
    m["verify.run_claim.calls"] = snap.calls.get("verify.run_claim", 0)
    m["verify.run_claim.self_s"] = snap.self_s.get("verify.run_claim", 0.0)
    m["verify.draw.self_s"] = snap.self_s.get("verify.draw", 0.0)
    wall = snap.counts.get("verify.suite.wall_s", 0.0)
    m["verify.suite.cpu_over_wall"] = (snap.counts.get("verify.suite.cpu_s", 0.0) / wall
                                       if wall else 0.0)
    m["cli.report_s"] = snap.incl_s.get("cli.report", 0.0)
    return m


def breakdown(snap):
    """The ROADMAP item-1 tables, as JSON-ready lists: Jet products by
    (directions, order, batch) with self seconds, geometry calls by
    (function, metric) and every span by name, with inclusive seconds."""
    return {
        "spans": sorted([name, snap.calls[name], snap.incl_s[name], snap.self_s[name]]
                        for name in snap.calls),
        "jet_mul": sorted([nd, order, batch, c, s]
                          for (nd, order, batch), (c, s) in snap.mul_shapes.items()),
        "geometry": sorted([fn, metric, c, s]
                           for (fn, metric), (c, s) in snap.by_kind.items()),
        "sphere_rules": sorted(list(r) for r in snap.rules),
    }
