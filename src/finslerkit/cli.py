"""Command-line frontend.

Subcommands: eval (pointwise quantities), geodesic (CSV traces), suite
(claim suites with JSON reports), zoo-list (built-in metrics), claim (a
single claim by id).  Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np
import yaml

from . import flow, verify
from .errors import DomainError, FinslerError, _vector
from .geometry import (TangentSample, distortion, flag_curvature,
                       fundamental_tensor, mean_cartan, mean_landsberg,
                       s_curvature, spray, volume_density)
from .zoo import KINDS, MetricSpec, build_metric, default_specs

#: --quantity -> its value at a tangent sample `at`, given the flag edge u
EVAL_QUANTITIES = {
    "F": lambda metric, at, u: float(metric.evaluate(at.x, at.y)),
    "g": lambda metric, at, u: fundamental_tensor(metric, at).g,
    "G": lambda metric, at, u: spray(metric, at).G,
    "K": lambda metric, at, u: flag_curvature(metric, at, u),
    "S": lambda metric, at, u: s_curvature(metric, at),
    "I": lambda metric, at, u: mean_cartan(metric, at).I,
    "J": lambda metric, at, u: mean_landsberg(metric, at).J,
    "tau": lambda metric, at, u: distortion(metric, at),
    "sigma": lambda metric, at, u: volume_density(metric, at.x),
}


def _load_spec(text):
    """Metric spec from a YAML file path or an inline YAML mapping."""
    if os.path.exists(text):
        with open(text) as fh:
            text = fh.read()
    return MetricSpec.from_yaml(text)


def _numbers(text, name, count):
    """The comma-separated option `name` as `count` finite numbers."""
    return _vector(name, text.split(","), count)


def _fmt(v):
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim == 1:
        return " ".join(f"{x:.12g}" for x in arr)
    return "\n".join(" ".join(f"{x:.12g}" for x in row) for row in arr)


def cmd_eval(args):
    metric = build_metric(_load_spec(args.metric))
    n = metric.dimension
    at = TangentSample(_numbers(args.x, "--x", n), _numbers(args.y, "--y", n))
    if not metric.domain.margin(at.x) > 0.0:
        raise DomainError(f"point {args.x} is outside the chart domain")
    if args.quantity == "K" and args.u is None:
        raise FinslerError("quantity K needs a flag edge --u")
    if args.quantity != "K" and args.u is not None:
        raise FinslerError("--u is the flag edge of quantity K; "
                           f"quantity {args.quantity} does not read it")
    u = None if args.u is None else _numbers(args.u, "--u", n)
    print(_fmt(EVAL_QUANTITIES[args.quantity](metric, at, u)))
    return 0


def cmd_geodesic(args):
    metric = build_metric(_load_spec(args.metric))
    n = metric.dimension
    t_span = tuple(_numbers(args.t_span, "--t-span", 2))
    trace = flow.integrate_geodesic(metric, _numbers(args.x, "--x", n),
                                    _numbers(args.y, "--y", n), t_span,
                                    tol=args.tol, nodes=args.nodes)
    if trace.exit:
        print(f"boundary exit at t = {trace.exit_time:.12g}", file=sys.stderr)
    print(f"speed drift {trace.speed_drift:.3e}", file=sys.stderr)
    payload = flow.torsion_trace(metric, trace, check_tol=None) if args.torsion else trace
    if args.out:
        flow.trace_to_csv(payload, args.out)
        print(f"trace written to {args.out}", file=sys.stderr)
    else:
        flow.trace_to_csv(payload, sys.stdout)
    return 0


def _emit_report(report, args):
    doc = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc + "\n")
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        print(doc)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())
        print(f"table written to {args.csv}", file=sys.stderr)
    for rep in report.failures():
        print(f"FAIL {rep.claim_id}: {rep.detail or rep.worst_sample}", file=sys.stderr)
    return report.exit_status


def _load_suite(args):
    claims = verify.load_claims(args.file)
    if args.seed is not None:
        claims = [dataclasses.replace(
            c, samples=dataclasses.replace(c.samples, seed=args.seed))
            for c in claims]
    return claims


def cmd_suite(args):
    report = verify.run_suite(_load_suite(args), parallelism=args.jobs)
    return _emit_report(report, args)


def cmd_claim(args):
    claims = [c for c in _load_suite(args) if c.id == args.id]
    if not claims:
        raise FinslerError(f"no claim with id {args.id!r} in {args.file}")
    report = verify.run_suite(claims, parallelism=1)
    return _emit_report(report, args)


def cmd_zoo_list(args):
    if args.emit_specs:
        print(yaml.safe_dump([s.to_dict() for s in default_specs()],
                             sort_keys=False))
    else:
        for kind in KINDS:
            print(kind)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="finslerkit",
        description="numerical Finsler geometry: curvatures, geodesics, "
                    "and verification suites")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a quantity at a tangent vector")
    p_eval.add_argument("--metric", required=True, help="spec file or inline YAML")
    p_eval.add_argument("--x", required=True, help="comma-separated point")
    p_eval.add_argument("--y", required=True, help="comma-separated direction")
    p_eval.add_argument("--u", help="flag edge for K")
    p_eval.add_argument("--quantity", required=True, choices=EVAL_QUANTITIES)
    p_eval.set_defaults(func=cmd_eval)

    p_geo = sub.add_parser("geodesic", help="integrate a geodesic to CSV")
    p_geo.add_argument("--metric", required=True)
    p_geo.add_argument("--x", required=True)
    p_geo.add_argument("--y", required=True)
    p_geo.add_argument("--t-span", default="0,1")
    p_geo.add_argument("--tol", type=float, default=1e-10)
    p_geo.add_argument("--nodes", type=int, default=65)
    p_geo.add_argument("--torsion", action="store_true",
                       help="append torsion magnitude and residual columns")
    p_geo.add_argument("--out")
    p_geo.set_defaults(func=cmd_geodesic)

    p_suite = sub.add_parser("suite", help="run a claim suite")
    p_suite.add_argument("--file", required=True, help="YAML claim list")
    p_suite.add_argument("--jobs", type=int, default=1)
    p_suite.add_argument("--seed", type=int, help="override all claim seeds")
    p_suite.add_argument("--out", help="JSON report path (default stdout)")
    p_suite.add_argument("--csv", help="also write a CSV table")
    p_suite.set_defaults(func=cmd_suite)

    p_claim = sub.add_parser("claim", help="run a single claim by id")
    p_claim.add_argument("--file", required=True)
    p_claim.add_argument("--id", required=True)
    p_claim.add_argument("--seed", type=int)
    p_claim.add_argument("--out")
    p_claim.add_argument("--csv")
    p_claim.set_defaults(func=cmd_claim)

    p_zoo = sub.add_parser("zoo-list", help="list built-in metric kinds")
    p_zoo.add_argument("--emit-specs", action="store_true",
                       help="emit one full spec per kind as YAML")
    p_zoo.set_defaults(func=cmd_zoo_list)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FinslerError, ValueError, OSError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
