"""Command line interface: eval, geodesic, suite, claim, zoo-list."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import deadline

from finslerkit import cli, verify, zoo
from finslerkit.errors import DegenerateMetricError, DomainError
from finslerkit.geometry import (TangentSample, distortion, flag_curvature,
                                 fundamental_tensor, mean_cartan, mean_landsberg,
                                 s_curvature, spray, volume_density)

FUNK = "{kind: funk_ball_shifted, dimension: 2, parameters: {a: [0.3, 0.0]}}"
MINK = "{kind: minkowski, dimension: 2}"
SLAB = "{kind: incomplete_slab, dimension: 3}"

CLAIMS_YAML = """
- id: funk-curvature
  metric: {kind: funk_ball_shifted, dimension: 2, parameters: {a: [0.3, 0.0]}}
  quantity: flag_curvature
  target: {kind: constant, value: -0.25}
  tolerance: 1e-6
  tolerance_kind: relative
  samples: {count: 20, seed: 4}
- id: flat-cartan
  metric: {kind: riemannian, dimension: 2, parameters: {model: flat}}
  quantity: mean_cartan
  target: {kind: zero}
  tolerance: 1e-10
  tolerance_kind: absolute
  samples: {count: 20, seed: 4}
"""


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_norm_prints_twelve_digits(capsys):
    code, out, _ = run_cli(capsys, "eval", "--metric", FUNK,
                           "--x", "0.1,0.2", "--y", "0.5,-0.3",
                           "--quantity", "F")
    assert code == 0
    assert out.strip() == "0.733440393903"


def test_eval_flag_curvature(capsys):
    code, out, _ = run_cli(capsys, "eval", "--metric", FUNK,
                           "--x", "0.1,0.2", "--y", "0.5,-0.3",
                           "--u", "1.0,0.0", "--quantity", "K")
    assert code == 0
    assert float(out.strip()) == pytest.approx(-0.25, rel=1e-9)


def test_eval_curvature_requires_flag_edge(capsys):
    code, _, err = run_cli(capsys, "eval", "--metric", FUNK,
                           "--x", "0.1,0.2", "--y", "0.5,-0.3",
                           "--quantity", "K")
    assert code == 2
    assert "u" in err


@pytest.mark.parametrize("quantity", ["F", "g"])
def test_eval_flag_edge_of_another_quantity_is_a_usage_error(capsys, quantity):
    code, out, err = run_cli(capsys, "eval", "--metric", FUNK,
                             "--x", "0.1,0.2", "--y", "0.5,-0.3",
                             "--u", "0,1", "--quantity", quantity)
    assert (code, out) == (2, "")
    assert err.startswith("error: --u ")


def test_eval_s_curvature_of_pure_funk(capsys):
    plain = "{kind: funk_ball_shifted, dimension: 2, parameters: {a: [0.0, 0.0]}}"
    code, out, _ = run_cli(capsys, "eval", "--metric", plain,
                           "--x", "0.1,0.2", "--y", "0.5,-0.3",
                           "--quantity", "S")
    assert code == 0
    code2, out2, _ = run_cli(capsys, "eval", "--metric", plain,
                             "--x", "0.1,0.2", "--y", "0.5,-0.3",
                             "--quantity", "F")
    # S = (n + 1) F / 2 for the Funk metric of the ball
    assert float(out.strip()) == pytest.approx(1.5 * float(out2.strip()),
                                               abs=1e-3)


def test_geodesic_csv_has_constant_velocity_rows(capsys):
    code, out, _ = run_cli(capsys, "geodesic", "--metric", MINK,
                           "--x", "0,0", "--y", "0.5,0.25",
                           "--t-span", "0,1", "--nodes", "9")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    for row in rows:
        t = float(row["t"])
        assert float(row["x1"]) == pytest.approx(0.5 * t, abs=1e-10)
        assert float(row["x2"]) == pytest.approx(0.25 * t, abs=1e-10)
        assert float(row["y1"]) == pytest.approx(0.5, abs=1e-10)
        assert float(row["y2"]) == pytest.approx(0.25, abs=1e-10)


def test_geodesic_torsion_columns(capsys):
    code, out, _ = run_cli(capsys, "geodesic", "--metric", FUNK,
                           "--x", "0.1,-0.2", "--y", "0.8,0.5",
                           "--t-span", "0,1", "--nodes", "33", "--torsion")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert "phi" in rows[0] and "residual" in rows[0]
    phi = np.array([float(r["phi"]) for r in rows])
    residual = np.array([float(r["residual"]) for r in rows])
    assert residual.max() <= 1e-4 * max(1.0, phi.max())


def test_geodesic_exit_is_reported(capsys):
    code, out, err = run_cli(capsys, "geodesic", "--metric", SLAB,
                             "--x", "0,0,0", "--y", "1,0.2,0",
                             "--t-span", "0,5", "--nodes", "9",
                             "--tol", "1e-8")
    assert code == 0
    assert "exit" in err.lower()
    rows = list(csv.DictReader(io.StringIO(out)))
    last = np.array([float(rows[-1]["x1"]), float(rows[-1]["x2"])])
    assert np.dot(last, last) < 1.0


def test_suite_command_passes_on_shipped_claims(tmp_path, capsys):
    path = tmp_path / "claims.yaml"
    path.write_text(CLAIMS_YAML)
    code, out, err = run_cli(capsys, "suite", "--file", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert err == ""


def test_suite_reports_failures_on_stderr(tmp_path, capsys):
    tightened = CLAIMS_YAML.replace("tolerance: 1e-6", "tolerance: 1e-16")
    path = tmp_path / "claims.yaml"
    path.write_text(tightened)
    code, out, err = run_cli(capsys, "suite", "--file", str(path))
    assert code == 1
    assert "funk-curvature" in err
    assert "FAIL" in err


def test_suite_on_a_malformed_claim_file_is_a_usage_error(tmp_path, capsys,
                                                         malformed_claim_yaml):
    path = tmp_path / "claims.yaml"
    path.write_text(malformed_claim_yaml)
    with deadline(30):
        code, out, err = run_cli(capsys, "suite", "--file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_suite_on_a_claim_file_that_is_not_yaml_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "claims.yaml"
    path.write_text("- id: [unclosed\n")
    code, out, err = run_cli(capsys, "suite", "--file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_suite_with_fewer_than_one_job_is_a_usage_error(tmp_path, capsys, jobs):
    """--jobs below 1 exits 2 instead of quietly running the claims serially."""
    path = tmp_path / "claims.yaml"
    path.write_text(CLAIMS_YAML)
    code, out, err = run_cli(capsys, "suite", "--file", str(path), "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_suite_seed_override_is_deterministic(tmp_path, capsys):
    path = tmp_path / "claims.yaml"
    path.write_text(CLAIMS_YAML)
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "suite", "--file", str(path),
                               "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        for rec in payload["claims"]:
            rec.pop("runtime", None)
        outputs.append(json.dumps(payload, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_seed_override_changes_only_the_sample_seed(tmp_path):
    path = tmp_path / "claims.yaml"
    path.write_text(CLAIMS_YAML)
    args = cli.build_parser().parse_args(["suite", "--file", str(path),
                                          "--seed", "7"])
    original = verify.load_claims(str(path))
    overridden = cli._load_suite(args)
    assert len(overridden) == len(original)
    for before, after in zip(original, overridden):
        want = before.to_dict()
        want["samples"]["seed"] = 7
        assert after.to_dict() == want


def test_claim_command_filters_by_id(tmp_path, capsys):
    path = tmp_path / "claims.yaml"
    path.write_text(CLAIMS_YAML)
    code, out, _ = run_cli(capsys, "claim", "--file", str(path),
                           "--id", "flat-cartan")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["claims"]) == 1
    assert payload["claims"][0]["claim_id"] == "flat-cartan"


@pytest.mark.parametrize("command", [["suite"], ["claim", "--id", "flat-cartan"]])
def test_a_repeated_claim_id_is_a_usage_error(tmp_path, capsys, command):
    """`claim --id` would run both claims of the id and print two reports."""
    path = tmp_path / "claims.yaml"
    path.write_text(CLAIMS_YAML + CLAIMS_YAML[CLAIMS_YAML.index("- id: flat-cartan"):])
    code, out, err = run_cli(capsys, command[0], "--file", str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "flat-cartan" in err


def test_zoo_list_emits_reconstructible_specs(capsys):
    code, out, _ = run_cli(capsys, "zoo-list", "--emit-specs")
    assert code == 0
    import yaml

    specs = [zoo.MetricSpec.from_dict(d) for d in yaml.safe_load(out)]
    assert sorted(s.kind for s in specs) == sorted(zoo.KINDS)
    for spec in specs:
        zoo.build_metric(spec)


def test_geodesic_from_outside_the_chart_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "geodesic", "--metric", FUNK,
                             "--x", "2,0", "--y", "1,0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "margin" in err


@pytest.mark.parametrize("tol", ["1e300", "1"])
def test_geodesic_tolerance_outside_the_unit_interval_is_a_usage_error(capsys, tol):
    """1e300 used to escape as an OverflowError."""
    with deadline(10.0):
        code, out, err = run_cli(capsys, "geodesic", "--metric", FUNK,
                                 "--x", "0.1,0.2", "--y", "0.5,-0.3", "--tol", tol)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "tolerance" in err


def test_bad_metric_spec_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval",
                           "--metric", "{kind: bogus, dimension: 2}",
                           "--x", "0,0", "--y", "1,0", "--quantity", "F")
    assert code == 2
    assert "bogus" in err


def test_out_of_domain_point_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--metric", FUNK,
                           "--x", "2.0,0.0", "--y", "1,0", "--quantity", "F")
    assert code == 2
    assert "domain" in err.lower()


@pytest.mark.parametrize("spec,point", [
    ("{kind: funk_ball_shifted, dimension: 2, parameters: {shift: [0.5, 0]}}", "0,0"),
    ("{kind: szabo_product, dimension: 3, parameters: {profile: lineaar}}", "0,0,0"),
    ("{kind: szabo_epsilon, dimension: 5, parameters: {eps: 0.5}}", "0,0,0"),
    ("{kind: minkowski, dimension: 2, parameters: {b: [false, false]}}", "0,0"),
], ids=["unknown-key", "unknown-profile", "wrong-dimension", "boolean-drift"])
def test_eval_of_a_spec_with_ignored_input_is_a_usage_error(capsys, spec, point):
    direction = "1" + ",0" * point.count(",")
    code, out, err = run_cli(capsys, "eval", "--metric", spec, "--x", point,
                             "--y", direction, "--quantity", "F")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["eval", "--x", "0.1", "--y", "0.5,-0.3", "--quantity", "F"],
    ["eval", "--x", "nan,0", "--y", "0.5,-0.3", "--quantity", "F"],
    ["eval", "--x", "0.1,0.2", "--y", "0.5,-0.3,1", "--quantity", "F"],
    ["eval", "--x", "0.1,0.2", "--y", "0.5,inf", "--quantity", "F"],
    ["eval", "--x", "0.1,0.2", "--y", "0.5,-0.3", "--u", "1,nan", "--quantity", "K"],
    ["geodesic", "--x", "0.1,0.2", "--y", "0.5,-0.3", "--nodes", "1"],
    ["geodesic", "--x", "0.1,0.2", "--y", "0.5,-0.3", "--tol", "-1"],
    ["geodesic", "--x", "0.1,0.2", "--y", "0.5,-0.3", "--tol", "0"],
], ids=["short-x", "nan-x", "long-y", "infinite-y", "nan-u", "one-node",
        "negative-tol", "zero-tol"])
def test_degenerate_input_is_a_usage_error(capsys, argv):
    """Vectors of the wrong length or with non-finite entries, a trace of
    fewer than 2 nodes and a tolerance that is not positive exit 2."""
    code, out, err = run_cli(capsys, *argv, "--metric", FUNK)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("option,text", [
    ("--t-span", "0"), ("--t-span", "0,1,2"), ("--t-span", "0,abc"),
    ("--t-span", "0,nan"), ("--x", "0.1,abc"), ("--y", "0.5,true"),
])
def test_a_malformed_geodesic_vector_is_refused_by_name(capsys, option, text):
    argv = {"--x": "0.1,0.2", "--y": "0.5,-0.3", "--t-span": "0,1", option: text}
    code, out, err = run_cli(capsys, "geodesic", "--metric", FUNK,
                             *[a for item in argv.items() for a in item])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {option} ")


def test_zero_direction_is_refused_by_name(capsys):
    """A zero y is refused before its F^2 jet is built, so no RuntimeWarning
    comes from the jet series: alone, in a stack (its first zero row) and
    from the CLI (exit 2)."""
    metric = zoo.make_funk_shifted([0.3, 0.0])
    message = re.escape("tangent direction y = [0. 0.] is zero")
    xs = np.array([[0.1, 0.2], [0.0, 0.1], [-0.1, 0.0]])
    ys = np.array([[0.5, -0.3], [0.0, 0.0], [0.0, 0.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DegenerateMetricError, match=message):
            fundamental_tensor(metric, TangentSample(xs[0], ys[1]))
        with pytest.raises(DegenerateMetricError, match=message) as err:
            spray(metric, TangentSample(xs, ys))
        assert err.value.x.tolist() == xs[1].tolist()
        code, out, err = run_cli(capsys, "eval", "--metric", FUNK, "--x", "0.1,0.2",
                                 "--y", "0,0", "--quantity", "g")
    assert (code, out) == (2, "")
    assert err == "error: tangent direction y = [0. 0.] is zero\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_eval_outside_the_domain_raises_domain_error():
    args = cli.build_parser().parse_args(
        ["eval", "--metric", FUNK, "--x", "2.0,0.0", "--y", "1,0",
         "--quantity", "F"])
    with pytest.raises(DomainError):
        args.func(args)


@pytest.mark.parametrize("spec,point", [
    ("{kind: euclidean, dimension: 2, parameters: }", "0,0"),
    ("{kind: szabo_epsilon, dimension: 3, parameters: {eps: null}}", "0,0,0"),
], ids=["null-parameters", "null-eps"])
def test_eval_of_a_spec_with_null_values_is_a_usage_error(capsys, spec, point):
    """A null where the spec wants a mapping or a number is a spec error
    (exit 2), not a TypeError traceback (exit 1)."""
    direction = "1" + ",0" * point.count(",")
    code, out, err = run_cli(capsys, "eval", "--metric", spec, "--x", point,
                             "--y", direction, "--quantity", "F")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def _after_cli_import(code):
    """Standard output of `code` run in a fresh interpreter after `import
    finslerkit.cli`, with the package under test on the path."""
    import finslerkit
    root = os.path.dirname(os.path.dirname(finslerkit.__file__))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {root!r}); "
                               f"import finslerkit.cli; {code}"],
        capture_output=True, text=True, timeout=120)
    return out.stdout.split(), out.stderr


@pytest.mark.parametrize("module,loaded,absent,first_use", [
    ("scipy.integrate", False, None,
     "from finslerkit import flow, zoo; flow.integrate_geodesic("
     "zoo.make_funk_shifted([0.3, 0.0]), [0.1, 0.2], [0.5, -0.3], (0, 0.1))"),
    ("scipy.linalg._flapack", True, "scipy.linalg",
     "from finslerkit import geometry, zoo; geometry.fundamental_tensor("
     "zoo.make_funk_shifted([0.3, 0.0]), geometry.TangentSample([0.1, 0.2], [0.5, -0.3]))"),
], ids=["scipy.integrate", "scipy.linalg"])
def test_cli_import_leaves_a_slow_scipy_module_to_its_first_user(module, loaded, absent,
                                                                 first_use):
    """A geodesic solves with finslerkit's own Runge-Kutta pairs, so it
    never loads scipy.integrate (a third of a second or more to import).
    A bundle that factors g loads scipy's LAPACK extension alone, and never
    the scipy.linalg package (`absent`)."""
    out, err = _after_cli_import(f"print({module!r} in sys.modules); {first_use}; "
                                 f"print({module!r} in sys.modules, {absent!r} in sys.modules)")
    assert out == ["False", str(loaded), "False"], err


_FLOWS = """
from finslerkit import flow, geometry, zoo
funk = zoo.make_funk_shifted([0.3, 0.0])
trace = flow.integrate_geodesic(funk, [0.1, 0.2], [0.5, -0.3], (0, 0.1))
flow.jacobi_propagate(funk, trace, [0.0, 1.0], [0.3, 0.2])
geometry.cartan_norm(funk, [0.1, 0.2])
flows = set(sys.modules)
slab = flow.integrate_geodesic(zoo.make_incomplete_slab(), [0, 0, 0], [1, 0.2, 0.1], (0, 5))
print(slab.exit, ','.join(sorted(set(sys.modules) - flows)) or '-')
print(','.join(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.sparse', 'scipy.linalg')
               if m in sys.modules) or '-')
"""


def test_flows_import_no_scipy_integrate_optimize_sparse_or_linalg_package():
    """A geodesic, a Jacobi field and an n = 2 Cartan norm run on
    finslerkit's own Runge-Kutta pairs and bounded search.  A geodesic that
    leaves the chart adds scipy's C root finder alone, loaded from its
    file."""
    out, err = _after_cli_import(_FLOWS)
    assert out == ["True", "scipy.optimize._zeros", "-"], err


def test_an_n4_sphere_rule_and_s_curvature_import_neither_scipy_stats_nor_scipy_linalg():
    """The n >= 4 sphere rules are Gauss products built with numpy alone.
    The scrambled Sobol rule before them imported scipy.stats, and with it
    the scipy.linalg package."""
    out, err = _after_cli_import(
        "from finslerkit import zoo; from finslerkit.quadrature import sphere_rule; "
        "from finslerkit.geometry import TangentSample, s_curvature; sphere_rule(4); "
        "s_curvature(zoo.make_funk_shifted([0.3, 0.0, 0.0, 0.1], dimension=4), "
        "TangentSample([0.1, 0.2, 0.0, 0.0], [0.3, 0.4, 0.1, 0.2])); "
        "print('scipy.stats' in sys.modules, 'scipy.linalg' in sys.modules)")
    assert out == ["False", "False"], err


_FIRST_BUNDLES_AT_ONCE = """
import threading
from finslerkit import geometry, zoo
metric = zoo.make_funk_shifted([0.3, 0.0])
start = threading.Barrier(2)
factors = []

def build():
    start.wait()
    factors.append(geometry.fundamental_tensor(
        metric, geometry.TangentSample([0.1, 0.2], [0.5, -0.3])).g)

threads = [threading.Thread(target=build) for _ in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(len(factors), 'scipy.linalg._flapack' in sys.modules, 'scipy.linalg' in sys.modules)
"""


def test_two_threads_building_their_first_bundles_at_once_import_no_scipy_linalg_package():
    """Both threads build their first bundle at once; the second must not
    bind LAPACK before the first has (geometry._lapack_lock), which would
    import all of scipy.linalg."""
    out, err = _after_cli_import(_FIRST_BUNDLES_AT_ONCE)
    assert out == ["2", "True", "False"], err


S_CLAIM_YAML = """
- id: slab-s-curvature
  metric: {kind: incomplete_slab, dimension: 3}
  quantity: s_curvature
  target: {kind: zero}
  tolerance: 1e-3
  samples: {count: 3, seed: 109}
"""


def test_suite_jobs_caps_the_threads_and_keeps_the_report(tmp_path):
    """An n = 3 S splits its 32768-node passes onto one worker thread
    under --jobs 2 (the default), and under --jobs 1 starts no thread; the
    reports are the same apart from `runtime`."""
    path = tmp_path / "claims.yaml"
    path.write_text(S_CLAIM_YAML)
    reports = []
    for jobs, threads in [(["--jobs", "1"], "1"), (["--jobs", "2"], "2"), ([], "2")]:
        report = tmp_path / "suite.json"
        argv = ["suite", "--file", str(path), *jobs, "--out", str(report)]
        out, err = _after_cli_import(f"import threading; code = finslerkit.cli.main({argv!r}); "
                                     "print(code, threading.active_count())")
        assert out == ["0", threads], (jobs, err)
        doc = json.loads(report.read_text())
        for claim in doc["claims"]:
            claim.pop("runtime")
        reports.append(doc)
    assert reports[0] == reports[1] == reports[2]


def test_cli_import_loads_no_scipy_module():
    """Commands that build no bundle (zoo-list, --help, spec errors) pay
    for numpy alone."""
    out, err = _after_cli_import(
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out == ["[]"], err


#: each `eval` quantity as its public view gives it at a tangent sample
EVAL_VIEWS = {
    "F": lambda m, at: float(m.evaluate(at.x, at.y)),
    "g": lambda m, at: fundamental_tensor(m, at).g,
    "G": lambda m, at: spray(m, at).G,
    "K": lambda m, at: flag_curvature(m, at, [1.0, 0.0]),
    "S": lambda m, at: s_curvature(m, at),
    "I": lambda m, at: mean_cartan(m, at).I,
    "J": lambda m, at: mean_landsberg(m, at).J,
    "tau": lambda m, at: distortion(m, at),
    "sigma": lambda m, at: volume_density(m, at.x),
}


@pytest.mark.parametrize("quantity", list(cli.EVAL_QUANTITIES))
def test_eval_prints_each_quantity_as_its_view_gives_it(capsys, quantity):
    edge = ["--u", "1,0"] if quantity == "K" else []
    code, out, _ = run_cli(capsys, "eval", "--metric", FUNK, "--x", "0.1,0.2",
                           "--y", "0.3,0.4", *edge, "--quantity", quantity)
    m = zoo.build_metric(zoo.MetricSpec.from_yaml(FUNK))
    at = TangentSample([0.1, 0.2], [0.3, 0.4])
    assert (code, out) == (0, cli._fmt(EVAL_VIEWS[quantity](m, at)) + "\n")
