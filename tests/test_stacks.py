"""Stacks of tangent samples: one bundle for K samples, the values of each
sample as it gets them alone, and the errors of the first failing sample."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from finslerkit import flow, geometry, verify, zoo
from finslerkit.domains import Ball, Box, DiskCylinder, Domain, ProductDomain
from finslerkit.errors import DegenerateMetricError, DomainError, FinslerError
from finslerkit.geometry import (TangentSample, flag_curvature, fundamental_tensor,
                                 local_geometry, mean_cartan)
from finslerkit.jets import jsqrt
from finslerkit.verify import Claim, SamplePlan, run_claim


def _stack(metric, count, seed_):
    rng = np.random.default_rng(seed_)
    x = np.array([metric.domain.sample_interior(rng, margin=0.05) for _ in range(count)])
    return TangentSample(x, rng.standard_normal((count, metric.dimension)))


def _samples(at):
    return [TangentSample(x, y) for x, y in zip(at.x, at.y)]


def _applies(metric, quantity):
    if quantity in ("det_identity", "spray_split"):
        return "factors" in metric.extras
    if quantity == "cartan_bound":
        return "beta_norm" in metric.extras
    return True


def _sign_changing_metric():
    """F = |y| + 1.5 y^1 + 0.1 x^1 y^2: negative where y points along -e1."""
    return geometry.MetricField(
        dimension=2, domain=zoo.Box(np.full(2, -1.0), np.full(2, 1.0)),
        evaluate=lambda x, y: (jsqrt(y[0] * y[0] + y[1] * y[1]) + 1.5 * y[0]
                               + 0.1 * x[0] * y[1]),
        name="sign_changing")


def _nonconvex_metric():
    """F = |y| + (1 + x^1) (y^1)^2 / |y|: positive everywhere, but its
    indicatrix is not convex, so g is indefinite, where y points near e1
    and x^1 > 1/2."""
    def evaluate(x, y):
        r = jsqrt(y[0] * y[0] + y[1] * y[1])
        return r + (1.0 + x[0]) * y[0] * y[0] / r

    return geometry.MetricField(
        dimension=2, domain=zoo.Box(np.full(2, -1.0), np.full(2, 1.0)),
        evaluate=evaluate, name="nonconvex")


@pytest.mark.parametrize("spec", zoo.default_specs(), ids=lambda s: s.kind)
def test_stacked_quantities_agree_with_single_samples(spec):
    """Every quantity run_claim evaluates on stacks gives each of 7 stacked
    samples its single-sample value, to 1e-12 relative or 1e-13 absolute."""
    m = zoo.build_metric(spec)
    at = _stack(m, 7, seed_=31)
    checked = 0
    for quantity, q in sorted(verify._QUANTITIES.items()):
        if not q.stacked or not _applies(m, quantity):
            continue
        rng = np.random.default_rng(5)
        drawn = [q.draw(m, one, rng, {}) if q.draw else None for one in _samples(at)]
        stacked = q.evaluate(m, at, None if q.draw is None else np.stack(drawn), {})
        single = np.array([q.evaluate(m, one, d, {}) for one, d in zip(_samples(at), drawn)])
        assert stacked.shape == (7,), quantity
        gap = np.abs(stacked - single)
        assert np.all(gap <= np.maximum(1e-12 * np.abs(single), 1e-13)), (quantity, gap)
        checked += 1
    assert checked >= 6


#: need -> the quantities a bundle of that need gives
_READABLE = {"G": ("F", "g", "g_inverse", "G"),
             "N": ("F", "g", "g_inverse", "G", "N", "G_x", "I"),
             "R": ("F", "g", "g_inverse", "G", "N", "G_x", "I", "G_yy", "G_xy", "R", "J")}


@pytest.mark.parametrize("kind", [s.kind for s in zoo.default_specs()])
def test_a_stacked_sample_gets_its_tensors_bit_for_bit(kind):
    """Each sample of a stack reads every quantity of needs G, N and R bit
    for bit as its unbatched bundle does."""
    m = zoo.build_metric(next(s for s in zoo.default_specs() if s.kind == kind))
    at = _stack(m, 5, seed_=8)
    for need, names in _READABLE.items():
        stacked = local_geometry(m, at, need)
        for k, one in enumerate(_samples(at)):
            alone = local_geometry(m, one, need)
            for name in names:
                assert np.array_equal(getattr(stacked, name)[k], getattr(alone, name)), \
                    (need, name)


@pytest.mark.parametrize("spec", zoo.default_specs(), ids=lambda s: s.kind)
def test_distortion_of_a_stack_gives_each_sample_its_own_value(spec):
    m = zoo.build_metric(spec)
    at = _stack(m, 3, seed_=4)
    stacked = geometry.distortion(m, at)
    assert stacked.shape == (3,)
    for k, one in enumerate(_samples(at)):
        assert stacked[k] == geometry.distortion(m, one)


def test_result_helpers_give_one_value_per_stacked_sample(funk_shifted):
    m = funk_shifted
    at = _stack(m, 4, seed_=3)
    ft, tv = fundamental_tensor(m, at), mean_cartan(m, at)
    for k, one in enumerate(_samples(at)):
        alone = fundamental_tensor(m, one)
        assert ft.inner(at.y, at.y)[k] == alone.inner(one.y, one.y)
        assert ft.norm(at.y)[k] == alone.norm(one.y)
        tv_alone = mean_cartan(m, one)
        assert tv.conorm(tv.I)[k] == tv_alone.conorm(tv_alone.I)


def test_one_sample_stays_unbatched(funk_shifted):
    """A single sample is not made a stack of one: its jets carry no
    batch axis and its scalars are floats."""
    lg = local_geometry(funk_shifted, TangentSample([0.1, 0.2], [0.5, -0.3]), "R")
    assert lg.f2.batch_shape == ()
    assert type(lg.F) is float
    assert lg.g.shape == (2, 2) and lg.R.shape == (2, 2)


#: metric and (x, y) rows; the middle row is the degenerate one.
DEGENERATE_MIDDLE = {
    "F <= 0": (_sign_changing_metric,
               [[0.3, 0.1], [0.3, 0.1], [0.2, -0.4]],
               [[0.5, 0.8], [-1.0, 0.2], [0.7, 0.1]]),
    "outside the domain": (_sign_changing_metric,
                           [[0.3, 0.1], [1.5, 0.1], [0.2, -0.4]],
                           [[0.5, 0.8], [0.5, 0.8], [0.7, 0.1]]),
    "g not positive definite": (_nonconvex_metric,
                                [[0.3, 0.1], [0.9, 0.1], [0.2, -0.4]],
                                [[0.5, 0.8], [1.0, 0.1], [0.1, 0.7]]),
}


@pytest.mark.parametrize("need", ["g", "I", "G", "R"])
@pytest.mark.parametrize("case", DEGENERATE_MIDDLE, ids=list(DEGENERATE_MIDDLE))
def test_a_stack_raises_as_its_degenerate_sample_does(case, need):
    make, x, y = DEGENERATE_MIDDLE[case]
    m = make()
    x, y = np.array(x), np.array(y)
    with pytest.raises(FinslerError) as alone:
        local_geometry(m, TangentSample(x[1], y[1]), need)
    assert isinstance(alone.value, (DegenerateMetricError, DomainError))
    with pytest.raises(type(alone.value)) as stacked:
        local_geometry(m, TangentSample(x, y), need)
    assert str(stacked.value) == str(alone.value)
    if isinstance(alone.value, DegenerateMetricError):
        assert np.array_equal(stacked.value.x, alone.value.x)
        assert np.array_equal(stacked.value.y, alone.value.y)


def test_a_stack_raises_for_the_first_failing_sample_in_stack_order():
    """Sample 1 has F <= 0 and sample 2 lies outside the chart: the stack
    fails as sample 1 does, as a loop over the samples would."""
    m = _sign_changing_metric()
    x = np.array([[0.3, 0.1], [0.3, 0.1], [1.5, 0.1]])
    y = np.array([[0.5, 0.8], [-1.0, 0.2], [0.5, 0.8]])
    with pytest.raises(DegenerateMetricError) as err:
        local_geometry(m, TangentSample(x, y), "R")
    assert np.array_equal(err.value.y, y[1])


class _Ellipse(Domain):
    """A user's domain that defines only `margin`: (x^1 / 2)^2 + (x^2)^2 < 1."""

    def margin(self, x):
        return float(1.0 - np.hypot(x[0] / 2.0, x[1]))


class _RoundedEllipse(_Ellipse):
    """The ellipse with vectorized margins 4 units in the last place above
    `margin`'s, as far as rounding in another summation order may take
    them."""

    def margins(self, xs):
        return 1.0 - np.hypot(xs[:, 0] / 2.0, xs[:, 1]) + 4.0 * 2.0**-52


#: name -> (domain, dimension)
_DOMAINS = {
    "ball": (Ball(3), 3),
    "box": (Box(np.array([-1.0, -0.5]), np.array([2.0, 1.5])), 2),
    "disk_cylinder": (DiskCylinder(3), 3),
    "product": (ProductDomain(Ball(2), Box(np.array([-10.0]), np.array([10.0])), 2), 3),
    "phi": (zoo.make_funk_implicit("randers", 2).domain, 2),
    "user": (_Ellipse(), 2),
    "user_margins": (_RoundedEllipse(), 2),
}


def _euclidean_on(domain, n):
    def evaluate(x, y):
        q = y[0] * y[0]
        for c in y[1:]:
            q = q + c * c
        return jsqrt(q)

    return geometry.MetricField(dimension=n, domain=domain, evaluate=evaluate, name="flat")


def _edge_rows(domain, n, seed_):
    """Points within about 1e-15 of the boundary, on both sides and on it:
    along 3 rays from the origin, the last point bisection finds inside
    scaled by 1 + k 2^-52, |k| <= 5, and a NaN point."""
    rng = np.random.default_rng(seed_)
    rows = []
    for _ in range(3):
        u = rng.standard_normal(n)
        lo, hi = 0.0, 1.0
        while domain.margin(hi * u) > 0.0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if domain.margin(mid * u) > 0.0 else (lo, mid)
        rows.extend(lo * (1.0 + k * 2.0**-52) * u for k in range(-5, 6))
    return np.array(rows + [np.full(n, np.nan)])


@pytest.mark.parametrize("name", _DOMAINS)
def test_a_stack_decides_rows_at_the_chart_boundary_as_each_row_alone(name):
    """A stack's vectorized chart check accepts and refuses each row near
    the boundary as the per-row check does, and a stack of many such rows
    raises the per-row error of its first refused row."""
    domain, n = _DOMAINS[name]
    m = _euclidean_on(domain, n)
    rows = _edge_rows(domain, n, seed_=7)
    inside = np.zeros(n)
    y = np.ones(n)
    alone = []
    for row in rows:
        try:
            geometry._check_domain(m, row)
            alone.append(None)
        except DomainError as exc:
            alone.append(str(exc))
    assert None in alone and alone.count(None) < len(alone)  # both sides are reached
    for row, want in zip(rows, alone):
        at = TangentSample(np.stack([inside, row, inside]), np.tile(y, (3, 1)))
        if want is None:
            local_geometry(m, at, "g")
        else:
            with pytest.raises(DomainError) as err:
                local_geometry(m, at, "g")
            assert str(err.value) == want
    for first, want in enumerate(alone):  # each refused row first in a stack
        if want is not None:
            part = rows[first:]
            with pytest.raises(DomainError) as err:
                local_geometry(m, TangentSample(part, np.tile(y, (len(part), 1))), "g")
            assert str(err.value) == want


def _flag_claim(count, seed_):
    return Claim(id="szabo-flags", metric=zoo.MetricSpec("szabo_epsilon", 3, {"eps": 0.5}),
                 quantity="flag_curvature", target={"kind": "constant", "value": -1.0},
                 tolerance=10.0, samples=SamplePlan(count=count, seed=seed_))


def _reference_flags(claim, metric):
    """Per-sample flag curvatures with the poles drawn one sample at a
    time, in sample order, from the claim's stream (seed + 1)."""
    rng = np.random.default_rng(claim.samples.seed + 1)
    for at in claim.samples.draw(metric):
        while True:
            u = rng.standard_normal(metric.dimension)
            u -= (u @ at.y) / (at.y @ at.y) * at.y
            if np.linalg.norm(u) > 1e-3:
                break
        yield at, u / np.linalg.norm(u)


def test_a_chunked_claim_draws_the_per_sample_flag_poles():
    """_CHUNK + 8 samples run as a full stack and one of 8; the values and
    the worst sample are those of one-at-a-time evaluation with the same
    poles."""
    count = verify._CHUNK + 8
    claim = _flag_claim(count, seed_=21)
    m = zoo.build_metric(claim.metric)
    values = np.array([flag_curvature(m, at, u) for at, u in _reference_flags(claim, m)])
    assert np.ptp(values) > 0.1  # the poles matter: K is not constant here
    report = run_claim(claim)
    assert report.count == count
    for name, want in (("min", values.min()), ("max", values.max()),
                       ("mean", values.mean()), ("stddev", values.std())):
        assert report.stats[name] == pytest.approx(want, rel=1e-12, abs=1e-13)
    worst = int(np.argmax(np.abs(values + 1.0)))
    assert report.worst_sample["x"] == claim.samples.draw(m)[worst].x.tolist()
    assert report.worst_sample["observed"] == pytest.approx(values[worst], rel=1e-12)


_SHIPPED_STACKED = [c for c in verify.load_claims(
    str(Path(__file__).parents[1] / "claims" / "acceptance.yaml"))
    if verify._QUANTITIES[c.quantity].stacked]


@pytest.mark.parametrize("claim", _SHIPPED_STACKED, ids=lambda c: c.id)
def test_a_shipped_stacked_claim_reports_the_same_at_every_stack_size(claim, monkeypatch):
    """Stacks of 1 (one sample at a time), of 7 and of _CHUNK samples give
    one report, but for its runtime."""
    reports = []
    for chunk in (1, 7, verify._CHUNK):
        monkeypatch.setattr(verify, "_CHUNK", chunk)
        report = dataclasses.asdict(run_claim(claim))
        report.pop("runtime")
        reports.append(report)
    assert reports[0]["count"] == claim.samples.count
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_a_failing_chunk_reports_its_first_failing_sample(monkeypatch):
    """run_claim names the sample a one-at-a-time loop would stop at, in a
    claim of more than one stack."""
    m = _sign_changing_metric()
    claim = dataclasses.replace(_flag_claim(verify._CHUNK + 8, seed_=4),
                                metric=zoo.MetricSpec("euclidean", 2))
    expected = None
    for at, u in _reference_flags(claim, m):
        try:
            flag_curvature(m, at, u)
        except FinslerError as exc:
            expected = f"evaluation failed at x={at.x}, y={at.y}: {exc}"
            break
    assert expected is not None
    monkeypatch.setattr(verify, "build_metric", lambda spec: m)
    report = run_claim(claim)
    assert not report.passed and report.count == 0
    assert report.detail == expected


def _per_node_torsion(metric, trace):
    """torsion_trace's fields from one single-sample bundle per node."""
    rows = []
    for x, y in zip(trace.positions, trace.velocities):
        lg = local_geometry(metric, TangentSample(x, y), "R")
        I, J = lg.g_inverse @ lg.I, lg.g_inverse @ lg.J
        rows.append((I, J, lg.N, lg.R, lg.g, np.sqrt(max(I @ lg.g @ I, 0.0))))
    I, J, conns, rops, gs, phi = (np.array(col) for col in zip(*rows))
    DI = flow.covariant_derivative_along(metric, trace, I, connections=conns)
    gap = np.sqrt(np.einsum("ki,kij,kj->k", DI - J, gs, DI - J))
    D2I = flow.covariant_derivative_along(metric, trace, J, connections=conns)
    resid = D2I + np.einsum("kij,kj->ki", rops, I)
    return {"I_of_t": I, "DI_of_t": J, "D2I_of_t": D2I, "phi_of_t": phi,
            "residual_of_t": np.sqrt(np.einsum("ki,kij,kj->k", resid, gs, resid)),
            "di_disagreement": float(np.max(gap)) / max(float(np.max(np.abs(I))), 1e-30)}


def _per_direction_scan(metric, x, coarse):
    """cartan_norm(refine=False) from one single-sample bundle per direction."""
    n = metric.dimension
    if n == 2:
        angles = 2.0 * np.pi * np.arange(coarse) / coarse
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        dirs = np.random.default_rng(12345).standard_normal((coarse, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    values = []
    for d in dirs:
        lg = local_geometry(metric, TangentSample(x, d), "I")
        values.append(lg.conorm(lg.I) * lg.F)
    best = int(np.argmax(values))
    return values[best], dirs[best]


@pytest.mark.parametrize("spec", zoo.default_specs(), ids=lambda s: s.kind)
def test_traces_and_scans_match_a_per_node_loop_bit_for_bit(spec):
    """One stacked bundle per trace and per scan gives each node and each
    direction exactly the values of its own single-sample bundle."""
    m = zoo.build_metric(spec)
    rng = np.random.default_rng(3)
    x = m.domain.sample_interior(rng, margin=0.1)
    trace = flow.integrate_geodesic(m, x, rng.standard_normal(m.dimension), (0.0, 0.3),
                                    nodes=17)
    speeds = [float(m.evaluate(p, v)) for p, v in zip(trace.positions, trace.velocities)]
    assert trace.speed_drift == float(np.max(np.abs(np.array(speeds) - speeds[0])))
    conns = np.array([local_geometry(m, TangentSample(p, v), "N").N
                      for p, v in zip(trace.positions, trace.velocities)])
    assert np.array_equal(flow.connection_along(m, trace), conns)
    tt = flow.torsion_trace(m, trace, check_tol=None)
    for name, want in _per_node_torsion(m, trace).items():
        assert np.array_equal(getattr(tt, name), want), name
    value, direction = _per_direction_scan(m, x, coarse=24)
    scan = geometry.cartan_norm(m, x, coarse=24, refine=False)
    assert scan.value == value
    assert np.array_equal(scan.direction, direction)


def _per_node_growth(metric, p, radii, directions, refine, coarse, nodes):
    """growth_estimate from one cartan_norm call per trace node."""
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((directions, metric.dimension))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    records = [(0.0, geometry.cartan_norm(metric, p, coarse=coarse, refine=refine).value)]
    covered = True
    for d in dirs:
        trace = flow.integrate_geodesic(metric, p, d / float(metric.evaluate(p, d)),
                                        (0.0, max(radii)), tol=1e-9, nodes=nodes)
        covered = covered and not trace.exit
        records += [(float(t), geometry.cartan_norm(metric, x, coarse=coarse,
                                                    refine=refine).value)
                    for t, x in zip(trace.times[1:], trace.positions[1:])]
    return [(float(r), max([0.0] + [v for t, v in records if t <= r]))
            for r in sorted(radii)], covered


@pytest.mark.parametrize("fixture, p, radii, refine, coarse, nodes", [
    ("funk_shifted", [0.1, -0.1], [0.6, 0.3], False, None, 33),
    ("funk_shifted", [0.1, -0.1], [0.3, 0.6], True, 24, 9),
    ("szabo", [0.1, 0.2, 0.3], [0.2, 0.5], False, None, 17),
    ("szabo", [0.1, 0.2, 0.3], [0.5], True, 48, 5),
    ("slab", [0.1, 0.2, 0.3], [0.2, 2.0], False, 96, 17),
], ids=["funk", "funk-refined", "szabo", "szabo-refined", "slab-exits"])
def test_growth_estimate_scans_stacked_match_a_per_node_loop_bit_for_bit(
        request, monkeypatch, fixture, p, radii, refine, coarse, nodes):
    """growth_estimate scans the centre and every trace node in bundles of
    at most SCAN_ROWS rows, and its records are bit for bit those of one
    cartan_norm call per node."""
    metric = request.getfixturevalue(fixture)
    p = np.array(p)
    want = _per_node_growth(metric, p, radii, 3, refine, coarse, nodes)
    rows = []
    real = geometry.local_geometry
    monkeypatch.setattr(geometry, "local_geometry",
                        lambda metric, at, need: rows.append(len(at.x)) or real(metric, at, need))
    got = flow.growth_estimate(metric, p, radii, directions=3, refine=refine,
                               coarse=coarse, nodes=nodes)
    assert got == want
    assert max(rows) <= geometry.SCAN_ROWS
    if not refine:
        scanned = (1 + 3 * (nodes - 1)) * (coarse or (96 if metric.dimension == 2 else 192))
        assert rows == [min(geometry.SCAN_ROWS, scanned - k)
                        for k in range(0, scanned, geometry.SCAN_ROWS)]
