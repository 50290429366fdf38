"""Headline checks, one printed pass/fail line each.

Every test here pins the tolerance it certifies; unit tests elsewhere cover
the same code paths at finer granularity.
"""

import time

import numpy as np
import pytest

from finslerkit import flow, geometry, verify, zoo
from finslerkit.geometry import (TangentSample, flag_curvature,
                                 fundamental_tensor, mean_cartan,
                                 mean_landsberg, riemann, s_curvature, spray)
from finslerkit.jets import extract, seed, value


def _report(index, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {index:02d} [{status}] {label}{suffix}")
    assert ok, f"criterion {index:02d} failed: {label}{suffix}"


def _draw(metric, count, seed_, margin=0.05):
    rng = np.random.default_rng(seed_)
    out = []
    for _ in range(count):
        x = metric.domain.sample_interior(rng, margin=margin)
        y = rng.standard_normal(metric.dimension)
        out.append(TangentSample(x, y))
    return out, rng


def test_01_shifted_funk_flag_curvature():
    """Constant flag curvature -1/4 across dimensions and shifts."""
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3):
        for a in (np.zeros(n), np.array([0.3] + [0.0] * (n - 1))):
            m = zoo.make_funk_shifted(a, dimension=n)
            samples, rng = _draw(m, 200, seed_=21)
            for at in samples:
                u = rng.standard_normal(n)
                k = flag_curvature(m, at, u)
                worst = max(worst, abs(k + 0.25) / 0.25)
    elapsed = time.perf_counter() - start
    _report(1, "shifted Funk flag curvature = -1/4",
            worst <= 1e-6 and elapsed < 60.0,
            f"max rel dev {worst:.2e}, {elapsed:.1f}s")


def test_02_funk_s_curvature_ratio():
    """S = (n+1) F / 2 for the centred Funk ball."""
    start = time.perf_counter()
    m = zoo.make_funk_shifted([0.0, 0.0], dimension=2)
    samples, _ = _draw(m, 100, seed_=22)
    worst = 0.0
    for at in samples:
        ratio = s_curvature(m, at) / (3.0 * float(m.evaluate(at.x, at.y)))
        worst = max(worst, abs(ratio - 0.5))
    elapsed = time.perf_counter() - start
    _report(2, "Funk S-curvature ratio = 1/2",
            worst <= 1e-3 and elapsed < 120.0,
            f"max abs dev {worst:.2e}, {elapsed:.1f}s")


def test_03_shifted_funk_drift_is_closed_one_form():
    """S - (n+1) F / 2 is linear in y with a closed coefficient field."""
    m = zoo.make_funk_shifted([0.3, 0.0], dimension=2)
    report = verify.closed_one_form_check(
        m, c=0.5, samples=verify.SamplePlan(count=10, seed=23), tol=1e-3)
    _report(3, "shifted Funk almost-constant S-curvature structure",
            report.passed, f"max residual {report.stats['max']:.2e}")


def test_04_slab_curvatures_and_landsberg_witness():
    """Flat, S = 0, but the mean Landsberg curvature is far from zero."""
    m = zoo.make_incomplete_slab()
    samples, rng = _draw(m, 200, seed_=24)
    worst_k = worst_s = 0.0
    witness = 0.0
    for at in samples:
        rop = riemann(m, at)
        worst_k = max(worst_k, float(np.abs(rop.R).max()))
        lj = mean_landsberg(m, at)
        jn = lj.conorm(lj.J)
        witness = max(witness, jn * float(m.evaluate(at.x, at.y)))
    for at in samples[:50]:
        worst_s = max(worst_s, abs(s_curvature(m, at)))
    # frozen threshold from a 60-digit reference run of ||J|| at fixed samples
    ok = worst_k <= 1e-8 and worst_s <= 1e-3 and witness > 1.0
    _report(4, "slab is flat with S = 0 and J != 0",
            ok, f"max|R| {worst_k:.1e}, max|S| {worst_s:.1e}, "
                f"witness {witness:.3f} > 1")


def test_05_product_family_is_berwald_with_vanishing_invariants():
    """Berwald spray, J = 0, S = 0, K <= 0 with R annihilating I."""
    m = zoo.make_szabo_epsilon(eps=0.5)
    samples, rng = _draw(m, 100, seed_=25)
    worst_berwald = worst_j = worst_s = worst_ri = worst_gri = 0.0
    worst_k = -np.inf
    for at in samples:
        ft = fundamental_tensor(m, at)
        lc = mean_cartan(m, at)
        I = lc.g_inverse @ lc.I
        rop = riemann(m, at)
        lj = mean_landsberg(m, at)
        worst_j = max(worst_j, lj.conorm(lj.J))
        ri = rop.R @ I
        scale = max(float(np.abs(rop.R).max()), 1e-30) * max(
            np.linalg.norm(I), 1e-30)
        worst_ri = max(worst_ri, np.linalg.norm(ri) / scale)
        worst_gri = max(worst_gri,
                        abs(float(ri @ ft.g @ I)) / scale)
        # G is y-quadratic iff its jet-exact y-Hessian G_yy is the same at
        # every direction: compare it at y and at a random unit direction d
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        g_yy = [geometry.local_geometry(m, TangentSample(at.x, v), "R").G_yy
                for v in (at.y, d)]
        worst_berwald = max(worst_berwald, float(np.abs(g_yy[0] - g_yy[1]).max()))
    flags = 0
    for at in samples:
        for _ in range(10):
            u = rng.standard_normal(3)
            worst_k = max(worst_k, flag_curvature(m, at, u))
            flags += 1
    for at in samples[:30]:
        worst_s = max(worst_s, abs(s_curvature(m, at)))
    ok = (worst_berwald <= 1e-7 and worst_j <= 1e-7 and worst_s <= 1e-3
          and worst_k <= 1e-8 and flags >= 1000
          and worst_ri <= 1e-7 and worst_gri <= 1e-8)
    _report(5, "product family: Berwald, J = 0, S = 0, K <= 0, R(I) = 0",
            ok, f"berwald {worst_berwald:.1e}, |J| {worst_j:.1e}, "
                f"|S| {worst_s:.1e}, K_max {worst_k:.1e}, "
                f"R(I) {worst_ri:.1e}, g(R(I),I) {worst_gri:.1e}")


def test_06_torsion_transport_equation():
    """D^2 I + R(I) = 0 along shifted Funk geodesics, Jacobi-propagated."""
    m = zoo.make_funk_shifted([0.3, 0.0], dimension=2)
    rng = np.random.default_rng(26)
    base_tol = 2e-5
    worst_resid = worst_jacobi = 0.0
    means = {base_tol: [], base_tol / 2: [], base_tol / 4: []}
    for _ in range(20):
        x0 = m.domain.sample_interior(rng, margin=0.4)
        y0 = rng.standard_normal(2)
        for tol in means:
            tr = flow.integrate_geodesic(m, x0, y0, (0.0, 1.0), tol=tol,
                                         nodes=33)
            tt = flow.torsion_trace(m, tr, check_tol=None)
            means[tol].append(float(tt.residual_of_t.max()))
            if tol == base_tol / 4:
                scale = max(float(np.abs(tt.I_of_t).max()), 1e-30)
                worst_resid = max(worst_resid,
                                  float(tt.residual_of_t.max()) / scale)
                V = flow.jacobi_propagate(m, tr, tt.I_of_t[0], tt.DI_of_t[0])
                worst_jacobi = max(worst_jacobi,
                                   float(np.abs(V - tt.I_of_t).max()) / scale)
    m1 = np.mean(means[base_tol]) / np.mean(means[base_tol / 2])
    m2 = np.mean(means[base_tol / 2]) / np.mean(means[base_tol / 4])
    ok = (worst_resid <= 1e-4 and worst_jacobi <= 1e-4
          and m1 >= 2.0 and m2 >= 2.0)
    _report(6, "torsion transport residual and Jacobi reconstruction",
            ok, f"residual {worst_resid:.1e}, jacobi {worst_jacobi:.1e}, "
                f"halving ratios {m1:.2f}, {m2:.2f}")


def test_07_universal_invariants_across_the_zoo():
    """Structural identities that every admissible metric must satisfy."""
    start = time.perf_counter()
    failures = []
    for spec in zoo.default_specs():
        m = zoo.build_metric(spec)
        samples, rng = _draw(m, 200, seed_=27)
        for at in samples:
            F = float(m.evaluate(at.x, at.y))
            if not F > 0.0:
                failures.append(f"{spec.kind}: F <= 0")
                break
            if abs(float(m.evaluate(at.x, 2.0 * at.y)) - 2.0 * F) > 1e-10 * F:
                failures.append(f"{spec.kind}: homogeneity")
                break
            ft = fundamental_tensor(m, at)
            if np.linalg.eigvalsh(ft.g).min() <= 0.0:
                failures.append(f"{spec.kind}: g not SPD")
                break
            if abs(float(at.y @ ft.g @ at.y) - F * F) > 1e-8 * F * F:
                failures.append(f"{spec.kind}: g(y, y) != F^2")
                break
            tv = mean_cartan(m, at)
            # absolute floor: when the invariant vanishes identically the
            # relative scale collapses to round-off noise
            sI = np.linalg.norm(tv.I)
            if abs(float(tv.I @ at.y)) > max(
                    1e-8 * sI * max(F, 1.0), 1e-10):
                failures.append(f"{spec.kind}: I not y-orthogonal")
                break
        # curvature identities on a smaller subsample (they are the
        # expensive part of the sweep)
        for at in samples[:25]:
            ft = fundamental_tensor(m, at)
            rop = riemann(m, at)
            sR = float(np.abs(rop.R).max())
            if np.abs(rop.R @ at.y).max() > max(
                    1e-7 * sR * max(np.abs(at.y).max(), 1.0), 1e-10):
                failures.append(f"{spec.kind}: R y != 0")
                break
            lowered = ft.g @ rop.R
            if np.abs(lowered - lowered.T).max() > max(1e-7 * sR, 1e-10):
                failures.append(f"{spec.kind}: R not g-symmetric")
                break
            jv = mean_landsberg(m, at)
            sJ = np.linalg.norm(jv.J)
            F = float(m.evaluate(at.x, at.y))
            if abs(float(jv.J @ at.y)) > max(
                    1e-7 * sJ * max(F, 1.0), 1e-10):
                failures.append(f"{spec.kind}: J not y-orthogonal")
                break
        rng_flags = np.random.default_rng(127)
        for at in samples[:10]:
            u = rng_flags.standard_normal(m.dimension)
            try:
                k0 = flag_curvature(m, at, u)
                k1 = flag_curvature(m, at, u + 0.5 * at.y)
            except geometry.DegenerateFlagError:
                continue
            if abs(k1 - k0) > 1e-7 * max(abs(k0), 1e-3):
                failures.append(f"{spec.kind}: flag-pole dependence")
                break
    elapsed = time.perf_counter() - start
    _report(7, "universal invariant sweep over all 9 metric kinds",
            not failures and elapsed < 300.0,
            f"{elapsed:.0f}s" + (f"; {failures}" if failures else ""))


def test_08_product_metric_identities():
    """Block tensor, determinant, spray splitting, and radial torsion."""
    profile = zoo.epsilon_profile(0.5)
    disk = zoo.make_riemannian(model="hyperbolic_disk", dimension=2)
    line = zoo.make_riemannian(model="flat", dimension=1)
    m = zoo.make_szabo_product(disk, line, profile)
    n1, n2 = 2, 1
    samples, _ = _draw(m, 25, seed_=28)
    worst = 0.0
    for at in samples:
        x1, x2 = at.x[:n1], at.x[n1:]
        y1, y2 = at.y[:n1], at.y[n1:]
        g1 = fundamental_tensor(disk, TangentSample(x1, y1)).g
        g2 = fundamental_tensor(line, TangentSample(x2, y2)).g
        s = float(y1 @ g1 @ y1)
        t = float(y2 @ g2 @ y2)
        p = profile.partials(s, t)
        g = fundamental_tensor(m, at).g
        # block structure
        yb1, yb2 = g1 @ y1, g2 @ y2
        blocks = np.zeros_like(g)
        blocks[:n1, :n1] = 2.0 * p["f_ss"] * np.outer(yb1, yb1) + p["f_s"] * g1
        blocks[n1:, n1:] = 2.0 * p["f_tt"] * np.outer(yb2, yb2) + p["f_t"] * g2
        blocks[:n1, n1:] = 2.0 * p["f_st"] * np.outer(yb1, yb2)
        blocks[n1:, :n1] = blocks[:n1, n1:].T
        worst = max(worst, np.abs(g - blocks).max() / np.abs(g).max())
        # determinant identity
        det_want = (p["f_s"] ** (n1 - 1) * p["f_t"] ** (n2 - 1)
                    * (p["f_s"] * p["f_t"] - 2.0 * p["f"] * p["f_st"])
                    * np.linalg.det(g1) * np.linalg.det(g2))
        det_got = np.linalg.det(g)
        worst = max(worst, abs(det_got - det_want) / abs(det_want))
        # spray splitting
        G = spray(m, at).G
        G1 = spray(disk, TangentSample(x1, y1)).G
        G2 = spray(line, TangentSample(x2, y2)).G
        scale_g = max(np.abs(np.concatenate([G1, G2])).max(), 1.0)
        worst = max(worst, np.abs(G - np.concatenate([G1, G2])).max() / scale_g)
        # radial mean Cartan torsion
        js, jt = seed([s, t], [np.array([1.0, 0.0]), np.array([0.0, 1.0])], 3)
        fj = profile.f(js, jt)
        f = extract(fj, (0, 0))
        f_s, f_t = extract(fj, (1, 0)), extract(fj, (0, 1))
        f_ss, f_st, f_tt = (extract(fj, (2, 0)), extract(fj, (1, 1)),
                            extract(fj, (0, 2)))
        C = f_s * f_t - 2.0 * f * f_st
        C_s = f_ss * f_t - f_s * f_st - 2.0 * f * extract(fj, (2, 1))
        C_t = f_s * f_tt - f_t * f_st - 2.0 * f * extract(fj, (1, 2))
        ratio_s = (n1 - 1) * f_ss / f_s + (n2 - 1) * f_st / f_t + C_s / C
        ratio_t = (n1 - 1) * f_st / f_s + (n2 - 1) * f_tt / f_t + C_t / C
        want = np.concatenate([ratio_s * yb1, ratio_t * yb2])
        got = mean_cartan(m, at).I
        worst = max(worst, np.abs(got - want).max()
                    / max(np.abs(want).max(), 1e-30))
    try:
        zoo.epsilon_profile(-0.8).validate()
        gate_ok = False
    except zoo.InvalidProfileError:
        gate_ok = True
    try:
        zoo.epsilon_profile(0.5).validate()
    except zoo.InvalidProfileError:
        gate_ok = False
    _report(8, "product metric identities and positivity gate",
            worst <= 1e-9 and gate_ok, f"max rel dev {worst:.2e}")


def test_09_implicit_funk_solver():
    """PDE residual and agreement with the closed ball form."""
    m = zoo.make_funk_implicit()
    closed = zoo.make_funk_shifted([0.0, 0.0])
    rng = np.random.default_rng(29)
    dirs = [np.eye(4)[i] for i in range(4)]
    worst_pde = worst_agree = 0.0
    for _ in range(50):
        x = m.domain.sample_interior(rng, margin=0.1)
        y = rng.standard_normal(2)
        jets = seed(np.concatenate([x, y]), dirs, 1)
        theta = m.evaluate(jets[:2], jets[2:])
        t0 = value(theta)
        for k in range(2):
            dx = extract(theta, tuple(int(i == k) for i in range(4)))
            dy = extract(theta, tuple(int(i == k + 2) for i in range(4)))
            worst_pde = max(worst_pde, abs(dx - t0 * dy) / max(1.0, abs(t0)))
        worst_agree = max(worst_agree,
                          abs(t0 - float(closed.evaluate(x, y))))
    _report(9, "implicit Funk solver PDE residual and closed form",
            worst_pde <= 1e-8 and worst_agree <= 1e-10,
            f"pde {worst_pde:.1e}, agreement {worst_agree:.1e}")


def test_10_randers_torsion_bound():
    """||I|| on the indicatrix obeys the sharp Randers bound."""
    worst_gap = -np.inf
    ok = True
    for b in np.arange(0.1, 0.95, 0.1):
        m = zoo.make_randers(b=[b, 0.0])
        bound = 3.0 / np.sqrt(2.0) * np.sqrt(1.0 - np.sqrt(1.0 - b * b))
        samples, _ = _draw(m, 50, seed_=30)
        for at in samples:
            lc = mean_cartan(m, at)
            norm = lc.conorm(lc.I)
            # the norm is (-1)-homogeneous; rescale to the F-unit vector
            norm *= float(m.evaluate(at.x, at.y))
            gap = norm - bound
            worst_gap = max(worst_gap, gap)
            if gap > 1e-9:
                ok = False
    _report(10, "Randers mean Cartan torsion bound at every sample",
            ok, f"max(norm - bound) {worst_gap:.2e}")


def test_11_phi_diagnostics_along_geodesics():
    """phi is constant on product geodesics and convex where positive."""
    szabo = zoo.make_szabo_epsilon(eps=0.5)
    rng = np.random.default_rng(31)
    worst_const = 0.0
    for _ in range(3):
        x0 = szabo.domain.sample_interior(rng, margin=0.3)
        y0 = rng.standard_normal(3)
        tr = flow.integrate_geodesic(szabo, x0, y0, (0.0, 0.5), tol=1e-8,
                                     nodes=33)
        tt = flow.torsion_trace(szabo, tr, check_tol=None)
        phi = tt.phi_of_t
        worst_const = max(worst_const,
                          float(np.abs(phi - phi[0]).max())
                          / max(abs(phi[0]), 1e-30))
    nonneg_floor = 0.0
    flat_models = [
        zoo.make_minkowski(2, b=[0.3, 0.0]),
        zoo.make_funk_shifted([0.3, 0.0], dimension=2),
        zoo.make_incomplete_slab(),
        szabo,
    ]
    for m in flat_models:
        x0 = m.domain.sample_interior(rng, margin=0.3)
        y0 = rng.standard_normal(m.dimension)
        tr = flow.integrate_geodesic(m, x0, y0, (0.0, 0.5), tol=1e-8,
                                     nodes=33)
        tt = flow.torsion_trace(m, tr, check_tol=None)
        for second in flow.phi_second_differences(tt):
            nonneg_floor = min(nonneg_floor, second)
    ok = worst_const <= 1e-6 and nonneg_floor >= -1e-4
    _report(11, "phi constant on product geodesics and convex where positive",
            ok, f"constancy {worst_const:.1e}, min phi'' {nonneg_floor:.1e}")


def test_12_riemannian_baselines_and_derivative_cross_check():
    """Curvature signs, vanishing torsion, and jets vs finite differences."""
    from conftest import richardson_derivative

    sphere = zoo.make_riemannian(model="sphere", dimension=2)
    hyper = zoo.make_riemannian(model="hyperbolic_disk", dimension=2)
    rng = np.random.default_rng(32)
    worst_sphere = worst_hyper = worst_vanish = 0.0
    for _ in range(20):
        xs = sphere.domain.sample_interior(rng, margin=0.1)
        xh = hyper.domain.sample_interior(rng, margin=0.1)
        y = rng.standard_normal(2)
        u = rng.standard_normal(2)
        worst_sphere = max(worst_sphere, abs(
            flag_curvature(sphere, TangentSample(xs, y), u) - 1.0))
        worst_hyper = max(worst_hyper, abs(
            flag_curvature(hyper, TangentSample(xh, y), u) + 1.0))
        at = TangentSample(xh, y)
        worst_vanish = max(
            worst_vanish,
            float(np.abs(mean_cartan(hyper, at).I).max()),
            float(np.abs(mean_landsberg(hyper, at).J).max()),
            abs(s_curvature(hyper, at)) * 1e-4)
    worst_fd = 0.0
    for spec in zoo.default_specs():
        m = zoo.build_metric(spec)
        n = m.dimension
        samples, rng2 = _draw(m, 5, seed_=33, margin=0.2)
        dirs = [np.eye(n)[i] for i in range(n)]
        for at in samples:
            jy = seed(at.y, dirs, 1)
            fj = m.evaluate(list(at.x), jy)
            for i in range(n):
                jet_grad = extract(fj, tuple(int(i == k) for k in range(n)))
                fd_grad = richardson_derivative(
                    lambda yy: float(m.evaluate(at.x, yy)), at.y, dirs[i],
                    order=1, step=1e-3)
                scale = max(abs(jet_grad), 1.0)
                worst_fd = max(worst_fd, abs(jet_grad - fd_grad) / scale)
    ok = (worst_sphere <= 1e-8 and worst_hyper <= 1e-8
          and worst_vanish <= 1e-8 and worst_fd <= 1e-6)
    _report(12, "constant curvature baselines and jet/finite-difference match",
            ok, f"sphere {worst_sphere:.1e}, hyperbolic {worst_hyper:.1e}, "
                f"vanishing {worst_vanish:.1e}, fd {worst_fd:.1e}")
