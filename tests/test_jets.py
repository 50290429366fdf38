"""Truncated multivariate jet arithmetic."""

import math

import numpy as np
import pytest

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit import jets
from finslerkit.errors import OutOfOrderError, UnsupportedOrderError
from finslerkit.jets import deriv, extract, jexp, jlog, jpow, jsqrt, seed, value


def test_norm_jet_value_and_gradient():
    jx, jy = seed([3.0, 4.0], [np.array([1.0, 0.0])], 1)
    norm = jsqrt(jx * jx + jy * jy)
    assert value(norm) == pytest.approx(5.0, abs=1e-14)
    assert extract(norm, (1,)) == pytest.approx(0.6, abs=1e-14)


def test_seed_without_directions_returns_floats():
    out = seed([1.5, -2.0], [], 0)
    assert all(isinstance(v, float) for v in out)
    assert out[0] == 1.5 and out[1] == -2.0


def test_exponential_taylor_coefficients():
    (jx,) = seed([1.0], [np.array([1.0])], 3)
    ex = jexp(jx)
    e = math.e
    assert value(ex) == pytest.approx(e, rel=1e-14)
    assert extract(ex, (1,)) == pytest.approx(e, rel=1e-14)
    # extract returns derivatives, not raw Taylor coefficients
    assert extract(ex, (2,)) == pytest.approx(e, rel=1e-13)
    assert extract(ex, (3,)) == pytest.approx(e, rel=1e-13)


def test_mixed_partial_of_product():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    jx, jy = seed([0.7, -1.2], [e1, e2], 2)
    assert extract(jx * jy, (1, 1)) == pytest.approx(1.0, abs=1e-14)


def test_quadratic_form_hessian_is_identity():
    n = 3
    dirs = [np.eye(n)[i] for i in range(n)]
    js = seed(np.array([0.4, -0.2, 0.9]), dirs, 2)
    q = js[0] * js[0] + js[1] * js[1] + js[2] * js[2]
    idx = lambda i, j: tuple(int(i == k) + int(j == k) for k in range(n))
    for i in range(n):
        for j in range(n):
            want = 2.0 if i == j else 0.0
            got = extract(q, idx(i, j))
            assert got == pytest.approx(want, abs=1e-13)


def _randers_f2(x):
    """Squared Randers norm |y| + 0.3 y_1 as a plain function of y."""
    f = np.sqrt(np.dot(x, x)) + 0.3 * x[0]
    return f * f


def test_randers_hessian_matches_finite_differences():
    from conftest import richardson_derivative

    y = np.array([0.8, -0.5])
    dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    jy = seed(y, dirs, 2)
    norm = jsqrt(jy[0] * jy[0] + jy[1] * jy[1]) + 0.3 * jy[0]
    f2 = norm * norm
    for i in range(2):
        for j in range(2):
            if i == j:
                fd = richardson_derivative(_randers_f2, y, dirs[i], order=2,
                                           step=1e-3)
            else:
                def partial_i(p):
                    jp = seed(p, [dirs[i]], 1)
                    nm = jsqrt(jp[0] * jp[0] + jp[1] * jp[1]) + 0.3 * jp[0]
                    return extract(nm * nm, (1,))
                fd = richardson_derivative(partial_i, y, dirs[j], order=1,
                                           step=1e-5)
            idx = tuple(int(i == k) + int(j == k) for k in range(2))
            assert extract(f2, idx) == pytest.approx(fd, rel=1e-7)


def test_euler_homogeneity_of_degree_two():
    y = np.array([0.6, 1.1])
    dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    jy = seed(y, dirs, 1)
    norm = jsqrt(jy[0] * jy[0] + jy[1] * jy[1]) + 0.3 * jy[0]
    f2 = norm * norm
    lhs = sum(y[i] * extract(f2, tuple(int(i == k) for k in range(2)))
              for i in range(2))
    assert lhs == pytest.approx(2.0 * value(f2), rel=1e-12)


def test_arithmetic_is_exactly_commutative_and_associative():
    dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    ja, jb = seed([1.3, 0.4], dirs, 3)
    p = ja * jb
    q = jb * ja
    assert np.array_equal(p.coeffs, q.coeffs)
    r = (ja + jb) + 2.5
    s = ja + (jb + 2.5)
    assert np.array_equal(r.coeffs, s.coeffs)


def test_composition_chain_rule():
    (jx,) = seed([2.0], [np.array([1.0])], 2)
    f = jlog(jpow(jx, 3))
    assert value(f) == pytest.approx(3.0 * math.log(2.0), rel=1e-14)
    assert extract(f, (1,)) == pytest.approx(1.5, rel=1e-13)
    assert extract(f, (2,)) == pytest.approx(-0.75, rel=1e-13)


def test_compositions_of_an_order_zero_jet_are_plain_values():
    (jx,) = seed([2.3], [np.array([1.0])], 1)
    x0 = deriv(jx * jx, 0)  # 2x at order 0, batched over nothing
    for f, want in ((jsqrt, math.sqrt(4.6)), (jexp, math.exp(4.6)),
                    (jlog, math.log(4.6)), (lambda x: jpow(x, 1.5), 4.6 ** 1.5),
                    (lambda x: 1.0 / x, 1.0 / 4.6)):
        got = f(x0)
        assert got.order == 0
        assert value(got) == pytest.approx(want, rel=1e-14)


def test_deriv_shifts_coefficients():
    (jx,) = seed([0.5], [np.array([1.0])], 3)
    f = jexp(jx)
    df = deriv(f, 0)
    assert value(df) == pytest.approx(math.exp(0.5), rel=1e-14)
    assert extract(df, (1,)) == pytest.approx(math.exp(0.5), rel=1e-13)


def test_order_five_is_rejected():
    with pytest.raises(UnsupportedOrderError):
        seed([1.0], [np.array([1.0])], 5)


def test_more_than_eight_directions_are_rejected():
    with pytest.raises(UnsupportedOrderError, match="9 directions"):
        seed(np.zeros(9), np.eye(9), 2)


def test_extract_beyond_truncation_order_is_rejected():
    (jx,) = seed([1.0], [np.array([1.0])], 2)
    with pytest.raises(OutOfOrderError):
        extract(jx, (3,))


# -- kernel paths against a broadcast-and-scatter reference -----------------

def _ref_table(ndir, order):
    indices, position = jets._index_table(ndir, order)
    return np.array([(i, j, position[tuple(p + q for p, q in zip(a, b))])
                     for i, a in enumerate(indices) for j, b in enumerate(indices)
                     if sum(a) + sum(b) <= order]).T


def _ref_broadcast(ca, cb):
    batch = np.broadcast_shapes(ca.shape[1:], cb.shape[1:])
    pad = lambda c: c.reshape(c.shape[:1] + (1,) * (len(batch) + 1 - c.ndim) + c.shape[1:])
    return (np.broadcast_to(pad(ca), ca.shape[:1] + batch),
            np.broadcast_to(pad(cb), cb.shape[:1] + batch))


def _ref_mul(ca, cb, ndir, order):
    ia, ib, ic = _ref_table(ndir, order)
    ca, cb = _ref_broadcast(ca, cb)
    out = np.zeros(ca.shape)
    np.add.at(out, ic, ca[ia] * cb[ib])
    return out


def _ref_reciprocal(cb, ndir, order):
    """Horner over the Taylor series of 1/v, with reference products."""
    v = cb[0]
    h = cb.copy()
    h[0] = 0.0
    series = [1.0 / v]
    for _ in range(order):
        series.append(-series[-1] / v)
    out = np.zeros(cb.shape)
    out[0] = series[-1]
    for k in range(order - 1, -1, -1):
        out = _ref_mul(out, h, ndir, order)
        out[0] += series[k]
    return out


def _close(got, want, scale):
    """Agreement to rel 1e-14 of the sum of the terms' magnitudes."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


_SHAPES = [((), ()), ((3,), (3,)), ((2, 3), (2, 3)), ((1,), (3,)), ((), (3,)),
           ((3,), (2, 3)), ((2, 1), (3,))]


@st.composite
def _jet_pairs(draw):
    ndir = draw(st.integers(1, 6))
    order = draw(st.integers(1, 4))
    shape_a, shape_b = draw(st.sampled_from(_SHAPES))
    if draw(st.booleans()):
        shape_a, shape_b = shape_b, shape_a
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = jets._num_coeffs(ndir, order)
    ca = rng.uniform(-1.0, 1.0, (n,) + shape_a)
    cb = rng.uniform(-1.0, 1.0, (n,) + shape_b)
    cb[0] = rng.uniform(0.5, 2.0, shape_b)  # a value part safe to divide by
    return ndir, order, ca, cb


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_jet_pairs(), st.integers(0, 3))
def test_jet_ring_operations_match_the_reference(pair, extra_order):
    ndir, order, ca, cb = pair
    # b may carry a higher order; arithmetic truncates it to a's
    high = min(order + extra_order, jets.MAX_ORDER)
    padded = np.zeros((jets._num_coeffs(ndir, high),) + cb.shape[1:])
    padded[:len(cb)] = cb
    padded[len(cb):] = 0.5
    a, b = jets.Jet(ca, ndir, order), jets.Jet(padded, ndir, high)
    ra, rb = _ref_broadcast(ca, cb)
    _close((a + b).coeffs, ra + rb, np.abs(ra) + np.abs(rb))
    _close((a - b).coeffs, ra - rb, np.abs(ra) + np.abs(rb))
    scale = _ref_mul(np.abs(ca), np.abs(cb), ndir, order)
    _close((a * b).coeffs, _ref_mul(ca, cb, ndir, order), scale)
    _close((b * a).coeffs, _ref_mul(cb, ca, ndir, order), scale)
    recip = _ref_reciprocal(cb, ndir, order)
    _close((a / b).coeffs, _ref_mul(ca, recip, ndir, order),
           _ref_mul(np.abs(ca), np.abs(recip), ndir, order))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_jet_pairs(), st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 0.1),
       st.booleans())
def test_jet_scalar_operands_match_the_reference(pair, c, zero_d):
    ndir, order, ca, _ = pair
    a = jets.Jet(ca, ndir, order)
    s = np.array(c) if zero_d else c
    shifted = ca.copy()
    shifted[0] += c
    for got in (a + s, s + a):
        _close(got.coeffs, shifted, np.abs(ca) + abs(c))
    negated = -ca
    negated[0] += c
    _close((s - a).coeffs, negated, np.abs(ca) + abs(c))
    _close((a - s).coeffs, -negated, np.abs(ca) + abs(c))
    for got in (a * s, s * a):
        _close(got.coeffs, ca * c, np.abs(ca * c))
    _close((a / s).coeffs, ca / c, np.abs(ca / c))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from(["ij,jk->ik", "ij,j->i", "k,kl->l", "i,i->"]))
def test_contract_matches_the_reference(ndir, order, seed_, subscripts):
    rng = np.random.default_rng(seed_)
    n = jets._num_coeffs(ndir, order)
    (sa, sb), out = subscripts.split("->")[0].split(","), subscripts.split("->")[1]
    dims = {"i": 2, "j": 3, "k": 3, "l": 2}
    ca = rng.uniform(-1.0, 1.0, (n,) + tuple(dims[s] for s in sa))
    cb = rng.uniform(-1.0, 1.0, (n,) + tuple(dims[s] for s in sb))
    ia, ib, ic = _ref_table(ndir, order)

    def ref(xa, xb):
        terms = np.einsum(f"Z{sa},Z{sb}->Z{out}", xa[ia], xb[ib])
        acc = np.zeros((n,) + terms.shape[1:])
        np.add.at(acc, ic, terms)
        return acc

    got = jets.contract(subscripts, jets.Jet(ca, ndir, order), jets.Jet(cb, ndir, order))
    _close(got.coeffs, ref(ca, cb), ref(np.abs(ca), np.abs(cb)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_jet_pairs(), st.data())
def test_partials_match_the_reference(pair, data):
    ndir, order, ca, _ = pair
    directions = data.draw(st.lists(st.integers(0, ndir - 1), min_size=1, max_size=ndir))
    low, _ = jets._index_table(ndir, order - 1)
    _, position = jets._index_table(ndir, order)
    want = np.empty((len(low),) + ca.shape[1:] + (len(directions),))
    for k, beta in enumerate(low):
        for m, d in enumerate(directions):
            lifted = tuple(b + (i == d) for i, b in enumerate(beta))
            want[k, ..., m] = (beta[d] + 1) * ca[position[lifted]]
    got = jets.partials(jets.Jet(ca, ndir, order), directions)
    assert got.order == order - 1
    _close(got.coeffs, want, np.abs(want))


# -- both product reducers, entry by entry -----------------------------------

# (ndir, order, batch shape of a, of b): terms x batch entries on both sides
# of jets._RANK_SUM_MIN, with and without broadcasting
_REDUCER_SHAPES = [(3, 1, (32768,), (32768,)), (6, 4, (33, 3, 3), (33, 3, 3)),
                   (3, 2, (1,), (2048,)), (3, 2, (64, 1), (32,)), (3, 2, (), (2048,)),
                   (4, 4, (33,), (33,)), (3, 1, (4096,), (4096,)), (2, 2, (1,), (6,))]


def _special_coeffs(rng, n, shape):
    """Uniform coefficients, a fifth of them +-0.0 and a few inf, -inf or NaN."""
    c = rng.uniform(-1.0, 1.0, (n,) + shape)
    zero = rng.random(c.shape) < 0.2
    c[zero] = np.copysign(0.0, rng.uniform(-1.0, 1.0, zero.sum()))
    odd = rng.random(c.shape) < 0.01
    c[odd] = rng.choice([np.inf, -np.inf, np.nan], odd.sum())
    return c


def test_reducer_shapes_cover_both_reducers():
    sides = {len(jets._mul_table(ndir, order)[0])
             * math.prod(np.broadcast_shapes(sa, sb)) >= jets._RANK_SUM_MIN
             for ndir, order, sa, sb in _REDUCER_SHAPES}
    assert sides == {False, True}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("ndir, order, shape_a, shape_b", _REDUCER_SHAPES)
def test_each_batch_entry_is_the_unbatched_product_of_its_coefficients(
        ndir, order, shape_a, shape_b):
    rng = np.random.default_rng(10 * ndir + order)
    n = jets._num_coeffs(ndir, order)
    ca, cb = _special_coeffs(rng, n, shape_a), _special_coeffs(rng, n, shape_b)
    batch = np.broadcast_shapes(shape_a, shape_b)
    for xa, xb in ((ca, cb), (cb, ca)):
        got = (jets.Jet(xa, ndir, order) * jets.Jet(xb, ndir, order)).coeffs
        assert got.shape == (n,) + batch
        wa, wb = _ref_broadcast(xa, xb)
        want = np.empty(got.shape)
        for k in np.ndindex(batch):
            at = (slice(None),) + k
            want[at] = (jets.Jet(wa[at].copy(), ndir, order)
                        * jets.Jet(wb[at].copy(), ndir, order)).coeffs
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


# -- degree-bounded product tables ---------------------------------------------

def _orders(ndir, order, cap=None):
    """The total order of each coefficient a jet keeps, in graded order."""
    return np.array([sum(alpha) for alpha in jets._index_table(ndir, order, cap)[0]])


def _above(jet):
    """The coefficients of `jet` at total orders above its degree."""
    return jet.coeffs[_orders(jet.ndir, jet.order, jet.cap) > jet.degree]


def test_degrees_follow_the_operations():
    """A seed has degree 1 and a constant 0; sums take the larger degree,
    products the sum (at most the order), compositions the order, partials
    one less, scalar operations keep it, and a jet built from coefficients
    has its order.  Every coefficient above a degree is +-0.0."""
    x, y = seed(np.array([[0.3, 0.5, -0.2], [0.2, -0.4, 0.7]]), np.eye(2), 4)
    c = jets.Jet.constant(np.array([2.0, 3.0, 0.5]), 2, 4)
    q = x * x + y * y
    cubic = q * x - c
    cases = [(x, 1), (c, 0), (q, 2), (cubic, 3), (q + c, 2), (q - x, 2), (-q, 2),
             (q * 2.0, 2), (2.0 * q, 2), (q * np.array([1.0, 2.0, 3.0]), 2), (q / 2.0, 2),
             (1.0 - q, 2), (q + 1.0, 2), (q * q, 4), (q ** 2, 4), (c * x, 1), (jsqrt(q), 4),
             (q / c, 4), (jets.partials(q, [0, 1]), 1), (deriv(cubic, 1), 2),
             (jets.hessian(q, [0, 1]), 0), (q.truncated(1), 1), (cubic.truncated(2), 2),
             (jets.jwhere(np.array([True, False, True]), q, x), 2),
             (jets.contract("...i,...i->...", jets.partials(q, [0, 1]),
                            jets.partials(cubic, [0, 1])), 3),
             (jets.Jet(q.coeffs, 2, 4), 4)]
    for k, (jet, degree) in enumerate(cases):
        assert jet.degree == degree, k
        assert np.all(_above(jet) == 0.0), k


_DEGREE_SHAPES = [((3,), (3,)), ((1,), (4,)), ((2, 1), (3,)), ((2048,), (2048,)),
                  ((1,), (2048,))]


def _of_degree(rng, ndir, order, cap, shape, degree, special):
    """Uniform coefficients with a fifth of them +-0.0 and every one above
    `degree` +-0.0; with `special`, one entry (anywhere, so possibly above
    the degree too) and about 1 % more are inf, -inf or NaN."""
    c = _special_coeffs(rng, jets._num_coeffs(ndir, order, cap), shape)
    c[~np.isfinite(c)] = 0.5
    above = _orders(ndir, order, cap) > degree
    c[above] = np.copysign(0.0, rng.uniform(-1.0, 1.0, c[above].shape))
    if special:
        odd = rng.random(c.shape) < 0.01
        odd.flat[rng.integers(odd.size)] = True
        c[odd] = rng.choice([np.inf, -np.inf, np.nan], odd.sum())
    return c


@st.composite
def _degree_cases(draw):
    ndir = draw(st.integers(1, 4))
    order = draw(st.integers(1, 4))
    cap = draw(st.sampled_from([None] + [(m, c) for m in range(1, ndir + 1)
                                         for c in range(1, order)]))
    da, db = draw(st.integers(0, order)), draw(st.integers(0, order))
    shape_a, shape_b = draw(st.sampled_from(_DEGREE_SHAPES))
    if draw(st.booleans()):
        shape_a, shape_b = shape_b, shape_a
    special = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ca = _of_degree(rng, ndir, order, cap, shape_a, da, special and draw(st.booleans()))
    cb = _of_degree(rng, ndir, order, cap, shape_b, db, special)
    return jets._jet(ca, ndir, order, cap, da), jets._jet(cb, ndir, order, cap, db)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(_degree_cases())
def test_degree_bounded_products_give_the_full_tables_bits(pair):
    """A batched product of jets of degrees da and db skips the terms that
    pair a coefficient above either degree; while every coefficient is
    finite each such term is +-0.0, which leaves a sum from +0.0 as it is,
    and with an inf or NaN coefficient the full table runs."""
    a, b = pair
    full_a, full_b = (jets.Jet(j.coeffs, j.ndir, j.order, j.cap) for j in pair)
    for x, y, fx, fy in ((a, b, full_a, full_b), (b, a, full_b, full_a)):
        got, want = x * y, fx * fy
        assert got.degree == min(x.degree + y.degree, x.order)
        _same_bits(got.coeffs, want.coeffs)
        ca, cb, order, _ = x._aligned(y)
        finite = np.isfinite(ca).all() and np.isfinite(cb).all()
        bounded = jets._bounds(x.degree, y.degree, ca, cb, order) != (None, None)
        assert bounded == (finite and min(x.degree, y.degree) < order)


def test_degree_bounded_cases_cover_both_reducers():
    sides = {len(jets._mul_table(ndir, order, None, da, None, db)[0])
             * math.prod(np.broadcast_shapes(sa, sb)) >= jets._RANK_SUM_MIN
             for ndir, order, da, db in ((2, 2, 1, 1), (4, 4, 0, 4), (4, 4, 2, 3))
             for sa, sb in _DEGREE_SHAPES}
    assert sides == {False, True}


def test_unbatched_products_and_sphere_passes_keep_the_full_table():
    """An unbatched jet is seeded at its order, so it pays nothing for
    degrees it would never use; a batch of _BOUNDED_BATCH entries tracks
    them but takes the full table."""
    x, y = seed([0.3, 0.5], np.eye(2), 4)
    assert type(x) is jets.Jet and x.degree == 4
    assert jets.Jet.constant(0.5, 2, 4).degree == 4
    x, y = seed(np.full((2, jets._BOUNDED_BATCH), 0.5), np.eye(2), 4)
    assert jets._bounds(x.degree, y.degree, x.coeffs, y.coeffs, 4) == (None, None)
    assert (x * y).degree == 2
    x, y = seed(np.full((2, jets._BOUNDED_BATCH - 1), 0.5), np.eye(2), 4)
    assert jets._bounds(x.degree, y.degree, x.coeffs, y.coeffs, 4) == (1, 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_inf_above_an_operands_degree_takes_the_full_table():
    """A skipped term reads a coefficient above an operand's degree: an inf
    there sends the product to the full table, which keeps its inf."""
    x, y = seed(np.full((2, 4), 0.5), np.eye(2), 4)
    coeffs = x.coeffs.copy()
    coeffs[-1, 0] = np.inf  # order 4, above the degree 1
    bad = jets._jet(coeffs, 2, 4, None, 1)
    assert jets._bounds(bad.degree, y.degree, bad.coeffs, y.coeffs, 4) == (None, None)
    got = bad * y
    want = jets.Jet(coeffs, 2, 4) * jets.Jet(y.coeffs, 2, 4)
    _same_bits(got.coeffs, want.coeffs)
    assert np.isinf(got.coeffs[-1, 0])


# -- lifted primitives against 50-digit references -----------------------------

_PRIMITIVES = {
    "sqrt": (jsqrt, mpmath.sqrt),
    "exp": (jexp, mpmath.exp),
    "log": (jlog, mpmath.log),
    "pow": (lambda x: jpow(x, -1.7), lambda v: mpmath.power(v, mpmath.mpf(-1.7))),
}


def _mp_compose(f, coeffs, ndir, order):
    """The coefficients of f(x) for the jet x with coefficients `coeffs`, and
    a bound on the magnitudes summed into each, at 50 digits.  mpmath gives
    the Taylor series of f at x's value; its powers of x - value are
    truncated products summed term by term over the reference table."""
    indices, _ = jets._index_table(ndir, order)
    pairs = _ref_table(ndir, order).T

    def compose(series, h):
        total = [mpmath.mpf(0)] * len(indices)
        power = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (len(indices) - 1)
        for c in series:
            total = [t + c * p for t, p in zip(total, power)]
            product = [mpmath.mpf(0)] * len(indices)
            for i, j, k in pairs:
                product[k] += power[i] * h[j]
            power = product
        return np.array([float(t) for t in total])

    with mpmath.workdps(50):
        series = mpmath.taylor(f, mpmath.mpf(float(coeffs[0])), order)
        h = [mpmath.mpf(0)] + [mpmath.mpf(float(c)) for c in coeffs[1:]]
        return compose(series, h), compose([abs(c) for c in series], [abs(c) for c in h])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_PRIMITIVES)), st.integers(1, 3), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_lifted_primitives_match_mpmath(name, ndir, order, seed_):
    lifted, reference = _PRIMITIVES[name]
    rng = np.random.default_rng(seed_)
    coeffs = rng.uniform(-1.0, 1.0, jets._num_coeffs(ndir, order))
    coeffs[0] = rng.uniform(0.5, 2.0)
    want, bound = _mp_compose(reference, coeffs, ndir, order)
    got = lifted(jets.Jet(coeffs, ndir, order)).coeffs
    assert np.all(np.abs(got - want) <= 1e-14 * bound)


def test_lifted_primitives_of_a_large_batch_match_mpmath():
    """A batch of 2048 entries, each one of eight jets, whose products take
    the rank-by-rank reducer."""
    ndir, order = 2, 3
    n = jets._num_coeffs(ndir, order)
    assert len(jets._mul_table(ndir, order)[0]) * 2048 >= jets._RANK_SUM_MIN
    rng = np.random.default_rng(5)
    distinct = rng.uniform(-1.0, 1.0, (n, 8))
    distinct[0] = rng.uniform(0.5, 2.0, 8)
    pick = rng.integers(0, 8, 2048)
    for name, (lifted, reference) in _PRIMITIVES.items():
        got = lifted(jets.Jet(distinct[:, pick], ndir, order)).coeffs
        for k in range(8):
            want, bound = _mp_compose(reference, distinct[:, k], ndir, order)
            err = np.abs(got[:, pick == k] - want[:, None])
            assert np.all(err <= 1e-14 * bound[:, None]), name


# -- the direct coefficient paths, at special values ----------------------------

def _specials(rng, shape):
    """Coefficients of `shape`: uniform, with a quarter of them +-0.0 and a
    tenth +-inf or NaN."""
    c = rng.uniform(-1.0, 1.0, shape)
    pick = rng.random(shape)
    c[pick < 0.25] = np.copysign(0.0, rng.uniform(-1.0, 1.0, shape))[pick < 0.25]
    odd = pick > 0.9
    c[odd] = rng.choice([np.inf, -np.inf, np.nan], odd.sum())
    return c


def _same_bits(got, want):
    """NaN where `want` is NaN, whatever its sign, and the bits of `want`
    everywhere else."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


_KERNEL_CASES = [(1, 1, ()), (2, 2, ()), (3, 3, ()), (4, 4, ()), (2, 3, (3,)),
                 (3, 2, (2, 3)), (3, 4, (33,)), (2, 1, (4096,))]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("ndir, order, shape", _KERNEL_CASES)
def test_ring_operations_at_special_coefficients(ndir, order, shape):
    """Sums, differences and products with coefficients +-0.0, +-inf and
    NaN are the coefficient arithmetic they stand for, bit for bit: for
    jets of one order and shape, for a jet of higher order (truncated to
    the lower) and for an unbatched jet against a batched one."""
    rng = np.random.default_rng(7 * ndir + order)
    n = jets._num_coeffs(ndir, order)
    ca, cb = _specials(rng, (n,) + shape), _specials(rng, (n,) + shape)
    a, b = jets.Jet(ca, ndir, order), jets.Jet(cb, ndir, order)
    _same_bits((a + b).coeffs, ca + cb)
    _same_bits((a - b).coeffs, ca - cb)
    _same_bits((a * b).coeffs, _ref_mul(ca, cb, ndir, order))
    top = min(order + 1, jets.MAX_ORDER)
    high = jets.Jet(_specials(rng, (jets._num_coeffs(ndir, top),) + shape), ndir, top)
    low = high.coeffs[:n]
    for got, want in (((a + high), ca + low), ((high + a), low + ca), ((a - high), ca - low),
                      ((high - a), low - ca), ((a * high), _ref_mul(ca, low, ndir, order)),
                      ((high * a), _ref_mul(low, ca, ndir, order))):
        assert got.order == order
        _same_bits(got.coeffs, want)
    one = _specials(rng, (n,))
    lone = jets.Jet(one, ndir, order)
    wide = one.reshape((n,) + (1,) * len(shape))
    _same_bits((lone + b).coeffs, np.broadcast_to(wide, cb.shape) + cb)
    _same_bits((b - lone).coeffs, cb - wide)
    _same_bits((lone * b).coeffs, _ref_mul(one, cb, ndir, order))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("shape", [(), (3,)])
@pytest.mark.parametrize("c", [2.5, -0.0, 0.0, np.inf, -np.inf, np.nan])
def test_float_scalars_match_0d_array_scalars(shape, c):
    """A Python float and an np.float64 act on a jet bit for bit as the
    same number as a 0-d array does, in every ring operation."""
    rng = np.random.default_rng(3)
    a = jets.Jet(_specials(rng, (jets._num_coeffs(2, 3),) + shape), 2, 3)
    z = np.array(c)
    for s in (c, np.float64(c)):
        for got, want in ((a + s, a + z), (s + a, z + a), (a - s, a - z), (s - a, z - a),
                          (a * s, a * z), (s * a, z * a), (a / s, a / z)):
            assert type(got) is jets.Jet and got.order == 3
            _same_bits(got.coeffs, want.coeffs)


def _operator_horner(x, series):
    """sum_k series[k] (x - value)^k by Horner through the Jet operators."""
    h = jets.Jet(x.coeffs.copy(), x.ndir, x.order)
    h.coeffs[0] = np.zeros(x.batch_shape)
    result = h * series[-1]
    for k in range(len(series) - 2, 0, -1):
        result = (result + series[k]) * h
    return result + series[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("ndir, order, shape", _KERNEL_CASES + [(2, 3, (2048,)), (4, 0, ())])
def test_compose_matches_a_horner_sweep_through_the_jet_operators(ndir, order, shape):
    """_compose runs its Horner sweep on coefficient arrays; it gives, bit
    for bit, what the same sweep gives through Jet's +, * and scaling, on
    either product reducer and at special coefficients."""
    rng = np.random.default_rng(11 * ndir + order)
    coeffs = _specials(rng, (jets._num_coeffs(ndir, order),) + shape)
    coeffs[0] = rng.uniform(0.5, 2.0, shape)
    x = jets.Jet(coeffs, ndir, order)
    series = [np.float64(rng.uniform(-2.0, 2.0)) if shape == ()
              else rng.uniform(-2.0, 2.0, shape) for _ in range(order + 1)]
    got = x._compose(series)
    assert got.order == order
    _same_bits(got.coeffs, _operator_horner(x, series).coeffs)
    sqrt_series = [np.sqrt(x.value)]
    for k in range(1, order + 1):
        sqrt_series.append(sqrt_series[-1] * (0.5 - (k - 1)) / (k * x.value))
    _same_bits(jsqrt(x).coeffs, _operator_horner(x, sqrt_series).coeffs)


# -- the truncated Horner sweep and capped index sets -------------------------

def _finite_specials(rng, shape):
    """Uniform coefficients of `shape`, a quarter of them +-0.0."""
    c = rng.uniform(-1.0, 1.0, shape)
    zero = rng.random(shape) < 0.25
    c[zero] = np.copysign(0.0, rng.uniform(-1.0, 1.0, shape))[zero]
    return c


_SWEEP_CASES = [(1, 3, ()), (3, 3, ()), (2, 3, (2048,)), (3, 3, (33,)), (1, 4, ()), (2, 4, ()),
                (4, 4, ()), (6, 4, ()), (3, 4, (33,)), (2, 4, (3,)), (2, 4, (2048,))]


@pytest.mark.parametrize("ndir, order, shape", _SWEEP_CASES)
def test_compose_at_finite_coefficients_matches_a_horner_sweep(ndir, order, shape,
                                                               monkeypatch):
    """With every coefficient finite, an order-4 composition, and an order-3
    one with batch axes, runs the j-th product of its sweep at order j + 1,
    which the full sweep's skipped coefficients reach only through h[0] = 0;
    an unbatched order-3 one runs the full sweep.  Both give the bits of the
    sweep through the Jet operators."""
    rng = np.random.default_rng(13 * ndir + order + len(shape))
    coeffs = _finite_specials(rng, (jets._num_coeffs(ndir, order),) + shape)
    coeffs[0] = rng.uniform(0.5, 2.0, shape)
    x = jets.Jet(coeffs, ndir, order)
    series = [np.float64(rng.uniform(-2.0, 2.0)) if shape == ()
              else rng.uniform(-2.0, 2.0, shape) for _ in range(order + 1)]
    orders = []
    product = jets._product

    def recorded(ca, cb, ndir, order, *args):
        orders.append(order)
        return product(ca, cb, ndir, order, *args)

    monkeypatch.setattr(jets, "_product", recorded)
    got = x._compose(series)
    assert orders == ([2, 3, 4] if order == 4 else [2, 3] if shape else [3, 3])
    monkeypatch.undo()
    _same_bits(got.coeffs, _operator_horner(x, series).coeffs)
    assert np.array_equal(np.signbit(got.coeffs), np.signbit(_operator_horner(x, series).coeffs))


def test_the_truncated_sweep_cases_cover_both_reducers():
    """The batched sweeps of each truncated order run products on both
    sides of jets._RANK_SUM_MIN."""
    for order in (3, 4):
        sides = {len(jets._mul_table(ndir, top, None, top - 1)[0]) * math.prod(shape)
                 >= jets._RANK_SUM_MIN
                 for ndir, o, shape in _SWEEP_CASES if o == order and shape
                 for top in range(2, order + 1)}
        assert sides == {False, True}, order


def _within(jet, cap):
    """The coefficients of an uncapped jet at the multi-indices that `cap`
    keeps, in graded order."""
    indices, _ = jets._index_table(jet.ndir, jet.order, cap)
    _, position = jets._index_table(jet.ndir, jet.order)
    return jet.coeffs[[position[alpha] for alpha in indices]]


def _capped(jet, cap):
    return jets.Jet(_within(jet, cap), jet.ndir, jet.order, cap)


# (ndir, order, cap, batch shape): capped below the order, so each case drops
# coefficients, unbatched and batched
_CAPPED_CASES = [(4, 4, (2, 2), ()), (6, 4, (3, 2), ()), (6, 3, (3, 2), (2, 3)),
                 (4, 4, (2, 1), (33,)), (3, 4, (1, 0), ()), (6, 4, (3, 2), (2048,))]


@pytest.mark.parametrize("ndir, order, cap, shape", _CAPPED_CASES)
def test_a_capped_index_set_keeps_the_multi_indices_within_its_cap(ndir, order, cap, shape):
    indices, position = jets._index_table(ndir, order, cap)
    full, _ = jets._index_table(ndir, order)
    assert indices == tuple(a for a in full if sum(a[:cap[0]]) <= cap[1])
    assert jets._num_coeffs(ndir, order, cap) == len(indices) < len(full)
    # each lower order's capped set is a prefix, so truncation is a slice
    for low in range(order):
        assert indices[:jets._num_coeffs(ndir, low, cap)] == jets._index_table(ndir, low, cap)[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("ndir, order, cap, shape", _CAPPED_CASES)
def test_capped_jets_compute_what_uncapped_jets_compute_within_the_cap(ndir, order, cap,
                                                                       shape):
    """Products, partials, Hessians, compositions, contractions and
    truncations of capped jets give, bit for bit, the coefficients the same
    operations give uncapped at every multi-index within the cap; partials
    along the capped directions are capped one order lower there."""
    rng = np.random.default_rng(17 * ndir + order + cap[1])
    n = jets._num_coeffs(ndir, order)
    a = jets.Jet(_specials(rng, (n,) + shape), ndir, order)
    b = jets.Jet(_finite_specials(rng, (n,) + shape), ndir, order)
    b.coeffs[0] = rng.uniform(0.5, 2.0, shape)
    ac, bc = _capped(a, cap), _capped(b, cap)

    def same(got, want):
        assert got.order == want.order and got.cap == jets._cap(got.cap, got.order)
        _same_bits(got.coeffs, _within(want, got.cap))

    same(ac * bc, a * b)
    same(ac + bc, a + b)
    same(ac * b, a * b)  # an uncapped operand is recapped
    same(bc / ac, b / a)
    for lifted in (jsqrt, jexp, jlog, lambda x: jpow(x, -1.7)):
        same(lifted(bc), lifted(b))
    same(bc._reciprocal(), b._reciprocal())
    for low in range(order):
        same(bc.truncated(low), b.truncated(low))
    for directions in ([cap[0] - 1, ndir - 1], [ndir - 1], list(range(ndir))):
        directions = [d for d in directions if d >= 0]
        if cap[1] == 0 and min(directions) < cap[0]:
            with pytest.raises(OutOfOrderError):
                jets.partials(ac, directions)
            continue
        got = jets.partials(ac, directions)
        lowered = any(d < cap[0] for d in directions)
        assert got.cap == jets._cap((cap[0], cap[1] - lowered), order - 1)
        same(got, jets.partials(a, directions))
        if order >= 2 and not (lowered and cap[1] < 2):
            same(jets.hessian(bc, directions), jets.hessian(b, directions))
    ta = jets.Jet(_specials(rng, (n,) + shape + (2, 3)), ndir, order)
    tb = jets.Jet(_specials(rng, (n,) + shape + (3,)), ndir, order)
    same(jets.contract("...ij,...j->...i", _capped(ta, cap), _capped(tb, cap)),
         jets.contract("...ij,...j->...i", ta, tb))
    # operands of different caps and orders meet at the tighter cap and the lower order
    lower = jets.partials(_capped(tb, cap), [ndir - 1])
    same(jets.contract("...ij,...jk->...ik", _capped(ta, cap), lower),
         jets.contract("...ij,...jk->...ik", ta, jets.partials(tb, [ndir - 1])))
    if cap[1] > 0:
        xs = jets.partials(_capped(tb, cap), [0])
        same(jets.contract("...ij,...jk->...ik", ta, xs),
             jets.contract("...ij,...jk->...ik", ta, jets.partials(tb, [0])))


@pytest.mark.parametrize("ndir, order, cap, shape", _CAPPED_CASES)
def test_extract_above_a_cap_is_refused(ndir, order, cap, shape):
    rng = np.random.default_rng(3)
    c = jets.Jet(rng.uniform(-1.0, 1.0, (jets._num_coeffs(ndir, order, cap),) + shape),
                 ndir, order, cap)
    inside = (cap[1],) + (0,) * (ndir - 1)
    assert np.array_equal(extract(c, inside), c.coeffs[jets._index_table(
        ndir, order, cap)[1][inside]] * math.factorial(cap[1]))
    above = (cap[1] + 1,) + (0,) * (ndir - 1)
    with pytest.raises(OutOfOrderError, match="cap"):
        extract(c, above)


def test_a_capped_seed_is_the_uncapped_seed_within_its_cap():
    point = np.array([[0.1, 0.2], [0.3, -0.4], [1.5, 0.5]])
    directions = np.eye(3) + 0.25
    for cap in ((2, 2), (2, 1), (3, 1), (0, 1)):
        for got, want in zip(seed(point, directions, 3, cap), seed(point, directions, 3)):
            assert got.cap == cap
            _same_bits(got.coeffs, _within(want, cap))
    assert all(j.cap is None for j in seed(point, directions, 3, (2, 3)))


@pytest.mark.parametrize("cap", [(2,), (1, 0), (5, 1), (1.0, 2), "ab", 2])
def test_a_malformed_seed_cap_is_refused(cap):
    with pytest.raises(ValueError, match="cap"):
        seed([0.1, 0.2], np.eye(2), 2, cap)


def test_jets_capped_over_different_directions_do_not_combine():
    a = seed([0.1, 0.2, 0.3], np.eye(3), 3, (1, 1))[0]
    b = seed([0.1, 0.2, 0.3], np.eye(3), 3, (2, 1))[0]
    for combine in (lambda: a + b, lambda: a * b, lambda: jets.contract("...,...->...", a, b)):
        with pytest.raises(ValueError, match="capped over different direction sets"):
            combine()
