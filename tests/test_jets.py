"""Truncated multivariate jet arithmetic."""

import math

import numpy as np
import pytest

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
