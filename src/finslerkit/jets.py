"""Truncated multivariate Taylor (jet) arithmetic.

A jet represents the Taylor expansion of a scalar function along a set of
seeded directions, truncated at a fixed total order.  Arithmetic on jets
(+, -, *, /, powers, sqrt/exp/log) propagates all mixed partial
derivatives exactly, so every derivative a geometric formula needs comes
out to machine precision instead of finite-difference accuracy.

Coefficients are stored densely, indexed by graded multi-index, so the
index set of order p is a prefix of the index set of order q > p for the
same number of directions.  Truncating a jet is a slice; that keeps mixed-
order products cheap.  Coefficient arrays may carry trailing batch axes,
which lets quadrature rules push whole node sets through one evaluation.

Batch axes broadcast by one rule: `_pad` gives a coefficient array unit
batch axes after its coefficient axis, and numpy broadcasting does the
rest.  Operands of equal shape, and scalar operands, skip it.

One table, `_mul_table`, lists the terms a[i] * b[j] of a product, one
per pair of multi-indices whose orders sum to at most the truncation
order, stably sorted by output index.  A product of two jets sums each
output index's terms in table order, starting from +0.0, by one of two
reducers.  Small products scatter every term through np.bincount.  A
batched product of at least `_RANK_SUM_MIN` terms x batch entries walks
`_rank_table` instead: the r-th term of every output index with more than
r terms is added as one slab over the whole batch.  Both reducers add the
same products in the same order, so they give the same bits, and every
batch entry of a product is bit for bit the unbatched product of its own
coefficients: a stack of samples computes what its samples compute one at
a time.  `contract` sums each output index's contiguous segment with
np.add.reduceat, which rounds batched terms differently.

One table, `_partials_table`, gathers partials along seeded coordinate
axes; `deriv` is its one-direction case.  A composition (sqrt, exp, log,
pow, reciprocal) starts its Horner sweep by scaling, not by a product
with a constant jet, which saves one full batched product each.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import OutOfOrderError, UnsupportedOrderError

MAX_ORDER = 4
MAX_DIRECTIONS = 8

# Terms x batch entries from which a batched product sums rank by rank
# instead of through np.bincount.  Timed on a 2-core Xeon with numpy 2.4
# over 1-6 directions, orders 1-4 and batches of 8-4096 nodes: from this
# size up the rank sum was 1.2-7x faster in every shape; below it, its
# Python loop over up to 16 ranks can cost more than the one scatter
# (order 4 in 4 directions over 33 nodes: 0.15 ms against 0.10 ms).
_RANK_SUM_MIN = 32768


def _compositions(total, m):
    """All multi-indices of length m with entries summing to `total`."""
    if m == 0:
        if total == 0:
            yield ()
        return
    if m == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, m - 1):
            yield (head,) + tail


@lru_cache(maxsize=None)
def _index_table(ndir, order):
    indices = []
    for total in range(order + 1):
        indices.extend(_compositions(total, ndir))
    position = {alpha: i for i, alpha in enumerate(indices)}
    return tuple(indices), position


@lru_cache(maxsize=None)
def _num_coeffs(ndir, order):
    return math.comb(ndir + order, order)


@lru_cache(maxsize=None)
def _mul_table(ndir, order):
    """The product table (ia, ib, ic, starts): one term a[ia] * b[ib] per
    pair of multi-indices whose orders sum to at most `order`, landing on
    output index ic.  Terms are stably sorted by ic, so the terms of output
    index k are starts[k]:starts[k + 1], in the order they were listed."""
    indices, position = _index_table(ndir, order)
    ia, ib, ic = [], [], []
    for i, a in enumerate(indices):
        da = sum(a)
        for j, b in enumerate(indices):
            if da + sum(b) > order:
                continue
            ia.append(i)
            ib.append(j)
            ic.append(position[tuple(x + y for x, y in zip(a, b))])
    perm = np.argsort(ic, kind="stable")
    ic = np.asarray(ic, dtype=np.intp)[perm]
    # the (0, alpha) term reaches every output index, so no segment is empty
    starts = np.searchsorted(ic, np.arange(len(indices)))
    return (np.asarray(ia, dtype=np.intp)[perm], np.asarray(ib, dtype=np.intp)[perm],
            ic, starts)


@lru_cache(maxsize=None)
def _rank_table(ndir, order):
    """The product table by rank: (ranks, inverse).  Output indices are
    ordered by their number of terms, most first, so those with more than
    r terms are the first m_r; ranks[r] = (m_r, ia_r, ib_r) lists their
    r-th terms, in table order.  `inverse` restores graded order."""
    ia, ib, _, starts = _mul_table(ndir, order)
    lengths = np.diff(starts, append=len(ia))
    perm = np.argsort(-lengths, kind="stable")
    ranks = []
    for r in range(lengths.max()):
        m = int(np.count_nonzero(lengths > r))
        at = starts[perm[:m]] + r
        ranks.append((m, ia[at], ib[at]))
    return tuple(ranks), np.argsort(perm)


@lru_cache(maxsize=None)
def _partials_table(ndir, order, directions):
    """Gather indices and factors (src, fac), each (coefficients, directions),
    mapping an order-p jet to the (p-1)-jet of its partial along each seeded
    direction in `directions`."""
    low, _ = _index_table(ndir, order - 1)
    _, position = _index_table(ndir, order)
    src = np.empty((len(low), len(directions)), dtype=np.intp)
    fac = np.empty(src.shape)
    for i, beta in enumerate(low):
        for m, d in enumerate(directions):
            lifted = list(beta)
            lifted[d] += 1
            src[i, m] = position[tuple(lifted)]
            fac[i, m] = beta[d] + 1
    return src, fac


def _pad(coeffs, ndim):
    """`coeffs` with unit batch axes after the coefficient axis, up to
    `ndim` axes, so numpy broadcasts its batch axes against the trailing
    axes of another operand."""
    missing = ndim - coeffs.ndim
    if missing <= 0:
        return coeffs
    return coeffs.reshape(coeffs.shape[:1] + (1,) * missing + coeffs.shape[1:])


class Jet:
    """Truncated Taylor value over `ndir` seeded directions.

    coeffs[k] is the Taylor coefficient (mixed partial divided by the
    factorials of the multi-index) for the k-th graded multi-index.
    """

    __slots__ = ("coeffs", "ndir", "order")
    __array_ufunc__ = None  # force numpy to defer to reflected operators

    def __init__(self, coeffs, ndir, order):
        self.coeffs = coeffs
        self.ndir = ndir
        self.order = order

    @classmethod
    def constant(cls, value, ndir, order):
        value = np.asarray(value, dtype=np.float64)
        coeffs = np.zeros((_num_coeffs(ndir, order),) + value.shape)
        coeffs[0] = value
        return cls(coeffs, ndir, order)

    @property
    def value(self):
        return self.coeffs[0]

    @property
    def batch_shape(self):
        return self.coeffs.shape[1:]

    def truncated(self, order):
        if order >= self.order:
            return self
        return Jet(self.coeffs[: _num_coeffs(self.ndir, order)], self.ndir, order)

    def copy(self):
        return Jet(self.coeffs.copy(), self.ndir, self.order)

    def _coerce(self, other):
        """Align two jets to a common order; returns (a, b, order)."""
        if other.ndir != self.ndir:
            raise ValueError("jets seeded over different direction sets")
        order = min(self.order, other.order)
        return self.truncated(order), other.truncated(order), order

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b, order = self._coerce(other)
            ca, cb = a.coeffs, b.coeffs
            if ca.shape != cb.shape:
                nd = max(ca.ndim, cb.ndim)
                ca, cb = _pad(ca, nd), _pad(cb, nd)
            return Jet(ca + cb, self.ndir, order)
        other = np.asarray(other, dtype=np.float64)
        out = self.coeffs
        if other.ndim and other.shape != out.shape[1:]:
            out = np.broadcast_arrays(_pad(out, other.ndim + 1), other)[0]
        out = out.copy()
        out[0] = out[0] + other
        return Jet(out, self.ndir, self.order)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.coeffs, self.ndir, self.order)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            other = np.asarray(other, dtype=np.float64)
            return Jet(_pad(self.coeffs, other.ndim + 1) * other, self.ndir, self.order)
        a, b, order = self._coerce(other)
        ca, cb = a.coeffs, b.coeffs
        ia, ib, ic, _ = _mul_table(self.ndir, order)
        count = _num_coeffs(self.ndir, order)
        if ca.ndim == 1 == cb.ndim:
            return Jet(np.bincount(ic, weights=ca[ia] * cb[ib], minlength=count),
                       self.ndir, order)
        nd = max(ca.ndim, cb.ndim)
        ca, cb = _pad(ca, nd), _pad(cb, nd)
        # each operand is gathered before the multiply broadcasts it, so a
        # smaller operand is never copied out to the common shape
        if len(ia) * math.prod(map(max, ca.shape[1:], cb.shape[1:])) >= _RANK_SUM_MIN:
            ranks, inverse = _rank_table(self.ndir, order)
            (_, ia, ib), *later = ranks
            acc = ca[ia] * cb[ib]
            acc += 0.0  # bincount sums from +0.0, so a lone -0.0 term gives +0.0
            for m, ia, ib in later:
                acc[:m] += ca[ia] * cb[ib]
            return Jet(acc[inverse], self.ndir, order)
        terms = ca[ia] * cb[ib]
        batch = terms.shape[1:]
        size = math.prod(batch)
        # output index ic * size + batch position: each output entry sums
        # its terms in table order, as the unbatched bincount does
        index = (ic[:, None] * size + np.arange(size)).ravel()
        out = np.bincount(index, weights=terms.ravel(), minlength=count * size)
        return Jet(out.reshape((count,) + batch), self.ndir, order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        other = np.asarray(other, dtype=np.float64)
        return Jet(_pad(self.coeffs, other.ndim + 1) / other, self.ndir, self.order)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, exponent):
        if isinstance(exponent, (int, np.integer)):
            if exponent < 0:
                return (self ** (-exponent))._reciprocal()
            result = Jet.constant(np.ones(self.batch_shape), self.ndir, self.order)
            base = self
            k = int(exponent)
            while k:
                if k & 1:
                    result = result * base
                k >>= 1
                if k:
                    base = base * base
            return result
        return jpow(self, exponent)

    # -- analytic composition --------------------------------------------

    def _compose(self, series):
        """Evaluate sum_k series[k] * (self - value)^k by Horner, as
        c_0 + h (c_1 + h (... + h c_n)): the innermost step scales h instead
        of multiplying it by a constant jet.  At order 0, h is zero and this
        reduces to c_0."""
        h = self.copy()
        h.coeffs[0] = np.zeros(self.batch_shape)
        result = h * series[-1]
        for k in range(len(series) - 2, 0, -1):
            result = (result + series[k]) * h
        return result + series[0]

    def _reciprocal(self):
        v = self.value
        series = [1.0 / v]
        for _ in range(self.order):
            series.append(-series[-1] / v)
        return self._compose(series)

    def __repr__(self):
        return (f"Jet(order={self.order}, ndir={self.ndir}, "
                f"value={self.value!r})")


# -- seeding and extraction ----------------------------------------------

def seed(point, directions, order):
    """Seed jet coordinates at `point` along `directions`.

    Returns one jet per coordinate of `point`, that is per entry along its
    first axis; any further axes of `point` become batch axes of every
    jet, so a (n, K) point seeds K points at once.  With no directions (or
    order zero) returns plain values, so downstream formulas reduce to
    ordinary arithmetic.
    """
    point = np.asarray(point, dtype=np.float64)
    if order == 0 or len(directions) == 0:
        return [float(p) for p in point] if point.ndim == 1 else list(point)
    if not isinstance(order, (int, np.integer)) or not 1 <= order <= MAX_ORDER:
        raise UnsupportedOrderError(f"jet order {order!r} not in 1..{MAX_ORDER}")
    m = len(directions)
    if m > MAX_DIRECTIONS:
        raise UnsupportedOrderError(
            f"{m} directions exceed the supported maximum {MAX_DIRECTIONS}")
    batch = point.shape[1:]
    coeffs = np.zeros((len(point), _num_coeffs(m, order)) + batch)
    coeffs[:, 0] = point
    slopes = np.asarray(directions, dtype=np.float64).T
    # the graded order puts the first partials e_0 ... e_{m-1} at positions 1 ... m
    coeffs[:, 1:m + 1] = slopes.reshape(slopes.shape + (1,) * len(batch))
    return [Jet(c, m, order) for c in coeffs]


def extract(jet, multi_index):
    """Mixed partial derivative of the evaluated function with respect to
    the seeded directions (factorial normalization applied)."""
    multi_index = tuple(int(k) for k in multi_index)
    total = sum(multi_index)
    if not isinstance(jet, Jet):
        if total == 0:
            return float(jet)
        raise OutOfOrderError("plain value carries no derivative information")
    if total > jet.order:
        raise OutOfOrderError(
            f"multi-index {multi_index} exceeds jet order {jet.order}")
    if len(multi_index) != jet.ndir:
        raise ValueError(
            f"multi-index length {len(multi_index)} != {jet.ndir} directions")
    _, position = _index_table(jet.ndir, jet.order)
    factor = 1.0
    for k in multi_index:
        factor *= math.factorial(k)
    return jet.coeffs[position[multi_index]] * factor


def deriv(jet, direction):
    """Jet of the partial derivative along seeded direction `direction`.

    Valid whenever the seeded directions are coordinate axes (how all of
    the geometry layer seeds them); drops the truncation order by one.
    """
    d = partials(jet, (direction,))
    return Jet(d.coeffs[..., 0], d.ndir, d.order)


def jwhere(mask, a, b):
    """`np.where` for two jets: `mask` (over the batch axes) picks a's or b's
    coefficients, node by node."""
    a, b, order = a._coerce(b)
    nd = max(a.coeffs.ndim, b.coeffs.ndim)
    return Jet(np.where(mask, _pad(a.coeffs, nd), _pad(b.coeffs, nd)), a.ndir, order)


def value(x):
    """Scalar (value) part of a jet, or the input itself for plain numbers."""
    return x.value if isinstance(x, Jet) else x


# -- jet-valued tensors -------------------------------------------------------
#
# A tensor of jets is one Jet whose batch axes are the tensor indices.

def partials(jet, directions):
    """Partials along the seeded coordinate axes `directions`, stacked along
    a new trailing batch axis, in one gather."""
    if jet.order < 1:
        raise OutOfOrderError("cannot differentiate an order-0 jet")
    src, fac = _partials_table(jet.ndir, jet.order, tuple(directions))
    coeffs = jet.coeffs[src] * fac.reshape(fac.shape + (1,) * len(jet.batch_shape))
    axes = (0,) + tuple(range(2, coeffs.ndim)) + (1,)
    return Jet(coeffs.transpose(axes), jet.ndir, jet.order - 1)


def hessian(jet, directions):
    """h[..., i, j] = d^2 jet / dd_i dd_j along the seeded axes `directions`."""
    return partials(partials(jet, directions), directions)


def outermost(arr, first, count):
    """`arr` with its axes first..first+count-1 outermost in memory and the
    other axes in their own memory order: a copy unless count is 0.

    numpy picks its einsum and matmul kernels, and so the rounding of every
    sum, from the memory layout.  Laid out this way, the slice at each
    index of the moved axes is stored as it would be without those axes,
    so numpy computes it bit for bit as it would compute that slice alone.
    """
    if count == 0:
        return arr
    lead = list(range(first, first + count))
    rest = sorted((ax for ax in range(arr.ndim) if ax not in lead),
                  key=lambda ax: -arr.strides[ax])
    perm = lead + rest
    out = np.empty([arr.shape[ax] for ax in perm])
    out[...] = arr.transpose(perm)
    return out.transpose(np.argsort(perm))


def contract(subscripts, a, b):
    """`np.einsum(subscripts, a, b)` over the batch axes of two jets, with
    jet products: `contract("ij,jk->ik", a, b)` multiplies jet-valued
    matrices.  Axes under an ellipsis ("...ij") are batch axes that each
    index computes as it would alone (see `outermost`)."""
    operands, out = subscripts.split("->")
    a, b, order = a._coerce(b)
    ia, ib, _, starts = _mul_table(a.ndir, order)
    gathered = [a.coeffs[ia], b.coeffs[ib]]
    for k, sub in enumerate(operands.split(",")):
        count = gathered[k].ndim - 1 - (len(sub) - 3) if "..." in sub else 0
        if count:
            gathered[k] = outermost(gathered[k], 1, count)
    terms = np.einsum(f"Z{operands.replace(',', ',Z')}->Z{out}", *gathered)
    return Jet(np.add.reduceat(terms, starts, axis=0), a.ndir, order)


# -- lifted smooth primitives ----------------------------------------------

def jsqrt(x):
    if not isinstance(x, Jet):
        return np.sqrt(x)
    v = x.value
    series = [np.sqrt(v)]
    for k in range(1, x.order + 1):
        series.append(series[-1] * (0.5 - (k - 1)) / (k * v))
    return x._compose(series)


def jexp(x):
    if not isinstance(x, Jet):
        return np.exp(x)
    series = [np.exp(x.value)]
    for k in range(1, x.order + 1):
        series.append(series[-1] / k)
    return x._compose(series)


def jlog(x):
    if not isinstance(x, Jet):
        return np.log(x)
    v = x.value
    series = [np.log(v)]
    for k in range(1, x.order + 1):
        if k == 1:
            series.append(1.0 / v)
        else:
            series.append(-series[-1] * (k - 1) / (k * v))
    return x._compose(series)


def jpow(x, exponent):
    if not isinstance(x, Jet):
        return np.power(x, exponent)
    if isinstance(exponent, (int, np.integer)):
        return x ** int(exponent)
    v = x.value
    series = [np.power(v, exponent)]
    for k in range(1, x.order + 1):
        series.append(series[-1] * (exponent - (k - 1)) / (k * v))
    return x._compose(series)
