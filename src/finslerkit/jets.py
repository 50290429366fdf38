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

Which path an operand takes:

* Two jets of one order, cap (below) and number of axes, as in nearly
  every step of a metric's F, combine their coefficient arrays directly.
* Jets of different orders or caps are truncated to the lower order and
  the tighter cap first (`Jet._aligned`), and a jet with fewer batch axes
  gets unit batch axes after its coefficient axis (`_pad`); numpy
  broadcasting does the rest.
* A Python float or np.float64 acts on the coefficient array as it is;
  any other scalar or array goes through np.asarray and `_pad`.

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

A jet also has a degree (`Jet.degree`), the highest total order at which
its coefficients can be nonzero: 1 for a seeded coordinate with batch
axes, 0 for such a constant, and its order for a jet built from
coefficients or by a composition.  Sums take the larger degree, products
the sum (at most the order), partials one less, and scalar operations
keep it.  Every coefficient above the degree is +-0.0 unless the jet
holds an inf or NaN: it is a sum of terms that each take a factor above
an operand's degree.  `_mul_table` and `_rank_table` take a's degree
(`low`) and b's (`bound`) and then list only the terms a[i] * b[j] with i
and j within them; output indices above the two degrees' sum have no
terms and read +0.0.  A product of batched jets takes that bounded table
when either degree is below the order, fewer than `_BOUNDED_BATCH` batch
entries are in play (stacks of samples, not sphere passes) and a sum of
each operand's coefficients is finite.  It then gives the full table's
bits: each skipped term is +-0.0 times a finite number, so +-0.0, and a
sum that starts from +0.0 never becomes -0.0, so adding +-0.0 changes no
bit.  An inf or NaN coefficient would make a skipped term NaN, so then
the full table runs.  Unbatched products always take the full table: for
one sample the finiteness check costs more than the skipped terms save.
So an unbatched seed or constant has its order for degree, and the
single samples of the flows pay nothing for degrees they would not use
(tracked there too, they made transport 6 to 11 % slower).

One table, `_partials_table`, gathers partials along seeded coordinate
axes; `deriv` is its one-direction case.  A composition (sqrt, exp, log,
pow, reciprocal) runs its Horner sweep on coefficient arrays with the
same product table: it starts by scaling, not by a product with a
constant jet, which saves one full batched product each, and adds each
series coefficient into the value part in place.

A jet may carry a cap (m, c): it keeps only the multi-indices of total
order at most c in its first m directions.  The capped index set of order
p is still a prefix of that of order q > p, so truncation stays a slice,
and every table is built from the capped index list.  Each term of a
product that lands on a multi-index within the cap pairs two multi-indices
within it, in the order the uncapped table lists them, so capped jets give
the bits uncapped jets give at every multi-index they keep.  A partial
along a capped direction is capped one order lower there, since its top
coefficients would need ones the jet does not keep, and `extract` refuses
a multi-index above a cap.  Operands of two caps meet at the tighter one:
`contract` gathers each from its own coefficients, and the other
operations gather the kept coefficients of the looser operand first.

At MAX_ORDER, and at order 3 with batch axes, a composition whose
coefficients and series terms are all finite runs the j-th product of its
sweep at order j + 1, with its left operand at order j.  Each later step
multiplies by h, whose value part is 0, so a coefficient the j-th product
skips would meet only h[0] = 0, and a term a[i] * h[0] = +-0.0 added to a
sum that starts at +0.0 leaves it unchanged: the truncated sweep gives the
full sweep's bits.  An inf or NaN coefficient would make those skipped
terms NaN, so then the full sweep runs.  (Finite coefficients large enough
that a skipped coefficient overflows would also differ; the check does not
look for that.)  An unbatched order-3 composition runs the full sweep:
there the truncated sweep costs more than it saves (a square root in 4
directions, 8.1 µs against 6.5 µs on a 2-core Xeon), and single samples
are what the flows' need-"N" bundles evaluate.  With batch axes it saves
(best of 5, µs, full sweep against truncated): 68 against 56 over 33 rows
in 4 directions capped at (2, 2), 144 against 94 over 33 rows in 6, and
1428 against 792 over 4096 rows in 3.  Below order 3 the sweep has one
product or none.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

from .errors import OutOfOrderError, UnsupportedOrderError

MAX_ORDER = 4
MAX_DIRECTIONS = 8

# Terms x batch entries from which a batched product sums rank by rank
# instead of through np.bincount.  Timed on a 2-core Xeon with numpy 2.4
# over 1-6 directions, orders 1-4 and batches of 8-4096 nodes: from this
# size up the rank sum was faster in 68 of 71 shapes and at most 5 %
# slower in the other three; below it, it lost in half the shapes, by up
# to 1.6x where a high order meets a short batch.  Re-timed on the capped
# and truncated-sweep tables that phase bundles use (medians of 9, µs,
# bincount against rank sum): the n = 2 torsion trace's order-4 product
# in 4 directions capped at chart order 2, over 33 nodes (11880 entries),
# 77 against 133; the n = 3 one's, over 33 nodes (42966 entries), 576
# against 216.  Near the constant the faster reducer goes both ways: the
# rank sum wins order 2 in 6 directions at 8960-17920 entries (54 against
# 40 at 8960), bincount wins order 4 in 4 directions, capped, at
# 21632-23040 (109 against 144 at 23040), so no other constant does better.
_RANK_SUM_MIN = 20480

# Batch entries from which a product takes the full table whatever its
# operands' degrees.  The stacks the package builds (verify's chunks of 64
# samples, the scans' stacks of at most geometry.SCAN_ROWS = 4096) take
# degree-bounded tables; the halves of sphere passes, 8192 nodes and up,
# do not.  On sphere passes the bounded tables moved no quadrature wall
# time measurably, and their temporaries of other sizes moved the malloc
# layout that the first pass settles: a fresh process then re-faulted pages
# on later passes (a median of 1 page a call, or 193 pages in one call, in
# 6 of 40 runs of the page-reuse test's script; 0 of 30 with full tables
# there).  Bounded tables are cut from the full one (`_mul_table`): built
# pair by pair they made the second closed-one-form residual of that script
# fault 193 pages in 5 of 80 runs.
_BOUNDED_BATCH = 8192


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


def _cap(cap, order):
    """`cap` as a jet of `order` keeps it: None when it drops nothing."""
    return None if cap is None or cap[1] >= order else cap


@lru_cache(maxsize=None)
def _index_table(ndir, order, cap=None):
    """The graded multi-indices of total order <= `order` whose total order
    in the first cap[0] directions is at most cap[1], and their positions."""
    indices = []
    for total in range(order + 1):
        indices.extend(_compositions(total, ndir))
    if cap is not None:
        m, c = cap
        indices = [alpha for alpha in indices if sum(alpha[:m]) <= c]
    position = {alpha: i for i, alpha in enumerate(indices)}
    return tuple(indices), position


@lru_cache(maxsize=None)
def _num_coeffs(ndir, order, cap=None):
    if cap is None:
        return math.comb(ndir + order, order)
    return len(_index_table(ndir, order, cap)[0])


@lru_cache(maxsize=None)
def _mul_table(ndir, order, cap=None, low=None, caps=None, bound=None):
    """The product table (ia, ib, ic, starts): one term a[ia] * b[ib] per
    pair of multi-indices whose orders sum to at most `order`, landing on
    output index ic within `cap`.  Terms are stably sorted by ic, so the
    terms of output index k are starts[k]:starts[k + 1], in the order they
    were listed.  With `low`, a's multi-indices stop at order `low`, and
    with `bound`, b's stop at order `bound`: the table keeps the full
    table's terms within them, in its order, and output indices above
    their sum have no terms.  With `caps` = (cap_a, cap_b), each no
    tighter than `cap`, ia and ib are positions among the coefficients of
    operands capped at those."""
    indices, position = _index_table(ndir, order, cap)
    # the graded order makes the multi-indices of order <= d a prefix
    fits = [_num_coeffs(ndir, d, cap) for d in range(order + 1)]
    if low is not None or bound is not None or caps is not None:
        ia, ib, ic, _ = _mul_table(ndir, order, cap)
        keep = ((ia < fits[order if low is None else low])
                & (ib < fits[order if bound is None else bound]))
        ia, ib, ic = ia[keep], ib[keep], ic[keep]
        if caps is not None:
            ia = _restriction(ndir, order, caps[0], cap)[ia]
            ib = _restriction(ndir, order, caps[1], cap)[ib]
        return ia, ib, ic, np.searchsorted(ic, np.arange(len(indices)))
    m, c = cap or (0, 0)
    ia, ib, ic = [], [], []
    for i, a in enumerate(indices):
        da, ma = sum(a), sum(a[:m])
        for j, b in enumerate(indices[:fits[order - da]]):
            if ma + sum(b[:m]) > c:
                continue
            ia.append(i)
            ib.append(j)
            ic.append(position[tuple(x + y for x, y in zip(a, b))])
    perm = np.argsort(ic, kind="stable")
    ia, ib = np.asarray(ia, dtype=np.intp)[perm], np.asarray(ib, dtype=np.intp)[perm]
    ic = np.asarray(ic, dtype=np.intp)[perm]
    return ia, ib, ic, np.searchsorted(ic, np.arange(len(indices)))


@lru_cache(maxsize=None)
def _rank_table(ndir, order, cap=None, low=None, bound=None):
    """The product table by rank: (ranks, inverse).  Output indices are
    ordered by their number of terms, most first, so those with more than
    r terms are the first m_r; ranks[r] = (m_r, ia_r, ib_r) lists their
    r-th terms, in table order.  `inverse` restores graded order for the
    output indices that have terms: all of them, or with `low` and `bound`
    those up to order low + bound, a prefix."""
    ia, ib, _, starts = _mul_table(ndir, order, cap, low, None, bound)
    lengths = np.diff(starts, append=len(ia))
    perm = np.argsort(-lengths, kind="stable")
    ranks = []
    for r in range(lengths.max()):
        m = int(np.count_nonzero(lengths > r))
        at = starts[perm[:m]] + r
        ranks.append((m, ia[at], ib[at]))
    return tuple(ranks), np.argsort(perm)[:ranks[0][0]]


@lru_cache(maxsize=None)
def _partials_table(ndir, order, cap, directions):
    """Gather indices and factors (src, fac), each (coefficients, directions),
    mapping an order-p jet to the (p-1)-jet of its partial along each seeded
    direction in `directions`, and that jet's cap: one lower in the capped
    directions if any of `directions` is one of them, since the partial's
    coefficients of the cap's own order there would need coefficients the
    jet does not keep."""
    low_cap = cap
    if cap is not None and any(d < cap[0] for d in directions):
        if cap[1] == 0:
            raise OutOfOrderError(
                f"a jet capped at order 0 in its first {cap[0]} directions has no "
                f"partial along them")
        low_cap = (cap[0], cap[1] - 1)
    low_cap = _cap(low_cap, order - 1)
    low, _ = _index_table(ndir, order - 1, low_cap)
    _, position = _index_table(ndir, order, cap)
    src = np.empty((len(low), len(directions)), dtype=np.intp)
    fac = np.empty(src.shape)
    for i, beta in enumerate(low):
        for m, d in enumerate(directions):
            lifted = list(beta)
            lifted[d] += 1
            src[i, m] = position[tuple(lifted)]
            fac[i, m] = beta[d] + 1
    return src, fac, low_cap


@lru_cache(maxsize=None)
def _restriction(ndir, order, cap, to):
    """Positions, among the coefficients of a jet capped at `cap`, of those
    it keeps when capped at the tighter `to`."""
    _, position = _index_table(ndir, order, cap)
    return np.array([position[alpha] for alpha in _index_table(ndir, order, to)[0]],
                    dtype=np.intp)


def _tighter(cap, other):
    """The tighter of two caps over one jet's directions."""
    if cap is None or other is None:
        return other if cap is None else cap
    if cap[0] != other[0]:
        raise ValueError("jets capped over different direction sets")
    return min(cap, other)


def _pad(coeffs, ndim):
    """`coeffs` with unit batch axes after the coefficient axis, up to
    `ndim` axes, so numpy broadcasts its batch axes against the trailing
    axes of another operand."""
    missing = ndim - coeffs.ndim
    if missing <= 0:
        return coeffs
    return coeffs.reshape(coeffs.shape[:1] + (1,) * missing + coeffs.shape[1:])


def _product(ca, cb, ndir, order, cap=None, low=None, bound=None):
    """Coefficients of the product of two jets of `order` and `cap` over
    `ndir` directions, from coefficient arrays of one number of axes (see
    the module docstring); with `low`, only `ca`'s coefficients up to order
    `low` are read (it may stop there), and with `bound`, only `cb`'s up to
    order `bound`."""
    ia, ib, ic, starts = _mul_table(ndir, order, cap, low, None, bound)
    if ca.ndim == 1:
        return np.bincount(ic, weights=ca[ia] * cb[ib], minlength=len(starts))
    # each operand is gathered before the multiply broadcasts it, so a
    # smaller operand is never copied out to the common shape
    if len(ia) * math.prod(map(max, ca.shape[1:], cb.shape[1:])) >= _RANK_SUM_MIN:
        ranks, inverse = _rank_table(ndir, order, cap, low, bound)
        (_, ia, ib), *later = ranks
        acc = ca[ia] * cb[ib]
        acc += 0.0  # bincount sums from +0.0, so a lone -0.0 term gives +0.0
        for m, ia, ib in later:
            acc[:m] += ca[ia] * cb[ib]
        if len(inverse) == len(starts):
            return acc[inverse]
        # a bounded table's output indices past the sum of the degrees have
        # no terms, and they are the last in graded order: each is +0.0
        out = np.empty((len(starts),) + acc.shape[1:])
        np.take(acc, inverse, axis=0, out=out[:len(inverse)])
        out[len(inverse):] = 0.0
        return out
    terms = ca[ia] * cb[ib]
    batch = terms.shape[1:]
    size = math.prod(batch)
    # output index ic * size + batch position: each output entry sums
    # its terms in table order, as the unbatched bincount does
    index = (ic[:, None] * size + np.arange(size)).ravel()
    out = np.bincount(index, weights=terms.ravel(), minlength=len(starts) * size)
    return out.reshape((len(starts),) + batch)


def _bounds(da, db, ca, cb, order):
    """(low, bound) for the product at `order` of jets of degrees `da` and
    `db`, from their aligned coefficients `ca` and `cb`: each degree where
    it is below the order, else None.  Only batched operands of fewer than
    _BOUNDED_BATCH entries whose every coefficient is finite take a bounded
    table (see the module docstring); the others take the full table."""
    low = da if da < order else None
    bound = db if db < order else None
    if ((low is None and bound is None) or ca.ndim == 1
            or max(ca.size // len(ca), cb.size // len(cb)) >= _BOUNDED_BATCH):
        return None, None
    if not math.isfinite(ca.sum() + cb.sum()):
        return None, None
    return low, bound


def _finite(h, series):
    """Whether every coefficient of `h` and every term of `series` is
    finite: a sum is finite only if its terms are (or it overflows)."""
    total = h.sum() + sum(series)
    return math.isfinite(total.sum() if isinstance(total, np.ndarray) else total)


class Jet:
    """Truncated Taylor value over `ndir` seeded directions.

    coeffs[k] is the Taylor coefficient (mixed partial divided by the
    factorials of the multi-index) for the k-th graded multi-index that the
    jet keeps: all of them up to `order`, or with `cap` = (m, c) only those
    of total order at most c in the first m directions.  A cap that would
    keep them all (c >= order) is None.
    """

    __slots__ = ("coeffs", "ndir", "order", "cap")
    __array_ufunc__ = None  # force numpy to defer to reflected operators
    #: the degree where it is below the order, else None (see `degree`)
    _degree = None

    def __init__(self, coeffs, ndir, order, cap=None):
        self.coeffs = coeffs
        self.ndir = ndir
        self.order = order
        self.cap = cap

    @property
    def degree(self):
        """The highest total order at which a coefficient can be nonzero:
        every coefficient above it is +-0.0, or the jet holds an inf or NaN
        coefficient (see the module docstring).  A Jet built from its
        coefficients has its order; a degree below it is the class
        attribute of a subclass (`_jet`)."""
        return self.order if self._degree is None else self._degree

    @classmethod
    def constant(cls, value, ndir, order, cap=None):
        value = np.asarray(value, dtype=np.float64)
        cap = _cap(cap, order)
        coeffs = np.zeros((_num_coeffs(ndir, order, cap),) + value.shape)
        coeffs[0] = value
        return _jet(coeffs, ndir, order, cap, 0 if value.ndim else None)

    @property
    def value(self):
        return self.coeffs[0]

    @property
    def batch_shape(self):
        return self.coeffs.shape[1:]

    def truncated(self, order):
        if order >= self.order:
            return self
        cap = _cap(self.cap, order)
        return _jet(self.coeffs[: _num_coeffs(self.ndir, order, cap)], self.ndir, order, cap,
                    self._degree)

    def _aligned(self, other):
        """(a, b, order, cap): the coefficients of this jet and of `other`
        at their common order and the tighter of their caps, as arrays of
        one number of axes.  Two jets of one order, cap and number of axes
        give their arrays as they are."""
        ca, cb, order, cap = self.coeffs, other.coeffs, self.order, self.cap
        if other.order != order or other.cap != cap or other.ndir != self.ndir:
            if other.ndir != self.ndir:
                raise ValueError("jets seeded over different direction sets")
            order = min(order, other.order)
            a, b = self.truncated(order), other.truncated(order)
            cap = _tighter(a.cap, b.cap)
            ca, cb = (j.coeffs if j.cap == cap
                      else j.coeffs[_restriction(j.ndir, order, j.cap, cap)] for j in (a, b))
        if ca.ndim != cb.ndim:
            nd = max(ca.ndim, cb.ndim)
            ca, cb = _pad(ca, nd), _pad(cb, nd)
        return ca, cb, order, cap

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            ca, cb, order, cap = self._aligned(other)
            if self._degree is None or other._degree is None:
                return Jet(ca + cb, self.ndir, order, cap)
            return _jet(ca + cb, self.ndir, order, cap, max(self._degree, other._degree))
        out = self.coeffs
        if not isinstance(other, float):
            other = np.asarray(other, dtype=np.float64)
            if other.ndim and other.shape != out.shape[1:]:
                out = np.broadcast_arrays(_pad(out, other.ndim + 1), other)[0]
        out = out.copy()
        out[0] += other
        return type(self)(out, self.ndir, self.order, self.cap)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self.coeffs, self.ndir, self.order, self.cap)

    def __sub__(self, other):
        if isinstance(other, Jet):
            ca, cb, order, cap = self._aligned(other)
            if self._degree is None or other._degree is None:
                return Jet(ca - cb, self.ndir, order, cap)
            return _jet(ca - cb, self.ndir, order, cap, max(self._degree, other._degree))
        return self + (-other if isinstance(other, float) else -np.asarray(other))

    def __rsub__(self, other):
        if isinstance(other, float):
            out = -self.coeffs
            out[0] += other
            return type(self)(out, self.ndir, self.order, self.cap)
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            ca, cb, order, cap = self._aligned(other)
            da, db = self._degree, other._degree
            if da is None and db is None:
                return Jet(_product(ca, cb, self.ndir, order, cap), self.ndir, order, cap)
            da, db = order if da is None else da, order if db is None else db
            coeffs = _product(ca, cb, self.ndir, order, cap, *_bounds(da, db, ca, cb, order))
            return _jet(coeffs, self.ndir, order, cap, da + db)
        if isinstance(other, float):
            return type(self)(self.coeffs * other, self.ndir, self.order, self.cap)
        other = np.asarray(other, dtype=np.float64)
        return type(self)(_pad(self.coeffs, other.ndim + 1) * other, self.ndir, self.order,
                          self.cap)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        if isinstance(other, float):
            return type(self)(self.coeffs / other, self.ndir, self.order, self.cap)
        other = np.asarray(other, dtype=np.float64)
        return type(self)(_pad(self.coeffs, other.ndim + 1) / other, self.ndir, self.order,
                          self.cap)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, exponent):
        if isinstance(exponent, (int, np.integer)):
            if exponent < 0:
                return (self ** (-exponent))._reciprocal()
            result = Jet.constant(np.ones(self.batch_shape), self.ndir, self.order, self.cap)
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
        c_0 + h (c_1 + h (... + h c_n)), on coefficient arrays: the
        innermost step scales h instead of multiplying it by a constant
        jet, and each c_k is added into the value part in place.  At order
        0, h is zero and this reduces to c_0.

        At MAX_ORDER, and at order 3 with batch axes, with every
        coefficient and series term finite, the j-th product of the sweep
        runs at order j + 1 with its left operand at order j (see the
        module docstring)."""
        ndir, order, cap = self.ndir, self.order, self.cap
        h = self.coeffs.copy()
        h[0] = 0.0
        if (order == MAX_ORDER or order == 3 and h.ndim > 1) and _finite(h, series):
            r = h[:_num_coeffs(ndir, 1, _cap(cap, 1))] * series[-1]
            for top in range(2, order + 1):
                r[0] += series[order + 1 - top]
                r = _product(r, h, ndir, top, _cap(cap, top), top - 1)
        else:
            r = h * series[-1]
            for k in range(len(series) - 2, 0, -1):
                r[0] += series[k]
                r = _product(r, h, ndir, order, cap)
        r[0] += series[0]
        return Jet(r, ndir, order, cap)

    def _reciprocal(self):
        v = self.value
        series = [1.0 / v]
        for _ in range(self.order):
            series.append(-series[-1] / v)
        return self._compose(series)

    def __repr__(self):
        return (f"Jet(order={self.order}, ndir={self.ndir}, "
                f"value={self.value!r})")


#: _DEGREES[d] is the Jet subclass of degree d.  It adds no slot: a fifth
#: slot would take every jet from 64 to 72 bytes and so into another
#: size class of Python's small-object allocator.
_DEGREES = tuple(type(f"_Degree{d}", (Jet,), {"__slots__": (), "_degree": d})
                 for d in range(MAX_ORDER))


def _jet(coeffs, ndir, order, cap, degree):
    """A jet of `order` and `cap` whose coefficients above total order
    `degree` are +-0.0 (see Jet.degree): a Jet for None or from the order
    up."""
    if degree is None or degree >= order:
        return Jet(coeffs, ndir, order, cap)
    return _DEGREES[degree](coeffs, ndir, order, cap)

# -- seeding and extraction ----------------------------------------------

def seed(point, directions, order, cap=None):
    """Seed jet coordinates at `point` along `directions`.

    Returns one jet per coordinate of `point`, that is per entry along its
    first axis; any further axes of `point` become batch axes of every
    jet, so a (n, K) point seeds K points at once.  With no directions (or
    order zero) returns plain values, so downstream formulas reduce to
    ordinary arithmetic.  With `cap` = (m, c), c >= 1, the jets keep only
    the coefficients of total order at most c in the first m directions
    (see Jet); None keeps them all.
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
    if cap is not None:
        try:
            first, top = map(operator.index, cap)
        except (TypeError, ValueError):
            first = top = -1
        if not (0 <= first <= m and top >= 1):
            raise ValueError(f"cap {cap!r} is not (m, c) with 0 <= m <= {m} and c >= 1")
        cap = _cap((first, top), order)
    batch = point.shape[1:]
    coeffs = np.zeros((len(point), _num_coeffs(m, order, cap)) + batch)
    coeffs[:, 0] = point
    slopes = np.asarray(directions, dtype=np.float64).T
    # the graded order puts the first partials e_0 ... e_{m-1} at positions 1 ... m
    coeffs[:, 1:m + 1] = slopes.reshape(slopes.shape + (1,) * len(batch))
    # an unbatched jet never takes a bounded table, so it keeps its order
    degree = 1 if batch else None
    return [_jet(c, m, order, cap, degree) for c in coeffs]


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
    _, position = _index_table(jet.ndir, jet.order, jet.cap)
    if multi_index not in position:
        raise OutOfOrderError(
            f"multi-index {multi_index} exceeds the jet's cap of order {jet.cap[1]} "
            f"in its first {jet.cap[0]} directions")
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
    return type(d)(d.coeffs[..., 0], d.ndir, d.order, d.cap)


def jwhere(mask, a, b):
    """`np.where` for two jets: `mask` (over the batch axes) picks a's or b's
    coefficients, node by node."""
    ca, cb, order, cap = a._aligned(b)
    return _jet(np.where(mask, ca, cb), a.ndir, order, cap, max(a.degree, b.degree))


def value(x):
    """Scalar (value) part of a jet, or the input itself for plain numbers."""
    return x.value if isinstance(x, Jet) else x


# -- jet-valued tensors -------------------------------------------------------
#
# A tensor of jets is one Jet whose batch axes are the tensor indices.

def partials(jet, directions):
    """Partials along the seeded coordinate axes `directions`, stacked along
    a new trailing batch axis, in one gather.  The partials of a capped jet
    along any of its capped directions are capped one order lower there."""
    if jet.order < 1:
        raise OutOfOrderError("cannot differentiate an order-0 jet")
    src, fac, cap = _partials_table(jet.ndir, jet.order, jet.cap, tuple(directions))
    batch = jet.coeffs.ndim - 1
    degree = None if jet._degree is None else max(jet._degree - 1, 0)
    if not batch:
        return _jet(jet.coeffs[src] * fac, jet.ndir, jet.order - 1, cap, degree)
    coeffs = jet.coeffs[src] * fac.reshape(fac.shape + (1,) * batch)
    axes = (0,) + tuple(range(2, coeffs.ndim)) + (1,)
    return _jet(coeffs.transpose(axes), jet.ndir, jet.order - 1, cap, degree)


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
    spec, tails = _contraction(subscripts)
    if b.ndir != a.ndir:
        raise ValueError("jets seeded over different direction sets")
    # the table gathers each operand's terms from its own coefficients, so
    # neither is truncated or recapped first
    order = min(a.order, b.order)
    cap_a, cap_b = _cap(a.cap, order), _cap(b.cap, order)
    cap = _tighter(cap_a, cap_b)
    caps = None if cap_a == cap_b else (cap_a, cap_b)
    ia, ib, _, starts = _mul_table(a.ndir, order, cap, None, caps)
    gathered = [a.coeffs[ia], b.coeffs[ib]]
    for k, tail in enumerate(tails):
        count = gathered[k].ndim - 1 - tail if tail is not None else 0
        if count:
            gathered[k] = outermost(gathered[k], 1, count)
    terms = np.einsum(spec, *gathered)
    return _jet(np.add.reduceat(terms, starts, axis=0), a.ndir, order, cap,
                a.degree + b.degree)


@lru_cache(maxsize=None)
def _contraction(subscripts):
    """`contract`'s einsum subscripts over a leading term axis Z, and for
    each operand the number of tensor axes after its ellipsis (None without
    one)."""
    operands, out = subscripts.split("->")
    tails = tuple(len(sub) - 3 if "..." in sub else None for sub in operands.split(","))
    return f"Z{operands.replace(',', ',Z')}->Z{out}", tails


# -- lifted smooth primitives ----------------------------------------------

def _power(x, exponent, first):
    """The jet of x ** exponent whose value is `first`: np.sqrt and np.power
    need not round that value alike, so each caller gives its own."""
    v = x.value
    series = [first]
    for k in range(1, x.order + 1):
        series.append(series[-1] * (exponent - (k - 1)) / (k * v))
    return x._compose(series)


def jsqrt(x):
    if not isinstance(x, Jet):
        return np.sqrt(x)
    return _power(x, 0.5, np.sqrt(x.value))


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
    return _power(x, exponent, np.power(x.value, exponent))
