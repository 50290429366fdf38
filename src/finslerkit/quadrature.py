"""Unit-sphere quadrature rules shared by volume and S-curvature code.

There are two constructions.  The circle S^1 takes the periodic trapezoid
rule, spectrally accurate for smooth integrands.  Every higher sphere is
built from the one below it: the S^{n-1} rule has the nodes
(sqrt(1 - t^2) p, t) with weights w_t w_p, where (p, w_p) runs over an
S^{n-2} rule and (t, w_t) over the Gauss rule for the weight
(1 - t^2)^{(n-3)/2} on [-1, 1].  That t rule is Gauss-Legendre on S^2,
and on S^3 and up the Golub-Welsch eigen-solution of the Gegenbauer
Jacobi matrix (Golub & Welsch, "Calculation of Gauss quadrature rules",
Math. Comp. 23, 1969).  So every rule converges spectrally on smooth
integrands.

At level 0 the S^{n-1} rule has m nodes in each of its n - 2 t-factors
and 2m on its circle, 2 m^(n-1) in all: m = 128 on S^2, and on S^3 and up
16, or fewer where the rule would pass 2^16 nodes (so S^16, n = 17, and
up would have one node a factor, and are refused).  Each level halves
every factor, and the gap between the level-0 and level-1 values is the
error estimate `on_sphere` checks; its `tol` must be positive and finite.
Node tables are built once and cached read-only.

The estimates that callers pass to `on_sphere` sum over the nodes with
numpy (pairwise `np.sum`, and `einsum` without `optimize`) on the calling
thread, never with BLAS, so no second BLAS thread spins and the bits do
not depend on the BLAS thread count.  On a rule of at least SPLIT_NODES
nodes they evaluate F on two threads (`on_nodes`): the calling thread
takes the first half of the nodes and one worker thread the second, in a
copy of the caller's context (numpy keeps np.errstate there), and the
halves are joined along the node axis before any sum.  Each node's F
comes out as it does in the whole batch (the jets module's batch
promise), so the bits depend on neither the split nor the thread count.
The worker starts at the first such pass, and a forked child starts its
own.  Below the cut the hand-off costs more than the second core gains
(the timing is at SPLIT_NODES).  A pass is not split either while another
Python thread is alive (`_alone`): the claim threads of `finslerkit suite
--jobs 2` already hold both cores of a 2-core machine, and splitting
beside them made that suite slower in 11 of 12 pairs of runs.  Only the
caller and one worker compute: with two pool workers peak memory rose
8 %, since each thread fills its own glibc malloc arena.

The first rule built also frees one large untouched array, once per
process (`_warm_heap`).  That is for glibc's malloc: freeing a chunk it
had mmapped raises its mmap threshold to the chunk's size and its trim
threshold to twice that, so the node-sized arrays of every later sphere
pass come from the heap and reuse its pages.  Without it, each n = 3 S
maps and page-faults its arrays afresh: 1500 to 2300 minor faults and
8 to 10 ms an S, against none.  Other allocators only pay one allocation.

The worker's malloc arena is its own and starts empty, so the small
blocks a half allocates (numpy's shapes and strides, objects above the
512 bytes Python's small-object allocator keeps) were carved between its
node-sized arrays and pinned them in new places call after call: an n = 3
S in a fresh process faulted 107 pages on its second call, and a
closed-one-form residual 32 to 96 pages on one of its later calls in
about a third of runs.  So the worker's first task frees _SPARE_BLOCKS
small blocks below one it keeps for good (`_warm_worker`); the small
blocks of every later half come from that run, below the arrays.  Then
the worker faults 0 to 1 pages a call after the first, and an n = 3 S
12 pages on its second call, all on the calling thread, and 0 to 1 after.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError, QuadratureToleranceError, _integer, _number

CIRCLE_NODES = 512
GAUSS_NODES = 128
# t-nodes per factor on S^3 and up, and the most nodes of a level-0 rule
HIGHER_GAUSS_NODES = 16
MOST_NODES = 2 ** 16
# bytes of the array _warm_heap frees: after 8 MiB, a closed_one_form
# residual on S^2 (jets of 10 coefficients) still faulted 4300 pages a call
_WARM_BYTES = 16 << 20
# fewest nodes whose pass on_nodes splits.  Median-of-15 times of the
# x-seeded F jet of szabo_epsilon, shifted Funk and the slab at n = 3, split
# over serial, two runs on 2 cores: 8192 nodes 0.92-1.97x at order 1 and
# 0.84-1.13x at order 2; 16384 nodes 0.91-1.10x and 0.56-0.68x; 32768 nodes
# 0.61-1.32x and 0.50-0.67x; the 65536-node n = 6 rule 0.48-0.54x
SPLIT_NODES = 16384
# the executor of the one thread that evaluates the second half of a split
# pass, made by the first split (_worker): made at import, it slowed the
# pointwise benchmark, which never splits, by 2 % in 10 of 10 pairs
_pool = None
_pool_lock = threading.Lock()
# bytearrays whose buffers _warm_worker frees in the worker's arena: with
# 50 or 100 the residual's later calls still faulted a page often enough
# to give a median of 1 in 2 of 12 and 2 of 40 fresh runs; with 150 to 800
# in none of 20, and with 256 in none of 140
_SPARE_BLOCKS = 256
_kept = None


def ball_volume(n):
    """Volume of the Euclidean unit ball in R^n."""
    return math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0))


def sphere_area(n):
    """Surface area of the unit sphere S^{n-1} in R^n."""
    return n * ball_volume(n)


def _t_nodes(n):
    """Nodes in each t-factor of the level-0 S^{n-1} rule; its circle has
    twice as many (for the circle itself, half its nodes)."""
    if n == 2:
        return CIRCLE_NODES // 2
    if n == 3:
        return GAUSS_NODES
    m = HIGHER_GAUSS_NODES
    while 2 * m ** (n - 1) > MOST_NODES:
        m //= 2
    return m


def _gegenbauer_gauss(lam, k):
    """The k-node Gauss rule for the weight (1 - t^2)^(lam - 1/2) on
    [-1, 1]: the eigenvalues of the Jacobi matrix of the monic Gegenbauer
    recurrence, and the total weight times the squared first components
    of their eigenvectors (Golub & Welsch)."""
    j = np.arange(1.0, k)
    off = np.sqrt(j * (j + 2.0 * lam - 1.0) / (4.0 * (j + lam) * (j + lam - 1.0)))
    t, vectors = np.linalg.eigh(np.diag(off, -1))  # eigh reads the lower triangle
    total = math.sqrt(math.pi) * math.exp(math.lgamma(lam + 0.5) - math.lgamma(lam + 1.0))
    return t, total * vectors[0] ** 2


@lru_cache(maxsize=None)
def _warm_heap():
    """Allocate and free one untouched _WARM_BYTES array (see the module
    docstring); glibc-specific, and cached so that it runs once."""
    np.empty(_WARM_BYTES // 8)


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 and True never hit 2 and 1
def sphere_rule(n, level=0):
    """Nodes (K, n) and weights (K,) integrating over S^{n-1}.

    n = 2 is the trapezoid rule of CIRCLE_NODES >> level nodes; n >= 3 the
    product of a Gauss t rule and a coarser S^{n-2} rule (see the module
    docstring).  `level` halves every factor once per unit (used for
    convergence checks); weights always sum to the sphere area.  Returns
    (points, weights), both read-only: the cache hands the same arrays to
    every caller.  An `n` that is not an integer from 2 to 16 (above 16,
    a rule of at most 2^16 nodes has one node a factor and no level 1),
    or a `level` that is not an integer of at least 0 or leaves a factor
    of the rule no node, raises InvalidParameterError.
    """
    n = _integer("sphere quadrature dimension n", n, least=2)
    level = _integer("sphere quadrature level", level, least=0)
    m = _t_nodes(n)
    if m < 2:
        raise InvalidParameterError(f"sphere quadrature dimension n = {n} leaves a rule of at "
                                    f"most {MOST_NODES} nodes one node a factor; the most is 16")
    most = (CIRCLE_NODES if n == 2 else m).bit_length() - 1
    if level > most:
        raise InvalidParameterError(f"sphere quadrature level {level} leaves the S^{n - 1} "
                                    f"rule no node; the most is {most}")
    _warm_heap()
    if n == 2:
        k = CIRCLE_NODES >> level
        theta = 2.0 * np.pi * np.arange(k) / k
        points = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(k, 2.0 * np.pi / k)
    else:
        k = m >> level
        t, wt = (np.polynomial.legendre.leggauss(k) if n == 3
                 else _gegenbauer_gauss(0.5 * (n - 2), k))
        # the S^{n-2} level whose t-factors also have k nodes
        inner, w_inner = sphere_rule(n - 1, level + (_t_nodes(n - 1) // m).bit_length() - 1)
        s = np.sqrt(1.0 - t ** 2)
        points = np.concatenate([(s[:, None, None] * inner).reshape(-1, n - 1),
                                 np.repeat(t, len(w_inner))[:, None]], axis=1)
        weights = np.outer(wt, w_inner).ravel()
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


def _worker():
    """The worker's executor, made by the first split pass, which waits
    for its first task (`_warm_worker`)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="finslerkit-nodes")
            _pool.submit(_warm_worker).result()
        return _pool


def _warm_worker():
    """Free the buffers of _SPARE_BLOCKS bytearrays of 600 bytes, which
    malloc serves from the worker's own arena (Python's small-object
    allocator takes 512 bytes at most), below one kept for good (see the
    module docstring)."""
    global _kept
    spare = [bytearray(600) for _ in range(_SPARE_BLOCKS)]
    _kept = bytearray(600)
    del spare


def _forget_worker():
    """In a forked child, which runs none of its parent's threads: the
    parent's executor would queue the child's halves for a worker that
    never takes them, and its lock may be held."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _alone():
    """Whether the calling thread is the one Python thread besides the
    worker; other threads (the claim threads of `finslerkit suite --jobs
    2`) are taken to be using the second core."""
    return threading.active_count() <= 1 + (_pool is not None)


def on_nodes(evaluate, points):
    """`evaluate(points)`: an array whose last axis runs over the (K, n)
    `points`, each entry a function of its own point only.  For K >=
    SPLIT_NODES, while no other Python thread is alive (`_alone`), the
    calling thread evaluates the first K // 2 points and the worker thread,
    in a copy of the caller's context, the rest, and the two are joined
    along that axis.  If a half raises, the other half is waited for, and
    the first half's error is raised if it has one."""
    if len(points) < SPLIT_NODES or not _alone():
        return evaluate(points)
    half = len(points) // 2
    second = _worker().submit(contextvars.copy_context().run, evaluate, points[half:])
    try:
        first = evaluate(points[:half])
    except BaseException:
        wait((second,))
        raise
    return np.concatenate((first, second.result()), axis=-1)


def on_sphere(n, estimate, tol=None):
    """`estimate(points, weights)` on the S^{n-1} rule.

    With `tol` set, the estimate is repeated on the level-1 rule, and a
    gap above tol * max(1, |value|) raises QuadratureToleranceError
    carrying the value and the gap.  A `tol` that is not a positive finite
    number raises InvalidParameterError.
    """
    if tol is not None:
        tol = _number("quadrature tolerance", tol, above=0.0)
    value = estimate(*sphere_rule(n))
    if tol is not None:
        error = abs(estimate(*sphere_rule(n, level=1)) - value)
        if error > tol * max(1.0, abs(value)):
            raise QuadratureToleranceError(
                f"sphere quadrature error {error:.3e} above tolerance {tol:.3e}",
                estimate=value, error=error)
    return value
