"""Unit-sphere quadrature rules shared by volume and S-curvature code.

Rule selection by dimension: periodic trapezoid on the circle (spectrally
accurate for smooth integrands), Gauss-Legendre x trapezoid product rule
on S^2, and scrambled-Sobol quasi-Monte Carlo for n >= 4.  Every rule has
a half-size level-1 companion, and the gap between the two is the error
estimate `on_sphere` checks; its `tol` must be positive and finite.  Node
tables are built once and cached read-only.

The estimates that callers pass to `on_sphere` sum over the nodes with
numpy (pairwise `np.sum`, and `einsum` without `optimize`) on the calling
thread, never with BLAS, so no second BLAS thread spins and the bits do
not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError, QuadratureToleranceError, _integer, _number

CIRCLE_NODES = 512
GAUSS_NODES = 128
AZIMUTH_NODES = 256
QMC_LOG2_NODES = 16


def ball_volume(n):
    """Volume of the Euclidean unit ball in R^n."""
    return math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0))


def sphere_area(n):
    """Surface area of the unit sphere S^{n-1} in R^n."""
    return n * ball_volume(n)


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 and True never hit 2 and 1
def sphere_rule(n, level=0):
    """Nodes (K, n) and weights (K,) integrating over S^{n-1}.

    `level` halves the node count once per unit (used for convergence
    checks); weights always sum to the sphere area.  Returns
    (points, weights), both read-only: the cache hands the same arrays to
    every caller.  An `n` that is not an integer of at least 2, or a
    `level` that is not an integer of at least 0 or leaves a factor of the
    rule no node, raises InvalidParameterError.
    """
    n = _integer("sphere quadrature dimension n", n, least=2)
    level = _integer("sphere quadrature level", level, least=0)
    fewest = {2: CIRCLE_NODES, 3: min(GAUSS_NODES, AZIMUTH_NODES)}.get(n, 2 ** QMC_LOG2_NODES)
    if fewest >> level == 0:
        raise InvalidParameterError(f"sphere quadrature level {level} leaves the S^{n - 1} "
                                    f"rule no node; the most is {fewest.bit_length() - 1}")
    if n == 2:
        k = CIRCLE_NODES >> level
        theta = 2.0 * np.pi * np.arange(k) / k
        points = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(k, 2.0 * np.pi / k)
    elif n == 3:
        kg = GAUSS_NODES >> level
        ka = AZIMUTH_NODES >> level
        mu, wmu = np.polynomial.legendre.leggauss(kg)
        phi = 2.0 * np.pi * np.arange(ka) / ka
        s = np.sqrt(1.0 - mu ** 2)
        points = np.stack([
            np.outer(s, np.cos(phi)).ravel(),
            np.outer(s, np.sin(phi)).ravel(),
            np.outer(mu, np.ones(ka)).ravel(),
        ], axis=1)
        weights = np.outer(wmu, np.full(ka, 2.0 * np.pi / ka)).ravel()
    else:
        from scipy.stats import norm, qmc  # a slow import that only n >= 4 needs

        sampler = qmc.Sobol(d=n, scramble=True, seed=20240 + n + level)
        u = sampler.random_base2(QMC_LOG2_NODES - level)
        points = norm.ppf(np.clip(u, 1e-12, 1.0 - 1e-12))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        weights = np.full(points.shape[0], sphere_area(n) / points.shape[0])
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


def on_sphere(n, estimate, tol=None):
    """`estimate(points, weights)` on the S^{n-1} rule.

    With `tol` set, the estimate is repeated on the level-1 (half-size)
    rule, and a gap above tol * max(1, |value|) raises
    QuadratureToleranceError carrying the value and the gap.  A `tol`
    that is not a positive finite number raises InvalidParameterError.
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
