"""Coordinate-chart domains: membership, boundary margin, interior sampling.

`margin` takes one point.  `margins` takes a (K, n) stack of points and
gives each row's margin in one vectorized pass; it may round differently
from `margin` on a row (a norm summed in another order), by a few units in
the last place of the row's scale, so a caller that must decide exactly as
`margin` does rechecks the rows near the boundary with `margin` (see
geometry._gated).  The base class loops over `margin`, so a subclass that
defines only `margin` gets the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Domain:
    """Base chart domain.  `margin` is positive inside, zero on the
    boundary, and `contains` is `margin(x) > 0`: a stack's chart check
    reads `margins` and calls `contains` only on rows near the boundary."""

    def contains(self, x):
        return self.margin(x) > 0.0

    def margin(self, x):
        raise NotImplementedError

    def margins(self, xs):
        """The margin of each row of the (K, n) stack `xs`, as an array."""
        return np.array([self.margin(x) for x in xs], dtype=float)

    def sample_interior(self, rng, margin=0.05):
        raise NotImplementedError


@dataclass(frozen=True)
class Box(Domain):
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))

    def margin(self, x):
        x = np.asarray(x, dtype=float)
        return float(np.min(np.minimum(x - self.lower, self.upper - x)))

    def margins(self, xs):
        return np.min(np.minimum(xs - self.lower, self.upper - xs), axis=-1)

    def sample_interior(self, rng, margin=0.05):
        span = self.upper - self.lower
        lo = self.lower + margin * span
        hi = self.upper - margin * span
        return lo + rng.random(self.lower.size) * (hi - lo)


@dataclass(frozen=True)
class Ball(Domain):
    dimension: int
    radius: float = 1.0

    def margin(self, x):
        return float(self.radius - np.linalg.norm(np.asarray(x, dtype=float)))

    def margins(self, xs):
        return self.radius - np.linalg.norm(xs, axis=-1)

    def sample_interior(self, rng, margin=0.05):
        direction = rng.standard_normal(self.dimension)
        direction /= np.linalg.norm(direction)
        r = self.radius * (1.0 - margin) * rng.random() ** (1.0 / self.dimension)
        return r * direction


@dataclass(frozen=True)
class DiskCylinder(Domain):
    """First two coordinates confined to a disk, remaining ones to a box."""

    dimension: int
    radius: float = 1.0
    extent: float = 1.0  # sampling half-width of the free coordinates

    def margin(self, x):
        x = np.asarray(x, dtype=float)
        return float(self.radius - np.hypot(x[0], x[1]))

    def margins(self, xs):
        return self.radius - np.hypot(xs[:, 0], xs[:, 1])

    def sample_interior(self, rng, margin=0.05):
        theta = 2.0 * np.pi * rng.random()
        r = self.radius * (1.0 - margin) * np.sqrt(rng.random())
        rest = (1.0 - margin) * self.extent * (2.0 * rng.random(self.dimension - 2) - 1.0)
        return np.concatenate([[r * np.cos(theta), r * np.sin(theta)], rest])


@dataclass(frozen=True)
class ProductDomain(Domain):
    """The first n1 coordinates lie in `first`, the rest in `second`."""

    first: Domain
    second: Domain
    n1: int

    def margin(self, x):
        x = np.asarray(x, dtype=float)
        return min(self.first.margin(x[: self.n1]), self.second.margin(x[self.n1:]))

    def margins(self, xs):
        return np.minimum(self.first.margins(xs[:, : self.n1]),
                          self.second.margins(xs[:, self.n1:]))

    def sample_interior(self, rng, margin=0.05):
        return np.concatenate([self.first.sample_interior(rng, margin),
                               self.second.sample_interior(rng, margin)])
