"""Pointwise identities that every zoo kind satisfies, for one sample and
for a stack: the y-homogeneity degree of each tensor, I.y = 0, R y = 0,
and the x-derivatives G_x and G_xy against central differences of G and
N in x."""

import numpy as np
import pytest
from conftest import richardson_derivative

from finslerkit import zoo
from finslerkit.geometry import TangentSample, local_geometry

#: tensor -> its degree of positive homogeneity in y
DEGREES = {"G": 2, "N": 1, "G_yy": 0, "R": 2, "I": -1, "J": 0}

SCALE = 1.7


def _samples(metric, stacked):
    rng = np.random.default_rng(31)
    count = 4 if stacked else 1
    x = np.array([metric.domain.sample_interior(rng, margin=0.1) for _ in range(count)])
    y = rng.standard_normal((count, metric.dimension))
    return (x, y) if stacked else (x[0], y[0])


def _close(a, b, rtol):
    return np.max(np.abs(a - b)) <= rtol * max(1.0, np.max(np.abs(b)))


@pytest.fixture(params=zoo.default_specs(), ids=lambda s: s.kind)
def metric(request):
    return zoo.build_metric(request.param)


@pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stacked"])
def test_tensors_have_their_homogeneity_degrees(metric, stacked):
    x, y = _samples(metric, stacked)
    lg = local_geometry(metric, TangentSample(x, y), "R")
    scaled = local_geometry(metric, TangentSample(x, SCALE * y), "R")
    for name, degree in DEGREES.items():
        assert _close(getattr(scaled, name), SCALE ** degree * getattr(lg, name), 1e-10), name


@pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stacked"])
def test_torsion_and_curvature_annihilate_y(metric, stacked):
    x, y = _samples(metric, stacked)
    lg = local_geometry(metric, TangentSample(x, y), "R")
    size = np.linalg.norm(y, axis=-1)
    # I is (-1)-homogeneous, so |I| |y| is the scale-free size of I.y
    assert np.all(np.abs(np.sum(lg.I * y, axis=-1))
                  <= 1e-12 * np.maximum(np.linalg.norm(lg.I, axis=-1) * size, 1.0))
    # R is the sum of terms as large as |N|^2 that cancel to R
    terms = np.linalg.norm(lg.N, axis=(-2, -1)) ** 2
    assert np.all(np.linalg.norm(np.einsum("...ik,...k->...i", lg.R, y), axis=-1)
                  <= 1e-10 * np.maximum(terms, 1.0))


@pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stacked"])
def test_G_xy_is_the_x_derivative_of_N(metric, stacked):
    x, y = _samples(metric, stacked)
    G_xy = local_geometry(metric, TangentSample(x, y), "R").G_xy  # [..., i, k, j]

    def N(p):
        return local_geometry(metric, TangentSample(p, y), "N").N

    for k, e in enumerate(np.eye(metric.dimension)):
        assert _close(G_xy[..., :, k, :], richardson_derivative(N, x, e), 1e-7)


@pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stacked"])
def test_G_x_is_the_x_derivative_of_G(metric, stacked):
    x, y = _samples(metric, stacked)
    G_x = local_geometry(metric, TangentSample(x, y), "N").G_x  # [..., i, k]

    def G(p):
        return local_geometry(metric, TangentSample(p, y), "G").G

    for k, e in enumerate(np.eye(metric.dimension)):
        assert _close(G_x[..., :, k], richardson_derivative(G, x, e), 1e-7)
