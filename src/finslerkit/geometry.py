"""Pointwise Finsler geometry derived from a metric field.

Everything here is a pure function of (metric, sample).  `local_geometry`
evaluates the squared metric once per tangent sample, as a jet, and every
tensor at that sample is read off that one jet by shifting coefficients:
the fundamental tensor g and its inverse, the spray G, the nonlinear
connection N^i_j = dG^i/dy^j, the y-Hessian of G, the Riemann operator R,
and the mean Cartan and Landsberg torsions I and J.  Five views return
that bundle, a LocalGeometry: fundamental_tensor (built for need "g"),
spray ("N"), riemann ("R"), mean_cartan ("I") and mean_landsberg ("R");
the other public functions below are thin views on it.

`need` names the most demanding quantity a caller will read; it fixes the
seeding and the jet order of F^2:

    need   seeded directions        order   readable
    "g"    n tangent                2       F, g, g^-1
    "I"    n tangent                3       ... and I
    "G"    2n chart and tangent     2       F, g, g^-1, G
    "N"    2n chart and tangent     3       ... and N, G_x, I
    "R"    2n chart and tangent     4       ... and the y-Hessian of G, R, J

A jet seeded in the chart directions keeps F^2 only up to order 2 in
them (_CHART_ORDER; a capped jet, see the jets module): G and N need
order 1 there, G_x, G_xy and R need 2, and J needs 1 (through the
x-gradient of I), so the coefficients past it would feed no quantity.
Each partial along the chart directions lowers that cap by one, and
extract on f2 above it raises OutOfOrderError.

Quantities that differentiate in y only are seeded in the tangent
directions, which costs about half as much as seeding the whole phase
space.  Each quantity is computed on first read, so a caller pays only for
what it uses.

A sample is one tangent vector, x and y of shape (n,), or a stack of K
of them, x and y of shape (K, n).  The sample axis leads and tensor
indices trail, so g has shape (n, n) for one sample and (K, n, n) for a
stack, whose F^2 jet carries the sample axis as a batch axis: one jet
evaluation serves all K samples.  One sample stays unbatched, never a
stack of one, since an unbatched jet product is the cheaper one.  Each
sample of a stack gets bit for bit the values it gets alone: jet products
sum in one order however they are batched, and the arrays passed to
numpy's einsum and matmul keep each sample laid out as it is alone
(`jets.outermost`), because numpy picks its summation kernels by memory
layout.  The public functions below whose results are arrays
(fundamental_tensor, spray, riemann, flag_curvature, mean_cartan,
mean_landsberg, distortion) accept stacks too, and cartan_norm's coarse
scan and each step of its ascent are one stack of directions each;
s_curvature takes one sample and volume_density one point.  A stack has
one sample axis: x and y of shape (K1, K2, n) are refused.

A bundle passes one gate when it is built: for every sample the point
lies in the chart, y is finite and not zero, F > 0 and g has a Cholesky
factor, or DomainError or DegenerateMetricError.  A stack that fails is
checked again sample by sample, so it raises exactly the error its first
failing sample raises alone.  Jet-valued g^-1 (applied to the right-hand
sides of G and I) comes from that factor by a finite Neumann series: with
g = g0 + dg and dg free of a value part, dg^k vanishes past the jet
order, so g^-1 = sum_{k <= order} (-g0^-1 dg)^k g0^-1 exactly; g0^-1 is
applied through the Cholesky factor of each sample, never formed.  A stack
is factored by one batched np.linalg.cholesky call and one sample by
LAPACK's dpotrf directly, which skips numpy's Python-level checks and gives
the same bits; scipy's LAPACK extension, which supplies dpotrf and the
solve dpotrs, is loaded the first time a bundle factors g, without the
scipy.linalg package.  The only
covariant machinery materialized is the nonlinear connection; contracted
with the geodesic velocity it agrees with the connections the covariant
formulas need, so Christoffel symbols never appear.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .domains import Domain
from .errors import (DegenerateFlagError, DegenerateMetricError, DomainError,
                     FinslerError, InvalidParameterError, OutOfOrderError, _flag,
                     _integer, _vector)
from .jets import Jet, contract, hessian, outermost, partials, seed, value
from .quadrature import ball_volume, on_sphere

#: Normalized Gram-determinant threshold below which a flag is degenerate.
FLAG_DEGENERACY_EPS = 1e-10

#: scipy's LAPACK Cholesky factor and solve, bound by _load_lapack.
dpotrf = dpotrs = None
_lapack_lock = threading.Lock()
#: The extension module that scipy.linalg.lapack takes them from.
_FLAPACK = "scipy.linalg._flapack"


def _flapack_spec():
    """The spec of scipy's LAPACK extension, found without importing scipy,
    or None."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    return importlib.machinery.PathFinder.find_spec(
        _FLAPACK, [os.path.join(path, "linalg") for path in scipy.submodule_search_locations])


def _flapack():
    """scipy's LAPACK extension, loaded from its file and registered under
    its own name, so a later `import scipy.linalg` reuses it; or
    scipy.linalg.lapack when the file is not found or does not load."""
    spec = _flapack_spec()
    if spec is not None:
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            pass
        else:
            sys.modules[_FLAPACK] = module
            return module
    from scipy.linalg import lapack

    return lapack


def _load_lapack():
    """Bind dpotrf and dpotrs the first time a bundle factors g, from
    scipy's LAPACK extension alone: importing the scipy.linalg package
    costs about a quarter of a second that a process without a flow need
    not pay.  One thread loads and binds under the lock while the others
    wait for it; dpotrs is bound last, so once it is set, both are."""
    global dpotrf, dpotrs
    if dpotrs is None:
        with _lapack_lock:
            if dpotrs is None:
                lapack = sys.modules.get(_FLAPACK) or _flapack()
                dpotrf, dpotrs = lapack.dpotrf, lapack.dpotrs


@dataclass(frozen=True)
class MetricField:
    """A Finsler metric F(x, y) on a coordinate chart.

    `evaluate` must accept plain floats, numpy arrays (batched directions)
    and jets for the components of x and y, and be positively 1-homogeneous
    in y.  All geometry is derived from this single callable.
    """

    dimension: int
    domain: Domain
    evaluate: callable
    name: str = "metric"
    spec: object = None
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TangentSample:
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in ("x", "y"):
            v = getattr(self, name)
            if _has_bool(v):  # on a float array, one dtype check
                raise InvalidParameterError(
                    f"a tangent sample needs numbers, not bools: {name} = {v!r}")
            try:
                v = np.asarray(v, dtype=float)
            except (TypeError, ValueError):
                raise InvalidParameterError(
                    f"a tangent sample needs numbers: {name} = {v!r}") from None
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class CartanNormResult:
    value: float
    direction: np.ndarray


# -- the local-geometry bundle ----------------------------------------------

def _check_domain(metric, x):
    if not metric.domain.contains(x):
        raise DomainError(f"point {np.asarray(x)} outside chart domain of {metric.name}")


def _coordinates(v):
    """The coordinates of one sample as floats, or of a (K, n) stack as
    arrays over the samples."""
    return [float(c) for c in v] if v.ndim == 1 else list(v.T)


def _y_jets(metric, x, y, order):
    """F, F^2 and the tangent coordinates as jets seeded in the n tangent
    coordinate directions."""
    n = metric.dimension
    yj = seed(y.T, np.eye(n), order)
    f = metric.evaluate(_coordinates(x), yj)
    return f, f * f, yj


# Order in the chart directions up to which a phase jet keeps F^2.
_CHART_ORDER = 2


def _phase_jets(metric, x, y, order):
    """F, F^2 and the tangent coordinates as jets seeded in the 2n chart and
    tangent coordinate directions, chart directions first, capped at
    _CHART_ORDER in the chart directions (see the module docstring)."""
    n = metric.dimension
    js = seed(np.concatenate([x, y], axis=-1).T, np.eye(2 * n), order, (n, _CHART_ORDER))
    f = metric.evaluate(js[:n], js[n:])
    return f, f * f, js[n:]


#: need -> (seeded in the chart directions too, jet order of F^2)
_NEEDS = {"g": (False, 2), "I": (False, 3), "G": (True, 2), "N": (True, 3),
         "R": (True, 4)}


def local_geometry(metric, at, need):
    """The LocalGeometry of `metric` at `at`, one sample or a (K, n) stack,
    able to give every quantity up to `need` (see the module docstring).
    A `need` not in that table, or an x and y of different shapes, of more
    than one sample axis, of no sample, or whose last axis is not n, raise
    InvalidParameterError."""
    if need not in _NEEDS:
        raise InvalidParameterError(f"need {need!r} is not one of {list(_NEEDS)}")
    if (at.x.shape != at.y.shape or at.x.ndim not in (1, 2) or not at.x.size
            or at.x.shape[-1] != metric.dimension):
        raise InvalidParameterError(
            f"a tangent sample needs x and y of one shape (n,) or (K, n) with "
            f"n = {metric.dimension} and K >= 1, not {at.x.shape} and {at.y.shape}")
    try:
        return _gated(metric, at, need)
    except FinslerError:
        if at.x.ndim == 1:
            raise
        # the first failing sample raises its own error
        for x, y in zip(at.x, at.y):
            _gated(metric, TangentSample(x, y), need)
        raise


def _gated(metric, at, need):
    one = at.x.ndim == 1  # one sample: plain scalar tests, no numpy reductions
    points = [at.x]
    if not one:  # a run of equal rows (a scan at one point) once
        points = at.x[np.r_[True, np.any(at.x[1:] != at.x[:-1], axis=1)]]
    for x in points:
        _check_domain(metric, x)
    if not (all(map(math.isfinite, at.y.tolist())) if one else np.isfinite(at.y).all()):
        raise DegenerateMetricError(f"tangent direction y = {at.y} is not finite",
                                    x=at.x, y=at.y)
    if not (any(at.y.tolist()) if one else at.y.any(axis=-1).all()):
        raise DegenerateMetricError(f"tangent direction y = {at.y} is zero",
                                    x=at.x, y=at.y)
    phase, order = _NEEDS[need]
    f, f2, ys = (_phase_jets if phase else _y_jets)(metric, at.x, at.y, order)
    lg = LocalGeometry(at=at, f=f, f2=f2, ys=ys)
    if not (lg.F > 0.0 if one else np.all(lg.F > 0.0)):
        raise DegenerateMetricError(f"F = {np.min(lg.F):.6g} is not positive",
                                    x=at.x, y=at.y)
    lg._cholesky  # raises DegenerateMetricError unless g is positive definite
    return lg


class _cached(cached_property):
    """functools.cached_property without the lock that Python 3.11 takes
    on every first read (Python 3.12 dropped it).  A bundle's quantities
    are pure functions of its jets, so two threads that read one at once
    store the same value."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


def _scalar(v):
    """A float for one sample, the array for a stack."""
    return v if isinstance(v, np.ndarray) and v.ndim else float(v)


def _dot(u, v):
    """Vector dot product over the sample axes."""
    return (u[..., None, :] @ v[..., None])[..., 0, 0]


def _mv(a, v):
    """Matrix times vector over the sample axes."""
    return (a @ v[..., None])[..., 0]


def _vm(v, a):
    """Vector times matrix over the sample axes."""
    return (v[..., None, :] @ a)[..., 0, :]


def _vmv(u, a, v):
    """The bilinear form u^T a v over the sample axes."""
    return ((u[..., None, :] @ a) @ v[..., None])[..., 0, 0]


def _has_bool(v):
    """Whether `v`, a number, an array or nested sequences, holds a bool."""
    if isinstance(v, np.ndarray):
        if v.dtype != object:
            return v.dtype == bool
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return any(map(_has_bool, v))
    return isinstance(v, (bool, np.bool_))


def _like_y(what, v, y):
    """`v` as finite floats of the shape of `y`, or InvalidParameterError;
    a bool is not a number here, as in errors._vector."""
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if (arr is None or arr.shape != y.shape or not np.isfinite(arr).all()
            or _has_bool(v)):
        raise InvalidParameterError(
            f"{what} = {v!r} is not finite numbers of y's shape {y.shape}")
    return arr


def _gnorm(v, a):
    """sqrt(v^T a v) over the sample axes, clipped at 0: a g-norm or g^-1-conorm."""
    return _scalar(np.sqrt(np.maximum(_vmv(v, a, v), 0.0)))


@dataclass(frozen=True)
class LocalGeometry:
    """Tensors at one tangent sample or a stack, all read off one F^2 jet.

    `f` and `f2` are the jets of F and F^2, and `ys` those of the tangent
    coordinates that seeded them.  Jet-valued intermediates
    (underscored) carry the sample axes and then the tensor indices as
    batch axes, derivative indices last: partials(_G, x-directions)[..., i,
    j] = dG^i/dx^j.
    """

    at: TangentSample
    f: Jet
    f2: Jet
    ys: list

    @property
    def n(self):
        return self.at.x.shape[-1]

    @property
    def _samples(self):
        """The sample axes: () for one sample, (K,) for a stack."""
        return self.at.x.shape[:-1]

    @property
    def _y(self):
        """The seeded directions of the tangent coordinates."""
        return range(self.f2.ndir - self.n, self.f2.ndir)

    @_cached
    def F(self):
        return _scalar(value(self.f))

    @_cached
    def _g(self):
        return hessian(self.f2, self._y) * 0.5

    @_cached
    def g(self):
        """g_ij = 1/2 d^2 F^2 / dy^i dy^j."""
        return outermost(self._g.value, 0, len(self._samples))

    @_cached
    def _cholesky(self):
        """The lower Cholesky factor of g (see the module docstring)."""
        _load_lapack()
        if self._samples:
            try:
                return np.linalg.cholesky(self.g)
            except np.linalg.LinAlgError:
                info = 1
        else:
            factor, info = dpotrf(self.g, lower=1, clean=1)
            if info < 0:
                raise ValueError(f"dpotrf: illegal value in argument {-info}")
        if info:
            raise DegenerateMetricError(
                "fundamental tensor not positive definite", x=self.at.x, y=self.at.y)
        return factor

    @_cached
    def g_inverse(self):
        w = np.linalg.solve(self._cholesky, np.eye(self.n))
        return w.swapaxes(-1, -2) @ w

    def _solve(self, b):
        """g^-1 b for a jet b whose first tensor axis is an upper index.

        With g = g0 + dg, this is the Neumann series
        sum_k (-g0^-1 dg)^k g0^-1 b in Horner form: `order` sweeps of
        z <- g0^-1 (b - dg z), each of which fixes one more Taylor degree,
        with g0^-1 applied through the Cholesky factor of each sample.
        """
        factor, n, samples = self._cholesky, self.n, self._samples
        lead = len(samples)
        tail = "abcdef"[:len(b.batch_shape) - lead - 1]

        def sample_solve(chol, coeffs, shape):
            zs, info = dpotrs(chol, coeffs.swapaxes(0, 1).reshape(n, -1), lower=1)
            if info != 0:
                raise ValueError(f"dpotrs: illegal value in argument {-info}")
            return zs.T.reshape(shape)

        def value_solve(jet):
            # each sample's solve keeps the layout LAPACK returns for one
            # sample (upper index fastest), with the samples outermost, so
            # a stacked sample computes exactly as it does alone
            z = np.empty(samples + jet.coeffs.shape[:1] + jet.batch_shape[lead + 1:] + (n,))
            if lead:
                for k in range(samples[0]):
                    z[k] = sample_solve(factor[k], jet.coeffs[:, k], z.shape[1:])
            else:  # one sample: no index loop
                z[...] = sample_solve(factor, jet.coeffs, z.shape)
            # back to (coefficient, samples, upper index, rest)
            axes = (lead, *range(lead), z.ndim - 1, *range(lead + 1, z.ndim - 1))
            return Jet(z.transpose(axes), jet.ndir, jet.order, jet.cap)

        z = value_solve(b)
        sweeps = min(self._g.order, b.order)
        if sweeps:
            dg = self._g - self.g
            for _ in range(sweeps):
                z = value_solve(b - contract(f"...ij,...j{tail}->...i{tail}", dg, z))
        return z

    @_cached
    def _G(self):
        """G^i = 1/4 g^{il} (F^2_{x^k y^l} y^k - F^2_{x^l})."""
        n, f2 = self.n, self.f2
        if f2.ndir == n:
            raise OutOfOrderError("the spray needs a bundle seeded in the chart "
                                  "directions too (need 'G', 'N' or 'R')")
        f2_x = partials(f2, range(n))
        f2_xy = partials(f2_x, self._y)
        y = Jet(np.stack([c.coeffs for c in self.ys], axis=-1), f2.ndir, f2.order, f2.cap)
        rhs = (contract("...k,...kl->...l", y, f2_xy) - f2_x) * 0.25
        return self._solve(rhs)

    @_cached
    def G(self):
        return self._G.value

    @_cached
    def N(self):
        """N^i_j = dG^i/dy^j."""
        return partials(self._G, self._y).value

    @_cached
    def G_yy(self):
        """d^2 G^i / dy^j dy^k, indexed [..., i, j, k]."""
        return hessian(self._G, self._y).value

    @_cached
    def _G_x(self):
        return partials(self._G, range(self.n))

    @_cached
    def G_x(self):
        """dG^i / dx^k, indexed [..., i, k]."""
        return self._G_x.value

    @_cached
    def G_xy(self):
        """d^2 G^i / dx^k dy^j, indexed [..., i, k, j]."""
        return partials(self._G_x, self._y).value

    @_cached
    def R(self):
        """R^i_k = 2 G^i_{x^k} - y^j G^i_{x^j y^k} + 2 G^j G^i_{y^j y^k}
        - N^i_j N^j_k."""
        return (2.0 * self.G_x
                - np.einsum("...j,...ijk->...ik", self.at.y, self.G_xy)
                + 2.0 * np.einsum("...j,...ijk->...ik", self.G, self.G_yy)
                - self.N @ self.N)

    @_cached
    def _I(self):
        g_inv_dg = self._solve(partials(self._g, self._y))  # [..., l, k, i]
        return Jet(0.5 * np.einsum("z...lli->z...i", g_inv_dg.coeffs),
                   g_inv_dg.ndir, g_inv_dg.order, g_inv_dg.cap)

    @_cached
    def I(self):
        """Mean Cartan torsion I_i = 1/2 g^{jk} dg_jk/dy^i (covariant)."""
        return self._I.value

    @_cached
    def J(self):
        """Mean Landsberg torsion J_i = y^m I_i,x^m - 2 G^m I_i,y^m - I_m N^m_i,
        the y-contracted horizontal derivative of I (covariant)."""
        I_x = partials(self._I, range(self.n)).value
        I_y = partials(self._I, self._y).value
        return _mv(I_x, self.at.y) - 2.0 * _mv(I_y, self.G) - _vm(self.I, self.N)

    def inner(self, u, v):
        """g(u, v) = u^i g_ij v^j."""
        y = self.at.y
        return _scalar(_vmv(_like_y("inner: u", u, y), self.g, _like_y("inner: v", v, y)))

    def norm(self, u):
        """g-norm of a vector, sqrt(u^i g_ij u^j)."""
        return _gnorm(_like_y("norm: u", u, self.at.y), self.g)

    def conorm(self, covector):
        """g-norm of a covector, sqrt(c_i g^{ij} c_j)."""
        return _gnorm(_like_y("conorm: covector", covector, self.at.y), self.g_inverse)


# -- operations -------------------------------------------------------------

def fundamental_tensor(metric, at):
    """The need-"g" bundle: g_ij = 1/2 d^2 F^2 / dy^i dy^j, g^-1, inner and norm."""
    return local_geometry(metric, at, "g")


def spray(metric, at):
    """The need-"N" bundle: spray coefficients G^i and N^i_j = dG^i/dy^j."""
    return local_geometry(metric, at, "N")


def riemann(metric, at):
    """The need-"R" bundle: the Riemann operator R^i_k, from the spray term by term."""
    return local_geometry(metric, at, "R")


def flag_curvature(metric, at, u):
    """Flag curvature K(P, y) for the flag P = span{y, u}; a `u` that is
    not finite numbers of the shape of `at.y` raises InvalidParameterError."""
    u = _like_y("flag_curvature: u", u, at.y)
    lg = local_geometry(metric, at, "R")
    g, y = lg.g, at.y
    gyy = _vmv(y, g, y)
    guu = _vmv(u, g, u)
    gyu = _vmv(y, g, u)
    gram = gyy * guu - gyu ** 2
    if np.any(gram <= FLAG_DEGENERACY_EPS * gyy * guu):
        raise DegenerateFlagError("flag pole and transverse vector are parallel")
    return _scalar(_vmv(u, g, _mv(lg.R, u)) / gram)


def volume_density(metric, x, tol=None):
    """Busemann-Hausdorff density: unit-ball volume over the F-ball volume;
    an `x` that is not n finite numbers raises InvalidParameterError."""
    n = metric.dimension
    x = _vector("volume_density: x", x, n)
    _check_domain(metric, x)

    def f_ball(points, weights):
        f = np.asarray(metric.evaluate(x, list(points.T)), dtype=float)
        return float(np.sum(weights * f ** (-n))) / n

    return ball_volume(n) / on_sphere(n, f_ball, tol=tol)


def distortion(metric, at, tol=None):
    """tau = ln( sqrt(det g) / sigma_F ), for one sample or, one value per
    sample, for a (K, n) stack; sigma_F takes one quadrature per point."""
    _, logdet = np.linalg.slogdet(fundamental_tensor(metric, at).g)
    if at.x.ndim == 1:
        return 0.5 * logdet - np.log(volume_density(metric, at.x, tol=tol))
    density = [volume_density(metric, x, tol=tol) for x in at.x]
    return 0.5 * logdet - np.log(density)


def mean_cartan(metric, at):
    """The need-"I" bundle: the mean Cartan torsion I_i = 1/2 g^{jk} dg_jk/dy^i,
    with conorm(I) its g-norm (no quadrature)."""
    return local_geometry(metric, at, "I")


def mean_landsberg(metric, at):
    """The need-"R" bundle: the mean Landsberg torsion J_i, the y-contracted
    horizontal derivative of I_i, with conorm(J) its g-norm."""
    return local_geometry(metric, at, "R")


def _density_slope(metric, x, y, points, weights, jacobian=False):
    """y . v on a sphere rule for one y or a (K, n) stack at x, where
    v = d ln(sigma_F)/dx = Int F_x F^{-(n+1)} dOmega / B and B = (1/n) Int
    F^{-n} dOmega is the F-ball volume.  With `jacobian`, x is seeded at
    order 2 and the slope's x-gradient y . dv comes from the same values
    of F: dv = (Int F_xx F^{-(n+1)} - (n+1) Int F_x F_x^T F^{-(n+2)}) / B
    + v v^T.

    v is integrated once and then contracted with y, so a stack of y costs
    no more node work than one y.  Every sum over the nodes runs on the
    calling thread (numpy's pairwise np.sum, and einsum without `optimize`,
    never BLAS), so the bits do not depend on the BLAS thread count.  The
    caller's `tol`, which on_sphere checks, must be positive and finite."""
    n, order = metric.dimension, 2 if jacobian else 1
    fj = metric.evaluate(seed(x, list(np.eye(n)), order), list(points.T))
    if not isinstance(fj, Jet):  # metric independent of x
        fj = Jet.constant(fj, n, order)
    fvals = fj.value
    grad = fj.coeffs[1:n + 1]  # the degree-1 coefficients: the first partials
    ball = weights * fvals ** (-n)
    denom = float(np.sum(ball)) / n
    w = ball / (denom * fvals)
    v = np.sum(grad * w, axis=-1)
    slope = np.sum(y * v, axis=-1)
    if not jacobian:
        return slope
    hess = hessian(fj, range(n)).value
    dv = (np.einsum("p,pkm->km", w, hess)
          - (n + 1) * np.einsum("kp,mp->km", grad * (w / fvals), grad) + np.outer(v, v))
    return slope, y @ dv


def s_curvature(metric, at, tol=None):
    """S = dG^m/dy^m - y^m d ln(sigma_F)/dx^m, the density term from
    _density_slope: the quadrature integrand differentiated analytically,
    not volume_density by finite differences.  With `tol` set, a quadrature
    error above tol * max(1, |S|) raises QuadratureToleranceError (see
    on_sphere).  S takes one tangent sample: a stack raises
    InvalidParameterError."""
    if at.x.ndim != 1 or at.y.ndim != 1:
        raise InvalidParameterError(
            f"s_curvature takes one tangent sample, x and y of shape (n,), not "
            f"{at.x.shape} and {at.y.shape}")
    trace_n = float(np.trace(local_geometry(metric, at, "N").N))

    def s_value(points, weights):
        return trace_n - _density_slope(metric, at.x, at.y, points, weights)

    return on_sphere(metric.dimension, s_value, tol=tol)


#: Most rows in one bundle of a stacked Cartan-norm scan.
SCAN_ROWS = 4096

#: Step length at which the n >= 3 Cartan-norm ascent stops.
ASCENT_STEP_FLOOR = 1e-7


def cartan_norm(metric, x, coarse=None, refine=True):
    """sup over the indicatrix of ||I||_g, with the maximizing direction.

    Coarse sphere scan, one bundle over all `coarse` directions (up to
    SCAN_ROWS of them), followed by local ascent. ||I||_g is homogeneous
    of degree -1 in y, so each Euclidean unit direction is rescaled to the
    indicatrix (F = 1) before the norm is taken.  `coarse` is a positive
    whole number, or None for 96 directions (n = 2) or 192 (n >= 3);
    anything else raises InvalidParameterError.

    The ascent (`refine=True`) depends on the dimension.  For n = 2 the
    scan is over equally spaced angles and the direction is refined by a
    bounded scalar search over the angle between the best angle's two
    neighbours.  For n >= 3 a compass search (Hooke & Jeeves 1961; Torczon
    1997) climbs on the unit sphere from the best scanned direction d.
    Each step polls normalize(d +- s t_i) for s in {2h, h, h/2} along an
    orthonormal basis t_1 ... t_{n-1} of the tangent space at d (the QR
    factor of [d | I] gives it), all 6(n - 1) directions as one stack, so
    one bundle per step.  If the highest poll is strictly higher than d,
    the search moves there and h becomes its s: the 2h rung lets the step
    grow again along a flat ridge.  Otherwise h shrinks eightfold, to just
    below the rungs already polled.  h starts at the mean scan spacing
    sqrt(4 pi / coarse), and the search stops once h < ASCENT_STEP_FLOOR.
    An `x` that is not n finite numbers, a `refine` that is not a bool, or
    a metric of dimension 1 raises InvalidParameterError.
    """
    x = _vector("cartan_norm: x", x, metric.dimension)
    _check_domain(metric, x)
    coarse = _scan_size(coarse, metric.dimension)
    refine = _flag("cartan_norm: refine", refine)
    return _cartan_norms(metric, x[None], coarse, refine)[0]


def _scan_size(coarse, n):
    """cartan_norm's `coarse`, checked, with None read as its default; a
    1-dimensional metric, whose indicatrix has no tangent direction to
    ascend along, raises InvalidParameterError."""
    if n < 2:
        raise InvalidParameterError(
            f"the Cartan norm needs a metric of dimension n >= 2, not n = {n}")
    if coarse is None:
        return 96 if n == 2 else 192
    return _integer("cartan_norm: coarse", coarse, least=1)


def _norm_at(metric, x, directions):
    """||I||_g F at one direction, or at each row of a (K, n) stack of
    directions; `x` is one point or a (K, n) stack of them."""
    at = TangentSample(np.broadcast_to(x, np.shape(directions)), directions)
    lg = local_geometry(metric, at, "I")
    return lg.conorm(lg.I) * lg.F


def _cartan_norms(metric, points, coarse, refine):
    """cartan_norm at each row of a (P, n) stack of chart points.

    The scans of all points share stacked bundles of at most SCAN_ROWS
    rows, each row bit for bit as alone; each point then ascends alone.
    """
    n = metric.dimension
    if n == 2:
        angles = 2.0 * np.pi * np.arange(coarse) / coarse
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        dirs = np.random.default_rng(12345).standard_normal((coarse, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    xs = np.repeat(points, coarse, axis=0)
    ys = np.tile(dirs, (len(points), 1))
    values = np.concatenate([_norm_at(metric, xs[k:k + SCAN_ROWS], ys[k:k + SCAN_ROWS])
                             for k in range(0, len(xs), SCAN_ROWS)])
    results = []
    for x, scan in zip(points, values.reshape(len(points), coarse)):
        best = int(np.argmax(scan))
        best_dir, best_val = dirs[best], scan[best]
        if refine and n == 2:
            best_dir, best_val = _angle_ascent(metric, x, angles[best], coarse,
                                               best_dir, best_val)
        elif refine:
            best_dir, best_val = _compass_ascent(metric, x, np.sqrt(4.0 * np.pi / coarse),
                                                 best_dir, best_val)
        results.append(CartanNormResult(value=float(best_val), direction=best_dir))
    return results


def _angle_ascent(metric, x, angle, coarse, best_dir, best_val):
    """The n = 2 ascent: a bounded search over the angle within one scan
    spacing of `angle`; the scanned best unless it finds a higher value."""
    from scipy.optimize import minimize_scalar

    def on_circle(angle):
        return np.array([np.cos(angle), np.sin(angle)])

    spacing = 2.0 * np.pi / coarse
    res = minimize_scalar(lambda a: -_norm_at(metric, x, on_circle(a)), method="bounded",
                          bounds=(angle - spacing, angle + spacing),
                          options={"xatol": 1e-10})
    if -res.fun > best_val:
        return on_circle(res.x), -res.fun
    return best_dir, best_val


def _compass_ascent(metric, x, h, best_dir, best_val):
    """The n >= 3 ascent: compass search on the sphere (see cartan_norm)."""
    n = len(best_dir)
    while h >= ASCENT_STEP_FLOOR:
        tangents = np.linalg.qr(np.column_stack([best_dir, np.eye(n)]))[0][:, 1:].T
        steps = (2.0 * h, h, 0.5 * h)
        poll = best_dir + np.concatenate([sign * s * tangents
                                          for s in steps for sign in (1.0, -1.0)])
        poll /= np.linalg.norm(poll, axis=1, keepdims=True)
        values = _norm_at(metric, x, poll)
        k = int(np.argmax(values))
        if values[k] > best_val:
            best_dir, best_val, h = poll[k], values[k], steps[k // (2 * (n - 1))]
        else:
            h *= 0.125
    return best_dir, best_val
