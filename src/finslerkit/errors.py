"""Exception hierarchy for finslerkit, and the gates (at the end) that
check every entry point's counts, numbers, tolerances, vectors and flags:
this module imports nothing from the package, so every module can use them."""

import math

import numpy as np


class FinslerError(Exception):
    """Base class for all finslerkit errors."""


class UnsupportedOrderError(FinslerError):
    """Jet order outside the supported range {0, 1, 2, 3, 4}."""


class OutOfOrderError(FinslerError):
    """Requested a derivative beyond the truncation order of a jet."""


class DegenerateMetricError(FinslerError):
    """Fundamental tensor failed to be positive definite at a sample."""

    def __init__(self, message, x=None, y=None):
        super().__init__(message)
        self.x = x
        self.y = y


class DegenerateFlagError(FinslerError):
    """Flag pole and transverse vector are (numerically) parallel."""


class QuadratureToleranceError(FinslerError):
    """Sphere quadrature did not reach the requested tolerance."""

    def __init__(self, message, estimate=None, error=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class InvalidParameterError(FinslerError):
    """Metric constructor parameters violate a validity gate."""


class InvalidProfileError(InvalidParameterError):
    """Product-metric profile violates a positivity condition."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class ImplicitSolveError(FinslerError):
    """Newton + bisection failed to solve the implicit metric equation."""


class ResolutionError(FinslerError):
    """Trace grid too coarse for the requested derivative accuracy."""


class DomainError(FinslerError):
    """Point outside the chart domain of a metric."""


def _check_keys(what, data, known, required=()):
    """Refuse a `what` record that is not a mapping, has a key not in
    `known` or a null value, or lacks a `required` key."""
    if not isinstance(data, dict):
        raise InvalidParameterError(f"{what} must be a mapping, not {data!r}")
    unknown = [k for k in data if k not in known]
    if unknown:
        raise InvalidParameterError(f"unknown {what} keys: {unknown}; known: {list(known)}")
    missing = [k for k in required if k not in data]
    if missing:
        raise InvalidParameterError(f"{what} lacks keys: {missing}")
    null = [k for k, v in data.items() if v is None]
    if null:
        raise InvalidParameterError(f"{what} keys {null} are null")


def _integer(what, value, least=None):
    """`value` as an int, of at least `least` if given; a bool, a float or
    any other type raises."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (least is not None and value < least)):
        rule = "an integer" if least is None else f"an integer of at least {least}"
        raise InvalidParameterError(f"{what} must be {rule}, not {value!r}")
    return int(value)


def _flag(what, value):
    """`value`, which must be True or False: a flag read by truthiness would
    take "no", 2 or None for a verdict."""
    if not isinstance(value, bool):
        raise InvalidParameterError(f"{what} must be True or False, not {value!r}")
    return value


def _float(value):
    """`value` as a float, or NaN: numeric strings count, since YAML reads 1e-6
    as one; a bool, which YAML reads from true and false, does not."""
    if isinstance(value, (bool, np.bool_)):
        return math.nan
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _number(what, value, above=None, least=None, below=None):
    """`value` as a finite float (see _float), above `above`, at least
    `least` and below `below` where they are given; `below` comes with one
    of the other two."""
    number = _float(value)
    if (math.isfinite(number) and (above is None or number > above)
            and (least is None or number >= least) and (below is None or number < below)):
        return number
    if below is not None:
        low = f"({above:g}" if above is not None else f"[{least:g}"
        rule = f"in {low}, {below:g})"
    elif above is not None:
        rule = "positive and finite" if above == 0.0 else f"finite and above {above:g}"
    elif least is not None:
        rule = f"finite and at least {least:g}"
    else:
        rule = "a finite number"
    raise InvalidParameterError(f"{what} {value!r} is not {rule}")


def _vector(what, v, dimension, lead=None, unit_ball=False):
    """`v` as `dimension` finite floats (see _float), or one or more when
    `dimension` is None.  A missing `v` (None) raises unless `lead` is
    given: then it is (lead, 0, ..., 0).  With `unit_ball`, |v| < 1 as well."""
    if v is None and lead is not None:
        v = [lead] + [0.0] * (dimension - 1)
    entries = v.tolist() if isinstance(v, np.ndarray) else v
    arr = np.array([_float(c) for c in entries] if isinstance(entries, (list, tuple)) else [])
    if len(arr) == 0 or dimension not in (None, len(arr)) or not np.all(np.isfinite(arr)):
        count = "one or more" if dimension is None else dimension
        raise InvalidParameterError(f"{what} = {v!r} is not {count} finite numbers")
    if unit_ball and np.linalg.norm(arr) >= 1.0:
        raise InvalidParameterError(f"|{what}| = {np.linalg.norm(arr):.3f} must be < 1")
    return arr
