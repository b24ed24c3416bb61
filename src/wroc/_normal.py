"""The standard normal CDF ``ndtr`` and quantile ``ndtri`` without scipy.

Both come from the standard library's C code: ``ndtr(x)`` is
``erfc(-x sqrt(1/2)) / 2`` through :func:`math.erfc`, and ``ndtri`` is
:meth:`statistics.NormalDist.inv_cdf`, which implements Wichura's algorithm
AS 241 (Applied Statistics 37:477, 1988).  They agree with
``scipy.special.ndtr`` and ``ndtri`` to within the rounding that the
functions' conditioning allows; ``tests/test_normal.py`` states the bounds.

:func:`ndtr` and :func:`ndtri` behave like the ufuncs on float64 input: a
scalar gives an ``np.float64``, an array gives a float64 array of its shape.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_SQRT1_2 = math.sqrt(0.5)
_INV_CDF = NormalDist().inv_cdf


def _ndtr(x: float) -> float:
    return 0.5 * math.erfc(-x * _SQRT1_2)


def _ndtri(y: float) -> float:
    if 0.0 < y < 1.0:
        return _INV_CDF(y)
    if y == 0.0:
        return -math.inf
    return math.inf if y == 1.0 else math.nan


_NDTR = np.frompyfunc(_ndtr, 1, 1)
_NDTRI = np.frompyfunc(_ndtri, 1, 1)


def _apply(scalar, elementwise, x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return np.float64(scalar(float(x)))
    # the scalar code leaves IEEE flags (comparing a signalling nan) that
    # numpy would report after the loop; scipy's ufuncs report none
    with np.errstate(all="ignore"):
        return elementwise(x).astype(float)


def ndtr(x):
    """Standard normal CDF Φ(x), elementwise on float64 input."""
    return _apply(_ndtr, _NDTR, x)


def ndtri(y):
    """Standard normal quantile Φ⁻¹(y), elementwise on float64 input; nan
    outside [0, 1]."""
    return _apply(_ndtri, _NDTRI, y)
