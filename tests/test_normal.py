"""``wroc._normal`` agrees with ``scipy.special`` within a per-point bound.

The standard-library ``ndtr`` and ``ndtri`` are checked over more than a
million points per function, on random bit patterns that reach every
exponent, on hypothesis floats, and on the branch edges of scipy's Cephes
code with their neighbouring doubles, where a difference in branching would
show.  The bound of each function follows from its conditioning (see
:func:`_bound`).  Edge results are exact, and the scalar and array paths
give the same bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from wroc import _normal

SQRT1_2 = math.sqrt(0.5)
MAXLOG = 7.09782712893383996843e2
EXP_M2 = 0.13533528323661269189
TINY = 5e-324
SMALLEST_NORMAL = 2.2250738585072014e-308
EPS = 2.0 ** -52


def _neighbours(points, ulps=4):
    """Each point and the ``ulps`` doubles on either side of it."""
    out = []
    for x in np.asarray(points, dtype=float):
        out.append(x)
        for direction in (-np.inf, np.inf):
            y = x
            for _ in range(ulps):
                y = np.nextafter(y, direction)
                out.append(y)
    return np.array(out)


def _same_bits(got, want):
    """True where the doubles are identical, or both nan."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return (got.view(np.uint64) == want.view(np.uint64)) | (np.isnan(got) & np.isnan(want))


def _assert_same_bits(got, want, points):
    same = _same_bits(got, want)
    assert same.all(), points[~same][:10]


def _bound(name, points, got, want):
    """The largest allowed ``|got - want|`` at each point, ``want`` being
    scipy's finite result.

    ``ndtr``: Φ's relative condition number ``|x φ(x) / Φ(x)|`` grows like
    ``x²`` in the lower tail, and both codes round ``x sqrt(1/2)``, a relative
    change of ε in ``x``.  The factor 4 leaves room for a few ulp of ``erfc``
    on either side, so the bound is ``4 (1 + x²) ε`` relative.  A subnormal
    result has no relative precision, and Cephes flushes Φ(x) to 0 below
    ``x`` of about -37.7, so where either result is subnormal the bound is
    the smallest normal double.

    ``ndtri``: both codes reduce ``y`` exactly (``y - 1/2`` in the centre,
    ``min(y, 1 - y)`` in the tails), so the input carries no rounding, and
    each evaluates a rational approximation within 3 ulp of Φ⁻¹.  The bound
    is ``8 ε`` relative.
    """
    if name == "ndtri":
        return 8.0 * EPS * np.abs(want)
    with np.errstate(over="ignore", invalid="ignore"):  # |x| past 1e154
        relative = 4.0 * (1.0 + points * points) * EPS * np.abs(want)
    subnormal = np.minimum(np.abs(got), np.abs(want)) < SMALLEST_NORMAL
    return np.where(subnormal, SMALLEST_NORMAL, relative)


def _assert_within_bound(name, got, points):
    """The same bits as ``scipy.special`` where its result is not finite,
    within :func:`_bound` of it elsewhere."""
    points = np.atleast_1d(np.asarray(points, dtype=float))
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = getattr(special, name)(points)
    finite = np.isfinite(want)
    _assert_same_bits(got[~finite], want[~finite], points[~finite])
    points, got, want = points[finite], got[finite], want[finite]
    bad = ~(np.abs(got - want) <= _bound(name, points, got, want))
    assert not bad.any(), list(zip(points[bad][:5], got[bad][:5], want[bad][:5]))


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, TINY, -TINY, 1e-310, -1e-310,
           SMALLEST_NORMAL, 1e-300, -1e-300, 0.5, -0.5]

# stress points: where scipy's Cephes code changes branch.
# ndtr(a): |a| sqrt(1/2) = sqrt(1/2) picks erf or erfc, erfc's own branches
# sit at |x| = 1 and 8, and erfc underflows where x * x passes MAXLOG
NDTR_EDGES = _neighbours([1.0, -1.0, math.sqrt(2.0), -math.sqrt(2.0),
                          1.0 / SQRT1_2, -1.0 / SQRT1_2, 8.0 / SQRT1_2, -8.0 / SQRT1_2,
                          math.sqrt(MAXLOG) / SQRT1_2, -math.sqrt(MAXLOG) / SQRT1_2,
                          -38.0, -38.5, -40.0, 37.0, 8.0, -8.0] + SPECIAL)
# ndtri(y): the central range ends at exp(-2) and 1 - exp(-2), the tail
# switches tables where sqrt(-2 log y) = 8, at y = exp(-32)
NDTRI_EDGES = _neighbours([EXP_M2, 1.0 - EXP_M2, math.exp(-32.0), 1.0 - math.exp(-32.0),
                           0.5, 1.0, 1.0 - 2.0 ** -53, 1e-16, 1e-300, TINY,
                           SMALLEST_NORMAL, 0.0, -0.0, -1.0, 2.0, np.inf, -np.inf,
                           np.nan], ulps=6)


def _random_points(seed, n, lower, upper):
    """``n`` doubles: a quarter random bit patterns (every exponent, nan and
    inf among them), the rest spread linearly and log-uniformly."""
    rng = np.random.default_rng(seed)
    k = n // 4
    bits = rng.integers(0, 2 ** 64, size=k, dtype=np.uint64).view(np.float64)
    linear = rng.uniform(lower, upper, size=k)
    magnitude = 10.0 ** rng.uniform(-320.0, 0.0, size=n - 3 * k)
    logs = np.concatenate([magnitude, 1.0 - magnitude[: k]])
    return np.concatenate([bits, linear, logs])


with np.errstate(all="ignore"):  # random bits: signalling nans, overflow at x 10
    NDTR_POINTS = np.concatenate([_random_points(1, 1_000_000, -40.0, 40.0) *
                                  np.resize([1.0, -1.0, 10.0], 1_000_000), NDTR_EDGES])
NDTRI_POINTS = np.concatenate([_random_points(2, 1_000_000, 0.0, 1.0), NDTRI_EDGES])




@pytest.mark.parametrize("name, points", [("ndtr", NDTR_POINTS), ("ndtri", NDTRI_POINTS)])
def test_array_path_matches_scipy_within_bound(name, points):
    assert points.size > 1_000_000
    got = getattr(_normal, name)(points)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == points.shape
    _assert_within_bound(name, got, points)


@pytest.mark.parametrize("name, points", [("ndtr", NDTR_POINTS), ("ndtri", NDTRI_POINTS)])
def test_scalar_path_agrees_with_array_path(name, points):
    func = getattr(_normal, name)
    sample = np.concatenate([points[::50], NDTR_EDGES if name == "ndtr" else NDTRI_EDGES])
    scalars = [func(x) for x in sample]
    assert all(type(v) is np.float64 for v in scalars)
    _assert_same_bits(scalars, func(sample), sample)
    _assert_within_bound(name, scalars, sample)


@pytest.mark.parametrize("name, edges", [
    ("ndtr", {0.0: 0.5, -0.0: 0.5, np.inf: 1.0, -np.inf: 0.0, np.nan: np.nan,
              40.0: 1.0, 1e300: 1.0, -1e300: 0.0}),
    ("ndtri", {0.0: -np.inf, -0.0: -np.inf, 1.0: np.inf, 0.5: 0.0, np.nan: np.nan,
               -TINY: np.nan, -1.0: np.nan, 1.0 + EPS: np.nan, 2.0: np.nan,
               np.inf: np.nan, -np.inf: np.nan}),
])
def test_edge_results_are_exact(name, edges):
    points = np.array(list(edges))
    want = np.array(list(edges.values()))
    func = getattr(_normal, name)
    _assert_same_bits(func(points), want, points)
    _assert_same_bits([func(x) for x in points], want, points)
    _assert_same_bits(getattr(special, name)(points), want, points)


def test_shapes_follow_the_input():
    for func in (_normal.ndtr, _normal.ndtri):
        assert type(func(0.25)) is np.float64
        assert type(func(np.float64(0.25))) is np.float64
        assert type(func(np.array(0.25))) is np.float64
        assert type(func(1)) is np.float64
        grid = np.linspace(0.01, 0.99, 12).reshape(3, 4)
        assert func(grid).shape == (3, 4)
        assert func(np.empty(0)).shape == (0,)
        assert func([0.1, 0.2]).shape == (2,)


def test_nan_overflow_and_out_of_range_raise_no_warning():
    snan = np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64)
    with np.errstate(all="raise"):
        out = _normal.ndtri(np.concatenate([[np.nan, -1.0, 2.0, np.inf, -np.inf], snan]))
        assert np.isnan(out).all()
        assert np.isnan(_normal.ndtr(np.concatenate([[np.nan], snan]))).all()
        assert _normal.ndtr(np.array([1e300, -1e300])).tolist() == [1.0, 0.0]


@given(st.floats())
@settings(deadline=None, max_examples=500)
def test_hypothesis_floats_match_scipy(x):
    for name in ("ndtr", "ndtri"):
        _assert_within_bound(name, getattr(_normal, name)(x), x)


@given(st.floats(0.0, 1.0))
@settings(deadline=None, max_examples=500)
def test_hypothesis_unit_interval_ndtri_matches_scipy(y):
    _assert_within_bound("ndtri", _normal.ndtri(y), y)
    pair = np.array([y, y])
    _assert_same_bits(_normal.ndtri(pair), [_normal.ndtri(y)] * 2, pair)
