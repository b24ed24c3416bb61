"""Cluster-aware covariance estimation for wAUC vectors.

The covariance of the wAUC vector splits into a diseased and a non-diseased
part, reflecting independence of the two groups.  Entries are estimated on
the finite-sample variance scale (the covariance of the estimates as they
stand, with no asymptotic rescaling).

Every analytic path has one shape: each value gets a score, the scores are
summed per subject with ``bincount`` into an n_subjects x n_strata matrix
``G``, and one Gram product ``G'G`` over subjects carries the cluster
structure (structural components, DeLong et al. 1988, clustered by subject
as in Obuchowski 1997).  Cost is linear in the number of values; no
within-subject pairs are enumerated.

* Full-AUC measures score each value by its exact placement: the fraction
  of its pairs that the diseased value wins, counted by
  :func:`~wroc.estimators._wins` (a tie 1/2 with ``midrank``).  The AUC
  ``omega`` is the same wins over all pairs.  The per-subject sums are
  centred by ``omega * c_i`` and covaried across subjects with an
  ``n / (n - 1)`` factor, which reduces exactly to the classic
  structural-component AUC covariance when every subject contributes one
  measurement.  No density estimation is involved.
* Interval measures integrate on a fixed 64-node Gauss-Legendre grid;
  atomic measures use their atoms as the grid.  A value's score is
  ``g(v) = sum_p w_p * 1[v > t_p]`` over the grid thresholds ``t_p``, where
  on the non-diseased side ``w_p`` carries the density ratio of the two
  groups at ``t_p``, estimated by Gaussian kernels with a Silverman-type
  bandwidth.  The part is ``(G'G - (C'C) o (m m')) / (n_a n_b)`` with ``C``
  the per-subject value counts, ``m`` each stratum's weighted mean score and
  ``n_a`` its number of values.  This path has no ``n / (n - 1)`` factor:
  it is the plug-in value of the pair-pooled integrand
  ``sum_pq w_p w_q (S(t_p, t_q) - S(t_p) S(t_q))`` weighted by the share of
  within-subject pairs, and it is kept so rather than aligned with the
  placement path.

  The thresholds ``t_p`` are order statistics of the non-diseased stratum.
  Which ones (the rank plan: each node's row, the distinct rows and the map
  back) depends only on the measure and the stratum size, so it is computed
  once per measure and size and cached.  Several
  nodes often share a row (64 nodes on ``pauc:0,0.6`` over 50 values hit 30
  order statistics), and the kernel sums are taken once per distinct order
  statistic.  Each part is built in one pass over the stratum pairs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import MarkerDataset, Stratum
from .designs import StudyDesign
from .errors import DegenerateDensityError, WrocError
from .estimators import (
    _check_midrank,
    _roc_at,
    _stratum_pairs,
    _stratum_wauc_draws,
    _threshold_rows,
    _wins,
)
from .measures import WeightMeasure

# Gauss-Legendre nodes of an interval measure's quadrature grid
_NODES = 64
# draws per bootstrap replicate before giving up on a non-empty stratum set
_MAX_DRAWS = 1001
PSD_EIGENVALUE_TOLERANCE = 1e-8
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# entries of one _kde_at buffer (32 KB).  Both buffers together stay under
# glibc's default 128 KB heap trim threshold, so freeing them hands no pages
# back to the kernel and the next call faults none in.  At 1 << 14 (two
# 102 KB buffers at 200 values) a table4 replicate took about 265 minor
# faults in 4 of 19 heap layouts of a process without scipy, and 0 at 1 << 12
_KDE_BLOCK_ENTRIES = 1 << 12


@dataclass(frozen=True)
class CovarianceEstimate:
    """Covariance of a wAUC vector on the finite-sample variance scale.

    ``sigma`` always equals ``sigma_diseased + sigma_nondiseased`` elementwise
    when the parts are present; bootstrap estimates cannot decompose and
    carry ``None`` parts.
    """

    sigma: np.ndarray
    sigma_diseased: np.ndarray | None
    sigma_nondiseased: np.ndarray | None
    method: str
    repaired: bool = False
    n_redrawn: int = 0


# -- kernel density machinery -------------------------------------------


def _bandwidth(values: np.ndarray, ordered: np.ndarray) -> float:
    """Silverman's ``0.9 * min(sd, IQR / 1.34) * n^(-1/5)``, skipping zero
    candidates, of ``values`` given in ascending order as ``ordered`` (a
    stratum's ``sorted_values``); ``DegenerateDensityError`` when no
    candidate is positive or the product underflows to zero.

    The standard deviation is numpy's ``std(ddof=1)`` step for step (the
    sum, the mean, the squared deviations and their sum), so its bits are
    the same without the wrapper's cost.
    """
    n = values.size
    if n < 2:
        raise DegenerateDensityError("need at least 2 values for a density estimate")
    dev = values - np.add.reduce(values, axis=None) / n
    np.square(dev, out=dev)
    sd = math.sqrt(np.add.reduce(dev, axis=None) / (n - 1))
    iqr = _quantile(ordered, 0.75) - _quantile(ordered, 0.25)
    candidates = [c for c in (sd, iqr / 1.34) if c > 0.0]
    if not candidates:
        raise DegenerateDensityError("sample has zero spread, no usable bandwidth")
    h = 0.9 * min(candidates) * n ** (-0.2)
    if not h > 0.0:
        raise DegenerateDensityError(f"non-positive bandwidth {h}")
    return h


def _quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile(ordered, q)`` for an ascending array, read off by index.

    The arithmetic is numpy's default ("linear") method step for step, its
    ``_lerp`` included, so the result is bit-identical up to the sign of a
    zero (numpy's partition may place -0.0 and 0.0 otherwise than a sort); a
    NaN sorts last and makes every quantile NaN, as in numpy.
    """
    last = ordered.size - 1
    if math.isnan(ordered[last]):
        return math.nan
    pos = last * q
    lo = min(math.floor(pos), last)
    a, b = float(ordered[lo]), float(ordered[min(lo + 1, last)])
    t = pos - lo
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def _kde_at(values: np.ndarray, points: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian kernel density estimate of ``values`` at ``points``.

    Works in place on two buffers of at most ``_KDE_BLOCK_ENTRIES`` entries,
    a block of points at a time.  Each point still sums its whole row, so
    the bits equal those of ``np.exp(-0.5 * z * z).sum(axis=1)`` with
    ``z = (points[:, None] - values) / bandwidth``.
    """
    rows = max(1, min(points.size, _KDE_BLOCK_ENTRIES // values.size))
    z = np.empty((rows, values.size))
    work = np.empty_like(z)
    sums = np.empty(points.size)
    for start in range(0, points.size, rows):
        block = points[start:start + rows]
        z_b, work_b = z[:block.size], work[:block.size]
        np.subtract(block[:, None], values, z_b)
        z_b /= bandwidth
        np.multiply(z_b, -0.5, work_b)
        work_b *= z_b
        np.exp(work_b, work_b)
        work_b.sum(axis=1, out=sums[start:start + rows])
    sums /= values.size * bandwidth * _SQRT_2PI
    return sums


def _density_ratio_at(x: Stratum, y: Stratum, thresholds: np.ndarray) -> np.ndarray:
    hx = _bandwidth(x.values, x.sorted_values)
    hy = _bandwidth(y.values, y.sorted_values)
    f_dis = _kde_at(x.values, thresholds, hx)
    f_non = _kde_at(y.values, thresholds, hy)
    if np.any(f_non <= 0.0):
        bad = thresholds[np.argmax(f_non <= 0.0)]
        raise DegenerateDensityError(
            f"non-diseased density vanished at threshold {bad!r}")
    return f_dis / f_non


# -- covariance paths ----------------------------------------------------


def _check_group_sizes(dataset: MarkerDataset) -> None:
    if dataset.n_diseased < 2 or dataset.n_nondiseased < 2:
        raise ValueError("analytic covariance needs at least 2 subjects per group")


def _placement_parts(pairs, measure: WeightMeasure, midrank: bool):
    n_dis = pairs[0][0].n_subjects
    n_non = pairs[0][1].n_subjects
    n_s = len(pairs)
    dev_x = np.zeros((n_s, n_dis))
    dev_y = np.zeros((n_s, n_non))
    m_tot = np.zeros(n_s)
    n_tot = np.zeros(n_s)
    for s, (x, y) in enumerate(pairs):
        # a non-diseased value's wins are the diseased values above it:
        # the same count with the roles swapped, on the negated values
        wins_x = _wins(x.values, y.sorted_values, measure, midrank)
        wins_y = _wins(-y.values, -x.sorted_values[::-1], measure, midrank)
        omega = wins_x.sum() / (x.n * y.n)
        sum_x = np.bincount(x.subjects, weights=wins_x / y.n, minlength=n_dis)
        sum_y = np.bincount(y.subjects, weights=wins_y / x.n, minlength=n_non)
        dev_x[s] = sum_x - omega * x.counts
        dev_y[s] = sum_y - omega * y.counts
        m_tot[s] = x.n
        n_tot[s] = y.n
    sigma1 = (dev_x @ dev_x.T) * (n_dis / (n_dis - 1)) / np.outer(m_tot, m_tot)
    sigma2 = (dev_y @ dev_y.T) * (n_non / (n_non - 1)) / np.outer(n_tot, n_tot)
    return sigma1, sigma2


def _gram_part(scores: np.ndarray, counts: np.ndarray, means: np.ndarray,
               sizes: np.ndarray) -> np.ndarray:
    """``(G'G - (C'C) o (m m')) / (n n')`` for one group.

    ``G`` (``scores``) holds per-subject score sums and ``C`` (``counts``)
    per-subject value counts, one column per stratum; ``m`` is each
    stratum's weighted mean score and ``n`` its number of values.  ``G'G``
    is the weighted joint exceedance summed over every within-subject cross
    pair of values, and ``C'C`` counts those pairs.
    """
    centre = (counts.T @ counts) * np.outer(means, means)
    return (scores.T @ scores - centre) / np.outer(sizes, sizes)


@functools.lru_cache(maxsize=32)
def _grid(measure: WeightMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Rates and weights of a pauc or atomic measure's integration grid,
    shared read-only: the 64 Gauss-Legendre nodes on the window, or the
    atoms.  The rates ascend."""
    if measure.kind == "pauc":
        glx, glw = np.polynomial.legendre.leggauss(_NODES)
        half = 0.5 * (measure.upper - measure.lower)
        mid = 0.5 * (measure.upper + measure.lower)
        nodes, weights = mid + half * glx, half * glw
    else:
        nodes = np.asarray([u for u, _ in measure.atoms])
        weights = np.asarray([m for _, m in measure.atoms])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=256)
def _rank_plan(measure: WeightMeasure, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The threshold rows of a grid in ``n`` sorted values, shared read-only.

    Returns ``(rows, distinct, inverse)``: each node's row (by
    :func:`_threshold_rows`), the rows without repeats in node order, and
    each node's position in ``distinct``, so ``distinct[inverse] == rows``.
    Ranks never rise along the ascending rates, so a repeat always sits
    next to its first occurrence.
    """
    rows = _threshold_rows(_grid(measure)[0], n)
    first = np.empty(rows.size, dtype=bool)
    first[:1] = True
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    inverse = np.cumsum(first) - 1
    distinct = rows[first]
    for arr in (rows, distinct, inverse):
        arr.flags.writeable = False
    return rows, distinct, inverse


def _integral_parts(pairs, measure: WeightMeasure):
    """The diseased and non-diseased parts on a pauc or atomic measure's
    grid, in one pass over the stratum pairs.

    Per stratum: the thresholds come from the cached rank plan, the two
    kernel density estimates run at the distinct thresholds only, one sort
    of the thresholds serves both groups' cumulative weights, and each
    group's per-subject score sums and counts fill one column of ``G`` and
    ``C``.  ``g(v)`` counts only thresholds strictly below ``v``, so ties
    between a value and a threshold score nothing.
    """
    u_nodes, u_weights = _grid(measure)
    n_s = len(pairs)
    groups = []
    for st in pairs[0]:
        groups.append((np.empty((st.n_subjects, n_s)),
                       np.empty((st.n_subjects, n_s), dtype=st.counts.dtype),
                       np.empty(n_s), np.empty(n_s)))
    cumulative = np.zeros(u_nodes.size + 1)
    for s, (x, y) in enumerate(pairs):
        rows, distinct, inverse = _rank_plan(measure, y.n)
        thresholds, roc = _roc_at(x, y, rows)
        ratio = _density_ratio_at(x, y, y.sorted_values[distinct])
        ratio_weights = u_weights * ratio[inverse]
        order = np.argsort(thresholds, kind="stable")
        ordered = thresholds[order]
        for st, weights, mean, (scores, counts, means, sizes) in (
                (x, u_weights, u_weights @ roc, groups[0]),
                (y, ratio_weights, ratio_weights @ u_nodes, groups[1])):
            np.cumsum(weights[order], out=cumulative[1:])
            below = np.searchsorted(ordered, st.values, side="left")
            scores[:, s] = np.bincount(st.subjects, weights=cumulative[below],
                                       minlength=st.n_subjects)
            counts[:, s] = st.counts
            means[s] = mean
            sizes[s] = st.n
    return tuple(_gram_part(*group) for group in groups)


def _repair_part(mat: np.ndarray) -> tuple[np.ndarray, bool]:
    sym = 0.5 * (mat + mat.T)
    diag_max = float(np.max(np.diag(sym), initial=0.0))
    eigvals = np.linalg.eigvalsh(sym)
    floor = -PSD_EIGENVALUE_TOLERANCE * max(diag_max, np.finfo(float).tiny)
    if eigvals.min() >= floor:
        return sym, False
    vals, vecs = np.linalg.eigh(sym)
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals) @ vecs.T, True


def sigma_matrix(dataset: MarkerDataset, design: StudyDesign | None,
                 measure: WeightMeasure, *, midrank: bool = False) -> CovarianceEstimate:
    """Analytic covariance of the wAUC vector over the design's strata.

    Returned on the finite-sample scale: the diagonal estimates the variance
    of each wAUC entry as computed, with cluster sizes and group sizes
    already folded in.  ``midrank`` reaches only the placement path: the
    quadrature path stays tie-free (a value scores no threshold it ties)
    with or without it, and atomic measures reject it.
    """
    _check_group_sizes(dataset)
    _check_midrank(measure, midrank)
    pairs, _ = _stratum_pairs(dataset, design)
    if measure.kind == "full":
        sigma1, sigma2 = _placement_parts(pairs, measure, midrank)
        method = "placement"
    else:
        sigma1, sigma2 = _integral_parts(pairs, measure)
        method = "quadrature" if measure.kind == "pauc" else "atoms"
    if measure.normalized:
        scale = measure.total_mass ** 2
        sigma1 = sigma1 / scale
        sigma2 = sigma2 / scale
    sigma1, repaired1 = _repair_part(sigma1)
    sigma2, repaired2 = _repair_part(sigma2)
    return CovarianceEstimate(
        sigma=sigma1 + sigma2,
        sigma_diseased=sigma1,
        sigma_nondiseased=sigma2,
        method=method,
        repaired=repaired1 or repaired2,
    )


def contrast_covariance(sigma: np.ndarray, design: StudyDesign) -> np.ndarray:
    """Covariance of the paired differences: A' Sigma A for the design's
    signed pairing matrix."""
    mat = design.contrast_matrix()
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (mat.shape[0], mat.shape[0]):
        raise ValueError(
            f"sigma is {sigma.shape}, design expects {mat.shape[0]} strata")
    return mat.T @ sigma @ mat


def bootstrap_covariance(dataset: MarkerDataset, design: StudyDesign | None,
                         measure: WeightMeasure, n_boot: int, seed: int, *,
                         midrank: bool = False) -> CovarianceEstimate:
    """Subject-level bootstrap covariance of the wAUC vector.

    Subjects are resampled with replacement within each group; replicate b
    draws its RNG stream from (seed, b) so results do not depend on
    scheduling.  A replicate leaving any stratum empty is redrawn and
    counted in ``n_redrawn``.  A replicate is kept as the per-subject
    multiplicities of its draw, and all replicates of a stratum pair are
    scored from them at once; no resampled dataset is built.
    """
    if n_boot < 100:
        raise ValueError(f"need at least 100 bootstrap replicates, got {n_boot}")
    if seed < 0:
        raise ValueError(f"bootstrap seed must be non-negative, got {seed}")
    pairs, _ = _stratum_pairs(dataset, design)
    n_dis = dataset.n_diseased
    n_non = dataset.n_nondiseased
    # per-subject value counts by stratum; times a draw's per-subject
    # multiplicities they give the resampled strata's sizes
    counts_d = np.array([x.counts for x, _ in pairs])
    counts_n = np.array([y.counts for _, y in pairs])
    mult_d = np.empty((n_boot, n_dis), dtype=np.intp)
    mult_n = np.empty((n_boot, n_non), dtype=np.intp)
    n_redrawn = 0
    for b in range(n_boot):
        for attempt in range(_MAX_DRAWS):
            rng = np.random.default_rng((seed, b, attempt))
            mult_d[b] = np.bincount(rng.integers(0, n_dis, n_dis), minlength=n_dis)
            mult_n[b] = np.bincount(rng.integers(0, n_non, n_non), minlength=n_non)
            if (counts_d @ mult_d[b]).all() and (counts_n @ mult_n[b]).all():
                break
            n_redrawn += 1
        else:
            raise WrocError(f"bootstrap could not draw a usable replicate in {_MAX_DRAWS} draws")
    draws = np.empty((n_boot, len(pairs)))
    for s, (x, y) in enumerate(pairs):
        draws[:, s] = _stratum_wauc_draws(x, y, measure, midrank, mult_d, mult_n)
    sigma = np.cov(draws, rowvar=False, ddof=1)
    sigma = np.atleast_2d(sigma)
    return CovarianceEstimate(
        sigma=sigma,
        sigma_diseased=None,
        sigma_nondiseased=None,
        method="bootstrap",
        n_redrawn=n_redrawn,
    )
