"""Cluster-aware covariance estimation for wAUC vectors.

The covariance of the wAUC vector splits into a diseased and a non-diseased
part, reflecting independence of the two groups.  Entries are estimated on
the finite-sample variance scale (the covariance of the estimates as they
stand, with no asymptotic rescaling).

Every analytic path has one shape: each value gets a score, the scores are
summed per subject with ``bincount`` into an n_strata x n_subjects matrix
``G``, and one Gram product ``G G'`` over subjects carries the cluster
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
  bandwidth.  The part is ``(G G' - (C C') o (m m')) / (n_a n_b)`` with ``C``
  the per-subject value counts, ``m`` each stratum's weighted mean score and
  ``n_a`` its number of values.  This path has no ``n / (n - 1)`` factor:
  it is the plug-in value of the pair-pooled integrand
  ``sum_pq w_p w_q (S(t_p, t_q) - S(t_p) S(t_q))`` weighted by the share of
  within-subject pairs, and it is kept so rather than aligned with the
  placement path.

  The thresholds ``t_p`` are order statistics of the non-diseased stratum.
  Which ones (the rank plan: each node's row, the distinct rows and the map
  back) depends only on the measure and the stratum size, so it is computed
  once per measure and size and cached.  Several nodes often share a row
  (64 nodes on ``pauc:0,0.6`` over 50 values hit 30 order statistics), and
  the kernel sums are taken once per distinct order statistic.

One walk (:func:`_walk`) serves every path, one pass per stratum block
(see :mod:`~wroc.estimators`): the strata whose diseased sizes and
non-diseased sizes are both equal, held as ``(k, n)`` arrays, one row per
stratum; a stratum of its own size is its 1-D arrays, taken as one row.
A scorer per path (:func:`_placement_columns`, or :func:`_integral_columns`
with one rank plan, one bandwidth per row and one stacked kernel density
estimate per group) gives a block's rows of ``G`` and their centres,
``omega`` or ``m``, which the walk writes with the value counts and sizes
into one row-per-stratum layout per group.  A failing block is scored
again one stratum at a time in design order, so every path raises what
the first failing stratum raises alone.  The Gram form is the one fork:
the placement path centres the sums before the product
(:func:`_centred_gram`), the grid paths subtract ``(C C') o (m m')`` after
it (:func:`_gram_part`).  Their ``m`` is not each subject's mean score, so
centring first would change their numbers.

The kernel sums run in place in a work buffer each thread keeps
(:func:`_kde_work`, 1 MB): a block's points against its values in one
pass when they fit, else in slices of whole rows or of one row's points.
The cached plans are read-only, so the analytic covariance may be computed
from several threads at once.

The bootstrap's draws are those of one ``default_rng((seed, b, attempt))``
per replicate and attempt, built for all replicates at once
(:func:`_bootstrap_draws`): the seed hash as uint32 array operations, one
PCG64 per replicate for its raw words, and numpy's bounded-integer rule
over the whole draw matrix; only a replicate that meets numpy's rejection
case is drawn through its own Generator.  ``numpy.random`` is imported on
the first bootstrap, not with the module.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .dataset import MarkerDataset, Stratum
from .designs import StudyDesign
from .errors import DegenerateDensityError, WrocError
from .estimators import (
    _check_midrank,
    _positions,
    _roc_at,
    _stratum_blocks,
    _stratum_rows,
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
# entries of a thread's _kde_at work buffer (1 MB).  A table4 block (6
# strata x 58 thresholds x 200 values) runs in one pass; only larger blocks
# are cut into slices that fit
_KDE_BLOCK_ENTRIES = 1 << 17
# each thread's work buffer, kept across calls
_kde_local = threading.local()


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


def _bandwidth(values: np.ndarray, ordered: np.ndarray) -> np.ndarray:
    """Silverman's ``0.9 * min(sd, IQR / 1.34) * n^(-1/5)``, skipping zero
    candidates, of a stratum's ``values`` given in ascending order as
    ``ordered`` (its ``sorted_values``), or of each row of a block's: an
    array of ``values.shape[:-1]``.  ``DegenerateDensityError`` when a
    stratum holds fewer than 2 values, else for the first row with no
    positive candidate or whose product underflows to zero, as that row on
    its own would raise.

    The standard deviation is numpy's ``std(ddof=1)`` step for step (the
    sum, the mean, the squared deviations and their sum) along each row, so
    its bits are the same without the wrapper's cost.  From the sums of
    squares on, each row is worked on Python floats: at the few rows of a
    block that costs less than the numpy calls it would take.
    """
    n = values.shape[-1]
    if n < 2:
        raise DegenerateDensityError("need at least 2 values for a density estimate")
    # transposed, the means broadcast over a stratum's values or a block's
    # rows alike, and the deviations come back in the rows' layout
    dev = (values.T - np.add.reduce(values, axis=-1) / n).T
    np.square(dev, out=dev)
    squares = np.add.reduce(dev, axis=-1)
    h = []
    for square, (upper, lower) in zip(squares.tolist() if squares.ndim else [float(squares)],
                                      _quantile(ordered, (0.75, 0.25))):
        candidates = [c for c in (math.sqrt(square / (n - 1)), (upper - lower) / 1.34) if c > 0.0]
        if not candidates:
            raise DegenerateDensityError("sample has zero spread, no usable bandwidth")
        row_h = 0.9 * min(candidates) * n ** (-0.2)
        if not row_h > 0.0:
            raise DegenerateDensityError(f"non-positive bandwidth {row_h}")
        h.append(row_h)
    return np.array(h if squares.ndim else h[0])


def _quantile(ordered: np.ndarray, qs) -> list[list[float]]:
    """``np.quantile(row, qs)`` of an ascending stratum, or of each row of
    a block's, read off by index: one list per row, one value per level in
    ``qs``.

    The arithmetic is numpy's default ("linear") method step for step, its
    ``_lerp`` included, so the result is bit-identical up to the sign of a
    zero (numpy's partition may place -0.0 and 0.0 otherwise than a sort); a
    NaN sorts last and makes every quantile of its row NaN, as in numpy.
    Only the two values each level reads leave numpy; the arithmetic runs
    on them as Python floats.
    """
    columns, levels = _quantile_plan(ordered.shape[-1] - 1, tuple(qs))
    quantiles = []
    for row in ordered.take(columns, axis=-1).reshape(-1, columns.size).tolist():
        if math.isnan(row[0]):
            quantiles.append([math.nan] * len(levels))
        else:
            quantiles.append([_lerp(row[at], row[at + 1], t) for at, t in levels])
    return quantiles


@functools.lru_cache(maxsize=256)
def _quantile_plan(last: int, qs: tuple[float, ...]) -> tuple[np.ndarray, tuple]:
    """The columns :func:`_quantile` reads from rows of ``last + 1``
    values, the last one first (for the NaN check), and per level where its
    pair of values sits among them and the fraction between the two; shared
    read-only."""
    columns, levels = [last], []
    for q in qs:
        pos = last * q
        lo = min(math.floor(pos), last)
        levels.append((len(columns), pos - lo))
        columns += [lo, min(lo + 1, last)]
    columns = np.array(columns)
    columns.flags.writeable = False
    return columns, tuple(levels)


def _lerp(a: float, b: float, t: float) -> float:
    """numpy's ``_lerp``: from whichever end ``t`` is nearer."""
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def _kde_work(n: int) -> np.ndarray:
    """The work buffer of :func:`_kde_at` for rows of ``n`` values: this
    thread's own of ``_KDE_BLOCK_ENTRIES`` entries, made on its first call
    and kept, or for rows longer than that one of ``n`` entries for this
    call alone, so what a thread keeps stays at 1 MB.  A kept buffer is
    never freed, so no call hands pages back to the kernel that the next
    one must fault in again."""
    if n > _KDE_BLOCK_ENTRIES:
        return np.empty(n)
    work = getattr(_kde_local, "work", None)
    if work is None:
        work = _kde_local.work = np.empty(_KDE_BLOCK_ENTRIES)
    return work


@functools.lru_cache(maxsize=256)
def _kde_slices(shape: tuple[int, ...], n: int) -> tuple:
    """How :func:`_kde_at` cuts points of ``shape`` (``(d,)`` for a stratum,
    ``(k, d)`` for a block) against rows of ``n`` values: as many whole
    rows a slice as fit in ``_KDE_BLOCK_ENTRIES`` (point, value) pairs,
    else one row's points a slice at a time.

    Per set of rows: their index, the index of their values with a point
    axis, and per slice the index of its points, the same with a value
    axis, and its ``(points, values)`` work shape and size.  One row is
    indexed by an int, so its slices are 2-D as a stratum's are.  Cached
    per shape.
    """
    *lead, d = shape
    fit = max(1, _KDE_BLOCK_ENTRIES // n)
    step = min(d, fit)
    rows = [((), ())]
    if lead:
        per = max(1, fit // d)
        rows = [((slice(r, r + per),), (min(per, lead[0] - r),)) if per > 1 else ((r,), ())
                for r in range(0, lead[0], per)]
    plan = []
    for row, row_shape in rows:
        cuts = []
        for j in range(0, d, step):
            cut = row + (slice(j, j + step),)
            work_shape = row_shape + (min(step, d - j), n)
            cuts.append((cut, cut + (None,), work_shape, math.prod(work_shape)))
        plan.append((row, row + (None, slice(None)), tuple(cuts)))
    return tuple(plan)


def _kde_at(values: np.ndarray, points: np.ndarray, bandwidth: np.ndarray) -> np.ndarray:
    """Gaussian kernel density estimate of a stratum's ``values`` at
    ``points`` with its ``bandwidth``; for a block, of each row's values at
    its row of points with its bandwidth.

    Works in place in this thread's :func:`_kde_work` buffer, the whole
    block in one pass when it fits, else a slice at a time
    (:func:`_kde_slices`).  The buffer is filled with the values and the
    points are subtracted, so it holds ``-(points - values)`` exactly;
    squared and scaled by the exact ``-0.5`` it gives what
    ``-0.5 * z * z`` gives after ``exp``.  Each point still sums its whole
    row, so the bits equal those of ``np.exp(-0.5 * z * z).sum(axis=-1)``
    with ``z = (points[..., None] - values[..., None, :]) / bandwidth``.
    """
    n = values.shape[-1]
    scale = bandwidth.reshape(bandwidth.shape + (1, 1))
    sums = np.empty(points.shape)
    work = _kde_work(n)
    for row, value_cut, cuts in _kde_slices(points.shape, n):
        row_values, row_scale = values[value_cut], scale[row]
        for cut, point_cut, shape, size in cuts:
            w = work[:size].reshape(shape)
            np.copyto(w, row_values)
            w -= points[point_cut]
            w /= row_scale
            np.square(w, out=w)
            w *= -0.5
            np.exp(w, out=w)
            np.add.reduce(w, axis=-1, out=sums[cut])
    sums /= n * bandwidth[..., None] * _SQRT_2PI
    return sums


def _density_ratio_at(x: Stratum, y: Stratum, points: np.ndarray) -> np.ndarray:
    """The diseased over the non-diseased density of a stratum pair at
    ``points``, or of each row of a block pair at its row of points."""
    hx = _bandwidth(x.values, x.sorted_values)
    hy = _bandwidth(y.values, y.sorted_values)
    f_dis = _kde_at(x.values, points, hx)
    f_non = _kde_at(y.values, points, hy)
    vanished = f_non <= 0.0
    if vanished.any():
        raise DegenerateDensityError(
            f"non-diseased density vanished at threshold {points[vanished][0]!r}")
    return f_dis / f_non


# -- covariance paths ----------------------------------------------------


def _check_group_sizes(dataset: MarkerDataset) -> None:
    if dataset.n_diseased < 2 or dataset.n_nondiseased < 2:
        raise ValueError("analytic covariance needs at least 2 subjects per group")


def _subject_sums(stratum: Stratum, weights: np.ndarray) -> np.ndarray:
    """The sums of ``weights`` (one per value) over each subject's values,
    in the shape of ``stratum.counts``: per row for a block."""
    sums = np.bincount(stratum.bins.ravel(), weights=weights.ravel(),
                       minlength=stratum.counts.size)
    return sums.reshape(stratum.counts.shape)


def _placement_columns(x: Stratum, y: Stratum, measure: WeightMeasure, midrank: bool):
    """Per group of a stratum pair, the per-subject sums of each value's
    placement (its share of pairs won) and the AUC ``omega``; for a block
    pair, one row of each per stratum."""
    # a non-diseased value's wins are the diseased values above it:
    # the same count with the roles swapped, on the negated values
    wins_x = _wins(x.values, y.sorted_values, measure, midrank)
    wins_y = _wins(-y.values, -x.sorted_values[..., ::-1], measure, midrank)
    omega = np.add.reduce(wins_x, axis=-1) / (x.n * y.n)
    return (_subject_sums(x, wins_x / y.n), omega), (_subject_sums(y, wins_y / x.n), omega)


def _centred_gram(sums: np.ndarray, counts: np.ndarray, centres: np.ndarray,
                  sizes: np.ndarray) -> np.ndarray:
    """The placement form for one group: ``n / (n - 1)`` times the Gram
    over its ``n`` subjects of their sums centred by ``omega * c_i``, over
    ``n_a n_b``; the arguments as :func:`_gram_part` takes them."""
    dev = sums - centres[:, None] * counts
    n = sums.shape[1]
    return (dev @ dev.T) * (n / (n - 1)) / np.outer(sizes, sizes)


def _gram_part(sums: np.ndarray, counts: np.ndarray, means: np.ndarray,
               sizes: np.ndarray) -> np.ndarray:
    """The quadrature and atoms form for one group:
    ``(G G' - (C C') o (m m')) / (n n')``.

    ``G`` (``sums``) holds per-subject score sums and ``C`` (``counts``)
    per-subject value counts, one row per stratum and one column per
    subject; ``m`` is each stratum's weighted mean score and ``n`` its
    number of values.  ``G G'`` is the weighted joint exceedance summed over
    every within-subject cross pair of values, and ``C C'`` counts those
    pairs.
    """
    centre = (counts @ counts.T) * np.outer(means, means)
    return (sums @ sums.T - centre) / np.outer(sizes, sizes)


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


def _row_dots(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``row @ vector`` for each row of ``matrix`` (a 1-D ``matrix`` is one
    row), one BLAS dot a row, as each stratum's mean score was taken on its
    own: a matrix-vector product sums in another order and changes the last
    bit.  Each row of a block is copied to a fresh array first, as the
    per-stratum operands were, since how a dot kernel sums may depend on
    where its operand starts in memory."""
    if matrix.ndim == 1:
        return matrix @ vector
    return np.array([row.copy() @ vector for row in matrix])


def _along(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(a, index, axis=-1)`` for a stratum's 1-D arrays
    or a block's 2-D ones, without that function's overhead."""
    if a.ndim == 1:
        return a[index]
    return a[np.arange(len(a))[:, None], index]


def _integral_columns(x: Stratum, y: Stratum, measure: WeightMeasure):
    """Per group of a stratum pair, the per-subject score sums and the
    weighted mean score on the measure's grid; for a block pair, one row
    of each per stratum.

    The thresholds come from the cached rank plan of the stratum size, the
    kernel density estimates run at the distinct thresholds only, one
    row-wise sort of the thresholds serves both groups' cumulative weights,
    and one ``bincount`` per group sums the scores.  ``g(v)`` counts only
    thresholds strictly below ``v``, so ties between a value and a
    threshold score nothing.  Both groups' kernel sums use the calling
    thread's :func:`_kde_work` buffer in turn.
    """
    u_nodes, u_weights = _grid(measure)
    rows, distinct, inverse = _rank_plan(measure, y.n)
    thresholds, roc = _roc_at(x, y, rows)
    ratio = _density_ratio_at(x, y, y.sorted_values.take(distinct, axis=-1))
    ratio_weights = u_weights * ratio.take(inverse, axis=-1)
    order = np.argsort(thresholds, axis=-1, kind="stable")
    ordered = _along(thresholds, order)
    cumulative = np.zeros(order.shape[:-1] + (order.shape[-1] + 1,))
    columns = []
    for stratum, weights, means in (
            (x, u_weights[order], _row_dots(roc, u_weights)),
            (y, _along(ratio_weights, order), _row_dots(ratio_weights, u_nodes))):
        np.cumsum(weights, axis=-1, out=cumulative[..., 1:])
        scores = _along(cumulative, _positions(ordered, stratum.values, "left"))
        columns.append((_subject_sums(stratum, scores), means))
    return columns


def _walk(blocks, n_strata: int, measure: WeightMeasure, midrank: bool):
    """The diseased and non-diseased parts over a design's ``n_strata``
    strata, given as block pairs, before normalisation and repair.

    Should a block fail, its strata are scored one at a time in design
    order and the first one's own error is raised; should none of them fail
    alone, the block's error is.  The walk allocates no KDE buffer: the
    grid paths' kernel sums run in the calling thread's kept one.
    """
    if measure.kind == "full":
        score = functools.partial(_placement_columns, measure=measure, midrank=midrank)
        gram = _centred_gram
    else:
        score = functools.partial(_integral_columns, measure=measure)
        gram = _gram_part
    error = None
    try:
        columns = [score(x, y) for _, x, y in blocks]
    except (DegenerateDensityError, ValueError) as exc:
        error = exc
    if error is not None:
        for x, y in _stratum_rows(blocks):
            score(x, y)
        raise error
    parts = []
    for group in (0, 1):
        n_subjects = blocks[0][1 + group].n_subjects
        sums = np.empty((n_strata, n_subjects))
        counts = np.empty((n_strata, n_subjects), dtype=np.intp)
        centres, sizes = np.empty(n_strata), np.empty(n_strata)
        for (idx, *pair), block_columns in zip(blocks, columns):
            sums[idx], centres[idx] = block_columns[group]
            counts[idx] = pair[group].counts
            sizes[idx] = pair[group].n
        parts.append(gram(sums, counts, centres, sizes))
    return tuple(parts)


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
    with or without it, and atomic measures reject it.  A covariance that is
    not finite (an overflowing measure mass) raises ``WrocError``.
    """
    _check_group_sizes(dataset)
    _check_midrank(measure, midrank)
    blocks, labels = _stratum_blocks(dataset, design)
    method = {"full": "placement", "pauc": "quadrature"}.get(measure.kind, "atoms")
    # an overflow leaves a part that is not finite, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        sigma1, sigma2 = _walk(blocks, len(labels), measure, midrank)
        if measure.normalized:
            scale = measure.total_mass ** 2
            sigma1 = sigma1 / scale
            sigma2 = sigma2 / scale
        finite = np.isfinite(sigma1 + sigma2).all()
    if not finite:
        raise WrocError(f"the {method} covariance is not finite")
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
    mat = design._contrast
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (mat.shape[0], mat.shape[0]):
        raise ValueError(
            f"sigma is {sigma.shape}, design expects {mat.shape[0]} strata")
    return mat.T @ sigma @ mat


# -- bootstrap draws ------------------------------------------------------
#
# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of 4
# words, and the constants of its entropy mix and of its state output
_POOL_WORDS = 4
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_steps(init: int, mult: int):
    """SeedSequence's running hash constant from ``init``, one step after
    another: the constant a step's word is XORed with, and the next one,
    ``mult`` times it, that the word is then multiplied by."""
    while True:
        xor, init = init, init * mult & _MASK32
        yield xor, init


@functools.lru_cache(maxsize=16)
def _hash_plan(n_entropy: int) -> tuple:
    """SeedSequence's hash constants over ``n_entropy`` words as uint32
    columns that broadcast over the rows, an ``(xor, mult)`` pair a step,
    shared read-only.

    The steps: the pool's first hash of its 4 words; per source word of
    the pool, its hash towards each other pool word; per entropy word past
    the pool, its hash towards each pool word; and the output's 8 words
    over the pool twice, shaped ``(2, 4, 1)``.  The constants run on
    through the first three in that order and each step's pool words take
    them in turn; a source word's own slot gets a zero pair, and its
    result is put back.
    """
    def take(steps, count, skip=None):
        pairs = list(itertools.islice(steps, count))
        if skip is not None:
            pairs.insert(skip, (0, 0))
        table = np.array(pairs, dtype=np.uint32)
        table.flags.writeable = False
        return table[:, :1], table[:, 1:]

    mixing = _hash_steps(_HASH_INIT_A, _HASH_MULT_A)
    first = take(mixing, _POOL_WORDS)
    rounds = [take(mixing, _POOL_WORDS - 1, skip=src) for src in range(_POOL_WORDS)]
    rounds += [take(mixing, _POOL_WORDS) for _ in range(n_entropy - _POOL_WORDS)]
    output = [column.reshape(2, _POOL_WORDS, 1)
              for column in take(_hash_steps(_HASH_INIT_B, _HASH_MULT_B), 2 * _POOL_WORDS)]
    return first, tuple(rounds), tuple(output)


def _stream_states(seed: int, rows: np.ndarray, attempt: int) -> np.ndarray:
    """Each row's PCG64 seed words, ``SeedSequence((seed, b, attempt))
    .generate_state(4, np.uint64)`` for each ``b`` in ``rows``: a
    ``(len(rows), 4)`` uint64 array.

    The entropy is the seed's 32-bit words, low first, then ``b`` and
    ``attempt``, one word each (both stay below 2**32: a replicate index
    that large would need more memory than any machine has).  The hash is
    numpy's step for step, on uint32 arrays of one column a row whose
    products wrap as the C ones do.  The constants of :func:`_hash_plan`
    do not depend on the entropy, so each step is one operation over every
    row and every pool word it reaches, in place.
    """
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    n_entropy = len(words) + 2
    first, rounds, (out_xor, out_mult) = _hash_plan(n_entropy)
    entropy = np.zeros((max(n_entropy, _POOL_WORDS), len(rows)), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = rows
    entropy[len(words) + 1] = attempt
    pool, hashed, shifted = np.empty((3, _POOL_WORDS, len(rows)), dtype=np.uint32)

    def hashmix(value, xor, mult, out, shifted):
        np.bitwise_xor(value, xor, out=out)
        out *= mult
        np.right_shift(out, 16, out=shifted)
        out ^= shifted

    hashmix(entropy[:_POOL_WORDS], *first, pool, shifted)
    for step, (xor, mult) in enumerate(rounds):
        # a pool word mixes in to the others; entropy past the pool, to all
        src = pool[step].copy() if step < _POOL_WORDS else entropy[step]
        hashmix(src, xor, mult, hashed, shifted)
        pool *= _MIX_MULT_L
        hashed *= _MIX_MULT_R
        pool -= hashed
        np.right_shift(pool, 16, out=shifted)
        pool ^= shifted
        if step < _POOL_WORDS:
            pool[step] = src
    # generate_state: 8 words over the pool twice, read as 4 little-endian uint64
    state, shifted = np.empty((2, 2, _POOL_WORDS, len(rows)), dtype=np.uint32)
    hashmix(pool, out_xor, out_mult, state, shifted)
    state = np.ascontiguousarray(state.reshape(2 * _POOL_WORDS, -1).T, dtype="<u4")
    return state.view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _pcg64_from_state():
    """A maker of PCG64 bit generators from their four seed words, as
    ``PCG64`` makes them from a ``SeedSequence``'s ``generate_state(4,
    np.uint64)``.  Built on first use, so importing wroc loads no
    ``numpy.random``."""
    from numpy.random import PCG64
    from numpy.random.bit_generator import ISeedSequence

    class _SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: PCG64(_SeedWords(words))


def _stream_draws(seed: int, b: int, attempt: int, sizes) -> list[np.ndarray]:
    """Replicate ``b``'s draws at ``attempt`` from its own Generator:
    ``integers(0, n, n)`` for each group size ``n`` in ``sizes``, in turn."""
    rng = np.random.default_rng((seed, b, attempt))
    return [rng.integers(0, n, n) for n in sizes]


def _bootstrap_draws(seed: int, rows: np.ndarray, attempt: int, sizes) -> list[np.ndarray]:
    """What :func:`_stream_draws` gives for each ``b`` in ``rows``, stacked:
    one ``(len(rows), n)`` int64 array per group size ``n`` in ``sizes``.

    numpy draws an integer below ``n`` from a 32-bit word ``u`` as
    ``(u * n) >> 32`` and rejects the word when the low half of ``u * n`` is
    below ``(2**32 - n) % n`` (Lemire's rule); a group of one subject takes
    no word.  Its PCG64 yields a 64-bit word's low half, then its high half,
    across calls, so a row's words are its raw 64-bit words read as
    little-endian uint32 pairs, group after group.  Each row's generator is
    seeded from :func:`_stream_states` and its raw words are taken at once;
    the picks of every row come from one product per group.  A row that
    holds a rejected word is drawn again by :func:`_stream_draws`, which
    gives its exact draws.
    """
    spans = [n if n > 1 else 0 for n in sizes]
    raw = np.empty((len(rows), (sum(spans) + 1) // 2), dtype="<u8")
    if raw.size:
        pcg64 = _pcg64_from_state()
        for row, state in zip(raw, _stream_states(seed, rows, attempt)):
            row[...] = pcg64(state).random_raw(raw.shape[1])
    words = raw.view("<u4")
    draws, rejected = [], np.zeros(len(rows), dtype=bool)
    start = 0
    for n, span in zip(sizes, spans):
        if not span:
            draws.append(np.zeros((len(rows), n), dtype=np.int64))
            continue
        product = np.multiply(words[:, start:start + span], n, dtype=np.uint64)
        start += span
        threshold = (2**32 - n) % n
        if threshold:
            low = product.astype("<u8", copy=False).view("<u4")[:, ::2]
            rejected |= (low < threshold).any(axis=1)
        product >>= 32
        draws.append(product.view(np.int64))
    for r in np.flatnonzero(rejected).tolist():
        for group, exact in zip(draws, _stream_draws(seed, int(rows[r]), attempt, sizes)):
            group[r] = exact
    return draws


def _multiplicities(picks: np.ndarray, n: int) -> np.ndarray:
    """Per-subject multiplicities of every row of draws from ``0..n-1``, by
    one bincount over the rows' offset subjects; offsets ``picks`` in
    place."""
    picks += np.arange(len(picks))[:, None] * n
    return np.bincount(picks.ravel(), minlength=picks.size).reshape(picks.shape)


def bootstrap_covariance(dataset: MarkerDataset, design: StudyDesign | None,
                         measure: WeightMeasure, n_boot: int, seed: int, *,
                         midrank: bool = False) -> CovarianceEstimate:
    """Subject-level bootstrap covariance of the wAUC vector.

    Subjects are resampled with replacement within each group.  Attempt
    ``a`` of replicate ``b`` draws from the stream of
    ``np.random.default_rng((seed, b, a))``: ``integers(0, n, n)`` for the
    diseased group, then for the non-diseased group, so results do not
    depend on scheduling.  The draws of all replicates come from one
    vectorised pass (:func:`_bootstrap_draws`) and reproduce those streams
    bit for bit.  A replicate leaving any stratum empty is redrawn from its
    next attempt, and each redraw is counted in ``n_redrawn``.  A replicate
    is kept as the per-subject multiplicities of its draw, and all
    replicates of a stratum pair are scored from them at once; no
    resampled dataset is built.  A covariance that is not finite raises
    ``WrocError``.
    """
    if n_boot < 100:
        raise ValueError(f"need at least 100 bootstrap replicates, got {n_boot}")
    if seed < 0:
        raise ValueError(f"bootstrap seed must be non-negative, got {seed}")
    pairs = _stratum_rows(_stratum_blocks(dataset, design)[0])
    sizes = (dataset.n_diseased, dataset.n_nondiseased)
    # per-subject value counts by stratum; times a draw's per-subject
    # multiplicities they give the resampled strata's sizes
    counts_d = np.array([x.counts for x, _ in pairs])
    counts_n = np.array([y.counts for _, y in pairs])
    # attempt 0 of every replicate, then attempts 1, 2, ... of the
    # replicates that still leave a stratum empty
    todo = np.arange(n_boot)
    n_redrawn = 0
    for attempt in range(_MAX_DRAWS):
        picks_d, picks_n = _bootstrap_draws(seed, todo, attempt, sizes)
        got_d = _multiplicities(picks_d, sizes[0])
        got_n = _multiplicities(picks_n, sizes[1])
        if attempt:
            mult_d[todo], mult_n[todo] = got_d, got_n
        else:
            mult_d, mult_n = got_d, got_n
        todo = todo[~((got_d @ counts_d.T).all(axis=1) & (got_n @ counts_n.T).all(axis=1))]
        if not todo.size:
            break
        n_redrawn += int(todo.size)
    else:
        raise WrocError(f"bootstrap could not draw a usable replicate in {_MAX_DRAWS} draws")
    draws = np.empty((n_boot, len(pairs)))
    for s, (x, y) in enumerate(pairs):
        draws[:, s] = _stratum_wauc_draws(x, y, measure, midrank, mult_d, mult_n)
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = np.atleast_2d(np.cov(draws, rowvar=False, ddof=1))
    if not np.isfinite(sigma).all():
        raise WrocError("the bootstrap covariance is not finite")
    return CovarianceEstimate(
        sigma=sigma,
        sigma_diseased=None,
        sigma_nondiseased=None,
        method="bootstrap",
        n_redrawn=n_redrawn,
    )
