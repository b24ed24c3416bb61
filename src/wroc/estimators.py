"""Empirical survival, ROC and weighted-AUC point estimators.

All estimators are rank-based.  Pair indicators are strict (ties score 0)
unless the ``midrank`` flag is set, in which case ties score 1/2.  The
inverse survival function follows the order-statistic convention: the
threshold at false-positive rate ``u`` over ``n`` pooled non-diseased values
is the ``ceil((1 - u) * n)``-th smallest value, with the index clamped into
``[1, n]``.

Every estimate comes from one core of five pieces:

* :func:`_blocks_of` is the one place strata are cut, checked and
  paired: it turns (marker, time) strata into checked block pairs, and
  :func:`_stratum_blocks` gives a design's blocks with the strata labels.
  A block pair holds the strata whose diseased sizes and non-diseased
  sizes are both equal: per group a :class:`Stratum` of ``(k, n)``
  values, sorted values and subject rows plus ``(k, n_subjects)`` counts,
  and the positions of its strata in design order.  Equal-size strata, as
  in every simulated study, make one block.  A stratum of its own size is
  a 1-D :class:`Stratum` at an int position, and the same code takes it
  as one row.  Estimates and the analytic covariance take one vectorised
  pass per block, not a loop per stratum.  :func:`_stratum_rows` reads
  the blocks' rows back as 1-D pairs in design order, for the bootstrap,
  the table2 method comparison and the covariance's error path.
* :func:`_rank` is the one rank rule, ``ceil((1 - u) * n)`` per rate.
* :func:`_roc` is the one ROC evaluator: the non-diseased thresholds at a
  set of rates (rows :func:`_threshold_rows` of the sorted values) and the
  diseased survival at those thresholds (:func:`_survival_at`), for a
  stratum pair or for each row of a block pair.  :func:`_roc_at` takes the
  rates as their threshold rows, for callers that reuse them.  The public
  :func:`survival` and :func:`inverse_survival` read one group's stratum
  through the same two halves.
* :func:`_wins` is the one win count: how many sorted non-diseased values
  each diseased value beats, row by row (:func:`_positions`), with the one
  tie rule (``midrank`` scores a tie 1/2) and the one pAUC window rule
  (only values whose rank lies in the window count).  Estimates, placement
  values and bootstrap draws all read their wins from it.  The search of
  a block pair's diseased values among its sorted non-diseased values is
  the same for every measure, so the dataset keeps it beside the block
  (``MarkerDataset._searches``, one per ``searchsorted`` side, made on
  first read): :func:`wauc_vector` for any full or partial AUC and the
  placement covariance of one dataset search each pair once.
* :func:`_stratum_wauc` is the one dispatch over measure kinds.  Full and
  partial AUCs sum the wins over all pairs (so ``pauc(0, 1)`` is the AUC).
  Atomic measures sum ``mass * ROC(u)`` over their atoms and take no
  ``midrank``.  :func:`_stratum_wauc_draws` gives the same values for many
  bootstrap draws of one stratum pair at once, from per-subject
  multiplicities, with the same rank rule and win count.

The public estimators, the covariance paths, the bootstrap and the
simulators call these pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import MarkerDataset, Stratum
from .designs import StudyDesign
from .measures import WeightMeasure

# Guards exact-integer boundaries of (1 - u) * n against float drift; the
# product can land a few ulp above an integer and ceil would then skip an
# order statistic.  The rank equals the exact rational ceil((1 - u) * n)
# for n <= 1e7 with rates given to at most 6 decimals or as k / n (tested);
# above that the drift can pass the guard (sampled from about n = 1.8e7),
# so larger n are rejected.
_INDEX_GUARD = 1e-9
_MAX_RANK_N = 10_000_000
# work-array entries per block of bootstrap draws scored at once
_DRAW_BLOCK_ENTRIES = 1 << 16


def _rank(u, n):
    """``ceil((1 - u) * n)`` per rate: the number of the ``n`` sorted values
    at or below the threshold for rate ``u``, in ``[0, n]`` for u in [0, 1].

    ``n`` is an int or an integer array broadcast against ``u``; any ``n``
    above 10,000,000 raises ``ValueError``.  A float ``u`` with an int ``n``
    gives a Python int, by the same float steps in pure Python.
    """
    largest = n.max(initial=0) if isinstance(n, np.ndarray) else n
    if largest > _MAX_RANK_N:
        raise ValueError(f"the rank rule is exact for at most {_MAX_RANK_N:,} values "
                         f"a stratum, got {int(largest):,}")
    if isinstance(u, float) and isinstance(n, int):
        return math.ceil((1.0 - u) * n - _INDEX_GUARD)
    return np.ceil((1.0 - np.asarray(u, dtype=float)) * n - _INDEX_GUARD).astype(np.intp)


def _threshold_rows(u, n: int) -> np.ndarray:
    """0-based rows of ``n`` ascending values that hold the thresholds at
    false-positive rates ``u``: :func:`_rank` clamped to at least 1, minus 1.
    Rates outside (0, 1] raise ``ValueError``."""
    u = np.asarray(u, dtype=float)
    bad = ~((u > 0.0) & (u <= 1.0))
    if bad.any():
        raise ValueError("false-positive rate must be in (0, 1], "
                         f"got {float(u.flat[np.argmax(bad)])}")
    return np.maximum(_rank(u, n), 1) - 1


# -- the core --------------------------------------------------------------


def _empty_group(marker: int) -> ValueError:
    return ValueError(f"marker {marker} has an empty group in the requested stratum")


def _group_stratum(dataset: MarkerDataset, marker: int, group: str,
                   time: int | None) -> Stratum:
    """One group's stratum of one (marker, time), non-empty."""
    stratum = dataset.stratum(group, marker, time)
    if stratum.n == 0:
        raise ValueError(f"no {group} measurements for marker {marker}")
    return stratum


def _design_strata(dataset: MarkerDataset, design: StudyDesign | None):
    """A design's (marker, time) strata in design order and their labels,
    checked against the dataset; without a design, one pooled stratum per
    marker labelled ``marker<m>``."""
    if design is None:
        strata = [(marker, None) for marker in range(1, dataset.n_markers + 1)]
        return strata, tuple(f"marker{marker}" for marker, _ in strata)
    if design.n_markers != dataset.n_markers:
        raise ValueError(
            f"design expects {design.n_markers} markers, dataset has {dataset.n_markers}")
    if design.kind == "longitudinal" and design.n_times != dataset.n_times:
        raise ValueError(
            f"design expects {design.n_times} times, dataset has {dataset.n_times}")
    return design._strata, design._labels


def _blocks_of(dataset: MarkerDataset, strata):
    """The (marker, time) strata as ``(positions, diseased, non-diseased)``
    block pairs (see ``MarkerDataset._blocks``), each stratum with both
    groups non-empty: the first stratum with an empty group raises."""
    blocks = dataset._blocks(tuple(strata))
    empty = [int(np.min(idx)) for idx, x, y in blocks if x.n == 0 or y.n == 0]
    if empty:
        raise _empty_group(strata[min(empty)][0])
    return blocks


def _stratum_blocks(dataset: MarkerDataset, design: StudyDesign | None):
    """Checked block pairs over a design's strata and the strata labels."""
    strata, labels = _design_strata(dataset, design)
    return _blocks_of(dataset, strata), labels


def _searched_blocks(dataset: MarkerDataset, design: StudyDesign | None):
    """:func:`_stratum_blocks` with the dataset's cached searches of each
    block pair (``MarkerDataset._searches``): ``(blocks, searches,
    labels)``."""
    strata, labels = _design_strata(dataset, design)
    strata = tuple(strata)
    return _blocks_of(dataset, strata), dataset._searches(strata), labels


def _stratum_rows(blocks) -> list[tuple[Stratum, Stratum]]:
    """The strata of block pairs as 1-D (diseased, non-diseased) pairs, in
    design order: views of the blocks' rows (:meth:`Stratum.split`)."""
    rows = [(s, x_row, y_row) for idx, x, y in blocks
            for s, x_row, y_row in zip(np.atleast_1d(idx).tolist(), x.split(), y.split())]
    rows.sort(key=lambda row: row[0])
    return [(x, y) for _, x, y in rows]


def _roc(x, y, u):
    """Non-diseased thresholds at rates ``u`` and the empirical ROC there
    (the diseased survival at each threshold), of a stratum pair or of each
    row of a block pair."""
    return _roc_at(x, y, _threshold_rows(u, y.n))


def _roc_at(x, y, rows: np.ndarray):
    """:func:`_roc` with the rates given as their :func:`_threshold_rows`."""
    thresholds = y.sorted_values.take(rows, axis=-1)
    return thresholds, _survival_at(x, thresholds)


def _survival_at(stratum: Stratum, points):
    """Fraction of the stratum's values strictly greater than each point;
    for a block, of each row's values at its row of points."""
    above = stratum.n - _positions(stratum.sorted_values, points, "right")
    return above / stratum.n


def _positions(ordered: np.ndarray, values, side: str):
    """``searchsorted`` row by row: each value's position among the
    ascending ``ordered`` values of its row.  1-D ``ordered`` is one row.

    numpy has no row-wise ``searchsorted``.  A loop over the rows was the
    fastest form measured: at 6 rows of 50 values (numpy 2, an AVX-512
    Xeon) a broadcast comparison took 2.4 times as long and a stable
    argsort of the merged rows 2.8.
    """
    if ordered.ndim == 1:
        return ordered.searchsorted(values, side)
    out = np.empty(values.shape, dtype=np.intp)
    for out_row, row, row_values in zip(out, ordered, values):
        out_row[:] = row.searchsorted(row_values, side)
    return out


def _check_midrank(measure: WeightMeasure, midrank: bool) -> None:
    if midrank and measure.is_atomic:
        raise ValueError(f"midrank applies to auc and pauc measures, not {measure.selector()}")


def _wins(values, ordered, measure: WeightMeasure, midrank: bool,
          below: np.ndarray | None = None, found: dict | None = None) -> np.ndarray:
    """Each value's win count over the ascending ``ordered`` values of its
    row: 1-D arrays are one stratum, 2-D ones a block's rows.

    A value's positions among ``ordered`` are the number of values below
    it and, with ``midrank``, at or below it: :func:`_positions` on the
    ``"left"`` and ``"right"`` side.  ``found`` keeps them by side for a
    caller that searches these values more than once: a side it holds is
    read from it, a side it lacks is searched and kept there, read-only.
    With ``below`` (one stratum; one row per bootstrap
    draw, ``below[b, q]`` the draw's values at input positions < q) they
    are read per draw, over the draw sizes ``n_y = below[:, -1:]`` in place
    of the row length.  A pauc measure clips them to its window of ranks
    ``(rank(upper), rank(lower)]`` over ``n_y``.  A win counts 1 and a tie
    1/2: wins are half-integers, so every sum of them is exact.
    """
    n_y = ordered.shape[-1] if below is None else below[:, -1:]
    window = measure.kind == "pauc"
    if window:
        hi, lo = _rank(measure.upper, n_y), _rank(measure.lower, n_y)

    def positions(side):
        pos = None if found is None else found.get(side)
        if pos is None:
            pos = _positions(ordered, values, side)
            if found is not None:
                pos.flags.writeable = False
                found[side] = pos
        if below is not None:
            pos = below[:, pos]
        return np.minimum(np.maximum(pos, hi), lo) - hi if window else pos

    wins = positions("left")
    if midrank:
        return wins + 0.5 * (positions("right") - wins)
    return wins


def _stratum_wauc(x: Stratum, y: Stratum, measure: WeightMeasure,
                  midrank: bool, found: dict | None = None) -> np.ndarray:
    """Integral of the empirical ROC curve of a stratum pair against the
    weight measure: a 0-d array, or for a block pair one value per row.
    ``found`` holds the pair's searches for :func:`_wins`."""
    _check_midrank(measure, midrank)
    if measure.is_atomic:
        _, roc = _roc(x, y, [u for u, _ in measure.atoms])
        # atom by atom, the order in which the bootstrap draws add them
        value = 0
        for (_, mass), column in zip(measure.atoms, roc.T):
            value = value + mass * column
    else:
        wins = _wins(x.values, y.sorted_values, measure, midrank, found=found)
        value = np.add.reduce(wins, axis=-1) / (x.n * y.n)
    if measure.normalized:
        value = value / measure.total_mass
    return value


def _stratum_wauc_draws(x: Stratum, y: Stratum, measure: WeightMeasure, midrank: bool,
                        mult_x: np.ndarray, mult_y: np.ndarray) -> np.ndarray:
    """The wAUC (as :func:`_stratum_wauc` gives it) of every resampled copy
    of one stratum pair.

    Row b of ``mult_x`` (``mult_y``) holds each diseased (non-diseased)
    subject's multiplicity in draw b: the resampled stratum holds subject
    s's values ``mult_x[b, s]`` times.  No resampled stratum is built or
    sorted.  Cumulative multiplicities over the input's sorted non-diseased
    values count a draw's values below any input position: :func:`_wins`
    reads each draw's win counts through them, and they give each atom's
    order statistic.  Wins are half-integers, so each draw's total is exact,
    and the divisions and atom sums run in :func:`_stratum_wauc`'s order, so
    each value equals it bit for bit.  Draws are scored in blocks of about
    ``_DRAW_BLOCK_ENTRIES`` work array entries, all from one search of the
    diseased values among the sorted non-diseased ones.
    """
    _check_midrank(measure, midrank)
    y_subjects = y.subjects[np.argsort(y.values, kind="stable")]
    if measure.is_atomic:
        x_subjects = x.subjects[np.argsort(x.values, kind="stable")]
    else:
        found = {}   # the one search, made by the first block's _wins
    step = max(1, _DRAW_BLOCK_ENTRIES // (x.n + y.n + 1))
    out = np.empty(len(mult_x))
    for start in range(0, len(mult_x), step):
        block_x, block_y = mult_x[start:start + step], mult_y[start:start + step]
        # below[b, q]: values of draw b's stratum at sorted input positions < q
        below = np.zeros((len(block_y), y.n + 1), dtype=np.intp)
        np.cumsum(block_y[:, y_subjects], axis=1, out=below[:, 1:])
        n_y = below[:, -1]
        n_x = block_x @ x.counts
        if measure.is_atomic:
            # above[b, j]: values of draw b's stratum at sorted input positions >= j
            above = np.zeros((len(n_x), x.n + 1), dtype=np.intp)
            above[:, :-1] = np.cumsum(block_x[:, x_subjects[::-1]], axis=1)[:, ::-1]
            rows = np.arange(len(n_x))
            value = 0.0
            for u, mass in measure.atoms:
                rank = np.maximum(_rank(u, n_y), 1)
                # the rank-th smallest drawn value sits at the last input
                # position with fewer than rank drawn values below it
                threshold = y.sorted_values[(below < rank[:, None]).sum(axis=1) - 1]
                exceed = above[rows, np.searchsorted(x.sorted_values, threshold, side="right")]
                value = value + mass * (exceed / n_x)
        else:
            wins = _wins(x.values, y.sorted_values, measure, midrank, below, found)
            value = (block_x[:, x.subjects] * wins).sum(axis=1) / (n_x * n_y)
        if measure.normalized:
            value = value / measure.total_mass
        out[start:start + step] = value
    return out


# -- public estimators ---------------------------------------------------


def survival(dataset: MarkerDataset, marker: int, x, *, group: str = "diseased",
             time: int | None = None):
    """Fraction of the group's values strictly greater than x (scalar or array)."""
    out = _survival_at(_group_stratum(dataset, marker, group, time), x)
    return float(out) if np.isscalar(x) else out


def inverse_survival(dataset: MarkerDataset, marker: int, u, *,
                     group: str = "nondiseased", time: int | None = None):
    """Threshold whose empirical false-positive rate in the group is u
    (scalar or array)."""
    stratum = _group_stratum(dataset, marker, group, time)
    out = stratum.sorted_values[_threshold_rows(u, stratum.n)]
    return float(out) if np.isscalar(u) else out


def auc(dataset: MarkerDataset, marker: int, *, time: int | None = None,
        midrank: bool = False) -> float:
    """Pairwise win fraction of diseased over non-diseased measurements.

    With times pooled this sums indicators over every cross-time pair, which
    is the longitudinal pooled form.
    """
    return wauc(dataset, marker, WeightMeasure.full_auc(), time=time, midrank=midrank)


def pauc(dataset: MarkerDataset, marker: int, lower: float, upper: float, *,
         time: int | None = None) -> float:
    """Unnormalized partial AUC over the false-positive window (lower, upper).

    The denominator keeps all pairs, so the estimand has mass
    ``upper - lower`` and ``pauc(0, 1)`` equals ``auc`` exactly.
    """
    return wauc(dataset, marker, WeightMeasure.partial_auc(lower, upper), time=time)


def sensitivity_at_fpr(dataset: MarkerDataset, marker: int, at: float, *,
                       time: int | None = None) -> float:
    """Fraction of diseased measurements above the non-diseased threshold at
    false-positive rate ``at``."""
    return empirical_roc(dataset, marker, float(at), time=time)


def empirical_roc(dataset: MarkerDataset, marker: int, u, *, time: int | None = None):
    """Empirical ROC value(s): diseased survival at the non-diseased threshold."""
    ((_, x, y),) = _blocks_of(dataset, ((marker, time),))
    _, roc = _roc(x, y, u)
    return float(roc) if np.isscalar(u) else roc


def wauc(dataset: MarkerDataset, marker: int, measure: WeightMeasure, *,
         time: int | None = None, midrank: bool = False) -> float:
    """Integral of the empirical ROC curve against the weight measure."""
    ((_, x, y),) = _blocks_of(dataset, ((marker, time),))
    return float(_stratum_wauc(x, y, measure, midrank))


@dataclass(frozen=True)
class WaucVector:
    """wAUC estimates over a design's strata, in design order."""

    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


def wauc_vector(dataset: MarkerDataset, design: StudyDesign | None,
                measure: WeightMeasure, *, midrank: bool = False) -> WaucVector:
    """wAUC per design stratum (markers pooled for reader designs, the
    marker-by-time grid for longitudinal ones).  Full and partial AUCs read
    each block pair's search from the dataset's cache."""
    blocks, searches, labels = _searched_blocks(dataset, design)
    values = np.empty(len(labels))
    for (idx, x, y), found in zip(blocks, searches):
        values[idx] = _stratum_wauc(x, y, measure, midrank, found)
    return WaucVector(values, labels)
