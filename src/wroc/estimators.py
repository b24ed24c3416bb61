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
  the positions of its strata in design order, and the dict of its
  searches (see :func:`_wins`).  Equal-size strata, as
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
  (only values whose rank lies in the window count: :func:`_window`,
  :func:`_clip`).  Estimates and placement values read their wins from
  it; the bootstrap draws count theirs from the same search, window and
  clip, per draw, in place (:func:`_stratum_wauc_draws`).  The search of
  a block pair's diseased values among its sorted non-diseased values is
  the same for every measure, so each cached block pair carries it (its
  ``searches`` dict, one entry per ``searchsorted`` side, made on first
  read; see ``MarkerDataset._blocks``): :func:`wauc_vector` for any full
  or partial AUC and the placement covariance of one dataset search each
  pair once.
* :func:`_stratum_wauc` is the one dispatch over measure kinds.  Full and
  partial AUCs sum the wins over all pairs (so ``pauc(0, 1)`` is the AUC).
  Atomic measures sum ``mass * ROC(u)`` over their atoms and take no
  ``midrank``.  :func:`_stratum_wauc_draws` gives the same values for many
  bootstrap draws of one stratum pair at once, from per-subject
  multiplicities with the draws on the last axis (one column a draw),
  with the same rank rule and win count, in one work buffer per bootstrap
  (:func:`_draw_work`).

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
# 8-byte entries of the bootstrap's work buffer (512 KB), made once per
# bootstrap_covariance call: its draws are scored in blocks of as many
# columns as fit, twice as many where the counts are 32-bit
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
    """The (marker, time) strata as ``(positions, diseased, non-diseased,
    searches)`` block pairs (see ``MarkerDataset._blocks``), each stratum
    with both groups non-empty: the first stratum with an empty group
    raises."""
    blocks = dataset._blocks(tuple(strata))
    empty = [int(np.min(idx)) for idx, x, y, _ in blocks if x.n == 0 or y.n == 0]
    if empty:
        raise _empty_group(strata[min(empty)][0])
    return blocks


def _stratum_blocks(dataset: MarkerDataset, design: StudyDesign | None):
    """Checked block pairs over a design's strata and the strata labels."""
    strata, labels = _design_strata(dataset, design)
    return _blocks_of(dataset, strata), labels


def _stratum_rows(blocks) -> list[tuple[Stratum, Stratum]]:
    """The strata of block pairs as 1-D (diseased, non-diseased) pairs, in
    design order: views of the blocks' rows (:meth:`Stratum.split`)."""
    rows = [(s, x_row, y_row) for idx, x, y, _ in blocks
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


def _window(measure: WeightMeasure, n):
    """A pauc measure's window of ranks ``(rank(upper), rank(lower)]`` over
    ``n`` values (an int, or one size a draw), as ``(hi, lo)``; ``None``
    for the other measures."""
    if measure.kind != "pauc":
        return None
    return _rank(measure.upper, n), _rank(measure.lower, n)


def _clip(pos, window, out=None):
    """The wins of positions ``pos`` that lie in a :func:`_window`: each
    position clipped into ``[hi, lo]``, less ``hi``; in place in ``out``
    when given."""
    hi, lo = window
    out = np.maximum(pos, hi, out=out)
    np.minimum(out, lo, out=out)
    out -= hi
    return out


def _wins(values, ordered, measure: WeightMeasure, midrank: bool,
          found: dict | None = None) -> np.ndarray:
    """Each value's win count over the ascending ``ordered`` values of its
    row: 1-D arrays are one stratum, 2-D ones a block's rows.

    A value's positions among ``ordered`` are the number of values below
    it and, with ``midrank``, at or below it: :func:`_positions` on the
    ``"left"`` and ``"right"`` side.  ``found`` keeps them by side for a
    caller that searches these values more than once, as a cached block
    pair's ``searches`` dict does: a side it holds is read from it, a side
    it lacks is searched and kept there, read-only.
    A pauc measure clips them to its window of ranks (:func:`_window`,
    :func:`_clip`).  A win counts 1 and a tie 1/2: wins are half-integers,
    so every sum of them is exact.
    """
    window = _window(measure, ordered.shape[-1])

    def positions(side):
        pos = None if found is None else found.get(side)
        if pos is None:
            pos = _positions(ordered, values, side)
            if found is not None:
                pos.flags.writeable = False
                found[side] = pos
        return pos if window is None else _clip(pos, window)

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


def _draw_rows(x: Stratum, y: Stratum, measure: WeightMeasure, midrank: bool) -> tuple:
    """The rows of the arrays that :func:`_stratum_wauc_draws` cuts from its
    work buffer, a column each per draw: each group's multiplicities, the
    prefix counts of the non-diseased values and, for full and partial
    AUCs, the diseased values' multiplicities and their wins (two with
    ``midrank``), for atomic measures the diseased prefix counts and one
    rank test per non-diseased position."""
    rows = (y.n_subjects, x.n_subjects, y.n + 1)
    if measure.is_atomic:
        return rows + (x.n + 1, y.n + 1)
    return rows + (x.n,) * (3 if midrank else 2)


def _draw_work(pairs, measure: WeightMeasure, midrank: bool) -> np.ndarray:
    """The one work buffer in which :func:`_stratum_wauc_draws` scores the
    draws of every stratum pair in ``pairs``: ``_DRAW_BLOCK_ENTRIES``
    8-byte entries, or one draw of the largest pair (:func:`_draw_rows`)
    when that is more."""
    entries = max([_DRAW_BLOCK_ENTRIES] + [sum(_draw_rows(x, y, measure, midrank))
                                           for x, y in pairs])
    return np.empty(entries, np.int64)


def _columns(work: np.ndarray, n_cols: int, n_rows) -> list[np.ndarray]:
    """Consecutive ``(rows, n_cols)`` arrays in ``work``, one per entry of
    ``n_rows``, each contiguous."""
    views, at = [], 0
    for rows in n_rows:
        views.append(work[at:at + rows * n_cols].reshape(rows, n_cols))
        at += rows * n_cols
    return views


def _stratum_wauc_draws(x: Stratum, y: Stratum, measure: WeightMeasure, midrank: bool,
                        mult_x: np.ndarray, mult_y: np.ndarray,
                        work: np.ndarray) -> np.ndarray:
    """The wAUC (as :func:`_stratum_wauc` gives it) of every resampled copy
    of one stratum pair.

    Column b of ``mult_x`` (``mult_y``) holds each diseased (non-diseased)
    subject's multiplicity in draw b: the resampled stratum holds subject
    s's values ``mult_x[s, b]`` times.  No resampled stratum is built or
    sorted.  Prefix sums of the multiplicities over the input's sorted
    values count a draw's values below any input position: the diseased
    values' positions among the sorted non-diseased ones (one search per
    side, :func:`_positions`), read through them and clipped to a pauc
    window of the draw's size (:func:`_window`, :func:`_clip`), are each
    draw's win counts, and they give each atom's order statistic.

    Draws lie on the last axis, so every gather copies whole rows
    (``np.take(..., axis=0, out=...)``).  Draws are scored in blocks of
    columns, in arrays cut from ``work`` (:func:`_draw_work`, whose dtype
    the counts take) and filled in place, so no block makes an array of
    its values.  Wins, prefix counts and their products are integers, each
    draw's sums are exact, and the divisions and atom sums run in
    :func:`_stratum_wauc`'s order, so each value equals it bit for bit.
    """
    _check_midrank(measure, midrank)
    n_draws = mult_x.shape[1]
    n_x, n_y = x.counts @ mult_x, y.counts @ mult_y
    # every count is a drawn stratum's size or less, and every product a
    # multiplicity times one: int32 holds them below 2**31
    largest = max(int(mult_x.max(initial=0)), int(mult_y.max(initial=0)), 1)
    drawn = max(int(n_x.max(initial=0)), int(n_y.max(initial=0)), 1)
    if largest * drawn < 2**31:
        work = work.view(np.int32)
    rows = _draw_rows(x, y, measure, midrank)
    step = max(1, len(work) // sum(rows))
    y_order = y.subjects[np.argsort(y.values, kind="stable")]
    if measure.is_atomic:
        x_order = x.subjects[np.argsort(x.values, kind="stable")]
        value = np.empty(n_draws)
    else:
        sides = ("left", "right") if midrank else ("left",)
        positions = [_positions(y.sorted_values, x.values, side) for side in sides]
        window = _window(measure, n_y)
        if window is not None:
            window = [edge.astype(work.dtype) for edge in window]
        sums = np.empty((len(sides), n_draws), dtype=np.int64)
    for start in range(0, n_draws, step):
        block = slice(start, start + step)
        my, mx, below, *rest = _columns(work, min(step, n_draws - start), rows)
        # below[q, b]: values of draw b's stratum at sorted input positions < q.
        # take copies a strided input and a buffer of another dtype, so the
        # block's columns go into the buffer first; mode="clip" only spares
        # take a buffered copy of out: every index is in range
        np.copyto(my, mult_y[:, block])
        np.copyto(mx, mult_x[:, block])
        below[0] = 0
        np.take(my, y_order, axis=0, out=below[1:], mode="clip")
        np.cumsum(below, axis=0, out=below)
        if measure.is_atomic:
            # the same over the diseased values: n_x[b] - below_x[j, b] of
            # draw b's values lie at sorted input positions >= j
            below_x, under = rest
            below_x[0] = 0
            np.take(mx, x_order, axis=0, out=below_x[1:], mode="clip")
            np.cumsum(below_x, axis=0, out=below_x)
            cols = np.arange(below.shape[1])
            block_value = 0.0
            for u, mass in measure.atoms:
                rank = np.maximum(_rank(u, n_y[block]), 1).astype(work.dtype)
                # the rank-th smallest drawn value sits at the last input
                # position with fewer than rank drawn values below it
                np.less(below, rank, out=under)
                threshold = y.sorted_values[under.sum(axis=0) - 1]
                past = below_x[np.searchsorted(x.sorted_values, threshold, side="right"), cols]
                block_value = block_value + mass * ((n_x[block] - past) / n_x[block])
            value[block] = block_value
        else:
            weights, *wins = rest
            np.take(mx, x.subjects, axis=0, out=weights, mode="clip")
            for pos, side_wins in zip(positions, wins):
                np.take(below, pos, axis=0, out=side_wins, mode="clip")
                if window is not None:
                    _clip(side_wins, [edge[block] for edge in window], out=side_wins)
            if midrank:
                # a tie counts 1/2: the values at or below, less those below
                wins[1] -= wins[0]
            for side_wins, total in zip(wins, sums):
                side_wins *= weights
                np.add.reduce(side_wins, axis=0, dtype=np.int64, out=total[block])
    if not measure.is_atomic:
        total = sums[0] + 0.5 * sums[1] if midrank else sums[0]
        value = total / (n_x * n_y)
    if measure.normalized:
        value = value / measure.total_mass
    return value


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
    ((_, x, y, _),) = _blocks_of(dataset, ((marker, time),))
    _, roc = _roc(x, y, u)
    return float(roc) if np.isscalar(u) else roc


def wauc(dataset: MarkerDataset, marker: int, measure: WeightMeasure, *,
         time: int | None = None, midrank: bool = False) -> float:
    """Integral of the empirical ROC curve against the weight measure."""
    ((_, x, y, _),) = _blocks_of(dataset, ((marker, time),))
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
    each block pair's search from its cached ``searches``."""
    blocks, labels = _stratum_blocks(dataset, design)
    values = np.empty(len(labels))
    for idx, x, y, found in blocks:
        values[idx] = _stratum_wauc(x, y, measure, midrank, found)
    return WaucVector(values, labels)
