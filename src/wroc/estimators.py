"""Empirical survival, ROC and weighted-AUC point estimators.

All estimators are rank-based.  Pair indicators are strict (ties score 0)
unless the ``midrank`` flag is set, in which case ties score 1/2.  The
inverse survival function follows the order-statistic convention: the
threshold at false-positive rate ``u`` over ``n`` pooled non-diseased values
is the ``ceil((1 - u) * n)``-th smallest value, with the index clamped into
``[1, n]``.

Every estimate comes from one core of four pieces:

* :func:`_stratum_pairs` turns a dataset and a design into the checked
  (diseased, non-diseased) :class:`Stratum` pairs and their labels; it and
  its one-stratum form :func:`_stratum_pair` are the only place the two
  groups' strata are paired.
* :func:`_rank` is the one rank rule, ``ceil((1 - u) * n)`` per rate.
* :func:`_roc` is the one ROC evaluator: the non-diseased thresholds at a
  set of rates (rows :func:`_threshold_rows` of the sorted values) and the
  diseased survival at those thresholds (:func:`_survival_at`).
  :func:`_roc_at` takes the rates as their threshold rows, for callers that
  reuse them.  The public :func:`survival` and :func:`inverse_survival`
  read one group's stratum through the same two halves.
* :func:`_stratum_wauc` is the one dispatch over measure kinds.  Full and
  partial AUCs count diseased wins over the non-diseased values whose rank
  lies in the measure's window, over all pairs (so ``pauc(0, 1)`` is the
  AUC); ``midrank`` scores ties 1/2 in that count.  Atomic measures sum
  ``mass * ROC(u)`` over their atoms and take no ``midrank``.
  :func:`_stratum_wauc_draws` gives the same values for many bootstrap
  draws at once, from per-subject multiplicities, with the same rank rule.

The public estimators, the covariance paths, the bootstrap and the
simulators call these pieces.
"""

from __future__ import annotations

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


def _rank(u, n) -> np.ndarray:
    """``ceil((1 - u) * n)`` per rate: the number of the ``n`` sorted values
    at or below the threshold for rate ``u``, in ``[0, n]`` for u in [0, 1].

    ``n`` is an int or an integer array broadcast against ``u``; any ``n``
    above 10,000,000 raises ``ValueError``.
    """
    largest = n.max(initial=0) if isinstance(n, np.ndarray) else n
    if largest > _MAX_RANK_N:
        raise ValueError(f"the rank rule is exact for at most {_MAX_RANK_N:,} values "
                         f"a stratum, got {int(largest):,}")
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


def _stratum_pair(dataset: MarkerDataset, marker: int,
                  time: int | None) -> tuple[Stratum, Stratum]:
    """The (diseased, non-diseased) strata of one (marker, time), both non-empty."""
    x = dataset.stratum("diseased", marker, time)
    y = dataset.stratum("nondiseased", marker, time)
    if x.n == 0 or y.n == 0:
        raise ValueError(f"marker {marker} has an empty group in the requested stratum")
    return x, y


def _group_stratum(dataset: MarkerDataset, marker: int, group: str,
                   time: int | None) -> Stratum:
    """One group's stratum of one (marker, time), non-empty."""
    stratum = dataset.stratum(group, marker, time)
    if stratum.n == 0:
        raise ValueError(f"no {group} measurements for marker {marker}")
    return stratum


def _stratum_pairs(dataset: MarkerDataset, design: StudyDesign | None):
    """Checked stratum pairs over a design's strata, in design order, and
    their labels; without a design, one pooled stratum per marker labelled
    ``marker<m>``."""
    if design is None:
        strata = [(marker, None) for marker in range(1, dataset.n_markers + 1)]
        labels = tuple(f"marker{marker}" for marker, _ in strata)
    else:
        if design.n_markers != dataset.n_markers:
            raise ValueError(
                f"design expects {design.n_markers} markers, dataset has {dataset.n_markers}")
        if design.kind == "longitudinal" and design.n_times != dataset.n_times:
            raise ValueError(
                f"design expects {design.n_times} times, dataset has {dataset.n_times}")
        strata = design.strata()
        labels = tuple(design.labels())
    return [_stratum_pair(dataset, marker, time) for marker, time in strata], labels


def _roc(x: Stratum, y: Stratum, u):
    """Non-diseased thresholds at rates ``u`` and the empirical ROC there
    (the diseased survival at each threshold)."""
    return _roc_at(x, y, _threshold_rows(u, y.n))


def _roc_at(x: Stratum, y: Stratum, rows: np.ndarray):
    """:func:`_roc` with the rates given as their :func:`_threshold_rows`."""
    thresholds = y.sorted_values[rows]
    return thresholds, _survival_at(x, thresholds)


def _survival_at(stratum: Stratum, points):
    """Fraction of the stratum's values strictly greater than each point."""
    above = stratum.n - np.searchsorted(stratum.sorted_values, points, side="right")
    return above / stratum.n


def _check_midrank(measure: WeightMeasure, midrank: bool) -> None:
    if midrank and measure.is_atomic:
        raise ValueError(f"midrank applies to auc and pauc measures, not {measure.selector()}")


def _count_pairs(x_values: np.ndarray, y_sorted: np.ndarray, midrank: bool) -> float:
    """Sum over x of strict (or midrank) win counts against y_sorted."""
    below = np.searchsorted(y_sorted, x_values, side="left")
    total = float(below.sum())
    if midrank:
        ties = np.searchsorted(y_sorted, x_values, side="right") - below
        total += 0.5 * float(ties.sum())
    return total


def _stratum_wauc(x: Stratum, y: Stratum, measure: WeightMeasure, midrank: bool) -> float:
    """Integral of the empirical ROC curve of one stratum pair against the
    weight measure."""
    _check_midrank(measure, midrank)
    if measure.is_atomic:
        _, roc = _roc(x, y, [u for u, _ in measure.atoms])
        value = sum(mass * r for (_, mass), r in zip(measure.atoms, roc))
    else:
        window = y.sorted_values
        if measure.kind == "pauc":
            # the values with rank in (rank(upper), rank(lower)]
            hi, lo = _rank((measure.upper, measure.lower), y.n)
            window = window[hi:lo]
        value = _count_pairs(x.values, window, midrank) / (x.n * y.n)
    if measure.normalized:
        value /= measure.total_mass
    return float(value)


def _stratum_wauc_draws(x: Stratum, y: Stratum, measure: WeightMeasure, midrank: bool,
                        mult_x: np.ndarray, mult_y: np.ndarray) -> np.ndarray:
    """:func:`_stratum_wauc` of every resampled copy of one stratum pair.

    Row b of ``mult_x`` (``mult_y``) holds each diseased (non-diseased)
    subject's multiplicity in draw b: the resampled stratum holds subject
    s's values ``mult_x[b, s]`` times.  No resampled stratum is built or
    sorted.  Cumulative multiplicities over the input's sorted non-diseased
    values count a draw's values below any input position; they give the
    window ranks (by :func:`_rank`), the win counts and each atom's order
    statistic.  Counts are exact integers, and the divisions and atom sums
    run in :func:`_stratum_wauc`'s order, so each value equals it bit for
    bit.  Draws are scored in blocks of about ``_DRAW_BLOCK_ENTRIES`` work
    array entries.
    """
    _check_midrank(measure, midrank)
    y_subjects = y.subjects[np.argsort(y.values, kind="stable")]
    if measure.is_atomic:
        x_subjects = x.subjects[np.argsort(x.values, kind="stable")]
    else:
        sides = ("left", "right") if midrank else ("left",)
        positions = [np.searchsorted(y.sorted_values, x.values, side=side) for side in sides]
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
            weights = block_x[:, x.subjects]
            counts = [below[:, p] for p in positions]
            if measure.kind == "pauc":
                hi = _rank(measure.upper, n_y)[:, None]
                lo = _rank(measure.lower, n_y)[:, None]
                counts = [np.clip(c, hi, lo) - hi for c in counts]
            total = (weights * counts[0]).sum(axis=1).astype(float)
            if midrank:
                total += 0.5 * (weights * (counts[1] - counts[0])).sum(axis=1).astype(float)
            value = total / (n_x * n_y)
        if measure.normalized:
            value = value / measure.total_mass
        out[start:start + step] = value
    return out


def _placements(x: Stratum, y: Stratum, midrank: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per-measurement placement values (vx against y, vy against x).

    ``vx[i]`` is the fraction of pooled non-diseased values beaten by the
    i-th diseased measurement; ``vy[j]`` the fraction of diseased values
    beating the j-th non-diseased one.  Both average to the same AUC.
    """
    below = np.searchsorted(y.sorted_values, x.values, side="left").astype(float)
    if midrank:
        below += 0.5 * (np.searchsorted(y.sorted_values, x.values, side="right") - below)
    vx = below / y.n
    above = (x.n - np.searchsorted(x.sorted_values, y.values, side="right")).astype(float)
    if midrank:
        above += 0.5 * (np.searchsorted(x.sorted_values, y.values, side="right")
                        - np.searchsorted(x.sorted_values, y.values, side="left"))
    vy = above / x.n
    return vx, vy


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
    _, roc = _roc(*_stratum_pair(dataset, marker, time), u)
    return float(roc) if np.isscalar(u) else roc


def wauc(dataset: MarkerDataset, marker: int, measure: WeightMeasure, *,
         time: int | None = None, midrank: bool = False) -> float:
    """Integral of the empirical ROC curve against the weight measure."""
    return _stratum_wauc(*_stratum_pair(dataset, marker, time), measure, midrank)


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
    marker-by-time grid for longitudinal ones)."""
    pairs, labels = _stratum_pairs(dataset, design)
    values = [_stratum_wauc(x, y, measure, midrank) for x, y in pairs]
    return WaucVector(np.asarray(values), labels)
