"""Empirical survival curves and weighted-AUC point estimators.

All estimators are rank-based.  Pair indicators are strict (ties score 0)
unless the ``midrank`` flag is set, in which case ties score 1/2.  The
inverse survival function follows the order-statistic convention: the
threshold at false-positive rate ``u`` over ``n`` pooled non-diseased values
is the ``ceil((1 - u) * n)``-th smallest value, with the index clamped into
``[1, n]``.
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
# order statistic.  Safe for n well below 1e6.
_INDEX_GUARD = 1e-9


def _ceil_index(t: float) -> int:
    return int(math.ceil(t - _INDEX_GUARD))


class EmpiricalSurvival:
    """Right-continuous empirical survival curve of one pooled sample."""

    __slots__ = ("sorted_values", "n")

    def __init__(self, values, *, presorted: bool = False):
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise ValueError("empirical survival needs at least one value")
        self.sorted_values = arr if presorted else np.sort(arr)
        self.n = int(arr.size)

    def survival(self, x):
        """Fraction of values strictly greater than x (scalar or array)."""
        above = self.n - np.searchsorted(self.sorted_values, x, side="right")
        out = above / self.n
        return float(out) if np.isscalar(x) else out

    def inverse_survival(self, u: float) -> float:
        """Threshold whose empirical false-positive rate is u."""
        self._check_u(u)
        k = min(max(_ceil_index((1.0 - u) * self.n), 1), self.n)
        return float(self.sorted_values[k - 1])

    def inverse_survival_many(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        bad = ~((u > 0.0) & (u <= 1.0))
        if bad.any():
            self._check_u(float(u.flat[np.argmax(bad)]))
        k = np.ceil((1.0 - u) * self.n - _INDEX_GUARD).astype(np.intp)
        k = np.clip(k, 1, self.n)
        return self.sorted_values[k - 1]

    @staticmethod
    def _check_u(u: float) -> None:
        if not 0.0 < u <= 1.0:
            raise ValueError(f"false-positive rate must be in (0, 1], got {u}")


def survival_curve(dataset: MarkerDataset, marker: int, *, group: str = "nondiseased",
                   time: int | None = None) -> EmpiricalSurvival:
    stratum = dataset.stratum(group, marker, time)
    if stratum.n == 0:
        raise ValueError(f"no {group} measurements for marker {marker}")
    return EmpiricalSurvival(stratum.sorted_values, presorted=True)


def survival(dataset: MarkerDataset, marker: int, x, *, group: str = "diseased",
             time: int | None = None):
    return survival_curve(dataset, marker, group=group, time=time).survival(x)


def inverse_survival(dataset: MarkerDataset, marker: int, u: float, *,
                     group: str = "nondiseased", time: int | None = None) -> float:
    return survival_curve(dataset, marker, group=group, time=time).inverse_survival(u)


# -- array-level cores ---------------------------------------------------


def _require_nonempty(x: Stratum, y: Stratum, marker: int) -> None:
    if x.n == 0 or y.n == 0:
        raise ValueError(f"marker {marker} has an empty group in the requested stratum")


def _count_pairs(x_values: np.ndarray, y_sorted: np.ndarray, midrank: bool) -> float:
    """Sum over x of strict (or midrank) win counts against y_sorted."""
    below = np.searchsorted(y_sorted, x_values, side="left")
    total = float(below.sum())
    if midrank:
        ties = np.searchsorted(y_sorted, x_values, side="right") - below
        total += 0.5 * float(ties.sum())
    return total


def _auc_core(x: Stratum, y: Stratum, midrank: bool) -> float:
    return _count_pairs(x.values, y.sorted_values, midrank) / (x.n * y.n)


def _pauc_window(y_sorted: np.ndarray, lower: float, upper: float) -> np.ndarray:
    """Non-diseased values retained for the partial-AUC numerator.

    Rank-based: values with sort rank in ``(ceil((1-upper)n), ceil((1-lower)n)]``
    (1-based), i.e. strictly above the upper-rate order statistic and at or
    below the lower-rate one.  Rank selection keeps duplicated values
    deterministic.
    """
    n = y_sorted.size
    hi_idx = min(max(_ceil_index((1.0 - upper) * n), 0), n)
    lo_idx = min(max(_ceil_index((1.0 - lower) * n), 0), n)
    return y_sorted[hi_idx:lo_idx]


def _pauc_core(x: Stratum, y: Stratum, lower: float, upper: float) -> float:
    window = _pauc_window(y.sorted_values, lower, upper)
    return _count_pairs(x.values, window, midrank=False) / (x.n * y.n)


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


def auc(dataset: MarkerDataset, marker: int, *, time: int | None = None,
        midrank: bool = False) -> float:
    """Pairwise win fraction of diseased over non-diseased measurements.

    With times pooled this sums indicators over every cross-time pair, which
    is the longitudinal pooled form.
    """
    x = dataset.stratum("diseased", marker, time)
    y = dataset.stratum("nondiseased", marker, time)
    _require_nonempty(x, y, marker)
    return _auc_core(x, y, midrank)


def pauc(dataset: MarkerDataset, marker: int, lower: float, upper: float, *,
         time: int | None = None) -> float:
    """Unnormalized partial AUC over the false-positive window (lower, upper).

    The denominator keeps all pairs, so the estimand has mass
    ``upper - lower`` and ``pauc(0, 1)`` equals ``auc`` exactly.
    """
    if not 0.0 <= lower < upper <= 1.0:
        raise ValueError(f"need 0 <= lower < upper <= 1, got ({lower}, {upper})")
    x = dataset.stratum("diseased", marker, time)
    y = dataset.stratum("nondiseased", marker, time)
    _require_nonempty(x, y, marker)
    return _pauc_core(x, y, lower, upper)


def sensitivity_at_fpr(dataset: MarkerDataset, marker: int, at: float, *,
                       time: int | None = None) -> float:
    """Fraction of diseased measurements above the non-diseased threshold at
    false-positive rate ``at``."""
    x = dataset.stratum("diseased", marker, time)
    y = dataset.stratum("nondiseased", marker, time)
    _require_nonempty(x, y, marker)
    threshold = EmpiricalSurvival(y.sorted_values, presorted=True).inverse_survival(at)
    above = x.n - np.searchsorted(x.sorted_values, threshold, side="right")
    return float(above) / x.n


def empirical_roc(dataset: MarkerDataset, marker: int, u, *, time: int | None = None):
    """Empirical ROC value(s): diseased survival at the non-diseased threshold."""
    x = dataset.stratum("diseased", marker, time)
    y = dataset.stratum("nondiseased", marker, time)
    _require_nonempty(x, y, marker)
    y_surv = EmpiricalSurvival(y.sorted_values, presorted=True)
    x_surv = EmpiricalSurvival(x.sorted_values, presorted=True)
    if np.isscalar(u):
        return x_surv.survival(y_surv.inverse_survival(float(u)))
    return x_surv.survival(y_surv.inverse_survival_many(np.asarray(u, dtype=float)))


def wauc(dataset: MarkerDataset, marker: int, measure: WeightMeasure, *,
         time: int | None = None, midrank: bool = False) -> float:
    """Integral of the empirical ROC curve against the weight measure."""
    if measure.kind == "full":
        value = auc(dataset, marker, time=time, midrank=midrank)
    elif measure.kind == "pauc":
        value = pauc(dataset, marker, measure.lower, measure.upper, time=time)
    else:
        value = 0.0
        for u, mass in measure.atoms:
            value += mass * sensitivity_at_fpr(dataset, marker, u, time=time)
    if measure.normalized:
        value /= measure.total_mass
    return float(value)


def per_time_wauc(dataset: MarkerDataset, marker: int, time: int,
                  measure: WeightMeasure, *, midrank: bool = False) -> float:
    """wAUC restricted to a single time point; equals ``wauc`` when K = 1."""
    return wauc(dataset, marker, measure, time=time, midrank=midrank)


@dataclass(frozen=True)
class WaucVector:
    """wAUC estimates over a design's strata, in design order."""

    values: np.ndarray
    labels: tuple[str, ...]
    measure: WeightMeasure
    design: StudyDesign | None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def as_dict(self) -> dict[str, float]:
        return {label: float(v) for label, v in zip(self.labels, self.values)}


def design_strata(dataset: MarkerDataset, design: StudyDesign | None) -> list[tuple[int, int | None]]:
    """Stratum list for a design, or one pooled stratum per marker without one."""
    if design is None:
        return [(marker, None) for marker in range(1, dataset.n_markers + 1)]
    if design.n_markers != dataset.n_markers:
        raise ValueError(
            f"design expects {design.n_markers} markers, dataset has {dataset.n_markers}")
    if design.kind == "longitudinal" and design.n_times != dataset.n_times:
        raise ValueError(
            f"design expects {design.n_times} times, dataset has {dataset.n_times}")
    return design.strata()


def stratum_labels(design: StudyDesign | None, strata) -> tuple[str, ...]:
    """Labels for :func:`design_strata`'s strata: the design's, or
    ``marker<m>`` per pooled marker without one."""
    if design is None:
        return tuple(f"marker{marker}" for marker, _ in strata)
    return tuple(design.labels())


def wauc_vector(dataset: MarkerDataset, design: StudyDesign | None,
                measure: WeightMeasure, *, midrank: bool = False) -> WaucVector:
    """wAUC per design stratum (markers pooled for reader designs, the
    marker-by-time grid for longitudinal ones)."""
    strata = design_strata(dataset, design)
    values = [wauc(dataset, marker, measure, time=time, midrank=midrank)
              for marker, time in strata]
    return WaucVector(np.asarray(values), stratum_labels(design, strata), measure, design)
