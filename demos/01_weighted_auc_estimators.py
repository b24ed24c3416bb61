"""
Weighted-AUC estimators on a small clustered dataset
====================================================

Every accuracy summary in this package is a weighted area under the
empirical ROC curve: the full AUC, a partial AUC over a false-positive
band, and sensitivity at a fixed false-positive rate are all the same
integral with different weight measures.
"""

import numpy as np

from wroc.dataset import MarkerDataset, SubjectRecord
from wroc.estimators import auc, empirical_roc, pauc, sensitivity_at_fpr, wauc
from wroc.measures import WeightMeasure

rng = np.random.default_rng(7)

# Subjects are the independent unit; each carries a cluster of replicate
# measurements.  Diseased subjects score higher on average.
diseased = [
    SubjectRecord(f"d{i}", {(1, 1): tuple(rng.normal(1.2, 1.0, rng.integers(1, 4)))})
    for i in range(12)
]
nondiseased = [
    SubjectRecord(f"h{j}", {(1, 1): tuple(rng.normal(0.0, 1.0, rng.integers(1, 4)))})
    for j in range(15)
]
data = MarkerDataset(diseased=tuple(diseased), nondiseased=tuple(nondiseased),
                     n_markers=1, n_times=1)
m, n = data.stratum("diseased", 1).n, data.stratum("nondiseased", 1).n
print(f"dataset: {data.n_diseased} diseased / {data.n_nondiseased} nondiseased "
      f"subjects, {m} / {n} pooled replicates")

# The classic pooled AUC, with strict and midrank tie handling.
print(f"auc            {auc(data, 1):.4f}")
print(f"auc (midrank)  {auc(data, 1, midrank=True):.4f}")

# Partial AUC over the high-specificity band u in (0, 0.3); unnormalized,
# so the maximum attainable value is the band width 0.3.
print(f"pauc(0,0.3)    {pauc(data, 1, 0.0, 0.3):.4f}")

# Sensitivity when the false-positive rate is pinned at 10 percent.
print(f"sens at fpr=.1 {sensitivity_at_fpr(data, 1, 0.1):.4f}")

# The unifying form: wauc(W) for explicit weight measures.
full = WeightMeasure.full_auc()
band = WeightMeasure.partial_auc(0.0, 0.3, normalized=True)
spikes = WeightMeasure.steps(((0.05, 0.5), (0.2, 0.5)))
print(f"wauc full      {wauc(data, 1, full):.4f}   (equals auc)")
print(f"wauc norm pauc {wauc(data, 1, band):.4f}   (band average height)")
print(f"wauc 2 spikes  {wauc(data, 1, spikes):.4f}   (mean sensitivity at u=.05,.2)")

# The whole empirical ROC on a midpoint grid.
grid = (np.arange(1, 11) - 0.5) / 10
curve = empirical_roc(data, 1, grid)
for u, r in zip(grid, curve):
    print(f"  ROC({u:.2f}) = {r:.3f}")
