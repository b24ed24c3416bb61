"""
Longitudinal marker comparison across visits
============================================

Two markers are measured at three visits on the same subjects, with
clusters of replicate measurements at each visit.  Accuracy is estimated
per visit and the marker contrast averages the per-visit differences.
"""

from wroc.designs import StudyDesign
from wroc.estimators import wauc, wauc_vector
from wroc.inference import compare_modalities
from wroc.measures import WeightMeasure
from wroc.simulation import generate_dataset, replicate_rng, table4_scenario

scenario = table4_scenario(n=50, family="lognormal")
data = generate_dataset(scenario, replicate_rng(scenario.seed, 0))
design = StudyDesign.longitudinal(3)
measure = WeightMeasure.full_auc()

print(f"dataset: {data.n_diseased}+{data.n_nondiseased} subjects, "
      f"{data.n_markers} markers, {data.n_times} visits")

# Per-visit accuracy for each marker; the vector layout is marker-major.
vec = wauc_vector(data, design, measure)
for label, value in zip(vec.labels, vec.values):
    print(f"  {label:16s} {value:.4f}")

# The same numbers one at a time.
check = wauc(data, 1, measure, time=2)
print(f"\nmarker 1 at visit 2 recomputed directly: {check:.4f}")

# Marker 1 vs marker 2, averaging visit differences equally, then with
# inverse-covariance weights across visits.
for weights in ("equal", "optimal"):
    result = compare_modalities(data, design, measure, weights=weights)
    print(f"\n{weights:7s} delta {result.estimate:+.4f}  "
          f"se {result.variance**0.5:.4f}  p {result.p_value:.2e}")
    print(f"  visit weights: {[round(float(w), 3) for w in result.weights.weights]}")
