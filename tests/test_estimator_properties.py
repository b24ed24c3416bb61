"""Property-based checks of the rank estimators."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from wroc.estimators import auc, inverse_survival, pauc, sensitivity_at_fpr, wauc
from wroc.measures import WeightMeasure

from conftest import singles_dataset
from oracles import auc_oracle, inverse_survival_oracle, pauc_oracle

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
# quantized values produce ties with high probability
tied = st.integers(min_value=-5, max_value=5).map(lambda k: k / 2.0)
values = st.one_of(st.lists(finite, min_size=1, max_size=12),
                   st.lists(tied, min_size=1, max_size=12))
rates = st.floats(min_value=0.001, max_value=1.0)


@given(values, values)
@settings(deadline=None)
def test_auc_matches_oracle_and_range(xs, ys):
    ds = singles_dataset(xs, ys)
    strict = auc(ds, 1)
    mid = auc(ds, 1, midrank=True)
    assert strict == auc_oracle(xs, ys)
    assert mid == auc_oracle(xs, ys, midrank=True)
    assert 0.0 <= strict <= mid <= 1.0


@given(values, values, rates, rates)
@settings(deadline=None)
def test_pauc_matches_oracle_and_nests(xs, ys, a, b):
    lower, upper = sorted((a, b))
    if lower == upper:
        return
    ds = singles_dataset(xs, ys)
    part = pauc(ds, 1, lower, upper)
    assert part == pauc_oracle(xs, ys, lower, upper)
    window = WeightMeasure.partial_auc(lower, upper)
    assert wauc(ds, 1, window, midrank=True) == pauc_oracle(xs, ys, lower, upper, midrank=True)
    assert 0.0 <= part <= auc(ds, 1) + 1e-15
    # full window degenerates to the AUC bitwise
    assert pauc(ds, 1, 0.0, 1.0) == auc(ds, 1)


@given(values, values, rates)
@settings(deadline=None)
def test_threshold_estimators_match_oracles(xs, ys, u):
    ds = singles_dataset(xs, ys)
    assert inverse_survival(ds, 1, u) == inverse_survival_oracle(ys, u)
    sens = sensitivity_at_fpr(ds, 1, u)
    assert 0.0 <= sens <= 1.0


@given(values, values)
@settings(deadline=None)
def test_monotone_transform_invariance(xs, ys):
    # power-of-two scaling is exact in floats, so it preserves every
    # comparison (2v+1 would not: adding 1.0 can collapse tiny gaps)
    fx = [8.0 * v for v in xs]
    fy = [8.0 * v for v in ys]
    ds = singles_dataset(xs, ys)
    dt = singles_dataset(fx, fy)
    assert auc(ds, 1) == auc(dt, 1)
    assert auc(ds, 1, midrank=True) == auc(dt, 1, midrank=True)
    assert pauc(ds, 1, 0.1, 0.7) == pauc(dt, 1, 0.1, 0.7)
    assert sensitivity_at_fpr(ds, 1, 0.4) == sensitivity_at_fpr(dt, 1, 0.4)


@given(st.lists(tied, min_size=1, max_size=12), st.lists(tied, min_size=1, max_size=12))
@settings(deadline=None)
def test_affine_transform_invariance_on_exact_values(xs, ys):
    # half-integers keep 2v+1 exact, so general affine maps are safe here
    fx = [2.0 * v + 1.0 for v in xs]
    fy = [2.0 * v + 1.0 for v in ys]
    ds = singles_dataset(xs, ys)
    dt = singles_dataset(fx, fy)
    assert auc(ds, 1) == auc(dt, 1)
    assert auc(ds, 1, midrank=True) == auc(dt, 1, midrank=True)
    assert pauc(ds, 1, 0.1, 0.7) == pauc(dt, 1, 0.1, 0.7)


@given(values, values, st.randoms(use_true_random=False))
@settings(deadline=None)
def test_permutation_invariance(xs, ys, rnd):
    ds = singles_dataset(xs, ys)
    xs2, ys2 = list(xs), list(ys)
    rnd.shuffle(xs2)
    rnd.shuffle(ys2)
    dt = singles_dataset(xs2, ys2)
    assert auc(ds, 1) == auc(dt, 1)
    assert pauc(ds, 1, 0.0, 0.5) == pauc(dt, 1, 0.0, 0.5)


@given(values, values)
@settings(deadline=None)
def test_normalized_measure_scaling(xs, ys):
    ds = singles_dataset(xs, ys)
    raw = wauc(ds, 1, WeightMeasure.partial_auc(0.2, 0.6))
    norm = wauc(ds, 1, WeightMeasure.partial_auc(0.2, 0.6, normalized=True))
    assert math.isclose(norm, raw / 0.4, rel_tol=0, abs_tol=1e-15)


@given(st.lists(tied, min_size=2, max_size=10), st.lists(tied, min_size=2, max_size=10))
@settings(deadline=None)
def test_separated_samples_hit_bounds(xs, ys):
    shift = max(ys) - min(xs) + 1.0
    ds = singles_dataset([v + shift for v in xs], ys)
    assert auc(ds, 1) == 1.0
    ds_rev = singles_dataset([v - (max(xs) - min(ys) + 1.0) for v in xs], ys)
    assert auc(ds_rev, 1) == 0.0


@given(st.integers(2, 40), rates)
@settings(deadline=None)
def test_roc_of_identical_samples_steps(n, u):
    vals = list(np.arange(1.0, n + 1.0))
    ds = singles_dataset(vals, vals)
    # threshold removes k = ceil((1-u)n) values from the false-positive side
    # and the same count from the diseased side
    k = min(max(math.ceil((1.0 - u) * n - 1e-9), 1), n)
    expected = (n - k) / n
    assert sensitivity_at_fpr(ds, 1, u) == expected
