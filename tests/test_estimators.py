"""Point estimators against hand-computed values and brute-force oracles."""

import numpy as np
import pytest

from wroc.designs import StudyDesign
from wroc.estimators import (
    auc,
    empirical_roc,
    inverse_survival,
    pauc,
    sensitivity_at_fpr,
    survival,
    wauc,
    wauc_vector,
)
from wroc.measures import WeightMeasure

from conftest import clustered_dataset, paired_dataset, singles_dataset
from oracles import (
    auc_oracle,
    inverse_survival_oracle,
    pauc_oracle,
    sensitivity_oracle,
    steps_oracle,
)


# -- hand-frozen small cases ---------------------------------------------


def test_auc_simple():
    ds = singles_dataset([2.0, 4.0], [1.0, 3.0])
    # wins: 2>1, 4>1, 4>3 -> 3 of 4 pairs
    assert auc(ds, 1) == 0.75


def test_auc_ties_strict_vs_midrank():
    ds = singles_dataset([1.0, 2.0], [1.0, 2.0])
    assert auc(ds, 1) == 0.25
    assert auc(ds, 1, midrank=True) == 0.5


def test_inverse_survival_order_statistics():
    ds = singles_dataset([0.0], [10.0, 20.0, 30.0, 40.0])
    # k = ceil((1-u)*4), k-th smallest
    assert inverse_survival(ds, 1, 0.4) == 30.0
    assert inverse_survival(ds, 1, 0.5) == 20.0
    assert inverse_survival(ds, 1, 0.25) == 30.0   # exact integer boundary
    assert inverse_survival(ds, 1, 1.0) == 10.0    # k clamps to 1
    assert inverse_survival(ds, 1, 0.01) == 40.0


def test_inverse_survival_rejects_zero():
    ds = singles_dataset([0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        inverse_survival(ds, 1, 0.0)


def test_inverse_survival_of_an_array_names_first_bad_rate():
    ds = singles_dataset([0.0], [40.0, 10.0, 30.0, 20.0])
    got = inverse_survival(ds, 1, [0.25, 1.0])
    assert isinstance(got, np.ndarray)
    np.testing.assert_array_equal(got, [30.0, 10.0])
    assert type(inverse_survival(ds, 1, 0.25)) is float
    with pytest.raises(ValueError, match=r"must be in \(0, 1\], got 1\.5$"):
        inverse_survival(ds, 1, [0.25, 0.5, 1.5, 0.7, 0.0])
    with pytest.raises(ValueError, match=r"got nan$"):
        inverse_survival(ds, 1, np.array([[0.5, np.nan]]))


def test_sensitivity_at_fpr():
    ds = singles_dataset([10.0, 20.0], list(range(1, 11)))
    # u0=0.2 -> threshold is the 8th smallest non-diseased value (8)
    assert sensitivity_at_fpr(ds, 1, 0.2) == 1.0
    ds2 = singles_dataset([5.0, 9.0], list(range(1, 11)))
    assert sensitivity_at_fpr(ds2, 1, 0.2) == 0.5


def test_pauc_rank_window():
    ds = singles_dataset([5.0, 6.0], [1.0, 2.0, 3.0, 4.0])
    # (0, 0.5): window keeps the top two order statistics {3, 4};
    # both diseased beat both -> 4 wins over all 2*4 pairs
    assert pauc(ds, 1, 0.0, 0.5) == 0.5
    # full window equals the AUC exactly
    assert pauc(ds, 1, 0.0, 1.0) == auc(ds, 1)


def test_pauc_bad_window():
    ds = singles_dataset([1.0], [0.0])
    with pytest.raises(ValueError):
        pauc(ds, 1, 0.5, 0.5)
    with pytest.raises(ValueError):
        pauc(ds, 1, -0.1, 0.5)


def test_empirical_roc_values():
    vals = [1.0, 2.0, 3.0, 4.0, 5.0]
    ds = singles_dataset(vals, vals)
    # u=0.3: threshold = 4th smallest = 4, diseased fraction above = 1/5
    assert empirical_roc(ds, 1, 0.3) == 0.2
    grid = np.array([0.2, 0.4, 0.6, 0.8])
    np.testing.assert_allclose(empirical_roc(ds, 1, grid), grid)
    # strict survival: at u=1 the threshold is the minimum, which one
    # diseased value equals rather than exceeds
    assert empirical_roc(ds, 1, 1.0) == 0.8


def test_survival_strict_inequality():
    ds = singles_dataset([1.0, 2.0, 2.0, 3.0], [0.0])
    assert survival(ds, 1, 2.0) == 0.25
    assert survival(ds, 1, 1.9999) == 0.75


def test_steps_measure_and_normalization():
    ds = singles_dataset([5.0, 6.0], [1.0, 2.0, 3.0, 4.0])
    steps = WeightMeasure.steps(((0.25, 0.5), (0.5, 0.5)))
    expected = 0.5 * sensitivity_at_fpr(ds, 1, 0.25) + 0.5 * sensitivity_at_fpr(ds, 1, 0.5)
    assert wauc(ds, 1, steps) == expected

    part = WeightMeasure.partial_auc(0.0, 0.5, normalized=True)
    assert wauc(ds, 1, part) == pauc(ds, 1, 0.0, 0.5) / 0.5


def test_point_measure_is_sensitivity():
    ds = singles_dataset([5.0, 9.0], list(range(1, 11)))
    point = WeightMeasure.point_mass(0.2)
    assert wauc(ds, 1, point) == sensitivity_at_fpr(ds, 1, 0.2)


def test_empty_stratum_raises():
    ds = clustered_dataset([{(1, 1): (1.0,)}], [{(1, 1): (0.5,)}],
                           n_markers=2, n_times=1)
    with pytest.raises(ValueError):
        auc(ds, 2)


# -- pooled vs per-time --------------------------------------------------


def test_per_time_and_pooled():
    d = [[1.0, 10.0], [2.0, 20.0]]   # two subjects x two times
    n = [[0.5, 5.0], [1.5, 15.0]]
    ds = paired_dataset([d], [n], n_times=2)
    t1 = wauc(ds, 1, WeightMeasure.full_auc(), time=1)
    t2 = wauc(ds, 1, WeightMeasure.full_auc(), time=2)
    assert t1 == auc_oracle([1.0, 2.0], [0.5, 1.5])
    assert t2 == auc_oracle([10.0, 20.0], [5.0, 15.0])
    pooled = auc(ds, 1)
    assert pooled == auc_oracle([1.0, 10.0, 2.0, 20.0], [0.5, 5.0, 1.5, 15.0])


def test_wauc_vector_reader_design():
    rng = np.random.default_rng(7)
    cols_d = [rng.normal(1.0, 1.0, 12) for _ in range(4)]
    cols_n = [rng.normal(0.0, 1.0, 15) for _ in range(4)]
    ds = paired_dataset(cols_d, cols_n)
    design = StudyDesign.readers(2)
    vec = wauc_vector(ds, design, WeightMeasure.full_auc())
    assert vec.labels == ("reader1_modality1", "reader2_modality1",
                          "reader1_modality2", "reader2_modality2")
    for idx in range(4):
        assert vec.values[idx] == auc(ds, idx + 1)


def test_wauc_vector_longitudinal_design():
    rng = np.random.default_rng(8)
    d = [rng.normal(1.0, 1.0, (6, 3)) for _ in range(2)]
    n = [rng.normal(0.0, 1.0, (9, 3)) for _ in range(2)]
    ds = paired_dataset(d, n, n_times=3)
    design = StudyDesign.longitudinal(3)
    vec = wauc_vector(ds, design, WeightMeasure.full_auc())
    assert vec.labels == ("marker1_time1", "marker1_time2", "marker1_time3",
                          "marker2_time1", "marker2_time2", "marker2_time3")
    assert vec.values[1] == wauc(ds, 1, WeightMeasure.full_auc(), time=2)
    assert vec.values[5] == wauc(ds, 2, WeightMeasure.full_auc(), time=3)


def test_wauc_vector_marker_count_mismatch():
    ds = singles_dataset([1.0], [0.0])
    with pytest.raises(ValueError):
        wauc_vector(ds, StudyDesign.readers(2), WeightMeasure.full_auc())


# -- oracle agreement on random data -------------------------------------


def test_estimators_match_oracles_random():
    rng = np.random.default_rng(20240817)
    for trial in range(25):
        m = int(rng.integers(2, 30))
        n = int(rng.integers(2, 30))
        x = np.round(rng.normal(0.8, 1.0, m), 2)   # rounding forces ties
        y = np.round(rng.normal(0.0, 1.0, n), 2)
        ds = singles_dataset(x, y)
        assert auc(ds, 1) == auc_oracle(x, y)
        assert auc(ds, 1, midrank=True) == auc_oracle(x, y, midrank=True)
        lower, upper = sorted(rng.uniform(0.0, 1.0, 2))
        if lower == upper:
            continue
        assert pauc(ds, 1, lower, upper) == pauc_oracle(x, y, lower, upper)
        for u in rng.uniform(0.001, 1.0, 4):
            assert inverse_survival(ds, 1, u) == inverse_survival_oracle(y, u)
            assert sensitivity_at_fpr(ds, 1, u) == sensitivity_oracle(x, y, u)
        atoms = ((0.2, 0.3), (0.5, 0.25), (0.9, 0.45))
        assert wauc(ds, 1, WeightMeasure.steps(atoms)) == pytest.approx(
            steps_oracle(x, y, atoms), abs=1e-12)


def test_clustered_pooling_matches_flat_oracle():
    # replicates pool into one big sample per group
    ds = clustered_dataset(
        [{(1, 1): (1.0, 3.0)}, {(1, 1): (2.0,)}],
        [{(1, 1): (0.5,)}, {(1, 1): (1.5, 2.5, 0.0)}],
    )
    assert auc(ds, 1) == auc_oracle([1.0, 3.0, 2.0], [0.5, 1.5, 2.5, 0.0])
    assert pauc(ds, 1, 0.0, 0.5) == pauc_oracle([1.0, 3.0, 2.0], [0.5, 1.5, 2.5, 0.0], 0.0, 0.5)
