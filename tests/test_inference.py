"""Weights, contrasts, delta-method variance and the z test."""

import math
import warnings

import numpy as np
import pytest

from wroc.covariance import bootstrap_covariance, contrast_covariance, sigma_matrix
from wroc.designs import StudyDesign
from wroc.errors import DataFormatError, SingularCovarianceError
from wroc.estimators import wauc_vector
from wroc.inference import TestResult as ZTestResult  # not a test class
from wroc.inference import (
    ComparisonResult,
    compare_modalities,
    custom_weights,
    delta_h,
    equal_weights,
    optimal_weights,
    pair_contrast,
    resolve_weights,
    variance_delta,
    z_test,
)
from wroc.measures import WeightMeasure

from conftest import paired_dataset

FULL = WeightMeasure.full_auc()


# -- weights -------------------------------------------------------------


def test_equal_weights():
    w = equal_weights(4)
    np.testing.assert_allclose(w.weights, 0.25)
    assert w.method == "equal"


def test_optimal_weights_symmetric_case():
    # symmetric covariance -> equal weights are optimal
    w = optimal_weights(np.array([[2.0, 1.0], [1.0, 2.0]]), ridge=0.0)
    np.testing.assert_allclose(w.weights, [0.5, 0.5])
    assert not w.fell_back


def test_optimal_weights_favor_precise_pair():
    cov = np.diag([1.0, 4.0])
    w = optimal_weights(cov, ridge=0.0)
    # inverse-variance: 1 and 1/4, normalized
    np.testing.assert_allclose(w.weights, [0.8, 0.2])


def test_optimal_weights_fallback_on_negative_solution():
    # strong off-diagonal drives one solved weight negative
    cov = np.array([[1.0, 1.9], [1.9, 4.0]])
    w = optimal_weights(cov, ridge=0.0)
    assert w.fell_back
    np.testing.assert_allclose(w.weights, [0.5, 0.5])
    assert w.method == "optimal"


@pytest.mark.parametrize("ridge", [float("nan"), float("inf"), -1e-3])
def test_optimal_weights_reject_a_bad_ridge(ridge):
    with pytest.raises(ValueError, match="ridge"):
        optimal_weights(np.array([[2.0, 1.0], [1.0, 2.0]]), ridge=ridge)


def test_optimal_weights_singular_matrix():
    with pytest.raises(SingularCovarianceError):
        optimal_weights(np.zeros((2, 2)), ridge=0.0)


def test_custom_weights_normalize():
    w = custom_weights([2.0, 6.0])
    np.testing.assert_allclose(w.weights, [0.25, 0.75])
    with pytest.raises(ValueError):
        custom_weights([1.0, -1.0, 0.0])
    # a sum that overflows is rejected before numpy warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="got sum inf$"):
            custom_weights([1e308, 1e308, 1e308])


def test_weight_scale_invariance_exact():
    # scaling the covariance by a power of two scales the solved weights
    # identically, so the normalized weights agree bitwise
    cov = np.array([[3.0, 0.5], [0.5, 1.25]])
    base = optimal_weights(cov, ridge=0.0)
    scaled = optimal_weights(4.0 * cov, ridge=0.0)
    np.testing.assert_array_equal(base.weights, scaled.weights)


# -- deltas and contrasts ------------------------------------------------


def test_pair_contrast_weighted_difference():
    omega = np.array([0.9, 0.7, 0.6, 0.5])
    design = StudyDesign.readers(2)
    assert delta_h(omega, pair_contrast(design, equal_weights(2))) == pytest.approx(0.25)
    w = custom_weights([3.0, 1.0])
    assert delta_h(omega, pair_contrast(design, w)) == pytest.approx(0.75 * 0.3 + 0.25 * 0.2)
    longitudinal = StudyDesign.longitudinal(2)
    assert delta_h(omega, pair_contrast(longitudinal, equal_weights(2))) == pytest.approx(0.25)


def test_pair_contrast_matches_manual():
    design = StudyDesign.readers(2)
    w = custom_weights([3.0, 1.0])
    contrast = pair_contrast(design, w)
    np.testing.assert_allclose(contrast, [0.75, 0.25, -0.75, -0.25])
    omega = np.array([0.9, 0.7, 0.6, 0.5])
    assert delta_h(omega, contrast) == pytest.approx(0.75 * 0.3 + 0.25 * 0.2)


def test_variance_delta_identity_covariance():
    design = StudyDesign.readers(1)
    contrast = pair_contrast(design, equal_weights(1))
    var = variance_delta(np.eye(2), contrast)
    assert var.total == pytest.approx(2.0)
    assert var.diseased is None   # plain matrix has no decomposition
    with pytest.raises(ValueError, match="contrast length 2 does not match covariance dimension 3"):
        variance_delta(np.eye(3), contrast)


# -- z test and published arithmetic -------------------------------------


def test_z_test_known_values():
    res = z_test(-0.1115, 0.0006961)
    assert res.z == pytest.approx(-0.1115 / math.sqrt(0.0006961))
    assert res.p_value == pytest.approx(2.36e-5, rel=0.02)
    res2 = z_test(-0.1145, 0.0007475)
    assert res2.p_value == pytest.approx(2.82e-5, rel=0.02)


def test_z_test_interval_and_null():
    res = z_test(0.0, 0.01, alpha=0.05)
    assert res.z == 0.0
    assert res.p_value == 1.0
    assert res.ci_lower == pytest.approx(-1.959964 * 0.1, rel=1e-5)
    assert res.ci_upper == pytest.approx(1.959964 * 0.1, rel=1e-5)
    with pytest.raises(ValueError):
        z_test(0.1, 0.0)
    with pytest.raises(ValueError):
        z_test(0.1, 0.01, alpha=1.5)
    for alpha in (1e-17, 1e-300, 5e-324):
        with pytest.raises(ValueError, match="critical value is infinite"):
            z_test(0.1, 0.01, alpha=alpha)
    assert math.isfinite(z_test(0.1, 0.01, alpha=2.3e-16).ci_upper)


def test_reader_study_pipeline_arithmetic():
    # four readers, two modalities, rounded AUCs as the wAUC vector:
    # equal-weight difference is exactly -0.1125
    omega = np.array([0.71, 0.75, 0.63, 0.76, 0.83, 0.85, 0.75, 0.87])
    design = StudyDesign.readers(4)
    assert delta_h(omega, pair_contrast(design, equal_weights(4))) == pytest.approx(
        -0.1125, abs=1e-15)
    # weights solved in the published analysis, renormalized
    w = custom_weights([298.08, 401.16, 176.88, 560.48])
    assert delta_h(omega, pair_contrast(design, w)) == pytest.approx(-0.1105, abs=5e-3)


# -- end-to-end comparison -----------------------------------------------


def test_compare_modalities_composition(rng):
    design = StudyDesign.readers(2)
    ds = paired_dataset([rng.normal(1.2, 1, 40) for _ in range(4)],
                        [rng.normal(0, 1, 40) for _ in range(4)])
    res = compare_modalities(ds, design, FULL)
    assert isinstance(res, ComparisonResult)
    assert isinstance(res, ZTestResult)

    omega = wauc_vector(ds, design, FULL)
    cov = sigma_matrix(ds, design, FULL)
    contrast = pair_contrast(design, equal_weights(2))
    manual_delta = delta_h(omega, contrast)
    manual_var = variance_delta(cov, contrast)
    assert res.estimate == manual_delta
    assert res.variance == manual_var.total
    assert res.variance_diseased == manual_var.diseased
    assert res.variance == pytest.approx(
        res.variance_diseased + res.variance_nondiseased)
    assert 0.0 <= res.p_value <= 1.0
    assert res.ci_lower < res.estimate < res.ci_upper

    assert res.weights.method == "equal"
    assert list(res.wauc.labels) == design.labels()


def test_compare_modalities_optimal_and_custom(rng):
    design = StudyDesign.readers(2)
    ds = paired_dataset([rng.normal(1.2, 1, 50) for _ in range(4)],
                        [rng.normal(0, 1, 50) for _ in range(4)])
    opt = compare_modalities(ds, design, FULL, weights="optimal")
    assert opt.weights.method == "optimal"
    assert opt.weights.weights.sum() == pytest.approx(1.0)

    cov_diff = contrast_covariance(sigma_matrix(ds, design, FULL).sigma, design)
    w_manual = optimal_weights(cov_diff)
    np.testing.assert_allclose(opt.weights.weights, w_manual.weights)

    cus = compare_modalities(ds, design, FULL, weights=[0.7, 0.3])
    np.testing.assert_allclose(cus.weights.weights, [0.7, 0.3])
    # optimal weighting never increases the estimated variance
    assert opt.variance <= compare_modalities(ds, design, FULL).variance + 1e-15


def test_resolve_weights_grammar():
    design = StudyDesign.readers(3)
    sigma = np.diag([1.0, 2.0, 4.0, 1.0, 2.0, 4.0])
    assert resolve_weights("equal", design, sigma).method == "equal"
    opt = resolve_weights("optimal", design, sigma, ridge=0.0)
    np.testing.assert_array_equal(
        opt.weights, optimal_weights(contrast_covariance(sigma, design), ridge=0.0).weights)
    np.testing.assert_allclose(resolve_weights("custom:1,1,2", design, sigma).weights,
                               [0.25, 0.25, 0.5])
    np.testing.assert_allclose(resolve_weights(np.array([1.0, 3.0, 4.0]), design, sigma).weights,
                               [0.125, 0.375, 0.5])
    ready = equal_weights(3)
    assert resolve_weights(ready, design, sigma) is ready
    for bad in ("inverse", "custom:1,x,2", None, 0.5):
        with pytest.raises(DataFormatError):
            resolve_weights(bad, design, sigma)
    for spec in ("equal", "custom:1,1,2", "optimal"):
        with pytest.raises(ValueError, match="ridge must be non-negative"):
            resolve_weights(spec, design, sigma, ridge=-1.0)


def test_compare_modalities_takes_a_covariance(rng):
    design = StudyDesign.readers(2)
    ds = paired_dataset([rng.normal(1.2, 1, 30) for _ in range(4)],
                        [rng.normal(0, 1, 30) for _ in range(4)])
    boot = bootstrap_covariance(ds, design, FULL, 100, 3)
    res = compare_modalities(ds, design, FULL, weights="optimal", covariance=boot)
    assert res.covariance is boot
    assert res.variance_diseased is None
    want = optimal_weights(contrast_covariance(boot.sigma, design))
    np.testing.assert_array_equal(res.weights.weights, want.weights)
    contrast = pair_contrast(design, want)
    assert res.variance == variance_delta(boot, contrast).total
    with pytest.raises(DataFormatError, match="unknown weights"):
        compare_modalities(ds, design, FULL, weights="inverse")
