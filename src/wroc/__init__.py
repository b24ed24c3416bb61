"""Weighted-AUC summaries and comparisons for clustered ROC data.

The package estimates weighted areas under empirical ROC curves (full and
partial areas, sensitivities at fixed false-positive rates, finite mixtures
of those), their joint large-sample covariance across correlated markers,
and optimally weighted paired comparisons for multi-reader and longitudinal
designs, together with a Monte Carlo harness for calibration studies.
"""

from .errors import (
    DataFormatError,
    DegenerateDensityError,
    SingularCovarianceError,
    WrocError,
)
from .measures import WeightMeasure, parse_measure
from .designs import StudyDesign, parse_design
from .dataset import (
    MarkerDataset,
    SubjectRecord,
    ValidationIssue,
    ValidationReport,
    read_dataset_csv,
    validate,
    write_dataset_csv,
)
from .estimators import (
    WaucVector,
    auc,
    empirical_roc,
    inverse_survival,
    pauc,
    sensitivity_at_fpr,
    survival,
    wauc,
    wauc_vector,
)
from .covariance import (
    CovarianceEstimate,
    bootstrap_covariance,
    contrast_covariance,
    sigma_matrix,
)
from .inference import (
    ComparisonResult,
    DeltaVariance,
    TestResult,
    WeightVector,
    compare_modalities,
    custom_weights,
    delta_h,
    equal_weights,
    optimal_weights,
    pair_contrast,
    variance_delta,
    z_test,
)
from .simulation import (
    MethodComparisonReport,
    ScenarioSpec,
    StudyReport,
    baseline_parametric_auc,
    baseline_semiparametric_auc,
    binormal_roc,
    generate_dataset,
    null_scenario,
    run_method_comparison,
    run_study,
    table1_scenario,
    table2_scenario,
    table3_scenario,
    table4_scenario,
    true_wauc,
)

__version__ = "0.1.0"

__all__ = [
    "WrocError",
    "DataFormatError",
    "DegenerateDensityError",
    "SingularCovarianceError",
    "WeightMeasure",
    "parse_measure",
    "StudyDesign",
    "parse_design",
    "MarkerDataset",
    "SubjectRecord",
    "ValidationIssue",
    "ValidationReport",
    "read_dataset_csv",
    "write_dataset_csv",
    "validate",
    "survival",
    "inverse_survival",
    "auc",
    "pauc",
    "sensitivity_at_fpr",
    "empirical_roc",
    "wauc",
    "WaucVector",
    "wauc_vector",
    "CovarianceEstimate",
    "sigma_matrix",
    "contrast_covariance",
    "bootstrap_covariance",
    "WeightVector",
    "equal_weights",
    "custom_weights",
    "optimal_weights",
    "delta_h",
    "pair_contrast",
    "DeltaVariance",
    "variance_delta",
    "TestResult",
    "z_test",
    "ComparisonResult",
    "compare_modalities",
    "ScenarioSpec",
    "StudyReport",
    "MethodComparisonReport",
    "binormal_roc",
    "true_wauc",
    "generate_dataset",
    "table1_scenario",
    "table2_scenario",
    "table3_scenario",
    "table4_scenario",
    "null_scenario",
    "run_study",
    "run_method_comparison",
    "baseline_parametric_auc",
    "baseline_semiparametric_auc",
]
