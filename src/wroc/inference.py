"""Weighted paired comparisons and the asymptotic z-test.

The paired summary is ``delta = sum_p w_p (omega_first[p] - omega_second[p])
/ sum_p w_p`` over a design's pairs (readers of two modalities, or time
points of two markers): the linear contrast ``c' omega``, ``c = A w / sum_p w_p``
for the design's contrast matrix ``A``, of delta-method variance ``c' Sigma c``.
:func:`paired_difference` is the one step to it for the library, the CLI and
the simulator.  Weights can be equal, user supplied, or optimal: the solution
of ``(Sigma_A + ridge I) w = 1`` with ``Sigma_A`` the covariance of the paired
differences, which minimizes the variance of the weighted difference.  If the
solved weights are not all positive the comparison falls back to equal weights.

The z test's normal tail and quantile are ``ndtr`` and ``ndtri`` from
:mod:`wroc._normal`, the standard library's ``math.erfc`` and
``statistics.NormalDist.inv_cdf``, so importing this module loads no scipy.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._normal import ndtr, ndtri
from .covariance import CovarianceEstimate, contrast_covariance, sigma_matrix
from .dataset import MarkerDataset
from .designs import StudyDesign
from .errors import DataFormatError, SingularCovarianceError
from .estimators import WaucVector, wauc_vector
from .measures import WeightMeasure

DEFAULT_RIDGE_FACTOR = 1e-8
DEFAULT_ALPHA = 0.05


@dataclass(frozen=True)
class WeightVector:
    """Pair weights normalized to sum one, with provenance."""

    weights: np.ndarray
    method: str                      # "equal" | "optimal" | "custom"
    fell_back: bool = False
    ridge: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.weights, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weights must be a non-empty vector")
        object.__setattr__(self, "weights", arr)

    @property
    def n_pairs(self) -> int:
        return int(self.weights.size)


def equal_weights(n_pairs: int) -> WeightVector:
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    return WeightVector(np.full(n_pairs, 1.0 / n_pairs), method="equal")


def custom_weights(values) -> WeightVector:
    arr = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(arr.sum())    # not finite if a weight is not
    if not 0.0 < total < math.inf:
        raise ValueError(f"custom weights must be finite with a positive, finite sum, "
                         f"got sum {total}")
    return WeightVector(arr / total, method="custom")


def _check_ridge(ridge: float) -> None:
    """A ridge that is given must be finite and non-negative."""
    if not math.isfinite(ridge):
        raise ValueError(f"ridge must be finite, got {ridge}")
    if ridge < 0.0:
        raise ValueError("ridge must be non-negative")


def optimal_weights(cov_diff: np.ndarray, ridge: float | None = None) -> WeightVector:
    """Variance-minimizing pair weights from the covariance of the paired
    differences.

    Solves ``(cov_diff + ridge I) w = 1``.  When ``ridge`` is None a default
    of ``1e-8 * trace / n_pairs`` keeps near-singular systems solvable; an
    explicit ridge must be finite and non-negative, and one of 0 lets
    singularity surface as an error.  Any
    non-positive solved weight triggers the equal-weight fallback, flagged on
    the result.
    """
    mat = np.asarray(cov_diff, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("cov_diff must be a square matrix")
    n_pairs = mat.shape[0]
    if ridge is None:
        # a negative trace fails the sign check a given ridge must pass
        ridge = DEFAULT_RIDGE_FACTOR * float(np.trace(mat)) / n_pairs
        if ridge < 0.0:
            raise ValueError("ridge must be non-negative")
    else:
        _check_ridge(ridge)
    system = mat + ridge * np.eye(n_pairs)
    try:
        raw = np.linalg.solve(system, np.ones(n_pairs))
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(
            "difference covariance is singular; pass a positive ridge"
        ) from exc
    if not np.all(np.isfinite(raw)):
        raise SingularCovarianceError(
            "difference covariance is numerically singular; pass a larger ridge")
    if np.any(raw <= 0.0):
        fallback = equal_weights(n_pairs)
        return WeightVector(fallback.weights, method="optimal", fell_back=True, ridge=ridge)
    total = float(raw.sum())
    return WeightVector(raw / total, method="optimal", ridge=ridge)


def resolve_weights(spec, design: StudyDesign, sigma: np.ndarray, *,
                    ridge: float | None = None) -> WeightVector:
    """Pair weights from a weights spec, the grammar ``--weights`` reads.

    ``spec`` is ``"equal"``, ``"optimal"`` (solved from the difference
    covariance of ``sigma``, the wAUC covariance matrix), ``"custom:w1,..."``,
    a sequence of pair weights or a ready ``WeightVector``.  A ``ridge``
    that is given must be finite and non-negative, whatever the spec.
    """
    if ridge is not None:
        _check_ridge(ridge)
    if isinstance(spec, WeightVector):
        return spec
    if isinstance(spec, str):
        if spec == "equal":
            return equal_weights(design.n_pairs)
        if spec == "optimal":
            return optimal_weights(contrast_covariance(sigma, design), ridge=ridge)
        if spec.startswith("custom:"):
            try:
                values = [float(tok) for tok in spec[len("custom:"):].split(",")]
            except ValueError as exc:
                raise DataFormatError(f"bad custom weights {spec!r}: {exc}") from exc
            return custom_weights(values)
    elif isinstance(spec, (Sequence, np.ndarray)):
        return custom_weights(spec)
    raise DataFormatError(
        f"unknown weights {spec!r}, expected equal, optimal or custom:w1,w2,...")


def delta_h(omega, coefficients: np.ndarray) -> float:
    """The linear summary ``c' omega`` of the wAUC vector."""
    values = omega.values if isinstance(omega, WaucVector) else np.asarray(omega, float)
    coef = np.asarray(coefficients, dtype=float)
    if coef.shape != values.shape:
        raise ValueError(
            f"contrast length {coef.size} does not match wAUC vector length {values.size}")
    return float(coef @ values)


def pair_contrast(design: StudyDesign, weights: WeightVector) -> np.ndarray:
    """The coefficients ``c = A w`` whose contrast is the weighted paired difference."""
    if weights.n_pairs != design.n_pairs:
        raise ValueError(f"{weights.n_pairs} weights for a {design.n_pairs}-pair design")
    return design.contrast_matrix() @ (weights.weights / weights.weights.sum())


@dataclass(frozen=True)
class DeltaVariance:
    total: float
    diseased: float | None = None
    nondiseased: float | None = None


def variance_delta(cov: CovarianceEstimate | np.ndarray,
                   coefficients: np.ndarray) -> DeltaVariance:
    """Delta-method variance ``c' Sigma c`` of a linear contrast of the wAUC
    vector.

    The diseased and non-diseased contributions are reported separately
    when the covariance estimate decomposes.
    """
    if isinstance(cov, CovarianceEstimate):
        sigma = cov.sigma
        parts = (cov.sigma_diseased, cov.sigma_nondiseased)
    else:
        sigma = np.asarray(cov, dtype=float)
        parts = (None, None)
    coef = np.asarray(coefficients, dtype=float)
    if coef.size != sigma.shape[0]:
        raise ValueError(
            f"contrast length {coef.size} does not match covariance dimension {sigma.shape[0]}")
    total = float(coef @ sigma @ coef)
    part_d = float(coef @ parts[0] @ coef) if parts[0] is not None else None
    part_n = float(coef @ parts[1] @ coef) if parts[1] is not None else None
    return DeltaVariance(total=total, diseased=part_d, nondiseased=part_n)


def paired_difference(omega: WaucVector, cov: CovarianceEstimate, design: StudyDesign,
                      weights="equal", *, ridge: float | None = None
                      ) -> tuple[WeightVector, float, DeltaVariance]:
    """The weights resolved from any spec :func:`resolve_weights` reads, the
    weighted paired wAUC difference and its delta-method variance; a variance
    that is not positive (identical arms, or NaN) raises SingularCovarianceError."""
    weight_vec = resolve_weights(weights, design, cov.sigma, ridge=ridge)
    coefficients = pair_contrast(design, weight_vec)
    var = variance_delta(cov, coefficients)
    if not var.total > 0.0:
        raise SingularCovarianceError(f"difference variance must be positive, got {var.total}")
    return weight_vec, delta_h(omega, coefficients), var


@dataclass(frozen=True)
class TestResult:
    estimate: float
    variance: float
    z: float
    p_value: float
    ci_lower: float
    ci_upper: float
    alpha: float


def critical_value(alpha: float) -> float:
    """The two-sided normal critical value ``Φ⁻¹(1 - alpha / 2)``.

    Raises ValueError unless ``alpha`` is in (0, 1) and the value is finite:
    below about 1.1e-16, ``1 - alpha / 2`` rounds to 1 and the quantile is
    infinite.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    crit = float(ndtri(1.0 - alpha / 2.0))
    if not math.isfinite(crit):
        raise ValueError(f"alpha {alpha} is too small: 1 - alpha/2 rounds to 1, "
                         f"so the critical value is infinite")
    return crit


def z_test(estimate: float, variance: float, *, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Two-sided normal test of ``estimate`` against zero with the given
    variance; also returns the matching confidence interval."""
    crit = critical_value(alpha)
    if not variance > 0.0:
        raise ValueError(f"variance must be positive, got {variance}")
    se = float(np.sqrt(variance))
    z = float(estimate) / se
    p = 2.0 * float(ndtr(-abs(z)))
    return TestResult(
        estimate=float(estimate),
        variance=float(variance),
        z=z,
        p_value=p,
        ci_lower=float(estimate) - crit * se,
        ci_upper=float(estimate) + crit * se,
        alpha=alpha,
    )


@dataclass(frozen=True)
class ComparisonResult(TestResult):
    """The z test of a paired wAUC comparison, with what it was computed from."""

    variance_diseased: float | None
    variance_nondiseased: float | None
    weights: WeightVector
    wauc: WaucVector
    covariance: CovarianceEstimate
    measure: WeightMeasure
    design: StudyDesign


def compare_modalities(dataset: MarkerDataset, design: StudyDesign,
                       measure: WeightMeasure, *, weights="equal",
                       alpha: float = DEFAULT_ALPHA, ridge: float | None = None,
                       midrank: bool = False,
                       covariance: CovarianceEstimate | None = None) -> ComparisonResult:
    """Estimate, test and interval for the weighted paired wAUC difference.

    ``weights`` and ``ridge`` go to :func:`paired_difference`.  ``covariance``
    replaces the analytic ``sigma_matrix`` estimate, for example with a
    ``bootstrap_covariance`` of the same dataset.
    """
    omega = wauc_vector(dataset, design, measure, midrank=midrank)
    cov = covariance if covariance is not None else sigma_matrix(
        dataset, design, measure, midrank=midrank)
    critical_value(alpha)      # a bad alpha stays an input error on any data
    weight_vec, estimate, var = paired_difference(omega, cov, design, weights, ridge=ridge)
    test = z_test(estimate, var.total, alpha=alpha)
    return ComparisonResult(
        **vars(test),
        variance_diseased=var.diseased,
        variance_nondiseased=var.nondiseased,
        weights=weight_vec,
        wauc=omega,
        covariance=cov,
        measure=measure,
        design=design,
    )
