"""Monte Carlo studies for coverage, power and method comparison.

Scenarios describe two groups of clustered Gaussian or exponentiated
Gaussian marker vectors with exchangeable correlation.  Each replicate gets
its own RNG stream derived from (master seed, replicate index), so results
are independent of execution order and worker count.  A scenario's layout
is fixed, so its generator plan keeps one template dataset with the strata
its runner reads already cut; each replicate's dataset reuses the
template's layout and cuts and fills in only its drawn values.

Two runners:

* :func:`run_study` estimates bias, RMSE, confidence coverage and rejection
  rate of the weighted paired wAUC difference over the scenario grid of
  measures and weighting methods.  ``n_failures`` counts replicates whose
  estimate, covariance or weights fail, or whose paired difference has no
  positive variance, which ``compare`` rejects too.
* :func:`run_method_comparison` benchmarks the empirical AUC against a
  binormal moment plug-in and a logistic-score AUC, per marker.

Every study is a row of one registry; :func:`study_scenario` alone turns
its keys, from CLI flags or a scenario file, into its runner and scenario.
A builder such as :func:`table3_scenario` takes only its study's parameters;
its run settings (1000 replicates, seed 20240817, the study's measures and
weightings) change by ``dataclasses.replace`` alone.

The population truths need numpy alone: the normal CDF and quantile are
``ndtr`` and ``ndtri`` from :mod:`wroc._normal`, and :func:`true_wauc`
integrates a pAUC with a fixed Gauss-Legendre rule.
"""

from __future__ import annotations

import functools
import math
import time as _time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ._normal import ndtr, ndtri
from .covariance import sigma_matrix
from .dataset import GroupColumns, MarkerDataset, _read_text
from .designs import StudyDesign, parse_design
from .errors import DataFormatError, WrocError
from .estimators import _stratum_blocks, _stratum_rows, _stratum_wauc, _wins, wauc_vector
from .inference import DEFAULT_ALPHA, critical_value, paired_difference
from .measures import WeightMeasure, parse_measure

FAMILIES = ("normal", "lognormal")


# -- scenario description ------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """Generative description of one simulation scenario.

    Marker-level means and variances apply to every time and replicate of
    that marker on the latent Gaussian scale; ``family="lognormal"``
    exponentiates the draws.  With ``correlation_scope="all"`` the
    correlation is exchangeable across all of a subject's measurements;
    with ``"modality"`` (reader designs only) it is exchangeable within
    each modality's markers and the two modality blocks are independent.
    Cluster sizes are per-subject-half pairs: the first ``ceil(n/2)``
    subjects of a group use the first size for every cell, the rest the
    second.  ``measures`` and ``weight_methods`` are stored as tuples; neither may be empty.
    """

    name: str
    family: str
    design: StudyDesign
    mu_diseased: tuple[float, ...]
    mu_nondiseased: tuple[float, ...]
    variances: tuple[float, ...]
    rho_diseased: float
    rho_nondiseased: float
    cluster_sizes_diseased: tuple[int, int]
    cluster_sizes_nondiseased: tuple[int, int]
    n_diseased: int
    n_nondiseased: int
    n_reps: int
    seed: int
    measures: tuple[WeightMeasure, ...]
    weight_methods: tuple[str, ...]
    alpha: float = DEFAULT_ALPHA
    correlation_scope: str = "all"

    def __post_init__(self):
        object.__setattr__(self, "measures", tuple(self.measures))
        object.__setattr__(self, "weight_methods", tuple(self.weight_methods))
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.correlation_scope not in ("all", "modality"):
            raise ValueError(
                f"correlation_scope must be 'all' or 'modality', got {self.correlation_scope!r}")
        if self.correlation_scope == "modality" and self.design.kind != "readers":
            raise ValueError("correlation_scope='modality' needs a reader design")
        n_markers = self.design.n_markers
        for label, values in (("mu_diseased", self.mu_diseased),
                              ("mu_nondiseased", self.mu_nondiseased),
                              ("variances", self.variances)):
            if len(values) != n_markers:
                raise ValueError(f"{label} needs {n_markers} entries, got {len(values)}")
        if any(v <= 0 for v in self.variances):
            raise ValueError("variances must be positive")
        if any(c < 1 for c in self.cluster_sizes_diseased + self.cluster_sizes_nondiseased):
            raise ValueError("cluster sizes must be >= 1")
        if self.n_diseased < 2 or self.n_nondiseased < 2:
            raise ValueError("need at least 2 subjects per group")
        if self.n_reps < 1:
            raise ValueError("need at least one replicate")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        critical_value(self.alpha)
        if not self.measures:
            raise ValueError("need at least one weight measure")
        if not self.weight_methods:
            raise ValueError("need at least one weight method")
        for method in self.weight_methods:
            if method not in ("equal", "optimal"):
                raise ValueError(f"unknown weight method {method!r}")

    def config_dict(self) -> dict:
        return {
            "name": self.name,
            "family": self.family,
            "design": self.design.selector(),
            "mu_diseased": list(self.mu_diseased),
            "mu_nondiseased": list(self.mu_nondiseased),
            "variances": list(self.variances),
            "rho_diseased": self.rho_diseased,
            "rho_nondiseased": self.rho_nondiseased,
            "correlation_scope": self.correlation_scope,
            "cluster_sizes_diseased": list(self.cluster_sizes_diseased),
            "cluster_sizes_nondiseased": list(self.cluster_sizes_nondiseased),
            "n_diseased": self.n_diseased,
            "n_nondiseased": self.n_nondiseased,
            "n_reps": self.n_reps,
            "seed": self.seed,
            "measures": [m.selector() for m in self.measures],
            "weight_methods": list(self.weight_methods),
            "alpha": self.alpha,
        }


def compound_symmetry(variances, rho: float) -> np.ndarray:
    """Covariance with exchangeable correlation rho and the given diagonal."""
    sd = np.sqrt(np.asarray(variances, dtype=float))
    dim = sd.size
    if dim > 1 and not -1.0 / (dim - 1) < rho < 1.0:
        raise ValueError(f"rho {rho} breaks positive definiteness for dimension {dim}")
    corr = np.full((dim, dim), rho) + (1.0 - rho) * np.eye(dim)
    return corr * np.outer(sd, sd)


def _draw(mu: np.ndarray, chol: np.ndarray, size: int, rng: np.random.Generator,
          family: str) -> np.ndarray:
    """``size`` rows ``mu + z @ chol.T`` with ``z`` iid standard normal,
    exponentiated for the lognormal family."""
    rows = mu + rng.standard_normal((size, chol.shape[0])) @ chol.T
    return np.exp(rows) if family == "lognormal" else rows


# -- closed-form truth ---------------------------------------------------


def binormal_roc(u, mu_x: float, sd_x: float, mu_y: float, sd_y: float):
    """ROC of two Gaussian marker distributions at false-positive rate u."""
    return ndtr((mu_x - mu_y + sd_y * ndtri(u)) / sd_x)


def _pdf(x):
    """φ(x) by ``scipy.stats.norm.pdf``'s array formula (``np.square``, not pow)."""
    return np.exp(-np.square(x) / 2.0) / np.sqrt(2 * np.pi)


@functools.lru_cache(maxsize=1)
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 20-node Gauss-Legendre rule on [0, 1], built on first use, not at import."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    return (nodes + 1.0) / 2.0, weights / 2.0


def true_wauc(measure: WeightMeasure, mu_x: float, sd_x: float,
              mu_y: float, sd_y: float) -> float:
    """Population wAUC of a binormal pair.

    Exponentiating both groups preserves ranks, so the lognormal family has
    the same wAUC as its latent Gaussian parameters.  With ``a = (mu_x -
    mu_y) / sd_x``, ``b = sd_y / sd_x`` and ``[zl, zu] = Φ⁻¹([lower, upper])``
    a pAUC is the integral of ``Φ(a + bz) φ(z)`` over ``[zl, zu]``.  For
    ``b > 1``, so that no integrand is steeper than slope 1, it is
    ``Φ(a + b zl) (Φ(zu) - Φ(zl))`` plus that of ``φ(w) (Φ(zu) - Φ((w - a) /
    b))`` over ``[a + b zl, a + b zu]``.  The range, clipped to ±38.5, takes
    20 Gauss-Legendre nodes on each of at most 39 equal panels no wider than
    2: within 1e-13 relative of closed forms and 1e-15 of 40-digit
    references (``tests/test_simulation.py``).
    """
    if measure.kind == "full":
        value = float(ndtr((mu_x - mu_y) / math.hypot(sd_x, sd_y)))
    elif measure.kind == "pauc":
        a, b = (mu_x - mu_y) / sd_x, sd_y / sd_x
        zl, zu = float(ndtri(measure.lower)), float(ndtri(measure.upper))
        top = float(ndtr(zu))
        lo, hi = (zl, zu) if b <= 1.0 else (a + b * zl, a + b * zu)
        value = 0.0 if b <= 1.0 else float(ndtr(lo)) * (top - float(ndtr(zl)))
        lo, hi = max(lo, -38.5), min(hi, 38.5)
        if lo < hi:
            nodes, weights = _legendre_rule()
            n_panels = math.ceil((hi - lo) / 2.0)
            width = (hi - lo) / n_panels
            t = lo + width * (np.arange(n_panels)[:, None] + nodes)
            f = ndtr(a + b * t) * _pdf(t) if b <= 1.0 else _pdf(t) * (top - ndtr((t - a) / b))
            value += width * float(np.sum(f * weights))
    else:
        value = sum(mass * float(binormal_roc(u, mu_x, sd_x, mu_y, sd_y))
                    for u, mass in measure.atoms)
    if measure.normalized:
        value /= measure.total_mass
    return float(value)


def _marker_wauc(scenario: ScenarioSpec, measure: WeightMeasure, marker: int) -> float:
    """Population wAUC of a scenario's marker (1-based)."""
    sd = math.sqrt(scenario.variances[marker - 1])
    return true_wauc(measure, scenario.mu_diseased[marker - 1], sd,
                     scenario.mu_nondiseased[marker - 1], sd)


def true_paired_delta(scenario: ScenarioSpec, measure: WeightMeasure) -> float:
    """Equal-weight population value of the paired wAUC difference.

    Every scenario here has time-invariant marginals, so per-time and pooled
    wAUCs share the same population value and equal weights lose nothing.
    """
    truths = [_marker_wauc(scenario, measure, marker) for marker, _ in scenario.design.strata()]
    return float(np.mean(scenario.design.contrast_matrix().T @ truths))


# -- dataset generation --------------------------------------------------


@dataclass
class _HalfPlan:
    n_subjects: int
    cluster_size: int
    mu_row: np.ndarray
    chol: np.ndarray


@dataclass
class _GroupPlan:
    halves: tuple[_HalfPlan, _HalfPlan]
    # subject_ids, subject, marker and time columns of every draw: a row of
    # the Cholesky draw is one subject's cells, marker-major, then time,
    # then replicate, which is the dataset's canonical row order
    layout: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass
class _GeneratorPlan:
    diseased: _GroupPlan
    nondiseased: _GroupPlan
    # a dataset of the draws' layout, every value 0, with the strata its
    # runner reads already cut: each replicate's dataset shares its layout
    # and cuts and fills in only the values (MarkerDataset._with_values)
    template: MarkerDataset


def _half_plan(scenario: ScenarioSpec, n_subjects: int, cluster_size: int,
               mu_markers, rho: float) -> _HalfPlan:
    design = scenario.design
    cells_per_marker = design.n_times * cluster_size
    mu_row = np.repeat(np.asarray(mu_markers, dtype=float), cells_per_marker)
    var_row = np.repeat(np.asarray(scenario.variances, dtype=float), cells_per_marker)
    if scenario.correlation_scope == "modality":
        # independent per-modality blocks; marker-major layout puts the
        # first modality's readers in the leading half of the row
        split = design.n_pairs * cells_per_marker
        cov = np.zeros((var_row.size, var_row.size))
        cov[:split, :split] = compound_symmetry(var_row[:split], rho)
        cov[split:, split:] = compound_symmetry(var_row[split:], rho)
    else:
        cov = compound_symmetry(var_row, rho)
    return _HalfPlan(n_subjects=n_subjects, cluster_size=cluster_size,
                     mu_row=mu_row, chol=np.linalg.cholesky(cov))


def _group_plan(scenario: ScenarioSpec, total: int, sizes, mu, rho: float,
                id_prefix: str) -> _GroupPlan:
    n_first = (total + 1) // 2
    halves = (_half_plan(scenario, n_first, sizes[0], mu, rho),
              _half_plan(scenario, total - n_first, sizes[1], mu, rho))
    n_markers, n_times = scenario.design.n_markers, scenario.design.n_times
    counts = [half.n_subjects for half in halves]
    subject = np.repeat(np.arange(total), np.repeat([h.mu_row.size for h in halves], counts))
    marker = np.concatenate([
        np.tile(np.repeat(np.arange(1, n_markers + 1), n_times * h.cluster_size), h.n_subjects)
        for h in halves])
    time = np.concatenate([
        np.tile(np.repeat(np.arange(1, n_times + 1), h.cluster_size), n_markers * h.n_subjects)
        for h in halves])
    ids = np.char.add(id_prefix, np.arange(1, total + 1).astype(str))
    layout = (ids, subject, marker, time)
    for column in layout:
        column.setflags(write=False)
    return _GroupPlan(halves=halves, layout=layout)


def _build_plan(scenario: ScenarioSpec, pooled: bool = False) -> _GeneratorPlan:
    """The scenario's draws and its template dataset, cut into the design's
    strata, or with ``pooled`` into one stratum per marker pooled over its
    times, which :func:`run_method_comparison` reads."""
    groups = (_group_plan(scenario, scenario.n_diseased, scenario.cluster_sizes_diseased,
                          scenario.mu_diseased, scenario.rho_diseased, "d"),
              _group_plan(scenario, scenario.n_nondiseased, scenario.cluster_sizes_nondiseased,
                          scenario.mu_nondiseased, scenario.rho_nondiseased, "n"))
    template = MarkerDataset(*(GroupColumns(*group.layout, np.zeros(group.layout[1].size))
                               for group in groups),
                             scenario.design.n_markers, scenario.design.n_times)
    _stratum_blocks(template, None if pooled else scenario.design)
    return _GeneratorPlan(*groups, template=template)


def _draw_values(plan: _GroupPlan, family: str, rng: np.random.Generator) -> np.ndarray:
    """A group's values in its layout's row order."""
    return np.concatenate([_draw(half.mu_row, half.chol, half.n_subjects, rng, family).ravel()
                           for half in plan.halves])


def generate_dataset(scenario: ScenarioSpec, rng: np.random.Generator,
                     plan: _GeneratorPlan | None = None) -> MarkerDataset:
    """One simulated dataset.  Draws diseased halves first, then
    non-diseased, so streams are reproducible.  The dataset takes the
    plan's template's layout and cut strata, with the drawn values."""
    if plan is None:
        plan = _build_plan(scenario)
    return plan.template._with_values(_draw_values(plan.diseased, scenario.family, rng),
                                      _draw_values(plan.nondiseased, scenario.family, rng))


def replicate_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng((seed, rep))


# -- scenario builders ---------------------------------------------------

# a study's defaults: builders write the reps and seed, study_scenario the n and rho
DEFAULT_SEED = 20240817
DEFAULT_REPS = 1000
DEFAULT_N = 50
DEFAULT_RHO = 0.5
_TABLE1_VARIANCES = (1.0, 1.5, 2.0, 1.0, 1.5, 2.0)
DEFAULT_MEASURES = (WeightMeasure.full_auc(), WeightMeasure.partial_auc(0.0, 0.6))


def table1_scenario(rho: float, n: int, family: str = "normal") -> ScenarioSpec:
    """Three readers, two identical modalities: a null difference whose
    coverage calibrates the variance estimator.

    Reader scenarios correlate measurements within each modality only;
    the two modality blocks are independent.  The equal-weight difference
    variance then grows as rho rises: correlated readers share more of
    their error, so averaging them cancels less of it.
    """
    return ScenarioSpec(
        name=f"table1_rho{rho:g}_n{n}_{family}",
        family=family,
        design=StudyDesign.readers(3),
        mu_diseased=(1.0,) * 6,
        mu_nondiseased=(0.0,) * 6,
        variances=_TABLE1_VARIANCES,
        rho_diseased=rho,
        rho_nondiseased=rho,
        cluster_sizes_diseased=(1, 1),
        cluster_sizes_nondiseased=(1, 1),
        n_diseased=n,
        n_nondiseased=n,
        n_reps=DEFAULT_REPS,
        seed=DEFAULT_SEED,
        measures=DEFAULT_MEASURES,
        weight_methods=("equal",),
        correlation_scope="modality",
    )


def table2_scenario(rho: float, n: int, family: str = "lognormal") -> ScenarioSpec:
    """Method-comparison scenario: modality 2 separates better than
    modality 1, heavier means on the second half."""
    return replace(table1_scenario(rho, n, family),
                   name=f"table2_rho{rho:g}_n{n}_{family}",
                   mu_diseased=(1.0, 1.0, 1.0, 1.5, 2.0, 2.5),
                   measures=(WeightMeasure.full_auc(),))


def table3_scenario(rho: float, n: int) -> ScenarioSpec:
    """Power scenario: reader 1 modality 1 separates strongly, so optimal
    weights concentrate there."""
    return replace(table1_scenario(rho, n),
                   name=f"table3_rho{rho:g}_n{n}",
                   mu_diseased=(2.0, 1.0, 1.0, 1.0, 1.0, 1.0),
                   variances=(1.0, 1.5, 2.0, 2.0, 3.0, 2.0),
                   weight_methods=("equal", "optimal"))


def table4_scenario(n: int, family: str = "lognormal") -> ScenarioSpec:
    """Longitudinal two-marker scenario with three times and unbalanced
    cluster sizes (diseased 2 then 4 replicates, non-diseased 5 then 3)."""
    return ScenarioSpec(
        name=f"table4_n{n}_{family}",
        family=family,
        design=StudyDesign.longitudinal(3),
        mu_diseased=(2.0, 1.0),
        mu_nondiseased=(0.0, 0.0),
        variances=(1.0, 1.0),
        rho_diseased=0.4,
        rho_nondiseased=0.3,
        cluster_sizes_diseased=(2, 4),
        cluster_sizes_nondiseased=(5, 3),
        n_diseased=n,
        n_nondiseased=n,
        n_reps=DEFAULT_REPS,
        seed=DEFAULT_SEED,
        measures=DEFAULT_MEASURES,
        weight_methods=("equal",),
    )


def null_scenario(rho: float = DEFAULT_RHO, n: int = DEFAULT_N) -> ScenarioSpec:
    """Identical modalities, used to check test size under both weightings."""
    return replace(table1_scenario(rho, n),
                   name=f"null_rho{rho:g}_n{n}",
                   measures=(WeightMeasure.full_auc(),),
                   weight_methods=("equal", "optimal"))


# -- study runner --------------------------------------------------------


@dataclass(frozen=True)
class CellResult:
    """Aggregated Monte Carlo summary for one (measure, weighting) cell."""

    measure: str
    weight_method: str
    truth: float
    n_reps: int
    n_failures: int
    n_fallbacks: int
    mean_estimate: float
    bias: float
    rmse: float
    coverage: float
    power: float
    mean_variance: float
    mc_variance: float
    estimates: np.ndarray = field(repr=False, compare=False, default=None)
    variances: np.ndarray = field(repr=False, compare=False, default=None)

    def to_dict(self) -> dict:
        return {
            "measure": self.measure,
            "weight_method": self.weight_method,
            "truth": self.truth,
            "n_reps": self.n_reps,
            "n_failures": self.n_failures,
            "n_fallbacks": self.n_fallbacks,
            "mean_estimate": self.mean_estimate,
            "bias": self.bias,
            "bias_pct": 100.0 * self.bias,
            "rmse": self.rmse,
            "coverage": self.coverage,
            "power": self.power,
            "mean_variance": self.mean_variance,
            "mc_variance": self.mc_variance,
        }


@dataclass(frozen=True)
class StudyReport:
    scenario: ScenarioSpec
    cells: tuple[CellResult, ...]
    elapsed_seconds: float

    def cell(self, measure: WeightMeasure | str, weight_method: str) -> CellResult:
        selector = measure.selector() if isinstance(measure, WeightMeasure) else measure
        for cell in self.cells:
            if cell.measure == selector and cell.weight_method == weight_method:
                return cell
        raise KeyError(f"no cell for ({selector!r}, {weight_method!r})")

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.config_dict(),
            "elapsed_seconds": self.elapsed_seconds,
            "cells": [cell.to_dict() for cell in self.cells],
        }


def _simulate_one_rep(scenario: ScenarioSpec, plan: _GeneratorPlan, rep: int):
    """(estimate, variance, fallback, failed) per (measure, method) cell."""
    n_cells = len(scenario.measures) * len(scenario.weight_methods)
    out = np.full((n_cells, 4), np.nan)
    rng = replicate_rng(scenario.seed, rep)
    dataset = generate_dataset(scenario, rng, plan)
    design = scenario.design
    idx = 0
    for measure in scenario.measures:
        try:
            omega = wauc_vector(dataset, design, measure)
            cov = sigma_matrix(dataset, design, measure)
        except (WrocError, np.linalg.LinAlgError):
            for _ in scenario.weight_methods:
                out[idx] = (np.nan, np.nan, 0.0, 1.0)
                idx += 1
            continue
        for method in scenario.weight_methods:
            try:
                w, estimate, variance = paired_difference(omega, cov, design, method)
                out[idx] = (estimate, variance.total, float(w.fell_back), 0.0)
            except (WrocError, np.linalg.LinAlgError):
                out[idx] = (np.nan, np.nan, 0.0, 1.0)
            idx += 1
    return out


def _rep_range(one_rep, scenario: ScenarioSpec, pooled: bool, reps: range) -> list:
    plan = _build_plan(scenario, pooled)
    return [one_rep(scenario, plan, rep) for rep in reps]


def _per_replicate(n_reps: int, *shape: int) -> np.ndarray:
    """An empty array of ``shape`` per replicate, made before the first
    replicate runs, so a count too large for memory fails at once: as
    ``MemoryError`` also where numpy finds the size beyond any address
    space."""
    try:
        return np.empty((n_reps, *shape))
    except ValueError as exc:
        raise MemoryError(str(exc)) from exc


def _fan_out(one_rep, scenario: ScenarioSpec, n_jobs: int, pooled: bool = False):
    """Yields ``(rep, one_rep(scenario, plan, rep))`` for every replicate,
    in order, so a caller fills its per-replicate arrays as they come; the
    plan's template is cut as ``_build_plan(scenario, pooled)`` cuts it.

    With ``n_jobs > 1`` contiguous chunks of replicates run in at most that
    many worker processes, one per chunk, and each builds its own plan;
    ``one_rep`` must be module-level.
    """
    n_reps = scenario.n_reps
    if n_jobs <= 1 or n_reps <= 1:
        plan = _build_plan(scenario, pooled)
        for rep in range(n_reps):
            yield rep, one_rep(scenario, plan, rep)
        return
    # np.array_split's bounds: the first n_reps % n_chunks chunks one longer
    n_chunks = min(n_jobs * 4, n_reps)
    size, extra = divmod(n_reps, n_chunks)
    chunks = [range(i * size + min(i, extra), (i + 1) * size + min(i + 1, extra))
              for i in range(n_chunks)]
    with ProcessPoolExecutor(max_workers=min(n_jobs, len(chunks))) as pool:
        pieces = pool.map(_rep_range, [one_rep] * len(chunks), [scenario] * len(chunks),
                          [pooled] * len(chunks), chunks)
        for chunk, piece in zip(chunks, pieces):
            yield from zip(chunk, piece)


def run_study(scenario: ScenarioSpec, n_jobs: int = 1) -> StudyReport:
    """Run every replicate and aggregate the (measure, weighting) grid.

    ``n_jobs`` only distributes work; per-replicate RNG streams make the
    output identical for any worker count.
    """
    started = _time.perf_counter()
    raw = _per_replicate(scenario.n_reps, len(scenario.measures) * len(scenario.weight_methods), 4)
    # looked up at call time, so a replacement on the module is what runs
    for rep, out in _fan_out(_simulate_one_rep, scenario, n_jobs):
        raw[rep] = out

    crit = critical_value(scenario.alpha)
    cells = []
    idx = 0
    for measure in scenario.measures:
        truth = true_paired_delta(scenario, measure)
        for method in scenario.weight_methods:
            est = raw[:, idx, 0]
            var = raw[:, idx, 1]
            fell = raw[:, idx, 2]
            failed = raw[:, idx, 3]
            ok = failed == 0.0
            est_ok = est[ok]
            var_ok = var[ok]
            half_widths = crit * np.sqrt(var_ok)
            covered = np.abs(est_ok - truth) <= half_widths
            rejected = np.abs(est_ok) > half_widths
            n_ok = int(ok.sum())
            cells.append(CellResult(
                measure=measure.selector(),
                weight_method=method,
                truth=truth,
                n_reps=n_ok,
                n_failures=int(scenario.n_reps - n_ok),
                n_fallbacks=int(fell[ok].sum()),
                mean_estimate=float(est_ok.mean()) if n_ok else float("nan"),
                bias=float(est_ok.mean() - truth) if n_ok else float("nan"),
                rmse=float(np.sqrt(np.mean((est_ok - truth) ** 2))) if n_ok else float("nan"),
                coverage=float(covered.mean()) if n_ok else float("nan"),
                power=float(rejected.mean()) if n_ok else float("nan"),
                mean_variance=float(var_ok.mean()) if n_ok else float("nan"),
                mc_variance=float(est_ok.var(ddof=1)) if n_ok > 1 else float("nan"),
                estimates=est_ok,
                variances=var_ok,
            ))
            idx += 1
    return StudyReport(scenario=scenario, cells=tuple(cells),
                       elapsed_seconds=_time.perf_counter() - started)


# -- comparator baselines ------------------------------------------------


def baseline_parametric_auc(x_values, y_values) -> tuple[float, float]:
    """Binormal moment plug-in AUC with its delta-method variance.

    Fits nothing beyond sample means and variances; deliberately misspecified
    for non-Gaussian data, which is the point of the comparison.
    """
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    if x.size < 2 or y.size < 2:
        raise ValueError("parametric AUC needs at least 2 values per group")
    sx2 = float(x.var(ddof=1))
    sy2 = float(y.var(ddof=1))
    spread = sx2 + sy2
    if spread <= 0.0:
        raise ValueError("degenerate samples: zero pooled variance")
    diff = float(x.mean() - y.mean())
    delta = diff / math.sqrt(spread)
    d_mu = 1.0 / math.sqrt(spread)
    d_var = -delta / (2.0 * spread)
    var_delta_hat = (d_mu ** 2 * (sx2 / x.size + sy2 / y.size)
                     + d_var ** 2 * (2.0 * sx2 ** 2 / (x.size - 1)
                                     + 2.0 * sy2 ** 2 / (y.size - 1)))
    dens = float(_pdf(delta))
    return float(ndtr(delta)), dens * dens * var_delta_hat


# Newton-Raphson limits of the logistic fit in baseline_semiparametric_auc
_LOGISTIC_MAX_ITER = 50
_LOGISTIC_TOL = 1e-10


@dataclass(frozen=True)
class SemiparametricAuc:
    auc: float
    slope: float
    converged: bool
    separation: bool


def baseline_semiparametric_auc(x_values, y_values) -> SemiparametricAuc:
    """AUC of the fitted logistic score of disease status on the marker.

    The fitted score is monotone in the marker, so its strict-indicator AUC
    equals the empirical AUC when the slope is positive and the reversed
    empirical AUC when negative; it is computed on the marker scale with the
    fitted orientation to keep that identity exact.  Perfect separation is
    detected and reported, falling back to the forward empirical AUC.
    """
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    values = np.concatenate([x, y])
    labels = np.concatenate([np.ones(x.size), np.zeros(y.size)])
    sd = values.std(ddof=1)
    full = WeightMeasure.full_auc()
    forward = float(_wins(x, np.sort(y), full, False).sum()) / (x.size * y.size)
    if not sd > 0.0:
        return SemiparametricAuc(auc=forward, slope=0.0, converged=False, separation=False)
    v = (values - values.mean()) / sd
    design = np.column_stack([np.ones(v.size), v])
    beta = np.zeros(2)
    converged = False
    separation = False
    for _ in range(_LOGISTIC_MAX_ITER):
        eta = design @ beta
        p = 1.0 / (1.0 + np.exp(-eta))
        score = design.T @ (labels - p)
        if float(np.linalg.norm(score)) < _LOGISTIC_TOL:
            converged = True
            break
        w = p * (1.0 - p)
        hessian = (design * w[:, None]).T @ design
        try:
            step = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError:
            separation = True
            break
        beta = beta + step
        if not np.all(np.isfinite(beta)) or abs(beta[1]) > 50.0:
            # standardized slope this large means quasi-separated data
            separation = True
            break
    slope = float(beta[1])
    if separation or not converged:
        return SemiparametricAuc(auc=forward, slope=slope,
                                 converged=converged, separation=separation)
    if slope > 0.0:
        return SemiparametricAuc(auc=forward, slope=slope, converged=True, separation=False)
    if slope < 0.0:
        reverse = float(_wins(-x, np.sort(-y), full, False).sum()) / (x.size * y.size)
        return SemiparametricAuc(auc=reverse, slope=slope, converged=True, separation=False)
    return SemiparametricAuc(auc=forward, slope=0.0, converged=True, separation=False)


@dataclass(frozen=True)
class MethodCell:
    method: str
    marker: int
    truth: float
    mean_estimate: float
    bias: float
    rmse: float

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "marker": self.marker,
            "truth": self.truth,
            "mean_estimate": self.mean_estimate,
            "bias": self.bias,
            "rmse": self.rmse,
        }


@dataclass(frozen=True)
class MethodComparisonReport:
    scenario: ScenarioSpec
    component: int
    cells: tuple[MethodCell, ...]
    semiparametric_matches_when_positive: bool
    n_positive_slopes: int
    n_separation: int
    elapsed_seconds: float

    def cell(self, method: str, marker: int | None = None) -> MethodCell:
        marker = self.component if marker is None else marker
        for cell in self.cells:
            if cell.method == method and cell.marker == marker:
                return cell
        raise KeyError(f"no cell for ({method!r}, marker {marker})")

    def parametric_offset(self, marker: int | None = None) -> float:
        """Systematic shortfall of the parametric plug-in, reported with the
        positive orientation truth - mean(estimate)."""
        return -self.cell("parametric", marker).bias

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.config_dict(),
            "component": self.component,
            "cells": [c.to_dict() for c in self.cells],
            "parametric_offset": self.parametric_offset(),
            "semiparametric_matches_when_positive": self.semiparametric_matches_when_positive,
            "n_positive_slopes": self.n_positive_slopes,
            "n_separation": self.n_separation,
            "elapsed_seconds": self.elapsed_seconds,
        }


_COMPARISON_METHODS = ("empirical", "parametric", "semiparametric")
_FULL_AUC = WeightMeasure.full_auc()


def _comparison_rep(scenario: ScenarioSpec, plan: _GeneratorPlan, rep: int):
    rng = replicate_rng(scenario.seed, rep)
    dataset = generate_dataset(scenario, rng, plan)
    pairs = _stratum_rows(_stratum_blocks(dataset, None)[0])
    est = np.zeros((3, len(pairs)))
    matches = True
    positive = 0
    separated = 0
    for idx, (x, y) in enumerate(pairs):
        empirical = float(_stratum_wauc(x, y, _FULL_AUC, midrank=False))
        parametric, _ = baseline_parametric_auc(x.values, y.values)
        semi = baseline_semiparametric_auc(x.values, y.values)
        est[:, idx] = empirical, parametric, semi.auc
        if semi.slope > 0.0 and not semi.separation:
            positive += 1
            if semi.auc != empirical:
                matches = False
        if semi.separation:
            separated += 1
    return est, matches, positive, separated


def run_method_comparison(scenario: ScenarioSpec, component: int = 1,
                          n_jobs: int = 1) -> MethodComparisonReport:
    """Monte Carlo bias and RMSE of the three per-marker AUC estimators."""
    started = _time.perf_counter()
    if not 1 <= component <= scenario.design.n_markers:
        raise ValueError(f"component {component} outside 1..{scenario.design.n_markers}")
    estimates = _per_replicate(scenario.n_reps, 3, scenario.design.n_markers)
    matches, positive, separated = True, 0, 0
    for rep, (est, rep_matches, rep_positive, rep_separated) in _fan_out(
            _comparison_rep, scenario, n_jobs, pooled=True):
        estimates[rep] = est
        matches = matches and rep_matches
        positive += rep_positive
        separated += rep_separated
    cells = []
    for m_idx, method in enumerate(_COMPARISON_METHODS):
        for marker in range(1, scenario.design.n_markers + 1):
            truth = _marker_wauc(scenario, _FULL_AUC, marker)
            vals = estimates[:, m_idx, marker - 1]
            cells.append(MethodCell(
                method=method,
                marker=marker,
                truth=truth,
                mean_estimate=float(vals.mean()),
                bias=float(vals.mean() - truth),
                rmse=float(np.sqrt(np.mean((vals - truth) ** 2))),
            ))
    return MethodComparisonReport(
        scenario=scenario,
        component=component,
        cells=tuple(cells),
        semiparametric_matches_when_positive=matches,
        n_positive_slopes=positive,
        n_separation=separated,
        elapsed_seconds=_time.perf_counter() - started,
    )


# -- study registry ------------------------------------------------------


def _custom_scenario(n: int, *, rho: float, design: StudyDesign, mu_diseased, mu_nondiseased,
                     variances, name: str = "custom", family: str = "normal",
                     rho_diseased: float | None = None, rho_nondiseased: float | None = None,
                     cluster_sizes_diseased=(1, 1), cluster_sizes_nondiseased=(1, 1),
                     correlation_scope: str = "all") -> ScenarioSpec:
    """A scenario spelled out key by key: ``rho`` serves both groups unless
    ``rho_diseased`` or ``rho_nondiseased`` is given; full AUC, equal weights."""
    return ScenarioSpec(
        name=name, family=family, design=design, mu_diseased=mu_diseased,
        mu_nondiseased=mu_nondiseased, variances=variances,
        rho_diseased=rho if rho_diseased is None else rho_diseased,
        rho_nondiseased=rho if rho_nondiseased is None else rho_nondiseased,
        cluster_sizes_diseased=cluster_sizes_diseased,
        cluster_sizes_nondiseased=cluster_sizes_nondiseased,
        n_diseased=n, n_nondiseased=n, n_reps=DEFAULT_REPS, seed=DEFAULT_SEED,
        measures=(WeightMeasure.full_auc(),), weight_methods=("equal",),
        correlation_scope=correlation_scope)


@dataclass(frozen=True)
class _Study:
    builder: Callable[..., ScenarioSpec]   # builder(n=, **keys)
    runner: Callable
    takes: tuple[str, ...]                 # keys beside the common ones
    needs: tuple[str, ...] = ()            # keys it cannot do without
    rho: float = DEFAULT_RHO               # when it takes rho and none is given


# the keys that set a built scenario's run settings: key -> ScenarioSpec field
_RUN_SETTINGS = {"reps": "n_reps", "seed": "seed", "alpha": "alpha",
                 "measures": "measures", "weights": "weight_methods"}
# keys every study takes
_COMMON_KEYS = ("n", "m", "j", *_RUN_SETTINGS)

_STUDIES = {
    "table1": _Study(table1_scenario, run_study, ("rho", "family")),
    "table2": _Study(table2_scenario, run_method_comparison, ("rho", "family")),
    "table3": _Study(table3_scenario, run_study, ("rho",)),
    "table4": _Study(table4_scenario, run_study, ("family",)),
    "null": _Study(null_scenario, run_study, ("rho",)),
    "custom": _Study(_custom_scenario, run_study,
                     ("rho", "family", "name", "rho_diseased", "rho_nondiseased",
                      "cluster_sizes_diseased", "cluster_sizes_nondiseased",
                      "correlation_scope"),
                     needs=("design", "mu_diseased", "mu_nondiseased", "variances"), rho=0.0),
}


def study_names() -> tuple[str, ...]:
    """The studies the command line can run: all that need no key, so not ``custom``."""
    return tuple(name for name, row in _STUDIES.items() if not row.needs)


def study_scenario(study: str, **keys) -> tuple[Callable, ScenarioSpec]:
    """The runner of ``study`` and its scenario, built from ``keys``, for
    the command line's flags and a scenario file's keys alike.

    Every study takes ``n``, both group sizes (default 50), ``m`` or ``j``
    to override the diseased or the non-diseased one, ``reps``, ``seed``,
    ``alpha``, ``measures`` (WeightMeasures) and ``weights`` (method
    names); its ``_STUDIES`` row lists what else it takes and needs.  The
    builder gets ``n`` (or ``m``) and the study's own keys, ``rho`` left out
    being the row's (0.5, or 0.0 for ``custom``); one ``replace`` sets ``j``
    and the run settings given, the rest keeping the builder's (1000
    replicates, seed 20240817, alpha 0.05, the study's measures and
    weightings).  An unknown study, a key it does not take or a key it
    needs but lacks raises ``DataFormatError``.
    """
    if study not in _STUDIES:
        raise DataFormatError(f"unknown study {study!r}")
    row = _STUDIES[study]
    for key in keys:
        if key not in _COMMON_KEYS + row.takes + row.needs:
            raise DataFormatError(f"study {study} takes no {key}")
    missing = [key for key in row.needs if key not in keys]
    if missing:
        raise DataFormatError(f"study {study} needs {', '.join(missing)}")
    n = keys.pop("n", DEFAULT_N)
    settings = {attr: keys.pop(key) for key, attr in _RUN_SETTINGS.items() if key in keys}
    settings["n_nondiseased"] = keys.pop("j", n)
    if "rho" in row.takes:
        keys.setdefault("rho", row.rho)
    return row.runner, replace(row.builder(n=keys.pop("m", n), **keys), **settings)


# -- scenario files ------------------------------------------------------


def _parse_int_pair(text: str) -> tuple[int, int]:
    parts = [int(p) for p in text.split(",")]
    if len(parts) == 1:
        return parts[0], parts[0]
    if len(parts) == 2:
        return parts[0], parts[1]
    raise ValueError(f"expected one or two integers, got {text!r}")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# scenario-file key -> the reader of its value; study_scenario decides
# which keys a study takes
_KEY_READERS = {
    **dict.fromkeys(("n", "m", "j", "reps", "seed"), int),
    **dict.fromkeys(("alpha", "rho", "rho_diseased", "rho_nondiseased"), float),
    **dict.fromkeys(("family", "name", "correlation_scope"), str),
    **dict.fromkeys(("mu_diseased", "mu_nondiseased", "variances"), _floats),
    **dict.fromkeys(("cluster_sizes_diseased", "cluster_sizes_nondiseased"), _parse_int_pair),
    "design": parse_design,
    "measures": lambda text: tuple(parse_measure(token) for token in text.split()),
    "weights": lambda text: tuple(text.replace(",", " ").split()),
}


def read_scenario_file(source) -> tuple[str, Callable, ScenarioSpec]:
    """The study a scenario file names, with the runner and scenario that
    :func:`study_scenario` gives for the file's other keys.

    ``source`` is a path or an open handle, read as :func:`read_dataset_csv`
    reads one: bytes must be UTF-8 and a leading byte-order mark is dropped.
    Lines are ``key = value``; ``#`` starts a comment, on its own line or
    after a value, and a key given twice is an error naming its line.
    Required key ``study`` picks a named study or ``custom``; each other
    key's value is read by its reader in ``_KEY_READERS``, and the resolver
    applies the defaults and refuses a key the study does not take.
    """
    entries: dict[str, str] = {}
    for line_no, raw in enumerate(_read_text(source).splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"expected 'key = value', got {line!r}", line=line_no)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in entries:
            raise DataFormatError(f"scenario key {key!r} given twice", line=line_no)
        entries[key] = value.strip()

    study = entries.pop("study", None)
    if study is None:
        raise DataFormatError("scenario file needs a 'study' key")
    study = study.lower()
    unknown = sorted(set(entries) - set(_KEY_READERS))
    if unknown:
        raise DataFormatError(f"unknown scenario keys: {', '.join(unknown)}")
    for key in ("measures", "weights"):
        if key in entries and not entries[key].replace(",", " ").split():
            raise DataFormatError(f"scenario key {key!r} has no value")
    try:
        keys = {key: _KEY_READERS[key](value) for key, value in entries.items()}
        return (study, *study_scenario(study, **keys))
    except ValueError as exc:
        raise DataFormatError(f"bad scenario file: {exc}") from exc
