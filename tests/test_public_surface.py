"""The public surface: what ``wroc`` exports, and what the benchmark's
tracer wraps from outside."""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import wroc

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

REMOVED = ("delta_m", "delta_longitudinal", "joint_survival", "parse_scenario_file",
           "ContrastFunction", "per_time_wauc", "pooled_counts", "parse_scenario_text",
           "sample_mvn", "density_ratio", "silverman_bandwidth", "EmpiricalSurvival",
           "survival_curve")


def test_every_exported_name_resolves():
    assert len(set(wroc.__all__)) == len(wroc.__all__)
    for name in wroc.__all__:
        assert getattr(wroc, name, None) is not None, name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in wroc.__all__
        assert not hasattr(wroc, name), name
    assert not hasattr(importlib.import_module("wroc.inference"), "delta_m")
    assert not hasattr(importlib.import_module("wroc.covariance"), "joint_survival")
    assert not hasattr(importlib.import_module("wroc.simulation"), "parse_scenario_file")
    assert not hasattr(importlib.import_module("wroc.designs"), "GRADIENT_STEP")
    assert not hasattr(importlib.import_module("wroc.designs"), "ContrastFunction")
    assert not hasattr(importlib.import_module("wroc.covariance"), "DEFAULT_NODES")
    assert not hasattr(importlib.import_module("wroc.estimators"), "per_time_wauc")
    assert not hasattr(importlib.import_module("wroc.dataset"), "pooled_counts")
    assert not hasattr(importlib.import_module("wroc.simulation"), "parse_scenario_text")
    assert not hasattr(importlib.import_module("wroc.simulation"), "sample_mvn")
    assert not hasattr(importlib.import_module("wroc.covariance"), "density_ratio")
    assert not hasattr(importlib.import_module("wroc.covariance"), "silverman_bandwidth")
    # the generator's helper, not an export
    assert "compound_symmetry" not in wroc.__all__ and not hasattr(wroc, "compound_symmetry")
    assert hasattr(importlib.import_module("wroc.simulation"), "compound_symmetry")
    normal = importlib.import_module("wroc._normal")
    assert not hasattr(normal, "erf") and not hasattr(normal, "erfc")
    estimators = importlib.import_module("wroc.estimators")
    assert not hasattr(estimators, "EmpiricalSurvival")
    assert not hasattr(estimators, "survival_curve")
    for cls, attrs in ((wroc.DeltaVariance, ("__float__",)),
                       (wroc.WaucVector, ("as_dict",)),
                       (wroc.ComparisonResult, ("to_dict",)),
                       (wroc.CovarianceEstimate, ("n_strata",)),
                       (wroc.StudyDesign, ("n_strata",)),
                       (wroc.SubjectRecord, ("n_values",)),
                       (importlib.import_module("wroc.dataset").GroupColumns, ("equals",))):
        for attr in attrs:
            assert not hasattr(cls, attr), f"{cls.__name__}.{attr}"
    assert "raw_sum" not in {f.name for f in dataclasses.fields(wroc.WeightVector)}
    assert [f.name for f in dataclasses.fields(wroc.WaucVector)] == ["values", "labels"]
    assert not {"labels", "measure", "design"} & {
        f.name for f in dataclasses.fields(wroc.CovarianceEstimate)}


def test_options_with_one_value_in_use_are_constants():
    for func, params in ((wroc.sigma_matrix, ("n_nodes",)),
                         (wroc.baseline_semiparametric_auc, ("max_iter", "tol")),
                         (wroc.WeightMeasure.steps, ("normalized",)),
                         (wroc.z_test, ("null",))):
        assert not set(params) & set(inspect.signature(func).parameters), func.__name__


def test_benchmark_tracer_finds_every_target():
    """A traced benchmark run exits on a missing wrap target; the same
    lookup, run here without switching the wrappers on."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {name: importlib.import_module(name) for name in spans.LAYER_MODULES}
    _, missing = spans.install(spans.Tracer(), modules)
    assert missing == []
