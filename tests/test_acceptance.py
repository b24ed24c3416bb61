"""Acceptance gate.

Each test evaluates one numbered release criterion against its frozen
tolerance, records a PASS/FAIL line for the terminal summary, and then
asserts.  Benchmark coverage and power targets are external reference
values the generators were designed to reproduce; criteria that miss them
fail here honestly rather than loosening the bands.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from wroc.covariance import bootstrap_covariance, sigma_matrix
from wroc.designs import StudyDesign
from wroc.estimators import auc, pauc, sensitivity_at_fpr, wauc, wauc_vector
from wroc.inference import compare_modalities, custom_weights, z_test
from wroc.measures import WeightMeasure
from wroc.simulation import (
    generate_dataset,
    null_scenario,
    replicate_rng,
    run_method_comparison,
    run_study,
    table1_scenario,
    table3_scenario,
    table4_scenario,
)

from conftest import clustered_dataset, paired_dataset, record_acceptance

FULL = WeightMeasure.full_auc()
PAUC_SEL = "pauc:0,0.6"
SEED = 20240817


# -- cached studies (shared between criteria) ----------------------------


@pytest.fixture(scope="module")
def reader_studies():
    rhos = (0.2, 0.5)
    sizes = (50, 100)
    return {(rho, n): run_study(table1_scenario(rho, n))
            for rho in rhos for n in sizes}


@pytest.fixture(scope="module")
def power_studies():
    rhos = (-0.1, 0.2, 0.5)
    sizes = (50, 100)
    return {(rho, n): run_study(table3_scenario(rho, n))
            for rho in rhos for n in sizes}


# -- criterion 1 ---------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    from oracles import auc_oracle, pauc_oracle, sensitivity_oracle

    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    checks = 0
    worst = None
    for _ in range(200):
        n_markers = int(rng.integers(1, 3))
        n_times = int(rng.integers(1, 3))
        m = int(rng.integers(1, 11))
        j = int(rng.integers(1, 11))

        def cells():
            return {(mk, t): list(np.round(rng.normal(0.0, 1.0,
                                                      int(rng.integers(1, 4))), 1))
                    for mk in range(1, n_markers + 1)
                    for t in range(1, n_times + 1)}

        ds = clustered_dataset([cells() for _ in range(m)],
                               [cells() for _ in range(j)],
                               n_markers=n_markers, n_times=n_times)
        upper = float(rng.uniform(0.1, 1.0))
        lower = float(rng.uniform(0.0, upper * 0.9))
        u0 = float(rng.uniform(0.01, 1.0))
        for mk in range(1, n_markers + 1):
            x = [v for rec in ds.diseased
                 for (mkk, _), cell in rec.cells.items() if mkk == mk
                 for v in cell]
            y = [v for rec in ds.nondiseased
                 for (mkk, _), cell in rec.cells.items() if mkk == mk
                 for v in cell]
            trials = (
                (auc(ds, mk), auc_oracle(x, y)),
                (auc(ds, mk, midrank=True), auc_oracle(x, y, midrank=True)),
                (pauc(ds, mk, lower, upper), pauc_oracle(x, y, lower, upper)),
                (sensitivity_at_fpr(ds, mk, u0), sensitivity_oracle(x, y, u0)),
            )
            for got, want in trials:
                checks += 1
                if got != want and worst is None:
                    worst = (got, want)
    elapsed = time.perf_counter() - start
    ok = worst is None and elapsed < 10.0
    record_acceptance(
        "1 estimator oracle equivalence",
        ok, f"{checks} exact comparisons over 200 clustered datasets, "
            f"{elapsed:.1f}s (budget 10s)")
    assert worst is None, f"estimator mismatch: {worst}"
    assert elapsed < 10.0


# -- criterion 2 ---------------------------------------------------------


def test_criterion_2_structural_components_equivalence():
    from oracles import delong_covariance_oracle

    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(50):
        count = int(rng.integers(2, 4))
        m = int(rng.integers(4, 25))
        j = int(rng.integers(4, 25))
        x_cols = [np.round(rng.normal(0.8, 1.0, m), 1) for _ in range(count)]
        y_cols = [np.round(rng.normal(0.0, 1.0, j), 1) for _ in range(count)]
        ds = paired_dataset(x_cols, y_cols)
        got = sigma_matrix(ds, None, FULL, midrank=True).sigma
        want = np.array(delong_covariance_oracle(x_cols, y_cols))
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-12
    record_acceptance(
        "2 placement covariance matches independent reference",
        ok, f"max |diff| {worst:.2e} over 50 datasets (tolerance 1e-12)")
    assert ok


# -- criterion 3 ---------------------------------------------------------

# benchmark coverage (percent) per (rho, n, measure) cell
COVERAGE_TARGETS = {
    (0.2, 50, "auc"): 91.66, (0.2, 50, PAUC_SEL): 93.70,
    (0.2, 100, "auc"): 89.87, (0.2, 100, PAUC_SEL): 91.20,
    (0.5, 50, "auc"): 94.12, (0.5, 50, PAUC_SEL): 95.70,
    (0.5, 100, "auc"): 92.10, (0.5, 100, PAUC_SEL): 93.00,
}


def test_criterion_3_reader_coverage_and_bias(reader_studies):
    details = []
    ok = True
    for (rho, n), report in sorted(reader_studies.items()):
        assert report.elapsed_seconds < 600.0
        for sel in ("auc", PAUC_SEL):
            cell = report.cell(sel, "equal")
            cov = 100.0 * cell.coverage
            target = COVERAGE_TARGETS[(rho, n, sel)]
            cov_ok = abs(cov - target) <= 3.0
            bias_ok = abs(cell.bias) < 0.005
            ok = ok and cov_ok and bias_ok
            tag = "" if cov_ok and bias_ok else "<-"
            details.append(f"({rho},{n},{sel}) cov {cov:.2f} vs {target}+-3.0 "
                           f"bias {cell.bias:+.5f} {tag}".rstrip())
    record_acceptance("3 reader-study coverage within 3 points, |bias|<0.005",
                      ok, "; ".join(details))
    assert ok, "\n".join(details)


# -- criterion 4 ---------------------------------------------------------


def test_criterion_4_optimal_weight_power(power_studies):
    head = power_studies[(0.5, 50)]
    eq = head.cell("auc", "equal").power
    opt = head.cell("auc", "optimal").power
    head_ok = abs(eq - 0.327) <= 0.05 and abs(opt - 0.703) <= 0.05
    mono_bad = []
    for (rho, n), report in sorted(power_studies.items()):
        for sel in ("auc", PAUC_SEL):
            p_eq = report.cell(sel, "equal").power
            p_opt = report.cell(sel, "optimal").power
            if p_opt < p_eq:
                mono_bad.append(f"({rho},{n},{sel}) {p_opt:.3f}<{p_eq:.3f}")
    ok = head_ok and not mono_bad
    record_acceptance(
        "4 optimal-weight power",
        ok, f"rho=0.5 n=50 auc: equal {eq:.3f} (need 0.327+-0.05), "
            f"optimal {opt:.3f} (need 0.703+-0.05); "
            f"optimal>=equal in {12 - len(mono_bad)}/12 cells")
    assert not mono_bad, mono_bad
    assert head_ok, f"equal {eq:.3f} optimal {opt:.3f}"


# -- criterion 5 ---------------------------------------------------------


def test_criterion_5_longitudinal_coverage():
    report = run_study(table4_scenario(50, "normal"))
    cell = report.cell("auc", "equal")
    cov = 100.0 * cell.coverage
    pauc_cov = 100.0 * report.cell(PAUC_SEL, "equal").coverage
    ok = abs(cov - 97.40) <= 3.0
    record_acceptance(
        "5 longitudinal coverage within 3 points of 97.40",
        ok, f"auc cov {cov:.2f} (pauc cov {pauc_cov:.2f}), "
            f"bias {cell.bias:+.5f}, {report.elapsed_seconds:.0f}s")
    assert ok, f"coverage {cov:.2f} outside 97.40+-3.0"


# -- criterion 6 ---------------------------------------------------------


def test_criterion_6_z_test_arithmetic():
    first = z_test(-0.1115, 0.0006961)
    second = z_test(-0.1145, 0.0007475)
    rel1 = abs(first.p_value - 2.36e-5) / 2.36e-5
    rel2 = abs(second.p_value - 2.82e-5) / 2.82e-5
    ok = rel1 < 0.02 and rel2 < 0.02
    record_acceptance(
        "6 z-test tail arithmetic",
        ok, f"p {first.p_value:.3e} vs 2.36e-5 (rel {rel1:.4f}), "
            f"p {second.p_value:.3e} vs 2.82e-5 (rel {rel2:.4f})")
    assert ok


# -- criterion 7 ---------------------------------------------------------


def test_criterion_7_misspecified_parametric_baseline():
    from wroc.simulation import table2_scenario

    report = run_method_comparison(table2_scenario(0.5, 50))
    offset = report.parametric_offset()
    emp_bias = report.cell("empirical").bias
    ok = (0.05 <= offset <= 0.09 and abs(emp_bias) < 0.02
          and report.semiparametric_matches_when_positive)
    record_acceptance(
        "7 parametric shortfall under lognormal, rank methods unbiased",
        ok, f"parametric offset {offset:+.4f} (need [0.05,0.09]), "
            f"empirical bias {emp_bias:+.4f} (need |.|<0.02), "
            f"semiparametric==empirical on {report.n_positive_slopes} "
            f"positive-slope fits: {report.semiparametric_matches_when_positive}")
    assert ok


# -- criterion 8 ---------------------------------------------------------


def test_criterion_8_invariances_and_variance_agreement(reader_studies):
    sc = table1_scenario(0.5, 100)
    ds = generate_dataset(sc, replicate_rng(sc.seed, 0))
    dt = generate_dataset(replace(sc, family="lognormal"),
                          replicate_rng(sc.seed, 0))
    design = StudyDesign.readers(3)

    monotone = (
        np.array_equal(wauc_vector(ds, design, FULL).values,
                       wauc_vector(dt, design, FULL).values)
        and np.array_equal(wauc_vector(ds, design, WeightMeasure.partial_auc(0.0, 0.6)).values,
                           wauc_vector(dt, design, WeightMeasure.partial_auc(0.0, 0.6)).values)
        and np.array_equal(sigma_matrix(ds, design, FULL).sigma,
                           sigma_matrix(dt, design, FULL).sigma))

    base = WeightMeasure.steps(((0.25, 0.5), (0.5, 0.25)))
    scaled = WeightMeasure.steps(((0.25, 4.0), (0.5, 2.0)))
    mass_scale = wauc(ds, 1, scaled) == 8.0 * wauc(ds, 1, base)
    one = compare_modalities(ds, design, FULL, weights=custom_weights([1.0, 3.0, 4.0]))
    two = compare_modalities(ds, design, FULL, weights=custom_weights([8.0, 24.0, 32.0]))
    weight_scale = mass_scale and one.estimate == two.estimate

    pauc_full = all(pauc(ds, mk, 0.0, 1.0) == auc(ds, mk) for mk in range(1, 7))

    cell = reader_studies[(0.5, 100)].cell("auc", "equal")
    var_rel = abs(cell.mean_variance - cell.mc_variance) / cell.mc_variance

    analytic = sigma_matrix(ds, design, FULL).sigma
    boot = bootstrap_covariance(ds, design, FULL, 1000, SEED).sigma
    boot_rel = float(np.max(np.abs(np.diag(boot) - np.diag(analytic))
                            / np.diag(analytic)))

    ok = (monotone and weight_scale and pauc_full
          and var_rel < 0.10 and boot_rel < 0.15)
    record_acceptance(
        "8 invariances and variance agreement",
        ok, f"monotone {monotone}, weight-scale {weight_scale}, "
            f"pauc(0,1)==auc {pauc_full}, analytic-vs-MC rel {var_rel:.3f} "
            f"(need <0.10), bootstrap diag rel {boot_rel:.3f} (need <0.15)")
    assert ok


# -- criterion 9 ---------------------------------------------------------


def test_criterion_9_null_calibration():
    report = run_study(replace(null_scenario(n=200), n_reps=2000))
    eq = report.cell("auc", "equal").power
    opt = report.cell("auc", "optimal").power
    ok = abs(eq - 0.05) <= 0.02 and abs(opt - 0.05) <= 0.02
    record_acceptance(
        "9 null rejection calibration",
        ok, f"equal {eq:.4f}, optimal {opt:.4f} over {report.cell('auc', 'equal').n_reps} "
            f"reps (need 0.05+-0.02)")
    assert ok
