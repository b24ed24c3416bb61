"""Scenario construction, data generation, truths, runners, baselines."""

import io
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from wroc.dataset import dataset_to_csv_text
from wroc.designs import StudyDesign, parse_design
from wroc.errors import DataFormatError, DegenerateDensityError, SingularCovarianceError, WrocError
from wroc.estimators import auc, wauc_vector
from wroc.inference import compare_modalities
from wroc.measures import WeightMeasure, parse_measure
from wroc.simulation import (
    ScenarioSpec,
    _build_plan,
    _draw,
    _simulate_one_rep,
    baseline_parametric_auc,
    baseline_semiparametric_auc,
    binormal_roc,
    compound_symmetry,
    generate_dataset,
    null_scenario,
    read_scenario_file,
    replicate_rng,
    run_method_comparison,
    run_study,
    study_names,
    study_scenario,
    table1_scenario,
    table2_scenario,
    table3_scenario,
    table4_scenario,
    true_paired_delta,
    true_wauc,
)

from conftest import assert_strata_equal
from oracles import (
    old_sample_mvn,
    old_table3_scenario,
    old_true_paired_delta,
    record_csv_text,
    record_draw_group,
    record_strata,
)

FULL = WeightMeasure.full_auc()
PAUC = WeightMeasure.partial_auc(0.0, 0.6)


# -- covariance construction and sampling --------------------------------


def test_compound_symmetry_frozen():
    cov = compound_symmetry((1.0, 4.0), 0.5)
    np.testing.assert_allclose(cov, [[1.0, 1.0], [1.0, 4.0]])
    with pytest.raises(ValueError):
        compound_symmetry((1.0, 1.0, 1.0), -0.9)   # breaks positive definiteness


def test_draw_moments():
    rng = np.random.default_rng(100)
    cov = compound_symmetry((1.0, 2.0, 1.5), 0.4)
    draws = _draw(np.array([1.0, 0.0, -1.0]), np.linalg.cholesky(cov), 60000, rng, "normal")
    np.testing.assert_allclose(draws.mean(axis=0), [1.0, 0.0, -1.0], atol=0.03)
    np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.06)


def test_draw_lognormal_is_exp_of_normal():
    mu, chol = np.array([0.5, 0.5]), np.linalg.cholesky(compound_symmetry((1.0, 1.0), 0.2))
    normal = _draw(mu, chol, 50, np.random.default_rng(7), "normal")
    logn = _draw(mu, chol, 50, np.random.default_rng(7), "lognormal")
    np.testing.assert_array_equal(logn, np.exp(normal))


def test_draw_matches_old_form_bitwise():
    mu = np.array([0.5, 0.0, -0.5])
    cov = compound_symmetry((1.0, 1.5, 2.0), 0.3)
    for family in ("normal", "lognormal"):
        got = _draw(mu, np.linalg.cholesky(cov), 40, np.random.default_rng(19), family)
        want = old_sample_mvn(mu, cov, 40, np.random.default_rng(19), family)
        assert got.tobytes() == want.tobytes(), family


# -- closed-form truths ---------------------------------------------------


def test_true_auc_closed_form():
    # unit-variance binormal with unit shift
    assert true_wauc(FULL, 1.0, 1.0, 0.0, 1.0) == pytest.approx(
        0.7602499389065233, abs=1e-15)
    assert true_wauc(FULL, 0.0, 1.0, 0.0, 1.0) == 0.5


def test_true_pauc_quadrature_consistent():
    full = true_wauc(FULL, 1.3, 1.2, 0.0, 1.0)
    via_quad = true_wauc(WeightMeasure.partial_auc(0.0, 1.0), 1.3, 1.2, 0.0, 1.0)
    assert via_quad == pytest.approx(full, abs=1e-9)
    part = true_wauc(PAUC, 1.3, 1.2, 0.0, 1.0)
    assert 0.0 < part < full


def _pauc(a, b, lower, upper):
    """The pAUC truth at ``a = (mu_x - mu_y) / sd_x`` and ``b = sd_y / sd_x``."""
    return true_wauc(WeightMeasure.partial_auc(lower, upper), a, 1.0, 0.0, b)


def _phi(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def test_true_pauc_half_window_is_an_angle():
    """At ``a = 0`` the window (0, 1/2) holds ``P(W <= bZ, Z <= 0)``, the
    share ``atan(1/b) / 2π`` of the plane; over b from 0.01 to 1000 this
    runs through both forms of the rule."""
    for b in np.geomspace(0.01, 1000.0, 41):
        want = math.atan(1.0 / b) / (2.0 * math.pi)
        assert _pauc(0.0, b, 0.0, 0.5) == pytest.approx(want, rel=1e-13, abs=0), b


def test_true_pauc_of_the_chance_line():
    for lower, upper in [(0.0, 0.6), (0.1, 0.3), (0.0, 1.0), (0.2, 0.9), (0.5, 1.0),
                         (0.0, 1e-6), (0.999, 1.0)]:
        want = (upper * upper - lower * lower) / 2.0
        assert _pauc(0.0, 1.0, lower, upper) == pytest.approx(want, rel=1e-13, abs=0), \
            (lower, upper)


def test_true_pauc_windows_add_up_to_the_auc():
    for a in np.linspace(-4.0, 8.0, 49):
        for b in (0.05, 0.3, 1.0, 1.7, 10.0, 100.0):
            want = _phi(a / math.hypot(1.0, b))
            assert _pauc(a, b, 0.0, 1.0) == pytest.approx(want, rel=1e-13, abs=0), (a, b)
            for cut in (1e-9, 0.01, 0.3, 0.6, 0.99):
                split = _pauc(a, b, 0.0, cut) + _pauc(a, b, cut, 1.0)
                assert split == pytest.approx(want, rel=0, abs=1e-14), (a, b, cut)


@pytest.mark.parametrize("params, lower, upper, want", [
    ((4.0, 0.3, 0.0, 3.0), 0.0, 1.0, 0.907698718861209881232738),
    ((4.0, 0.3, 0.0, 3.0), 0.0, 0.6, 0.5076987188612098590282775),
    ((4.0, 0.3, 0.0, 3.0), 0.1, 0.4, 0.2963916567584850329832298),
    ((2.0, 0.6, 1.5, 1.3), 0.0, 1.0, 0.6365361025717273425950867),
    ((2.0, 0.6, 1.5, 1.3), 0.0, 0.6, 0.2428481235343767452636524),
    ((2.0, 0.6, 1.5, 1.3), 0.1, 0.4, 0.08492286733827600355531885),
])
def test_true_pauc_of_steep_binormals(params, lower, upper, want):
    """Steep ROC curves (``b`` = 10 and 2.2) against 40-digit references
    (mpmath quadrature in z, split at the integers ±1, ±2, ±4, ±8)."""
    got = true_wauc(WeightMeasure.partial_auc(lower, upper), *params)
    assert got == pytest.approx(want, rel=1e-15, abs=0)


def test_true_atom_measures():
    u0 = 0.25
    want = float(binormal_roc(u0, 1.0, 1.0, 0.0, 1.0))
    assert true_wauc(WeightMeasure.point_mass(u0), 1.0, 1.0, 0.0, 1.0) == pytest.approx(want)
    steps = WeightMeasure.steps(((0.2, 0.5), (0.6, 0.5)))
    want2 = 0.5 * binormal_roc(0.2, 1.0, 1.0, 0.0, 1.0) + 0.5 * binormal_roc(0.6, 1.0, 1.0, 0.0, 1.0)
    assert true_wauc(steps, 1.0, 1.0, 0.0, 1.0) == pytest.approx(float(want2))


def test_true_wauc_family_rank_invariance():
    # exponentiation preserves ranks, so one truth serves both families: a
    # lognormal draw has the empirical wAUCs of its latent normal draw
    normal = table1_scenario(0.5, 20, "normal")
    lognormal = table1_scenario(0.5, 20, "lognormal")
    for rep in range(3):
        a = generate_dataset(normal, replicate_rng(normal.seed, rep))
        b = generate_dataset(lognormal, replicate_rng(lognormal.seed, rep))
        for measure in (FULL, PAUC):
            np.testing.assert_array_equal(wauc_vector(a, normal.design, measure).values,
                                          wauc_vector(b, lognormal.design, measure).values)
    assert true_paired_delta(lognormal, PAUC) == true_paired_delta(normal, PAUC)


def test_true_paired_deltas_per_table():
    assert true_paired_delta(table1_scenario(0.5, 50), FULL) == 0.0
    t3 = true_paired_delta(table3_scenario(0.5, 50), FULL)
    # per-reader AUC is Phi(mu / sqrt(2 var)); reader 3 has a zero delta
    d1 = norm.cdf(2 / math.sqrt(2.0)) - norm.cdf(1 / math.sqrt(4.0))
    d2 = norm.cdf(1 / math.sqrt(3.0)) - norm.cdf(1 / math.sqrt(6.0))
    assert t3 == pytest.approx((d1 + d2) / 3.0, abs=1e-12)
    assert t3 == pytest.approx(0.0965, abs=5e-4)
    t4 = true_paired_delta(table4_scenario(50), FULL)
    assert t4 == pytest.approx(norm.cdf(2 / math.sqrt(2.0)) - norm.cdf(1 / math.sqrt(2.0)),
                               abs=1e-12)
    assert t4 == pytest.approx(0.1611, abs=5e-5)


# -- scenario builders keep their published constants ---------------------


@pytest.mark.parametrize("rho", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("n", [5, 50])
def test_table3_scenario_matches_old_form(rho, n):
    assert table3_scenario(rho, n) == old_table3_scenario(rho, n)
    custom = {"n_reps": 7, "seed": 11, "measures": [FULL, WeightMeasure.point_mass(0.3)],
              "weight_methods": ["optimal"]}
    assert replace(table3_scenario(rho, n), **custom) == old_table3_scenario(rho, n, **custom)


def test_truths_match_old_form_bitwise():
    measures = [parse_measure(text) for text in
                ("auc", "pauc:0,0.6", "sens:0.3", "steps:0.2=0.25,0.6=0.5")]
    scenarios = [table1_scenario(0.5, 20, "lognormal"), table2_scenario(0.5, 20),
                 table3_scenario(0.5, 50), table4_scenario(50, "normal"), null_scenario()]
    for scenario in scenarios:
        for measure in measures:
            got = true_paired_delta(scenario, measure)
            want = old_true_paired_delta(scenario, measure)
            assert got.hex() == want.hex(), (scenario.name, measure.selector())


def test_config_design_is_the_design_selector():
    for study in study_names():
        _, scenario = study_scenario(study, n=10)
        selector = scenario.config_dict()["design"]
        assert parse_design(selector) == scenario.design
    assert table4_scenario(10).config_dict()["design"] == "longitudinal:3"
    assert table1_scenario(0.5, 10).config_dict()["design"] == "readers:3"


def test_table1_constants():
    sc = table1_scenario(0.2, 50, "normal")
    assert sc.design == StudyDesign.readers(3)
    assert sc.mu_diseased == (1.0,) * 6
    assert sc.mu_nondiseased == (0.0,) * 6
    assert sc.variances == (1.0, 1.5, 2.0, 1.0, 1.5, 2.0)
    assert sc.rho_diseased == sc.rho_nondiseased == 0.2
    assert sc.n_diseased == sc.n_nondiseased == 50
    assert sc.correlation_scope == "modality"
    assert [m.selector() for m in sc.measures] == ["auc", "pauc:0,0.6"]


def test_table2_constants():
    sc = table2_scenario(0.5, 100)
    assert sc.family == "lognormal"
    assert sc.mu_diseased == (1.0, 1.0, 1.0, 1.5, 2.0, 2.5)
    assert sc.variances == (1.0, 1.5, 2.0, 1.0, 1.5, 2.0)
    assert [m.selector() for m in sc.measures] == ["auc"]


def test_table3_constants():
    sc = table3_scenario(-0.1, 50)
    assert sc.mu_diseased == (2.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert sc.variances == (1.0, 1.5, 2.0, 2.0, 3.0, 2.0)
    assert sc.weight_methods == ("equal", "optimal")
    assert sc.correlation_scope == "modality"


def test_table4_constants():
    sc = table4_scenario(50)
    assert sc.design == StudyDesign.longitudinal(3)
    assert sc.family == "lognormal"
    assert sc.mu_diseased == (2.0, 1.0)
    assert sc.variances == (1.0, 1.0)
    assert (sc.rho_diseased, sc.rho_nondiseased) == (0.4, 0.3)
    assert sc.cluster_sizes_diseased == (2, 4)
    assert sc.cluster_sizes_nondiseased == (5, 3)
    assert sc.correlation_scope == "all"


def test_scenario_validation():
    with pytest.raises(ValueError):
        table1_scenario(0.5, 1)                     # too few subjects
    with pytest.raises(ValueError):
        replace(table1_scenario(0.5, 50), variances=(1.0,) * 5)
    with pytest.raises(ValueError):
        replace(table1_scenario(0.5, 50), weight_methods=("inverse",))
    with pytest.raises(ValueError):
        replace(table1_scenario(0.5, 50), correlation_scope="blocks")
    with pytest.raises(ValueError):
        replace(table4_scenario(50), correlation_scope="modality")
    for alpha in (0.0, 1.0, 2.0, math.nan, 1e-17, 1e-300):
        with pytest.raises(ValueError, match="alpha"):
            replace(table1_scenario(0.5, 50), alpha=alpha)
    # the smallest alphas whose critical value is finite still build
    assert replace(table1_scenario(0.5, 50), alpha=2.3e-16).alpha == 2.3e-16


def test_empty_weightings_are_an_error():
    # a study with no weighting used to run and report no cells at all
    with pytest.raises(ValueError, match="^need at least one weight method$"):
        run_study(replace(table3_scenario(0.5, 10), n_reps=2, weight_methods=()))
    with pytest.raises(ValueError, match="^need at least one weight method$"):
        study_scenario("table3", n=10, weights=())
    with pytest.raises(ValueError, match="^need at least one weight measure$"):
        replace(table3_scenario(0.5, 10), measures=[])


def test_run_settings_given_as_lists_are_stored_as_tuples():
    listed = replace(table3_scenario(0.5, 10), measures=[FULL], weight_methods=["optimal"])
    tupled = replace(table3_scenario(0.5, 10), measures=(FULL,), weight_methods=("optimal",))
    assert listed == tupled
    assert hash(listed) == hash(tupled)
    assert (listed.measures, listed.weight_methods) == ((FULL,), ("optimal",))


def test_study_names():
    assert set(study_names()) == {"table1", "table2", "table3", "table4", "null"}


def test_study_scenario_defaults_and_rejections():
    assert study_scenario("table1", n=20) == (run_study, table1_scenario(0.5, 20, "normal"))
    assert study_scenario("table2", n=20, rho=0.2) == (
        run_method_comparison, table2_scenario(0.2, 20, "lognormal"))
    assert study_scenario("table3", n=20, reps=7, seed=3)[1] == replace(
        table3_scenario(0.5, 20), n_reps=7, seed=3)
    assert study_scenario("table4", n=20, family="normal")[1] == table4_scenario(20, "normal")
    assert study_scenario("null", n=20)[1] == replace(null_scenario(0.5, 20), n_reps=1000)
    # n, reps and seed left out take the study defaults, whatever the builder's own
    assert study_scenario("null")[1] == replace(null_scenario(0.5, 50), n_reps=1000,
                                                seed=20240817)
    # acceptance criterion 9's study, as `wroc simulate null --n 200 --reps 2000` runs it
    assert study_scenario("null", n=200, reps=2000)[1] == replace(null_scenario(n=200),
                                                                  n_reps=2000)
    with pytest.raises(DataFormatError, match="takes no family"):
        study_scenario("table3", n=20, family="lognormal")
    with pytest.raises(DataFormatError, match="takes no rho"):
        study_scenario("table4", n=20, rho=0.5)
    with pytest.raises(DataFormatError, match="^study table1 takes no name$"):
        study_scenario("table1", n=20, name="mine")
    with pytest.raises(DataFormatError, match="unknown study"):
        study_scenario("table9", n=20)


# -- dataset generation ---------------------------------------------------


def test_generate_dataset_cluster_layout():
    sc = table4_scenario(7)   # diseased sizes 2 then 4, nondiseased 5 then 3
    ds = generate_dataset(sc, replicate_rng(sc.seed, 0))
    assert ds.n_diseased == 7
    assert ds.n_nondiseased == 7
    assert ds.n_markers == 2
    assert ds.n_times == 3
    first_half = (7 + 1) // 2
    for i, rec in enumerate(ds.diseased):
        want = 2 if i < first_half else 4
        assert all(len(rec.cells[(mk, t)]) == want
                   for mk in (1, 2) for t in (1, 2, 3))
    for j, rec in enumerate(ds.nondiseased):
        want = 5 if j < first_half else 3
        assert all(len(rec.cells[(mk, t)]) == want
                   for mk in (1, 2) for t in (1, 2, 3))


@pytest.mark.parametrize("scenario", [table3_scenario(0.5, 50), table4_scenario(50, "normal"),
                                      table4_scenario(9)],
                         ids=["table3", "table4", "table4_lognormal"])
def test_generated_dataset_matches_record_path(scenario):
    """Columns written straight from the Cholesky draws give the strata and
    CSV that records split from the same draws give."""
    plan = _build_plan(scenario)
    n_markers, n_times = scenario.design.n_markers, scenario.design.n_times
    for rep in range(20):
        ds = generate_dataset(scenario, replicate_rng(scenario.seed, rep), plan)
        rng = replicate_rng(scenario.seed, rep)
        diseased = record_draw_group(plan.diseased.halves, scenario.family, rng, "d",
                                     n_markers, n_times)
        nondiseased = record_draw_group(plan.nondiseased.halves, scenario.family, rng, "n",
                                        n_markers, n_times)
        assert_strata_equal(ds, record_strata(diseased, nondiseased, n_markers, n_times))
        assert dataset_to_csv_text(ds) == record_csv_text(diseased, nondiseased)


def test_generate_dataset_reproducible():
    sc = table1_scenario(0.5, 20)
    a = generate_dataset(sc, replicate_rng(sc.seed, 3))
    b = generate_dataset(sc, replicate_rng(sc.seed, 3))
    c = generate_dataset(sc, replicate_rng(sc.seed, 4))
    assert a == b
    assert a != c


def test_lognormal_dataset_is_exp_of_normal_dataset():
    base = table1_scenario(0.2, 16, "normal")
    logn = replace(base, family="lognormal")
    a = generate_dataset(base, replicate_rng(base.seed, 5))
    b = generate_dataset(logn, replicate_rng(logn.seed, 5))
    va = a.stratum("diseased", 1).values
    vb = b.stratum("diseased", 1).values
    np.testing.assert_array_equal(vb, np.exp(va))
    # rank invariance carries to the estimator
    assert auc(a, 1) == auc(b, 1)


def test_modality_scope_blocks_are_independent():
    sc = replace(table1_scenario(0.5, 600), n_nondiseased=2)
    ds = generate_dataset(sc, replicate_rng(1, 0))
    cols = []
    for mk in range(1, 7):
        st = ds.stratum("diseased", mk)
        cols.append(st.values[np.argsort(st.subjects)])
    cc = np.corrcoef(np.array(cols))
    within = [cc[0, 1], cc[0, 2], cc[1, 2], cc[3, 4], cc[3, 5], cc[4, 5]]
    across = [cc[0, 3], cc[0, 4], cc[1, 5], cc[2, 4]]
    assert min(within) > 0.3
    assert max(np.abs(across)) < 0.2


# -- study runner ---------------------------------------------------------


def test_run_study_smoke_and_determinism():
    sc = replace(table1_scenario(0.5, 14), n_reps=25,
                 measures=(FULL,), weight_methods=("equal", "optimal"))
    rep1 = run_study(sc)
    rep2 = run_study(sc)
    for cell1, cell2 in zip(rep1.cells, rep2.cells):
        np.testing.assert_array_equal(cell1.estimates, cell2.estimates)
    cell = rep1.cell(FULL, "equal")
    assert cell.n_reps == 25
    assert cell.n_failures == 0
    assert 0.0 <= cell.coverage <= 1.0
    assert 0.0 <= cell.power <= 1.0
    assert cell.mean_variance > 0.0
    assert rep1.cell("auc", "optimal").weight_method == "optimal"
    with pytest.raises(KeyError):
        rep1.cell("auc", "custom")
    d = rep1.to_dict()
    assert d["scenario"]["correlation_scope"] == "modality"
    assert len(d["cells"]) == 2
    assert "bias_pct" in d["cells"][0]


def test_run_study_counts_package_errors_and_raises_others(monkeypatch):
    sc = replace(table1_scenario(0.5, 8), n_reps=3, measures=(FULL,),
                 weight_methods=("equal", "optimal"))

    def degenerate(*args, **kwargs):
        raise DegenerateDensityError("no density")

    monkeypatch.setattr("wroc.simulation.sigma_matrix", degenerate)
    assert [cell.n_failures for cell in run_study(sc).cells] == [3, 3]

    def broken(*args, **kwargs):
        raise ValueError("a programming error")

    # a plain ValueError is no replicate failure: it reaches the caller
    monkeypatch.setattr("wroc.simulation.sigma_matrix", broken)
    with pytest.raises(ValueError, match="a programming error"):
        run_study(sc)


@pytest.fixture
def in_process_pool(monkeypatch):
    """A stand-in pool that runs the chunks in this process and starts no
    worker; it records the workers asked for and the chunks handed out."""

    class InProcessPool:
        asked = []
        chunks = []

        def __init__(self, max_workers):
            self.asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            self.chunks.extend(iterables[-1])
            return map(fn, *iterables)

    monkeypatch.setattr("wroc.simulation.ProcessPoolExecutor", InProcessPool)
    return InProcessPool


def test_run_study_starts_no_more_workers_than_chunks(in_process_pool):
    """Five replicates with ``n_jobs=64`` ask for five workers."""
    sc = replace(null_scenario(0.5, 10), n_reps=5)
    fanned = run_study(sc, n_jobs=64)
    assert in_process_pool.asked == [5]
    for got, want in zip(fanned.cells, run_study(sc).cells):
        np.testing.assert_array_equal(got.estimates, want.estimates)


def test_fan_out_hands_out_ranges_with_array_splits_bounds(in_process_pool):
    """23 replicates over 2 workers go out as 8 ranges, cut where
    ``np.array_split`` cuts, and the workers' results fill the
    per-replicate arrays in replicate order."""
    sc = replace(null_scenario(0.5, 10), n_reps=23)
    fanned = run_study(sc, n_jobs=2)
    assert in_process_pool.chunks == [range(int(c[0]), int(c[-1]) + 1)
                                      for c in np.array_split(np.arange(23), 8)]
    for got, want in zip(fanned.cells, run_study(sc).cells):
        np.testing.assert_array_equal(got.estimates, want.estimates)
        np.testing.assert_array_equal(got.variances, want.variances)


# table3 and null at n 3: a few replicates leave the paired difference a
# variance of 0 or a rounding error below it
SMALL_N = {"table3": replace(table3_scenario(0.5, 3), n_reps=400),
           "null": replace(null_scenario(0.5, 3), n_reps=400)}
# (replicate, cell) of such replicates; cells run measure-major, then weighting
ZERO_VARIANCE_CELLS = {"table3": [(55, 3), (104, 3), (222, 1), (283, 1), (290, 0), (308, 1)],
                       "null": [(29, 1), (177, 0)]}


def _small_n_rows(study):
    scenario = SMALL_N[study]
    plan = _build_plan(scenario)
    return scenario, plan, [_simulate_one_rep(scenario, plan, rep)
                            for rep in range(scenario.n_reps)]


@pytest.mark.parametrize("study", sorted(SMALL_N))
def test_kept_replicates_have_a_positive_variance(study):
    _, _, rows = _small_n_rows(study)
    for row in rows:
        for estimate, variance, fallback, failed in row:
            assert failed in (0.0, 1.0)
            if failed == 0.0:
                assert math.isfinite(estimate) and variance > 0.0 and fallback in (0.0, 1.0)


@pytest.mark.parametrize("study", sorted(SMALL_N))
def test_run_study_takes_no_square_root_of_a_negative(study):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_study(SMALL_N[study])
    assert sum(cell.n_failures for cell in report.cells) >= len(ZERO_VARIANCE_CELLS[study])


@pytest.mark.parametrize("study", sorted(SMALL_N))
def test_a_replicate_fails_where_compare_does(study):
    """The simulator and ``compare_modalities`` share one rule: a replicate
    cell fails exactly when the comparison of its dataset raises, and a kept
    one has the comparison's estimate and variance, bit for bit."""
    scenario, plan, rows = _small_n_rows(study)
    cells = [(measure, method) for measure in scenario.measures
             for method in scenario.weight_methods]
    for rep, row in enumerate(rows):
        dataset = generate_dataset(scenario, replicate_rng(scenario.seed, rep), plan)
        for (measure, method), (estimate, variance, _, failed) in zip(cells, row):
            try:
                result = compare_modalities(dataset, scenario.design, measure, weights=method)
            except (WrocError, np.linalg.LinAlgError):
                assert failed == 1.0, (rep, measure.selector(), method)
                continue
            assert failed == 0.0, (rep, measure.selector(), method)
            assert (result.estimate, result.variance) == (estimate, variance)
    for rep, idx in ZERO_VARIANCE_CELLS[study]:
        assert rows[rep][idx, 3] == 1.0
        measure, method = cells[idx]
        dataset = generate_dataset(scenario, replicate_rng(scenario.seed, rep), plan)
        with pytest.raises(SingularCovarianceError, match="variance must be positive"):
            compare_modalities(dataset, scenario.design, measure, weights=method)


def test_run_study_null_truth_zero():
    sc = replace(null_scenario(0.5, 16), n_reps=10)
    rep = run_study(sc)
    for cell in rep.cells:
        assert cell.truth == 0.0


# -- comparator baselines -------------------------------------------------


def test_parametric_auc_exact_formula():
    x = np.array([2.0, 3.0, 4.0])
    y = np.array([0.0, 1.0])
    est, var = baseline_parametric_auc(x, y)
    sx2, sy2 = 1.0, 0.5
    delta = (3.0 - 0.5) / math.sqrt(sx2 + sy2)
    assert est == pytest.approx(float(norm.cdf(delta)), abs=1e-15)
    assert var > 0.0
    with pytest.raises(ValueError):
        baseline_parametric_auc([1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        baseline_parametric_auc([1.0, 1.0], [2.0, 2.0])


def test_parametric_auc_misspecified_under_lognormal(rng):
    # exponentiating destroys the binormal plug-in but not the empirical AUC
    x = np.exp(rng.normal(1.0, 1.0, 4000))
    y = np.exp(rng.normal(0.0, 1.0, 4000))
    est, _ = baseline_parametric_auc(x, y)
    truth = float(norm.cdf(1 / math.sqrt(2.0)))
    assert truth - est > 0.04


def test_semiparametric_equals_empirical_when_positive(rng):
    hits = 0
    for _ in range(20):
        x = rng.normal(0.8, 1.0, 25)
        y = rng.normal(0.0, 1.0, 30)
        ds_auc = auc_from_arrays(x, y)
        semi = baseline_semiparametric_auc(x, y)
        if semi.slope > 0.0 and not semi.separation:
            hits += 1
            assert semi.auc == ds_auc
    assert hits > 10


def auc_from_arrays(x, y):
    ys = np.sort(y)
    return float(np.searchsorted(ys, x, side="left").sum()) / (len(x) * len(y))


def test_semiparametric_negative_slope_reverses():
    rng = np.random.default_rng(21)
    # diseased below non-diseased: slope fits negative, AUC reflects reversal
    x = rng.normal(-1.5, 1.0, 40)
    y = rng.normal(0.0, 1.0, 40)
    semi = baseline_semiparametric_auc(x, y)
    assert semi.slope < 0.0
    assert semi.auc == auc_from_arrays(-x, -y)


def test_semiparametric_separation_flagged():
    # separated with a hairline margin, so the slope diverges instead of the
    # score underflowing at a finite value
    x = np.linspace(1.001, 2.0, 12)
    y = np.linspace(0.0, 1.0, 12)
    semi = baseline_semiparametric_auc(x, y)
    assert semi.separation
    assert semi.auc == 1.0


def test_run_method_comparison_smoke():
    sc = replace(table2_scenario(0.5, 12), n_reps=40)
    rep = run_method_comparison(sc)
    assert rep.component == 1
    assert rep.semiparametric_matches_when_positive
    assert rep.n_positive_slopes > 0
    emp = rep.cell("empirical")
    par = rep.cell("parametric")
    assert emp.truth == par.truth
    assert abs(emp.bias) < 0.08
    assert rep.parametric_offset() == -par.bias
    with pytest.raises(ValueError):
        run_method_comparison(sc, component=9)
    d = rep.to_dict()
    assert d["parametric_offset"] == rep.parametric_offset()


# -- scenario text files --------------------------------------------------


def _scenario(text: str):
    """The scenario of a scenario text, read from a text handle."""
    return read_scenario_file(io.StringIO(text))[-1]


def test_parse_named_studies():
    sc = _scenario("study = table1\nrho = 0.2\nn = 50\nreps = 10\n")
    assert sc.name.startswith("table1")
    assert sc.rho_diseased == 0.2
    assert sc.n_reps == 10

    sc3 = _scenario("study=table3\nrho=0.5\nn=100\nseed=99\n")
    assert sc3.seed == 99
    assert sc3.weight_methods == ("equal", "optimal")

    sc4 = _scenario("study=table4\nn=50\nfamily=normal\n")
    assert sc4.family == "normal"
    assert sc4.design == StudyDesign.longitudinal(3)

    scn = _scenario("study=null\nn=200\n")
    assert scn.name.startswith("null")


def test_parse_overrides_and_comments():
    text = """# comment line
study = table1
rho = 0.5
n = 50
j = 60
measures = auc pauc:0,0.6:normalized
weights = equal
alpha = 0.1
"""
    sc = _scenario(text)
    assert sc.n_nondiseased == 60
    assert sc.alpha == 0.1
    assert sc.measures[1].normalized


def test_parse_custom_scenario():
    text = """study = custom
name = demo
design = readers:2
mu_diseased = 1,1,1,1
mu_nondiseased = 0,0,0,0
variances = 1,1,1,1
rho = 0.3
m = 30
j = 40
reps = 5
correlation_scope = modality
"""
    sc = _scenario(text)
    assert sc.name == "demo"
    assert sc.design == StudyDesign.readers(2)
    assert sc.n_diseased == 30
    assert sc.n_nondiseased == 40
    assert sc.rho_diseased == 0.3
    assert sc.rho_nondiseased == 0.3
    assert sc.correlation_scope == "modality"


def test_parse_custom_scenario_cluster_sizes():
    text = """study = custom
design = longitudinal:2
mu_diseased = 1,1
mu_nondiseased = 0,0
variances = 1,1
cluster_sizes_diseased = 2,4
cluster_sizes_nondiseased = 3
"""
    sc = _scenario(text)
    assert sc.cluster_sizes_diseased == (2, 4)
    assert sc.cluster_sizes_nondiseased == (3, 3)
    assert sc.config_dict()["cluster_sizes_diseased"] == [2, 4]
    with pytest.raises(DataFormatError):
        _scenario(text.replace("cluster_sizes_diseased", "clusters_diseased"))


def test_parse_errors():
    with pytest.raises(DataFormatError):
        _scenario("rho = 0.5\n")                     # no study
    with pytest.raises(DataFormatError):
        _scenario("study = table9\nn = 50\n")
    with pytest.raises(DataFormatError):
        _scenario("study = table1\nn = 50\nbogus = 1\n")
    with pytest.raises(DataFormatError,
                       match="^study custom needs design, mu_diseased, mu_nondiseased, variances$"):
        _scenario("study = custom\nn = 20\n")        # incomplete custom
    with pytest.raises(DataFormatError, match="^study custom needs variances$"):
        _scenario("study = custom\ndesign = readers:1\nmu_diseased = 1,1\n"
                  "mu_nondiseased = 0,0\n")
    with pytest.raises(DataFormatError, match="^study table1 takes no name$"):
        _scenario("study = table1\nn = 50\nname = mine\n")   # a custom-only key
    with pytest.raises(DataFormatError, match="unknown weight method 'bogus'"):
        _scenario("study = table1\nn = 50\nweights = bogus\n")
    with pytest.raises(DataFormatError, match="alpha"):
        _scenario("study = table1\nn = 50\nalpha = 2\n")
    with pytest.raises(DataFormatError, match="critical value is infinite"):
        _scenario("study = table1\nn = 50\nalpha = 1e-17\n")
    with pytest.raises(DataFormatError, match="takes no family"):
        _scenario("study = table3\nn = 50\nfamily = lognormal\n")
    with pytest.raises(DataFormatError, match="takes no rho"):
        _scenario("study = table4\nn = 50\nrho = 0.5\n")
    for key in ("weights", "measures"):
        for empty in ("", " ,", "  # nothing"):
            with pytest.raises(DataFormatError, match=f"'{key}' has no value"):
                _scenario(f"study = table3\nn = 20\n{key} ={empty}\n")


def test_parse_inline_comments_and_weight_separators():
    for weights in ("equal optimal", "equal,optimal", "equal, optimal"):
        sc = _scenario(f"study = table1  # the null study\nn = 20   # each group\n"
                       f"weights = {weights}  # both\n")
        assert sc.n_diseased == 20
        assert sc.weight_methods == ("equal", "optimal")


def test_scenario_file_from_a_path_or_a_handle(tmp_path):
    text = "study = table3\nrho = 0.5\nn = 20\nseed = 7\n"
    want = ("table3", run_study, _scenario(text))
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())
    assert read_scenario_file(path) == want
    assert read_scenario_file(str(path)) == want
    with open(path, "rb") as handle:
        assert read_scenario_file(handle) == want
    with open(path, encoding="utf-8") as handle:
        assert read_scenario_file(handle) == want
    assert read_scenario_file(io.BytesIO(text.encode())) == want


@pytest.mark.parametrize("line_end", [b"\n", b"\r\n", b"\r"])
def test_scenario_file_not_utf8_names_its_line(line_end):
    payload = line_end.join([b"study = table1", b"n = 10", b"name = caf\xe9", b""])
    with pytest.raises(DataFormatError, match=r"^line 3: not UTF-8 text"):
        read_scenario_file(io.BytesIO(payload))


def test_scenario_key_given_twice_names_its_line():
    with pytest.raises(DataFormatError, match=r"^line 4: scenario key 'reps' given twice$"):
        _scenario("study = table1\nn = 10\nreps = 2\nREPS = 3\n")
    with pytest.raises(DataFormatError, match=r"^line 3: scenario key 'study' given twice$"):
        _scenario("study = table1\n# n = 10\nstudy = null\n")


def test_negative_seed_is_an_input_error():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        replace(table3_scenario(0.5, 20), seed=-1)
    with pytest.raises(DataFormatError, match="seed must be non-negative, got -2"):
        _scenario("study = null\nn = 10\nseed = -2\n")
    assert replace(table3_scenario(0.5, 20), seed=0).seed == 0


def test_readme_scenario_block_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Scenario files"):]
    block = section.split("```")[1]
    sc = _scenario(block)
    assert sc.name == "table3_rho0.5_n50"
    assert (sc.n_diseased, sc.n_reps, sc.seed) == (50, 1000, 20240817)
    assert [m.selector() for m in sc.measures] == ["auc", "pauc:0,0.6"]
    assert sc.weight_methods == ("equal", "optimal")


def test_replicate_rng_streams_differ():
    a = replicate_rng(5, 0).standard_normal(4)
    b = replicate_rng(5, 1).standard_normal(4)
    c = replicate_rng(5, 0).standard_normal(4)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, c)


def test_study_runner_from_registry():
    assert study_scenario("table2")[0] is run_method_comparison
    for study in ("table1", "table3", "table4", "null"):
        assert study_scenario(study)[0] is run_study
    custom = {"design": StudyDesign.readers(1), "mu_diseased": (1.0, 1.0),
              "mu_nondiseased": (0.0, 0.0), "variances": (1.0, 1.0)}
    assert study_scenario("custom", **custom)[0] is run_study
    with pytest.raises(DataFormatError, match="unknown study"):
        study_scenario("table9")


CUSTOM_TEXT = """study = custom
design = readers:1
mu_diseased = 1,1
mu_nondiseased = 0,0
variances = 1,1
"""


@pytest.mark.parametrize("head", ["study = table3\n", CUSTOM_TEXT], ids=["table3", "custom"])
@pytest.mark.parametrize("sizes, want", [
    ("", (50, 50)),
    ("m = 30\n", (30, 50)),
    ("j = 30\n", (50, 30)),
    ("n = 20\nj = 60\n", (20, 60)),
    ("n = 20\nm = 30\nj = 40\n", (30, 40)),
], ids=["no-n", "m", "j", "n-j", "n-m-j"])
def test_group_sizes_follow_one_rule(head, sizes, want):
    # n sets both groups and m or j overrides one, in every study
    sc = _scenario(head + sizes)
    assert (sc.n_diseased, sc.n_nondiseased) == want


def test_scenario_file_without_n_runs_at_the_default():
    sc = _scenario("study = table1\n")
    assert sc == table1_scenario(0.5, 50, "normal")
    assert _scenario("study = null\nreps = 2\n") == replace(null_scenario(0.5, 50), n_reps=2)
