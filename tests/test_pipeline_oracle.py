"""The shared compare pipeline against the compositions it replaced.

``cli compare`` and the Monte Carlo replicate each used to assemble the
weighted paired difference from the primitives themselves.  Those
compositions are kept here, as they were, and the library pipeline must
reproduce them bit for bit.  So must the linear pair contrast against the
general contrast layer it replaced (``tests/oracles.py``).
"""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from wroc.cli import main
from wroc.covariance import bootstrap_covariance, contrast_covariance, sigma_matrix
from wroc.dataset import dataset_to_csv_text, read_dataset_csv
from wroc.designs import StudyDesign, parse_design
from wroc.errors import WrocError
from wroc.estimators import wauc_vector
from wroc.inference import (
    custom_weights,
    delta_h,
    equal_weights,
    optimal_weights,
    pair_contrast,
    variance_delta,
    z_test,
)
from wroc.measures import parse_measure
from wroc.simulation import (
    _build_plan,
    _simulate_one_rep,
    generate_dataset,
    null_scenario,
    replicate_rng,
    table1_scenario,
    table3_scenario,
    table4_scenario,
)

from oracles import (
    OldContrastFunction,
    old_delta_m,
    old_loop_sigma_matrix,
    old_loop_wauc_vector,
    old_pair_contrast,
    old_variance_delta,
)

DESIGN = "longitudinal:3"
MEASURE = "pauc:0,0.6"


def old_cli_compare_results(dataset, weights_spec, bootstrap, seed):
    """``results`` of ``wroc compare`` as the CLI composed them itself."""
    design = parse_design(DESIGN)
    measure = parse_measure(MEASURE)
    omega = wauc_vector(dataset, design, measure)
    if bootstrap:
        cov = bootstrap_covariance(dataset, design, measure, bootstrap, seed)
    else:
        cov = sigma_matrix(dataset, design, measure)
    cov_diff = contrast_covariance(cov.sigma, design)
    if weights_spec == "equal":
        weights = equal_weights(design.n_pairs)
    elif weights_spec == "optimal":
        weights = optimal_weights(cov_diff, ridge=None)
    else:
        weights = custom_weights([float(tok) for tok in weights_spec[len("custom:"):].split(",")])
    contrast = pair_contrast(design, weights)
    estimate = delta_h(omega, contrast)
    var = variance_delta(cov, contrast)
    test = z_test(estimate, var.total, alpha=0.05)
    return {
        "measure": measure.selector(),
        "labels": list(omega.labels),
        "wauc": [float(v) for v in omega.values],
        "delta": test.estimate,
        "variance": test.variance,
        "variance_diseased": var.diseased,
        "variance_nondiseased": var.nondiseased,
        "se": float(np.sqrt(test.variance)),
        "z": test.z,
        "p_value": test.p_value,
        "ci_lower": test.ci_lower,
        "ci_upper": test.ci_upper,
        "alpha": test.alpha,
        "weights": [float(w) for w in weights.weights],
        "weight_method": weights.method,
        "weights_fell_back": weights.fell_back,
        "covariance_method": cov.method,
        "psd_repaired": cov.repaired,
        "se_ignores_midrank": False,   # no --midrank here
    }


def old_simulate_one_rep(scenario, plan, rep):
    """The Monte Carlo replicate as it composed the primitives itself, with
    its estimates and covariance from the per-stratum loop."""
    n_cells = len(scenario.measures) * len(scenario.weight_methods)
    out = np.full((n_cells, 4), np.nan)
    dataset = generate_dataset(scenario, replicate_rng(scenario.seed, rep), plan)
    design = scenario.design
    idx = 0
    for measure in scenario.measures:
        try:
            omega = old_loop_wauc_vector(dataset, design, measure)
            cov = old_loop_sigma_matrix(dataset, design, measure)
            cov_diff = contrast_covariance(cov.sigma, design)
        except (WrocError, np.linalg.LinAlgError, ValueError):
            for _ in scenario.weight_methods:
                out[idx] = (np.nan, np.nan, 0.0, 1.0)
                idx += 1
            continue
        for method in scenario.weight_methods:
            try:
                w = equal_weights(design.n_pairs) if method == "equal" else optimal_weights(cov_diff)
                estimate = float(old_pair_contrast(w).value(omega.values))
                variance = variance_delta(cov, pair_contrast(design, w)).total
                out[idx] = (estimate, variance, float(w.fell_back), 0.0)
            except (WrocError, np.linalg.LinAlgError, ValueError):
                out[idx] = (np.nan, np.nan, 0.0, 1.0)
            idx += 1
    return out


@pytest.fixture(scope="module")
def clustered_csv(tmp_path_factory):
    """table4-shaped data: three visits, 2-5 replicates per cell."""
    scenario = table4_scenario(30, "normal")
    dataset = generate_dataset(scenario, replicate_rng(7, 0))
    path = tmp_path_factory.mktemp("pipeline") / "clustered.csv"
    path.write_text(dataset_to_csv_text(dataset), encoding="utf-8")
    return path


@pytest.mark.parametrize("bootstrap", [0, 200])
@pytest.mark.parametrize("weights", ["equal", "optimal", "custom:1,2,3"])
def test_cli_compare_equals_old_composition(clustered_csv, capsys, weights, bootstrap):
    argv = ["compare", "--input", str(clustered_csv), "--design", DESIGN,
            "--measure", MEASURE, "--weights", weights, "--seed", "11"]
    if bootstrap:
        argv += ["--bootstrap", str(bootstrap)]
    assert main(argv) == 0
    got = json.loads(capsys.readouterr().out)["results"]
    with open(clustered_csv, encoding="utf-8") as handle:
        dataset = read_dataset_csv(handle)
    want = json.loads(json.dumps(old_cli_compare_results(dataset, weights, bootstrap, 11)))
    assert got == want


@pytest.mark.parametrize("scenario", [table1_scenario(0.5, 20, "lognormal"),
                                      table3_scenario(0.5, 50),
                                      table4_scenario(50, "normal"),
                                      null_scenario()],
                         ids=["table1", "table3", "table4", "null"])
def test_simulate_one_rep_equals_old_composition(scenario):
    plan = _build_plan(scenario)
    for rep in range(20):
        got = _simulate_one_rep(scenario, plan, rep)
        assert got.tobytes() == old_simulate_one_rep(scenario, plan, rep).tobytes(), rep



@pytest.mark.parametrize("scenario", [table3_scenario(0.5, 50),
                                      table4_scenario(50, "normal")],
                         ids=["table3", "table4"])
def test_pair_contrast_equals_old_contrast_layer(scenario):
    plan = _build_plan(scenario)
    design = scenario.design
    got, want = [], []
    for rep in range(20):
        dataset = generate_dataset(scenario, replicate_rng(scenario.seed, rep), plan)
        for measure in scenario.measures:
            omega = wauc_vector(dataset, design, measure)
            cov = sigma_matrix(dataset, design, measure)
            for weights in (equal_weights(design.n_pairs),
                            optimal_weights(contrast_covariance(cov.sigma, design))):
                contrast = pair_contrast(design, weights)
                var = variance_delta(cov, contrast)
                got.append([delta_h(omega, contrast), var.total, var.diseased, var.nondiseased])
                old = old_pair_contrast(weights)
                assert isinstance(old, OldContrastFunction)
                want.append([old.value(omega.values), *old_variance_delta(cov, old)])
    np.testing.assert_array_equal(np.array(got), np.array(want))


@st.composite
def _pairs_and_weights(draw):
    n_pairs = draw(st.integers(1, 6))
    omega = draw(hnp.arrays(float, 2 * n_pairs, elements=st.floats(0.0, 1.0)))
    raw = draw(st.lists(st.floats(1e-3, 1e3), min_size=n_pairs, max_size=n_pairs))
    return omega, custom_weights(raw)


@given(_pairs_and_weights())
def test_delta_h_of_pair_contrast_equals_old_delta_m(case):
    """``delta_m`` was the same weighted difference summed in another
    order, so the two agree to rounding, not bit for bit."""
    omega, weights = case
    contrast = pair_contrast(StudyDesign.readers(weights.n_pairs), weights)
    assert delta_h(omega, contrast) == pytest.approx(old_delta_m(omega, weights),
                                                     rel=1e-12, abs=1e-15)
