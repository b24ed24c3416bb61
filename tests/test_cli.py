"""End-to-end command line behavior: reports, files, exit codes."""

import argparse
import hashlib
import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from wroc import __version__
from wroc.cli import build_parser, main
from wroc.dataset import dataset_to_csv_text, read_dataset_csv
from wroc.designs import StudyDesign
from wroc.estimators import empirical_roc, wauc
from wroc.inference import compare_modalities
from wroc.measures import WeightMeasure
from wroc.simulation import _COMMON_KEYS, _KEY_READERS, _STUDIES, study_names

from conftest import paired_dataset, singles_dataset


def write_dataset(tmp_path, dataset, name="data.csv"):
    path = tmp_path / name
    path.write_text(dataset_to_csv_text(dataset), encoding="utf-8")
    return path


def reader_dataset(rng, n=25):
    cols_d = [rng.normal(1.0, 1.0, n) for _ in range(4)]
    cols_nd = [rng.normal(0.0, 1.0, n) for _ in range(4)]
    return paired_dataset(cols_d, cols_nd)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def strict_json(text):
    """``json.loads`` refusing ``NaN`` and ``Infinity``, which RFC 8259 lacks."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


# -- analyze -------------------------------------------------------------


def test_analyze_report(tmp_path, capsys, rng):
    ds = singles_dataset(rng.normal(1.0, 1.0, 30), rng.normal(0.0, 1.0, 30))
    path = write_dataset(tmp_path, ds)
    code, report = run_json(capsys, ["analyze", "--input", str(path)])
    assert code == 0
    assert report["tool"] == "wroc"
    assert report["command"] == "analyze"
    assert report["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    res = report["results"]
    assert res["measure"] == "auc"
    assert res["labels"] == ["marker1"]
    assert res["wauc"][0] == wauc(ds, 1, WeightMeasure.full_auc())
    assert res["se"][0] > 0.0
    assert res["covariance_method"] == "placement"
    assert res["psd_repaired"] is False
    assert len(res["covariance"]) == 1


def test_analyze_pauc_quadrature(tmp_path, capsys, rng):
    ds = singles_dataset(rng.normal(1.0, 1.0, 30), rng.normal(0.0, 1.0, 30))
    path = write_dataset(tmp_path, ds)
    code, report = run_json(
        capsys, ["analyze", "--input", str(path), "--measure", "pauc:0,0.6"])
    assert code == 0
    assert report["results"]["measure"] == "pauc:0,0.6"
    assert report["results"]["covariance_method"] == "quadrature"


@pytest.mark.parametrize("argv,ignored", [
    (["analyze", "--measure", "pauc:0,0.6"], True),
    (["compare", "--design", "readers:2", "--measure", "pauc:0,0.6"], True),
    (["analyze", "--measure", "pauc:0,0.6", "--bootstrap", "100"], False),
    (["analyze", "--measure", "auc"], False),
])
def test_midrank_pauc_reports_tie_free_standard_errors(tmp_path, capsys, argv, ignored):
    rng = np.random.default_rng(4)
    cols_d = [rng.integers(0, 5, 40).astype(float) for _ in range(4)]
    cols_nd = [rng.integers(-1, 4, 40).astype(float) for _ in range(4)]
    path = write_dataset(tmp_path, paired_dataset(cols_d, cols_nd))
    _, plain = run_json(capsys, [*argv, "--input", str(path)])
    _, tied = run_json(capsys, [*argv, "--input", str(path), "--midrank"])
    assert plain["results"]["se_ignores_midrank"] is False
    assert tied["results"]["se_ignores_midrank"] is ignored
    assert tied["results"]["wauc"] != plain["results"]["wauc"]
    assert (tied["results"]["se"] == plain["results"]["se"]) is ignored
    main([*argv, "--input", str(path), "--midrank", "--format", "text"])
    assert f"results.se_ignores_midrank = {ignored}" in capsys.readouterr().out.splitlines()


def test_analyze_output_file_and_text_format(tmp_path, capsys, rng):
    ds = singles_dataset(rng.normal(1.0, 1.0, 20), rng.normal(0.0, 1.0, 20))
    path = write_dataset(tmp_path, ds)
    out = tmp_path / "report.json"
    code = main(["analyze", "--input", str(path), "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["command"] == "analyze"

    code = main(["analyze", "--input", str(path), "--format", "text"])
    text = capsys.readouterr().out
    assert code == 0
    assert "results.measure = auc" in text
    assert "results.covariance_method = placement" in text


# -- compare -------------------------------------------------------------


def test_compare_matches_library(tmp_path, capsys, rng):
    ds = reader_dataset(rng)
    path = write_dataset(tmp_path, ds)
    code, report = run_json(
        capsys, ["compare", "--input", str(path), "--design", "readers:2"])
    assert code == 0
    want = compare_modalities(ds, StudyDesign.readers(2), WeightMeasure.full_auc())
    res = report["results"]
    assert res["delta"] == want.estimate
    assert res["variance"] == want.variance
    assert res["z"] == want.z
    assert res["p_value"] == want.p_value
    assert res["ci_lower"] == want.ci_lower
    assert res["ci_upper"] == want.ci_upper
    assert res["weights"] == [0.5, 0.5]
    assert res["weight_method"] == "equal"
    assert res["variance_diseased"] + res["variance_nondiseased"] == pytest.approx(
        res["variance"], rel=1e-12)


def test_compare_optimal_and_custom(tmp_path, capsys, rng):
    ds = reader_dataset(rng)
    path = write_dataset(tmp_path, ds)
    code, report = run_json(
        capsys, ["compare", "--input", str(path), "--design", "readers:2",
                 "--weights", "optimal"])
    assert code == 0
    assert report["results"]["weight_method"] in ("optimal", "equal")
    assert sum(report["results"]["weights"]) == pytest.approx(1.0)

    code, report = run_json(
        capsys, ["compare", "--input", str(path), "--design", "readers:2",
                 "--weights", "custom:0.3,0.7"])
    assert code == 0
    assert report["results"]["weights"] == [0.3, 0.7]
    assert report["results"]["weight_method"] == "custom"


def test_compare_bootstrap_covariance(tmp_path, capsys, rng):
    ds = reader_dataset(rng, n=15)
    path = write_dataset(tmp_path, ds)
    code, report = run_json(
        capsys, ["compare", "--input", str(path), "--design", "readers:2",
                 "--bootstrap", "150", "--seed", "5"])
    assert code == 0
    assert report["results"]["covariance_method"] == "bootstrap"
    assert report["config"]["bootstrap"] == 150


# -- exit codes ----------------------------------------------------------


def test_malformed_csv_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("subject_id,status,marker,time,replicate,value\n"
                    "s1,MAYBE,1,1,1,0.5\n", encoding="utf-8")
    code = main(["analyze", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err
    assert "line 2" in err


def test_missing_file_exit_2(tmp_path, capsys):
    code = main(["analyze", "--input", str(tmp_path / "nope.csv")])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_unknown_weights_exit_2(tmp_path, capsys, rng):
    ds = reader_dataset(rng, n=10)
    path = write_dataset(tmp_path, ds)
    code = main(["compare", "--input", str(path), "--design", "readers:2",
                 "--weights", "inverse"])
    assert code == 2
    assert "unknown weights" in capsys.readouterr().err


@pytest.mark.parametrize("ridge", ["nan", "inf"])
def test_non_finite_ridge_exit_2(tmp_path, capsys, rng, ridge):
    ds = reader_dataset(rng, n=10)
    path = write_dataset(tmp_path, ds)
    code = main(["compare", "--input", str(path), "--design", "readers:2",
                 "--weights", "optimal", "--ridge", ridge])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err and "ridge must be finite" in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("weights", ["equal", "custom:1,3"])
@pytest.mark.parametrize("ridge", ["nan", "inf", "-inf"])
def test_non_finite_ridge_exit_2_whatever_the_weights(tmp_path, capsys, rng, weights, ridge):
    """Weights that never read the ridge still refuse a non-finite one,
    rather than echo it into the report."""
    ds = reader_dataset(rng, n=10)
    path = write_dataset(tmp_path, ds)
    out = tmp_path / "report.json"
    code = main(["compare", "--input", str(path), "--design", "readers:2",
                 "--weights", weights, f"--ridge={ridge}", "--output", str(out)])
    assert code == 2
    assert "input error: ridge must be finite" in capsys.readouterr().err
    assert not out.exists()
    # a finite ridge is still accepted and ignored by these weights
    assert main(["compare", "--input", str(path), "--design", "readers:2",
                 "--weights", weights, "--ridge", "0.5", "--output", str(out)]) == 0


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("alpha", ["1e-17", "1e-16", "5e-324", "0", "nan"])
def test_alpha_without_finite_critical_value_exit_2(tmp_path, capsys, rng, alpha):
    """Below about 1.1e-16, 1 - alpha/2 rounds to 1: the critical value and
    the interval would be infinite, and the report not strict JSON."""
    path = write_dataset(tmp_path, reader_dataset(rng, n=10))
    out = tmp_path / "report.json"
    code = main(["compare", "--input", str(path), "--design", "readers:2",
                 f"--alpha={alpha}", "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error: alpha" in err
    assert not out.exists()


def test_smallest_alpha_with_finite_critical_value(tmp_path, capsys, rng):
    path = write_dataset(tmp_path, reader_dataset(rng, n=10))
    out = tmp_path / "report.json"
    assert main(["compare", "--input", str(path), "--design", "readers:2",
                 "--alpha", "2.3e-16", "--output", str(out)]) == 0
    results = _strict_json(out.read_text(encoding="utf-8"))["results"]
    assert results["ci_lower"] < results["delta"] < results["ci_upper"]


@pytest.mark.parametrize("weights", ["equal", "custom:1,3"])
def test_negative_ridge_exit_2_whatever_the_weights(tmp_path, capsys, rng, weights):
    ds = reader_dataset(rng, n=10)
    path = write_dataset(tmp_path, ds)
    out = tmp_path / "report.json"
    code = main(["compare", "--input", str(path), "--design", "readers:2",
                 "--weights", weights, "--ridge=-1", "--output", str(out)])
    assert code == 2
    assert "input error: ridge must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["analyze"], ["compare", "--design", "readers:2"]])
@pytest.mark.parametrize("measure", ["steps:0.1=nan", "steps:0.1=inf,0.3=1"])
def test_non_finite_atom_mass_exit_2(tmp_path, capsys, rng, command, measure):
    path = write_dataset(tmp_path, reader_dataset(rng, n=10))
    code = main(command + ["--input", str(path), "--measure", measure])
    assert code == 2
    assert "must be positive and finite" in capsys.readouterr().err


def test_degenerate_density_exit_3(tmp_path, capsys, rng):
    # constant diseased marker defeats the bandwidth rule for the pauc weights
    ds = singles_dataset(np.full(12, 3.0), rng.normal(0.0, 1.0, 12))
    path = write_dataset(tmp_path, ds)
    code = main(["analyze", "--input", str(path), "--measure", "pauc:0,0.6"])
    assert code == 3
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--bootstrap", "100"], ["--measure", "pauc:0,0.6"],
                                   ["--weights", "optimal"]],
                         ids=["equal", "bootstrap", "pauc", "optimal"])
def test_identical_modalities_exit_3(tmp_path, capsys, rng, extra):
    # the two modalities hold the same values: a zero difference variance is
    # a numerical failure, whatever the weights and the covariance
    x, y = rng.normal(1.0, 1.0, 3), rng.normal(0.0, 1.0, 3)
    path = write_dataset(tmp_path, paired_dataset([x, x], [y, y]))
    code = main(["compare", "--input", str(path), "--design", "readers:1", *extra])
    assert code == 3
    assert capsys.readouterr().err.startswith("wroc: numerical error: ")


# subject d1 has two replicates at visit 1, so longitudinal:2 has strata of
# 4, 3, 4 and 3 diseased values
VISITS_CSV = """\
subject_id,status,marker,time,replicate,value
d1,D,1,1,1,2.1
d1,D,1,1,2,1.7
d1,D,1,2,1,1.2
d1,D,2,1,1,0.9
d1,D,2,1,2,1.4
d1,D,2,2,1,2.2
d2,D,1,1,1,0.8
d2,D,1,2,1,1.9
d2,D,2,1,1,1.6
d2,D,2,2,1,0.7
d3,D,1,1,1,1.5
d3,D,1,2,1,2.4
d3,D,2,1,1,2.0
d3,D,2,2,1,1.1
h1,ND,1,1,1,0.3
h1,ND,1,2,1,-0.4
h1,ND,2,1,1,0.6
h1,ND,2,2,1,0.1
h2,ND,1,1,1,-0.2
h2,ND,1,2,1,0.9
h2,ND,2,1,1,-0.7
h2,ND,2,2,1,0.4
h3,ND,1,1,1,1.0
h3,ND,1,2,1,0.2
h3,ND,2,1,1,0.5
h3,ND,2,2,1,-0.3
"""


@pytest.mark.parametrize("argv, method", [
    (["analyze", "--measure", "steps:0.5=1e160"], "atoms"),
    (["analyze", "--design", "longitudinal:2", "--measure", "steps:0.3=1e160"], "atoms"),
    (["compare", "--design", "longitudinal:2", "--measure", "steps:0.3=1e160"], "atoms"),
    (["analyze", "--measure", "steps:0.3=1e160", "--bootstrap", "100"], "bootstrap"),
    (["compare", "--design", "longitudinal:2", "--measure", "steps:0.3=1e160",
      "--bootstrap", "100"], "bootstrap"),
], ids=["analyze", "analyze-longitudinal", "compare-longitudinal", "analyze-bootstrap",
        "compare-bootstrap"])
def test_non_finite_covariance_exit_3(tmp_path, capsys, argv, method):
    # a mass of 1e160 squares past the largest float
    path = tmp_path / "visits.csv"
    path.write_text(VISITS_CSV, encoding="utf-8")
    # the overflow is reported once, as the error, and warns nothing before it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*argv, "--input", str(path)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"wroc: numerical error: the {method} covariance is not finite\n"


# each request asks for one array or list of 1e17 elements, 711 PiB or more:
# beyond a 64-bit address space, so the allocation fails at once whatever
# the kernel's overcommit policy, and nothing is allocated in part
HUGE = "100000000000000000"


@pytest.mark.parametrize("argv", [
    ["roc", "--grid", HUGE],
    ["analyze", "--bootstrap", HUGE],
    ["simulate", "null", "--n", "10", "--reps", HUGE],
    ["simulate", "null", "--n", HUGE, "--reps", "1"],
    ["simulate", "table2", "--n", "10", "--reps", HUGE],
], ids=["roc-grid", "analyze-bootstrap", "simulate-reps", "simulate-n", "simulate-table2-reps"])
def test_request_too_large_for_memory_exit_2(tmp_path, capsys, argv):
    if argv[0] != "simulate":
        path = tmp_path / "visits.csv"
        path.write_text(VISITS_CSV, encoding="utf-8")
        argv = [*argv, "--input", str(path)]
    code = main(argv)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("wroc: input error: not enough memory for this request")


def test_simulate_without_study_exit_2(capsys):
    code = main(["simulate"])
    assert code == 2
    assert "study name" in capsys.readouterr().err


def test_compare_without_design_exit_2(tmp_path, capsys, rng):
    path = write_dataset(tmp_path, reader_dataset(rng, n=10))
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--input", str(path)])
    assert exc.value.code == 2
    assert "--design" in capsys.readouterr().err


def test_analyze_takes_no_alpha_exit_2(tmp_path, capsys, rng):
    path = write_dataset(tmp_path, reader_dataset(rng, n=10))
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", str(path), "--alpha", "7"])
    assert exc.value.code == 2
    assert "--alpha" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["analyze", "--measure", "sens:0.2"],
                                  ["compare", "--design", "readers:2",
                                   "--measure", "steps:0.1=1,0.4=2"]])
def test_midrank_with_atomic_measure_exit_2(tmp_path, capsys, rng, argv):
    path = write_dataset(tmp_path, reader_dataset(rng, n=10))
    code = main([*argv, "--input", str(path), "--midrank"])
    assert code == 2
    assert "midrank applies to auc and pauc measures" in capsys.readouterr().err


# -- simulate ------------------------------------------------------------


def test_simulate_writes_json_and_csv(tmp_path):
    base = tmp_path / "nullrun"
    code = main(["simulate", "null", "--rho", "0.5", "--n", "12",
                 "--reps", "5", "--output", str(base)])
    assert code == 0
    report = json.loads((tmp_path / "nullrun.json").read_text(encoding="utf-8"))
    assert report["command"] == "simulate"
    assert report["seed"] == 20240817
    cells = report["results"]["cells"]
    assert len(cells) == 2    # auc x {equal, optimal}
    assert all(cell["n_reps"] == 5 for cell in cells)
    lines = (tmp_path / "nullrun.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert lines[0].split(",")[:2] == ["measure", "weight_method"]


def test_simulate_json_writes_undefined_numbers_as_null(tmp_path, capsys):
    # one replicate leaves the Monte Carlo variance undefined
    argv = ["simulate", "null", "--n", "10", "--reps", "1"]
    assert main(argv) == 0
    cells = strict_json(capsys.readouterr().out)["results"]["cells"]
    assert [cell["mc_variance"] for cell in cells] == [None, None]
    base = tmp_path / "one"
    assert main(argv + ["--output", str(base)]) == 0
    cells = strict_json((tmp_path / "one.json").read_text(encoding="utf-8"))["results"]["cells"]
    assert [cell["mc_variance"] for cell in cells] == [None, None]
    lines = (tmp_path / "one.csv").read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",").index("mc_variance")
    assert [line.split(",")[column] for line in lines[1:]] == ["nan", "nan"]


def test_simulate_stdout_and_scenario_file(tmp_path, capsys):
    scenario = tmp_path / "scen.txt"
    scenario.write_text("study = table1\nrho = 0.2\nn = 10\nreps = 4\n"
                        "measures = auc\nweights = equal\n", encoding="utf-8")
    code, report = run_json(capsys, ["simulate", "--scenario", str(scenario)])
    assert code == 0
    assert report["results"]["scenario"]["rho_diseased"] == 0.2
    assert len(report["results"]["cells"]) == 1
    assert report["results"]["cells"][0]["truth"] == 0.0


def test_simulate_rejects_arguments_the_study_does_not_take(capsys):
    assert main(["simulate", "table3", "--family", "lognormal", "--n", "10", "--reps", "2"]) == 2
    assert "takes no family" in capsys.readouterr().err
    assert main(["simulate", "table4", "--rho", "0.3", "--n", "10", "--reps", "2"]) == 2
    assert "takes no rho" in capsys.readouterr().err


def test_simulate_config_echoes_only_given_arguments(capsys):
    code, report = run_json(capsys, ["simulate", "table4", "--n", "10", "--reps", "2"])
    assert code == 0
    assert "rho" not in report["config"]
    assert "family" not in report["config"]
    assert report["results"]["scenario"]["family"] == "lognormal"
    code, report = run_json(capsys, ["simulate", "null", "--n", "10", "--reps", "2"])
    assert code == 0
    assert "rho" not in report["config"]
    assert report["results"]["scenario"]["rho_diseased"] == 0.5


def test_simulate_method_comparison_branch(tmp_path):
    base = tmp_path / "methods"
    code = main(["simulate", "table2", "--rho", "0.5", "--n", "12",
                 "--reps", "8", "--output", str(base)])
    assert code == 0
    report = json.loads((tmp_path / "methods.json").read_text(encoding="utf-8"))
    res = report["results"]
    assert "parametric_offset" in res
    methods = {cell["method"] for cell in res["cells"]}
    assert methods == {"empirical", "parametric", "semiparametric"}


def test_simulate_scenario_alpha_without_finite_critical_value_exit_2(tmp_path, capsys):
    scenario = tmp_path / "scen.txt"
    scenario.write_text("study = null\nn = 10\nreps = 2\nalpha = 1e-17\n", encoding="utf-8")
    assert main(["simulate", "--scenario", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err and "critical value is infinite" in captured.err
    assert captured.out == ""


def test_simulate_scenario_file_with_a_byte_order_mark(tmp_path, capsys):
    scenario = tmp_path / "scen.txt"
    scenario.write_bytes(b"\xef\xbb\xbfstudy = null\r\nn = 10\r\nreps = 2\r\nseed = 5\r\n")
    code, report = run_json(capsys, ["simulate", "--scenario", str(scenario)])
    assert code == 0
    assert report["seed"] == 5
    assert report["results"]["scenario"]["n_reps"] == 2


def test_simulate_scenario_key_given_twice_exit_2(tmp_path, capsys):
    scenario = tmp_path / "scen.txt"
    scenario.write_text("study = null\nn = 10\nreps = 2\nreps = 3\n", encoding="utf-8")
    assert main(["simulate", "--scenario", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "wroc: input error: line 4: scenario key 'reps' given twice\n"
    assert captured.out == ""


def test_simulate_scenario_values_keep_their_case(tmp_path, capsys):
    """Keys and the study value ignore case; a family is read as --family
    reads it, with case-sensitive choices."""
    scenario = tmp_path / "scen.txt"
    scenario.write_text("STUDY = Table1\nfamily = Normal\nn = 10\nreps = 2\n",
                        encoding="utf-8")
    assert main(["simulate", "--scenario", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert "('normal', 'lognormal')" in captured.err
    assert captured.out == ""


def test_negative_seed_exit_2(tmp_path, capsys, rng):
    assert main(["simulate", "null", "--n", "10", "--reps", "2", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "wroc: input error: seed must be non-negative, got -1\n"
    path = write_dataset(tmp_path, reader_dataset(rng))
    for command in (["analyze"], ["compare", "--design", "readers:2"]):
        # with the analytic covariance too, and before the input is read
        for flags in (["--bootstrap", "100"], [], ["--measure", "pauc:0,0.6"]):
            for source in (path, tmp_path / "missing.csv"):
                assert main([*command, "--input", str(source), *flags, "--seed", "-3"]) == 2
                captured = capsys.readouterr()
                assert captured.err == "wroc: input error: seed must be non-negative, got -3\n"
                assert captured.out == ""


@pytest.mark.parametrize("flags", [["--rho", "0.9"], ["--family", "normal"], ["--n", "99"],
                                   ["--reps", "3"], ["--seed", "1"],
                                   ["--rho", "0.9", "--n", "99"], ["table3"]])
def test_simulate_scenario_rejects_study_flags(tmp_path, capsys, flags):
    scenario = tmp_path / "scen.txt"
    scenario.write_text("study = table1\nrho = 0.2\nn = 10\nreps = 2\n", encoding="utf-8")
    assert main(["simulate", "--scenario", str(scenario), *flags]) == 2
    err = capsys.readouterr().err
    for flag in flags[::2]:
        assert flag in err


def test_simulate_config_echoes_effective_defaults(tmp_path, capsys):
    code, report = run_json(capsys, ["simulate", "null", "--n", "10", "--reps", "2"])
    assert code == 0
    assert (report["config"]["n"], report["config"]["reps"]) == (10, 2)
    assert report["config"]["seed"] == 20240817
    code, report = run_json(capsys, ["simulate", "table3", "--reps", "1"])
    assert code == 0
    assert report["config"]["n"] == 50
    assert report["results"]["scenario"]["n_diseased"] == 50
    scenario = tmp_path / "scen.txt"
    scenario.write_text("study = null\nn = 10\nreps = 2\nseed = 5\n", encoding="utf-8")
    code, report = run_json(capsys, ["simulate", "--scenario", str(scenario)])
    assert code == 0
    assert not {"n", "reps", "seed", "rho", "family"} & set(report["config"])
    assert report["seed"] == 5


@pytest.mark.parametrize("threads", ["-3", "-1"])
def test_simulate_rejects_negative_threads(capsys, threads):
    assert main(["simulate", "null", "--n", "10", "--reps", "2", "--threads", threads]) == 2
    assert f"--threads must be >= 0, got {threads}" in capsys.readouterr().err


def test_simulate_threads_zero_means_one_process(monkeypatch, capsys):
    # only --threads sets the worker count; the environment plays no part
    monkeypatch.setenv("WROC_THREADS", "abc")
    code, report = run_json(capsys, ["simulate", "null", "--n", "10", "--reps", "2"])
    assert code == 0
    assert "threads" not in report["config"]
    code, flagged = run_json(capsys, ["simulate", "null", "--n", "10", "--reps", "2",
                                      "--threads", "1"])
    assert code == 0
    assert flagged["config"]["threads"] == 1
    for results in (report["results"], flagged["results"]):
        del results["elapsed_seconds"]
    assert flagged["results"] == report["results"]


def test_simulate_component_only_for_the_method_comparison(capsys):
    assert main(["simulate", "table3", "--n", "10", "--reps", "1", "--component", "2"]) == 2
    assert capsys.readouterr().err == "wroc: input error: study table3 takes no component\n"
    assert main(["simulate", "table2", "--n", "10", "--reps", "1", "--component", "9"]) == 2
    assert "component 9 outside 1..6" in capsys.readouterr().err
    code, report = run_json(capsys, ["simulate", "table2", "--n", "10", "--reps", "1",
                                     "--component", "2"])
    assert code == 0
    assert report["config"]["component"] == report["results"]["component"] == 2
    code, report = run_json(capsys, ["simulate", "null", "--n", "10", "--reps", "2"])
    assert code == 0
    assert not {"component", "threads"} & set(report["config"])


def test_simulate_scenario_component_names_the_file_study(tmp_path, capsys):
    scenario = tmp_path / "scen.txt"
    scenario.write_text("study = null\nn = 10\nreps = 2\n", encoding="utf-8")
    assert main(["simulate", "--scenario", str(scenario), "--component", "1"]) == 2
    assert capsys.readouterr().err == "wroc: input error: study null takes no component\n"


@pytest.mark.parametrize("study", study_names())
def test_simulate_study_flags_and_scenario_file_agree(tmp_path, capsys, study):
    # both go through one resolver, so the same keys give the same results
    code, flagged = run_json(capsys, ["simulate", study, "--n", "10", "--reps", "3",
                                      "--seed", "5"])
    assert code == 0
    scenario = tmp_path / "scen.txt"
    scenario.write_text(f"study = {study}\nn = 10\nreps = 3\nseed = 5\n", encoding="utf-8")
    code, filed = run_json(capsys, ["simulate", "--scenario", str(scenario)])
    assert code == 0
    for results in (flagged["results"], filed["results"]):
        del results["elapsed_seconds"]
    assert filed["results"] == flagged["results"]


CUSTOM_SCENARIO = """study = custom
name = table2_mine
design = readers:2
mu_diseased = 1,1,1,1
mu_nondiseased = 0,0,0,0
variances = 1,1,1,1
n = 10
reps = 2
"""


def test_simulate_runner_follows_the_study_not_the_name(tmp_path, capsys):
    scenario = tmp_path / "custom.txt"
    scenario.write_text(CUSTOM_SCENARIO, encoding="utf-8")
    code, report = run_json(capsys, ["simulate", "--scenario", str(scenario)])
    assert code == 0
    assert report["results"]["scenario"]["name"] == "table2_mine"
    assert "parametric_offset" not in report["results"]
    assert "coverage" in report["results"]["cells"][0]

    scenario.write_text("study = table2\nn = 10\nreps = 3\n", encoding="utf-8")
    code, report = run_json(capsys, ["simulate", "--scenario", str(scenario)])
    assert code == 0
    assert "parametric_offset" in report["results"]
    assert {cell["method"] for cell in report["results"]["cells"]} == {
        "empirical", "parametric", "semiparametric"}


# -- roc -----------------------------------------------------------------


def test_roc_output(tmp_path, capsys, rng):
    ds = singles_dataset(rng.normal(1.0, 1.0, 18), rng.normal(0.0, 1.0, 22))
    path = write_dataset(tmp_path, ds)
    out = tmp_path / "curve.csv"
    code = main(["roc", "--input", str(path), "--grid", "8",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# wroc roc version=")
    assert "input_sha256=" in lines[0]
    assert lines[1] == "u,roc"
    grid = (np.arange(1, 9) - 0.5) / 8
    want = empirical_roc(ds, 1, grid)
    for line, u, v in zip(lines[2:], grid, want):
        su, sv = line.split(",")
        assert float(su) == u
        assert float(sv) == v
    assert len(lines) == 10


def test_roc_stdout_and_bad_grid(tmp_path, capsys, rng):
    ds = singles_dataset(rng.normal(1.0, 1.0, 10), rng.normal(0.0, 1.0, 10))
    path = write_dataset(tmp_path, ds)
    code = main(["roc", "--input", str(path), "--grid", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1] == "u,roc"

    code = main(["roc", "--input", str(path), "--grid", "0"])
    assert code == 2


# -- README ------------------------------------------------------------


def test_pyproject_version_matches_package():
    # a regex, not tomllib: Python 3.10 has no TOML reader
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert match.group(1) == __version__


def test_readme_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            for option in action.option_strings:
                if option.startswith("--") and option != "--help":
                    assert re.search(re.escape(option) + r"(?![\w-])", readme), \
                        f"{command} {option}"


def test_readme_names_every_scenario_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Scenario files"):readme.index("## Library")]
    listed = re.findall(r"^- `(\w+)`", section, re.MULTILINE)
    assert sorted(listed) == sorted({"study", *_KEY_READERS})
    # and each key the file reader reads is one that some study takes
    taken = {key for row in _STUDIES.values() for key in _COMMON_KEYS + row.takes + row.needs}
    assert taken == set(_KEY_READERS)


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme[readme.index("## Command line"):].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("wroc ")]
    assert len(lines) == 5
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


# -- round trip through the CLI boundary ---------------------------------


def test_written_dataset_reads_back(tmp_path, rng):
    ds = reader_dataset(rng, n=8)
    path = write_dataset(tmp_path, ds)
    with open(path, "r", encoding="utf-8") as handle:
        again = read_dataset_csv(handle)
    assert again == ds
