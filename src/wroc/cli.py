"""Command line entry points.

Four subcommands:

* ``analyze``  per-stratum wAUC estimates with standard errors
* ``compare``  weighted paired difference with z test and interval
* ``simulate`` Monte Carlo studies (named or from a scenario file)
* ``roc``      empirical ROC curve on a midpoint grid

Exit codes: 0 success, 2 input or usage problems (a request too large for
memory included), 3 numerical failures.
Reports embed the package version, the resolved configuration, the seed and
the SHA-256 of the input file so results can be tied back to their inputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .covariance import bootstrap_covariance, sigma_matrix
from .dataset import MarkerDataset, read_dataset_csv, validate
from .designs import parse_design
from .errors import DataFormatError, WrocError
from .estimators import empirical_roc, wauc_vector
from .inference import DEFAULT_ALPHA, compare_modalities
from .measures import parse_measure
from .simulation import (
    DEFAULT_N,
    DEFAULT_REPS,
    DEFAULT_RHO,
    DEFAULT_SEED,
    FAMILIES,
    read_scenario_file,
    run_method_comparison,
    study_names,
    study_scenario,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _threads(flag: int | None) -> int:
    """Worker processes: ``--threads`` when positive, else 1."""
    if flag is not None and flag < 0:
        raise DataFormatError(f"--threads must be >= 0, got {flag}")
    return flag or 1


def _check_seed(seed: int) -> None:
    """A negative ``--seed`` is an input error, with or without ``--bootstrap``."""
    if seed < 0:
        raise DataFormatError(f"seed must be non-negative, got {seed}")


def _load_dataset(path: str) -> tuple[MarkerDataset, str]:
    with open(path, "rb") as handle:
        payload = handle.read()
    digest = hashlib.sha256(payload).hexdigest()
    dataset = read_dataset_csv(io.BytesIO(payload))
    report = validate(dataset)
    if not report.ok:
        first = report.issues[0]
        raise DataFormatError(f"invalid dataset: {first.message}")
    return dataset, digest


def _covariance(args, dataset, design, measure):
    """The bootstrap covariance with ``--bootstrap B``, else the analytic one."""
    if args.bootstrap:
        return bootstrap_covariance(dataset, design, measure, args.bootstrap, args.seed,
                                    midrank=args.midrank)
    return sigma_matrix(dataset, design, measure, midrank=args.midrank)


def _se_ignores_midrank(args, cov) -> bool:
    """True when the estimates score ties 1/2 but their standard errors come
    from the quadrature covariance, which stays tie-free."""
    return bool(args.midrank) and cov.method == "quadrature"


def _json_text(report: dict) -> str:
    """The report as strict JSON: an undefined (non-finite) number is null."""
    return json.dumps(_finite_or_null(report), indent=2, allow_nan=False) + "\n"


def _finite_or_null(node):
    if isinstance(node, float):
        return node if math.isfinite(node) else None
    if isinstance(node, dict):
        return {key: _finite_or_null(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_finite_or_null(value) for value in node]
    return node


def _emit(report: dict, args) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        text = _json_text(report)
    else:
        lines = []
        _flatten("", report, lines)
        text = "\n".join(lines) + "\n"
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _flatten(prefix: str, node, lines: list[str]) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten(f"{prefix}{key}.", value, lines)
    elif isinstance(node, list) and node and isinstance(node[0], dict):
        for idx, value in enumerate(node):
            _flatten(f"{prefix}{idx}.", value, lines)
    else:
        lines.append(f"{prefix[:-1]} = {node}")


def _report_header(command: str, args, digest: str | None, **in_effect) -> dict:
    """The report's header; ``config`` lists the arguments given and ``in_effect``."""
    given = {key: value for key, value in vars(args).items()
             if key not in ("func", "output", "format") and value is not None}
    config = dict(sorted({**given, **in_effect}.items()))
    header = {
        "tool": "wroc",
        "version": __version__,
        "command": command,
        "config": config,
    }
    if digest is not None:
        header["input_sha256"] = digest
    return header


# -- analyze -------------------------------------------------------------


def _cmd_analyze(args) -> int:
    _check_seed(args.seed)
    dataset, digest = _load_dataset(args.input)
    design = parse_design(args.design) if args.design else None
    measure = parse_measure(args.measure)
    omega = wauc_vector(dataset, design, measure, midrank=args.midrank)
    cov = _covariance(args, dataset, design, measure)
    variances = np.diag(cov.sigma)
    report = _report_header("analyze", args, digest)
    report["seed"] = args.seed
    report["results"] = {
        "measure": measure.selector(),
        "labels": list(omega.labels),
        "wauc": [float(v) for v in omega.values],
        "se": [float(np.sqrt(max(v, 0.0))) for v in variances],
        "covariance_method": cov.method,
        "covariance": [[float(v) for v in row] for row in cov.sigma],
        "psd_repaired": cov.repaired,
        "se_ignores_midrank": _se_ignores_midrank(args, cov),
    }
    _emit(report, args)
    return EXIT_OK


# -- compare -------------------------------------------------------------


def _cmd_compare(args) -> int:
    _check_seed(args.seed)
    dataset, digest = _load_dataset(args.input)
    design = parse_design(args.design)
    measure = parse_measure(args.measure)
    result = compare_modalities(dataset, design, measure, weights=args.weights,
                                alpha=args.alpha, ridge=args.ridge, midrank=args.midrank,
                                covariance=_covariance(args, dataset, design, measure))
    report = _report_header("compare", args, digest)
    report["seed"] = args.seed
    report["results"] = {
        "measure": measure.selector(),
        "labels": list(result.wauc.labels),
        "wauc": [float(v) for v in result.wauc.values],
        "delta": result.estimate,
        "variance": result.variance,
        "variance_diseased": result.variance_diseased,
        "variance_nondiseased": result.variance_nondiseased,
        "se": float(np.sqrt(result.variance)),
        "z": result.z,
        "p_value": result.p_value,
        "ci_lower": result.ci_lower,
        "ci_upper": result.ci_upper,
        "alpha": result.alpha,
        "weights": [float(w) for w in result.weights.weights],
        "weight_method": result.weights.method,
        "weights_fell_back": result.weights.fell_back,
        "covariance_method": result.covariance.method,
        "psd_repaired": result.covariance.repaired,
        "se_ignores_midrank": _se_ignores_midrank(args, result.covariance),
    }
    _emit(report, args)
    return EXIT_OK


# -- simulate ------------------------------------------------------------


# the study flags of a named study, which --scenario excludes
_STUDY_FLAGS = ("rho", "family", "n", "reps", "seed")


def _cmd_simulate(args) -> int:
    threads = _threads(args.threads)
    given = {key: getattr(args, key) for key in _STUDY_FLAGS if getattr(args, key) is not None}
    if args.scenario:
        excluded = [f"--{key}" for key in given]
        if args.study:
            excluded.insert(0, f"study {args.study}")
        if excluded:
            raise DataFormatError(f"--scenario takes no {', '.join(excluded)}; "
                                  "set them in the scenario file")
        study, runner, scenario = read_scenario_file(args.scenario)
    elif args.study:
        study = args.study
        runner, scenario = study_scenario(study, **given)
    else:
        raise DataFormatError("simulate needs a study name or --scenario FILE")
    options = {} if args.component is None else {"component": args.component}
    if options and runner is not run_method_comparison:
        raise DataFormatError(f"study {study} takes no component")
    result = runner(scenario, n_jobs=threads, **options)
    rows = [cell.to_dict() for cell in result.cells]
    in_effect = {} if args.scenario else {
        "n": scenario.n_diseased, "reps": scenario.n_reps, "seed": scenario.seed}
    report = _report_header("simulate", args, None, **in_effect)
    report["seed"] = scenario.seed
    report["results"] = result.to_dict()
    text = _json_text(report)
    if args.output:
        with open(args.output + ".json", "w", encoding="utf-8") as handle:
            handle.write(text)
        with open(args.output + ".csv", "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()),
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- roc -----------------------------------------------------------------


def _cmd_roc(args) -> int:
    dataset, digest = _load_dataset(args.input)
    n = args.grid
    if n < 1:
        raise DataFormatError(f"grid size must be >= 1, got {n}")
    grid = (np.arange(1, n + 1) - 0.5) / n
    values = empirical_roc(dataset, args.marker, grid, time=args.time)
    target = open(args.output, "w", encoding="utf-8", newline="") if args.output else sys.stdout
    try:
        target.write(f"# wroc roc version={__version__} marker={args.marker} "
                     f"grid={n} input_sha256={digest}\n")
        writer = csv.writer(target, lineterminator="\n")
        writer.writerow(["u", "roc"])
        for u, v in zip(grid, values):
            writer.writerow([repr(float(u)), repr(float(v))])
    finally:
        if args.output:
            target.close()
    return EXIT_OK


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wroc",
        description="Weighted-AUC comparison of correlated ROC curves.")
    parser.add_argument("--version", action="version", version=f"wroc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, design_required):
        p.add_argument("--input", required=True, help="long-format CSV file")
        p.add_argument("--design", required=design_required,
                       help="readers:R or longitudinal:K")
        p.add_argument("--measure", default="auc",
                       help="auc | pauc:<u1>,<u2>[:normalized] | sens:<u0> | "
                            "steps:<u1>=<m1>,...")
        p.add_argument("--midrank", action="store_true",
                       help="score ties 1/2 (auc and pauc measures only)")
        p.add_argument("--bootstrap", type=int, default=0, metavar="B",
                       help="bootstrap covariance with B replicates instead "
                            "of the analytic estimator")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p_analyze = sub.add_parser("analyze", help="per-stratum wAUC estimates")
    add_common(p_analyze, design_required=False)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_compare = sub.add_parser("compare", help="weighted paired difference test")
    add_common(p_compare, design_required=True)
    p_compare.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p_compare.add_argument("--weights", default="equal",
                           help="equal | optimal | custom:w1,w2,...")
    p_compare.add_argument("--ridge", type=float, default=None,
                           help="ridge added to the difference covariance "
                                "when solving optimal weights")
    p_compare.set_defaults(func=_cmd_compare)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    p_sim.add_argument("study", nargs="?", choices=study_names(),
                       help="named study; omit when using --scenario")
    p_sim.add_argument("--scenario",
                       help="key = value scenario file; excludes --rho, --family, "
                            "--n, --reps and --seed")
    p_sim.add_argument("--rho", type=float,
                       help=f"within-subject correlation (default {DEFAULT_RHO:g}) "
                            "for studies that take it")
    p_sim.add_argument("--n", type=int, help=f"subjects per group (default {DEFAULT_N})")
    p_sim.add_argument("--family", choices=FAMILIES,
                       help="marker distribution for studies that take it")
    p_sim.add_argument("--reps", type=int, help=f"replicates (default {DEFAULT_REPS})")
    p_sim.add_argument("--seed", type=int, help=f"master seed (default {DEFAULT_SEED})")
    p_sim.add_argument("--component", type=int,
                       help="headline marker of the table2 method comparison (default 1)")
    p_sim.add_argument("--threads", type=int,
                       help="at most this many worker processes; left out or 0, one")
    p_sim.add_argument("--output", metavar="BASE",
                       help="write BASE.json and BASE.csv")
    p_sim.set_defaults(func=_cmd_simulate)

    p_roc = sub.add_parser("roc", help="empirical ROC curve as CSV")
    p_roc.add_argument("--input", required=True)
    p_roc.add_argument("--marker", type=int, default=1)
    p_roc.add_argument("--time", type=int, default=None)
    p_roc.add_argument("--grid", type=int, default=512,
                       help="evaluate at u = (i - 0.5)/N for i = 1..N")
    p_roc.add_argument("--output")
    p_roc.set_defaults(func=_cmd_roc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"wroc: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FileNotFoundError, PermissionError, IsADirectoryError) as exc:
        print(f"wroc: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        # numpy names the allocation it could not make; a Python list does not
        detail = f": {exc}" if str(exc) else ""
        print(f"wroc: input error: not enough memory for this request{detail}", file=sys.stderr)
        return EXIT_INPUT
    except (WrocError, np.linalg.LinAlgError) as exc:
        print(f"wroc: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"wroc: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
