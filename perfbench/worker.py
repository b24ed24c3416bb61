"""One benchmark workload in one fresh process.

``run.py`` starts this file.  It imports wroc from ``<root>/src``, builds the
workload's inputs from the seed, runs one untimed warm-up op and prints
``ready <json>``.  In the ``setup`` phase it then exits; that time is the
set-up sample.  In the ``run`` phase it runs a closed loop (one client, one
op after another) for the given seconds and checks every output: untraced,
with the probe process of ``calibrate.py`` timed around each op, or, with
``--trace 1``, each op once untraced and once traced.  It prints one JSON
result line.  The ``freeze`` phase prints the reference values that
``reference.json`` holds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import calibrate
import spans

REF_SEED = 20240817
REFERENCE_REPS = 16
CROSS_CHECK_REPS = 8
SETUP_PROBES = 3
REL_TOL = 1e-12
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "WROC_THREADS")


def _import_wroc(root: Path):
    sys.path.insert(0, str(root / "src"))
    import importlib

    names = spans.LAYER_MODULES + ("wroc.designs",)
    return {name: importlib.import_module(name) for name in names}


def _close(a, b) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def diff_values(expected, actual, where: str = "") -> list[str]:
    """Mismatches between two JSON-like values; floats compare at REL_TOL."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        out = []
        for key in expected:
            out += diff_values(expected[key], actual[key], f"{where}.{key}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += diff_values(e, a, f"{where}[{i}]")
        return out
    if isinstance(expected, float) or isinstance(actual, float):
        ok = (isinstance(actual, (int, float)) and not isinstance(actual, bool)
              and _close(float(expected), float(actual)))
        return [] if ok else [f"{where}: {actual!r} != {expected!r}"]
    return [] if expected == actual else [f"{where}: {actual!r} != {expected!r}"]


# -- input descriptors ---------------------------------------------------


def describe_input(dataset, design) -> dict:
    """Size and clustering of one op's dataset, from ``Stratum.counts``.

    ``pairs_per_op`` is the number of within-subject cross pairs summed over
    all stratum pairs (a <= b) of both groups: the pairs the pair-based
    covariance kernel enumerates for one call on this dataset.
    """
    strata = design.strata()
    rows = subjects = pairs = 0
    cells = []
    for group in ("diseased", "nondiseased"):
        counts = [dataset.stratum(group, m, t).counts for m, t in strata]
        subjects += int(counts[0].size)
        rows += sum(int(c.sum()) for c in counts)
        cells += [int(v) for c in counts for v in c]
        for a in range(len(counts)):
            for b in range(a, len(counts)):
                pairs += int((counts[a] * counts[b]).sum())
    return {"input.rows": rows, "input.subjects": subjects,
            "input.cluster_size_mean": sum(cells) / len(cells),
            "input.pairs_per_op": pairs}


# -- Monte Carlo workloads -----------------------------------------------


class McWorkload:
    """One op is one replicate of ``run_study``: the replicate function that
    ``run_study`` calls per replicate, on the scenario seeded by ``--seed``."""

    cycle = 1
    root_span = "simulation.replicate"

    def __init__(self, name: str, builder: str, kwargs: dict):
        self.name = name
        self.builder = builder
        self.kwargs = kwargs

    def scenario(self, mods, seed: int):
        sim = mods["wroc.simulation"]
        return replace(getattr(sim, self.builder)(**self.kwargs), seed=seed)

    def setup(self, mods, seed: int, workdir: Path) -> dict:
        sim = mods["wroc.simulation"]
        scenario = self.scenario(mods, seed)
        return {"sim": sim, "scenario": scenario, "plan": sim._build_plan(scenario),
                "sha256": None, "params": scenario.config_dict()}

    def op(self, state, i: int):
        return state["sim"]._simulate_one_rep(state["scenario"], state["plan"], i)

    def input_key(self, i: int) -> int:
        """Ops with equal keys get equal inputs, so must give equal outputs."""
        return i

    def check_op(self, state, i: int, out, first) -> tuple[bool, list[str]]:
        """(failed, problems) for one replicate's (estimate, variance,
        fallback, failed) rows."""
        failed = bool((out[:, 3] != 0).any())
        problems = []
        for row in out:
            if row[3] == 0 and not (math.isfinite(row[0]) and row[1] > 0 and row[2] in (0, 1)):
                problems.append(f"op {i}: implausible cell {row.tolist()}")
        if first is not None and out.tobytes() != first.tobytes():
            problems.append(f"op {i}: differs from the warm-up run of the same replicate")
        return failed, problems

    def cross_check(self, state, outs) -> list[str]:
        """The first replicates, re-run through the public ``run_study``,
        must reproduce the timed ops bit for bit, through the same
        replicate function."""
        sim = state["sim"]
        n = min(len(outs), CROSS_CHECK_REPS)
        original = sim._simulate_one_rep
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        sim._simulate_one_rep = counting
        try:
            report = sim.run_study(replace(state["scenario"], n_reps=n))
        finally:
            sim._simulate_one_rep = original
        problems = []
        if len(calls) != n:
            problems.append(f"run_study made {len(calls)} replicate calls for {n} replicates; "
                            "the op no longer matches run_study's path")
        for idx, cell in enumerate(report.cells):
            ok = [o[idx, 3] == 0 for o in outs[:n]]
            est = [float(o[idx, 0]) for o, k in zip(outs[:n], ok) if k]
            var = [float(o[idx, 1]) for o, k in zip(outs[:n], ok) if k]
            if est != [float(v) for v in cell.estimates] or var != [float(v) for v in cell.variances]:
                problems.append(f"cell {cell.measure}/{cell.weight_method}: timed ops "
                                "differ from run_study")
        return problems

    def reference(self, mods, workdir: Path) -> dict:
        sim = mods["wroc.simulation"]
        scenario = replace(self.scenario(mods, REF_SEED), n_reps=REFERENCE_REPS)
        report = sim.run_study(scenario)
        cells = []
        for cell in report.cells:
            cells.append({
                "measure": cell.measure, "weight_method": cell.weight_method,
                "n_reps": cell.n_reps, "n_failures": cell.n_failures,
                "n_fallbacks": cell.n_fallbacks,
                "covered": round(cell.coverage * cell.n_reps),
                "rejected": round(cell.power * cell.n_reps),
                "mean_estimate": cell.mean_estimate,
                "mean_variance": cell.mean_variance,
                "mc_variance": cell.mc_variance,
            })
        return {"seed": REF_SEED, "n_reps": REFERENCE_REPS, "cells": cells}

    def describe(self, state) -> dict:
        sim = state["sim"]
        scenario = state["scenario"]
        dataset = sim.generate_dataset(scenario, sim.replicate_rng(scenario.seed, 0))
        return describe_input(dataset, scenario.design)


# -- CLI workloads -------------------------------------------------------

# Generative constants of the input CSVs, copied from the table3 and table4
# scenarios so that the benchmark, not the program, writes the bytes the
# program reads.
CSV_STUDIES = {
    "cli_compare_large": {
        "tag": 3, "design": "readers:3", "n": 2000, "n_markers": 6, "n_times": 1,
        "mu_diseased": (2.0, 1.0, 1.0, 1.0, 1.0, 1.0), "mu_nondiseased": (0.0,) * 6,
        "variances": (1.0, 1.5, 2.0, 2.0, 3.0, 2.0),
        "rho_diseased": 0.5, "rho_nondiseased": 0.5,
        "clusters_diseased": (1, 1), "clusters_nondiseased": (1, 1),
        "modality_blocks": 2,
    },
    "cli_bootstrap": {
        "tag": 4, "design": "longitudinal:3", "n": 200, "n_markers": 2, "n_times": 3,
        "mu_diseased": (2.0, 1.0), "mu_nondiseased": (0.0, 0.0), "variances": (1.0, 1.0),
        "rho_diseased": 0.4, "rho_nondiseased": 0.3,
        "clusters_diseased": (2, 4), "clusters_nondiseased": (5, 3),
        "modality_blocks": 1,
    },
}


def _exchangeable_chol(np, var_row, rho: float, blocks: int):
    """Cholesky factor of exchangeable correlation within each of ``blocks``
    equal slices of the row, independent across slices."""
    dim = var_row.size
    width = dim // blocks
    cov = np.zeros((dim, dim))
    for b in range(blocks):
        sl = slice(b * width, (b + 1) * width)
        sd = np.sqrt(var_row[sl])
        corr = np.full((width, width), rho) + (1.0 - rho) * np.eye(width)
        cov[sl, sl] = corr * np.outer(sd, sd)
    return np.linalg.cholesky(cov)


def write_study_csv(spec: dict, seed: int, path: Path) -> str:
    """Write the long-format CSV for ``seed``; return its SHA-256."""
    import numpy as np

    rng = np.random.default_rng([seed, spec["tag"]])
    lines = ["subject_id,status,marker,time,replicate,value"]
    for status, prefix, group in (("D", "d", "diseased"), ("ND", "n", "nondiseased")):
        n = spec["n"]
        halves = ((n + 1) // 2, n - (n + 1) // 2)
        subject = 0
        for n_half, size in zip(halves, spec[f"clusters_{group}"]):
            per_marker = spec["n_times"] * size
            mu_row = np.repeat(np.asarray(spec[f"mu_{group}"]), per_marker)
            var_row = np.repeat(np.asarray(spec["variances"]), per_marker)
            chol = _exchangeable_chol(np, var_row, spec[f"rho_{group}"], spec["modality_blocks"])
            rows = mu_row + rng.standard_normal((n_half, mu_row.size)) @ chol.T
            for row in rows:
                subject += 1
                col = 0
                for marker in range(1, spec["n_markers"] + 1):
                    for t in range(1, spec["n_times"] + 1):
                        for rep in range(1, size + 1):
                            lines.append(f"{prefix}{subject},{status},{marker},{t},{rep},"
                                         f"{float(row[col])!r}")
                            col += 1
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(payload)
    return hashlib.sha256(payload).hexdigest()


# Report fields the correctness gate compares, where the report has them.
REPORT_FIELDS = ("delta", "variance", "wauc", "se", "weights", "weights_fell_back",
                 "covariance_method", "psd_repaired")


class CliWorkload:
    """One op is one in-process ``wroc.cli.main`` request; requests cycle
    through a fixed mix and a run always ends on a whole cycle."""

    root_span = "cli"

    def __init__(self, name: str, requests: list[list[str]]):
        self.name = name
        self.requests = requests
        self.cycle = len(requests)
        self.spec = CSV_STUDIES[name]

    def argv(self, i: int, path: Path, seed: int) -> list[str]:
        return [tok.format(input=path, seed=seed) for tok in self.requests[i % self.cycle]]

    def setup(self, mods, seed: int, workdir: Path) -> dict:
        path = workdir / f"{self.name}-seed{seed}.csv"
        sha = write_study_csv(self.spec, seed, path)
        params = dict(self.spec, seed=seed, requests=self.requests)
        return {"cli": mods["wroc.cli"], "path": path, "seed": seed, "sha256": sha,
                "mods": mods, "params": params}

    def input_key(self, i: int) -> int:
        return i % self.cycle

    def op(self, state, i: int):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = state["cli"].main(self.argv(i, state["path"], state["seed"]))
        return code, out.getvalue(), err.getvalue()

    def fields(self, text: str) -> dict:
        results = json.loads(text)["results"]
        return {key: results[key] for key in REPORT_FIELDS if key in results}

    def check_op(self, state, i: int, out, first) -> tuple[bool, list[str]]:
        code, text, err = out
        if code != 0:
            return True, [f"op {i}: exit code {code}: {err.strip()[:200]}"]
        report = json.loads(text)
        problems = []
        if report.get("input_sha256") != state["sha256"]:
            problems.append(f"op {i}: report input_sha256 does not match the generated input")
        values = self.fields(text)
        numbers = [v for key in ("delta", "variance", "wauc", "se", "weights") if key in values
                   for v in (values[key] if isinstance(values[key], list) else [values[key]])]
        if not all(math.isfinite(v) for v in numbers):
            problems.append(f"op {i}: non-finite value in report")
        if first is not None and values != self.fields(first[1]):
            problems.append(f"op {i}: differs from an earlier run of the same request")
        return False, problems

    def cross_check(self, state, outs) -> list[str]:
        return []

    def reference(self, mods, workdir: Path) -> dict:
        path = workdir / f"{self.name}-reference.csv"
        sha = write_study_csv(self.spec, REF_SEED, path)
        state = {"cli": mods["wroc.cli"], "path": path, "seed": REF_SEED}
        requests = []
        try:
            for i in range(self.cycle):
                code, text, err = self.op(state, i)
                requests.append({"request": self.requests[i], "exit_code": code,
                                 "fields": self.fields(text) if code == 0 else err.strip()})
        finally:
            path.unlink()
        return {"seed": REF_SEED, "input_sha256": sha, "requests": requests}

    def describe(self, state) -> dict:
        dataset = state["mods"]["wroc.dataset"].read_dataset_csv(state["path"])
        design = state["mods"]["wroc.designs"].parse_design(self.spec["design"])
        return describe_input(dataset, design)


WORKLOADS = {
    "mc_reader": McWorkload("mc_reader", "table3_scenario", {"rho": 0.5, "n": 50}),
    "mc_longitudinal": McWorkload("mc_longitudinal", "table4_scenario",
                                  {"n": 50, "family": "normal"}),
    "cli_compare_large": CliWorkload("cli_compare_large", [
        ["compare", "--input", "{input}", "--design", "readers:3",
         "--measure", "pauc:0,0.6", "--weights", "optimal"],
        ["compare", "--input", "{input}", "--design", "readers:3", "--measure", "auc"],
        ["analyze", "--input", "{input}", "--design", "readers:3", "--measure", "sens:0.2"],
    ]),
    "cli_bootstrap": CliWorkload("cli_bootstrap", [
        ["compare", "--input", "{input}", "--design", "longitudinal:3",
         "--measure", "pauc:0,0.6", "--bootstrap", "200", "--seed", "{seed}"],
    ]),
}


# -- timed loops ---------------------------------------------------------


def timed_loop(workload, state, seconds: float, prober) -> dict:
    """Closed loop until ``seconds`` have passed and a request cycle is whole.

    The probe process measures the machine's speed before the first op and
    after every op, outside the ops' time, so ``probes[i]`` and
    ``probes[i + 1]`` bracket op ``i``."""
    latencies = []
    outs = []
    gc.collect()
    probes = [prober.measure()]
    started = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        out = workload.op(state, i)
        latencies.append(time.perf_counter() - t0)
        probes.append(prober.measure())
        outs.append(out)
        i += 1
        if time.perf_counter() - started >= seconds and i % workload.cycle == 0:
            break
    return {"latencies": latencies, "probes": probes, "outs": outs}


def paired_loop(workload, state, seconds: float, tracer, patch) -> tuple[dict, dict]:
    """Each op twice on the same input, once untraced and once traced, in
    alternating order (untraced first on even ops), until ``seconds`` have
    passed and a request cycle is whole.

    Pairing cancels the machine's changes of speed, which a traced loop and
    an untraced loop run one after the other would not."""
    plain = {"latencies": [], "outs": []}
    traced = {"latencies": [], "outs": []}
    gc.collect()
    started = time.perf_counter()
    i = 0
    while True:
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            loop = traced if with_trace else plain
            if with_trace:
                patch.on()
                tracer.op = i
                idx = tracer.open(workload.root_span)
            t0 = time.perf_counter()
            out = workload.op(state, i)
            t1 = time.perf_counter()
            if with_trace:
                tracer.close(idx)
                patch.off()
            loop["latencies"].append(t1 - t0)
            loop["outs"].append(out)
        i += 1
        if time.perf_counter() - started >= seconds and i % workload.cycle == 0:
            break
    return plain, traced


def summarize(loop: dict) -> dict:
    """Op time statistics as measured (``wall_``) and, where the loop was
    probed, at reference speed."""
    wall_ms = [1e3 * v for v in loop["latencies"]]
    n = len(wall_ms)
    out = {"ops": n}
    variants = [("wall_", wall_ms)]
    if "probes" in loop:
        # each op scaled by the geometric mean of the probes around it
        probes = loop["probes"]
        ref_ms = [t * calibrate.speed_factor(math.sqrt(before * after), calibrate.REFERENCE_MS)
                  for t, before, after in zip(wall_ms, probes, probes[1:])]
        variants.insert(0, ("", ref_ms))
        out["probe_ms_p50"] = 1e3 * statistics.median(loop["probes"])
        out["probe_reference_ms"] = calibrate.REFERENCE_MS
    for prefix, ms in variants:
        out[prefix + "ops_per_s"] = 1e3 * n / sum(ms)
        out[prefix + "op_ms_p50"] = statistics.median(ms)
        # p90 only where at least 10 samples lie beyond it
        out[prefix + "op_ms_p90"] = statistics.quantiles(ms, n=10)[8] if n >= 100 else None
    return out


def check_loop(workload, state, outs, warm) -> tuple[int, list[str]]:
    failed = 0
    problems = []
    firsts = {0: warm}
    for i, out in enumerate(outs):
        key = workload.input_key(i)
        bad, found = workload.check_op(state, i, out, firsts.get(key))
        firsts.setdefault(key, out)
        failed += bad
        problems += found
    return failed, problems


def check_twins(workload, state, plain, traced) -> tuple[int, list[str]]:
    """Every traced op must give what its untraced twin gave."""
    failed = 0
    problems = []
    for i, (twin, out) in enumerate(zip(plain, traced)):
        bad, found = workload.check_op(state, i, out, twin)
        failed += bad
        problems += [f"traced {p}" for p in found]
    return failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phase", choices=("setup", "run", "freeze"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=REF_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args()

    # Probed before wroc is imported: right after warm-up the probe no longer
    # tracked how fast set-up ran.  Its own time is left out of set-up.
    probe_started = time.monotonic()
    setup_probe = statistics.median(calibrate.probe() for _ in range(SETUP_PROBES))
    probe_seconds = time.monotonic() - probe_started
    protocol = sys.stdout
    sys.stdout = sys.stderr  # stray prints must not corrupt the protocol lines
    workdir = args.root / ".bench_work"
    workdir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    mods = _import_wroc(args.root)

    if args.phase == "freeze":
        protocol.write(json.dumps(workload.reference(mods, workdir)) + "\n")
        return 0

    state = workload.setup(mods, args.seed, workdir)
    warm = workload.op(state, 0)
    ready = time.monotonic() - probe_seconds
    factor = calibrate.speed_factor(setup_probe, calibrate.SETUP_REFERENCE_MS)
    protocol.write("ready " + json.dumps({"sha256": state["sha256"], "t": ready,
                                          "speed_factor": factor}) + "\n")
    protocol.flush()
    if args.phase == "setup":
        return 0

    if not args.trace:
        with calibrate.ProbeProcess() as prober:
            loop = timed_loop(workload, state, args.seconds, prober)
        result = {"untraced": summarize(loop),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        outs = loop["outs"]
        failed, problems = check_loop(workload, state, outs, warm)
        attempted = len(outs)
    else:
        tracer = spans.Tracer()
        patch, missing = spans.install(tracer, mods)
        if missing:
            # A renamed or moved target would read as a layer taking 0 ms.
            print(f"perfbench: tracing targets not found: {', '.join(missing)}; "
                  "update perfbench/spans.py", file=sys.stderr)
            return 4
        try:
            plain, traced = paired_loop(workload, state, args.seconds, tracer, patch)
        finally:
            patch.off()
        outs = plain["outs"]
        failed, problems = check_loop(workload, state, outs, warm)
        t_failed, t_problems = check_twins(workload, state, outs, traced["outs"])
        failed += t_failed
        problems += t_problems
        attempted = len(outs) + len(traced["outs"])
        result = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    problems += workload.cross_check(state, outs)
    outs.clear()
    descriptors = workload.describe(state)

    if args.trace:
        untraced, summary = summarize(plain), summarize(traced)
        layer, detail = spans.layer_metrics(tracer.spans, workload.root_span, summary["ops"],
                                            descriptors["input.rows"])
        # untraced minus traced ops_per_s, from the median ratio of each op's
        # traced to untraced time: the machine slowing down during a single
        # op moves a ratio of sums by more than the spans cost
        ratio = statistics.median(t / u for u, t in zip(plain["latencies"], traced["latencies"]))
        layer["trace.overhead_frac"] = 1.0 - 1.0 / ratio
        layer["trace.overhead_ops_per_s"] = untraced["wall_ops_per_s"] * (1.0 - 1.0 / ratio)
        layer.update(descriptors)
        spans_path = args.root / ".bench_out" / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
        result.update(untraced=untraced, traced=summary, per_layer=layer,
                      per_layer_detail=detail,
                      spans_file=str(spans_path.relative_to(args.root)))

    frozen = json.loads(Path(__file__).with_name("reference.json").read_text())
    actual = workload.reference(mods, workdir)
    problems += [f"reference{m}" for m in diff_values(frozen["workloads"][args.workload], actual)]

    import numpy
    import scipy

    result.update(
        attempted=attempted,
        failed=failed,
        correct=not problems,
        problems=problems[:50],
        input=descriptors,
        input_sha256=state["sha256"],
        params=state["params"],
        versions={"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
        thread_env={k: os.environ.get(k) for k in THREAD_VARS},
    )
    protocol.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
