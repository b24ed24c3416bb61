"""Run one wroc benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload mc_reader --seed 1 --trace 0
    python3 perfbench/run.py --freeze     # rewrite perfbench/reference.json

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.  An
untraced run starts fresh worker processes (``worker.py``):
``SETUP_SAMPLES - 1`` that only set up, then one that sets up, runs the
timed closed loop and checks its outputs.  ``setup_s`` is the median set-up
time over all of them, measured from process start to the end of the
warm-up op.  A traced run (``--trace 1``) starts only the loop worker, which
runs every op once untraced and once traced, and reports the per-layer
metrics.  The run is appended to ``.bench_out/runs.jsonl``; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mc_reader", "mc_longitudinal", "cli_compare_large", "cli_bootstrap")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
# One client on one thread: BLAS pools off, so the scheduler of a small
# shared machine does not show up in the timings.
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
                  "VECLIB_MAXIMUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _worker(root: Path, phase: str, args, deadline: float) -> tuple[list[str], float]:
    """Run one worker to completion; return its stdout lines and its start time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", str(root)]
    env = dict(os.environ, **PINNED_THREADS)
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{phase} worker for {args.workload} overran the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{phase} worker for {args.workload} exited with {proc.returncode}")
    return out.splitlines(), started


def _ready(lines: list[str], started: float) -> tuple[float, dict]:
    """Set-up seconds as measured, and the worker's ready report."""
    for line in lines:
        if line.startswith("ready "):
            info = json.loads(line[len("ready "):])
            return info["t"] - started, info
    raise BenchError("worker never reported ready")


def _git(root: Path, *argv) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *argv], cwd=root, capture_output=True, text=True,
                              timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(root: Path, load_start, load_end) -> dict:
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(load_end),
        "pinned_threads": PINNED_THREADS,
    }


def run(args, root: Path, bench: dict) -> tuple[dict, bool]:
    deadline = time.monotonic() + DEADLINE_S
    load_start = os.getloadavg()
    wall_samples = []
    samples = []
    shas = set()
    phases = ["run"] if args.trace else ["setup"] * (SETUP_SAMPLES - 1) + ["run"]
    for phase in phases:
        lines, started = _worker(root, phase, args, deadline)
        seconds, info = _ready(lines, started)
        wall_samples.append(seconds)
        samples.append(seconds * info["speed_factor"])
        shas.add(info["sha256"])
    result = json.loads(lines[-1])
    load_end = os.getloadavg()
    for path in (root / ".bench_work").glob(f"{args.workload}-seed{args.seed}.csv"):
        path.unlink()

    problems = list(result["problems"])
    if len(shas) != 1:
        problems.append(f"set-up runs generated different inputs: {sorted(shas, key=str)}")
    untraced = result["untraced"]
    if args.trace:
        specs, source, end_to_end = bench["per_layer"], result["per_layer"], None
    else:
        end_to_end = {
            "ops_per_s": untraced["ops_per_s"],
            "op_ms_p50": untraced["op_ms_p50"],
            "setup_s": statistics.median(samples),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        specs, source = bench["end_to_end"], end_to_end
        end_to_end = dict(end_to_end,
                          failed_frac=result["failed"] / result["attempted"],
                          wall_setup_s=statistics.median(wall_samples),
                          **{k: v for k, v in untraced.items() if k not in end_to_end})
    missing = [spec["name"] for spec in specs if spec["name"] not in source]
    if missing:
        raise BenchError(f"benchmark produced no value for {missing}")
    metrics = {spec["name"]: {"value": source[spec["name"]], "unit": spec["unit"]}
               for spec in specs}
    correct = not problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "end_to_end": end_to_end,
        "setup_samples_s": samples,
        "wall_setup_samples_s": wall_samples,
        "problems": problems[:50],
        "worker": {k: v for k, v in result.items() if k != "problems"},
        "provenance": provenance(root, load_start, load_end),
    }
    return record, correct


def print_report(record: dict, bench: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  closed loop, 1 client")
    if record["trace"]:
        worker = record["worker"]
        plain, traced = worker["untraced"], worker["traced"]
        print(f"  {traced['ops']} ops, each once untraced and once traced, alternating; "
              "wall clock")
        print(f"  ops_per_s untraced {plain['wall_ops_per_s']:.6g}  "
              f"traced {traced['wall_ops_per_s']:.6g} 1/s")
        print("  per layer (traced ops; single process, so no queue wait to report):")
        for name, metric in record["metrics"].items():
            print(f"    {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    else:
        e2e = record["end_to_end"]
        units = {spec["name"]: spec["unit"] for spec in bench["end_to_end"]}
        print(f"  {e2e['ops']} ops; {'':<4} {'at ref. speed':>14} {'as measured':>14}")
        for name in ("ops_per_s", "op_ms_p50", "op_ms_p90", "setup_s"):
            if e2e[name] is None:
                print(f"  {name:<14} {'-':>14} {'-':>14} (only {e2e['ops']} samples; needs 100)")
            else:
                print(f"  {name:<14} {e2e[name]:>14.6g} {e2e['wall_' + name]:>14.6g} "
                      f"{units.get(name, 'ms')}")
        print(f"  {'peak_rss_mb':<14} {e2e['peak_rss_mb']:>14.6g} {'':>14} MB")
        print(f"  {'probe_ms_p50':<14} {e2e['probe_ms_p50']:>14.6g} {'':>14} ms "
              f"(probe process around each op; reference {e2e['probe_reference_ms']} ms)")
        print(f"  {'failed_frac':<14} {e2e['failed_frac']:>14.6g} fraction "
              f"({record['failed']} of {record['attempted']})")
    print(f"  correct        {record['correct']}")
    for problem in record["problems"]:
        print(f"    mismatch: {problem}")


def freeze(root: Path) -> None:
    """Recompute the frozen reference values at the current commit."""
    args = argparse.Namespace(seed=0, seconds=0, trace=0)
    deadline = time.monotonic() + 10 * DEADLINE_S
    workloads = {}
    for name in WORKLOADS:
        args.workload = name
        lines, _ = _worker(root, "freeze", args, deadline)
        workloads[name] = json.loads(lines[-1])
    payload = {"git_sha": _git(root, "rev-parse", "HEAD"), "workloads": workloads}
    (HERE / "reference.json").write_text(json.dumps(payload, indent=1) + "\n")


def main() -> int:
    root = Path.cwd()
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: run from the repository root; no BENCHMARK.json ({exc})",
              file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true",
                        help="rewrite reference.json from the current program")
    args = parser.parse_args()

    if not (root / "src" / "wroc" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/wroc not found", file=sys.stderr)
        return 2
    if args.freeze:
        freeze(root)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        record, correct = run(args, root, bench)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    target = root / ".bench_out" / "runs.jsonl"
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print_report(record, bench)
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
