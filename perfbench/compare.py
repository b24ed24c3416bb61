"""Spread of one set of benchmark runs, or the verdict between two sets.

    python3 perfbench/compare.py RUNS.jsonl                # spread per metric
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl # parent vs change

Files are the JSON-lines records ``run.py`` appends to
``.bench_out/runs.jsonl``; only untraced runs count.  Runs of the two sets
pair up by workload and seed.  Each gated time is followed by its
wall-clock twin (``wall_*``), shown for information only.

The verdict follows the benchmark's own bounds (``BENCHMARK.json``):

* better: at least ten pairs, the change wins at least nine tenths of them
  (ties count for neither), its median beats the parent's by more than the
  parent's interquartile range, and no more ops fail than at the parent;
* unresolved: the run-to-run spread (interquartile range over median, the
  wider side) exceeds the bound, unless every change run beats every
  parent run;
* worse: the change median is worse than the parent median by more than the
  bound;
* no worse: otherwise.

``ops_per_s`` and ``op_ms_p50`` are scaled by the probe process's times
around each op.  If the change's probe ran slower than the parent's in at
least ``PROBE_WINS`` of the pairs and by more than ``PROBE_SHIFT`` at the
median, the scaling flatters the change, and a better or no worse verdict
on those two turns into unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

PROBE_SCALED = ("ops_per_s", "op_ms_p50")
PROBE_WINS = 0.8
PROBE_SHIFT = 0.03


def load(path) -> dict:
    """{workload: {seed: record}} of the untraced runs in one file."""
    runs: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def value(record: dict, name: str) -> float:
    """A gated metric, or a wall-clock value from the record (``wall_*``)."""
    if name in record["metrics"]:
        return record["metrics"][name]["value"]
    return record["end_to_end"][name]


def with_wall(specs: list[dict]) -> list[dict]:
    """The gated metrics, each followed by its wall-clock twin if it has one."""
    out = []
    for spec in specs:
        out.append(spec)
        if spec["unit"] in ("s", "ms", "1/s"):
            out.append(dict(spec, name="wall_" + spec["name"], info=True))
    return out


def quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def verdict(parent: dict, change: dict, spec: dict) -> tuple[str, float]:
    """(verdict, pair win fraction) for one metric; inputs map seed -> value."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    p = list(parent.values())
    c = list(change.values())
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    med_p, med_c = statistics.median(p), statistics.median(c)
    q1, _, q3 = quartiles(p)
    gain = sign * (med_c - med_p) / med_p
    every_run_better = all(sign * (b - a) > 0 for a in p for b in c)
    if len(pairs) >= 10 and win_frac >= 0.9 and gain > 0 and abs(med_c - med_p) > q3 - q1:
        return "better", win_frac
    if max(spread(p), spread(c)) > spec["bound"] and not every_run_better:
        return "unresolved", win_frac
    if -gain > spec["bound"]:
        return "worse", win_frac
    return "no worse", win_frac


def probe_shift(parent: dict, change: dict) -> tuple[float, float] | None:
    """(median relative slow-down of the change's probe, fraction of pairs
    where it was slower) over the runs that pair up by seed, if any do."""
    pairs = [(parent[s]["end_to_end"]["probe_ms_p50"], change[s]["end_to_end"]["probe_ms_p50"])
             for s in parent if s in change]
    if not pairs:
        return None
    return (statistics.median(c / p - 1.0 for p, c in pairs),
            sum(c > p for p, c in pairs) / len(pairs))


def _fmt(values) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:>12.5g} [{q1:.5g}, {q3:.5g}]"


def report_spread(runs: dict, specs: list[dict]) -> bool:
    steady = True
    print(f"{'workload':<18} {'metric':<15} {'n':>3} {'median [q1, q3]':>34} "
          f"{'spread':>8} {'bound':>6}  check")
    for workload, by_seed in runs.items():
        bad = [s for s, r in by_seed.items() if not r["correct"]]
        if bad:
            print(f"{workload}: incorrect runs for seeds {bad}")
            steady = False
        for spec in specs:
            values = [value(r, spec["name"]) for r in by_seed.values()]
            if len(values) < 2:
                continue
            s = spread(values)
            if spec.get("info"):
                check = "(wall, not gated)"
            else:
                # set-up time is gated on its median only, not on its spread
                ok = spec["name"] == "setup_s" or s < spec["bound"] / 3
                steady &= ok
                check = "ok" if ok else "WIDE"
            print(f"{workload:<18} {spec['name']:<15} {len(values):>3} {_fmt(values):>34} "
                  f"{s:>8.4f} {spec['bound']:>6}  {check}")
    return steady


def report_compare(parent: dict, change: dict, specs: list[dict]) -> None:
    print(f"{'workload':<18} {'metric':<15} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>5}  verdict")
    for workload in parent:
        if workload not in change:
            print(f"{workload}: no change runs")
            continue
        failed_p = sum(r["failed"] for r in parent[workload].values())
        failed_c = sum(r["failed"] for r in change[workload].values())
        shift = probe_shift(parent[workload], change[workload])
        if shift is None:
            flattered = False
            print(f"{workload:<18} probe process: no runs pair up by seed")
        else:
            flattered = shift[1] >= PROBE_WINS and shift[0] > PROBE_SHIFT
            print(f"{workload:<18} probe process: change slower by {shift[0]:+.2%} at the "
                  f"median, in {shift[1]:.0%} of pairs"
                  + ("; the scaling flatters the change" * flattered))
        for spec in specs:
            name = spec["name"]
            p = {s: value(r, name) for s, r in parent[workload].items()}
            c = {s: value(r, name) for s, r in change[workload].items()}
            if len(p) < 2 or len(c) < 2:
                continue
            result, win_frac = verdict(p, c, spec)
            if result == "better" and failed_c > failed_p:
                result = "unresolved (more failed ops)"
            if flattered and name in PROBE_SCALED and result in ("better", "no worse"):
                result = "unresolved (probe moved)"
            if spec.get("info"):
                result += " (wall, not gated)"
            print(f"{workload:<18} {name:<15} {_fmt(list(p.values())):>34} "
                  f"{_fmt(list(c.values())):>34} {win_frac:>5.2f}  {result}")


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    specs = with_wall(bench["end_to_end"])
    if len(argv) == 1:
        return 0 if report_spread(load(argv[0]), specs) else 1
    report_compare(load(argv[0]), load(argv[1]), specs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
