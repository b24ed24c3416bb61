"""Machine-speed probe: a fixed kernel, timed in a process of its own.

On the shared 2-core Intel Xeon machine this benchmark was built on, other
tenants share the cores, and the same wroc replicate took anywhere from 12.5
to 23 ms over a few minutes, with CPU time tracking wall time (no steal): the
cores themselves ran slower.  A wroc op and this kernel, timed back to back,
slow down together, so the ratio of the two stays put.  The kernel mixes
what wroc ops spend time on: building small Python tuples and dicts, numpy
sort, searchsorted, bincount and Gaussian-kernel sums on a few hundred
values, and grouping 8,400 long-format records by stratum and subject into
arrays, as a dataset build does.  Over 13-second windows of a four-minute
``cli_bootstrap`` loop, op rates scaled by it spread 5% while the raw rates
spread 21%; without the grouping part the scaled rates spread 9%.

In the timed loop the kernel runs in a separate probe process
(:class:`ProbeProcess`), which the loop asks for one measurement after each
op while it waits.  That process never imports wroc, so the program's heap,
its garbage and its objects cannot slow the probe; and the kernel runs once
untimed before each timed run, so the probe starts on warm caches whatever
the op left in them.  A probe inside the loop's own process did move with
the program: with tracing on, its median rose by 8-61% while the probe
process stayed within 3%.  What the probe process still shares with the
program is the machine: the cores, their clock and the memory bus.  A change
that loads those while the probe runs (a thread left running after an op,
say) would slow the probe and hide in the scaled times; the wall-clock
values kept next to them, and ``compare.py``'s check of the probe times
between two sets of runs, are there for that case.

Set-up is probed in the worker process itself, before wroc is imported
(:func:`probe`), so no program code has run yet when it is timed.

Timings scaled by ``reference / probe`` read as times on this machine at
its median speed when the references were taken.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Round figures near the median probe times on the 2-core Intel Xeon machine
# (Python 3.11, numpy 2.4) where the baseline was recorded: the probe process
# after an op of the timed loop, and a fresh worker process right after numpy
# is imported.  They only set the scale of the scaled timings.
REFERENCE_MS = 8.0
SETUP_REFERENCE_MS = 8.0

_rng = np.random.default_rng(20240817)
_values = _rng.standard_normal(300)
_centers = _rng.standard_normal((64, 1))
_groups = _rng.integers(0, 100, 300)
# (subject, status, marker, visit, replicate, value), like the rows of a study CSV
_records = [(f"s{i // 12}", i % 2, 1 + i % 2, 1 + i % 3, 1 + i % 4, 0.37 * i)
            for i in range(8400)]


def _kernel() -> None:
    records = []
    for i in range(1500):
        records.append((f"s{i}", {(m, 1): (float(i),) for m in range(1, 4)}))
    for _ in range(30):
        z = (_centers - _values[None, :]) * 0.7
        float(np.exp(-0.5 * z * z).sum())
        np.searchsorted(np.sort(_values), _values[:64])
        np.bincount(_groups, weights=_values, minlength=100)
    # group the records by stratum and subject into arrays, as a dataset build does
    strata: dict = {}
    for subject, status, marker, visit, _, value in _records:
        strata.setdefault((status, marker, visit), {}).setdefault(subject, []).append(value)
    for by_subject in strata.values():
        np.array([v for values in by_subject.values() for v in values])


def probe() -> float:
    """Seconds one run of the kernel takes now, in this process.

    Garbage collection is off while it runs, so the probe's own objects,
    all freed before it returns, leave the collector's counts as they were.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class ProbeProcess:
    """The probe kernel in a child process; :meth:`measure` blocks until
    the child has run the kernel once to warm up and once timed."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)

    def measure(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"probe process ended with {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def speed_factor(probe_seconds: float, reference_ms: float) -> float:
    """Multiplier that turns a wall time measured next to this probe into
    a time at reference speed."""
    return reference_ms / (1e3 * probe_seconds)


def _serve() -> None:
    """Probe process: one warm-up and one timed kernel run per input line."""
    for _ in sys.stdin:
        probe()
        sys.stdout.write(f"{probe()!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
