"""Spans around the calls into each wroc layer, recorded from outside.

Nothing under ``src/`` knows about tracing: :func:`install` builds
wrappers that record one span per call for the module attributes that
callers look up (``wroc.simulation.sigma_matrix``,
``wroc.cli.read_dataset_csv``, ...) and for two ``MarkerDataset`` methods,
and the patch it returns swaps them in and out.  A span is ``[name, start, end, parent, op, attrs]``; spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time

LAYER_MODULES = ("wroc.dataset", "wroc.simulation", "wroc.estimators",
                 "wroc.covariance", "wroc.inference", "wroc.cli")

# (defining module, function) -> span name.  Every module in LAYER_MODULES
# that imported the same function object gets the same wrapper.
FUNCTION_SPANS = {
    ("wroc.dataset", "read_dataset_csv"): "dataset.read_csv",
    ("wroc.dataset", "validate"): "dataset.validate",
    ("wroc.simulation", "generate_dataset"): "simulation.generate",
    ("wroc.estimators", "wauc_vector"): "estimators.wauc_vector",
    ("wroc.covariance", "sigma_matrix"): "covariance.sigma",
    ("wroc.covariance", "bootstrap_covariance"): "covariance.bootstrap",
    ("wroc.covariance", "contrast_covariance"): "inference",
    ("wroc.inference", "equal_weights"): "inference",
    ("wroc.inference", "optimal_weights"): "inference",
    ("wroc.inference", "custom_weights"): "inference",
    ("wroc.inference", "pair_contrast"): "inference",
    ("wroc.inference", "delta_h"): "inference",
    ("wroc.inference", "variance_delta"): "inference",
    ("wroc.inference", "z_test"): "inference",
}
METHOD_SPANS = {
    ("wroc.dataset", "MarkerDataset", "__init__"): "dataset.build",
    ("wroc.dataset", "MarkerDataset", "resample"): "dataset.resample",
}
_SIGMA_PATHS = {"full": "placement", "pauc": "quadrature"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, name: str | None = None, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if name is not None:
            span[0] = name
        span[5] = attrs
        self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, attrs in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "attrs": attrs}) + "\n")


def _sigma_outcome(result, args, kwargs):
    return f"covariance.sigma.{result.method}", {"repaired": bool(result.repaired)}


def _sigma_error(exc, args, kwargs):
    measure = kwargs.get("measure", args[2] if len(args) > 2 else None)
    path = _SIGMA_PATHS.get(getattr(measure, "kind", None), "atoms")
    return f"covariance.sigma.{path}", {"error": type(exc).__name__}


def _bootstrap_outcome(signature):
    def outcome(result, args, kwargs):
        n_boot = signature.bind(*args, **kwargs).arguments["n_boot"]
        return None, {"n_boot": int(n_boot), "redrawn": int(result.n_redrawn)}
    return outcome


def _optimal_outcome(result, args, kwargs):
    return None, {"optimal": True, "fell_back": bool(result.fell_back)}


def _wrap(tracer: Tracer, fn, name: str, on_result=None, on_error=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            new_name, attrs = on_error(exc, args, kwargs) if on_error else (None, None)
            attrs = dict(attrs or {}, error=type(exc).__name__)
            tracer.close(idx, new_name, attrs)
            raise
        new_name, attrs = on_result(result, args, kwargs) if on_result else (None, None)
        tracer.close(idx, new_name, attrs)
        return result
    return traced


class Patch:
    """Wrappers that :meth:`on` puts in place of the originals and
    :meth:`off` takes out again."""

    def __init__(self):
        self.entries: list[tuple] = []  # (owner, attribute, original, wrapper)

    def on(self) -> None:
        for owner, attr, _, wrapper in self.entries:
            setattr(owner, attr, wrapper)

    def off(self) -> None:
        for owner, attr, original, _ in reversed(self.entries):
            setattr(owner, attr, original)


def install(tracer: Tracer, modules: dict) -> tuple[Patch, list[str]]:
    """Build a wrapper for every target; return the patch, not yet on, and
    the targets this version of the package no longer has.

    ``modules`` maps dotted names to imported module objects.
    """
    patch = Patch()
    missing = []
    for (home, attr), span in FUNCTION_SPANS.items():
        original = getattr(modules[home], attr, None)
        if original is None:
            missing.append(f"{home}.{attr}")
            continue
        on_result = on_error = None
        if span == "covariance.sigma":
            on_result, on_error = _sigma_outcome, _sigma_error
        elif span == "covariance.bootstrap":
            on_result = _bootstrap_outcome(inspect.signature(original))
        elif attr == "optimal_weights":
            on_result = _optimal_outcome
        wrapper = _wrap(tracer, original, span, on_result, on_error)
        for name in LAYER_MODULES:
            module = modules[name]
            if getattr(module, attr, None) is original:
                patch.entries.append((module, attr, original, wrapper))
    for (home, cls_name, attr), span in METHOD_SPANS.items():
        cls = getattr(modules[home], cls_name, None)
        original = cls.__dict__.get(attr) if cls is not None else None
        if original is None:
            missing.append(f"{home}.{cls_name}.{attr}")
            continue
        patch.entries.append((cls, attr, original, _wrap(tracer, original, span)))
    return patch, missing


# -- per-layer metrics ---------------------------------------------------

# span name -> which per-call statistics to report besides calls_per_op and
# self_share ("ms": median duration, "self_ms": median self time)
SPAN_STATS = {
    "dataset.read_csv": ("ms",),
    "dataset.validate": ("ms",),
    "dataset.resample": ("ms",),
    "dataset.build": ("self_ms",),
    "simulation.replicate": ("self_ms",),
    "simulation.generate": ("ms", "self_ms"),
    "estimators.wauc_vector": ("ms",),
    "covariance.sigma.quadrature": ("ms",),
    "covariance.sigma.placement": ("ms",),
    "covariance.sigma.atoms": ("ms",),
    "covariance.bootstrap": ("ms",),
    "cli": ("self_ms",),
}


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(spans, root: str, n_ops: int, rows: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced loop, plus per-class error detail.

    Self time is a span's duration minus the time its direct children
    cover; shares divide summed self time by summed op time.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations: dict[str, list[float]] = {}
    selfs: dict[str, list[float]] = {}
    inference_per_op: dict[int, float] = {}
    op_time = 0.0
    sigma_calls = sigma_errors = repaired = 0
    boot_draws = boot_redrawn = 0
    optimal_calls = fallbacks = 0
    error_classes: dict[str, int] = {}
    for idx, (name, start, end, parent, op, attrs) in enumerate(spans):
        duration = end - start
        self_time = duration - child_time[idx]
        durations.setdefault(name, []).append(duration)
        selfs.setdefault(name, []).append(self_time)
        attrs = attrs or {}
        if name == root and parent < 0:
            op_time += duration
            inference_per_op.setdefault(op, 0.0)
        if name == "inference":
            inference_per_op[op] = inference_per_op.get(op, 0.0) + self_time
            if attrs.get("optimal") and "error" not in attrs:
                optimal_calls += 1
                fallbacks += attrs["fell_back"]
        if name.startswith("covariance.sigma."):
            sigma_calls += 1
            repaired += bool(attrs.get("repaired"))
            if "error" in attrs:
                sigma_errors += 1
                error_classes[attrs["error"]] = error_classes.get(attrs["error"], 0) + 1
        if name == "covariance.bootstrap" and "n_boot" in attrs:
            boot_draws += attrs["n_boot"] + attrs["redrawn"]
            boot_redrawn += attrs["redrawn"]

    def share(name):
        return sum(selfs.get(name, ())) / op_time if op_time > 0 else 0.0

    metrics = {}
    for name, stats in SPAN_STATS.items():
        if "ms" in stats:
            metrics[f"{name}.ms"] = _median_ms(durations.get(name))
        if "self_ms" in stats:
            metrics[f"{name}.self_ms"] = _median_ms(selfs.get(name))
        if name not in ("simulation.replicate", "cli"):
            metrics[f"{name}.calls_per_op"] = len(durations.get(name, ())) / n_ops
        metrics[f"{name}.self_share"] = share(name)
    read_ms = metrics["dataset.read_csv.ms"]
    metrics["dataset.read_csv.rows_per_s"] = rows / (read_ms / 1e3) if read_ms > 0 else 0.0
    metrics["covariance.sigma.errors"] = sigma_errors / sigma_calls if sigma_calls else 0.0
    metrics["covariance.sigma.repaired_frac"] = repaired / sigma_calls if sigma_calls else 0.0
    metrics["covariance.bootstrap.redraw_frac"] = boot_redrawn / boot_draws if boot_draws else 0.0
    metrics["inference.ms"] = _median_ms(list(inference_per_op.values()))
    metrics["inference.calls_per_op"] = len(durations.get("inference", ())) / n_ops
    metrics["inference.self_share"] = share("inference")
    metrics["inference.optimal.fallback_frac"] = fallbacks / optimal_calls if optimal_calls else 0.0
    by_layer: dict[str, float] = {}
    for name in selfs:
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + share(name)
    detail = {
        "sigma_calls": sigma_calls,
        "sigma_errors_by_class": {k: v / sigma_calls for k, v in sorted(error_classes.items())},
        "self_share_by_span": {name: share(name) for name in sorted(selfs)},
        "inclusive_share_by_span": {name: sum(durations[name]) / op_time if op_time else 0.0
                                    for name in sorted(durations)},
        "self_share_by_layer": dict(sorted(by_layer.items())),
        "largest_self_share": max(selfs, key=share) if selfs else None,
    }
    return metrics, detail
