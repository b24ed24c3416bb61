"""Importing wroc, running a comparison and computing a pAUC truth load no
scipy module.

The normal CDF, tail and quantile come from ``wroc._normal`` (the standard
library's ``erfc`` and ``NormalDist.inv_cdf``, see ``test_normal.py``) and
the density from ``scipy.stats.norm.pdf``'s own formula, so each function
that used ``scipy.stats.norm`` must agree with the old formulas kept in
``oracles`` to 1e-13 relative; only a subnormal result is held to an
absolute floor instead.  A pAUC truth comes from a fixed Gauss-Legendre
rule, where ``oracles.old_true_wauc`` calls ``scipy.integrate.quad`` with
``epsabs=1e-10``: the two are compared at that ``epsabs``, and the rule's
1e-13 bound is carried by exact identities in ``test_simulation.py``.
"""

import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special
from scipy.linalg import block_diag

from wroc.dataset import dataset_to_csv_text
from wroc.inference import z_test
from wroc.measures import parse_measure
from wroc.simulation import (
    _build_plan,
    baseline_parametric_auc,
    binormal_roc,
    compound_symmetry,
    table1_scenario,
    true_wauc,
)

from conftest import paired_dataset
from oracles import (
    old_baseline_parametric_auc,
    old_binormal_roc,
    old_true_wauc,
    old_z_test,
)

SRC = Path(__file__).resolve().parents[1] / "src"

_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

_COLD_IMPORT = f"""
import json, sys
import wroc, wroc.cli
loaded = {_SCIPY_MODULES}
polynomial = "numpy.polynomial" in sys.modules
random = sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'random'])
from wroc.measures import parse_measure
from wroc.simulation import true_wauc
value = true_wauc(parse_measure("pauc:0,0.6"), 1.0, 1.0, 0.0, 1.0)
code = wroc.cli.main(["simulate", "table3", "--n", "10", "--reps", "2",
                      "--output", sys.argv[1]])
print(json.dumps({{"scipy": loaded, "polynomial": polynomial, "random": random,
                  "pauc": value.hex(),
                  "code": code, "scipy_after": {_SCIPY_MODULES}}}))
"""

_COMPARE_RUN = f"""
import json, sys
from wroc.cli import main
codes = [main(["compare", "--input", sys.argv[1], "--design", "readers:2",
               "--measure", measure, "--output", sys.argv[2]])
         for measure in ("auc", "pauc:0,0.6", "sens:0.3")]
print(json.dumps({{"codes": codes, "scipy": {_SCIPY_MODULES}}}))
"""


RTOL = 1e-13
# the absolute error bound that oracles.old_true_wauc asks of quad
QUAD_EPSABS = 1e-10
SMALLEST_NORMAL = 2.2250738585072014e-308


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _close(got, want, rtol=RTOL) -> bool:
    """Within ``rtol`` of ``want`` relative, or within the smallest normal
    double of it where either value is subnormal."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    subnormal = np.minimum(np.abs(got), np.abs(want)) < SMALLEST_NORMAL
    with np.errstate(invalid="ignore"):  # an infinite rtol at a zero value
        bound = np.where(subnormal, SMALLEST_NORMAL, rtol * np.abs(want))
    return bool(np.all((np.abs(got - want) <= bound) | (got == want)))


def test_import_loads_no_heavy_scipy_module(tmp_path):
    out = subprocess.run([sys.executable, "-c", _COLD_IMPORT, str(tmp_path / "table3")],
                         capture_output=True, text=True, check=True, cwd=SRC, timeout=120)
    report = json.loads(out.stdout)
    assert report["scipy"] == []
    # the pAUC rule is built on first use, not at import
    assert not report["polynomial"]
    # and so is the bootstrap's PCG64 maker: importing wroc loads no numpy.random
    assert report["random"] == []
    # a pAUC truth and a table3 study, which computes pAUC truths, load no scipy
    assert report["code"] == 0
    assert report["scipy_after"] == []
    want = old_true_wauc(parse_measure("pauc:0,0.6"), 1.0, 1.0, 0.0, 1.0)
    assert abs(float.fromhex(report["pauc"]) - want) <= QUAD_EPSABS


def test_compare_run_loads_no_scipy_module(tmp_path):
    rng = np.random.default_rng(8)
    dataset = paired_dataset([rng.normal(1.0, 1.0, 30) for _ in range(4)],
                             [rng.normal(0.0, 1.0, 30) for _ in range(4)])
    path = tmp_path / "data.csv"
    path.write_text(dataset_to_csv_text(dataset), encoding="utf-8")
    out = subprocess.run([sys.executable, "-c", _COMPARE_RUN, str(path), str(tmp_path / "r.json")],
                         capture_output=True, text=True, check=True, cwd=SRC, timeout=120)
    report = json.loads(out.stdout)
    assert report == {"codes": [0, 0, 0], "scipy": []}


_ESTIMATES = [0.0, -0.0, 1e-300, 3e-4, -0.0123, 0.08, -0.5, 1.7, 6.0, -41.0, 1e6]
_VARIANCES = [1e-12, 2.5e-5, 1e-3, 0.04, 1.0, 7.3]
_ALPHAS = [1e-9, 0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 0.999]


def test_z_test_matches_scipy_stats():
    for estimate, variance, alpha in itertools.product(_ESTIMATES, _VARIANCES, _ALPHAS):
        got = z_test(estimate, variance, alpha=alpha)
        want = old_z_test(estimate, variance, alpha)
        assert got.z == want[0], (estimate, variance, alpha)
        assert _close([got.p_value, got.ci_lower, got.ci_upper], want[1:]), \
            (estimate, variance, alpha)


def test_binormal_roc_matches_scipy_stats():
    """Deep in the lower tail the relative condition number of Φ grows like
    ``t²`` at its argument ``t``, so a 1-ulp change of ``t`` (through Φ⁻¹)
    moves the result by about ``t² ε``; the bound there is the ``ndtr`` bound
    of ``test_normal.py``, ``4 (1 + t²) ε``, where that exceeds ``RTOL``."""
    rng = np.random.default_rng(11)
    rates = np.concatenate([[0.0, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, 1.0],
                            rng.uniform(size=2000), np.linspace(0.0, 1.0, 257)])
    for params in [(1.0, 1.0, 0.0, 1.0), (0.3, 2.0, -0.4, 0.5), (-1.0, 0.7, 2.0, 3.0)]:
        got = binormal_roc(rates, *params)
        assert isinstance(got, np.ndarray) and got.shape == rates.shape
        mu_x, sd_x, mu_y, sd_y = params
        t = (mu_x - mu_y + sd_y * special.ndtri(rates)) / sd_x
        rtol = np.maximum(RTOL, 4.0 * (1.0 + t * t) * np.finfo(float).eps)
        assert _close(got, old_binormal_roc(rates, *params), rtol), params
        assert _close(binormal_roc(0.37, *params), old_binormal_roc(0.37, *params)), params


@pytest.mark.parametrize("selector", ["auc", "pauc:0,0.6", "pauc:0.1,0.3",
                                      "pauc:0,0.6:normalized", "sens:0.2",
                                      "steps:0.1=0.5,0.4=0.25,0.8=0.25"])
def test_true_wauc_matches_scipy_stats(selector):
    """The pauc rows are held to the oracle's own ``epsabs``: on
    ``pauc:0,0.6`` ``quad`` is 1.9e-13 relative off a 40-digit reference at
    (0.5, √2, 0, 1) and 9.2e-13 at (2, 0.6, 1.5, 1.3), where the rule is
    within 2e-16."""
    measure = parse_measure(selector)
    for params in [(1.0, 1.0, 0.0, 1.0), (0.5, math.sqrt(2.0), 0.0, 1.0),
                   (2.0, 0.6, 1.5, 1.3), (0.0, 1.0, 0.0, 1.0)]:
        got, want = true_wauc(measure, *params), old_true_wauc(measure, *params)
        if measure.kind == "pauc":
            assert abs(got - want) <= QUAD_EPSABS, params
        else:
            assert _close(got, want), params


def test_baseline_parametric_auc_matches_scipy_stats():
    rng = np.random.default_rng(3)
    for shift in np.linspace(-12.0, 12.0, 4001):
        x = rng.normal(shift, rng.uniform(0.2, 3.0), rng.integers(2, 40))
        y = rng.normal(0.0, rng.uniform(0.2, 3.0), rng.integers(2, 40))
        assert _close(baseline_parametric_auc(x, y), old_baseline_parametric_auc(x, y)), shift


def test_modality_blocks_match_block_diag():
    scenario = table1_scenario(0.5, 20)
    assert scenario.correlation_scope == "modality"
    plan = _build_plan(scenario)
    rho = scenario.rho_diseased
    for half in plan.diseased.halves:
        cells = scenario.design.n_times * half.cluster_size
        var_row = np.repeat(np.asarray(scenario.variances, dtype=float), cells)
        split = scenario.design.n_pairs * cells
        cov = block_diag(compound_symmetry(var_row[:split], rho),
                         compound_symmetry(var_row[split:], rho))
        assert _bits(half.chol) == _bits(np.linalg.cholesky(cov))
