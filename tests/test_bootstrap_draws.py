"""The bootstrap scored from per-subject multiplicities against the
per-draw loop it replaced, and the bound of the rank rule."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wroc.covariance import bootstrap_covariance
from wroc.designs import StudyDesign
from wroc.errors import WrocError
from wroc.estimators import _rank
from wroc.measures import parse_measure

from conftest import clustered_dataset
from oracles import bootstrap_oracle
from test_estimator_core import clustered_datasets, measures


def bootstrap_outcome(fn, *args, **kwargs):
    """sigma's bytes, method and redraw count, or the error."""
    try:
        est = fn(*args, **kwargs)
    except (ValueError, WrocError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("value", est.sigma.shape, est.sigma.tobytes(), est.method, est.n_redrawn)


def _ragged_dataset():
    """Two markers at two times; values on a half grid (many ties), one to
    three replicates a cell, and a few subjects without marker 2 at time 2,
    so some draws leave that stratum empty."""
    rng = np.random.default_rng(41)

    def group(n_subjects, shift, n_missing):
        cells = []
        for i in range(n_subjects):
            subject = {}
            for marker in (1, 2):
                for time in (1, 2):
                    if marker == 2 and time == 2 and i >= n_missing:
                        continue
                    size = int(rng.integers(1, 4))
                    subject[(marker, time)] = tuple(
                        np.round(2 * rng.normal(shift, 1.0, size)) / 2)
            cells.append(subject)
        return cells

    return clustered_dataset(group(9, 1.0, 2), group(8, 0.0, 3), n_markers=2, n_times=2)


# midrank applies to auc and pauc measures only
_MEASURES = [("auc", False), ("auc", True), ("pauc:0.1,0.7", False), ("pauc:0.1,0.7", True),
             ("pauc:0,0.6:normalized", False), ("pauc:0,0.6:normalized", True),
             ("sens:0.3", False), ("steps:0.2=0.5,0.5=0.3", False)]


@pytest.mark.parametrize("design", [None, StudyDesign.readers(1), StudyDesign.longitudinal(2)],
                         ids=["pooled", "readers", "longitudinal"])
@pytest.mark.parametrize("selector, midrank", _MEASURES)
def test_bootstrap_equals_the_per_draw_loop(selector, midrank, design):
    measure = parse_measure(selector)
    ds = _ragged_dataset()
    got = bootstrap_outcome(bootstrap_covariance, ds, design, measure, 100, 7, midrank=midrank)
    assert got == bootstrap_outcome(bootstrap_oracle, ds, design, measure, 100, 7,
                                    midrank=midrank)
    assert got[0] == "value"
    if design is not None and design.kind == "longitudinal":
        # the per-time strata of marker 2 at time 2 miss some subjects
        assert got[-1] > 0


@given(clustered_datasets(), measures(), st.integers(min_value=0, max_value=2**32 - 1),
       st.data())
@settings(deadline=None, max_examples=60)
def test_bootstrap_equals_the_per_draw_loop_on_random_datasets(ds, kinds, seed, data):
    measure = data.draw(st.sampled_from(kinds))
    midrank = not measure.is_atomic and data.draw(st.booleans())
    designs = [None]
    if ds.n_markers == 2:
        designs += [StudyDesign.readers(1), StudyDesign.longitudinal(ds.n_times)]
    design = data.draw(st.sampled_from(designs))
    assert bootstrap_outcome(bootstrap_covariance, ds, design, measure, 100, seed,
                             midrank=midrank) == \
        bootstrap_outcome(bootstrap_oracle, ds, design, measure, 100, seed, midrank=midrank)


def test_bootstrap_scores_draws_in_blocks(monkeypatch):
    ds = _ragged_dataset()
    design = StudyDesign.longitudinal(2)
    measure = parse_measure("pauc:0.1,0.7")
    # a few entries a block: one draw at a time
    monkeypatch.setattr("wroc.estimators._DRAW_BLOCK_ENTRIES", 7)
    assert bootstrap_outcome(bootstrap_covariance, ds, design, measure, 100, 3,
                             midrank=True) == \
        bootstrap_outcome(bootstrap_oracle, ds, design, measure, 100, 3, midrank=True)


# -- the rank rule's bound -------------------------------------------------


def test_rank_rule_rejects_more_than_ten_million_values():
    assert int(_rank(0.5, 10**7)) == 5 * 10**6
    assert _rank(0.25, np.array([4, 10**7])).tolist() == [3, 7_500_000]
    for n in (10**7 + 1, np.array([3, 10**7 + 1]), np.array([2**40])):
        with pytest.raises(ValueError, match="at most 10,000,000 values"):
            _rank(0.5, n)
