"""The one-pass quadrature and atoms covariance against the helper
composition it replaced (``oracles.old_integral_parts``): both parts and
the repair flag must be equal bit for bit, and errors must match."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wroc import covariance
from wroc.covariance import sigma_matrix
from wroc.designs import StudyDesign
from wroc.errors import WrocError
from wroc.estimators import _stratum_blocks
from wroc.measures import parse_measure
from wroc.simulation import (
    _build_plan,
    generate_dataset,
    replicate_rng,
    table3_scenario,
    table4_scenario,
)

from conftest import clustered_dataset
from oracles import (
    _old_bandwidth,
    old_integral_grid,
    old_integral_parts,
    old_integral_sigma,
    old_inverse_survival_many,
    old_stratum_pairs,
)

# the steps atoms are given out of order; the measure sorts them
MEASURES = [parse_measure(text) for text in
            ("pauc:0,0.6", "pauc:0,0.2", "sens:0.3", "steps:0.4=2,0.1=1,0.25=0.5")]
RAGGED_MEASURES = MEASURES + [parse_measure("pauc:0.1,0.4:normalized")]


def _outcome(call):
    """A call's result, or its error as (type, message)."""
    try:
        return call()
    except (WrocError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_matches_oracle(dataset, design, measure):
    want = _outcome(lambda: old_integral_sigma(dataset, design, measure))
    got = _outcome(lambda: sigma_matrix(dataset, design, measure))
    if isinstance(want[0], type):
        assert got == want
        return
    assert isinstance(got, covariance.CovarianceEstimate), got
    assert np.array_equal(got.sigma_diseased, want[0], equal_nan=True)
    assert np.array_equal(got.sigma_nondiseased, want[1], equal_nan=True)
    assert got.repaired == want[2]
    # and the parts before the PSD repair, which would blur a difference
    pairs, _ = old_stratum_pairs(dataset, design)
    blocks, labels = _stratum_blocks(dataset, design)
    raw = covariance._walk(blocks, len(labels), measure, False)
    raw_want = old_integral_parts(pairs, *old_integral_grid(measure))
    for part, part_want in zip(raw, raw_want):
        assert np.array_equal(part, part_want, equal_nan=True)


# -- the rank plan -------------------------------------------------------


def test_rank_plan_for_50_values_and_pauc_0_06_has_30_distinct_rows():
    measure = parse_measure("pauc:0,0.6")
    rows, distinct, inverse = covariance._rank_plan(measure, 50)
    assert rows.size == 64
    assert distinct.size == 30
    assert np.array_equal(distinct[inverse], rows)
    ordered = np.arange(50.0)
    nodes, _ = covariance._grid(measure)
    assert np.array_equal(ordered[rows], old_inverse_survival_many(ordered, nodes))
    # computed once per (measure, size) and shared read-only
    assert covariance._rank_plan(measure, 50)[0] is rows
    assert not (rows.flags.writeable or distinct.flags.writeable or inverse.flags.writeable)


@pytest.mark.parametrize("measure", RAGGED_MEASURES, ids=lambda m: m.selector())
def test_rank_plan_rows_are_each_listed_once(measure):
    """Repeats are found by comparing neighbours; that finds them all
    because the ranks never rise along the grid."""
    nodes, _ = covariance._grid(measure)
    for n in range(1, 301):
        rows, distinct, inverse = covariance._rank_plan(measure, n)
        assert np.array_equal(distinct[inverse], rows)
        assert np.unique(distinct).size == distinct.size
        assert np.array_equal(np.arange(n)[rows],
                              old_inverse_survival_many(np.arange(n), nodes))


# -- the parts, bit for bit ----------------------------------------------


@pytest.mark.parametrize("scenario", [table3_scenario(0.5, 50), table4_scenario(50, "normal"),
                                      table4_scenario(9, "lognormal")],
                         ids=lambda s: s.name)
def test_simulated_replicates_match_the_helper_composition(scenario):
    plan = _build_plan(scenario)
    for rep in range(20):
        dataset = generate_dataset(scenario, replicate_rng(scenario.seed, rep), plan)
        for measure in MEASURES:
            _assert_matches_oracle(dataset, scenario.design, measure)


@st.composite
def _ragged_studies(draw):
    """Two-marker studies with 0-3 values a cell on halves, so subjects miss
    strata, strata differ in size and thresholds repeat."""
    n_times = draw(st.integers(1, 2))

    def group(low, high):
        subjects = []
        for _ in range(draw(st.integers(2, 5))):
            cells = {}
            for marker in (1, 2):
                for time in range(1, n_times + 1):
                    halves = draw(st.lists(st.integers(low, high), max_size=3))
                    if halves:
                        cells[(marker, time)] = tuple(h / 2 for h in halves)
            subjects.append(cells)
        return subjects

    dataset = clustered_dataset(group(-2, 6), group(-4, 4), n_markers=2, n_times=n_times)
    design = draw(st.sampled_from([None, StudyDesign.readers(1),
                                   StudyDesign.longitudinal(n_times)]))
    return dataset, design


@given(_ragged_studies(), st.sampled_from(RAGGED_MEASURES))
@settings(deadline=None, max_examples=300)
def test_ragged_clustered_studies_match_the_helper_composition(study, measure):
    dataset, design = study
    _assert_matches_oracle(dataset, design, measure)


# -- the bandwidth, bit for bit ------------------------------------------


_values = st.one_of(st.floats(min_value=-1e6, max_value=1e6),
                    st.sampled_from([0.0, -0.0, 1.0, 1.5, 1e200, math.inf, math.nan]))


@given(hnp.arrays(float, st.one_of(st.integers(1, 600), st.tuples(st.integers(1, 30),
                                                                   st.integers(1, 30))),
                  elements=_values))
@settings(deadline=None, max_examples=300)
def test_bandwidth_is_the_std_formula_bitwise(values):
    """The sums that replace ``np.std(ddof=1)`` give its bits, over the sizes
    where numpy's pairwise summation changes its blocking, and in 2-D: all
    of the values as one row, and each row of a block of rows, where the
    block raises what its first failing row raises on its own."""
    def block_outcome(rows):
        got = _outcome(lambda: covariance._bandwidth(rows, np.sort(rows, axis=1)))
        return got if isinstance(got, tuple) else got.tolist()

    def rows_outcome(rows):
        hs = []
        for row in rows:
            h = _outcome(lambda: _old_bandwidth(row))
            if isinstance(h, tuple):
                return h
            hs.append(h)
        return hs

    with np.errstate(invalid="ignore", over="ignore"):
        got = block_outcome(values.reshape(1, -1))
        want = _outcome(lambda: _old_bandwidth(values))
        assert got == (want if isinstance(want, tuple) else [want])
        if values.ndim == 2:
            assert block_outcome(values) == rows_outcome(values)
