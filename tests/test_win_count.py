"""The one win count against the four forms it replaced (the ``old_*``
functions in ``oracles``): estimates, placement parts, bootstrap draws and
the semiparametric baseline AUC must be equal bit for bit, with and
without midrank, on clustered data with unequal clusters and ties.  The
draws kernel takes each draw as a column of multiplicities, the oracle as
a row: both get the same draws, each in its own layout."""

import numpy as np
import pytest

from wroc import covariance, estimators
from wroc.dataset import _make_stratum
from wroc.designs import StudyDesign
from wroc.estimators import _draw_work, _stratum_blocks, _stratum_wauc_draws, wauc_vector
from wroc.measures import parse_measure
from wroc.simulation import baseline_semiparametric_auc

from conftest import clustered_dataset
from oracles import (
    _old_count_pairs,
    old_placement_parts,
    old_stratum_pairs,
    old_stratum_wauc,
    old_stratum_wauc_draws,
)

DESIGNS = [StudyDesign.readers(2), StudyDesign.longitudinal(3)]
SELECTORS = ["auc", "pauc:0,0.6", "pauc:0.1,0.4:normalized"]
# windows whose edges fall on whole ranks of even draw sizes, and atoms
# (which take no midrank)
DRAW_MEASURES = [(selector, midrank)
                 for selector in SELECTORS + ["pauc:0.25,0.5", "pauc:0,0.5"]
                 for midrank in (False, True)]
DRAW_MEASURES += [("sens:0.5", False), ("steps:0.25=0.5,0.5=0.3,0.75=0.2", False)]


def _tied_dataset(design, seed):
    """Every subject has one to four values a cell, on a half grid, so the
    clusters are unequal and values tie within and across groups."""
    rng = np.random.default_rng(seed)
    cells = [(marker, time) for marker in range(1, design.n_markers + 1)
             for time in range(1, design.n_times + 1)]

    def group(n_subjects, shift):
        return [{cell: tuple(np.round(2 * rng.normal(shift, 1.0, int(rng.integers(1, 5)))) / 2)
                 for cell in cells}
                for _ in range(n_subjects)]

    return clustered_dataset(group(7, 0.7), group(9, 0.0),
                             n_markers=design.n_markers, n_times=design.n_times)


def _draws(rng, n_subjects, n_draws):
    """Per-subject multiplicities of ``n_draws`` resamples, a row each."""
    return np.stack([np.bincount(rng.integers(0, n_subjects, n_subjects), minlength=n_subjects)
                     for _ in range(n_draws)])


def assert_draws_equal_the_oracle(pairs, measure, midrank, mult_x, mult_y):
    """The kernel on columns of multiplicities, sharing one work buffer over
    the pairs, against the oracle on rows: bit for bit."""
    work = _draw_work(pairs, measure, midrank)
    columns_x, columns_y = np.ascontiguousarray(mult_x.T), np.ascontiguousarray(mult_y.T)
    for x, y in pairs:
        got = _stratum_wauc_draws(x, y, measure, midrank, columns_x, columns_y, work)
        want = old_stratum_wauc_draws(x, y, measure, midrank, mult_x, mult_y)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("midrank", [False, True], ids=["strict", "midrank"])
@pytest.mark.parametrize("selector", SELECTORS)
@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.selector())
def test_estimates_equal_the_old_counts(design, selector, midrank, seed):
    dataset = _tied_dataset(design, seed)
    measure = parse_measure(selector)
    pairs, _ = old_stratum_pairs(dataset, design)
    got = wauc_vector(dataset, design, measure, midrank=midrank).values
    want = [old_stratum_wauc(x, y, measure, midrank) for x, y in pairs]
    assert [float(v).hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("selector, midrank", DRAW_MEASURES)
@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.selector())
def test_draws_equal_the_old_kernel(monkeypatch, design, selector, midrank, seed):
    """137 draws in blocks of at most 20, so the last block is partial."""
    measure = parse_measure(selector)
    dataset = _tied_dataset(design, seed)
    pairs, _ = old_stratum_pairs(dataset, design)
    rng = np.random.default_rng(seed)
    n_draws = 137
    mult_x = _draws(rng, dataset.n_diseased, n_draws)
    mult_y = _draws(rng, dataset.n_nondiseased, n_draws)
    largest = max(sum(estimators._draw_rows(x, y, measure, midrank)) for x, y in pairs)
    # 8-byte entries for 10 draws of the largest pair: 20 draws of its
    # 4-byte counts a block, fewer for the others; never all 137
    monkeypatch.setattr(estimators, "_DRAW_BLOCK_ENTRIES", 10 * largest)
    assert_draws_equal_the_oracle(pairs, measure, midrank, mult_x, mult_y)


@pytest.mark.parametrize("selector, midrank", [("auc", False), ("auc", True),
                                               ("pauc:0,0.5", True), ("sens:0.5", False)])
def test_draws_whose_counts_pass_int32_equal_the_old_kernel(selector, midrank):
    """One diseased subject drawn 60,000 times against a drawn non-diseased
    stratum of 60,000 values: their products pass 2**31, so the counts run
    as int64 and stay exact."""
    assert 60_000 * 60_000 >= 2**31
    # subject 0's values lie above 5 and all 6 of the non-diseased ones
    x = _make_stratum(np.array([2.5, 3.5, 0.5, 1.0, 2.0]), np.array([0, 0, 1, 1, 2]), 3)
    y = _make_stratum(np.array([0.0, 1.0, 2.0, 3.0, 1.5, 0.75]), np.arange(6), 6)
    # rows are draws: the first is the heavy one, the others are small
    mult_x = np.array([[60_000, 2, 1], [0, 3, 0], [1, 1, 1]])
    mult_y = np.array([[10_000] * 6, [1, 0, 2, 0, 2, 1], [0, 0, 0, 0, 0, 6]])
    assert (mult_y @ y.counts)[0] == 60_000
    measure = parse_measure(selector)
    assert_draws_equal_the_oracle([(x, y)], measure, midrank, mult_x, mult_y)


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("midrank", [False, True], ids=["strict", "midrank"])
@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.selector())
def test_placement_parts_equal_the_old_placements(design, midrank, seed):
    dataset = _tied_dataset(design, seed)
    measure = parse_measure("auc")
    pairs, _ = old_stratum_pairs(dataset, design)
    blocks, labels = _stratum_blocks(dataset, design)
    got = covariance._walk(blocks, len(labels), measure, midrank)
    want = old_placement_parts(pairs, measure, midrank)
    for part, part_want in zip(got, want):
        assert np.array_equal(part, part_want)


@pytest.mark.parametrize("shift", [1.0, 0.2, -0.2, -1.0, 6.0])
def test_semiparametric_auc_counts_as_before(shift):
    """Forward or reversed by the fitted slope's sign; a separated fit
    falls back to the forward count."""
    rng = np.random.default_rng(11)
    x = np.round(2 * rng.normal(shift, 1.0, 40)) / 2
    y = np.round(2 * rng.normal(0.0, 1.0, 50)) / 2
    semi = baseline_semiparametric_auc(x, y)
    forward = _old_count_pairs(x, np.sort(y), False) / (x.size * y.size)
    reverse = _old_count_pairs(-x, np.sort(-y), False) / (x.size * y.size)
    want = reverse if semi.slope < 0.0 and semi.converged and not semi.separation else forward
    assert type(semi.auc) is float
    assert semi.auc.hex() == want.hex()
