"""The one win count against the four forms it replaced (the ``old_*``
functions in ``oracles``): estimates, placement parts, bootstrap draws and
the semiparametric baseline AUC must be equal bit for bit, with and
without midrank, on clustered data with unequal clusters and ties."""

import numpy as np
import pytest

from wroc import covariance
from wroc.designs import StudyDesign
from wroc.estimators import _stratum_blocks, _stratum_wauc_draws, wauc_vector
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


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("midrank", [False, True], ids=["strict", "midrank"])
@pytest.mark.parametrize("selector", SELECTORS)
@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.selector())
def test_estimates_and_draws_equal_the_old_counts(design, selector, midrank, seed):
    dataset = _tied_dataset(design, seed)
    measure = parse_measure(selector)
    pairs, _ = old_stratum_pairs(dataset, design)
    got = wauc_vector(dataset, design, measure, midrank=midrank).values
    want = [old_stratum_wauc(x, y, measure, midrank) for x, y in pairs]
    assert [float(v).hex() for v in got] == [v.hex() for v in want]

    rng = np.random.default_rng(seed)
    n_draws = 60
    mult_x = np.stack([np.bincount(rng.integers(0, dataset.n_diseased, dataset.n_diseased),
                                   minlength=dataset.n_diseased) for _ in range(n_draws)])
    mult_y = np.stack([np.bincount(rng.integers(0, dataset.n_nondiseased, dataset.n_nondiseased),
                                   minlength=dataset.n_nondiseased) for _ in range(n_draws)])
    for x, y in pairs:
        draws = _stratum_wauc_draws(x, y, measure, midrank, mult_x, mult_y)
        assert np.array_equal(draws, old_stratum_wauc_draws(x, y, measure, midrank,
                                                            mult_x, mult_y))


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
