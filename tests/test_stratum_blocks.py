"""The pass over stratum blocks against the per-stratum loop it replaced
(the ``old_loop_*`` functions in ``oracles``), on designs whose strata
alternate between two sizes, so that each group's strata fall into two
blocks whose rows interleave in design order: estimates, placement parts,
quadrature parts and whole ``sigma_matrix`` estimates must be equal bit for
bit, and a failing study must raise what the first failing stratum in
design order raises."""

import numpy as np
import pytest

from wroc import covariance
from wroc.covariance import bootstrap_covariance, sigma_matrix
from wroc.designs import StudyDesign
from wroc.errors import DegenerateDensityError, WrocError
from wroc.estimators import _stratum_blocks, wauc_vector
from wroc.measures import parse_measure

from conftest import clustered_dataset
from oracles import (
    old_loop_integral_parts,
    old_loop_placement_parts,
    old_loop_sigma_matrix,
    old_loop_wauc_vector,
    old_stratum_pairs,
)

DESIGNS = [StudyDesign.longitudinal(2), StudyDesign.readers(2)]
RANK_SELECTORS = ["auc", "pauc:0,0.6", "pauc:0.1,0.4:normalized"]
GRID_SELECTORS = ["pauc:0,0.6", "pauc:0.1,0.4:normalized", "sens:0.3",
                  "steps:0.4=2,0.1=1,0.25=0.5"]


def _alternating_study(design, seed):
    """Values on a half grid (so they tie), four replicates a cell in the
    design's first, third, ... strata and one or two (the same for each of
    a subject's cells) in the others: strata of sizes
    a, b, a, b in design order in both groups, with unequal clusters."""
    rng = np.random.default_rng(seed)

    def group(n_subjects, shift):
        subjects = []
        for _ in range(n_subjects):
            cells = {}
            small = int(rng.integers(1, 3))
            for s, (marker, time) in enumerate(design.strata()):
                size = 4 if s % 2 == 0 else small
                cells[(marker, time or 1)] = tuple(np.round(2 * rng.normal(shift, 1.0, size)) / 2)
            subjects.append(cells)
        return subjects

    return group(12, 0.7), group(10, 0.0)


def _dataset(design, diseased, nondiseased):
    return clustered_dataset(diseased, nondiseased, n_markers=design.n_markers,
                             n_times=design.n_times)


def _outcome(call):
    try:
        return call()
    except (WrocError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_sigma_equals_the_loop(dataset, design, measure, midrank=False):
    """The whole estimate, both parts after the repair, bit for bit."""
    got = sigma_matrix(dataset, design, measure, midrank=midrank)
    want = old_loop_sigma_matrix(dataset, design, measure, midrank=midrank)
    for field in ("sigma", "sigma_diseased", "sigma_nondiseased"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert (got.method, got.repaired) == (want.method, want.repaired)


@pytest.mark.parametrize("seed", [5, 23])
@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.selector())
def test_alternating_sizes_make_two_interleaved_blocks(design, seed):
    dataset = _dataset(design, *_alternating_study(design, seed))
    blocks, _ = _stratum_blocks(dataset, design)
    assert [idx.tolist() for idx, *_ in blocks] == [[0, 2], [1, 3]]
    for idx, x, y, _ in blocks:
        assert x.values.shape == (2, x.n) and y.values.shape == (2, y.n)
    assert blocks[0][1].n == 48 and blocks[0][2].n == 40


@pytest.mark.parametrize("seed", [5, 23])
@pytest.mark.parametrize("midrank", [False, True], ids=["strict", "midrank"])
@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.selector())
def test_estimates_and_placement_parts_equal_the_loop(design, midrank, seed):
    dataset = _dataset(design, *_alternating_study(design, seed))
    for selector in RANK_SELECTORS:
        measure = parse_measure(selector)
        got = wauc_vector(dataset, design, measure, midrank=midrank)
        want = old_loop_wauc_vector(dataset, design, measure, midrank=midrank)
        assert got.values.tobytes() == want.values.tobytes(), selector
        assert got.labels == want.labels
    measure = parse_measure("auc")
    pairs, _ = old_stratum_pairs(dataset, design)
    blocks, labels = _stratum_blocks(dataset, design)
    got = covariance._walk(blocks, len(labels), measure, midrank)
    want = old_loop_placement_parts(pairs, measure, midrank)
    for part, part_want in zip(got, want):
        assert part.tobytes() == part_want.tobytes()
    _assert_sigma_equals_the_loop(dataset, design, measure, midrank)


@pytest.mark.parametrize("seed", [5, 23])
@pytest.mark.parametrize("selector", GRID_SELECTORS)
@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.selector())
def test_grid_estimates_and_quadrature_parts_equal_the_loop(design, selector, seed):
    dataset = _dataset(design, *_alternating_study(design, seed))
    measure = parse_measure(selector)
    got = wauc_vector(dataset, design, measure)
    want = old_loop_wauc_vector(dataset, design, measure)
    assert got.values.tobytes() == want.values.tobytes()
    pairs, _ = old_stratum_pairs(dataset, design)
    blocks, labels = _stratum_blocks(dataset, design)
    got = covariance._walk(blocks, len(labels), measure, False)
    want = old_loop_integral_parts(pairs, measure)
    for part, part_want in zip(got, want):
        assert part.tobytes() == part_want.tobytes()
    cov = sigma_matrix(dataset, design, measure)
    cov_want = old_loop_sigma_matrix(dataset, design, measure)
    assert cov.sigma.tobytes() == cov_want.sigma.tobytes()
    assert cov.repaired == cov_want.repaired
    _assert_sigma_equals_the_loop(dataset, design, measure)


# a stratum's values that leave no usable bandwidth: all equal, or so close
# (subnormal steps over more than 32 values) that the bandwidth underflows
ZERO_SPREAD = "sample has zero spread, no usable bandwidth"
UNDERFLOW = "non-positive bandwidth 0.0"


def _spoil(cells, stratum, design, underflow):
    marker, time = design.strata()[stratum]
    key = (marker, time or 1)
    size = len(cells[0][key])
    for i, subject in enumerate(cells):
        if underflow:
            subject[key] = tuple(5e-324 * ((i + r) % 2) for r in range(size))
        else:
            subject[key] = (3.0,) * size


# (stratum, group, underflow) spoiled, and the message of the first failing
# stratum in design order.  Strata 0 and 2 form the first block, processed
# first; strata 1 and 3 the second.
FAILURES = [
    ([(2, "diseased", True), (1, "nondiseased", False)], ZERO_SPREAD),
    ([(1, "nondiseased", False), (2, "diseased", True)], ZERO_SPREAD),
    ([(3, "diseased", False), (2, "nondiseased", True)], UNDERFLOW),
    ([(1, "diseased", False), (3, "nondiseased", False)], ZERO_SPREAD),
    ([(2, "nondiseased", False), (0, "nondiseased", True)], UNDERFLOW),
]


@pytest.mark.parametrize("spoiled, message", FAILURES)
@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.selector())
def test_first_failing_stratum_in_design_order_raises(design, spoiled, message):
    diseased, nondiseased = _alternating_study(design, 5)
    for stratum, group, underflow in spoiled:
        _spoil(diseased if group == "diseased" else nondiseased, stratum, design, underflow)
    dataset = _dataset(design, diseased, nondiseased)
    measure = parse_measure("pauc:0,0.6")
    pairs, _ = old_stratum_pairs(dataset, design)
    blocks, labels = _stratum_blocks(dataset, design)
    want = _outcome(lambda: old_loop_integral_parts(pairs, measure))
    assert want[1] == message
    assert _outcome(lambda: covariance._walk(blocks, len(labels), measure, False)) == want
    assert _outcome(lambda: sigma_matrix(dataset, design, measure)) == want


def _sized_study(design, seed, sizes):
    """Values on a half grid with ``sizes[s]`` replicates a cell in design
    stratum s, for every subject: strata of equal ``sizes`` form a block,
    one of its own size is a lone stratum."""
    rng = np.random.default_rng(seed)

    def group(n_subjects, shift):
        return [{(marker, time or 1): tuple(np.round(2 * rng.normal(shift, 1.0, size)) / 2)
                 for size, (marker, time) in zip(sizes, design.strata())}
                for _ in range(n_subjects)]

    return group(12, 0.7), group(10, 0.0)


# every stratum its own size; and one block of two between lone strata
SIZES = [(1, 2, 3, 4), (3, 2, 2, 1)]


@pytest.mark.parametrize("sizes", SIZES + ["alternating"], ids=str)
@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.selector())
def test_a_lone_stratum_is_the_one_dimensional_stratum(design, sizes):
    """A stratum of its own size comes as its 1-D arrays at an int
    position, and each row of a block's ``split()`` as 1-D views of the
    block's rows; every one equals what ``dataset.stratum`` gives.  The
    block of two in (3, 2, 2, 1) lies end to end in the sorted rows and is
    cut as a reshaped slice of them; the alternating study's interleaved
    blocks are gathered."""
    study = (_alternating_study(design, 5) if sizes == "alternating"
             else _sized_study(design, 5, sizes))
    dataset = _dataset(design, *study)
    blocks, _ = _stratum_blocks(dataset, design)
    lone = [idx for idx, *_ in blocks if np.ndim(idx) == 0]
    assert len(lone) == {(1, 2, 3, 4): 4, (3, 2, 2, 1): 2, "alternating": 0}[sizes]
    sliced = []
    for idx, x, y, _ in blocks:
        for block, group in ((x, "diseased"), (y, "nondiseased")):
            rows = block.split()
            assert len(rows) == np.size(idx)
            if np.ndim(idx) == 1:
                sliced.append(np.shares_memory(block.values, dataset._sorted[group][1]))
            for s, row in zip(np.atleast_1d(idx).tolist(), rows):
                assert row.values.ndim == 1 and row.counts.ndim == 1
                if np.ndim(idx) == 1:
                    for field in ("values", "subjects", "counts", "sorted_values"):
                        assert np.shares_memory(getattr(row, field), getattr(block, field))
                    assert np.shares_memory(row.bins, block.subjects)
                marker, time = design.strata()[s]
                alone = dataset.stratum(group, marker, time)
                for field in ("values", "subjects", "counts", "sorted_values", "bins"):
                    assert np.array_equal(getattr(row, field), getattr(alone, field))
    assert sliced == {(1, 2, 3, 4): [], (3, 2, 2, 1): [True, True],
                      "alternating": [False] * 4}[sizes]


@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.selector())
def test_the_bootstrap_reads_the_designs_blocks(design):
    """The bootstrap cuts a fresh dataset's strata once, as the design's
    blocks: the block cache then holds the design's key and no other."""
    dataset = _dataset(design, *_alternating_study(design, 5))
    bootstrap_covariance(dataset, design, parse_measure("pauc:0,0.6"), 100, 0)
    assert set(dataset._block_cache) == {tuple(design.strata())}


@pytest.mark.parametrize("sizes", SIZES, ids=str)
@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.selector())
def test_lone_strata_equal_the_loop(design, sizes):
    dataset = _dataset(design, *_sized_study(design, 23, sizes))
    pairs, _ = old_stratum_pairs(dataset, design)
    blocks, labels = _stratum_blocks(dataset, design)
    for midrank in (False, True):
        got = covariance._walk(blocks, len(labels), parse_measure("auc"), midrank)
        want = old_loop_placement_parts(pairs, parse_measure("auc"), midrank)
        for part, part_want in zip(got, want):
            assert part.tobytes() == part_want.tobytes()
        _assert_sigma_equals_the_loop(dataset, design, parse_measure("auc"), midrank)
    for selector in RANK_SELECTORS + GRID_SELECTORS:
        measure = parse_measure(selector)
        got = wauc_vector(dataset, design, measure)
        assert got.values.tobytes() == old_loop_wauc_vector(dataset, design, measure).values.tobytes()
        if measure.kind != "full":
            got = covariance._walk(blocks, len(labels), measure, False)
            for part, part_want in zip(got, old_loop_integral_parts(pairs, measure)):
                assert part.tobytes() == part_want.tobytes()
    for selector in GRID_SELECTORS:
        _assert_sigma_equals_the_loop(dataset, design, parse_measure(selector))


def test_a_block_error_no_stratum_repeats_is_raised(monkeypatch):
    """Should a block fail where none of its strata fails alone, the
    block's own error is raised, not a later one of the assembly."""
    design = DESIGNS[0]
    dataset = _dataset(design, *_alternating_study(design, 5))
    blocks, labels = _stratum_blocks(dataset, design)
    alone = covariance._integral_columns

    def block_fails(x, y, measure):
        if x.values.ndim == 2:
            raise DegenerateDensityError("only as a block")
        return alone(x, y, measure)

    monkeypatch.setattr(covariance, "_integral_columns", block_fails)
    with pytest.raises(DegenerateDensityError, match="^only as a block$"):
        covariance._walk(blocks, len(labels), parse_measure("pauc:0,0.6"), False)
