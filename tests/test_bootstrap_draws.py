"""The bootstrap scored from per-subject multiplicities against the
per-draw loop it replaced, its vectorised draws against one Generator per
draw, and the bound of the rank rule."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wroc import covariance
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


@given(clustered_datasets(), measures(), st.integers(min_value=0, max_value=2**100), st.data())
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


# -- the draws against one Generator per draw ----------------------------


def per_draw(seed, rows, attempt, sizes):
    """Each row's ``integers(0, n, n)`` per group size from its own
    ``default_rng((seed, b, attempt))``, stacked per group."""
    draws = [np.empty((len(rows), n), dtype=np.int64) for n in sizes]
    for r, b in enumerate(rows):
        rng = np.random.default_rng((seed, int(b), attempt))
        for group, n in zip(draws, sizes):
            group[r] = rng.integers(0, n, n)
    return draws


def assert_same_draws(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 1, 10**23])
@pytest.mark.parametrize("attempt", [0, 1, 999])
@pytest.mark.parametrize("sizes", [(1, 1), (1, 6), (6, 1), (7, 199), (200, 201), (13, 4)])
def test_draws_equal_one_generator_per_draw(seed, attempt, sizes):
    """Seeds of one, two, three and more 32-bit words; a one-subject group
    takes no word, and an odd group leaves the next one half a word."""
    rows = np.array([0, 1, 2, 57, 199, 4096])
    assert_same_draws(covariance._bootstrap_draws(seed, rows, attempt, sizes),
                      per_draw(seed, rows, attempt, sizes))


def test_seed_words_equal_seed_sequence():
    from numpy.random import SeedSequence

    rows = np.arange(0, 3000, 7)
    for seed in (0, 5, 2**32 - 1, 2**32, 2**64 + 1, 10**23, 2**160 + 3):
        for attempt in (0, 1, 1000):
            got = covariance._stream_states(seed, rows, attempt)
            assert got.dtype == np.uint64 and got.shape == (rows.size, 4)
            want = [SeedSequence((seed, int(b), attempt)).generate_state(4, np.uint64)
                    for b in rows]
            assert np.array_equal(got, want), (seed, attempt)


def _rejects_a_word(seed, b, attempt, sizes):
    """Whether the stream of ``(seed, b, attempt)`` rejects a word while
    drawing ``sizes``: it then ends past the 32-bit words drawn (one a
    subject of a group of more than one), where a bare PCG64 advanced by
    half of them, rounded up, holds half a word more when they are odd."""
    from numpy.random import PCG64, SeedSequence

    rng = np.random.default_rng((seed, b, attempt))
    for n in sizes:
        rng.integers(0, n, n)
    words = sum(n for n in sizes if n > 1)
    bare = PCG64(SeedSequence((seed, b, attempt))).advance((words + 1) // 2)
    end = rng.bit_generator.state
    return (end["state"], end["has_uint32"]) != (bare.state["state"], words % 2)


def test_a_row_that_rejects_a_word_is_drawn_again(monkeypatch):
    """With 70,001 subjects, (2**32 - n) % n is 55,941, so about one word in
    77,000 is rejected: most rows of this group hold one."""
    sizes, seed, attempt = (70_001, 4), 11, 2
    rows = np.arange(6)
    redrawn = []
    stream_draws = covariance._stream_draws

    def counted(seed, b, attempt, sizes):
        redrawn.append(b)
        return stream_draws(seed, b, attempt, sizes)

    monkeypatch.setattr(covariance, "_stream_draws", counted)
    got = covariance._bootstrap_draws(seed, rows, attempt, sizes)
    assert_same_draws(got, per_draw(seed, rows, attempt, sizes))
    # exactly the rows that reject a word, and some do
    assert redrawn == [b for b in rows.tolist() if _rejects_a_word(seed, b, attempt, sizes)]
    assert 0 < len(redrawn) < rows.size



def test_the_rejection_zone_ends_below_numpy_threshold(monkeypatch):
    """Lemire's rule keeps a word whose ``u * n`` has a low half of
    ``(2**32 - n) % n`` and rejects one a unit below it.  No seed is known
    to give such words, so a stand-in generator serves them: one row of
    words at the threshold, one with a non-diseased word a unit below it
    and one with a diseased low half of 0."""
    sizes = (7, 11)
    thresholds = [(2**32 - n) % n for n in sizes]
    assert thresholds == [4, 4]

    def word(n, low):
        """The 32-bit word whose product with odd ``n`` has this low half."""
        return low * pow(n, -1, 2**32) % 2**32

    rows = []
    for diseased_low, nondiseased_low in ((4, 4), (4, 3), (0, 4)):
        words = [word(7, 4)] * 6 + [word(7, diseased_low)]
        words += [word(11, nondiseased_low)] + [word(11, 4)] * 10
        words.append(0)  # the unused high half of the last raw word
        rows.append([lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])])
    served = iter(rows)

    class StandIn:
        def __init__(self, state):
            self.raw = next(served)

        def random_raw(self, size):
            assert size == len(self.raw)
            return np.array(self.raw, dtype=np.uint64)

    redrawn = []

    def redraw(seed, b, attempt, sizes):
        redrawn.append(b)
        return [np.full(n, -1) for n in sizes]

    monkeypatch.setattr(covariance, "_pcg64_from_state", lambda: StandIn)
    monkeypatch.setattr(covariance, "_stream_draws", redraw)
    draws = covariance._bootstrap_draws(0, np.arange(3), 0, sizes)
    assert redrawn == [1, 2]
    kept = [[word(7, 4) * 7 >> 32] * 7, [word(11, 4) * 11 >> 32] * 11]
    assert draws[0][0].tolist() == kept[0] and draws[1][0].tolist() == kept[1]
    for group in draws:
        assert (group[1:] == -1).all()

# -- the rank rule's bound -------------------------------------------------


def test_rank_rule_rejects_more_than_ten_million_values():
    assert int(_rank(0.5, 10**7)) == 5 * 10**6
    assert _rank(0.25, np.array([4, 10**7])).tolist() == [3, 7_500_000]
    for n in (10**7 + 1, np.array([3, 10**7 + 1]), np.array([2**40])):
        with pytest.raises(ValueError, match="at most 10,000,000 values"):
            _rank(0.5, n)
