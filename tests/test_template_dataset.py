"""Replicate datasets built from their plan's template against the path
they replaced (``oracles.old_generate_dataset``, which builds every
replicate through ``MarkerDataset``).  The datasets, every block and
stratum cut from them and the replicate outputs must be equal bit for bit;
the template must come through its replicates unchanged, with what it
shares read-only."""

import numpy as np
import pytest

from wroc import simulation
from wroc.dataset import GroupColumns, MarkerDataset
from wroc.designs import StudyDesign
from wroc.estimators import _stratum_blocks, wauc_vector
from wroc.measures import parse_measure
from wroc.simulation import (
    _build_plan,
    _comparison_rep,
    _simulate_one_rep,
    generate_dataset,
    null_scenario,
    replicate_rng,
    study_scenario,
    table1_scenario,
    table2_scenario,
    table3_scenario,
    table4_scenario,
)

from oracles import old_generate_dataset

SCENARIOS = {
    "table1_normal": table1_scenario(0.5, 20, "normal"),
    "table1_lognormal": table1_scenario(0.2, 20, "lognormal"),
    "table2": table2_scenario(0.5, 20),
    "table3": table3_scenario(0.5, 20),
    "table4_normal": table4_scenario(12, "normal"),
    "table4_lognormal": table4_scenario(9, "lognormal"),
    "null": null_scenario(0.5, 20),
    # unequal group sizes and clusters of 2 then 4 and 5 then 3 replicates
    "custom": study_scenario(
        "custom", n=7, j=9, design=StudyDesign.longitudinal(2), mu_diseased=(1.0, 0.5),
        mu_nondiseased=(0.0, 0.0), variances=(1.0, 2.0), rho=0.3,
        cluster_sizes_diseased=(2, 4), cluster_sizes_nondiseased=(5, 3))[1],
}
READERS = [name for name, sc in SCENARIOS.items() if sc.design.kind == "readers"]
REPS = 20
FIELDS = ("values", "sorted_values", "subjects", "counts", "bins")
GROUPS = ("diseased", "nondiseased")


def _rng(scenario, rep):
    return replicate_rng(scenario.seed, rep)


def _assert_stratum_bits(got, want, where):
    for field in FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert (a.shape, a.dtype) == (b.shape, b.dtype), (where, field)
        assert a.tobytes() == b.tobytes(), (where, field)


def _assert_blocks_bits(got, want, where):
    assert len(got) == len(want), where
    for (idx, *pair, _), (want_idx, *want_pair, _) in zip(got, want):
        assert np.array_equal(idx, want_idx), where
        for group, stratum, want_stratum in zip(GROUPS, pair, want_pair):
            _assert_stratum_bits(stratum, want_stratum, (where, group, idx))


def _assert_cuts_equal(got, want, design):
    """The design's blocks, the pooled blocks and every single stratum."""
    for key in (design, None):
        _assert_blocks_bits(_stratum_blocks(got, key)[0], _stratum_blocks(want, key)[0], key)
    for group in GROUPS:
        for marker in range(1, got.n_markers + 1):
            for time in (None, *range(1, got.n_times + 1)):
                _assert_stratum_bits(got.stratum(group, marker, time),
                                     want.stratum(group, marker, time), (group, marker, time))


@pytest.mark.parametrize("pooled", [False, True], ids=["design", "pooled"])
@pytest.mark.parametrize("name", SCENARIOS)
def test_replicates_equal_the_old_path(name, pooled):
    scenario = SCENARIOS[name]
    plan = _build_plan(scenario, pooled)
    strata = tuple((m, None) for m in range(1, scenario.design.n_markers + 1)) if pooled \
        else tuple(scenario.design.strata())
    assert set(plan.template._block_cache) == {strata}
    for rep in range(REPS):
        got = generate_dataset(scenario, _rng(scenario, rep), plan)
        want = old_generate_dataset(scenario, _rng(scenario, rep), plan)
        assert got == want, rep
        assert set(got._block_cache) == {strata}
        _assert_cuts_equal(got, want, scenario.design)


@pytest.mark.parametrize("name", SCENARIOS)
def test_replicate_outputs_equal_the_old_path(name, monkeypatch):
    scenario = SCENARIOS[name]
    runs = []
    for generate in (generate_dataset,
                     lambda sc, rng, plan=None: old_generate_dataset(sc, rng, plan)):
        monkeypatch.setattr(simulation, "generate_dataset", generate)
        study, comparison = _build_plan(scenario), _build_plan(scenario, pooled=True)
        runs.append([(_simulate_one_rep(scenario, study, rep).tobytes(),
                      *_comparison_rep(scenario, comparison, rep)) for rep in range(REPS)])
    for rep, ((got, got_est, *got_rest), (want, want_est, *want_rest)) in enumerate(zip(*runs)):
        assert got == want, rep
        assert got_est.tobytes() == want_est.tobytes() and got_rest == want_rest, rep


def _template_arrays(template):
    arrays = {}
    for group in GROUPS:
        cols = template._columns[group]
        for field in ("subject_ids", "subject", "marker", "time", "value"):
            arrays[group, field] = getattr(cols, field)
        for i, array in enumerate(template._sorted[group]):
            arrays[group, "sorted", i] = array
    for strata, (blocks, cuts) in template._block_cache.items():
        for b, ((idx, x, y, _), cut) in enumerate(zip(blocks, cuts)):
            for group, stratum, (rows, _) in zip(GROUPS, (x, y), cut):
                for field in FIELDS:
                    arrays[strata, b, group, field] = getattr(stratum, field)
                if isinstance(rows, np.ndarray):
                    arrays[strata, b, group, "cut"] = rows
    return arrays


@pytest.mark.parametrize("name", SCENARIOS)
def test_the_template_is_unchanged_and_shares_only_read_only_arrays(name):
    scenario = SCENARIOS[name]
    plan = _build_plan(scenario)
    template = plan.template
    before = {key: array.copy() for key, array in _template_arrays(template).items()}
    for rep in range(REPS):
        _simulate_one_rep(scenario, plan, rep)
        dataset = generate_dataset(scenario, _rng(scenario, rep), plan)
        _assert_cuts_equal(dataset, old_generate_dataset(scenario, _rng(scenario, rep), plan),
                           scenario.design)
    after = _template_arrays(template)
    assert after.keys() == before.keys()
    for key, array in before.items():
        assert after[key].tobytes() == array.tobytes(), key
    shared = []
    for group in GROUPS:
        cols, template_cols = dataset._columns[group], template._columns[group]
        for field in ("subject_ids", "subject", "marker", "time"):
            assert getattr(cols, field) is getattr(template_cols, field)
            shared.append(getattr(cols, field))
        key, values, subjects, rows = dataset._sorted[group]
        assert key is template._sorted[group][0] and subjects is template._sorted[group][2]
        assert rows is template._sorted[group][3]
        shared += [key, subjects, rows]
        assert not np.shares_memory(values, template._sorted[group][1])
        assert not np.shares_memory(cols.value, template_cols.value)
    for (idx, *pair, found), (_, *template_pair, template_found) in zip(
            dataset._blocks(tuple(scenario.design.strata())),
            template._blocks(tuple(scenario.design.strata()))):
        for stratum, template_stratum in zip(pair, template_pair):
            for field in ("subjects", "counts", "bins"):
                assert getattr(stratum, field) is getattr(template_stratum, field)
                shared.append(getattr(stratum, field))
            assert not np.shares_memory(stratum.values, template_stratum.values)
            assert not np.shares_memory(stratum.sorted_values, template_stratum.sorted_values)
        assert found is not template_found
    for array in shared:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@pytest.mark.parametrize("name", READERS)
def test_reader_blocks_stay_views_of_the_sorted_values(name):
    """A reader design's strata lie end to end in the sort, so a revalued
    block is a reshaped view of the replicate's sorted values, as a
    freshly built dataset's is."""
    scenario = SCENARIOS[name]
    plan = _build_plan(scenario)
    dataset = generate_dataset(scenario, _rng(scenario, 0), plan)
    for idx, *pair in _stratum_blocks(dataset, scenario.design)[0]:
        assert np.ndim(idx) == 1
        for group, stratum in zip(GROUPS, pair):
            assert np.shares_memory(stratum.values, dataset._sorted[group][1])


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_replicate_shares_the_templates_cuts_but_not_its_searches(name):
    """Each replicate's cache entry holds the template's cuts and each
    group's gather index, read-only, beside block pairs of its own, whose
    searches start empty and stay its own; the template's stay unsearched."""
    scenario = SCENARIOS[name]
    plan = _build_plan(scenario)
    template_blocks, template_cuts = plan.template._block_cache[tuple(scenario.design.strata())]
    searches = []
    for rep in range(2):
        dataset = generate_dataset(scenario, _rng(scenario, rep), plan)
        blocks, cuts = dataset._block_cache[tuple(scenario.design.strata())]
        assert cuts is template_cuts
        gathered = [rows for cut in cuts for rows, _ in cut if isinstance(rows, np.ndarray)]
        for group in GROUPS:
            assert dataset._sorted[group][3] is plan.template._sorted[group][3]
            gathered.append(dataset._sorted[group][3])
        for rows in gathered:
            with pytest.raises(ValueError, match="read-only"):
                rows[...] = 0
        assert len(blocks) == len(template_blocks)
        for (*_, found), (*_, template_found) in zip(blocks, template_blocks):
            assert found == {} and found is not template_found
        wauc_vector(dataset, scenario.design, parse_measure("auc"))
        searches.append([found for *_, found in blocks])
    for first, second, (*_, template_found) in zip(*searches, template_blocks):
        assert sorted(first) == sorted(second) == ["left"]
        assert first["left"] is not second["left"]
        assert template_found == {}


def _interleaved_dataset(rng):
    """longitudinal:2 with 3 replicates a cell at time 1 and 1 or 2 at time
    2: strata (1, 1) and (2, 1) make one block and (1, 2) and (2, 2) the
    other, whose rows interleave in the sort, so both are gathered."""

    def group(prefix, n_subjects, shift):
        records = []
        for i in range(n_subjects):
            sizes = {1: 3, 2: int(rng.integers(1, 3))}
            records.append((f"{prefix}{i}", {
                (marker, time): tuple(np.round(2 * rng.normal(shift, 1.0, sizes[time])) / 2)
                for marker in (1, 2) for time in (1, 2)}))
        return records

    return MarkerDataset(group("d", 8, 0.7), group("h", 6, 0.0), n_markers=2, n_times=2)


def test_gathered_blocks_take_the_new_values():
    rng = np.random.default_rng(29)
    design = StudyDesign.longitudinal(2)
    template = _interleaved_dataset(rng)
    blocks, _ = _stratum_blocks(template, design)
    assert [idx.tolist() for idx, *_ in blocks] == [[0, 2], [1, 3]]
    assert all(isinstance(rows, np.ndarray)
               for _, cuts in template._block_cache.values() for cut in cuts for rows, _ in cut)
    for _ in range(3):
        values = [np.round(2 * rng.normal(size=template._columns[g].value.size)) / 2
                  for g in GROUPS]
        got = template._with_values(*values)
        assert got._block_cache.keys() == template._block_cache.keys()
        for key, (_, cuts) in template._block_cache.items():
            assert got._block_cache[key][1] is cuts
            for cut in cuts:
                for rows, _ in cut:
                    assert not rows.flags.writeable
        want = MarkerDataset(*(GroupColumns(*(getattr(template._columns[g], field) for field in
                                              ("subject_ids", "subject", "marker", "time")), v)
                               for g, v in zip(GROUPS, values)), n_markers=2, n_times=2)
        assert got == want
        _assert_cuts_equal(got, want, design)
