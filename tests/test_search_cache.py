"""The dataset's cached searches against a fresh search.

``wauc_vector`` and ``sigma_matrix`` read the wins of a block pair's
diseased values from one search per ``searchsorted`` side, kept in the
block pair's ``searches`` dict in the dataset's block cache.  Whatever
order the calls come in, each result must equal, byte for byte, the same
call on an uncached copy of the dataset, whose win counts search afresh
(``_wins`` without ``found``).
"""

import io
import itertools
import sys
import threading

import numpy as np
import pytest

from wroc import covariance, estimators, simulation
from wroc.covariance import sigma_matrix
from wroc.dataset import MarkerDataset, dataset_to_csv_text, read_dataset_csv
from wroc.designs import StudyDesign, parse_design
from wroc.estimators import wauc_vector
from wroc.measures import parse_measure

SELECTORS = ("auc", "pauc:0,0.6")


def _ragged_csv_dataset(seed):
    """Two markers over three times, one to three replicates a cell on a
    half grid (so values tie), read back from its CSV text."""
    rng = np.random.default_rng(seed)

    def group(n_subjects, shift, prefix):
        return [(f"{prefix}{i}", {(m, t): tuple(np.round(2 * rng.normal(shift, 1.0,
                                                                      rng.integers(1, 4))) / 2)
                                  for m in (1, 2) for t in (1, 2, 3)})
                for i in range(n_subjects)]

    dataset = MarkerDataset(group(8, 0.6, "d"), group(10, 0.0, "h"), n_markers=2, n_times=3)
    return read_dataset_csv(io.StringIO(dataset_to_csv_text(dataset)))


def _replicate(study, rep, **keys):
    _, scenario = simulation.study_scenario(study, reps=rep + 1, **keys)
    plan = simulation._build_plan(scenario)
    return simulation.generate_dataset(scenario, simulation.replicate_rng(scenario.seed, rep),
                                       plan), scenario.design


def _cases():
    for seed in (3, 17):
        dataset = _ragged_csv_dataset(seed)
        yield f"csv{seed}-longitudinal:3", dataset, StudyDesign.longitudinal(3)
        yield f"csv{seed}-pooled", dataset, None
    yield ("table3", *_replicate("table3", 2, rho=0.5, n=12))
    yield ("table4", *_replicate("table4", 2, family="normal", n=12))
    yield ("custom", *_replicate(
        "custom", 1, n=9, design=parse_design("longitudinal:3"), mu_diseased=(1.0, 0.5),
        mu_nondiseased=(0.0, 0.0), variances=(1.0, 2.0),
        cluster_sizes_diseased=(2, 4), cluster_sizes_nondiseased=(5, 3)))


CASES = list(_cases())


def _orders():
    """Every call of the two functions, two measures and both tie rules, in
    each order of the three choices: wauc or sigma first, midrank or strict
    first, pauc or auc first."""
    for funcs, ties, selectors in itertools.product(
            (("wauc", "sigma"), ("sigma", "wauc")), ((False, True), (True, False)),
            (SELECTORS, SELECTORS[::-1])):
        yield [(func, selector, midrank)
               for selector in selectors for midrank in ties for func in funcs]


def _call(dataset, design, func, selector, midrank):
    """The call's result as bytes and flags."""
    measure = parse_measure(selector)
    if func == "wauc":
        return wauc_vector(dataset, design, measure, midrank=midrank).values.tobytes()
    cov = sigma_matrix(dataset, design, measure, midrank=midrank)
    return (cov.sigma.tobytes(), cov.sigma_diseased.tobytes(), cov.sigma_nondiseased.tobytes(),
            cov.method, cov.repaired)


def _searches(dataset):
    """The ``searches`` dict of every block pair of the dataset's one
    cache entry, in block order."""
    ((blocks, _),) = dataset._block_cache.values()
    return [found for *_, found in blocks]


def _copy(dataset):
    """The dataset rebuilt from its columns: nothing cut, nothing searched."""
    return MarkerDataset(dataset._columns["diseased"], dataset._columns["nondiseased"],
                         dataset.n_markers, dataset.n_times)


@pytest.fixture
def fresh_search(monkeypatch):
    """Calls on a copy of the dataset, made with ``_wins`` searching every
    time: it drops ``found``."""
    wins = estimators._wins

    def searching(values, ordered, measure, midrank, below=None, found=None):
        return wins(values, ordered, measure, midrank, below)

    def oracle(dataset, design, func, selector, midrank):
        with monkeypatch.context() as patch:
            patch.setattr(estimators, "_wins", searching)
            patch.setattr(covariance, "_wins", searching)
            return _call(_copy(dataset), design, func, selector, midrank)

    return oracle


@pytest.mark.parametrize("order", list(_orders()), ids=lambda order: "-".join(
    f"{func}.{selector}.{'mid' if midrank else 'strict'}" for func, selector, midrank in order[:2]))
@pytest.mark.parametrize("name, dataset, design", CASES, ids=[case[0] for case in CASES])
def test_cached_search_equals_a_fresh_one(name, dataset, design, order, fresh_search):
    dataset = _copy(dataset)
    for call in order:
        assert _call(dataset, design, *call) == fresh_search(dataset, design, *call), call
    # both sides of every block were searched once and kept read-only
    for found in _searches(dataset):
        assert sorted(found) == ["left", "right"]
        assert not any(positions.flags.writeable for positions in found.values())


def test_threads_sharing_a_dataset_get_the_sequential_results():
    """Four threads, each making every call in its own order on the same
    fresh datasets and switching often, get the bytes of sequential calls
    on uncached copies; a search one thread left half made would show."""
    name, template, design = CASES[0]
    orders = list(_orders())[::2]
    for _ in range(5):
        dataset = _copy(template)
        want = {call: _call(_copy(template), design, *call) for call in orders[0]}
        got = [[] for _ in orders]

        def run(slot):
            for call in orders[slot]:
                got[slot].append((call, _call(dataset, design, *call)))

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(len(orders))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(results) == len(want) for results in got)
        for results in got:
            for call, result in results:
                assert result == want[call], (name, call)


def test_strict_calls_search_one_side():
    dataset, design = _replicate("table4", 0, family="normal", n=10)
    for selector in SELECTORS:
        wauc_vector(dataset, design, parse_measure(selector))
        sigma_matrix(dataset, design, parse_measure(selector))
    searches = _searches(dataset)
    assert [sorted(found) for found in searches] == [["left"]] * len(searches)


def test_replicates_of_one_template_search_their_own_values():
    _, scenario = simulation.study_scenario("table4", reps=2, family="normal", n=10)
    plan = simulation._build_plan(scenario)
    first, second = (simulation.generate_dataset(scenario, simulation.replicate_rng(1, rep), plan)
                     for rep in range(2))
    for dataset in (first, second):
        wauc_vector(dataset, scenario.design, parse_measure("auc"))
    assert _searches(plan.template) == [{}]
    ((strata, (blocks, _)),) = first._block_cache.items()
    ((*_, other),) = second._block_cache[strata][0]
    ((*_, found),) = blocks
    assert found["left"] is not other["left"]
    assert not np.array_equal(found["left"], other["left"])
    # a replicate cut after the first two were searched still starts with none
    third = simulation.generate_dataset(scenario, simulation.replicate_rng(1, 2), plan)
    assert _searches(third) == [{}]


@pytest.mark.parametrize("study, keys", [("table3", {"rho": 0.5}),
                                         ("table4", {"family": "normal"})])
def test_one_replicate_searches_five_times_and_checks_two_parts(study, keys, monkeypatch):
    """``wauc_vector`` and ``sigma_matrix`` for ``auc`` and ``pauc:0,0.6``:
    the full AUC's estimate and placements and the pAUC's estimate share one
    search, the placements' non-diseased side and the pAUC covariance's
    three make the rest; only the two quadrature parts are checked for a
    negative eigenvalue."""
    _, scenario = simulation.study_scenario(study, reps=2, **keys)
    plan = simulation._build_plan(scenario)
    simulation._simulate_one_rep(scenario, plan, 0)   # fills the per-measure caches
    calls = {"positions": 0, "eigvalsh": 0}

    def counted(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return call

    positions = counted("positions", estimators._positions)
    monkeypatch.setattr(estimators, "_positions", positions)
    monkeypatch.setattr(covariance, "_positions", positions)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    simulation._simulate_one_rep(scenario, plan, 1)
    assert calls == {"positions": 5, "eigvalsh": 2}
