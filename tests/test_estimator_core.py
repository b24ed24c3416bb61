"""The estimator core against the per-kind path it replaced, the bound of
its rank rule, and the measures ``midrank`` applies to."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wroc.covariance import bootstrap_covariance, sigma_matrix
from wroc.dataset import MarkerDataset
from wroc.designs import StudyDesign
from wroc.estimators import (
    _rank,
    _threshold_rows,
    auc,
    empirical_roc,
    inverse_survival,
    pauc,
    sensitivity_at_fpr,
    survival,
    wauc,
    wauc_vector,
)
from wroc.inference import compare_modalities
from wroc.measures import WeightMeasure, parse_measure

from conftest import paired_dataset
from oracles import (
    _old_survival,
    old_auc,
    old_empirical_roc,
    old_inverse_survival,
    old_inverse_survival_many,
    old_pauc,
    old_sensitivity_at_fpr,
    old_wauc,
    old_wauc_vector,
)

# quantized values tie often; wide floats almost never
_values = st.one_of(st.integers(min_value=-4, max_value=4).map(lambda k: k / 2.0),
                    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
_rates = st.one_of(st.floats(min_value=0.001, max_value=1.0),
                   st.integers(min_value=1, max_value=20).map(lambda k: k / 20))


@st.composite
def clustered_datasets(draw):
    """Two groups with unequal clusters (0-3 replicates a cell, so some
    strata can be empty) over 1-2 markers and 1-3 times."""
    n_markers = draw(st.integers(min_value=1, max_value=2))
    n_times = draw(st.integers(min_value=1, max_value=3))

    def group(prefix):
        records = []
        for i in range(draw(st.integers(min_value=1, max_value=6))):
            cells = {}
            for marker in range(1, n_markers + 1):
                for time in range(1, n_times + 1):
                    size = draw(st.integers(min_value=0, max_value=3))
                    if size:
                        cells[(marker, time)] = tuple(draw(_values) for _ in range(size))
            records.append((f"{prefix}{i}", cells))
        return records

    return MarkerDataset(group("d"), group("h"), n_markers, n_times)


@st.composite
def measures(draw):
    lower, upper = sorted(draw(st.lists(_rates, min_size=2, max_size=2, unique=True)))
    lower = draw(st.sampled_from([0.0, lower]))
    atom = draw(st.floats(min_value=0.001, max_value=0.999))
    atoms = draw(st.lists(st.tuples(st.floats(min_value=0.001, max_value=0.999),
                                    st.floats(min_value=0.1, max_value=3.0)),
                          min_size=1, max_size=4))
    return [WeightMeasure.full_auc(),
            WeightMeasure.partial_auc(lower, upper),
            WeightMeasure.partial_auc(lower, upper, normalized=True),
            WeightMeasure.point_mass(atom),
            WeightMeasure.steps(atoms)]


def outcome(fn, *args, **kwargs):
    """The value as a list of floats, or the ValueError's message."""
    try:
        return ("value", np.asarray(fn(*args, **kwargs), dtype=float).tolist())
    except ValueError as exc:
        return ("error", str(exc))


@given(clustered_datasets(), measures(), _rates, st.lists(_rates, min_size=1, max_size=6))
@settings(deadline=None, max_examples=200)
def test_public_estimators_equal_the_per_kind_path(ds, kinds, u, grid):
    lower, upper = kinds[1].lower, kinds[1].upper
    for marker in range(1, ds.n_markers + 1):
        for time in (None, *range(1, ds.n_times + 1)):
            for midrank in (False, True):
                assert outcome(auc, ds, marker, time=time, midrank=midrank) == \
                    outcome(old_auc, ds, marker, time, midrank)
            assert outcome(pauc, ds, marker, lower, upper, time=time) == \
                outcome(old_pauc, ds, marker, lower, upper, time)
            assert outcome(sensitivity_at_fpr, ds, marker, u, time=time) == \
                outcome(old_sensitivity_at_fpr, ds, marker, u, time)
            for rates in (u, grid):
                assert outcome(empirical_roc, ds, marker, rates, time=time) == \
                    outcome(old_empirical_roc, ds, marker, rates, time)
            for group in ("diseased", "nondiseased"):
                stratum = ds.stratum(group, marker, time)
                if not stratum.n:
                    empty = f"no {group} measurements for marker {marker}"
                    for fn, arg in ((survival, 0.0), (inverse_survival, u)):
                        assert outcome(fn, ds, marker, arg, group=group, time=time) == \
                            ("error", empty)
                    continue
                points = np.concatenate(([-np.inf, np.inf], stratum.values,
                                         stratum.values + 0.25))
                for x in (*points[:3].tolist(), points):
                    got = survival(ds, marker, x, group=group, time=time)
                    want = _old_survival(stratum.sorted_values, x)
                    assert type(got) is type(want) and np.array_equal(got, want)
                got = inverse_survival(ds, marker, u, group=group, time=time)
                assert type(got) is float
                assert got == old_inverse_survival(stratum.sorted_values, u)
                assert np.array_equal(
                    inverse_survival(ds, marker, grid, group=group, time=time),
                    old_inverse_survival_many(stratum.sorted_values, grid))
            for measure in kinds:
                assert outcome(wauc, ds, marker, measure, time=time) == \
                    outcome(old_wauc, ds, marker, measure, time)
    designs = [None]
    if ds.n_markers == 2:
        designs += [StudyDesign.readers(1), StudyDesign.longitudinal(ds.n_times)]
    for design in designs:
        for measure in kinds:
            new = outcome(lambda: wauc_vector(ds, design, measure).values)
            assert new == outcome(lambda: old_wauc_vector(ds, design, measure)[0])
            if new[0] == "value":
                labels = wauc_vector(ds, design, measure).labels
                assert labels == old_wauc_vector(ds, design, measure)[1]


# -- the rank rule -------------------------------------------------------


@functools.cache
def _order_statistics():
    """Values 1..1e7: the k-th smallest is k, read-only and built once."""
    values = np.arange(1.0, 10**7 + 1.0)
    values.flags.writeable = False
    return values


@st.composite
def _sized_rates(draw):
    """(n, u, exact u) with u given to at most 6 decimals or as k / n."""
    n = draw(st.one_of(st.integers(min_value=1, max_value=10**7),
                       st.integers(min_value=10**7 - 1000, max_value=10**7)))
    kind = draw(st.sampled_from(["decimal", "fraction", "tight"]))
    if kind == "tight" and math.gcd(n, 10) == 1:
        # the 6-decimal rate whose exact (1 - u) * n lies 1e-6 above an
        # integer, the closest a rank boundary can come to the guard
        a = 10**6 - pow(n, -1, 10**6)
        return n, a / 10**6, Fraction(a, 10**6)
    if kind != "fraction":
        scale = 10 ** draw(st.integers(min_value=1, max_value=6))
        a = draw(st.integers(min_value=0, max_value=scale))
        return n, a / scale, Fraction(a, scale)
    k = draw(st.integers(min_value=0, max_value=n))
    return n, k / n, Fraction(k, n)


@given(_sized_rates())
@settings(deadline=None, max_examples=400)
def test_rank_rule_is_exact_up_to_ten_million(sized):
    n, u, exact = sized
    want = math.ceil((1 - exact) * n)
    assert int(_rank(u, n)) == want
    assert _rank([u, u], n).tolist() == [want, want]
    if u > 0.0:
        # the threshold inverse_survival reads is the max(rank, 1)-th smallest value
        ordered = _order_statistics()[:n]
        assert ordered[_threshold_rows(u, n)] == max(want, 1)
        assert ordered[_threshold_rows([u], n)][0] == max(want, 1)
        assert old_inverse_survival_many(ordered, [u])[0] == max(want, 1)


@given(_sized_rates(), st.integers(min_value=10**7 + 1, max_value=2**40))
@settings(deadline=None, max_examples=400)
def test_rank_rule_scalar_form_is_the_array_form(sized, too_many):
    """A float rate with an int size takes the pure-Python form; it gives
    the array form's rank, and both reject more than 1e7 values."""
    n, u, _ = sized
    scalar = _rank(u, n)
    assert type(scalar) is int
    assert scalar == int(_rank(np.array(u), n)) == _rank(np.array([u]), n)[0]
    with pytest.raises(ValueError, match="at most 10,000,000 values"):
        _rank(u, too_many)
    with pytest.raises(ValueError, match="at most 10,000,000 values"):
        _rank(np.array([u]), too_many)


# -- midrank -------------------------------------------------------------


@pytest.mark.parametrize("selector", ["sens:0.2", "steps:0.1=1,0.4=2"])
def test_midrank_is_rejected_for_atomic_measures(selector):
    rng = np.random.default_rng(3)
    ds = paired_dataset([rng.normal(1, 1, (12, 2)) for _ in range(2)],
                        [rng.normal(0, 1, (15, 2)) for _ in range(2)], n_times=2)
    design = StudyDesign.longitudinal(2)
    measure = parse_measure(selector)
    calls = [lambda: wauc(ds, 1, measure, midrank=True),
             lambda: wauc_vector(ds, design, measure, midrank=True),
             lambda: sigma_matrix(ds, design, measure, midrank=True),
             lambda: bootstrap_covariance(ds, design, measure, 100, seed=1, midrank=True),
             lambda: compare_modalities(ds, design, measure, midrank=True)]
    for call in calls:
        with pytest.raises(ValueError, match=f"midrank applies to auc and pauc measures, "
                                             f"not {selector}"):
            call()
