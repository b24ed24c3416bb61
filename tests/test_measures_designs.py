"""Weight-measure grammar, design layout and the linear pair contrast."""

import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wroc.designs import StudyDesign, parse_design
from wroc.errors import DataFormatError
from wroc.inference import delta_h
from wroc.measures import WeightMeasure, parse_measure


# -- measures ------------------------------------------------------------


def test_measure_constructors_and_mass():
    assert WeightMeasure.full_auc().total_mass == 1.0
    assert WeightMeasure.partial_auc(0.1, 0.7).total_mass == pytest.approx(0.6)
    assert WeightMeasure.point_mass(0.3).total_mass == 1.0
    assert WeightMeasure.steps(((0.2, 0.25), (0.6, 0.5))).total_mass == 0.75


def test_measure_validation():
    with pytest.raises(ValueError):
        WeightMeasure.partial_auc(0.7, 0.1)
    with pytest.raises(ValueError):
        WeightMeasure.partial_auc(-0.1, 0.5)
    with pytest.raises(ValueError):
        WeightMeasure.point_mass(0.0)
    with pytest.raises(ValueError):
        WeightMeasure.steps(((0.5, -1.0),))
    with pytest.raises(ValueError):
        WeightMeasure.steps(())


@pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf])
def test_atom_mass_must_be_finite(mass):
    with pytest.raises(ValueError, match=f"atom mass {mass} must be positive and finite"):
        WeightMeasure.steps(((0.1, mass),))
    with pytest.raises(ValueError, match=f"atom mass {mass}"):
        WeightMeasure.steps(((0.1, 1.0), (0.3, mass)))


@pytest.mark.parametrize("text", ["steps:0.1=nan", "steps:0.1=inf,0.3=1",
                                  "steps:0.5=1e308,0.6=1e308"])
def test_parse_measure_rejects_non_finite_mass(text):
    with pytest.raises(DataFormatError,
                       match="atom mass (nan|inf) must be positive and finite"
                             "|atom masses sum to inf, which is not finite"):
        parse_measure(text)


def test_atoms_sorted_canonically():
    m = WeightMeasure.steps(((0.8, 0.1), (0.2, 0.3)))
    assert m.atoms == ((0.2, 0.3), (0.8, 0.1))


def test_selector_round_trip():
    cases = [
        WeightMeasure.full_auc(),
        WeightMeasure.partial_auc(0.0, 0.6),
        WeightMeasure.partial_auc(0.25, 0.75, normalized=True),
        WeightMeasure.point_mass(0.1),
        WeightMeasure.steps(((0.2, 0.5), (0.4, 0.5))),
    ]
    for measure in cases:
        assert parse_measure(measure.selector()) == measure


def test_selector_keeps_short_numbers_and_full_precision():
    assert WeightMeasure.full_auc().selector() == "auc"
    assert WeightMeasure.partial_auc(0.0, 0.6).selector() == "pauc:0,0.6"
    assert WeightMeasure.point_mass(0.2).selector() == "sens:0.2"
    assert parse_measure("pauc:0.1234567,0.6").selector() == "pauc:0.1234567,0.6"
    assert parse_measure("steps:0.1234567=1.0000001").selector() == "steps:0.1234567=1.0000001"


_RATE = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
# at most four atoms, so the total mass stays finite
_MASS = st.floats(min_value=0.0, max_value=sys.float_info.max / 4, exclude_min=True)


@st.composite
def _measures(draw):
    shape = draw(st.sampled_from(["full", "pauc", "sens", "steps"]))
    if shape == "full":
        return WeightMeasure.full_auc()
    if shape == "pauc":
        lower = draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
        upper = draw(st.floats(min_value=lower, max_value=1.0, exclude_min=True))
        return WeightMeasure.partial_auc(lower, upper, normalized=draw(st.booleans()))
    if shape == "sens":
        return WeightMeasure.point_mass(draw(_RATE))
    return WeightMeasure.steps(draw(st.lists(st.tuples(_RATE, _MASS), min_size=1, max_size=4)))


@given(_measures())
def test_selector_round_trips_any_measure(measure):
    assert parse_measure(measure.selector()) == measure


@pytest.mark.parametrize("fields, message", [
    (dict(kind="full", lower=0.2), "full measure takes no lower"),
    (dict(kind="full", normalized=True), "full measure takes no normalized"),
    (dict(kind="pauc", upper=0.5, atoms=((0.2, 1.0),)), "pauc measure takes no atoms"),
    (dict(kind="steps", atoms=((0.1, 1.0), (0.3, 3.0)), normalized=True),
     "steps measure takes no normalized"),
    (dict(kind="steps", atoms=((0.1, 1.0),), lower=0.05), "steps measure takes no lower"),
])
def test_each_kind_takes_only_its_fields(fields, message):
    with pytest.raises(ValueError, match=message):
        WeightMeasure(**fields)


# each field over its whole domain, valid or not for the kind it meets;
# a single unit atom is drawn often enough to make sens: measures
_FIELDS = {
    "lower": st.floats(min_value=0.0, max_value=1.0),
    "upper": st.floats(min_value=0.0, max_value=1.0),
    "atoms": st.one_of(st.tuples(st.tuples(_RATE, st.just(1.0))),
                       st.lists(st.tuples(_RATE, _MASS), min_size=1, max_size=3).map(tuple)),
    "normalized": st.booleans(),
}


@st.composite
def _constructor_calls(draw):
    kind = draw(st.sampled_from(["full", "pauc", "steps"]))
    names = draw(st.lists(st.sampled_from(sorted(_FIELDS)), max_size=2, unique=True))
    return kind, {name: draw(_FIELDS[name]) for name in names}


@given(_constructor_calls())
@settings(max_examples=300)
def test_every_accepted_measure_round_trips(call):
    """Whatever fields the constructor is given, a measure it accepts has
    one selector, and that selector reads back to it."""
    kind, fields = call
    try:
        measure = WeightMeasure(kind, **fields)
    except ValueError:
        return
    assert parse_measure(measure.selector()) == measure


def test_one_unit_atom_is_the_sens_measure():
    for text in ("steps:0.2=1", "sens:0.2"):
        measure = parse_measure(text)
        assert measure == WeightMeasure.point_mass(0.2)
        assert measure.kind == "steps"
        assert measure.selector() == "sens:0.2"
    # any other single atom stays a steps measure
    assert parse_measure("steps:0.2=2").selector() == "steps:0.2=2"


def test_point_is_no_measure_kind():
    with pytest.raises(ValueError, match="unknown weight measure kind: 'point'"):
        WeightMeasure(kind="point", atoms=((0.3, 1.0),))


def test_parse_measure_errors():
    for bad in ("", "aux", "pauc:0.5", "pauc:a,b", "sens:", "steps:0.5",
                "pauc:0.6,0.2", "sens:1.5", "sens:0.3:normalized",
                "steps:0.1=1,0.3=3:normalized"):
        with pytest.raises(DataFormatError):
            parse_measure(bad)


# -- designs -------------------------------------------------------------


def test_reader_design_layout():
    d = StudyDesign.readers(3)
    assert d.n_markers == 6
    assert d.n_pairs == 3
    assert len(d.strata()) == 6
    assert d.strata() == [(m, None) for m in range(1, 7)]
    assert d.labels()[0] == "reader1_modality1"
    assert d.labels()[3] == "reader1_modality2"


def test_longitudinal_design_layout():
    d = StudyDesign.longitudinal(4)
    assert d.n_markers == 2
    assert d.n_pairs == 4
    assert d.strata()[0] == (1, 1)
    assert d.strata()[4] == (2, 1)
    assert d.labels()[5] == "marker2_time2"


def test_contrast_matrix_pairs_halves():
    d = StudyDesign.readers(2)
    mat = d.contrast_matrix()
    assert mat.shape == (4, 2)
    omega = np.array([0.8, 0.7, 0.6, 0.9])
    np.testing.assert_allclose(mat.T @ omega, [0.2, -0.2])


@pytest.mark.parametrize("design", [StudyDesign.readers(3), StudyDesign.longitudinal(2)],
                         ids=lambda d: d.selector())
def test_design_constants_are_built_once_and_handed_out_as_copies(design):
    """The estimators read one read-only copy per design; a caller that
    writes to what ``strata()``, ``labels()`` or ``contrast_matrix()``
    returned leaves the next call unchanged."""
    strata, labels, mat = design.strata(), design.labels(), design.contrast_matrix()
    want = (list(strata), list(labels), mat.copy())
    strata.append((9, 9))
    strata[0] = (7, 7)
    labels.clear()
    mat[...] = 5.0
    mat.T[0, 0] = -3.0
    assert design.strata() == want[0] and design.labels() == want[1]
    assert design.contrast_matrix().tobytes() == want[2].tobytes()
    assert design.contrast_matrix().flags.writeable
    assert design._strata is design._strata and design._contrast is design._contrast
    assert not design._contrast.flags.writeable
    assert list(design._strata) == want[0] and list(design._labels) == want[1]
    assert design == type(design)(design.kind, design.n_pairs)
    copy = pickle.loads(pickle.dumps(design))
    assert copy == design and copy.contrast_matrix().tobytes() == want[2].tobytes()


def test_parse_design():
    assert parse_design("readers:5") == StudyDesign.readers(5)
    assert parse_design("longitudinal:3") == StudyDesign.longitudinal(3)
    for bad in ("readers:0", "longitudinal:2,3", "longitudinal:3,3", "grid:2", "readers:x"):
        with pytest.raises(DataFormatError):
            parse_design(bad)


def test_design_validation():
    with pytest.raises(ValueError):
        StudyDesign("mixed", 2)
    with pytest.raises(ValueError):
        StudyDesign("longitudinal", 0)


@pytest.mark.parametrize("n_pairs", [2.5, 2.0, True, np.float64(3.0), "2", None])
def test_design_needs_an_integer_pair_count(n_pairs):
    for build in (StudyDesign.readers, StudyDesign.longitudinal):
        with pytest.raises(ValueError, match="integer") as info:
            build(n_pairs)
        assert repr(n_pairs) in str(info.value)


def test_design_stores_numpy_integers_as_int():
    for n_pairs in (np.int64(3), np.int32(3), np.uint8(3), 3):
        design = StudyDesign.readers(n_pairs)
        assert type(design.n_pairs) is int
        assert design == StudyDesign.readers(3)
        assert design.n_markers == 6 and design.strata() == StudyDesign.readers(3).strata()
    with pytest.raises(ValueError, match=">= 1"):
        StudyDesign.longitudinal(np.int64(0))


def test_design_is_kind_and_pair_count():
    d = StudyDesign("readers", 3)
    assert d.n_markers == 6
    assert d.n_readers == 3
    assert d.n_times == 1
    assert d == StudyDesign.readers(3)
    assert StudyDesign("longitudinal", 4) == StudyDesign.longitudinal(4)
    for n in range(1, 5):
        for d in (StudyDesign.readers(n), StudyDesign.longitudinal(n)):
            assert parse_design(d.selector()) == d
    assert StudyDesign.readers(2).selector() == "readers:2"
    assert StudyDesign.longitudinal(3).selector() == "longitudinal:3"


# -- linear contrast -----------------------------------------------------


def test_linear_contrast():
    coefficients = np.array([1.0, -1.0])
    assert delta_h(np.array([0.9, 0.6]), coefficients) == pytest.approx(0.3)
    with pytest.raises(ValueError,
                       match="contrast length 2 does not match wAUC vector length 3"):
        delta_h(np.array([0.5, 0.5, 0.5]), coefficients)


def test_contrast_validation():
    with pytest.raises(ValueError, match="contrast length 0"):
        delta_h(np.array([0.9, 0.6]), np.array([]))
