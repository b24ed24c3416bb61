"""Dataset container, validation and CSV round-trips."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wroc.cli import main
from wroc.dataset import (
    MarkerDataset,
    SubjectRecord,
    dataset_to_csv_text,
    read_dataset_csv,
    validate,
    write_dataset_csv,
)
from wroc.errors import DataFormatError

from conftest import (
    assert_strata_equal,
    clustered_dataset,
    clustered_records,
    paired_dataset,
    paired_records,
    singles_dataset,
    singles_records,
)
from oracles import (
    record_csv_text,
    record_resample,
    record_strata,
    record_validate,
)

CSV_OK = """subject_id,status,marker,time,replicate,value
d1,D,1,1,1,2.5
d1,D,1,1,2,2.75
d2,D,1,1,1,3.0
h1,ND,1,1,1,1.0
h2,ND,1,1,1,1.5
"""


def test_read_basic():
    ds = read_dataset_csv(io.StringIO(CSV_OK))
    assert ds.n_diseased == 2
    assert ds.n_nondiseased == 2
    assert ds.n_markers == 1
    assert ds.n_times == 1
    assert ds.diseased[0].cells[(1, 1)] == (2.5, 2.75)
    assert validate(ds).ok


def test_round_trip_preserves_exact_floats(tmp_path):
    rng = np.random.default_rng(3)
    ds = paired_dataset([rng.normal(size=7), rng.normal(size=7)],
                        [rng.normal(size=9), rng.normal(size=9)])
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    assert back == ds   # repr() serialization keeps every bit


def test_round_trip_text_replicates():
    ds = clustered_dataset(
        [{(1, 1): (0.1, 0.2), (2, 1): (0.3,)}],
        [{(1, 1): (-1.0,), (2, 1): (0.0, 1.0 / 3.0)}],
        n_markers=2,
    )
    text = dataset_to_csv_text(ds)
    assert read_dataset_csv(io.StringIO(text)) == ds


@pytest.mark.parametrize("line_no,text", [
    (1, "wrong,header\n"),
    (2, "subject_id,status,marker,time,replicate,value\nd1,X,1,1,1,2.0\n"),
    (2, "subject_id,status,marker,time,replicate,value\nd1,D,0,1,1,2.0\n"),
    (2, "subject_id,status,marker,time,replicate,value\nd1,D,a,1,1,2.0\n"),
    (2, "subject_id,status,marker,time,replicate,value\nd1,D,1,1,1,zz\n"),
    (3, "subject_id,status,marker,time,replicate,value\nd1,D,1,1,1,2.0\nd1,D,1,1,1,3.0\n"),
    (2, "subject_id,status,marker,time,replicate,value\nd1,D,1,1\n"),
])
def test_read_errors_carry_line_numbers(line_no, text):
    with pytest.raises(DataFormatError) as err:
        read_dataset_csv(io.StringIO(text))
    assert err.value.line == line_no


def test_empty_file_and_header_only():
    with pytest.raises(DataFormatError):
        read_dataset_csv(io.StringIO(""))
    with pytest.raises(DataFormatError):
        read_dataset_csv(io.StringIO("subject_id,status,marker,time,replicate,value\n"))


def test_blank_lines_skipped():
    text = CSV_OK.replace("d2,D,1,1,1,3.0\n", "d2,D,1,1,1,3.0\n\n")
    ds = read_dataset_csv(io.StringIO(text))
    assert ds.n_diseased == 2


def test_validate_reports_issues():
    ds = clustered_dataset(
        [{(1, 1): (1.0,)}],
        [{(1, 1): (0.5,), (2, 1): (0.25,)}],   # marker 2 only on one side
        n_markers=2,
    )
    report = validate(ds)
    assert not report.ok
    messages = str(report)
    assert "empty cell" in messages

    nan_ds = clustered_dataset([{(1, 1): (math.nan,)}], [{(1, 1): (0.0,)}])
    assert any("non-finite" in str(i) for i in validate(nan_ds).issues)


def test_validate_empty_group():
    ds = MarkerDataset([("d1", {(1, 1): (1.0,)})], [], 1, 1)
    assert any("no non-diseased" in str(i) for i in validate(ds).issues)


def test_pooled_counts():
    # 2 diseased subjects x 3 replicates, 3 non-diseased x 2 replicates
    ds = clustered_dataset(
        [{(1, 1): (1.0, 2.0, 3.0)} for _ in range(2)],
        [{(1, 1): (0.0, 0.5)} for _ in range(3)],
    )
    assert (ds.stratum("diseased", 1).n, ds.stratum("nondiseased", 1).n) == (6, 6)


def test_pooled_counts_longitudinal():
    # counts pool over times as well
    d = [np.ones((5, 3)), np.ones((5, 3))]
    n = [np.zeros((4, 3)), np.zeros((4, 3))]
    ds = paired_dataset(d, n, n_times=3)
    for marker in (1, 2):
        assert (ds.stratum("diseased", marker).n, ds.stratum("nondiseased", marker).n) == (15, 12)


def test_stratum_views():
    ds = clustered_dataset(
        [{(1, 1): (3.0, 1.0)}, {(1, 1): (2.0,)}],
        [{(1, 1): (0.0,)}],
    )
    st = ds.stratum("diseased", 1)
    assert st.n == 3
    assert st.n_subjects == 2
    np.testing.assert_array_equal(st.counts, [2, 1])
    np.testing.assert_array_equal(st.sorted_values, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ds.stratum("sick", 1)
    with pytest.raises(ValueError):
        ds.stratum("diseased", 5)


def test_large_index_builds_no_strata_up_to_it():
    # strata are cut when first read, so a marker index of 200000 costs
    # nothing until a stratum is asked for
    text = ("subject_id,status,marker,time,replicate,value\n"
            "d1,D,200000,1,1,2.5\nh1,ND,1,1,1,0.5\n")
    tracemalloc.start()
    try:
        ds = read_dataset_csv(io.StringIO(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert ds.n_markers == 200000
    healthy = ds.stratum("nondiseased", 1)
    np.testing.assert_array_equal(healthy.values, [0.5])
    np.testing.assert_array_equal(healthy.counts, [1])
    np.testing.assert_array_equal(ds.stratum("diseased", 200000, 1).values, [2.5])
    assert ds.stratum("diseased", 1).n == 0


def test_marker_time_grid_beyond_intp_is_rejected(tmp_path, capsys):
    big = 1 << 32
    text = (f"subject_id,status,marker,time,replicate,value\n"
            f"d1,D,{big},{big},1,2.5\nh1,ND,1,1,1,0.5\n")
    with pytest.raises(ValueError, match="overflow"):
        read_dataset_csv(io.StringIO(text))
    path = tmp_path / "grid.csv"
    path.write_text(text)
    assert main(["analyze", "--input", str(path)]) == 2
    assert "input error:" in capsys.readouterr().err


def test_resample_positional():
    ds = singles_dataset([1.0, 2.0, 3.0], [0.0, 0.5])
    boot = ds.resample([0, 0, 2], [1, 1])
    assert boot.n_diseased == 3
    assert boot.diseased[0] == boot.diseased[1]
    assert boot.diseased[2].cells[(1, 1)] == (3.0,)
    assert boot.nondiseased[0].cells[(1, 1)] == (0.5,)


def test_resample_repeated_draws_clustered_longitudinal():
    # unequal clusters, one empty cell, subjects drawn twice and out of order
    ds = clustered_dataset(
        [{(1, 1): (1.0, 2.0), (1, 2): (3.0,)},
         {(1, 1): (4.0,), (1, 2): (5.0, 6.0, 7.0)},
         {(1, 1): (8.0,), (1, 2): ()}],
        [{(1, 1): (0.5,), (1, 2): (0.25, 0.75)},
         {(1, 1): (-1.0, -2.0, -3.0), (1, 2): (9.0,)}],
        n_markers=1, n_times=2,
    )
    boot = ds.resample([2, 0, 0, 1], [1, 1])
    assert [rec.subject_id for rec in boot.diseased] == ["d3", "d1", "d1", "d2"]
    first = boot.stratum("diseased", 1, 1)
    np.testing.assert_array_equal(first.values, [8.0, 1.0, 2.0, 1.0, 2.0, 4.0])
    np.testing.assert_array_equal(first.subjects, [0, 1, 1, 2, 2, 3])
    np.testing.assert_array_equal(first.counts, [1, 2, 2, 1])
    pooled = boot.stratum("diseased", 1)     # time-major
    np.testing.assert_array_equal(pooled.values,
                                  [8.0, 1.0, 2.0, 1.0, 2.0, 4.0, 3.0, 3.0, 5.0, 6.0, 7.0])
    np.testing.assert_array_equal(pooled.subjects, [0, 1, 1, 2, 2, 3, 1, 2, 3, 3, 3])
    np.testing.assert_array_equal(pooled.counts, [1, 3, 3, 4])
    np.testing.assert_array_equal(boot.stratum("nondiseased", 1).values,
                                  [-1.0, -2.0, -3.0, -1.0, -2.0, -3.0, 9.0, 9.0])
    np.testing.assert_array_equal(boot.stratum("nondiseased", 1, 2).counts, [1, 1])
    assert (1, 2) not in boot.diseased[0].cells
    assert [str(i) for i in validate(boot).issues] == [
        "diseased subject d3: empty cell (marker 1, time 2)"]


def test_validate_reports_out_of_range_indices():
    ds = clustered_dataset(
        [{(0, 1): (5.0,), (1, 1): (1.0,), (1, 2): (math.nan,), (3, 1): (2.0, 4.0)}],
        [{(1, 1): (0.0,)}],
        n_markers=1, n_times=1,
    )
    assert [str(issue) for issue in validate(ds).issues] == [
        "diseased subject d1: marker index 0 outside 1..1",
        "diseased subject d1: time index 2 outside 1..1",
        "diseased subject d1: non-finite value in cell (marker 1, time 2)",
        "diseased subject d1: marker index 3 outside 1..1",
    ]
    # strata hold only in-range cells; the CSV keeps every cell
    np.testing.assert_array_equal(ds.stratum("diseased", 1).values, [1.0])
    assert dataset_to_csv_text(ds).splitlines()[1:5] == [
        "d1,D,0,1,1,5.0", "d1,D,1,1,1,1.0", "d1,D,1,2,1,nan", "d1,D,3,1,1,2.0"]


def test_validate_reports_a_run_of_empty_cells_once():
    full = {(m, t): (0.0,) for m in (1, 2, 3) for t in (1, 2, 3)}
    ds = clustered_dataset(
        [{(1, 1): (1.0,), (2, 3): (2.0,), (3, 2): (0.5,)}, {}, full],
        [full], n_markers=3, n_times=3)
    assert [str(issue) for issue in validate(ds).issues] == [
        "diseased subject d1: empty cells (marker 1, time 2) to (marker 2, time 2)",
        "diseased subject d1: empty cell (marker 3, time 1)",
        "diseased subject d1: empty cell (marker 3, time 3)",
        "diseased subject d2: empty cells (marker 1, time 1) to (marker 3, time 3)",
    ]


def _sparse_csv(n_subjects: int) -> str:
    """One row at marker 1 per diseased subject and one non-diseased row at
    marker 200000: every subject misses almost every cell."""
    rows = [f"d{i},D,1,1,1,1.0" for i in range(n_subjects)] + ["h0,ND,200000,1,1,0.0"]
    return "subject_id,status,marker,time,replicate,value\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("n_subjects", [1, 100])
def test_validate_on_a_sparse_large_index_grows_with_the_rows(n_subjects):
    ds = read_dataset_csv(io.StringIO(_sparse_csv(n_subjects)))
    tracemalloc.start()
    try:
        report = validate(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a grid over every subject and cell would take 8 bytes a cell: 1.6 MB
    # a subject here
    assert peak < 512 * 1024, peak
    assert [str(issue) for issue in report.issues] == [
        f"diseased subject d{i}: empty cells (marker 2, time 1) to (marker 200000, time 1)"
        for i in range(n_subjects)
    ] + ["nondiseased subject h0: empty cells (marker 1, time 1) to (marker 199999, time 1)"]


def test_analyze_names_the_run_of_empty_cells(tmp_path, capsys):
    path = tmp_path / "sparse.csv"
    path.write_text(_sparse_csv(1))
    assert main(["analyze", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        "wroc: input error: invalid dataset: "
        "empty cells (marker 2, time 1) to (marker 200000, time 1)\n")


# -- the column-based dataset against the record-based path ---------------


def _records(group):
    return [rec if isinstance(rec, SubjectRecord) else SubjectRecord(*rec) for rec in group]


def assert_matches_record_path(diseased, nondiseased, n_markers, n_times):
    """Strata, CSV text and validation of the dataset built from records
    equal those the record-based path gives."""
    diseased, nondiseased = _records(diseased), _records(nondiseased)
    ds = MarkerDataset(diseased, nondiseased, n_markers, n_times)
    assert_strata_equal(ds, record_strata(diseased, nondiseased, n_markers, n_times))
    text = record_csv_text(diseased, nondiseased)
    assert dataset_to_csv_text(ds) == text
    assert [(i.message, i.group, i.subject_id) for i in validate(ds).issues] == \
        record_validate(diseased, nondiseased, n_markers, n_times)
    return ds, text


_rng = np.random.default_rng(11)
RECORD_FIXTURES = {
    "singles": (*singles_records([1.0, 2.0, 3.0], [0.0, 0.5]), 1, 1),
    "singles_ties": (*singles_records([1.0, 1.0, 0.5, 2.0], [1.0, 0.5, 0.5]), 1, 1),
    "paired": (*paired_records([_rng.normal(size=7), _rng.normal(size=7)],
                               [_rng.normal(size=9), _rng.normal(size=9)]), 2, 1),
    "longitudinal": (*paired_records([np.arange(15.0).reshape(5, 3), np.ones((5, 3))],
                                     [np.zeros((4, 3)), -np.arange(12.0).reshape(4, 3)],
                                     n_times=3), 2, 3),
    "clustered": (*clustered_records([{(1, 1): (0.1, 0.2), (2, 1): (0.3,)}],
                                     [{(1, 1): (-1.0,), (2, 1): (0.0, 1.0 / 3.0)}]), 2, 1),
    "empty_cells": (*clustered_records([{(1, 1): (1.0,)}, {(2, 1): (), (1, 1): (2.0, 3.0)}],
                                       [{(1, 1): (0.5,), (2, 1): (0.25,)}]), 2, 1),
    "csv_ok": ([("d1", {(1, 1): (2.5, 2.75)}), ("d2", {(1, 1): (3.0,)})],
               [("h1", {(1, 1): (1.0,)}), ("h2", {(1, 1): (1.5,)})], 1, 1),
}


@pytest.mark.parametrize("name", sorted(RECORD_FIXTURES))
def test_fixture_datasets_match_record_path(name):
    diseased, nondiseased, n_markers, n_times = RECORD_FIXTURES[name]
    _, text = assert_matches_record_path(diseased, nondiseased, n_markers, n_times)
    back = read_dataset_csv(io.StringIO(text))
    assert_strata_equal(back, record_strata(_records(diseased), _records(nondiseased),
                                             back.n_markers, back.n_times))
    assert dataset_to_csv_text(back) == text
    # rows of each subject in reverse order read back to the same dataset
    header, *rows = text.splitlines()
    by_subject: dict[tuple[str, str], list[str]] = {}
    for row in rows:
        by_subject.setdefault(tuple(row.split(",")[:2]), []).append(row)
    shuffled = [header] + [row for block in by_subject.values() for row in reversed(block)]
    assert read_dataset_csv(io.StringIO("\n".join(shuffled) + "\n")) == back


def test_csv_fixture_matches_record_path():
    diseased, nondiseased, n_markers, n_times = RECORD_FIXTURES["csv_ok"]
    ds = read_dataset_csv(io.StringIO(CSV_OK))
    assert_strata_equal(ds, record_strata(_records(diseased), _records(nondiseased),
                                           n_markers, n_times))
    assert dataset_to_csv_text(ds) == CSV_OK


_values = st.one_of(st.floats(min_value=-10, max_value=10, allow_nan=False),
                    st.integers(min_value=-3, max_value=3).map(lambda k: k / 2.0),
                    st.just(math.nan))


@st.composite
def record_sets(draw):
    """Two groups of records with unequal clusters, missing and empty cells,
    NaN values and the odd out-of-range cell; cells in (marker, time) order."""
    n_markers = draw(st.integers(min_value=1, max_value=3))
    n_times = draw(st.integers(min_value=1, max_value=3))

    def group(prefix):
        records = []
        for i in range(draw(st.integers(min_value=0, max_value=5))):
            cells = {}
            for marker in range(1, n_markers + 2):
                for time in range(1, n_times + 2):
                    inside = marker <= n_markers and time <= n_times
                    size = draw(st.integers(min_value=0 if inside else -4, max_value=3))
                    if size > 0 or (inside and size == 0 and draw(st.booleans())):
                        cells[(marker, time)] = tuple(draw(_values) for _ in range(size))
            records.append(SubjectRecord(f"{prefix}{i}", cells))
        return records

    return group("d"), group("h"), n_markers, n_times


def _view(records):
    return [(rec.subject_id, [(key, [repr(v) for v in values])
                              for key, values in sorted(rec.cells.items()) if values])
            for rec in records]


@given(record_sets(), st.data())
@settings(deadline=None, max_examples=150)
def test_random_record_sets_match_record_path(records, data):
    diseased, nondiseased, n_markers, n_times = records
    ds, _ = assert_matches_record_path(diseased, nondiseased, n_markers, n_times)
    assert _view(ds.diseased) == _view(diseased)
    assert _view(ds.nondiseased) == _view(nondiseased)
    draws = [data.draw(st.lists(st.integers(min_value=0, max_value=len(group) - 1),
                                max_size=7) if group else st.just([]))
             for group in (diseased, nondiseased)]
    boot = ds.resample(*draws)
    want_d = record_resample(diseased, draws[0])
    want_n = record_resample(nondiseased, draws[1])
    assert_strata_equal(boot, record_strata(want_d, want_n, n_markers, n_times))
    assert dataset_to_csv_text(boot) == record_csv_text(want_d, want_n)
    assert [(i.message, i.group, i.subject_id) for i in validate(boot).issues] == \
        record_validate(want_d, want_n, n_markers, n_times)
