"""The bulk CSV reader against the row-by-row reader it replaced.

For every text, valid or not, ``read_dataset_csv`` must return the dataset
that ``oracles.old_read_dataset_csv`` returns, or raise the same
``DataFormatError`` message at the same line.  The texts cover both of the
reader's routes: plain ones (no quote, no whitespace but ``\\n``) that it
splits on ``\\n`` and ``,``, and padded, quoted, CRLF ones that go through
``csv.reader``.  Small block sizes make short texts span many blocks.
"""

import csv
import io
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wroc import dataset as dataset_module
from wroc.cli import main
from wroc.dataset import MarkerDataset, dataset_to_csv_text, read_dataset_csv
from wroc.errors import DataFormatError

from conftest import paired_dataset
from oracles import old_read_dataset_csv

HEADER = "subject_id,status,marker,time,replicate,value"
_COLUMNS = ("subject_ids", "subject", "marker", "time", "value")


def _outcome(read, source):
    """The dataset read, or the (message, line) of the DataFormatError."""
    try:
        return read(source)
    except DataFormatError as exc:
        return str(exc), exc.line


def assert_same_dataset(got, want):
    assert isinstance(got, MarkerDataset) and isinstance(want, MarkerDataset)
    assert (got.n_markers, got.n_times) == (want.n_markers, want.n_times)
    for group in ("diseased", "nondiseased"):
        for name in _COLUMNS:
            a = getattr(got._columns[group], name)
            b = getattr(want._columns[group], name)
            # bytes, so NaN values and -0.0 count too
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), \
                (group, name)
    if not any(np.isnan(cols.value).any() for cols in got._columns.values()):
        assert got == want


def assert_reads_as_oracle(text):
    want = _outcome(old_read_dataset_csv, io.StringIO(text, newline=""))
    for source in (io.StringIO(text), io.BytesIO(text.encode("utf-8"))):
        got = _outcome(read_dataset_csv, source)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_dataset(got, want)


# -- generated texts -----------------------------------------------------

_PLAIN_IDS = ("a", "b", "p01")
_IDS = _PLAIN_IDS + ("a,b", 'x"y', "m\nn", "é")
_INDEX_SPELLINGS = {1: ("1", "01", "+1"), 2: ("2", "0_2"), 3: ("3",), 10: ("10", "1_0")}
_VALUES = st.one_of(
    st.floats(allow_nan=False, width=64).map(repr),
    st.sampled_from(["nan", "-inf", "inf", "Infinity", "1_0.5", "1e3", "-0", ".5", "7"]),
)
_BAD_FIELDS = {
    "status": ("X", "d", "", "DD"),
    "index": ("a", "1.0", "", "0", "-1", "00"),
    "value": ("zz", "", "1..2", "1,5", "0x1p3"),
}


@st.composite
def csv_texts(draw):
    """Up to 14 valid rows and two malformed ones, shuffled.  A plain text
    writes its fields bare with LF line ends; a decorated one pads and quotes
    fields, may use CRLF and has whitespace-only blank lines."""
    decorated = draw(st.booleans())
    keys = draw(st.lists(
        st.tuples(st.sampled_from(_IDS if decorated else _PLAIN_IDS), st.sampled_from(("D", "ND")),
                  st.sampled_from((1, 2, 3, 10)), st.sampled_from((1, 2)),
                  st.sampled_from((1, 2, 3))),
        unique=True, max_size=14))
    rows = [[sid, status, draw(st.sampled_from(_INDEX_SPELLINGS[m])), str(t), str(r),
             draw(_VALUES)] for sid, status, m, t, r in keys]
    valid = list(rows)
    for _ in range(draw(st.integers(0, 2)) if valid else 0):   # malformed rows
        kind = draw(st.sampled_from(("count", "status", "index", "value", "duplicate")))
        row = list(draw(st.sampled_from(valid)))
        if kind == "count":
            row = draw(st.sampled_from([row[:k] for k in range(1, 6)] + [row + ["x"]]))
        elif kind == "status":
            row[1] = draw(st.sampled_from(_BAD_FIELDS["status"]))
        elif kind == "index":
            row[draw(st.integers(2, 4))] = draw(st.sampled_from(_BAD_FIELDS["index"]))
        elif kind == "value":
            row[5] = draw(st.sampled_from(_BAD_FIELDS["value"]))
        else:
            row[5] = draw(_VALUES)   # a duplicate replicate
        rows.append(row)
    rows = draw(st.permutations(rows))

    def field(text):
        if any(c in text for c in ',"\n') or (decorated and draw(st.booleans())):
            pad = draw(st.sampled_from(("", " ", "\t "))) if decorated else ""
            return '"' + pad + text.replace('"', '""') + pad + '"'
        if decorated:
            return draw(st.sampled_from(("", " ", "  "))) + text + draw(st.sampled_from(("", " ")))
        return text

    lines = [HEADER] + [",".join(field(f) for f in row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):   # blank lines
        blank = draw(st.sampled_from(("", " ", "\t"))) if decorated else ""
        lines.insert(draw(st.integers(1, len(lines))), blank)
    end = draw(st.sampled_from(("\n", "\r\n"))) if decorated else "\n"
    return end.join(lines) + draw(st.sampled_from((end, "")))


@given(csv_texts(), st.sampled_from([None, (1, 1), (12, 2), (60, 3)]))
@settings(deadline=None, max_examples=400)
def test_generated_texts_read_as_oracle(text, blocks):
    if blocks is None:
        assert_reads_as_oracle(text)
        return
    with mock.patch.object(dataset_module, "_BLOCK_CHARS", blocks[0]), \
            mock.patch.object(dataset_module, "_BLOCK_ROWS", blocks[1]):
        assert_reads_as_oracle(text)


@pytest.mark.parametrize("text", [
    "",
    "\n",
    HEADER,
    HEADER + "\n",
    HEADER + "\n\n \n",
    HEADER + "\r\n\r\n",
    " " + HEADER + " \nd1,D,1,1,1,1.0\nh1,ND,1,1,1,0.0\n",
    '"subject_id",status,marker,time,replicate,value\nd1,D,1,1,1,1.0\n',
    "subject_id,status,marker,time,replicate\nd1,D,1,1,1\n",
    HEADER + "\nd1,D,1,1,1,1.0\rh1,ND,1,1,1,0.0\r",
    HEADER + "\nd1,D,1,1,1,1.0\nd1,D,1,1,1,1.0\nd1,X,1,1,1,1.0\n",
    HEADER + "\nd1,D,1,1,1,1.0\nd1,ND,1,1,1,1.0\n",
    HEADER + "\nd1,D,1,1,1,1.0\nd1,D,1,1,1\nd1,D,1,1,2,x\n",
    HEADER + '\nd1,D,1,1,1,"1.0\n"\nd1,D,1,1,0,2.0\n',
    # 4 and 6 commas: twelve fields that, read in sixes, make two good rows
    HEADER + "\nd1,D,1,1,1\n2.0,h1,ND,1,1,1,0.5\nd2,D,1,1,1,1.0\n",
    HEADER + "\nd1,D,1,1,1,1.0\nh1,ND,1,1,1,0.0\n\n",
    HEADER + "\nd1,D,1,1,1,1.0\nh1,ND,1,1,1,0.0\n\n\n",
    # one subject_id under both statuses, and subjects whose rows interleave
    HEADER + "\ns1,D,1,1,1,1.0\ns1,ND,1,1,1,0.5\ns2,ND,1,1,1,0.2\ns1,D,1,1,2,2.0\n",
    HEADER + "\nd1,D,1,1,1,1.0\nd2,D,1,1,1,2.0\nh1,ND,1,1,1,0.0\nd1,D,2,1,1,3.0\n"
    "h1,ND,2,1,1,0.5\nd2,D,2,1,1,4.0\n",
])
def test_edge_texts_read_as_oracle(text):
    assert_reads_as_oracle(text)


_BLANK_TEXTS = [
    HEADER + "\nd1,D,1,1,1,1.0\n\nh1,ND,1,1,1,0.0\nd1,D,2,1,1,3.0\n\n\nh1,ND,2,1,1,0.5\n",
    HEADER + "\nd1,D,1,1,1,1.0\n\nh1,ND,1,1,1\n0.0,d1,D,2,1,1,3.0\n\nh1,ND,2,1,1,0.5\n",
]


@pytest.mark.parametrize("text", _BLANK_TEXTS, ids=["valid", "balanced-commas"])
def test_blank_lines_at_block_edges_read_as_oracle(text):
    blocks = []
    six_fields = dataset_module._six_fields

    def recording(lines):
        blocks.append(lines)
        return six_fields(lines)

    with mock.patch.object(dataset_module, "_six_fields", recording):
        for size in range(1, len(text)):
            with mock.patch.object(dataset_module, "_BLOCK_CHARS", size):
                assert_reads_as_oracle(text)
    # some block sizes start a block with a blank line, some end one with it
    assert any(b.startswith("\n") for b in blocks) and any(b.endswith("\n") for b in blocks)


def test_plain_text_never_reaches_the_csv_module(monkeypatch):
    def unreachable(text):
        raise AssertionError("a plain text went to csv.reader")

    monkeypatch.setattr(dataset_module, "_records", unreachable)
    text = _large_text()
    got = read_dataset_csv(io.StringIO(text))
    monkeypatch.undo()
    assert_same_dataset(got, old_read_dataset_csv(io.StringIO(text, newline="")))


def _large_text():
    rng = np.random.default_rng(5)
    ds = paired_dataset([rng.normal(1, 1, 3000), rng.normal(1, 1, 3000)],
                        [rng.normal(0, 1, 2500), rng.normal(0, 1, 2500)])
    return dataset_to_csv_text(ds)


def test_large_texts_span_blocks_and_read_as_oracle():
    text = _large_text()
    header, *rows = text.splitlines()
    padded = "\r\n".join([header] + [row.replace(",", " , ") for row in rows]) + "\r\n"
    for variant in (text, padded):
        assert_reads_as_oracle(variant)
    assert_same_dataset(read_dataset_csv(io.StringIO(padded)), read_dataset_csv(io.StringIO(text)))
    # one bad row late in the file, and a duplicate of the first row after it
    bad = rows[:9000] + [rows[9000].rsplit(",", 1)[0] + ",oops"] + rows[9001:] + rows[:1]
    assert_reads_as_oracle("\n".join([header] + bad) + "\n")
    assert_reads_as_oracle("\n".join([header] + rows + rows[4:5]) + "\n")


# -- the three named departures from the old reader --------------------------

CSV_OK = HEADER + "\nd1,D,1,1,1,2.5\nd2,D,1,1,1,3.0\nh1,ND,1,1,1,1.0\nh2,ND,1,1,1,1.5\n"


@pytest.mark.parametrize("source", [
    lambda: io.BytesIO(b"\xef\xbb\xbf" + CSV_OK.encode()),
    lambda: io.StringIO("\ufeff" + CSV_OK),
])
def test_leading_byte_order_mark_is_dropped(source):
    assert read_dataset_csv(source()) == read_dataset_csv(io.StringIO(CSV_OK))
    with pytest.raises(DataFormatError, match="bad header"):
        old_read_dataset_csv(io.StringIO("\ufeff" + CSV_OK))


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
def test_non_utf8_input_names_its_line(tmp_path, capsys, line_end):
    payload = CSV_OK.replace("\n", line_end).encode()
    payload = payload.replace(b"h1,ND,1,1,1,1.0", b"h\xe91,ND,1,1,1,1.0")
    with pytest.raises(DataFormatError) as err:
        read_dataset_csv(io.BytesIO(payload))
    assert err.value.line == 4
    assert "not UTF-8" in str(err.value)
    path = tmp_path / "latin1.csv"
    path.write_bytes(payload)
    with pytest.raises(DataFormatError):
        read_dataset_csv(path)
    assert main(["analyze", "--input", str(path)]) == 2
    assert "input error: line 4: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("column", [2, 3, 4])
def test_index_beyond_intp_names_its_line(tmp_path, capsys, column):
    big = str(np.iinfo(np.intp).max + 1)
    fields = "d1,D,1,1,1,2.5".split(",")
    fields[column] = big
    text = CSV_OK.replace("d1,D,1,1,1,2.5", ",".join(fields))
    with pytest.raises(DataFormatError) as err:
        read_dataset_csv(io.StringIO(text))
    assert err.value.line == 2
    assert "at most" in str(err.value)
    # the old reader let the conversion's OverflowError escape
    with pytest.raises(OverflowError):
        old_read_dataset_csv(io.StringIO(text))
    path = tmp_path / "big.csv"
    path.write_text(text.replace(big, "99999999999999999999"))
    assert main(["analyze", "--input", str(path)]) == 2
    assert "input error: line 2: marker, time and replicate must be at most" \
        in capsys.readouterr().err


def test_field_past_the_csv_limit_names_its_line(tmp_path, capsys):
    """A quoted field of more than 131,072 characters, the csv module's
    field size limit, is an input error of its own line, the header's too;
    an earlier bad row is still the one named, and the process-wide limit
    is left as it was.  Unquoted, the same file is the same error whether
    it takes the plain route (LF line ends) or the csv route (CRLF)."""
    limit = csv.field_size_limit()
    longest = '"' + "d" * limit + '"'
    rows = CSV_OK.split("\n")
    ok = "\n".join(rows[:2] + [rows[2].replace("d2", longest)] + rows[3:])
    assert read_dataset_csv(io.StringIO(ok)).diseased[1].subject_id == "d" * limit
    too_long = '"' + "d" * (limit + 1) + '"'
    on_line_3 = "\n".join(rows[:2] + [rows[2].replace("d2", too_long)] + rows[3:])
    past = "field larger than field limit"
    for text, line, message in [
            (on_line_3, 3, past),
            ("\n".join([rows[0].replace("subject_id", too_long)] + rows[1:]), 1, past),
            ("\n".join([rows[0], rows[1].replace(",D,", ",X,"),
                        rows[2].replace("d2", too_long)] + rows[3:]), 2, "status")]:
        with pytest.raises(DataFormatError, match=message) as err:
            read_dataset_csv(io.StringIO(text))
        assert err.value.line == line
    unquoted = on_line_3.replace(too_long, "d" * (limit + 1))
    errors = []
    for text in (unquoted, unquoted.replace("\n", "\r\n")):
        with pytest.raises(DataFormatError, match=past) as err:
            read_dataset_csv(io.StringIO(text))
        errors.append((err.value.line, str(err.value)))
    assert errors == [(3, f"line 3: {past} ({limit})")] * 2
    fits = unquoted.replace("d" * (limit + 1), "d" * limit)
    assert read_dataset_csv(io.StringIO(fits)) == read_dataset_csv(
        io.StringIO(fits.replace("\n", "\r\n")))
    assert csv.field_size_limit() == limit
    path = tmp_path / "long.csv"
    path.write_text(on_line_3)
    assert main(["analyze", "--input", str(path)]) == 2
    assert f"input error: line 3: field larger than field limit ({limit})" \
        in capsys.readouterr().err


def test_nul_byte_on_the_csv_route():
    """A NUL byte in a field is read as the bulk route reads it, except on
    Python 3.10, whose csv module rejects the line: an input error of that
    line."""
    text = CSV_OK.replace("h1,", "h\x001,").replace("\n", "\r\n")
    if sys.version_info < (3, 11):
        with pytest.raises(DataFormatError, match="NUL") as err:
            read_dataset_csv(io.StringIO(text))
        assert err.value.line == 4
    else:
        got = read_dataset_csv(io.StringIO(text))
        assert got == read_dataset_csv(io.StringIO(text.replace("\r\n", "\n")))
        assert got.nondiseased[0].subject_id == "h\x001"
