"""Clustered two-group marker data and its CSV serialization.

A dataset holds two groups of subjects (diseased and non-diseased).  Every
subject carries, for each marker ``l`` in ``1..n_markers`` and each time ``k``
in ``1..n_times``, one or more replicate measurements.  Replicates from the
same subject are the cluster structure that the covariance estimators must
respect; subjects are assumed independent.

Each group is stored as columns (:class:`GroupColumns`): one row per
measurement, in canonical order (subject, marker, time, replicate).
:class:`SubjectRecord` is only the edge type: the constructor accepts
records, and ``dataset.diseased`` / ``dataset.nondiseased`` derive them back.

Datasets are logically immutable.  Construction sorts each group's rows
once by (marker, time); a stratum, or a block of equal-size strata stacked
one row each, is cut from that sort when first read.  One cache entry per
set of strata holds its block pairs and where each was cut, and each block
pair carries the win count's searches of it (where each diseased value
falls among the sorted non-diseased values), made on first read, so the
estimate and the covariance of one dataset search a pair once.  Two
threads can at worst build a block or make a search twice, and workers get
copies.  A dataset of the same layout with other values shares the cuts
but not the values or the searches (``MarkerDataset._with_values``): the
simulator keeps one template dataset per scenario, and each replicate
fills in only its values, gathered and sorted along the template's cuts.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import DataFormatError

CSV_HEADER = ["subject_id", "status", "marker", "time", "replicate", "value"]
_STATUSES = frozenset({"D", "ND"})
_GROUPS = ("diseased", "nondiseased")


@dataclass(frozen=True)
class SubjectRecord:
    """One subject: an id plus replicate values per (marker, time) cell."""

    subject_id: str
    cells: dict[tuple[int, int], tuple[float, ...]]

    def __post_init__(self):
        normalized = {}
        for key, values in self.cells.items():
            marker, time = int(key[0]), int(key[1])
            normalized[(marker, time)] = tuple(float(v) for v in values)
        object.__setattr__(self, "cells", normalized)
        object.__setattr__(self, "subject_id", str(self.subject_id))


@dataclass(frozen=True, eq=False)
class GroupColumns:
    """One group's measurements, one row each, in canonical order
    (subject, marker, time, replicate).

    ``subject`` is the 0-based row of ``subject_ids``; a subject may own no
    rows.  Marker and time indices are kept as given, in range or not.
    """

    subject_ids: np.ndarray
    subject: np.ndarray
    marker: np.ndarray
    time: np.ndarray
    value: np.ndarray

    @classmethod
    def from_records(cls, records) -> "GroupColumns":
        """Columns of :class:`SubjectRecord` objects or ``(id, cells)``
        tuples; replicates keep their order within a cell."""
        ids: list[str] = []
        keys: list[tuple[int, int, int]] = []   # (subject, marker, time) per row
        values: list[float] = []
        for idx, rec in enumerate(records):
            rec = rec if isinstance(rec, SubjectRecord) else SubjectRecord(*rec)
            ids.append(rec.subject_id)
            for (marker, time), cell in rec.cells.items():
                keys.extend([(idx, marker, time)] * len(cell))
                values.extend(cell)
        subject, marker, time = np.array(keys, dtype=np.intp).reshape(-1, 3).T
        # lexsort is stable, so replicates keep their order within a cell
        order = np.lexsort((time, marker, subject))
        return cls(np.asarray(ids, dtype=str), subject[order], marker[order], time[order],
                   np.asarray(values, dtype=float)[order])

    @property
    def n_subjects(self) -> int:
        return int(self.subject_ids.size)

    def cell_starts(self) -> np.ndarray:
        """First row of every (subject, marker, time) cell."""
        change = ((self.subject[1:] != self.subject[:-1])
                  | (self.marker[1:] != self.marker[:-1])
                  | (self.time[1:] != self.time[:-1]))
        return np.flatnonzero(np.concatenate(([self.subject.size > 0], change)))

    def gather(self, idx) -> "GroupColumns":
        """Columns of the subjects at positions ``idx``, repeats allowed."""
        idx = np.asarray(idx)
        if idx.size == 0:
            idx = idx.astype(np.intp)
        sizes = np.bincount(self.subject, minlength=self.n_subjects)
        first = np.cumsum(sizes) - sizes
        lengths = sizes[idx]
        offsets = np.cumsum(lengths) - lengths
        rows = np.repeat(first[idx] - offsets, lengths) + np.arange(int(lengths.sum()))
        return GroupColumns(self.subject_ids[idx], np.repeat(np.arange(idx.size), lengths),
                            self.marker[rows], self.time[rows], self.value[rows])

    def records(self) -> tuple[SubjectRecord, ...]:
        cells: list[dict] = [{} for _ in range(self.n_subjects)]
        for subject, marker, time, value in zip(self.subject.tolist(), self.marker.tolist(),
                                                self.time.tolist(), self.value.tolist()):
            cells[subject].setdefault((marker, time), []).append(value)
        return tuple(SubjectRecord(sid, c) for sid, c in zip(self.subject_ids.tolist(), cells))


@dataclass(frozen=True)
class ValidationIssue:
    message: str
    group: str | None = None
    subject_id: str | None = None

    def __str__(self) -> str:
        where = []
        if self.group:
            where.append(self.group)
        if self.subject_id is not None:
            where.append(f"subject {self.subject_id}")
        prefix = " ".join(where)
        return f"{prefix}: {self.message}" if prefix else self.message


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        if self.ok:
            return "dataset valid"
        return "\n".join(str(issue) for issue in self.issues)


@dataclass(frozen=True)
class Stratum:
    """Pooled measurements of one group for one (marker, times) slice, or a
    block: several slices of one size, stacked one row each.

    The last axis runs over a stratum's values: ``values`` and ``subjects``
    are ``(n,)`` for one stratum and ``(k, n)`` for a block of k.
    ``values`` keeps subject order, ``subjects`` maps each value to its
    0-based subject row, ``counts`` (``(n_subjects,)`` or ``(k,
    n_subjects)``) gives per-subject cluster sizes within the stratum, and
    ``sorted_values`` sorts each stratum's values for the empirical survival
    curve.  ``bins`` numbers each value's (row, subject) cell, ``row *
    n_subjects + subject`` (``subjects`` itself for one stratum), so one
    ``bincount`` over it sums per subject in every stratum at once.
    """

    values: np.ndarray
    subjects: np.ndarray
    counts: np.ndarray
    sorted_values: np.ndarray
    bins: np.ndarray

    @functools.cached_property
    def n(self) -> int:
        return int(self.values.shape[-1])

    @functools.cached_property
    def n_subjects(self) -> int:
        return int(self.counts.shape[-1])

    def split(self) -> list["Stratum"]:
        """A block's strata one at a time, as 1-D views of its rows (its
        ``bins`` row is the ``subjects`` row); one stratum is itself."""
        if self.values.ndim == 1:
            return [self]
        return [Stratum(values, subjects, counts, ordered, subjects)
                for values, subjects, counts, ordered
                in zip(self.values, self.subjects, self.counts, self.sorted_values)]


class MarkerDataset:
    """Logically immutable container for a two-group clustered marker study.

    Each group is given as :class:`GroupColumns` or as an iterable of
    :class:`SubjectRecord` objects or ``(id, cells)`` tuples.  Strata are
    cut and cached on first read by ``_blocks``, through which
    :meth:`stratum` reads a single stratum.
    """

    def __init__(self, diseased, nondiseased, n_markers: int, n_times: int = 1):
        if n_markers < 1 or n_times < 1:
            raise ValueError("n_markers and n_times must be at least 1")
        self._columns: dict[str, GroupColumns] = {
            group: cols if isinstance(cols, GroupColumns) else GroupColumns.from_records(cols)
            for group, cols in zip(_GROUPS, (diseased, nondiseased))
        }
        self.n_markers = int(n_markers)
        self.n_times = int(n_times)
        if self.n_markers * self.n_times > _MAX_INDEX:
            raise ValueError(f"{n_markers} markers x {n_times} times overflow the stratum key")
        # per group, the in-range rows in one stable sort on the (marker, time)
        # key: subject-then-replicate order within a stratum, each marker's
        # rows time-major.  Each holds the sorted keys, values and subject
        # rows and the gather index of the sort into the group's columns
        self._sorted: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        for group, cols in self._columns.items():
            inside = ((cols.marker >= 1) & (cols.marker <= self.n_markers)
                      & (cols.time >= 1) & (cols.time <= self.n_times))
            key = ((cols.marker - 1) * self.n_times + cols.time - 1)[inside]
            order = np.argsort(key, kind="stable")
            rows = np.flatnonzero(inside)[order]
            self._sorted[group] = (key[order], cols.value[rows], cols.subject[rows], rows)
        # per strata key, its block pairs and the cut of each (see _blocks)
        self._block_cache: dict[tuple, tuple[tuple, tuple]] = {}

    # -- accessors -------------------------------------------------------

    @property
    def diseased(self) -> tuple[SubjectRecord, ...]:
        """Diseased subjects as records, derived from the columns."""
        return self._columns["diseased"].records()

    @property
    def nondiseased(self) -> tuple[SubjectRecord, ...]:
        """Non-diseased subjects as records, derived from the columns."""
        return self._columns["nondiseased"].records()

    @property
    def n_diseased(self) -> int:
        return self._columns["diseased"].n_subjects

    @property
    def n_nondiseased(self) -> int:
        return self._columns["nondiseased"].n_subjects

    def stratum(self, group: str, marker: int, time: int | None = None) -> Stratum:
        """One group's 1-D :class:`Stratum` of ``marker`` at ``time``, or
        pooled over the marker's times when ``time`` is None; it may be
        empty.  Unknown groups and out-of-range indices raise
        ``ValueError``."""
        if group not in _GROUPS:
            raise ValueError(f"group must be 'diseased' or 'nondiseased', got {group!r}")
        ((_, x, y, _),) = self._blocks(((marker, time),))
        return (x, y)[_GROUPS.index(group)]

    def _key_range(self, marker: int, time: int | None) -> tuple[int, int]:
        """The (marker, time) keys ``[first, last)`` of one stratum; time None
        pools the marker's times."""
        if not 1 <= marker <= self.n_markers:
            raise ValueError(f"marker {marker} outside 1..{self.n_markers}")
        if time is not None and not 1 <= time <= self.n_times:
            raise ValueError(f"time {time} outside 1..{self.n_times}")
        first, last = (1, self.n_times) if time is None else (time, time)
        base = (marker - 1) * self.n_times
        return base + first - 1, base + last

    def _blocks(self, strata: tuple[tuple[int, int | None], ...]):
        """The strata, given as (marker, time) pairs, as
        ``(positions, diseased, non-diseased, searches)`` block pairs: one
        pair of :class:`Stratum` for each set of strata whose diseased sizes
        and non-diseased sizes are both equal, in order of first appearance.
        A set of one is a single stratum and its position in ``strata`` an
        int; more make a block, with the positions of its strata as an
        array.  Strata may be empty.  ``searches`` is the dict in which the
        win count (``estimators._wins``) keeps its searches of the pair, by
        ``searchsorted`` side, each made on first read; every block pair
        starts with none.  Cached per ``strata``, one entry holding the
        block pairs and the cut of each (see :func:`_cut`)."""
        entry = self._block_cache.get(strata)
        if entry is None:
            keys = np.array([self._key_range(marker, time) for marker, time in strata])
            starts, sizes = {}, []
            for group in _GROUPS:
                lo, hi = self._sorted[group][0].searchsorted(keys).T.tolist()
                starts[group] = lo
                sizes.append([b - a for a, b in zip(lo, hi)])
            members: dict[tuple[int, int], list[int]] = {}
            for s, size in enumerate(zip(*sizes)):
                members.setdefault(size, []).append(s)
            blocks, cuts = [], []
            for size, positions in members.items():
                cut = tuple(_cut([starts[group][s] for s in positions], n)
                            for group, n in zip(_GROUPS, size))
                blocks.append((positions[0] if len(positions) == 1 else np.array(positions),
                               *(self._block(group, rows) for group, rows in zip(_GROUPS, cut)),
                               {}))
                cuts.append(cut)
            entry = self._block_cache[strata] = (tuple(blocks), tuple(cuts))
        return entry[0]

    def _block(self, group: str, cut: tuple) -> Stratum:
        """One group's strata at ``cut`` (see :func:`_cut`) in the key-sorted rows."""
        _, values, subjects, _ = self._sorted[group]
        rows, shape = cut
        return _make_stratum(values[rows].reshape(shape), subjects[rows].reshape(shape),
                             self._columns[group].n_subjects)

    def _with_values(self, diseased: np.ndarray, nondiseased: np.ndarray) -> "MarkerDataset":
        """A dataset of this one's layout with new value columns, one per
        group in its canonical row order.

        It shares this dataset's columns bar the values, the gather index of
        its sort and the cuts of its cached blocks.  Each group's values are
        gathered into the sort's order, and every block cached here is cut
        from them where it was cut here and sorted; its ``subjects``,
        ``counts`` and ``bins`` are shared.  What is shared is made
        read-only.  Strata not cached here are cut when first read, as on
        any dataset.  No search is shared: each new block pair starts with
        empty searches, made when first read.
        """
        new = MarkerDataset.__new__(MarkerDataset)
        new.n_markers, new.n_times = self.n_markers, self.n_times
        new._columns, new._sorted = {}, {}
        for group, value in zip(_GROUPS, (diseased, nondiseased)):
            cols = self._columns[group]
            key, _, subjects, rows = self._sorted[group]
            _read_only(cols.subject_ids, cols.subject, cols.marker, cols.time, key, subjects, rows)
            new._columns[group] = GroupColumns(cols.subject_ids, cols.subject, cols.marker,
                                               cols.time, value)
            new._sorted[group] = (key, value[rows], subjects, rows)
        new._block_cache = {
            strata: (tuple((idx, new._revalued("diseased", cut_x, x),
                            new._revalued("nondiseased", cut_y, y), {})
                           for (idx, x, y, _), (cut_x, cut_y) in zip(blocks, cuts)), cuts)
            for strata, (blocks, cuts) in self._block_cache.items()}
        return new

    def _revalued(self, group: str, cut: tuple, stratum: Stratum) -> Stratum:
        """``stratum``, cut at ``cut`` from another dataset of this layout,
        with this dataset's values."""
        rows, shape = cut
        values = self._sorted[group][1][rows].reshape(shape)
        _read_only(stratum.subjects, stratum.counts, stratum.bins)
        return Stratum(values, stratum.subjects, stratum.counts, np.sort(values, axis=-1),
                       stratum.bins)

    def resample(self, diseased_idx, nondiseased_idx) -> "MarkerDataset":
        """New dataset from positional subject draws, repeats allowed."""
        return MarkerDataset(
            self._columns["diseased"].gather(diseased_idx),
            self._columns["nondiseased"].gather(nondiseased_idx),
            self.n_markers,
            self.n_times,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarkerDataset):
            return NotImplemented
        return (
            self.n_markers == other.n_markers
            and self.n_times == other.n_times
            and all(np.array_equal(getattr(self._columns[g], name),
                                   getattr(other._columns[g], name))
                    for g in _GROUPS
                    for name in ("subject_ids", "subject", "marker", "time", "value"))
        )


def _cut(starts: list[int], n: int) -> tuple[slice | np.ndarray, tuple[int, ...]]:
    """Where strata of ``n`` rows each, starting at ``starts`` in the
    key-sorted rows, lie in them, and the shape they are read in: a slice
    for one stratum, and for a block a slice read as ``(k, n)`` when its
    strata lie end to end in that order, as a reader design's do, else one
    row of indices per stratum."""
    k, first = len(starts), starts[0]
    if k == 1:
        return slice(first, first + n), (n,)
    if n == 0 or starts == list(range(first, first + k * n, n)):
        return slice(first, first + k * n), (k, n)
    rows = np.array(starts)[:, None] + np.arange(n)
    _read_only(rows)   # shared by every dataset revalued from this one
    return rows, (k, n)


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


def _make_stratum(values: np.ndarray, subjects: np.ndarray, n_subjects: int) -> Stratum:
    if values.ndim == 1:
        bins = subjects
        counts = np.bincount(subjects, minlength=n_subjects)
    else:
        k = len(values)
        bins = np.arange(k)[:, None] * n_subjects + subjects
        counts = np.bincount(bins.ravel(), minlength=k * n_subjects).reshape(k, n_subjects)
    return Stratum(values, subjects, counts, np.sort(values, axis=-1), bins)


def validate(dataset: MarkerDataset) -> ValidationReport:
    """List every structural violation; does not raise.

    Estimators assume a dataset that validates cleanly: each group non-empty
    and every (marker, time) cell of every subject holding at least one
    finite value with in-range indices.  Issues come per group and subject:
    first each present cell's index and value problems, in (marker, time)
    order, then the subject's empty cells, one issue per run of consecutive
    empty cells in (marker, time) order.  The runs are the gaps between a
    subject's present cells, so the work grows with the rows, not with
    subjects times cells.
    """
    issues: list[ValidationIssue] = []
    if dataset.n_diseased == 0:
        issues.append(ValidationIssue("no diseased subjects"))
    if dataset.n_nondiseased == 0:
        issues.append(ValidationIssue("no non-diseased subjects"))
    n_markers, n_times = dataset.n_markers, dataset.n_times
    for group, cols in dataset._columns.items():
        ids = cols.subject_ids.tolist()
        found = []   # ((subject, 0 cell problem | 1 empty cells, position, kind), message)
        starts = cols.cell_starts()
        subj, marker, time = cols.subject[starts], cols.marker[starts], cols.time[starts]
        bad_marker = (marker < 1) | (marker > n_markers)
        bad_time = (time < 1) | (time > n_times)
        nonfinite = (np.logical_or.reduceat(~np.isfinite(cols.value), starts)
                     if starts.size else np.zeros(0, bool))
        for c in np.flatnonzero(bad_marker):
            found.append(((subj[c], 0, c, 0), f"marker index {marker[c]} outside 1..{n_markers}"))
        for c in np.flatnonzero(bad_time):
            found.append(((subj[c], 0, c, 1), f"time index {time[c]} outside 1..{n_times}"))
        for c in np.flatnonzero(nonfinite):
            found.append(((subj[c], 0, c, 2),
                          f"non-finite value in cell (marker {marker[c]}, time {time[c]})"))
        inside = ~(bad_marker | bad_time)
        cell = (marker[inside] - 1) * n_times + time[inside] - 1
        for s, first, last in _empty_runs(cols.n_subjects, n_markers * n_times,
                                          subj[inside], cell):
            where = [f"(marker {c // n_times + 1}, time {c % n_times + 1})"
                     for c in (first, last)]
            message = (f"empty cell {where[0]}" if first == last
                       else f"empty cells {where[0]} to {where[1]}")
            found.append(((s, 1, first, 0), message))
        found.sort(key=lambda item: item[0])
        issues.extend(ValidationIssue(message, group, ids[key[0]]) for key, message in found)
    return ValidationReport(tuple(issues))


def _empty_runs(n_subjects: int, n_cells: int, subject: np.ndarray, cell: np.ndarray):
    """(subject, first cell, last cell) of every run of a subject's cells in
    ``0..n_cells-1`` that holds no row.

    ``subject`` and ``cell`` are the present cells in canonical order, so
    they ascend by (subject, cell) without repeats.  The runs are the gaps
    before a subject's first present cell, after each present cell, and the
    whole range of a subject with none.
    """
    if subject.size == n_subjects * n_cells:
        return iter(())   # the pairs are distinct, so every cell is present
    first = np.ones(subject.size, bool)
    first[1:] = subject[1:] != subject[:-1]
    following = np.where(np.append(first[1:], True), n_cells, np.roll(cell, -1))
    absent = np.flatnonzero(np.bincount(subject, minlength=n_subjects) == 0)
    owner = np.concatenate((subject[first], subject, absent))
    lo = np.concatenate((np.zeros(first.sum(), np.intp), cell + 1, np.zeros(absent.size, np.intp)))
    hi = np.concatenate((cell[first] - 1, following - 1, np.full(absent.size, n_cells - 1)))
    keep = lo <= hi
    return zip(owner[keep].tolist(), lo[keep].tolist(), hi[keep].tolist())


# -- CSV serialization ---------------------------------------------------


# the body is converted a block at a time, to bound the field strings held
# at once: lines up to about this many characters in a plain text, else rows
_BLOCK_CHARS = 1 << 17
_BLOCK_ROWS = 4096
_N_FIELDS = len(CSV_HEADER)
# the largest index the intp columns hold; a larger one overflows in _convert
_MAX_INDEX = int(np.iinfo(np.intp).max)
# the quote and the ASCII whitespace that str.strip removes, newline aside: an
# ASCII text with none of them splits into csv.reader's records and stripped
# fields on "\n" and "," alone
_NOT_PLAIN = ('"',) + tuple(c for c in map(chr, range(128)) if c.isspace() and c != "\n")
# a plain line's separators, and every other ASCII byte: deleting those from
# a block leaves its separators, which repeat the line's when every line holds
# six fields
_ROW_SEPARATORS = b"," * (_N_FIELDS - 1) + b"\n"
_NOT_SEPARATOR = bytes(c for c in range(128) if c not in _ROW_SEPARATORS)


class _Malformed(Exception):
    """A block failed a check; the row scan names the line."""


def read_dataset_csv(source) -> MarkerDataset:
    """Read the canonical long-format CSV from a path or an open handle.

    Columns: ``subject_id,status,marker,time,replicate,value`` with status
    ``D`` or ``ND`` and 1-based integer indices; fields are stripped, blank
    lines skipped, RFC 4180 quoting and CRLF line ends read as
    :mod:`csv` reads them, and a leading byte-order mark is dropped.  Bytes
    (a path, or a handle opened in binary mode) must be UTF-8.  Marker and
    time counts are inferred from the maxima present.  Structural problems,
    undecodable bytes included, raise :class:`DataFormatError` carrying the
    offending line number; cell-level completeness is checked separately by
    :func:`validate`.

    The body is converted and checked a block of rows at a time, column by
    column.  A plain text (ASCII with LF line ends, no quote and nothing to
    strip) is cut into blocks of lines, and each block is split into its
    fields at once; one pass over the block's separators checks that
    every line holds six fields, since every sixth separator must be a
    newline and no other may be.  A field longer than the :mod:`csv`
    module's field size limit fails there as it fails in :mod:`csv`.  Any
    other text is read by :mod:`csv`.  Only when a check fails are the rows
    scanned one by one, to name the first bad line.
    """
    text = _read_text(source)
    try:
        if text.isascii() and not any(c in text for c in _NOT_PLAIN):
            end = _line_end(text, 0)
            if _past_field_limit(text, 0, end):
                raise _Malformed
            header = text[:end].split(",") if text else None
            blocks = _plain_blocks(text, end + 1)
        else:
            records = _records(text)
            header = next(records, None)
            blocks = _quoted_blocks(records)
        if header is None:
            raise DataFormatError("empty file, expected header " + ",".join(CSV_HEADER), line=1)
        if [h.strip() for h in header] != CSV_HEADER:
            raise DataFormatError(
                f"bad header {','.join(header)!r}, expected {','.join(CSV_HEADER)}", line=1)
        return _build(blocks)
    except (_Malformed, csv.Error, OverflowError):
        error = _first_row_error(text)
        if error is None:
            raise
        raise error from None


def _read_text(source) -> str:
    """The whole text of a path or a handle, without a leading byte-order
    mark; bytes are decoded as UTF-8."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "rb") as handle:
            data = handle.read()
    else:
        data = source.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[:exc.start]  # lines end at \r, \n or \r\n, as the readers count them
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise DataFormatError(f"not UTF-8 text ({exc.reason} at byte {exc.start})",
                                  line=line) from None
    return data.removeprefix("\ufeff")


def _records(text: str):
    """csv.reader over the text, header first; lines end at \\r, \\n or \\r\\n."""
    return csv.reader(io.StringIO(text, newline=""))


def _line_end(text: str, start: int) -> int:
    """Index of the first newline from ``start`` on, else the text's length."""
    end = text.find("\n", start)
    return len(text) if end < 0 else end


def _plain_blocks(text: str, start: int):
    """Flat fields of a plain text's body from ``start``, a block of lines at
    a time; blank lines are skipped and every other line must hold six
    fields.  A block is split into its lines, to drop the blank ones, only
    when it fails the six-field check as it stands."""
    end = len(text) - text.endswith("\n")   # the last line's end
    while start < end:
        stop = text.find("\n", start + _BLOCK_CHARS, end)
        stop = end if stop < 0 else stop
        if _past_field_limit(text, start, stop):
            raise _Malformed
        lines = text[start:stop]
        start = stop + 1
        if not _six_fields(lines):
            lines = "\n".join(filter(None, lines.split("\n")))
            if lines and not _six_fields(lines):
                raise _Malformed
        if lines:
            yield lines.replace("\n", ",").split(",")


def _past_field_limit(text: str, start: int, stop: int) -> bool:
    """Whether a plain line in ``text[start:stop]`` holds a field longer
    than ``csv.field_size_limit()``, which :mod:`csv` rejects.  A block's
    lines other than its last end before ``start + _BLOCK_CHARS``, so under
    the default limit only the last line can hold such a field, and only
    it is split; under a lower limit every line may, and all are."""
    limit = csv.field_size_limit()
    if limit >= _BLOCK_CHARS:
        start = max(start, text.rfind("\n", start, min(stop, start + _BLOCK_CHARS)) + 1)
    if stop - start <= limit:
        return False
    return any(len(f) > limit for f in text[start:stop].replace("\n", ",").split(","))


def _six_fields(lines: str) -> bool:
    """Whether every one of the plain lines holds six fields: of their
    separators, every sixth is a newline and no other is."""
    separators = lines.encode("ascii").translate(None, _NOT_SEPARATOR)
    return separators == (_ROW_SEPARATORS * (len(separators) // _N_FIELDS)
                          + _ROW_SEPARATORS[:-1])


def _blank(row: list[str]) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _quoted_blocks(records):
    """Flat stripped fields of the csv records after the header, a block of
    rows at a time; blank records are skipped and every other record must
    hold six fields."""
    fields: list[str] = []
    for row in records:
        if len(row) == _N_FIELDS:
            fields.extend(map(str.strip, row))
            if len(fields) == _BLOCK_ROWS * _N_FIELDS:
                yield fields
                fields = []
        elif not _blank(row):
            raise _Malformed
    if fields:
        yield fields


def _convert(fields: list[str], subjects: dict[tuple[str, str], int]):
    """(subject code, marker, time, replicate, value) columns of one block of
    flat fields; ``subjects`` codes each (status, subject_id) in order of
    first appearance over all blocks."""
    status = fields[1::_N_FIELDS]
    if not _STATUSES.issuperset(status):
        raise _Malformed
    n = len(status)
    # a new key's code is the size of ``subjects`` just before setdefault adds it
    code = np.fromiter(map(subjects.setdefault, zip(status, fields[0::_N_FIELDS]),
                           map(len, repeat(subjects))), np.intp, n)
    indices = [fields[k::_N_FIELDS] for k in (2, 3, 4)]
    try:
        # int() and float() themselves, so the spellings accepted stay theirs
        table = {s: int(s) for s in set().union(*indices)}
        value = np.fromiter(map(float, fields[5::_N_FIELDS]), float, n)
    except ValueError:
        raise _Malformed from None
    if min(table.values()) < 1:
        raise _Malformed
    return (code, *(np.fromiter(map(table.__getitem__, col), np.intp, n)
                    for col in indices), value)


def _build(blocks) -> MarkerDataset:
    subjects: dict[tuple[str, str], int] = {}
    parts = [_convert(fields, subjects) for fields in blocks]
    if not parts:
        raise DataFormatError("no data rows", line=2)
    code, marker, time, replicate, value = (np.concatenate(col) for col in zip(*parts))
    order = np.lexsort((replicate, time, marker, code))
    code, marker, time, replicate, value = (col[order]
                                            for col in (code, marker, time, replicate, value))
    duplicate = code[1:] == code[:-1]
    for col in (marker, time, replicate):
        duplicate &= col[1:] == col[:-1]
    if duplicate.any():
        raise _Malformed   # a duplicate replicate
    diseased = np.fromiter((status == "D" for status, _ in subjects), bool, len(subjects))
    # a subject's row within its group, in order of first appearance
    row = np.where(diseased, np.cumsum(diseased), np.cumsum(~diseased)) - 1
    in_diseased = diseased[code]
    columns = []
    for token, mine in (("D", in_diseased), ("ND", ~in_diseased)):
        ids = [sid for status, sid in subjects if status == token]
        columns.append(GroupColumns(np.asarray(ids, dtype=str), row[code[mine]],
                                    marker[mine], time[mine], value[mine]))
    return MarkerDataset(*columns, n_markers=int(marker.max()), n_times=int(time.max()))


def _first_row_error(text: str) -> DataFormatError | None:
    """The error of the first bad data row in file order, found by checking
    the rows one by one; ``None`` when every row passes.  A record :mod:`csv`
    cannot read (a field past its size limit) is an error of its line."""
    seen: set[tuple[str, str, int, int, int]] = set()
    line_no = 0
    try:
        for line_no, row in enumerate(_records(text), start=1):
            if line_no == 1:
                continue   # the header, checked before
            if len(row) != _N_FIELDS:
                if _blank(row):
                    continue
                return DataFormatError(f"expected {_N_FIELDS} fields, got {len(row)}",
                                       line=line_no)
            subject_id, status, marker_s, time_s, rep_s, value_s = map(str.strip, row)
            if status not in _STATUSES:
                return DataFormatError(f"status must be 'D' or 'ND', got {status!r}", line=line_no)
            try:
                marker, time, replicate = int(marker_s), int(time_s), int(rep_s)
            except ValueError:
                return DataFormatError(
                    f"marker/time/replicate must be integers, got "
                    f"({marker_s!r}, {time_s!r}, {rep_s!r})", line=line_no)
            if marker < 1 or time < 1 or replicate < 1:
                return DataFormatError(
                    "marker, time and replicate are 1-based and must be >= 1", line=line_no)
            if max(marker, time, replicate) > _MAX_INDEX:
                return DataFormatError(
                    f"marker, time and replicate must be at most {_MAX_INDEX}", line=line_no)
            try:
                float(value_s)
            except ValueError:
                return DataFormatError(f"bad value {value_s!r}", line=line_no)
            key = (status, subject_id, marker, time, replicate)
            if key in seen:
                return DataFormatError(
                    f"duplicate replicate {replicate} for subject {subject_id!r} "
                    f"(marker {marker}, time {time})", line=line_no)
            seen.add(key)
    except csv.Error as exc:
        return DataFormatError(str(exc), line=line_no + 1)
    return None


def write_dataset_csv(dataset: MarkerDataset, target) -> None:
    """Write the canonical CSV; inverse of :func:`read_dataset_csv`."""
    close_after = False
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        handle = open(target, "w", encoding="utf-8", newline="")
        close_after = True
    else:
        handle = target
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for status, group in (("D", "diseased"), ("ND", "nondiseased")):
            cols = dataset._columns[group]
            starts = cols.cell_starts()
            lengths = np.diff(np.append(starts, cols.subject.size))
            replicate = np.arange(cols.subject.size) - np.repeat(starts, lengths) + 1
            writer.writerows(zip(cols.subject_ids[cols.subject].tolist(), repeat(status),
                                 cols.marker.tolist(), cols.time.tolist(),
                                 replicate.tolist(), map(repr, cols.value.tolist())))
    finally:
        if close_after:
            handle.close()


def dataset_to_csv_text(dataset: MarkerDataset) -> str:
    buffer = io.StringIO()
    write_dataset_csv(dataset, buffer)
    return buffer.getvalue()
