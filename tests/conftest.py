"""Shared builders and the acceptance summary hook."""

import numpy as np
import pytest

from wroc.dataset import MarkerDataset

# (criterion label, passed, detail) tuples appended by test_acceptance.py;
# printed as one line each in the terminal summary
ACCEPTANCE_LINES = []


def record_acceptance(label, passed, detail=""):
    ACCEPTANCE_LINES.append((label, bool(passed), detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for label, passed, detail in ACCEPTANCE_LINES:
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] {label}"
        if detail:
            line += f" :: {detail}"
        terminalreporter.write_line(line)


def singles_records(x_values, y_values):
    """One marker, one time, every measurement its own subject."""
    diseased = [(f"d{i}", {(1, 1): (float(v),)}) for i, v in enumerate(x_values, 1)]
    nondiseased = [(f"h{j}", {(1, 1): (float(v),)}) for j, v in enumerate(y_values, 1)]
    return diseased, nondiseased


def singles_dataset(x_values, y_values):
    return MarkerDataset(*singles_records(x_values, y_values), n_markers=1, n_times=1)


def paired_records(diseased_columns, nondiseased_columns, n_times=1):
    """L markers measured on every subject.

    ``diseased_columns[l]`` is the vector of subject values for marker l+1;
    with ``n_times > 1`` each column is (subjects, times).
    """
    def build(columns, prefix):
        arr = [np.atleast_2d(np.asarray(c, dtype=float)) for c in columns]
        arr = [c.T if c.shape[0] == 1 and n_times == 1 else c for c in arr]
        n_subj = arr[0].shape[0]
        records = []
        for i in range(n_subj):
            cells = {}
            for l, col in enumerate(arr, start=1):
                row = np.atleast_1d(col[i])
                for k in range(n_times):
                    cells[(l, k + 1)] = (float(row[k]),)
            records.append((f"{prefix}{i + 1}", cells))
        return records

    return build(diseased_columns, "d"), build(nondiseased_columns, "h")


def paired_dataset(diseased_columns, nondiseased_columns, n_times=1):
    return MarkerDataset(*paired_records(diseased_columns, nondiseased_columns, n_times),
                         n_markers=len(diseased_columns), n_times=n_times)


def clustered_records(diseased_cells, nondiseased_cells):
    """Explicit per-subject cell dicts for replicate-structure tests."""
    diseased = [(f"d{i}", cells) for i, cells in enumerate(diseased_cells, 1)]
    nondiseased = [(f"h{j}", cells) for j, cells in enumerate(nondiseased_cells, 1)]
    return diseased, nondiseased


def clustered_dataset(diseased_cells, nondiseased_cells, n_markers=1, n_times=1):
    return MarkerDataset(*clustered_records(diseased_cells, nondiseased_cells),
                         n_markers=n_markers, n_times=n_times)


def assert_strata_equal(dataset, want):
    """``dataset.stratum(*key)`` equals ``want[key]``, a (values, subjects,
    counts, sorted_values) tuple, for every key, NaN matching NaN."""
    for key, (values, subjects, counts, sorted_values) in want.items():
        got = dataset.stratum(*key)
        assert np.array_equal(got.values, values, equal_nan=True), key
        assert np.array_equal(got.subjects, subjects), key
        assert np.array_equal(got.counts, counts), key
        assert np.array_equal(got.sorted_values, sorted_values, equal_nan=True), key


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
