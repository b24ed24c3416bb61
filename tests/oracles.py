"""Independent brute-force reference implementations.

Everything here is deliberately slow and written from the definitions in
plain Python loops so that agreement with the package is meaningful: no
shared helpers, no numpy vectorization tricks, no sorting shortcuts beyond
what the definition itself states.
"""

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

from wroc.covariance import _MAX_DRAWS, CovarianceEstimate, _repair_part
from wroc.dataset import CSV_HEADER, GroupColumns, MarkerDataset, SubjectRecord
from wroc.designs import StudyDesign
from wroc.errors import DataFormatError, DegenerateDensityError, WrocError
from wroc.estimators import WaucVector
from wroc.measures import WeightMeasure
from wroc.simulation import DEFAULT_MEASURES, DEFAULT_REPS, DEFAULT_SEED, ScenarioSpec, true_wauc
from wroc.simulation import FAMILIES as _FAMILIES

# same boundary guard the estimators use: (1-u)*n can land a float epsilon
# above an exact integer, which would push ceil one step too far
GUARD = 1e-9


def inverse_survival_oracle(values, u):
    """k-th smallest with k = ceil((1-u)*n - guard), clamped to [1, n]."""
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    k = math.ceil((1.0 - u) * n - GUARD)
    k = min(max(k, 1), n)
    return ordered[k - 1]


def sensitivity_oracle(x_values, y_values, u0):
    """Fraction of diseased values strictly above the u0 survival quantile."""
    threshold = inverse_survival_oracle(y_values, u0)
    hits = sum(1 for xv in x_values if float(xv) > threshold)
    return hits / len(list(x_values))


def auc_oracle(x_values, y_values, midrank=False):
    total = 0.0
    m = n = 0
    for xv in x_values:
        m += 1
        n = 0
        for yv in y_values:
            n += 1
            if float(xv) > float(yv):
                total += 1.0
            elif midrank and float(xv) == float(yv):
                total += 0.5
    return total / (m * n)


def pauc_oracle(x_values, y_values, lower, upper, midrank=False):
    """Rank-window partial AUC; denominator keeps all m*n pairs."""
    ordered = sorted(float(v) for v in y_values)
    n = len(ordered)
    m = len(list(x_values))
    hi = math.ceil((1.0 - upper) * n - GUARD)
    lo = math.ceil((1.0 - lower) * n - GUARD)
    hi = min(max(hi, 0), n)
    lo = min(max(lo, 0), n)
    window = ordered[hi:lo]
    total = 0.0
    for xv in x_values:
        for yv in window:
            if float(xv) > yv:
                total += 1.0
            elif midrank and float(xv) == yv:
                total += 0.5
    return total / (m * n)


def steps_oracle(x_values, y_values, atoms):
    """Finite weighted sum of sensitivities at the atom locations."""
    return sum(mass * sensitivity_oracle(x_values, y_values, u)
               for u, mass in atoms)


def delong_variance_oracle(x_values, y_values):
    """Classic structural-components AUC variance, ddof=1 both groups."""
    xs = [float(v) for v in x_values]
    ys = [float(v) for v in y_values]
    m, n = len(xs), len(ys)
    auc = auc_oracle(xs, ys, midrank=True)
    v10 = []
    for xv in xs:
        score = 0.0
        for yv in ys:
            if xv > yv:
                score += 1.0
            elif xv == yv:
                score += 0.5
        v10.append(score / n)
    v01 = []
    for yv in ys:
        score = 0.0
        for xv in xs:
            if xv > yv:
                score += 1.0
            elif xv == yv:
                score += 0.5
        v01.append(score / m)
    s10 = sum((v - auc) ** 2 for v in v10) / (m - 1)
    s01 = sum((v - auc) ** 2 for v in v01) / (n - 1)
    return s10 / m + s01 / n


def delong_covariance_oracle(x_columns, y_columns):
    """Structural-components covariance matrix across markers, ddof=1.

    ``x_columns[k][i]`` is subject i's value for marker k; all markers share
    the same subjects, one value each.
    """
    count = len(x_columns)
    m = len(x_columns[0])
    n = len(y_columns[0])
    aucs = [auc_oracle(x_columns[k], y_columns[k], midrank=True)
            for k in range(count)]
    v10 = []
    v01 = []
    for k in range(count):
        xs = [float(v) for v in x_columns[k]]
        ys = [float(v) for v in y_columns[k]]
        row10 = []
        for xv in xs:
            score = 0.0
            for yv in ys:
                if xv > yv:
                    score += 1.0
                elif xv == yv:
                    score += 0.5
            row10.append(score / n)
        row01 = []
        for yv in ys:
            score = 0.0
            for xv in xs:
                if xv > yv:
                    score += 1.0
                elif xv == yv:
                    score += 0.5
            row01.append(score / m)
        v10.append(row10)
        v01.append(row01)
    cov = [[0.0] * count for _ in range(count)]
    for k in range(count):
        for l in range(count):
            s10 = sum((v10[k][i] - aucs[k]) * (v10[l][i] - aucs[l])
                      for i in range(m)) / (m - 1)
            s01 = sum((v01[k][j] - aucs[k]) * (v01[l][j] - aucs[l])
                      for j in range(n)) / (n - 1)
            cov[k][l] = s10 / m + s01 / n
    return cov


def _stratum_values(record, marker, time):
    """One subject's values for a (marker, time) stratum; time None pools."""
    return [v for (mk, tk), cell in sorted(record.cells.items())
            if mk == marker and (time is None or tk == time) for v in cell]


def _percentile_oracle(ordered, q):
    """Linear-interpolation percentile of an ascending list."""
    pos = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def _kde_oracle(values, point):
    """Gaussian kernel density at ``point``, Silverman-type bandwidth."""
    n = len(values)
    mean = sum(values) / n
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
    ordered = sorted(values)
    iqr = _percentile_oracle(ordered, 75.0) - _percentile_oracle(ordered, 25.0)
    h = 0.9 * min(c for c in (sd, iqr / 1.34) if c > 0.0) * n ** (-0.2)
    total = sum(math.exp(-0.5 * ((point - v) / h) ** 2) for v in values)
    return total / (n * h * math.sqrt(2.0 * math.pi))


def integral_covariance_oracle(dataset, strata, nodes, weights):
    """Diseased and non-diseased covariance parts of a grid-weighted wAUC.

    From the definition: for strata a, b the diseased entry is
    ``1/(n_a n_b)`` times the sum, over every subject, every cross pair
    (v from stratum a, v' from stratum b) of that subject's values, and
    every node pair (p, q), of
    ``w_p w_q (1[v > t_ap] 1[v' > t_bq] - R_a(t_ap) R_b(t_bq))``, where
    ``t_ap`` is the non-diseased threshold for rate ``u_p`` and ``R_a`` the
    diseased survival.  The non-diseased entry sums
    ``w_p w_q r_ap r_bq (1[y > t_ap] 1[y' > t_bq] - u_p u_q)`` with ``r`` the
    kernel density ratio at the threshold.  ``n_a`` counts stratum a's
    values in the group.
    """
    values = {}
    for group, records in (("diseased", dataset.diseased),
                           ("nondiseased", dataset.nondiseased)):
        values[group] = [[_stratum_values(rec, marker, time) for marker, time in strata]
                         for rec in records]
    pooled = {group: [[v for subject in rows for v in subject[a]]
                      for a in range(len(strata))]
              for group, rows in values.items()}
    thresholds = []
    rocs = []
    ratios = []
    for a in range(len(strata)):
        xs = pooled["diseased"][a]
        ys = pooled["nondiseased"][a]
        t = [inverse_survival_oracle(ys, u) for u in nodes]
        thresholds.append(t)
        rocs.append([sum(1 for v in xs if v > tp) / len(xs) for tp in t])
        ratios.append([_kde_oracle(xs, tp) / _kde_oracle(ys, tp) for tp in t])
    size = len(strata)
    out = {}
    for group in ("diseased", "nondiseased"):
        sigma = [[0.0] * size for _ in range(size)]
        for a in range(size):
            for b in range(size):
                total = 0.0
                for subject in values[group]:
                    for v1 in subject[a]:
                        for v2 in subject[b]:
                            for p in range(len(nodes)):
                                for q in range(len(nodes)):
                                    joint = float(v1 > thresholds[a][p]
                                                  and v2 > thresholds[b][q])
                                    if group == "diseased":
                                        term = joint - rocs[a][p] * rocs[b][q]
                                    else:
                                        term = ((joint - nodes[p] * nodes[q])
                                                * ratios[a][p] * ratios[b][q])
                                    total += weights[p] * weights[q] * term
                sigma[a][b] = total / (len(pooled[group][a]) * len(pooled[group][b]))
        out[group] = sigma
    return out["diseased"], out["nondiseased"]


# -- the record-based dataset path ----------------------------------------
#
# ``MarkerDataset`` used to keep one ``SubjectRecord`` per subject and build
# its strata, resample, validate and write CSV from the records.  That path
# is kept here, as it was, as the reference for the column-based dataset.


def record_strata(diseased, nondiseased, n_markers, n_times):
    """{(group, marker, time or None): (values, subjects, counts, sorted)}
    built subject by subject from the records' cells."""
    out = {}
    for group, records in (("diseased", diseased), ("nondiseased", nondiseased)):
        n_subj = len(records)
        for marker in range(1, n_markers + 1):
            pooled_vals = []
            pooled_subj = []
            for time in range(1, n_times + 1):
                vals = []
                subj = []
                for idx, rec in enumerate(records):
                    cell = rec.cells.get((marker, time), ())
                    vals.extend(cell)
                    subj.extend([idx] * len(cell))
                pooled_vals.extend(vals)
                pooled_subj.extend(subj)
                out[(group, marker, time)] = _record_stratum(vals, subj, n_subj)
            out[(group, marker, None)] = _record_stratum(pooled_vals, pooled_subj, n_subj)
    return out


def _record_stratum(vals, subj, n_subj):
    subjects = np.asarray(subj, dtype=np.intp)
    counts = (np.bincount(subjects, minlength=n_subj).astype(np.intp) if n_subj
              else np.zeros(0, np.intp))
    values = np.asarray(vals, dtype=float)
    return values, subjects, counts, np.sort(values)


def record_resample(records, idx):
    return [records[i] for i in idx]


def record_validate(diseased, nondiseased, n_markers, n_times):
    """(message, group, subject_id) of every issue, in the records' order,
    found by visiting every cell of every subject."""
    issues = []
    if not diseased:
        issues.append(("no diseased subjects", None, None))
    if not nondiseased:
        issues.append(("no non-diseased subjects", None, None))
    for group, records in (("diseased", diseased), ("nondiseased", nondiseased)):
        for rec in records:
            for (marker, time), values in rec.cells.items():
                if not 1 <= marker <= n_markers:
                    issues.append((f"marker index {marker} outside 1..{n_markers}",
                                   group, rec.subject_id))
                if not 1 <= time <= n_times:
                    issues.append((f"time index {time} outside 1..{n_times}",
                                   group, rec.subject_id))
                for v in values:
                    if not math.isfinite(v):
                        issues.append((f"non-finite value in cell (marker {marker}, time {time})",
                                       group, rec.subject_id))
                        break
            # consecutive empty cells in (marker, time) order are one issue
            run = []
            for marker in range(1, n_markers + 2):
                for time in range(1, n_times + 1):
                    if marker <= n_markers and not rec.cells.get((marker, time), ()):
                        run.append(f"(marker {marker}, time {time})")
                    elif run:
                        message = (f"empty cell {run[0]}" if len(run) == 1
                                   else f"empty cells {run[0]} to {run[-1]}")
                        issues.append((message, group, rec.subject_id))
                        run = []
    return issues


def record_csv_text(diseased, nondiseased):
    """The canonical CSV, one subject's sorted cells after another."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["subject_id", "status", "marker", "time", "replicate", "value"])
    for status, records in (("D", diseased), ("ND", nondiseased)):
        for rec in records:
            for marker, time in sorted(rec.cells):
                for replicate, value in enumerate(rec.cells[(marker, time)], start=1):
                    writer.writerow([rec.subject_id, status, marker, time, replicate,
                                     repr(value)])
    return buffer.getvalue()


# ``read_dataset_csv`` used to check and convert the CSV one row at a time.
# That reader is kept here, as it was, as the reference for the bulk reader.


def old_read_dataset_csv(source):
    """The canonical long-format CSV, read and checked row by row."""
    status_tokens = {"D": "diseased", "ND": "nondiseased"}
    groups = ("diseased", "nondiseased")
    close_after = False
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        handle = open(source, "r", encoding="utf-8", newline="")
        close_after = True
    else:
        handle = source
    try:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty file, expected header "
                                  + ",".join(CSV_HEADER), line=1) from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise DataFormatError(
                f"bad header {','.join(header)!r}, expected {','.join(CSV_HEADER)}", line=1)

        # per group: subject_id -> subject row, in order of first appearance
        positions: dict[str, dict[str, int]] = {group: {} for group in groups}
        # (diseased, subject, marker, time, replicate) -> value, in file order
        cells: dict[tuple[bool, int, int, int, int], float] = {}
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(CSV_HEADER):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                raise DataFormatError(
                    f"expected {len(CSV_HEADER)} fields, got {len(row)}", line=line_no)
            subject_id, status, marker_s, time_s, rep_s, value_s = map(str.strip, row)
            if status not in status_tokens:
                raise DataFormatError(
                    f"status must be 'D' or 'ND', got {status!r}", line=line_no)
            group = status_tokens[status]
            try:
                marker = int(marker_s)
                time = int(time_s)
                replicate = int(rep_s)
            except ValueError:
                raise DataFormatError(
                    f"marker/time/replicate must be integers, got "
                    f"({marker_s!r}, {time_s!r}, {rep_s!r})", line=line_no) from None
            if marker < 1 or time < 1 or replicate < 1:
                raise DataFormatError(
                    "marker, time and replicate are 1-based and must be >= 1", line=line_no)
            try:
                value = float(value_s)
            except ValueError:
                raise DataFormatError(f"bad value {value_s!r}", line=line_no) from None
            subjects = positions[group]
            key = (status == "D", subjects.setdefault(subject_id, len(subjects)),
                   marker, time, replicate)
            if key in cells:
                raise DataFormatError(
                    f"duplicate replicate {replicate} for subject {subject_id!r} "
                    f"(marker {marker}, time {time})", line=line_no)
            cells[key] = value

        if not cells:
            raise DataFormatError("no data rows", line=2)

        is_diseased, subject, marker, time, replicate = np.array(list(cells), dtype=np.intp).T
        value = np.fromiter(cells.values(), dtype=float, count=len(cells))
        columns = []
        for group, flag in zip(groups, (1, 0)):
            mine = np.flatnonzero(is_diseased == flag)
            order = mine[np.lexsort((replicate[mine], time[mine], marker[mine], subject[mine]))]
            columns.append(GroupColumns(np.asarray(list(positions[group]), dtype=str),
                                        subject[order], marker[order], time[order],
                                        value[order]))
        return MarkerDataset(*columns, n_markers=int(marker.max()), n_times=int(time.max()))
    finally:
        if close_after:
            handle.close()


def record_draw_group(halves, family, rng, id_prefix, n_markers, n_times):
    """A simulated group as records: each Cholesky row split into cells,
    marker-major, then time, then replicate."""
    records = []
    subject_no = 0
    for half in halves:
        if half.n_subjects == 0:
            continue
        z = rng.standard_normal((half.n_subjects, half.mu_row.size))
        rows = half.mu_row + z @ half.chol.T
        if family == "lognormal":
            rows = np.exp(rows)
        for row in rows:
            subject_no += 1
            cells = {}
            col = 0
            for marker in range(1, n_markers + 1):
                for t in range(1, n_times + 1):
                    cells[(marker, t)] = tuple(float(v) for v in row[col:col + half.cluster_size])
                    col += half.cluster_size
            records.append(SubjectRecord(f"{id_prefix}{subject_no}", cells))
    return records



def old_generate_dataset(scenario, rng, plan):
    """A simulated dataset built as every replicate built one before the
    plan kept a template: each group's columns from the plan's layout and
    the Cholesky draws, diseased halves first, through ``MarkerDataset``."""

    def draw_group(group):
        draws = []
        for half in group.halves:
            z = rng.standard_normal((half.n_subjects, half.chol.shape[0]))
            rows = half.mu_row + z @ half.chol.T
            draws.append((np.exp(rows) if scenario.family == "lognormal" else rows).ravel())
        return GroupColumns(*group.layout, np.concatenate(draws))

    return MarkerDataset(draw_group(plan.diseased), draw_group(plan.nondiseased),
                         scenario.design.n_markers, scenario.design.n_times)


# -- the per-kind estimator path ------------------------------------------
#
# ``auc``, ``pauc``, ``sensitivity_at_fpr`` and ``wauc`` used to fetch and
# check their own strata, each with its own body, and the inverse survival
# had a scalar and a vector index rule.  That path is kept here, as it was,
# as the reference for the estimator core.

OLD_INDEX_GUARD = 1e-9


def _old_ceil_index(t):
    return int(math.ceil(t - OLD_INDEX_GUARD))


def _old_check_u(u):
    if not 0.0 < u <= 1.0:
        raise ValueError(f"false-positive rate must be in (0, 1], got {u}")


def old_inverse_survival(sorted_values, u):
    """The scalar index rule."""
    _old_check_u(u)
    n = sorted_values.size
    k = min(max(_old_ceil_index((1.0 - u) * n), 1), n)
    return float(sorted_values[k - 1])


def old_inverse_survival_many(sorted_values, u):
    """The vector index rule."""
    u = np.asarray(u, dtype=float)
    bad = ~((u > 0.0) & (u <= 1.0))
    if bad.any():
        _old_check_u(float(u.flat[np.argmax(bad)]))
    n = sorted_values.size
    k = np.ceil((1.0 - u) * n - OLD_INDEX_GUARD).astype(np.intp)
    k = np.clip(k, 1, n)
    return sorted_values[k - 1]


def _old_survival(sorted_values, x):
    n = sorted_values.size
    out = (n - np.searchsorted(sorted_values, x, side="right")) / n
    return float(out) if np.isscalar(x) else out


def old_stratum_pairs(dataset, design):
    """A design's (diseased, non-diseased) strata in design order, each cut
    on its own through ``dataset.stratum``, and their labels; without a
    design, one pooled stratum per marker labelled ``marker<m>``.  The
    first stratum with an empty group raises."""
    if design is None:
        strata = [(marker, None) for marker in range(1, dataset.n_markers + 1)]
        labels = tuple(f"marker{marker}" for marker, _ in strata)
    else:
        if design.n_markers != dataset.n_markers:
            raise ValueError(f"design expects {design.n_markers} markers, "
                             f"dataset has {dataset.n_markers}")
        if design.kind == "longitudinal" and design.n_times != dataset.n_times:
            raise ValueError(f"design expects {design.n_times} times, "
                             f"dataset has {dataset.n_times}")
        strata, labels = design.strata(), tuple(design.labels())
    return [_old_strata(dataset, marker, time) for marker, time in strata], labels


def _old_strata(dataset, marker, time):
    x = dataset.stratum("diseased", marker, time)
    y = dataset.stratum("nondiseased", marker, time)
    if x.n == 0 or y.n == 0:
        raise ValueError(f"marker {marker} has an empty group in the requested stratum")
    return x, y


def _old_count_pairs(x_values, y_sorted, midrank):
    below = np.searchsorted(y_sorted, x_values, side="left")
    total = float(below.sum())
    if midrank:
        ties = np.searchsorted(y_sorted, x_values, side="right") - below
        total += 0.5 * float(ties.sum())
    return total


def old_auc(dataset, marker, time=None, midrank=False):
    x, y = _old_strata(dataset, marker, time)
    return _old_count_pairs(x.values, y.sorted_values, midrank) / (x.n * y.n)


def old_pauc(dataset, marker, lower, upper, time=None):
    if not 0.0 <= lower < upper <= 1.0:
        raise ValueError(f"need 0 <= lower < upper <= 1, got ({lower}, {upper})")
    x, y = _old_strata(dataset, marker, time)
    n = y.sorted_values.size
    hi_idx = min(max(_old_ceil_index((1.0 - upper) * n), 0), n)
    lo_idx = min(max(_old_ceil_index((1.0 - lower) * n), 0), n)
    window = y.sorted_values[hi_idx:lo_idx]
    return _old_count_pairs(x.values, window, midrank=False) / (x.n * y.n)


def old_sensitivity_at_fpr(dataset, marker, at, time=None):
    x, y = _old_strata(dataset, marker, time)
    threshold = old_inverse_survival(y.sorted_values, at)
    above = x.n - np.searchsorted(x.sorted_values, threshold, side="right")
    return float(above) / x.n


def old_empirical_roc(dataset, marker, u, time=None):
    x, y = _old_strata(dataset, marker, time)
    if np.isscalar(u):
        return _old_survival(x.sorted_values, old_inverse_survival(y.sorted_values, float(u)))
    return _old_survival(x.sorted_values,
                         old_inverse_survival_many(y.sorted_values, np.asarray(u, dtype=float)))


def old_wauc(dataset, marker, measure, time=None, midrank=False):
    if measure.kind == "full":
        value = old_auc(dataset, marker, time, midrank)
    elif measure.kind == "pauc":
        value = old_pauc(dataset, marker, measure.lower, measure.upper, time)
    else:
        value = 0.0
        for u, mass in measure.atoms:
            value += mass * old_sensitivity_at_fpr(dataset, marker, u, time)
    if measure.normalized:
        value /= measure.total_mass
    return float(value)


def old_wauc_vector(dataset, design, measure, midrank=False):
    """(values, labels) over the design's strata, or pooled markers."""
    if design is None:
        strata = [(marker, None) for marker in range(1, dataset.n_markers + 1)]
        labels = tuple(f"marker{marker}" for marker, _ in strata)
    else:
        strata = design.strata()
        labels = tuple(design.labels())
    values = [old_wauc(dataset, marker, measure, time, midrank) for marker, time in strata]
    return values, labels


# -- the four win counts ----------------------------------------------------
#
# The pair count behind the AUC and the rank-window pAUC used to be written
# out four times: ``_count_pairs`` on a sliced window in ``_stratum_wauc``,
# a clip-and-halve block in ``_stratum_wauc_draws``, both halves of
# ``_placements``, and ``_placement_parts``, which took its centre from a
# second ``_stratum_wauc`` call.  Those forms are kept here, as they were
# (``_old_count_pairs`` above is ``_count_pairs``), as the reference for
# bit equality of the one win count.

def old_stratum_wauc(x, y, measure, midrank):
    if midrank and measure.is_atomic:
        raise ValueError(f"midrank applies to auc and pauc measures, not {measure.selector()}")
    if measure.is_atomic:
        _, roc = _old_roc(x, y, [u for u, _ in measure.atoms])
        value = sum(mass * r for (_, mass), r in zip(measure.atoms, roc))
    else:
        window = y.sorted_values
        if measure.kind == "pauc":
            n = y.n
            hi = _old_ceil_index((1.0 - measure.upper) * n)
            lo = _old_ceil_index((1.0 - measure.lower) * n)
            window = window[hi:lo]
        value = _old_count_pairs(x.values, window, midrank) / (x.n * y.n)
    if measure.normalized:
        value /= measure.total_mass
    return float(value)


def old_stratum_wauc_draws(x, y, measure, midrank, mult_x, mult_y):
    """The auc and pauc branch, all draws in one block."""
    y_subjects = y.subjects[np.argsort(y.values, kind="stable")]
    sides = ("left", "right") if midrank else ("left",)
    positions = [np.searchsorted(y.sorted_values, x.values, side=side) for side in sides]
    below = np.zeros((len(mult_y), y.n + 1), dtype=np.intp)
    np.cumsum(mult_y[:, y_subjects], axis=1, out=below[:, 1:])
    n_y = below[:, -1]
    n_x = mult_x @ x.counts
    weights = mult_x[:, x.subjects]
    counts = [below[:, p] for p in positions]
    if measure.kind == "pauc":
        hi = np.ceil((1.0 - measure.upper) * n_y - OLD_INDEX_GUARD).astype(np.intp)[:, None]
        lo = np.ceil((1.0 - measure.lower) * n_y - OLD_INDEX_GUARD).astype(np.intp)[:, None]
        counts = [np.clip(c, hi, lo) - hi for c in counts]
    total = (weights * counts[0]).sum(axis=1).astype(float)
    if midrank:
        total += 0.5 * (weights * (counts[1] - counts[0])).sum(axis=1).astype(float)
    value = total / (n_x * n_y)
    if measure.normalized:
        value = value / measure.total_mass
    return value


def old_placements(x, y, midrank):
    below = np.searchsorted(y.sorted_values, x.values, side="left").astype(float)
    if midrank:
        below += 0.5 * (np.searchsorted(y.sorted_values, x.values, side="right") - below)
    vx = below / y.n
    above = (x.n - np.searchsorted(x.sorted_values, y.values, side="right")).astype(float)
    if midrank:
        above += 0.5 * (np.searchsorted(x.sorted_values, y.values, side="right")
                        - np.searchsorted(x.sorted_values, y.values, side="left"))
    vy = above / x.n
    return vx, vy


def old_placement_parts(pairs, measure, midrank):
    n_dis = pairs[0][0].n_subjects
    n_non = pairs[0][1].n_subjects
    n_s = len(pairs)
    dev_x = np.zeros((n_s, n_dis))
    dev_y = np.zeros((n_s, n_non))
    m_tot = np.zeros(n_s)
    n_tot = np.zeros(n_s)
    for s, (x, y) in enumerate(pairs):
        vx, vy = old_placements(x, y, midrank)
        omega = old_stratum_wauc(x, y, measure, midrank)
        sum_x = np.bincount(x.subjects, weights=vx, minlength=n_dis)
        sum_y = np.bincount(y.subjects, weights=vy, minlength=n_non)
        dev_x[s] = sum_x - omega * x.counts
        dev_y[s] = sum_y - omega * y.counts
        m_tot[s] = x.n
        n_tot[s] = y.n
    sigma1 = (dev_x @ dev_x.T) * (n_dis / (n_dis - 1)) / np.outer(m_tot, m_tot)
    sigma2 = (dev_y @ dev_y.T) * (n_non / (n_non - 1)) / np.outer(n_tot, n_tot)
    return sigma1, sigma2


# -- the per-draw bootstrap -------------------------------------------------
#
# ``bootstrap_covariance`` used to rebuild a resampled dataset for every
# draw and score it with the estimator core.  That loop is kept here, as it
# was, as the reference for the bootstrap scored from multiplicities; it
# scores each resampled stratum with :func:`old_stratum_wauc`, so it calls
# no win count of the package.

def bootstrap_oracle(dataset, design, measure, n_boot, seed, *, midrank=False):
    if n_boot < 100:
        raise ValueError(f"need at least 100 bootstrap replicates, got {n_boot}")
    pairs, _ = old_stratum_pairs(dataset, design)
    n_dis = dataset.n_diseased
    n_non = dataset.n_nondiseased
    counts_d = np.array([x.counts for x, _ in pairs])
    counts_n = np.array([y.counts for _, y in pairs])
    draws = np.empty((n_boot, len(pairs)))
    n_redrawn = 0
    for b in range(n_boot):
        for attempt in range(_MAX_DRAWS):
            rng = np.random.default_rng((seed, b, attempt))
            idx_d = rng.integers(0, n_dis, n_dis)
            idx_n = rng.integers(0, n_non, n_non)
            if ((counts_d @ np.bincount(idx_d, minlength=n_dis)).all()
                    and (counts_n @ np.bincount(idx_n, minlength=n_non)).all()):
                break
            n_redrawn += 1
        else:
            raise WrocError(f"bootstrap could not draw a usable replicate in {_MAX_DRAWS} draws")
        resampled, _ = old_stratum_pairs(dataset.resample(idx_d, idx_n), design)
        draws[b] = [old_stratum_wauc(x, y, measure, midrank) for x, y in resampled]
    sigma = np.atleast_2d(np.cov(draws, rowvar=False, ddof=1))
    return CovarianceEstimate(sigma=sigma, sigma_diseased=None, sigma_nondiseased=None,
                              method="bootstrap", n_redrawn=n_redrawn)


# -- the scipy.stats normal formulas -------------------------------------
#
# The normal CDF, tail, quantile and density used to come from
# ``scipy.stats.norm``; the package now calls ``wroc._normal``.  These are
# the functions as they were, the reference that the new ones agree with to
# 1e-13, and the kernel density as one expression, the reference for its
# blocked form.

def old_kde_at(values, points, bandwidth):
    z = (points[:, None] - values[None, :]) / bandwidth
    return np.exp(-0.5 * z * z).sum(axis=1) / (values.size * bandwidth
                                                * math.sqrt(2.0 * math.pi))


def old_z_test(estimate, variance, alpha):
    """(z, p value, ci lower, ci upper) of the two-sided normal test."""
    se = float(np.sqrt(variance))
    z = (float(estimate) - 0.0) / se
    p = 2.0 * float(norm.sf(abs(z)))
    crit = float(norm.ppf(1.0 - alpha / 2.0))
    return z, p, float(estimate) - crit * se, float(estimate) + crit * se


def old_binormal_roc(u, mu_x, sd_x, mu_y, sd_y):
    return norm.cdf((mu_x - mu_y + sd_y * norm.ppf(u)) / sd_x)


def old_true_wauc(measure, mu_x, sd_x, mu_y, sd_y):
    if measure.kind == "full":
        value = float(norm.cdf((mu_x - mu_y) / math.hypot(sd_x, sd_y)))
    elif measure.kind == "pauc":
        value, _ = quad(old_binormal_roc, measure.lower, measure.upper,
                        args=(mu_x, sd_x, mu_y, sd_y), epsabs=1e-10, limit=200)
    else:
        value = sum(mass * float(old_binormal_roc(u, mu_x, sd_x, mu_y, sd_y))
                    for u, mass in measure.atoms)
    if measure.normalized:
        value /= measure.total_mass
    return float(value)


def old_baseline_parametric_auc(x_values, y_values):
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    sx2 = float(x.var(ddof=1))
    sy2 = float(y.var(ddof=1))
    spread = sx2 + sy2
    diff = float(x.mean() - y.mean())
    delta = diff / math.sqrt(spread)
    d_mu = 1.0 / math.sqrt(spread)
    d_var = -delta / (2.0 * spread)
    var_delta_hat = (d_mu ** 2 * (sx2 / x.size + sy2 / y.size)
                     + d_var ** 2 * (2.0 * sx2 ** 2 / (x.size - 1)
                                     + 2.0 * sy2 ** 2 / (y.size - 1)))
    dens = float(norm.pdf(delta))
    return float(norm.cdf(delta)), dens * dens * var_delta_hat


# -- the scenario layer as it restated the study layout --------------------
#
# ``table3_scenario`` spelled out the reader-study skeleton that
# ``table1_scenario`` builds, ``true_paired_delta`` paired markers by
# branching on the design's kind, and the public ``sample_mvn`` (since
# removed) wrote out the Cholesky draw that the generator's ``_draw`` makes.
# These are the functions as they were, the reference for equality with the
# versions that read the layout from the design.

def old_table3_scenario(rho: float, n: int, *, n_reps: int = DEFAULT_REPS,
                        seed: int = DEFAULT_SEED,
                        measures=DEFAULT_MEASURES,
                        weight_methods=("equal", "optimal")) -> ScenarioSpec:
    """Power scenario: reader 1 modality 1 separates strongly, so optimal
    weights concentrate there."""
    return ScenarioSpec(
        name=f"table3_rho{rho:g}_n{n}",
        family="normal",
        design=StudyDesign.readers(3),
        mu_diseased=(2.0, 1.0, 1.0, 1.0, 1.0, 1.0),
        mu_nondiseased=(0.0,) * 6,
        variances=(1.0, 1.5, 2.0, 2.0, 3.0, 2.0),
        rho_diseased=rho,
        rho_nondiseased=rho,
        cluster_sizes_diseased=(1, 1),
        cluster_sizes_nondiseased=(1, 1),
        n_diseased=n,
        n_nondiseased=n,
        n_reps=n_reps,
        seed=seed,
        measures=tuple(measures),
        weight_methods=tuple(weight_methods),
        correlation_scope="modality",
    )


def old_true_paired_delta(scenario: ScenarioSpec, measure: WeightMeasure) -> float:
    """Equal-weight population value of the paired wAUC difference.

    Every scenario here has time-invariant marginals, so per-time and pooled
    wAUCs share the same population value and equal weights lose nothing.
    """
    design = scenario.design
    pairs = design.n_pairs
    if design.kind == "readers":
        first = range(0, pairs)
        second = range(pairs, 2 * pairs)
    else:
        # both markers repeat over times; marker indices 0 and 1
        first = [0] * pairs
        second = [1] * pairs
    diffs = []
    for a, b in zip(first, second):
        omega_a = true_wauc(measure, scenario.mu_diseased[a], math.sqrt(scenario.variances[a]),
                            scenario.mu_nondiseased[a], math.sqrt(scenario.variances[a]))
        omega_b = true_wauc(measure, scenario.mu_diseased[b], math.sqrt(scenario.variances[b]),
                            scenario.mu_nondiseased[b], math.sqrt(scenario.variances[b]))
        diffs.append(omega_a - omega_b)
    return float(np.mean(diffs))


def old_sample_mvn(mu, cov, size: int, rng: np.random.Generator,
                   family: str = "normal") -> np.ndarray:
    """Draw ``size`` correlated vectors via the lower Cholesky factor applied
    to iid standard normals; lognormal draws exponentiate the result."""
    chol = np.linalg.cholesky(np.asarray(cov, dtype=float))
    draws = np.asarray(mu, dtype=float) + rng.standard_normal((size, chol.shape[0])) @ chol.T
    if family == "lognormal":
        draws = np.exp(draws)
    elif family != "normal":
        raise ValueError(f"family must be one of {_FAMILIES}, got {family!r}")
    return draws


# -- the pAUC and atoms covariance as a composition of helpers --------------
#
# The quadrature and atoms paths of ``sigma_matrix`` used to build each
# stratum's thresholds through the survival-curve objects, estimate both
# densities at every grid node (repeated thresholds included), sort the
# thresholds once per group side and stack the score columns per group.
# That composition is kept here, as it was, as the reference for bit equality
# of the one-pass form.

def _old_bandwidth(values):
    if values.size < 2:
        raise DegenerateDensityError("need at least 2 values for a density estimate")
    sd = float(values.std(ddof=1))
    q75, q25 = np.percentile(values, [75.0, 25.0])
    candidates = [c for c in (sd, float(q75 - q25) / 1.34) if c > 0.0]
    if not candidates:
        raise DegenerateDensityError("sample has zero spread, no usable bandwidth")
    h = 0.9 * min(candidates) * values.size ** (-0.2)
    if not h > 0.0:
        raise DegenerateDensityError(f"non-positive bandwidth {h}")
    return h


def _old_density_ratio_at(x, y, thresholds):
    hx = _old_bandwidth(x.values)
    hy = _old_bandwidth(y.values)
    f_dis = old_kde_at(x.values, thresholds, hx)
    f_non = old_kde_at(y.values, thresholds, hy)
    if np.any(f_non <= 0.0):
        bad = thresholds[np.argmax(f_non <= 0.0)]
        raise DegenerateDensityError(
            f"non-diseased density vanished at threshold {bad!r}")
    return f_dis / f_non


def _old_roc(x, y, u):
    thresholds = old_inverse_survival_many(y.sorted_values, u)
    return thresholds, _old_survival(x.sorted_values, thresholds)


def _old_score_sums(stratum, thresholds, weights, n_subjects):
    order = np.argsort(thresholds, kind="stable")
    cumulative = np.concatenate(([0.0], np.cumsum(weights[order])))
    below = np.searchsorted(thresholds[order], stratum.values, side="left")
    return np.bincount(stratum.subjects, weights=cumulative[below], minlength=n_subjects)


def _old_gram_part(strata, thresholds, weights, means, n_subjects):
    scores = np.column_stack([_old_score_sums(st, t, w, n_subjects)
                              for st, t, w in zip(strata, thresholds, weights)])
    counts = np.column_stack([st.counts for st in strata])
    sizes = np.array([st.n for st in strata], dtype=float)
    centre = (counts.T @ counts) * np.outer(means, means)
    return (scores.T @ scores - centre) / np.outer(sizes, sizes)


def old_integral_parts(pairs, u_nodes, u_weights):
    """The (diseased, non-diseased) parts on the grid ``(u_nodes, u_weights)``."""
    xs, ys = zip(*pairs)
    thresholds = []
    mean_dis = np.empty(len(pairs))
    ratio_weights = []
    for s, (x, y) in enumerate(pairs):
        t, roc = _old_roc(x, y, u_nodes)
        thresholds.append(t)
        mean_dis[s] = u_weights @ roc
        ratio_weights.append(u_weights * _old_density_ratio_at(x, y, t))
    mean_non = np.array([w @ u_nodes for w in ratio_weights])
    sigma1 = _old_gram_part(xs, thresholds, [u_weights] * len(xs), mean_dis, xs[0].n_subjects)
    sigma2 = _old_gram_part(ys, thresholds, ratio_weights, mean_non, ys[0].n_subjects)
    return sigma1, sigma2


def old_integral_grid(measure, n_nodes=64):
    """``(u_nodes, u_weights)`` of a pauc or atomic measure."""
    if measure.kind == "pauc":
        glx, glw = np.polynomial.legendre.leggauss(n_nodes)
        half = 0.5 * (measure.upper - measure.lower)
        mid = 0.5 * (measure.upper + measure.lower)
        return mid + half * glx, half * glw
    return (np.asarray([u for u, _ in measure.atoms]),
            np.asarray([m for _, m in measure.atoms]))


def old_integral_sigma(dataset, design, measure, n_nodes=64):
    """``(sigma_diseased, sigma_nondiseased, repaired)`` of ``sigma_matrix``
    on a pauc or atomic measure, through :func:`old_integral_parts`."""
    pairs, _ = old_stratum_pairs(dataset, design)
    sigma1, sigma2 = old_integral_parts(pairs, *old_integral_grid(measure, n_nodes))
    if measure.normalized:
        sigma1 = sigma1 / measure.total_mass ** 2
        sigma2 = sigma2 / measure.total_mass ** 2
    sigma1, repaired1 = _repair_part(sigma1)
    sigma2, repaired2 = _repair_part(sigma2)
    return sigma1, sigma2, repaired1 or repaired2


# -- the per-stratum loop ---------------------------------------------------
#
# ``wauc_vector`` and both analytic covariance paths used to score a
# design's strata one at a time, in a Python loop over the stratum pairs:
# one estimate per pair, and in ``_placement_parts`` and ``_integral_parts``
# one win count, bandwidth, kernel density estimate and ``bincount`` per
# stratum and group.  Those kernels are kept here, as they were, as the
# reference for bit equality of the pass over stratum blocks.

OLD_LOOP_MAX_RANK_N = 10_000_000
OLD_LOOP_KDE_BLOCK_ENTRIES = 1 << 12


def _old_loop_rank(u, n):
    largest = n.max(initial=0) if isinstance(n, np.ndarray) else n
    if largest > OLD_LOOP_MAX_RANK_N:
        raise ValueError(f"the rank rule is exact for at most {OLD_LOOP_MAX_RANK_N:,} values "
                         f"a stratum, got {int(largest):,}")
    return np.ceil((1.0 - np.asarray(u, dtype=float)) * n - OLD_INDEX_GUARD).astype(np.intp)


def _old_loop_threshold_rows(u, n):
    u = np.asarray(u, dtype=float)
    bad = ~((u > 0.0) & (u <= 1.0))
    if bad.any():
        raise ValueError("false-positive rate must be in (0, 1], "
                         f"got {float(u.flat[np.argmax(bad)])}")
    return np.maximum(_old_loop_rank(u, n), 1) - 1


def _old_loop_roc_at(x, y, rows):
    thresholds = y.sorted_values[rows]
    above = x.n - np.searchsorted(x.sorted_values, thresholds, side="right")
    return thresholds, above / x.n


def old_loop_wins(values, ordered, measure, midrank):
    n_y = ordered.size
    window = measure.kind == "pauc"
    if window:
        hi, lo = _old_loop_rank(measure.upper, n_y), _old_loop_rank(measure.lower, n_y)

    def positions(side):
        pos = np.searchsorted(ordered, values, side=side)
        return np.minimum(np.maximum(pos, hi), lo) - hi if window else pos

    wins = positions("left")
    if midrank:
        return wins + 0.5 * (positions("right") - wins)
    return wins


def old_loop_stratum_wauc(x, y, measure, midrank):
    if midrank and measure.is_atomic:
        raise ValueError(f"midrank applies to auc and pauc measures, not {measure.selector()}")
    if measure.is_atomic:
        rows = _old_loop_threshold_rows([u for u, _ in measure.atoms], y.n)
        _, roc = _old_loop_roc_at(x, y, rows)
        value = sum(mass * r for (_, mass), r in zip(measure.atoms, roc))
    else:
        value = old_loop_wins(x.values, y.sorted_values, measure, midrank).sum() / (x.n * y.n)
    if measure.normalized:
        value /= measure.total_mass
    return float(value)


def old_loop_wauc_vector(dataset, design, measure, midrank=False):
    pairs, labels = old_stratum_pairs(dataset, design)
    values = [old_loop_stratum_wauc(x, y, measure, midrank) for x, y in pairs]
    return WaucVector(np.asarray(values), labels)


def _old_loop_quantile(ordered, q):
    last = ordered.size - 1
    if math.isnan(ordered[last]):
        return math.nan
    pos = last * q
    lo = min(math.floor(pos), last)
    a, b = float(ordered[lo]), float(ordered[min(lo + 1, last)])
    t = pos - lo
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def old_loop_bandwidth(values, ordered):
    n = values.size
    if n < 2:
        raise DegenerateDensityError("need at least 2 values for a density estimate")
    dev = values - np.add.reduce(values, axis=None) / n
    np.square(dev, out=dev)
    sd = math.sqrt(np.add.reduce(dev, axis=None) / (n - 1))
    iqr = _old_loop_quantile(ordered, 0.75) - _old_loop_quantile(ordered, 0.25)
    candidates = [c for c in (sd, iqr / 1.34) if c > 0.0]
    if not candidates:
        raise DegenerateDensityError("sample has zero spread, no usable bandwidth")
    h = 0.9 * min(candidates) * n ** (-0.2)
    if not h > 0.0:
        raise DegenerateDensityError(f"non-positive bandwidth {h}")
    return h


def old_loop_kde_at(values, points, bandwidth):
    rows = max(1, min(points.size, OLD_LOOP_KDE_BLOCK_ENTRIES // values.size))
    z = np.empty((rows, values.size))
    work = np.empty_like(z)
    sums = np.empty(points.size)
    for start in range(0, points.size, rows):
        block = points[start:start + rows]
        z_b, work_b = z[:block.size], work[:block.size]
        np.subtract(block[:, None], values, z_b)
        z_b /= bandwidth
        np.multiply(z_b, -0.5, work_b)
        work_b *= z_b
        np.exp(work_b, work_b)
        work_b.sum(axis=1, out=sums[start:start + rows])
    sums /= values.size * bandwidth * math.sqrt(2.0 * math.pi)
    return sums


def _old_loop_density_ratio_at(x, y, thresholds):
    hx = old_loop_bandwidth(x.values, x.sorted_values)
    hy = old_loop_bandwidth(y.values, y.sorted_values)
    f_dis = old_loop_kde_at(x.values, thresholds, hx)
    f_non = old_loop_kde_at(y.values, thresholds, hy)
    if np.any(f_non <= 0.0):
        bad = thresholds[np.argmax(f_non <= 0.0)]
        raise DegenerateDensityError(
            f"non-diseased density vanished at threshold {bad!r}")
    return f_dis / f_non


def old_loop_placement_parts(pairs, measure, midrank):
    n_dis = pairs[0][0].n_subjects
    n_non = pairs[0][1].n_subjects
    n_s = len(pairs)
    dev_x = np.zeros((n_s, n_dis))
    dev_y = np.zeros((n_s, n_non))
    m_tot = np.zeros(n_s)
    n_tot = np.zeros(n_s)
    for s, (x, y) in enumerate(pairs):
        wins_x = old_loop_wins(x.values, y.sorted_values, measure, midrank)
        wins_y = old_loop_wins(-y.values, -x.sorted_values[::-1], measure, midrank)
        omega = wins_x.sum() / (x.n * y.n)
        sum_x = np.bincount(x.subjects, weights=wins_x / y.n, minlength=n_dis)
        sum_y = np.bincount(y.subjects, weights=wins_y / x.n, minlength=n_non)
        dev_x[s] = sum_x - omega * x.counts
        dev_y[s] = sum_y - omega * y.counts
        m_tot[s] = x.n
        n_tot[s] = y.n
    sigma1 = (dev_x @ dev_x.T) * (n_dis / (n_dis - 1)) / np.outer(m_tot, m_tot)
    sigma2 = (dev_y @ dev_y.T) * (n_non / (n_non - 1)) / np.outer(n_tot, n_tot)
    return sigma1, sigma2


def _old_loop_rank_plan(u_nodes, n):
    rows = _old_loop_threshold_rows(u_nodes, n)
    first = np.empty(rows.size, dtype=bool)
    first[:1] = True
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    return rows, rows[first], np.cumsum(first) - 1


def _old_loop_gram_part(scores, counts, means, sizes):
    centre = (counts.T @ counts) * np.outer(means, means)
    return (scores.T @ scores - centre) / np.outer(sizes, sizes)


def old_loop_integral_parts(pairs, measure):
    u_nodes, u_weights = old_integral_grid(measure)
    n_s = len(pairs)
    groups = []
    for st in pairs[0]:
        groups.append((np.empty((st.n_subjects, n_s)),
                       np.empty((st.n_subjects, n_s), dtype=st.counts.dtype),
                       np.empty(n_s), np.empty(n_s)))
    cumulative = np.zeros(u_nodes.size + 1)
    for s, (x, y) in enumerate(pairs):
        rows, distinct, inverse = _old_loop_rank_plan(u_nodes, y.n)
        thresholds, roc = _old_loop_roc_at(x, y, rows)
        ratio = _old_loop_density_ratio_at(x, y, y.sorted_values[distinct])
        ratio_weights = u_weights * ratio[inverse]
        order = np.argsort(thresholds, kind="stable")
        ordered = thresholds[order]
        for st, weights, mean, (scores, counts, means, sizes) in (
                (x, u_weights, u_weights @ roc, groups[0]),
                (y, ratio_weights, ratio_weights @ u_nodes, groups[1])):
            np.cumsum(weights[order], out=cumulative[1:])
            below = np.searchsorted(ordered, st.values, side="left")
            scores[:, s] = np.bincount(st.subjects, weights=cumulative[below],
                                       minlength=st.n_subjects)
            counts[:, s] = st.counts
            means[s] = mean
            sizes[s] = st.n
    return tuple(_old_loop_gram_part(*group) for group in groups)


def old_loop_sigma_matrix(dataset, design, measure, *, midrank=False):
    if dataset.n_diseased < 2 or dataset.n_nondiseased < 2:
        raise ValueError("analytic covariance needs at least 2 subjects per group")
    if midrank and measure.is_atomic:
        raise ValueError(f"midrank applies to auc and pauc measures, not {measure.selector()}")
    pairs, _ = old_stratum_pairs(dataset, design)
    if measure.kind == "full":
        sigma1, sigma2 = old_loop_placement_parts(pairs, measure, midrank)
        method = "placement"
    else:
        sigma1, sigma2 = old_loop_integral_parts(pairs, measure)
        method = "quadrature" if measure.kind == "pauc" else "atoms"
    if measure.normalized:
        scale = measure.total_mass ** 2
        sigma1 = sigma1 / scale
        sigma2 = sigma2 / scale
    sigma1, repaired1 = _repair_part(sigma1)
    sigma2, repaired2 = _repair_part(sigma2)
    return CovarianceEstimate(sigma=sigma1 + sigma2, sigma_diseased=sigma1,
                              sigma_nondiseased=sigma2, method=method,
                              repaired=repaired1 or repaired2)


# -- the contrast layer before it was cut to the linear pair contrast -----

OLD_GRADIENT_STEP = 1e-6


@dataclass(frozen=True)
class OldContrastFunction:
    """A scalar summary h of the wAUC vector, with its gradient: linear
    (explicit coefficients) or smooth (a callable, gradient optional and
    otherwise taken by central differences)."""

    kind: str                                   # "linear" | "smooth"
    coefficients: tuple[float, ...] | None = None
    func: Callable[[np.ndarray], float] | None = None
    grad: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind == "linear":
            if not self.coefficients:
                raise ValueError("linear contrast needs coefficients")
            object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        elif self.kind == "smooth":
            if self.func is None:
                raise ValueError("smooth contrast needs a callable")
        else:
            raise ValueError(f"unknown contrast kind: {self.kind!r}")

    @classmethod
    def linear(cls, coefficients: Sequence[float]) -> "OldContrastFunction":
        return cls(kind="linear", coefficients=tuple(coefficients))

    def value(self, omega: np.ndarray) -> float:
        omega = np.asarray(omega, dtype=float)
        if self.kind == "linear":
            coef = np.asarray(self.coefficients)
            if coef.shape != omega.shape:
                raise ValueError(
                    f"contrast length {coef.size} does not match wAUC vector length {omega.size}"
                )
            return float(coef @ omega)
        return float(self.func(omega))

    def gradient(self, omega: np.ndarray) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        if self.kind == "linear":
            coef = np.asarray(self.coefficients)
            if coef.shape != omega.shape:
                raise ValueError(
                    f"contrast length {coef.size} does not match wAUC vector length {omega.size}"
                )
            return coef.copy()
        if self.grad is not None:
            out = np.asarray(self.grad(omega), dtype=float)
            if out.shape != omega.shape:
                raise ValueError("user gradient has wrong shape")
            return out
        out = np.empty_like(omega)
        for i in range(omega.size):
            hi = omega.copy()
            lo = omega.copy()
            hi[i] += OLD_GRADIENT_STEP
            lo[i] -= OLD_GRADIENT_STEP
            out[i] = (self.func(hi) - self.func(lo)) / (2.0 * OLD_GRADIENT_STEP)
        return out


def old_pair_contrast(weights):
    """The pair contrast of a ``WeightVector`` as an :class:`OldContrastFunction`."""
    w = weights.weights / weights.weights.sum()
    return OldContrastFunction.linear(np.concatenate([w, -w]))


def old_variance_delta(cov, contrast, omega=None):
    """``(total, diseased, nondiseased)`` delta-method variance of an
    :class:`OldContrastFunction`."""
    if isinstance(cov, CovarianceEstimate):
        sigma = cov.sigma
        parts = (cov.sigma_diseased, cov.sigma_nondiseased)
    else:
        sigma = np.asarray(cov, dtype=float)
        parts = (None, None)
    if contrast.kind == "linear":
        grad = np.asarray(contrast.coefficients, dtype=float)
    else:
        if omega is None:
            raise ValueError("smooth contrasts need the wAUC vector to differentiate at")
        values = omega.values if isinstance(omega, WaucVector) else np.asarray(omega, float)
        grad = contrast.gradient(values)
    if grad.size != sigma.shape[0]:
        raise ValueError(
            f"gradient length {grad.size} does not match covariance dimension {sigma.shape[0]}")
    total = float(grad @ sigma @ grad)
    part_d = float(grad @ parts[0] @ grad) if parts[0] is not None else None
    part_n = float(grad @ parts[1] @ grad) if parts[1] is not None else None
    return total, part_d, part_n


def old_delta_m(omega, weights):
    """Weighted pair-averaged wAUC difference over a ``WeightVector``."""
    omega = np.asarray(omega.values if isinstance(omega, WaucVector) else omega, dtype=float)
    k = weights.n_pairs
    if omega.size != 2 * k:
        raise ValueError(f"wAUC vector length {omega.size} does not match {k} pairs")
    diffs = omega[:k] - omega[k:]
    w = weights.weights
    return float((w @ diffs) / w.sum())
