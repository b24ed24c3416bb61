"""Covariance estimators: placement path, quadrature path, bootstrap."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import norm

from wroc import covariance
from wroc.covariance import (
    bootstrap_covariance,
    contrast_covariance,
    sigma_matrix,
)
from wroc.designs import StudyDesign
from wroc.errors import DegenerateDensityError, WrocError
from wroc.estimators import wauc_vector
from wroc.measures import WeightMeasure
from wroc.simulation import generate_dataset, replicate_rng, table4_scenario

from conftest import clustered_dataset, paired_dataset, singles_dataset
from oracles import (
    delong_variance_oracle,
    integral_covariance_oracle,
    old_kde_at,
    old_stratum_pairs,
)

FULL = WeightMeasure.full_auc()
PAUC = WeightMeasure.partial_auc(0.0, 0.6)


# -- placement path ------------------------------------------------------


def test_single_marker_variance_equals_delong():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(4, 20))
        n = int(rng.integers(4, 20))
        x = np.round(rng.normal(0.7, 1.0, m), 1)
        y = np.round(rng.normal(0.0, 1.0, n), 1)
        ds = singles_dataset(x, y)
        est = sigma_matrix(ds, None, FULL, midrank=True)
        worst = max(worst, abs(est.sigma[0, 0] - delong_variance_oracle(x, y)))
    assert worst <= 1e-12


def test_parts_sum_exactly():
    rng = np.random.default_rng(12)
    ds = paired_dataset([rng.normal(1, 1, 25) for _ in range(4)],
                        [rng.normal(0, 1, 30) for _ in range(4)])
    est = sigma_matrix(ds, StudyDesign.readers(2), FULL)
    assert est.sigma_diseased is not None
    np.testing.assert_array_equal(
        est.sigma, est.sigma_diseased + est.sigma_nondiseased)
    np.testing.assert_array_equal(est.sigma, est.sigma.T)


def test_psd_after_repair():
    rng = np.random.default_rng(13)
    ds = paired_dataset([rng.normal(1, 1, 12) for _ in range(6)],
                        [rng.normal(0, 1, 12) for _ in range(6)])
    est = sigma_matrix(ds, StudyDesign.readers(3), FULL)
    eigvals = np.linalg.eigvalsh(est.sigma)
    assert eigvals.min() >= -1e-8 * max(est.sigma.diagonal().max(), 1e-300)


def test_independent_markers_nearly_uncorrelated():
    rng = np.random.default_rng(14)
    ds = paired_dataset([rng.normal(1, 1, 400), rng.normal(1, 1, 400)],
                        [rng.normal(0, 1, 400), rng.normal(0, 1, 400)])
    est = sigma_matrix(ds, None, FULL)
    off = est.sigma[0, 1]
    assert abs(off) <= 0.3 * math.sqrt(est.sigma[0, 0] * est.sigma[1, 1])


def test_monotone_transform_leaves_placement_sigma_unchanged():
    rng = np.random.default_rng(15)
    x = rng.normal(1, 1, (20, 2))
    y = rng.normal(0, 1, (24, 2))
    ds = paired_dataset([x[:, 0], x[:, 1]], [y[:, 0], y[:, 1]])
    dt = paired_dataset([np.exp(x[:, 0]), np.exp(x[:, 1])],
                        [np.exp(y[:, 0]), np.exp(y[:, 1])])
    a = sigma_matrix(ds, StudyDesign.readers(1), FULL)
    b = sigma_matrix(dt, StudyDesign.readers(1), FULL)
    np.testing.assert_array_equal(a.sigma, b.sigma)


def test_needs_two_subjects_per_group():
    ds = singles_dataset([1.0], [0.0, 0.5])
    with pytest.raises(ValueError):
        sigma_matrix(ds, None, FULL)


def test_normalized_measure_scales_covariance():
    rng = np.random.default_rng(16)
    ds = paired_dataset([rng.normal(1, 1, 40)], [rng.normal(0, 1, 40)])
    raw = sigma_matrix(ds, None, PAUC)
    norm_est = sigma_matrix(ds, None,
                            WeightMeasure.partial_auc(0.0, 0.6, normalized=True))
    np.testing.assert_allclose(norm_est.sigma, raw.sigma / 0.6 ** 2, rtol=1e-12)


# -- the placement parts' eigenvalue check --------------------------------

# where the placement parts' rounding bound lets the check be skipped
SKIP_BELOW = 0.1 * covariance.PSD_EIGENVALUE_TOLERANCE


def _unequal_clusters(rng, n_subjects, shift, cells, tied):
    """One to four values a cell, on a half grid when ``tied``."""
    def draw():
        values = rng.normal(shift, 1.0, int(rng.integers(1, 5)))
        return tuple(np.round(2 * values) / 2 if tied else values)

    return [{cell: draw() for cell in cells} for _ in range(n_subjects)]


@pytest.mark.parametrize("midrank", [False, True], ids=["strict", "midrank"])
@pytest.mark.parametrize("design", [StudyDesign.readers(3), StudyDesign.longitudinal(4), None],
                         ids=["readers:3", "longitudinal:4", "pooled"])
def test_placement_parts_skip_a_check_that_cannot_fire(design, midrank, monkeypatch):
    """On random clustered data with unequal clusters every placement part
    skips the check, comes back symmetric and unrepaired, and has no
    eigenvalue below -1e-12 times its largest diagonal entry."""
    checked = []
    monkeypatch.setattr(covariance, "_repair_part",
                        lambda part: checked.append(part) or (part, False))
    n_markers, n_times = (6, 1) if design is None or design.kind == "readers" else (2, 4)
    cells = [(m, t) for m in range(1, n_markers + 1) for t in range(1, n_times + 1)]
    rng = np.random.default_rng(31)
    for trial in range(30):
        n_d, n_h = (int(n) for n in rng.integers(2, 30, 2))
        ds = clustered_dataset(_unequal_clusters(rng, n_d, 0.8, cells, trial % 2),
                               _unequal_clusters(rng, n_h, 0.0, cells, trial % 2),
                               n_markers=n_markers, n_times=n_times)
        est = sigma_matrix(ds, design, FULL, midrank=midrank)
        assert not est.repaired
        for part, n in ((est.sigma_diseased, n_d), (est.sigma_nondiseased, n_h)):
            assert covariance._placement_rounding(len(part), n) < SKIP_BELOW
            assert np.array_equal(part, part.T)
            assert np.linalg.eigvalsh(part).min() >= -1e-12 * part.diagonal().max()
    assert checked == []


@pytest.mark.parametrize("k, n", [(8, 5), (6, 3), (12, 40), (3, 200)])
def test_rounding_bound_holds_on_singular_grams(k, n):
    """Placement parts of rank below ``k`` (sums from fewer rows than
    strata, or fewer subjects than strata) over uneven stratum sizes: the
    smallest eigenvalue ``eigvalsh`` finds of the symmetrised part is never
    below the bound times the largest diagonal entry."""
    rng = np.random.default_rng(k * n)
    bound = covariance._placement_rounding(k, n)
    for _ in range(50):
        rank = int(rng.integers(1, min(k, n)))
        sums = rng.normal(size=(k, rank)) @ rng.normal(size=(rank, n))
        counts = rng.integers(1, 5, (k, n))
        sizes = rng.integers(1, 1000, k).astype(float)
        part = covariance._centred_gram(sums, counts, np.zeros(k), sizes)
        sym = 0.5 * (part + part.T)
        assert np.linalg.eigvalsh(sym).min() >= -bound * sym.diagonal().max()


def test_check_still_runs_above_the_bound(monkeypatch):
    """The bound depends on the strata ``k`` and subjects ``n`` alone, so a
    part too large for it is tried on a small matrix: above the bound the
    part goes through the check, below it skips with the same result."""
    assert covariance._placement_rounding(6, 50) < SKIP_BELOW
    assert covariance._placement_rounding(6, 2_000_000) >= SKIP_BELOW
    assert covariance._placement_rounding(3000, 50) >= SKIP_BELOW
    assert covariance._placement_rounding(1, 2 ** 53) == math.inf
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    part = np.array([[2.0, 1.0 + 2e-16], [1.0, 2.0]])
    skipped = covariance._placement_part(part, 50)
    assert calls == []
    assert covariance._placement_rounding(2, 10_000_000) >= SKIP_BELOW
    checked = covariance._placement_part(part, 10_000_000)
    assert calls == [(2, 2)]
    assert skipped[1] is checked[1] is False
    symmetrised = covariance._repair_part(part)[0].tobytes()
    assert skipped[0].tobytes() == checked[0].tobytes() == symmetrised


def test_quadrature_and_atoms_parts_still_reach_the_check(monkeypatch):
    reached = []
    repair = covariance._repair_part
    monkeypatch.setattr(covariance, "_repair_part",
                        lambda part: reached.append(part.shape) or repair(part))
    rng = np.random.default_rng(32)
    ds = paired_dataset([rng.normal(1, 1, 20) for _ in range(4)],
                        [rng.normal(0, 1, 25) for _ in range(4)])
    design = StudyDesign.readers(2)
    sigma_matrix(ds, design, FULL)
    assert reached == []
    sigma_matrix(ds, design, PAUC)
    assert reached == [(4, 4)] * 2
    sigma_matrix(ds, design, WeightMeasure.point_mass(0.2))
    assert reached == [(4, 4)] * 4


# -- density ratio -------------------------------------------------------


def _density_ratio(ds, thresholds):
    """The kernel density ratio of marker 1 at ``thresholds``, as the
    quadrature and atoms paths weight their non-diseased scores with it."""
    x, y = old_stratum_pairs(ds, None)[0][0]
    return covariance._density_ratio_at(x, y, np.asarray(thresholds, dtype=float))


def _bandwidth(values):
    v = np.asarray(values, dtype=float)[None]
    return covariance._bandwidth(v, np.sort(v, axis=1))[0]


def _kde_at(values, points, bandwidth):
    """One stratum's kernel density estimate, which must be the same
    through the block form, as a block's one row."""
    got = covariance._kde_at(values, points, np.array(bandwidth))
    row = covariance._kde_at(values[None], points[None], np.array([bandwidth]))[0]
    assert got.tobytes() == row.tobytes()
    return got


def test_density_ratio_same_distribution_near_one(rng):
    ds = singles_dataset(rng.normal(size=3000), rng.normal(size=3000))
    vals = _density_ratio(ds, norm.ppf([0.7, 0.5, 0.3]))
    np.testing.assert_allclose(vals, 1.0, atol=0.15)


def test_density_ratio_binormal_shift(rng):
    # X ~ N(1,1), Y ~ N(0,1): threshold for rate u is z_u = Phi^-1(1-u),
    # so the ratio is phi(z_u - 1)/phi(z_u) = exp(z_u - 1/2), growing
    # without bound as u -> 0
    x = rng.normal(1.0, 1.0, 4000)
    y = rng.normal(0.0, 1.0, 4000)
    ds = singles_dataset(x, y)
    for u in (0.2, 0.4, 0.6):
        z = norm.ppf(1.0 - u)
        want = math.exp(z - 0.5)
        got = float(_density_ratio(ds, [z])[0])
        assert abs(got - want) <= 0.2 * want


def test_density_ratio_degenerate():
    ds = singles_dataset([2.0] * 10, list(range(10)))
    with pytest.raises(DegenerateDensityError):
        _density_ratio(ds, [0.5])


@pytest.mark.parametrize("n", [1, 7, 64, 65, 200, 256, 257, 1000, 4000, 4097])
def test_blocked_kde_is_the_one_expression_bitwise(n):
    """One block up to 64 values at 64 points, several above, one row a
    block above 4096 values; every row still sums whole, so the bits match
    the single expression."""
    rng = np.random.default_rng(n)
    values = rng.normal(size=n)
    tied = np.round(values * 2.0) / 2.0
    points = np.concatenate([rng.normal(size=63), values[:1]])
    for vals in (values, tied):
        for pts in (points, points[:5], points[:1]):
            got = _kde_at(vals, pts, 0.31)
            assert got.tobytes() == old_kde_at(vals, pts, 0.31).tobytes()


@pytest.mark.parametrize("rows, n_points, n, passes", [
    (6, 58, 200, 1),
    (6, 64, 400, 2),
    (1, 64, 4097, 3),
    (1, 2, (1 << 17) + 1, 2),
], ids=["one-pass", "rows-a-pass", "point-slices", "row-over-cap"])
def test_block_kde_routes_are_the_one_expression_bitwise(rows, n_points, n, passes):
    """Every route of the kernel sums: a table4-sized block in one pass, a
    block over the work buffer's cap cut into sets of whole rows, one row
    too long for all its points at once cut into point slices, and a row
    longer than the cap, one point a slice in a buffer of its own.  Each
    row is its own single expression, bit for bit."""
    rng = np.random.default_rng(n)
    values = rng.normal(size=(rows, n))
    values[:, ::3] = np.round(values[:, ::3] * 2.0) / 2.0
    points = rng.normal(size=(rows, n_points))
    points[:, 0] = values[:, 0]
    bandwidth = rng.uniform(0.2, 0.5, rows)
    plan = covariance._kde_slices(points.shape, n)
    assert sum(len(cuts) for _, _, cuts in plan) == passes
    got = covariance._kde_at(values, points, bandwidth)
    for r in range(rows):
        assert got[r].tobytes() == old_kde_at(values[r], points[r], bandwidth[r]).tobytes()


def _in_threads(*targets):
    """Runs each target in its own thread, switching between them often,
    and checks that all of them finished."""
    threads = [threading.Thread(target=target) for target in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_pauc_sigma_from_two_threads_is_the_sequential_one():
    """Each thread works in its own KDE buffer: two threads computing
    table4 pAUC covariances side by side get the bytes of sequential runs."""
    scenario = table4_scenario(50, "normal")
    datasets = [generate_dataset(scenario, replicate_rng(scenario.seed, rep)) for rep in (0, 1)]
    want = [sigma_matrix(ds, scenario.design, PAUC).sigma.tobytes() for ds in datasets]
    got = [[], []]

    def run(slot):
        for _ in range(50):
            got[slot].append(sigma_matrix(datasets[slot], scenario.design, PAUC).sigma.tobytes())

    _in_threads(lambda: run(0), lambda: run(1))
    assert got == [[want[0]] * 50, [want[1]] * 50]


def test_bootstrap_from_two_threads_is_the_sequential_one():
    """Two threads bootstrapping table4 pAUC covariances side by side, one
    from a one-word seed and one from a three-word seed, get the bytes of
    sequential runs; the PCG64 maker is built afresh while they run."""
    scenario = table4_scenario(50, "normal")
    jobs = [(generate_dataset(scenario, replicate_rng(scenario.seed, rep)), seed)
            for rep, seed in ((0, 1), (1, 2**64 + 1))]
    want = [bootstrap_covariance(ds, scenario.design, PAUC, 200, seed).sigma.tobytes()
            for ds, seed in jobs]
    covariance._pcg64_from_state.cache_clear()
    got = [[], []]

    def run(slot):
        ds, seed = jobs[slot]
        for _ in range(10):
            got[slot].append(
                bootstrap_covariance(ds, scenario.design, PAUC, 200, seed).sigma.tobytes())

    _in_threads(lambda: run(0), lambda: run(1))
    assert got == [[want[0]] * 10, [want[1]] * 10]


def test_kde_work_buffer_stays_within_its_cap():
    """Strata of 2,000 values a group (6 of them, as on a large reader CSV)
    are cut into slices, so one call's kernel sums take a buffer of 1 MB
    (the whole block at once would take about 6 MB) and the call peaks not
    far above it."""
    rng = np.random.default_rng(17)
    ds = paired_dataset([rng.normal(1.0, 1.0, 2000) for _ in range(6)],
                        [rng.normal(0.0, 1.0, 2000) for _ in range(6)])
    design = StudyDesign.readers(3)
    sigma_matrix(ds, design, PAUC)   # fills the plan caches first
    tracemalloc.start()
    try:
        sigma_matrix(ds, design, PAUC)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert covariance._KDE_BLOCK_ENTRIES * 8 <= peak < 1.25 * 2**20


def test_silverman_bandwidth_basics():
    assert _bandwidth([1.0, 2.0, 3.0, 4.0]) > 0
    with pytest.raises(DegenerateDensityError):
        _bandwidth([5.0])
    with pytest.raises(DegenerateDensityError):
        _bandwidth([3.0, 3.0, 3.0])


def _percentile_bandwidth(values):
    """The bandwidth as it was computed with ``np.percentile``, or the
    error it raised."""
    v = np.asarray(values, dtype=float)
    sd = float(v.std(ddof=1))
    q75, q25 = np.percentile(v, [75.0, 25.0])
    candidates = [c for c in (sd, float(q75 - q25) / 1.34) if c > 0.0]
    h = 0.9 * min(candidates) * v.size ** (-0.2) if candidates else 0.0
    return h if h > 0.0 else DegenerateDensityError


_samples = hnp.arrays(
    float, st.integers(min_value=2, max_value=40),
    elements=st.one_of(st.floats(min_value=-1e6, max_value=1e6),
                       st.sampled_from([0.0, -0.0, 1.0, 1.5, math.inf, -math.inf, math.nan]),
                       st.floats(width=64)))


@given(_samples)
@settings(deadline=None, max_examples=400)
def test_quartiles_by_index_are_numpys_percentile(values):
    ordered = np.sort(values)
    with np.errstate(invalid="ignore", over="ignore"):
        got = np.array(covariance._quantile(ordered[None], (0.75, 0.25, 0.0, 0.5, 1.0))[0])
        want = np.percentile(values, [75.0, 25.0, 0.0, 50.0, 100.0])
        try:
            h = _bandwidth(values)
        except DegenerateDensityError:
            h = DegenerateDensityError
        assert h == _percentile_bandwidth(values)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    # bit for bit, but + 0.0: numpy's partition may put a -0.0 where the sort
    # puts a 0.0, which only flips the sign of a zero quartile
    assert (got[~nan] + 0.0).tobytes() == (want[~nan] + 0.0).tobytes()


# -- quadrature path -----------------------------------------------------


def test_pauc_sigma_symmetric_and_decomposed():
    rng = np.random.default_rng(18)
    ds = paired_dataset([rng.normal(1, 1, 60) for _ in range(2)],
                        [rng.normal(0, 1, 60) for _ in range(2)])
    est = sigma_matrix(ds, StudyDesign.readers(1), PAUC)
    assert est.method == "quadrature"
    np.testing.assert_allclose(est.sigma, est.sigma.T, atol=1e-10)
    np.testing.assert_array_equal(
        est.sigma, est.sigma_diseased + est.sigma_nondiseased)
    assert np.all(np.isfinite(est.sigma))
    assert est.sigma[0, 0] > 0


def _tied_cells(rng, n_subjects, shift, n_markers, n_times, missing):
    """Cells with 1-3 replicates rounded to halves; subject 1 lacks the
    ``missing`` cells."""
    subjects = []
    for i in range(n_subjects):
        cells = {}
        for marker in range(1, n_markers + 1):
            for time in range(1, n_times + 1):
                if i == 0 and (marker, time) in missing:
                    continue
                size = int(rng.integers(1, 4))
                cells[(marker, time)] = tuple(np.round(2 * rng.normal(shift, 1, size)) / 2)
        subjects.append(cells)
    return subjects


@pytest.mark.parametrize("measure", [PAUC, WeightMeasure.point_mass(0.2)],
                         ids=["pauc:0,0.6", "sens:0.2"])
@pytest.mark.parametrize("layout", ["pooled", "longitudinal"])
def test_integral_sigma_matches_pair_oracle(measure, layout, monkeypatch):
    # the PSD repair fires on most datasets this small and unevenly
    # clustered; compare the parts it starts from
    monkeypatch.setattr(covariance, "_repair_part", lambda part: (part, False))
    rng = np.random.default_rng(21)
    if layout == "pooled":
        # two strata, each marker pooled over two times
        design, n_subjects = None, (4, 4)
        empty, missing = (2, None), {(2, 1), (2, 2)}
    else:
        # one stratum per marker and time
        design, n_subjects = StudyDesign.longitudinal(2), (6, 5)
        empty, missing = (2, 2), {(2, 2)}
    ds = clustered_dataset(_tied_cells(rng, n_subjects[0], 1.0, 2, 2, missing),
                           _tied_cells(rng, n_subjects[1], 0.0, 2, 2, missing),
                           n_markers=2, n_times=2)
    # subject 1 of each group has no values in stratum ``empty``
    assert ds.stratum("diseased", *empty).counts[0] == 0
    assert ds.stratum("nondiseased", *empty).counts[0] == 0
    est = sigma_matrix(ds, design, measure)
    if measure.kind == "pauc":
        # the 64-node Gauss-Legendre grid on (0, 0.6)
        glx, glw = np.polynomial.legendre.leggauss(64)
        nodes, weights = 0.3 + 0.3 * glx, 0.3 * glw
    else:
        nodes, weights = [0.2], [1.0]
    strata = design.strata() if design else [(1, None), (2, None)]
    want_d, want_n = integral_covariance_oracle(ds, strata, list(nodes), list(weights))
    for got, want in ((est.sigma_diseased, want_d), (est.sigma_nondiseased, want_n)):
        want = np.asarray(want)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_pauc_sigma_degenerate_density_propagates():
    ds = singles_dataset([2.0] * 12, list(range(12)))
    with pytest.raises(DegenerateDensityError):
        sigma_matrix(ds, None, PAUC)


def test_atom_measure_sigma_runs():
    rng = np.random.default_rng(19)
    ds = paired_dataset([rng.normal(1, 1, 50)], [rng.normal(0, 1, 50)])
    est = sigma_matrix(ds, None, WeightMeasure.steps(((0.3, 0.5), (0.6, 0.5))))
    assert est.sigma.shape == (1, 1)
    assert est.sigma[0, 0] > 0


# -- contrast covariance -------------------------------------------------


def test_contrast_covariance_identity():
    design = StudyDesign.readers(1)
    np.testing.assert_allclose(contrast_covariance(np.eye(2), design), [[2.0]])


def test_contrast_covariance_hand_expanded():
    design = StudyDesign.readers(2)
    sigma = np.array([
        [4.0, 1.0, 2.0, 0.5],
        [1.0, 3.0, 0.25, 1.5],
        [2.0, 0.25, 5.0, 0.75],
        [0.5, 1.5, 0.75, 6.0],
    ])
    got = contrast_covariance(sigma, design)
    # Var(o1 - o3), Cov(o1 - o3, o2 - o4), Var(o2 - o4) by direct expansion
    want = np.array([
        [4.0 + 5.0 - 2 * 2.0, 1.0 - 0.5 - 0.25 + 0.75],
        [1.0 - 0.5 - 0.25 + 0.75, 3.0 + 6.0 - 2 * 1.5],
    ])
    np.testing.assert_allclose(got, want)


# -- bootstrap -----------------------------------------------------------


def test_bootstrap_deterministic_and_distinct_seeds():
    rng = np.random.default_rng(20)
    ds = paired_dataset([rng.normal(1, 1, 30)], [rng.normal(0, 1, 30)])
    a = bootstrap_covariance(ds, None, FULL, 120, seed=5)
    b = bootstrap_covariance(ds, None, FULL, 120, seed=5)
    c = bootstrap_covariance(ds, None, FULL, 120, seed=6)
    np.testing.assert_array_equal(a.sigma, b.sigma)
    assert not np.array_equal(a.sigma, c.sigma)
    assert a.method == "bootstrap"
    assert a.sigma_diseased is None


def test_bootstrap_constant_data_zero_matrix():
    ds = singles_dataset([1.0] * 8, [1.0] * 8)
    est = bootstrap_covariance(ds, None, FULL, 100, seed=1)
    np.testing.assert_array_equal(est.sigma, np.zeros((1, 1)))


def test_bootstrap_needs_hundred_replicates():
    ds = singles_dataset([1.0, 2.0], [0.0, 0.5])
    with pytest.raises(ValueError):
        bootstrap_covariance(ds, None, FULL, 99, seed=1)


def _marker2_missing_in_nondiseased(n_with_marker2=0):
    """Two markers; only the first ``n_with_marker2`` non-diseased subjects
    carry marker 2."""
    rng = np.random.default_rng(21)
    diseased = [{(1, 1): (float(rng.normal(1)),), (2, 1): (float(rng.normal(1)),)}
                for _ in range(6)]
    nondiseased = [{(1, 1): (float(rng.normal()),),
                    **({(2, 1): (float(rng.normal()),)} if j < n_with_marker2 else {})}
                   for j in range(6)]
    return clustered_dataset(diseased, nondiseased, n_markers=2, n_times=1)


def test_empty_stratum_fails_alike_in_estimates_covariance_and_bootstrap():
    ds = _marker2_missing_in_nondiseased()
    with pytest.raises(ValueError) as expected:
        wauc_vector(ds, None, FULL)
    # the bootstrap rejects the input before drawing any replicate
    calls = [lambda: bootstrap_covariance(ds, None, FULL, 100, seed=1),
             lambda: sigma_matrix(ds, None, FULL),
             lambda: sigma_matrix(ds, None, PAUC)]
    for call in calls:
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(expected.value)


def test_bootstrap_redraw_exhaustion_is_a_wroc_error(monkeypatch):
    ds = _marker2_missing_in_nondiseased(n_with_marker2=1)
    attempts = []

    def last_subject_only(seed, rows, attempt, sizes):
        """Draws every subject at the last position, which lacks marker 2."""
        attempts.append((attempt, len(rows)))
        return [np.full((len(rows), n), n - 1) for n in sizes]

    monkeypatch.setattr(covariance, "_bootstrap_draws", last_subject_only)
    with pytest.raises(WrocError, match="could not draw a usable replicate"):
        bootstrap_covariance(ds, None, FULL, 100, seed=1)
    # every replicate through every attempt, then the error
    assert attempts == [(attempt, 100) for attempt in range(covariance._MAX_DRAWS)]
