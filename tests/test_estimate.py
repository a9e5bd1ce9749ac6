"""Estimator checks on synthetic sets and small Monte Carlo runs."""

import functools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eigencollide import estimate
from eigencollide.estimate import (
    box_count_dimension,
    box_dim,
    classify_mc,
    collision_prob,
    verdict_experiment,
    wilson_interval,
)
from eigencollide.gfield import KernelSpec, TimeGrid, _sheet_rows, sample_fbm_1d
from eigencollide.harness import ExperimentConfig, parse_config, simulate
from eigencollide.matfield import EnsembleSpec, _ensemble_rows, assemble_rect, sample_ensemble
from eigencollide.spectra import NumericalError, pattern_gap_values, spectral_path
from eigencollide.theory import CollisionPattern, HurstVector, SpectralKind, Verdict


def ensemble(hs, shape=(2,), beta=1):
    return EnsembleSpec(beta=beta, shape=shape, kernel=KernelSpec(HurstVector(hs)))


PAT2 = CollisionPattern((2,), 2)
RE = SpectralKind.REAL_EIGEN


# -- wilson -------------------------------------------------------------


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12) and 0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo > 0.95
    # hand-evaluated closed form at k=5, n=50, z=1.96
    assert wilson_interval(5, 50) == pytest.approx((0.0437, 0.2133), abs=1e-3)


# -- collision probability g -------------------------------------------


def test_collision_prob_trivial_threshold():
    # eps larger than any spectral diameter: every path hits
    grid = TimeGrid.unit([16])
    est = collision_prob(ensemble(["1/2"]), PAT2, RE, grid, (1e9, 1.0, 0.001), 100, 3)
    assert est.fractions[0] == 1.0
    assert est.n_failed == 0


def test_collision_prob_nested_and_deterministic():
    grid = TimeGrid.unit([64])
    ladder = (0.5, 0.1, 0.02)
    a = collision_prob(ensemble(["1/2"]), PAT2, RE, grid, ladder, 200, 5, threads=1)
    b = collision_prob(ensemble(["1/2"]), PAT2, RE, grid, ladder, 200, 5, threads=3)
    assert a == b  # worker count cannot matter
    assert a.hits[0] >= a.hits[1] >= a.hits[2]  # nested events


def _nan_in_sheet_rows(point, path_index=0):
    """A `matfield._sheet_rows` whose draw of entry (0, 1) on path
    `path_index` is NaN at grid point `point`; every other value is
    unchanged."""

    def planted(kernel, grid, seed, key, rows, plan=None):
        start = 0
        for block in _sheet_rows(kernel, grid, seed, key, rows, plan=plan):
            if key == (path_index, 1, 0) and start <= point[0] < start + len(block):
                block = block.copy()
                block[(point[0] - start,) + point[1:]] = np.nan
            yield block
            start += len(block)

    return planted


def test_collision_prob_counts_nan_path_as_failed(monkeypatch):
    # plain 2x2 paths take the plane route, which draws entries but no
    # matrix path, so the NaN is planted in the entry draw
    monkeypatch.setattr("eigencollide.matfield._sheet_rows", _nan_in_sheet_rows((3,), 7))
    grid = TimeGrid.unit([8])
    est = collision_prob(ensemble(["1/2"]), PAT2, RE, grid, (1e9, 0.5), 100, 3)
    assert est.n_failed == 1
    assert est.hits[0] == 99
    assert est.fractions[0] == 1.0


def test_collision_prob_counts_nan_path_as_failed_3x3(monkeypatch):
    # the general route draws entries through the same sampler
    monkeypatch.setattr("eigencollide.matfield._sheet_rows", _nan_in_sheet_rows((3,), 7))
    grid = TimeGrid.unit([8])
    spec, pattern = ensemble(["1/2"], shape=(3,)), CollisionPattern((2,), 3)
    est = collision_prob(spec, pattern, RE, grid, (1e9, 0.5), 100, 3)
    assert est.n_failed == 1
    assert est.hits[0] == 99
    assert est.fractions[0] == 1.0


@pytest.mark.parametrize("d", [2, 3], ids=["plane", "general"])
def test_collision_prob_counts_nan_davies_harte_path_as_failed(monkeypatch, d):
    # a fractional 1-d grid draws its entries whole (Davies-Harte
    # increments and a start value), then hands them out in blocks
    monkeypatch.setattr("eigencollide.matfield._sheet_rows", _nan_in_sheet_rows((3,), 7))
    grid = TimeGrid.unit([8])
    spec, pattern = ensemble(["3/10"], shape=(d,)), CollisionPattern((2,), d)
    est = collision_prob(spec, pattern, RE, grid, (1e9, 0.5), 100, 3)
    assert est.n_failed == 1
    assert est.hits[0] == 99
    assert est.fractions[0] == 1.0


@pytest.mark.parametrize("d", [2, 3], ids=["plane", "general"])
def test_box_dim_nan_path_names_grid_coordinates(monkeypatch, d):
    monkeypatch.setattr("eigencollide.matfield._sheet_rows", _nan_in_sheet_rows((3,)))
    named = r"non-finite entries in 1 matrices \(grid coordinates \[\(3,\)\]\)"
    with pytest.raises(NumericalError, match=named):
        box_dim(
            ensemble(["1/2"], shape=(d,)), CollisionPattern((2,), d), RE,
            TimeGrid.unit([8]), 0, [0.5, 0.25],
        )


# -- plane route (plain 2x2) --------------------------------------------

PLANE_GRIDS = {
    "sheet-256": (["1/2", "1/2"], TimeGrid.unit([256, 256])),
    "sheet-512": (["1/2", "1/2"], TimeGrid.unit([512, 512])),
    "sheet-2/5-96": (["2/5", "1/2"], TimeGrid.unit([96, 96])),
    "sheet-3/4-40x50": (["1/2", "3/4"], TimeGrid.unit([40, 50])),
    "bm-4096": (["1/2"], TimeGrid.unit([4096])),
    "bm-2": (["1/2"], TimeGrid.unit([2])),
    "fbm-3/10-4096": (["3/10"], TimeGrid.unit([4096])),
    "fbm-7/10-dense": (["7/10"], TimeGrid([(1.05, 2.0)], [1000])),
}


def _general_gaps(spec, grid, seed, path_index):
    kind = SpectralKind.REAL_EIGEN if spec.beta == 1 else SpectralKind.COMPLEX_EIGEN
    path = sample_ensemble(spec, grid, seed, path_index)
    return pattern_gap_values(spectral_path(path, kind).values, PAT2)


def _joined_path(spec, kind, grid, seed, path_index):
    """(spectrum min, spectrum max, gap grid) of a Monte Carlo path, its
    `_path_rows` blocks joined in row order."""
    low, high, gaps = math.inf, -math.inf, np.empty(grid.shape)
    end = 0
    for start, lo, hi, block, _ in estimate._path_rows(spec, PAT2, kind, grid, seed, path_index):
        assert start == end
        low, high = np.minimum(low, lo), np.maximum(high, hi)
        end = start + len(block)
        gaps[start:end] = block
    assert end == grid.shape[0]
    return low, high, gaps


def _plane_gaps(spec, grid, seed, path_index):
    kind = SpectralKind.REAL_EIGEN if spec.beta == 1 else SpectralKind.COMPLEX_EIGEN
    return _joined_path(spec, kind, grid, seed, path_index)[2]


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("case", sorted(PLANE_GRIDS))
def test_plane_route_gaps_bitwise_equal_general_route(case, beta):
    hs, grid = PLANE_GRIDS[case]
    spec = ensemble(hs, beta=beta)
    for path_index in (0, 3, 101):
        got = _plane_gaps(spec, grid, 21, path_index)
        want = _general_gaps(spec, grid, 21, path_index)
        assert got.shape == want.shape == grid.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("beta", [1, 2])
def test_plane_route_bitwise_on_ties(monkeypatch, beta):
    # point 3: xi_12 = 0; point 5: also xi_11 = xi_22, a collision with gap
    # exactly 0; point 7: |xi_12| equals |a - c| / 2, a tie of the two legs
    def planted(kernel, grid, seed, key, rows, plan=None):
        def whole(entry, part=0):  # an entry's draw over the whole grid
            entry_key = (key[0], entry, part)
            return next(_sheet_rows(kernel, grid, seed, entry_key, grid.shape[0], plan=plan))

        def diagonal(entry):  # sqrt(2) xi_ii, as assembled
            return whole(entry) * np.sqrt(2.0)

        values = whole(key[1], key[2])
        if key[1] == 1:  # xi_12 and eta_12
            values[[3, 5]] = 0.0
            values[7] = abs(0.5 * diagonal(0)[7] - 0.5 * diagonal(3)[7])
        elif key[1] == 3:  # xi_22
            values[5] = whole(0)[5]
        for row in range(0, len(values), rows):
            yield values[row : row + rows]

    monkeypatch.setattr("eigencollide.matfield._sheet_rows", planted)
    grid = TimeGrid.unit([16])
    spec = ensemble(["1/2"], beta=beta)
    for path_index in (0, 4):
        got = _plane_gaps(spec, grid, 8, path_index)
        want = _general_gaps(spec, grid, 8, path_index)
        assert got[5] == 0.0
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_plane_route_thread_count_cannot_matter():
    grid = TimeGrid.unit([64, 64])
    ladder = (0.5, 0.1, 0.02)
    spec = ensemble(["1/2", "1/2"])
    a = collision_prob(spec, PAT2, RE, grid, ladder, 100, 13, threads=1)
    b = collision_prob(spec, PAT2, RE, grid, ladder, 100, 13, threads=2)
    assert a == b


# -- row blocks ----------------------------------------------------------

# grids of more than one block: rows that do not divide axis 0, a 3-d sheet,
# a sheet with a dense axis and a fractional 1-d grid, both drawn whole and
# then split, and a 1-d Brownian motion, which streams by rows.  A
# fractional 1-d grid has at most 2^14 points, one default block, so it
# walks in blocks of `_FBM_BLOCK_POINTS`.
_FBM_BLOCK_POINTS = 4096
BLOCK_GRIDS = {
    "sheet-200x100": (["1/2", "1/2"], TimeGrid.unit([200, 100])),
    "sheet-97x331": (["1/2", "1/2"], TimeGrid([(1.0, 2.0), (0.5, 1.5)], [97, 331])),
    "sheet-40x30x20": (["1/2", "1/2", "1/2"], TimeGrid.unit([40, 30, 20])),
    "sheet-1/2-7/10": (["1/2", "7/10"], TimeGrid.unit([300, 60])),
    "fbm-10000": (["3/10"], TimeGrid.unit([10000])),
    "bm-40000": (["1/2"], TimeGrid.unit([40000])),
}


def _kind(shape, beta):
    if len(shape) == 2:
        return SpectralKind.REAL_SINGULAR if beta == 1 else SpectralKind.COMPLEX_SINGULAR
    return SpectralKind.REAL_EIGEN if beta == 1 else SpectralKind.COMPLEX_EIGEN


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("shape", [(2,), (2, 3)], ids=["2x2", "2x3"])
@pytest.mark.parametrize("case", sorted(BLOCK_GRIDS))
def test_streamed_path_bitwise_equals_whole_grid_route(monkeypatch, case, shape, beta):
    hs, grid = BLOCK_GRIDS[case]
    if case.startswith("fbm"):
        monkeypatch.setattr(estimate, "_BLOCK_POINTS", _FBM_BLOCK_POINTS)
    assert estimate._block_rows(grid) < grid.shape[0]
    spec, kind = ensemble(hs, shape=shape, beta=beta), _kind(shape, beta)
    for path_index in (0, 7):
        low, high, gaps = _joined_path(spec, kind, grid, 21, path_index)
        values = spectral_path(sample_ensemble(spec, grid, 21, path_index), kind).values
        want = (values.min(), values.max(), pattern_gap_values(values, PAT2))
        assert gaps.shape == grid.shape
        for got, ref in zip((low, high, gaps), want):
            assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(ref).view(np.int64))


@pytest.mark.parametrize("shape", [(2,), (2, 3)], ids=["plane", "general"])
def test_one_d_grid_walks_in_blocks(monkeypatch, shape):
    monkeypatch.setattr(estimate, "_BLOCK_POINTS", _FBM_BLOCK_POINTS)
    spec, kind = ensemble(["3/10"], shape=shape), _kind(shape, 1)
    rows = estimate._path_rows(spec, PAT2, kind, BLOCK_GRIDS["fbm-10000"][1], 21, 0)
    assert [start for start, *_ in rows] == [0, 4096, 8192]


@pytest.mark.parametrize("d", [2, 3], ids=["plane", "general"])
def test_nan_in_a_later_block_names_its_grid_coordinates(monkeypatch, d):
    grid = TimeGrid.unit([600, 64])  # blocks of 256 rows: the NaN is in the third
    assert estimate._block_rows(grid) == 256
    monkeypatch.setattr("eigencollide.matfield._sheet_rows", _nan_in_sheet_rows((520, 7)))
    named = r"non-finite entries in 1 matrices \(grid coordinates \[\(520, 7\)\]\)"
    with pytest.raises(NumericalError, match=named) as err:
        box_dim(ensemble(["1/2", "1/2"], shape=(d,)), CollisionPattern((2,), d), RE, grid, 0,
                [0.5, 0.25])
    assert err.value.batch_indices == (520 * 64 + 7,)


@pytest.mark.parametrize("shape", [(2,), (2, 3)], ids=["plane", "general"])
def test_thread_count_cannot_matter_on_multi_block_grids(shape):
    grid = TimeGrid.unit([160, 128])  # two blocks of 128 rows
    assert estimate._block_rows(grid) == 128
    spec, kind = ensemble(["1/2", "1/2"], shape=shape), _kind(shape, 1)
    ladder = (0.5, 0.1, 0.02)
    a = collision_prob(spec, PAT2, kind, grid, ladder, 100, 13, threads=1)
    b = collision_prob(spec, PAT2, kind, grid, ladder, 100, 13, threads=2)
    assert a == b
    # the running minimum over blocks is the whole grid's
    mins = [_joined_path(spec, kind, grid, 13, p)[2].min() for p in range(100)]
    assert a.hits == tuple(int(sum(m <= e for m in mins)) for e in ladder)


@pytest.mark.parametrize(
    "shape, h, n",
    [((2,), "1/2", 40000), ((2, 3), "1/2", 40000), ((2,), "3/10", 4097), ((2, 3), "3/10", 4097)],
    ids=["plane", "general", "plane-fractional", "general-fractional"],
)
def test_thread_count_cannot_matter_on_a_streamed_1d_grid(monkeypatch, shape, h, n):
    # a 1-d Brownian motion in three blocks, each carrying the last value of
    # the cumulative sum into the next, and a fractional one drawn whole
    # (increments and a start value) and cut into three smaller blocks;
    # compared a few times over, since state shared between threads need
    # not show on every run
    monkeypatch.setattr(estimate, "_BLOCK_POINTS", estimate._BLOCK_POINTS * n // 40000)
    grid = TimeGrid.unit([n])
    assert estimate._block_rows(grid) < grid.shape[0] // 2
    spec, kind = ensemble([h], shape=shape), _kind(shape, 1)
    ladder = (0.02, 0.005, 0.00125)
    records = [
        json.dumps(collision_prob(spec, PAT2, kind, grid, ladder, 100, 13,
                                  threads=threads).to_json_dict())
        for _ in range(3) for threads in (1, 2)
    ]
    assert len(set(records)) == 1
    assert 0 < json.loads(records[0])["hits"][0] < 100


# -- plane-route stop -----------------------------------------------------

# blocks of 256 rows at rows 0, 256 and 512
STOP_GRID = TimeGrid.unit([600, 64])
STOP_SEED = 13


@functools.lru_cache(maxsize=None)
def _stop_case():
    """(ladder, per-path minima of each block of the full walk) on
    `STOP_GRID` over 100 paths: the smaller rung is the 31st smallest
    path min, so about 30 paths settle, some of them in block 0."""
    spec = ensemble(["1/2", "1/2"])
    minima = np.array([
        [block.min() for _, _, _, block, _ in
         estimate._path_rows(spec, PAT2, RE, STOP_GRID, STOP_SEED, p)]
        for p in range(100)
    ])
    mins = np.sort(minima.min(axis=1))
    return (float(mins[70]), float(mins[30])), minima


def _settled_in_block_0():
    ladder, minima = _stop_case()
    return int(np.flatnonzero(minima[:, 0] <= ladder[-1])[0])


def _never_settled():
    ladder, minima = _stop_case()
    return int(np.flatnonzero(minima.min(axis=1) > ladder[-1])[0])


def _counting_sheet_rows(drawn):
    """A `matfield._sheet_rows` that appends (key, rows) of every block it
    hands out to `drawn`."""

    def counting(kernel, grid, seed, key, rows, plan=None):
        for block in _sheet_rows(kernel, grid, seed, key, rows, plan=plan):
            drawn.append((key, len(block)))
            yield block

    return counting


def test_plane_stop_keeps_the_hits_of_the_full_walk():
    ladder, minima = _stop_case()
    assert (minima[:, 0] <= ladder[-1]).any()  # some paths settle in block 0
    assert (minima.min(axis=1) > ladder[-1]).any()  # and some never do
    spec = ensemble(["1/2", "1/2"])
    a, b = (collision_prob(spec, PAT2, RE, STOP_GRID, ladder, 100, STOP_SEED, threads=t)
            for t in (1, 2))
    assert a == b
    mins = [_joined_path(spec, RE, STOP_GRID, STOP_SEED, p)[2].min() for p in range(100)]
    assert a.hits == tuple(int(sum(m <= e for m in mins)) for e in ladder)
    assert a.n_failed == 0 and a.points_solved < a.grid_points


def test_a_settled_plane_path_draws_no_later_block(monkeypatch):
    ladder, _ = _stop_case()
    spec = ensemble(["1/2", "1/2"])
    drawn = []
    monkeypatch.setattr("eigencollide.matfield._sheet_rows", _counting_sheet_rows(drawn))
    for p, blocks in ((_settled_in_block_0(), 1), (_never_settled(), 3)):
        drawn.clear()
        estimate._path_pass(spec, PAT2, RE, STOP_GRID, STOP_SEED, p, ladder)
        keys = [key for key, _ in drawn]
        assert sorted(set(keys)) == [(p, 0, 0), (p, 1, 0), (p, 3, 0)]
        assert all(keys.count(key) == blocks for key in set(keys)), p


def test_box_dim_and_simulate_walk_every_plane_block(monkeypatch):
    # path 0 would settle in block 0 under the ladder; neither reader has one
    ladder, minima = _stop_case()
    assert minima[0, 0] <= ladder[-1]
    cfg = ExperimentConfig(
        kind="real-eigen", shape=(2,), pattern=(2,), hurst=("1/2", "1/2"),
        resolution=STOP_GRID.shape, interval=STOP_GRID.intervals, seed=STOP_SEED,
        eps_ladder=ladder,
    )
    drawn = []
    monkeypatch.setattr("eigencollide.matfield._sheet_rows", _counting_sheet_rows(drawn))
    box_dim(cfg.ensemble(), cfg.collision_pattern(), cfg.spectral_kind, cfg.time_grid(),
            STOP_SEED, [0.5, 0.25])
    assert [n for key, n in drawn if key == (0, 0, 0)] == [256, 256, 88]
    drawn.clear()
    simulate(cfg)
    assert [n for key, n in drawn if key == (0, 0, 0)] == [256, 256, 88]


def test_plane_points_solved_are_the_points_drawn(monkeypatch):
    ladder, _ = _stop_case()
    drawn = []
    monkeypatch.setattr("eigencollide.matfield._sheet_rows", _counting_sheet_rows(drawn))
    est = collision_prob(ensemble(["1/2", "1/2"]), PAT2, RE, STOP_GRID, ladder, 100, STOP_SEED)
    rows = sum(n for (_, entry, part), n in drawn if (entry, part) == (0, 0))
    assert est.points_solved == rows * STOP_GRID.shape[1] < est.grid_points


def test_brownian_sheet_draws_part_of_its_grid():
    cfg = parse_config((Path(__file__).resolve().parents[1] / "configs" /
                        "brownian_sheet.yaml").read_text())
    est = collision_prob(cfg.ensemble(), cfg.collision_pattern(), cfg.spectral_kind,
                         cfg.time_grid(), cfg.eps_ladder, 100, cfg.seed)
    assert est.grid_points == 100 * cfg.time_grid().n_points
    assert est.n_failed == 0 and est.points_solved < est.grid_points


def test_nan_after_the_settling_block_goes_unseen(monkeypatch):
    # the documented limit: a settled path draws no later block, so a
    # non-finite value there cannot fail it
    ladder, _ = _stop_case()
    spec, p = ensemble(["1/2", "1/2"]), _settled_in_block_0()
    monkeypatch.setattr("eigencollide.matfield._sheet_rows", _nan_in_sheet_rows((520, 7), p))
    assert estimate._path_pass(spec, PAT2, RE, STOP_GRID, STOP_SEED, p, ladder)[2] <= ladder[-1]
    with pytest.raises(NumericalError, match=r"grid coordinates \[\(520, 7\)\]"):
        estimate._path_pass(spec, PAT2, RE, STOP_GRID, STOP_SEED, p)


def test_nan_in_the_settling_block_fails_its_path(monkeypatch):
    ladder, _ = _stop_case()
    spec, p = ensemble(["1/2", "1/2"]), _settled_in_block_0()
    monkeypatch.setattr("eigencollide.matfield._sheet_rows", _nan_in_sheet_rows((100, 7), p))
    named = r"non-finite entries in 1 matrices \(grid coordinates \[\(100, 7\)\]\)"
    with pytest.raises(NumericalError, match=named):
        estimate._path_pass(spec, PAT2, RE, STOP_GRID, STOP_SEED, p, ladder)
    est = collision_prob(spec, PAT2, RE, STOP_GRID, ladder, 100, STOP_SEED)
    assert est.n_failed == 1


def _box_count_reference(marked, grid, delta):
    """Occupied boxes as distinct flat box ids of the marked points."""
    flat_id = np.zeros(grid.shape, dtype=np.int64)
    stride = 1
    for j in reversed(range(grid.ndim)):
        a, b = grid.intervals[j]
        n_boxes = max(1, math.ceil((b - a) / delta - 1e-12))
        ids = np.minimum(np.floor((grid.axis(j) - a) / delta).astype(np.int64), n_boxes - 1)
        shape = [1] * grid.ndim
        shape[j] = -1
        flat_id = flat_id + ids.reshape(shape) * stride
        stride *= n_boxes
    return int(np.unique(flat_id[marked]).size)


BOX_GRIDS = {
    "1d": TimeGrid.unit([4096]),
    "1d-short": TimeGrid([(1.0, 1.7)], [5]),
    "2d": TimeGrid.unit([64, 64]),
    "2d-uneven": TimeGrid([(1.0, 2.0), (0.5, 3.3)], [100, 37]),
    "3d": TimeGrid.unit([9, 10, 11]),
}


@pytest.mark.parametrize(
    "grid, rows",
    [
        pytest.param(grid, rows, id=name + ("-rows-%d" % rows if rows else ""))
        for name, grid in BOX_GRIDS.items()
        for rows in (None, 1, 7)
    ],
)
def test_box_count_equals_distinct_box_ids(grid, rows):
    # the counter sees the mask in blocks of `rows` rows (None: one block);
    # 3d at delta = 1e-3 has more boxes along each axis than points
    rng = np.random.default_rng(4)
    masks = [np.zeros(grid.shape, bool), np.ones(grid.shape, bool)]
    masks += [rng.random(grid.shape) < p for p in (0.003, 0.05, 0.5)]
    step = rows or grid.shape[0]
    for marked in masks:
        gaps = np.where(marked, 0.0, np.inf)  # marked at every threshold, or at none
        boxes = estimate._BoxCounts(grid, (2.0, 0.5, 0.3, 0.1, 0.013, 1e-3, 1e-5), 0.5, 1.0)
        for start in range(0, grid.shape[0], step):
            boxes.add(start, gaps[start : start + step])
        want = tuple(_box_count_reference(marked, grid, delta) for delta in boxes.deltas)
        assert boxes.counts() == want


# tracemalloc peak of a streamed pass over a plain 2x2 sheet, whatever the
# grid: the box count measured 1.6 MiB at 1024^2, whose gap grid is 8 MiB
_BOX_PEAK = 4 * 2**20


def test_box_dim_memory_does_not_follow_the_grid():
    grid = TimeGrid.unit([1024, 1024])
    ladder = [2.0**-k for k in range(1, 9)]
    tracemalloc.start()
    try:
        box_dim(ensemble(["1/2", "1/2"]), PAT2, RE, grid, 2003, ladder)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _BOX_PEAK


@pytest.mark.parametrize("n", [256, 1024])
def test_simulate_memory_does_not_follow_the_grid(n):
    cfg = ExperimentConfig(
        kind="real-eigen", shape=(2,), pattern=(2,), hurst=("1/2", "1/2"),
        resolution=(n, n), interval=((1.0, 2.0), (1.0, 2.0)),
    )
    tracemalloc.start()
    try:
        simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _BOX_PEAK


def _traced_peak(f):
    f()  # warm the per-grid caches
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_entry_streams_are_dropped_after_their_last_block():
    # Each entry stream of the one draw path is released once drawn, so a
    # 2x3 path on a 128^2 sheet holds its matrices and about two entry
    # draws; kept streams would hold all six draws.
    spec = ensemble(["1/2", "1/2"], shape=(2, 3))
    grid = TimeGrid.unit([128, 128])
    draw = grid.n_points * 8  # one entry's field
    peak = _traced_peak(lambda: assemble_rect(spec, grid, 3, 1))
    assert peak < 6 * draw + 3 * draw  # output + 3 draws
    kind = SpectralKind.REAL_SINGULAR
    peak = _traced_peak(lambda: _joined_path(spec, kind, grid, 3, 1))
    assert peak < 3 * 2**20


def _route_config(shape, kind="real-eigen", **affine):
    return ExperimentConfig(
        kind=kind, shape=shape, pattern=(2,), hurst=("1/2",), resolution=(8,),
        interval=((1.0, 2.0),), **affine,
    )


# config -> blocks of matrices one path draws (the general route's _ensemble_rows)
ROUTES = {
    "2x2": (_route_config((2,)), 0),
    "3x3": (_route_config((3,)), 1),
    "2x2-shift": (_route_config((2,), shift=((0.0, 0.0), (0.0, 1.0))), 1),
    "2x2-transform": (_route_config((2,), transform=((1.0, 0.0), (0.0, 1.0))), 1),
    "2x3-singular": (_route_config((2, 3), kind="real-singular"), 1),
}


@pytest.mark.parametrize("case", sorted(ROUTES))
def test_only_plain_2x2_takes_the_plane_route(monkeypatch, case):
    # both readers of path 0, the estimators and the simulate stage, route
    # through the one path kernel
    cfg, general_calls = ROUTES[case]
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return _ensemble_rows(*args, **kwargs)

    monkeypatch.setattr("eigencollide.estimate._ensemble_rows", spy)
    box_dim(cfg.ensemble(), cfg.collision_pattern(), cfg.spectral_kind, cfg.time_grid(), 0,
            [0.5, 0.25])
    assert len(calls) == general_calls
    calls.clear()
    simulate(cfg)
    assert len(calls) == general_calls


def test_collision_prob_validates():
    grid = TimeGrid.unit([8])
    with pytest.raises(ValueError):
        collision_prob(ensemble(["1/2"]), PAT2, RE, grid, (0.1, 0.2), 100, 1)
    with pytest.raises(ValueError):
        collision_prob(ensemble(["1/2"]), PAT2, RE, grid, (0.2, 0.1), 50, 1)
    for ladder in [(0.4, -0.1), (0.4, 0.0), (0.4, float("nan")), (float("inf"), 0.4)]:
        with pytest.raises(ValueError, match="finite and > 0"):
            collision_prob(ensemble(["1/2"]), PAT2, RE, grid, ladder, 100, 1)
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            collision_prob(ensemble(["1/2"]), PAT2, RE, grid, (0.2, 0.1), 100, 1, threads)
    # every problem at once, in the words config validation reports
    with pytest.raises(ValueError) as err:
        collision_prob(ensemble(["1/2"]), PAT2, RE, grid, (0.1,), 50, 1, threads=0)
    assert str(err.value) == (
        "eps_ladder must be strictly decreasing with >= 2 levels; "
        "paths must be >= 100; threads must be >= 1"
    )


@pytest.mark.parametrize(
    "ladder, kappa",
    [
        ([0.5, 0.25, 0.0], 1.0),
        ([0.5, 0.25, 0.125, -0.0625], 1.0),
        ([0.5, float("nan")], 1.0),
        ([0.5, 0.25], -1.0),
        ([0.5, 0.25], float("inf")),
    ],
)
def test_box_count_rejects_nonpositive_ladder_or_kappa(ladder, kappa):
    grid = TimeGrid.unit([16])
    with pytest.raises(ValueError, match="finite and > 0"):
        box_count_dimension(np.ones(grid.shape), grid, ladder, holder=0.5, kappa=kappa)


@pytest.mark.parametrize(
    "fill, holder, named",
    [
        (np.nan, 0.5, "values must be finite"),
        (np.inf, 0.5, "values must be finite"),
        (1.0, float("nan"), "holder must be finite and > 0"),
        (1.0, -1.0, "holder must be finite and > 0"),
        (1.0, 0.0, "holder must be finite and > 0"),
        (1.0, float("inf"), "holder must be finite and > 0"),
        (np.nan, -1.0, "holder must be finite and > 0; values must be finite"),
    ],
)
def test_box_count_refuses_nonfinite_values_or_bad_holder(fill, holder, named):
    # a NaN must not read as "no collision", and a holder <= 0 would make
    # the thresholds grow as delta shrinks
    grid = TimeGrid.unit([16])
    values = np.ones(grid.shape)
    values[3] = fill
    with pytest.raises(ValueError) as err:
        box_count_dimension(values, grid, [0.5, 0.25, 0.125], holder=holder)
    assert str(err.value) == named


MISMATCHED = {
    "complex-kind-on-beta-1": (PAT2, SpectralKind.COMPLEX_EIGEN, "needs beta = 2"),
    "singular-kind-on-square": (PAT2, SpectralKind.REAL_SINGULAR, "needs a rectangular"),
    "ambient-5-on-d-2": (CollisionPattern((2,), 5), RE, "pattern ambient 5"),
}
ESTIMATORS = {
    "collision_prob": lambda *a: collision_prob(*a, (0.2, 0.1), 100, 1),
    "box_dim": lambda *a: box_dim(*a, 0, [0.5, 0.25]),
    "verdict_experiment": lambda *a: verdict_experiment(*a, 100, 1, (0.2, 0.1)),
}


@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
@pytest.mark.parametrize("case", sorted(MISMATCHED))
def test_estimators_reject_kind_or_pattern_of_another_ensemble(case, estimator):
    # each of these would run and report the theory of another problem
    pattern, kind, named = MISMATCHED[case]
    with pytest.raises(ValueError, match=named):
        ESTIMATORS[estimator](ensemble(["1/2"]), pattern, kind, TimeGrid.unit([8]))


def test_min_gap_nonincreasing_under_refinement():
    # same draw, nested evaluation sets: refinement can only lower the min
    grid = TimeGrid.unit([257])
    from eigencollide.matfield import sample_ensemble
    from eigencollide.spectra import spectral_path

    spec = ensemble(["1/2"])
    sp = spectral_path(sample_ensemble(spec, grid, seed=9), RE)
    gaps = pattern_gap_values(sp.values, PAT2)
    for stride in (16, 4, 2, 1):
        coarse = gaps[::stride].min()
        assert coarse >= gaps.min()


# -- box counting -------------------------------------------------------


def test_box_count_full_grid_recovers_ambient_dimension():
    grid = TimeGrid.unit([256, 256])
    values = np.zeros(grid.shape)  # everything marked at every level
    est = box_count_dimension(values, grid, [2.0**-k for k in range(1, 7)], holder=0.5)
    assert est.slope == pytest.approx(2.0, abs=0.01)


def test_box_count_axis_line_has_dimension_one():
    grid = TimeGrid.unit([256, 256])
    values = np.ones(grid.shape)
    values[:, 128] = 0.0  # a vertical line
    est = box_count_dimension(values, grid, [2.0**-k for k in range(1, 7)], holder=0.5)
    assert est.slope == pytest.approx(1.0, abs=0.01)


def test_box_count_single_point_has_dimension_zero():
    grid = TimeGrid.unit([512])
    values = np.ones(grid.shape)
    values[300] = 0.0
    est = box_count_dimension(values, grid, [2.0**-k for k in range(1, 8)], holder=0.5)
    assert est.slope == pytest.approx(0.0, abs=0.01)
    assert not est.reliable  # single boxes never reach the 10-box bar


def test_box_count_empty_set_flagged_not_raised():
    grid = TimeGrid.unit([128])
    values = np.ones(grid.shape)  # threshold never reached at fine levels
    est = box_count_dimension(values, grid, [0.5, 0.25, 0.125, 0.0625, 0.03125], holder=0.5)
    assert not est.reliable
    assert est.counts[-1] == 0


def test_box_count_bm_zero_set():
    # single-path slopes fluctuate by ~0.15 around 1/2; the tight +-0.1
    # calibration averages several paths and lives in the acceptance suite
    grid = TimeGrid.unit([2**16])
    s = sample_fbm_1d(0.5, grid, seed=0, key=(0,))
    vals = np.abs(s.values - s.values[0])  # pin at the left endpoint
    est = box_count_dimension(vals, grid, [2.0**-k for k in range(2, 13)], holder=0.5)
    assert est.reliable
    assert est.slope == pytest.approx(0.5, abs=0.2)


def test_box_dim_rejects_strong_anisotropy():
    grid = TimeGrid.unit([8, 8])
    spec = ensemble(["1/4", "3/4"])
    with pytest.raises(ValueError):
        box_dim(spec, PAT2, RE, grid, 0, [0.5, 0.25])


def test_box_dim_complex_sheet_dust():
    # theory dim = 2 - (1/2)*3 = 1/2; the wide band reflects the
    # estimator's variance on so sparse a set.  Seed pinned on a path
    # that realizes the collision.
    spec = ensemble(["1/2", "1/2"], beta=2)
    grid = TimeGrid.unit([512, 512])
    est = box_dim(
        spec, PAT2, SpectralKind.COMPLEX_EIGEN, grid, seed=3018,
        delta_ladder=[2.0**-k for k in range(1, 8)],
        kappa=2.0 * np.sqrt(3.0),
    )
    assert est.slope is not None
    assert 0.2 <= est.slope <= 0.8


def test_box_counts_monotone_in_delta():
    grid = TimeGrid.unit([2**14])
    s = sample_fbm_1d(0.5, grid, seed=1, key=(0,))
    vals = np.abs(s.values - s.values[0])
    est = box_count_dimension(vals, grid, [2.0**-k for k in range(2, 11)], holder=0.5)
    # deltas are stored descending; smaller boxes can only be more numerous
    assert all(a <= b for a, b in zip(est.counts, est.counts[1:]))


def test_box_dim_zero_verdict_unreliable():
    # Dyson-like config: collision set empty, so counts die out
    grid = TimeGrid.unit([2048])
    est = box_dim(ensemble(["1/2"]), PAT2, RE, grid, seed=0,
                  delta_ladder=[2.0**-k for k in range(2, 10)], kappa=0.1)
    assert not est.reliable


# -- bundled experiment -------------------------------------------------


def test_verdict_experiment_dyson_consistent_with_zero():
    grid = TimeGrid.unit([1024])
    rep = verdict_experiment(
        ensemble(["1/2"]), PAT2, RE, grid,
        n_paths=400, seed=1, eps_ladder=(0.02, 0.005, 0.00125), threads=2,
    )
    assert rep.theory.verdict is Verdict.ZERO
    assert rep.mc_behavior == "consistent-with-zero"
    assert rep.agree


def test_verdict_experiment_sheet_consistent_with_positive():
    grid = TimeGrid.unit([64, 64])
    rep = verdict_experiment(
        ensemble(["1/2", "1/2"]), PAT2, RE, grid,
        n_paths=400, seed=2, eps_ladder=(0.8, 0.4, 0.22, 0.2), threads=2,
    )
    assert rep.theory.verdict is Verdict.POSITIVE
    assert rep.theory.dim == 1
    assert rep.mc_behavior == "consistent-with-positive"
    assert rep.agree


def test_classify_requires_plateau_above_floor():
    from eigencollide.estimate import CollisionProbEstimate

    est = CollisionProbEstimate(
        eps_ladder=(0.1, 0.05),
        hits=(8, 4),
        fractions=(0.04, 0.02),
        intervals=(wilson_interval(8, 200), wilson_interval(4, 200)),
        n_paths=200,
        n_failed=0,
        seed=0,
    )
    assert classify_mc(est) == "consistent-with-zero"
