"""Certified solve pruning of `collision_prob`'s general route.

Given the eps ladder, a general-route path solves its anchors and then
only the points whose certified gap bound does not clear the largest rung
still open.  These tests pin that the pruned kernel gives the hit counts,
failures and solved spectra of the unpruned one, solves few points, and
holds one block at a time.
"""

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eigencollide import estimate
from eigencollide.estimate import _ensemble_rows, _path_pass, _solve, collision_prob
from eigencollide.gfield import KernelSpec, TimeGrid, _sheet_rows
from eigencollide.harness import ExperimentConfig, parse_config, run
from eigencollide.matfield import EnsembleSpec, sample_ensemble
from eigencollide.spectra import NumericalError
from eigencollide.theory import CollisionPattern, HurstVector, SpectralKind

ROOT = Path(__file__).resolve().parents[1]
HALF2, HALF3 = ["1/2"] * 2, ["1/2"] * 3


def _kind(shape, beta):
    if len(shape) == 2:
        return SpectralKind.REAL_SINGULAR if beta == 1 else SpectralKind.COMPLEX_SINGULAR
    return SpectralKind.REAL_EIGEN if beta == 1 else SpectralKind.COMPLEX_EIGEN


def _spec(shape, beta, hurst, affine=""):
    """An ensemble with a fixed random shift ("s"), transform ("t") and
    right transform ("r"), as `affine` names them."""
    rng = np.random.default_rng(10 * sum(shape) + beta)
    d1, d2 = (shape[0], shape[0]) if len(shape) == 1 else shape

    def draw(rows, cols):
        m = rng.standard_normal((rows, cols))
        return m + 1j * rng.standard_normal((rows, cols)) if beta == 2 else m

    kw = {}
    if "s" in affine:
        s = draw(d1, d2)
        kw["shift"] = (s + s.conj().T) / 2 if len(shape) == 1 else s
    if "t" in affine:
        kw["transform"] = np.eye(d1) + 0.3 * draw(d1, d1)
    if "r" in affine:
        kw["transform_right"] = np.eye(d2) + 0.3 * draw(d2, d2)
    return EnsembleSpec(beta=beta, shape=shape, kernel=KernelSpec(HurstVector(hurst)), **kw)


# 1-d grids are one block; 200x100 walks in blocks of 163 rows and 60x17x19
# in blocks of 50, so anchor cells (every third row from a block's first)
# are cut at the block edge
GRIDS = {
    "1d": (["1/2"], TimeGrid.unit([600])),
    "1d-fbm": (["3/10"], TimeGrid.unit([700])),
    "2d": (HALF2, TimeGrid.unit([200, 100])),
    "2d-dense": (["2/5", "1/2"], TimeGrid.unit([60, 50])),
    "3d": (HALF3, TimeGrid.unit([60, 17, 19])),
}

# id -> (shape, pattern, beta, grid, affine)
CASES = {
    "3x3-(2)-b1-1d": ((3,), (2,), 1, "1d", ""),
    "3x3-(3)-b2-2d-shift-transform": ((3,), (3,), 2, "2d", "st"),
    "3x3-(2)-b1-3d-transform": ((3,), (2,), 1, "3d", "t"),
    "4x4-(2,2)-b1-3d": ((4,), (2, 2), 1, "3d", ""),
    "4x4-(2,2)-b2-2d-transform": ((4,), (2, 2), 2, "2d", "t"),
    "4x4-(3)-b1-2d-dense-shift": ((4,), (3,), 1, "2d-dense", "s"),
    "4x4-(2)-b2-1d-fbm-shift-transform": ((4,), (2,), 2, "1d-fbm", "st"),
    "2x2-(2)-b1-2d-shift-transform": ((2,), (2,), 1, "2d", "st"),
    "2x3-sv-b1-2d": ((2, 3), (2,), 1, "2d", ""),
    "2x3-sv-b2-1d-shift-right": ((2, 3), (2,), 2, "1d", "sr"),
    "3x4-sv-b1-3d-shift-transforms": ((3, 4), (2,), 1, "3d", "str"),
    "3x4-sv-(3)-b2-2d-transform": ((3, 4), (3,), 2, "2d", "t"),
}


def _spied_pass(monkeypatch, spec, pattern, kind, grid, seed, path_index, rungs):
    """`_path_pass` of one path, and the flat grid indices, spectra and
    gaps of every point it solved, in solve order."""
    row = grid.n_points // grid.shape[0]
    first, solved = [0], []

    def rows(*args):
        for start, raw in _ensemble_rows(*args):
            first[0] = start
            yield start, raw

    def solve(matrices, at, *args):
        values, gaps = _solve(matrices, at, *args)
        solved.append((np.arange(len(matrices))[at] + first[0] * row, values, gaps))
        return values, gaps

    with monkeypatch.context() as m:
        m.setattr(estimate, "_ensemble_rows", rows)
        m.setattr(estimate, "_solve", solve)
        result = _path_pass(spec, pattern, kind, grid, seed, path_index, rungs)
    index, values, gaps = (np.concatenate(part) for part in zip(*solved)) if solved else (
        np.zeros(0, int), None, None)
    return result, index, values, gaps


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("case", sorted(CASES))
def test_pruned_pass_keeps_hits_and_solved_spectra(monkeypatch, case):
    shape, multiplicities, beta, grid_name, affine = CASES[case]
    hurst, grid = GRIDS[grid_name]
    spec, kind = _spec(shape, beta, hurst, affine), _kind(shape, beta)
    pattern = CollisionPattern(multiplicities, shape[0])
    seed, paths = 31, (0, 1, 2)
    exact = {p: _spied_pass(monkeypatch, spec, pattern, kind, grid, seed, p, ()) for p in paths}
    for p, ((_, _, _, solved), index, _, _) in exact.items():
        assert solved == grid.n_points and np.array_equal(index, np.arange(grid.n_points))
    mins = sorted(float(r[0][2]) for r in exact.values())
    ladders = {
        "all-hit": (2 * mins[-1], 1.5 * mins[-1]),
        "some-hit-with-a-tie": (2 * mins[-1], mins[1], 0.5 * mins[0]),
        "none-hit": (0.5 * mins[0], 0.25 * mins[0]),
    }
    for name, ladder in ladders.items():
        for p in paths:
            (_, _, gap, n_solved), index, values, gaps = _spied_pass(
                monkeypatch, spec, pattern, kind, grid, seed, p, ladder)
            _, _, ref_values, ref_gaps = exact[p]
            ref_gap = exact[p][0][2]
            hits = [bool(gap <= e) for e in ladder]
            assert hits == [bool(ref_gap <= e) for e in ladder], (name, p)
            assert gap >= ref_gap
            assert n_solved == len(index) == len(set(index.tolist())) < grid.n_points
            if len(index):
                assert np.array_equal(_bits(values), _bits(ref_values[index])), (name, p)
                assert np.array_equal(_bits(gaps), _bits(ref_gaps[index])), (name, p)


@pytest.mark.parametrize("shape, beta, affine", [
    ((3,), 1, "st"), ((4,), 2, "st"), ((3,), 2, "s"), ((2, 3), 2, "str"), ((3, 4), 1, "t"),
    ((3, 4), 2, "r"),
], ids=["3x3-b1-st", "4x4-b2-st", "3x3-b2-s", "2x3-b2-str", "3x4-b1-t", "3x4-b2-r"])
def test_certificate_lifts_raw_differences_to_mapped_ones(shape, beta, affine):
    spec = _spec(shape, beta, ["1/2"], affine)
    _, raw = next(_ensemble_rows(spec, TimeGrid.unit([6]), 0, 0, 6))
    lift, kappa, shift_norm = estimate._certificate(spec)
    diff = (raw[1:] - raw[0]).reshape(5, -1)
    got = diff if lift is None else diff @ lift
    mapped = estimate._affine_values(raw, spec)
    want = (mapped[1:] - mapped[0]).reshape(5, -1)
    assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(mapped).max())
    assert kappa >= 1.0 and (lift is None) == (kappa == 1.0)
    assert shift_norm == (0.0 if spec.shift is None else pytest.approx(np.linalg.norm(spec.shift)))


def _multiple_collision_config(shape, pattern):
    """ROADMAP item 4's Positive cases at smoke size, 16^3 and 100 paths."""
    return ExperimentConfig(
        kind="real-eigen", shape=shape, pattern=pattern, hurst=tuple(HALF3),
        resolution=(16, 16, 16), interval=((1.0, 2.0),) * 3,
        eps_ladder=(0.4, 0.2, 0.1, 0.05), paths=100, seed=5,
    )


# at this size (2,2) hits some rungs, the 0.30, 0.03, 0.01, 0 of ROADMAP's
# table, and (3,) none
@pytest.mark.parametrize("shape, pattern, hits", [((4,), (2, 2), [30, 3, 1, 0]),
                                                   ((3,), (3,), [0, 0, 0, 0])],
                         ids=["4x4-(2,2)", "3x3-(3,)"])
def test_multiple_collisions_pruned_hits_equal_exact_at_threads_1_and_2(
        tmp_path, shape, pattern, hits):
    cfg = _multiple_collision_config(shape, pattern)
    for threads in (1, 2):
        run(dataclasses.replace(cfg, threads=threads), out_dir=str(tmp_path / str(threads)))
    one, two = tmp_path / "1", tmp_path / "2"
    for name in ("record.json", "hits.csv"):
        assert (one / name).read_bytes() == (two / name).read_bytes()
    mins = [
        _path_pass(cfg.ensemble(), cfg.collision_pattern(), cfg.spectral_kind, cfg.time_grid(),
                   cfg.seed, p)[2]
        for p in range(cfg.paths)
    ]
    mc = json.loads((one / "record.json").read_text())["outputs"]["estimate"]["mc"]
    assert mc["n_failed"] == 0
    assert mc["hits"] == [sum(m <= e for m in mins) for e in cfg.eps_ladder]
    assert mc["hits"] == hits
    # the solve counts go to meta.json, identical at both thread counts, and
    # never to record.json
    counters = [json.loads((d / "meta.json").read_text())["counters"] for d in (one, two)]
    assert counters[0] == counters[1]
    assert counters[0]["grid_points"] == cfg.paths * 16**3
    assert 0 < counters[0]["points_solved"] < counters[0]["grid_points"]
    assert "points_solved" not in (one / "record.json").read_text()


def test_estimate_carries_solve_counts_outside_its_json():
    cfg = _multiple_collision_config((3,), (2,))
    args = (cfg.ensemble(), CollisionPattern((2,), 3), cfg.spectral_kind, cfg.time_grid(),
            cfg.eps_ladder, 100, 5)
    a, b = collision_prob(*args, threads=1), collision_prob(*args, threads=2)
    assert a == b
    assert a.grid_points == 100 * 16**3
    assert 0 < a.points_solved < a.grid_points
    assert set(a.to_json_dict()) == {
        "eps_ladder", "hits", "fractions", "wilson_95", "n_paths", "n_failed", "seed"}


def test_pruning_solves_under_30_percent_of_anisotropic_affine(monkeypatch):
    # the benchmark's general-route config at its seed; a fallback to
    # solving every point fails here, not only in the benchmark
    cfg = parse_config((ROOT / "configs" / "anisotropic_affine.yaml").read_text())
    solved = []

    def counting(values, kind):
        solved.append(math.prod(values.shape[:-2]))
        return spectra_of(values, kind)

    spectra_of = estimate._spectra
    monkeypatch.setattr(estimate, "_spectra", counting)
    est = collision_prob(cfg.ensemble(), cfg.collision_pattern(), cfg.spectral_kind,
                         cfg.time_grid(), cfg.eps_ladder, 100, cfg.seed)
    grid_points = 100 * cfg.time_grid().n_points
    assert est.n_failed == 0
    assert sum(solved) == est.points_solved
    assert est.grid_points == grid_points
    assert sum(solved) <= 0.3 * grid_points


# -- failures ------------------------------------------------------------


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


# every rung is hit by the first block's anchors, so no later point is solved
HIT_BY_ANCHORS = (1e9, 1e8)


def test_nan_at_a_pruned_point_fails_its_path(monkeypatch):
    grid = TimeGrid.unit([600, 64])  # blocks of 256 rows: (520, 7) is in the third
    spec, pattern = _spec((3,), 1, HALF2), CollisionPattern((2,), 3)
    kind = SpectralKind.REAL_EIGEN
    # clean, the path solves only the first block's anchors
    _, index, _, _ = _spied_pass(monkeypatch, spec, pattern, kind, grid, 0, 0, HIT_BY_ANCHORS)
    assert len(index) == math.ceil(256 / 3) * math.ceil(64 / 3)
    assert 520 * 64 + 7 not in index
    monkeypatch.setattr("eigencollide.matfield._sheet_rows", _nan_in_sheet_rows((520, 7)))
    named = r"non-finite entries in 1 matrices \(grid coordinates \[\(520, 7\)\]\)"
    with pytest.raises(NumericalError, match=named) as err:
        _path_pass(spec, pattern, kind, grid, 0, 0, HIT_BY_ANCHORS)
    assert err.value.batch_indices == (520 * 64 + 7,)


def test_collision_prob_counts_nan_at_a_pruned_point_as_failed(monkeypatch):
    # not an anchor: anchors are 0, 3 and 6
    monkeypatch.setattr("eigencollide.matfield._sheet_rows", _nan_in_sheet_rows((4,), 7))
    spec, pattern = _spec((3,), 1, ["1/2"]), CollisionPattern((2,), 3)
    est = collision_prob(spec, pattern, SpectralKind.REAL_EIGEN, TimeGrid.unit([8]),
                         HIT_BY_ANCHORS, 100, 3)
    assert est.n_failed == 1
    assert est.hits == (99, 99)
    assert est.points_solved == 99 * 3 and est.grid_points == 99 * 8


@pytest.mark.parametrize("shape, routine", [((3,), "eigvalsh"), ((3, 4), "svd")])
def test_solver_failure_in_the_solved_subset_names_grid_coordinates(monkeypatch, shape, routine):
    hurst, grid = GRIDS["2d"]  # blocks of 163 rows
    spec, kind = _spec(shape, 1, hurst), _kind(shape, 1)
    pattern = CollisionPattern((2,), shape[0])
    exact = _path_pass(spec, pattern, kind, grid, 0, 0)[2]
    ladder = (0.999 * exact, 0.5 * exact)
    _, index, _, _ = _spied_pass(monkeypatch, spec, pattern, kind, grid, 0, 0, ladder)
    # a solved point of the second block that is not an anchor
    points = [np.unravel_index(i, grid.shape) for i in index.tolist()]
    target = next((int(i), int(j)) for i, j in points
                  if i >= 163 and ((i - 163) % 3 or j % 3))
    matrix = sample_ensemble(spec, grid, 0, 0).values[target]
    solver = getattr(np.linalg, routine)

    def failing(a, *args, **kwargs):
        if (a == matrix).all(axis=(-2, -1)).any():
            raise np.linalg.LinAlgError("planted")
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, routine, failing)
    named = r"LAPACK %s did not converge for 1 matrices \(grid coordinates \[\(%d, %d\)\]\)" % (
        routine, *target)
    with pytest.raises(NumericalError, match=named) as err:
        _path_pass(spec, pattern, kind, grid, 0, 0, ladder)
    assert err.value.batch_indices == (target[0] * 100 + target[1],)


# -- memory ---------------------------------------------------------------


@pytest.mark.parametrize("affine, blocks", [("", 4), ("t", 5)], ids=["plain", "transform"])
def test_pruned_pass_holds_one_block_not_the_grid(affine, blocks):
    # 16 blocks of 256 rows; a grid-sized anchor or distance array would add
    # 2 MiB.  A block holds its raw matrices, each point's difference from
    # its anchor (and its mapped image with a transform), the entry streams
    # and per-point scalars: `blocks` block-matrix sizes in all.
    grid = TimeGrid.unit([4096, 64])
    spec, pattern = _spec((3,), 1, HALF2, affine), CollisionPattern((2,), 3)
    ladder = (1e-4, 5e-5)  # open in every block, so every block is certified
    args = (spec, pattern, SpectralKind.REAL_EIGEN, grid, 1)
    _path_pass(*args, 0, ladder)  # warm the per-grid caches
    block = estimate._BLOCK_POINTS * 9 * 8
    for p in (1, 2):
        tracemalloc.start()
        try:
            _, _, gap, solved = _path_pass(*args, p, ladder)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap > ladder[0] and solved > grid.n_points // 9  # certified past the anchors
        assert peak < blocks * block
