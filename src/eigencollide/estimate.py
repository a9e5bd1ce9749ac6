"""Monte Carlo collision probabilities and box-counting dimension.

`collision_prob` estimates P(min over the grid of the pattern gap <= eps)
over a ladder of thresholds; the theory predicts 0 or > 0 in the limit, so
the interesting statistics are the decay (Zero side) or the plateau
(Positive side) of the hit fraction as eps shrinks.  Hit fractions carry
Wilson 95% intervals, which behave in the small-probability regime where
Wald intervals collapse.

`box_dim` estimates the Hausdorff dimension of the collision-time set of a
single path by box counting with a value threshold coupled to the box
size: a grid point is marked when its gap is at most kappa * delta^H with
H the largest (smoothest-direction) regularity exponent.  The field moves
about delta^H across a box of side delta, so a fixed threshold would
overestimate the dimension.  Box counting is a numerical proxy for the
covering dimension; no capacity lower bound is attempted.  The path is
Monte Carlo path 0, which `harness.run` draws three times: its simulate
stage summarizes it, its estimate stage calls `box_dim` (as the `boxdim`
command does) and `collision_prob` draws it as one of its paths.  Sharing
one draw would add a parameter or a second route to save 1/paths of the
work.

`_path_rows`, the one path kernel, walks a path in blocks of about
`_BLOCK_POINTS` points (whole rows along axis 0, on 1-d grids too) and
yields each block's spectrum extremes, pattern gaps and points solved.
Its two consumers keep running reductions over the blocks: `_path_pass`
the spectrum min and max, the min gap and the points solved, `box_dim`
the occupied boxes of each delta (`_BoxCounts`).  No reader holds a
grid-sized array per path.  The kernel has two routes, chosen from the ensemble alone.  A
plain 2x2 self-adjoint ensemble (shape (2,), no shift, no transform)
takes the plane route: the entry draws go straight into the closed-form
spectrum, and the gap is hi - lo, with no matrix path, spectra array or
gap DP.  Every other ensemble (d >= 3, a shift or transform, 2xn
singular values) takes the general route: each block's raw matrices
(`matfield._ensemble_rows`), checked finite at every point, mapped by
`matfield._affine_values`, their spectra, then `pattern_gap_values`.
Both routes are bitwise the whole-grid reference
`pattern_gap_values(spectral_path(sample_ensemble(...)).values)`: each
block draws the next rows of the same entry streams (see `matfield`),
and every later step acts point by point.  How an entry is drawn is
`gfield._sheet_rows`' choice: a grid whose axes all have H = 1/2, a 1-d
Brownian motion included, draws each block's own rows; a sheet with a
dense (H != 1/2) axis is drawn whole and then split into blocks, since a
dense factor applied to a block would round differently, and so is a
fractional 1-d grid (Davies-Harte on a lattice through 0); the walk's
memory budget (`matfield._walk_problems`) counts the whole path then.
Everything is allocated per call, with no shared buffer, so worker
threads cannot interfere.

`collision_prob` passes its eps ladder to the kernel, and the general
route then solves a point only where it can still change the path's hit
count of some rung (certified solve pruning).  A block solves its
anchors, every `_ANCHOR_STRIDE` = 3rd point on every axis counted from
its first row, and updates the path's running min gap m; with tau the
largest rung below m (none: the block is done), a point B whose nearest
anchor is A is solved only where

    gap(A) - 2 |M_B - M_A|_F - slack <= tau   (or the bound is NaN),

M being the mapped matrices.  Weyl's inequality |lambda_k(M_B) -
lambda_k(M_A)| <= |M_B - M_A|_F (Mirsky's for singular values) and the
pattern gap being 2-Lipschitz in the sorted spectrum make a skipped
point's gap exceed tau, and every rung at or above m is already hit, so
each rung's hit count is exact.  The per-path min gap `collision_prob`
reduces is exact only up to the open rung: it may be any value that
lies between the same two rungs.  The mapped difference is one GEMM of
the raw differences (`_certificate`); the slack, `_SLACK` times the
transforms' condition numbers times (1 + |shift|_F + max |lambda(A)|),
is about 1e7 unit roundoffs above the rounding of the map, the solver
and the gap DP.  Solved points are bitwise those of an unpruned walk,
since every step after the fill acts on each matrix alone.  `box_dim`
and `harness.simulate` pass no rungs and solve every point, and the
plane route always does.

Paths are independent across workers and the reduction is ordered by path
index, so results are identical for any thread count.  A path index is one
word of its entries' stream keys, so a run takes at most 2**32 paths.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .gfield import TimeGrid
from .matfield import EnsembleSpec, _affine_values, _ensemble_rows, _plane_entries, _row_draws
from .rng import _KEY_LIMIT
from .spectra import (
    NumericalError,
    _grid_coordinates,
    _nonfinite,
    _plane_spectrum,
    _spectra,
    _sqnorm,
    pattern_gap_values,
)
# sample_ensemble, spectral_path: unused, bound for the benchmark's tracer
from .matfield import sample_ensemble  # noqa: F401
from .spectra import spectral_path  # noqa: F401
from .theory import CollisionPattern, SpectralKind, TheoryVerdict, Verdict, dichotomy

__all__ = [
    "CollisionProbEstimate",
    "BoxDimEstimate",
    "ExperimentReport",
    "wilson_interval",
    "collision_prob",
    "box_dim",
    "box_count_dimension",
    "verdict_experiment",
]

_Z95 = 1.959963984540054
# the box-count fit window drops the coarsest and finest ladder levels
# (boundary and discretization bias)
_DROP_COARSE = 2
_DROP_FINE = 1
# points per row block of the path kernel.  A plane-route block's working
# set is a few hundred KB; a general-route block holds its matrices too
# (2^14 points x 9 x 8 B, about 1.2 MB, for 3x3 real) before spectra
_BLOCK_POINTS = 1 << 14
# the pruned general route solves every third point on every axis, counted
# from the block's first row, before any other
_ANCHOR_STRIDE = 3
# rounding slack of the pruning certificate, relative to kappa times the
# anchor's scale; about 1e7 unit roundoffs, far above the backward error
# of the map, the solver and the gap DP
_SLACK = 1e-9


def _finite_positive(v) -> bool:
    return 0 < v < math.inf  # False for NaN


def _mc_problems(eps: tuple, n_paths: int, threads: int) -> list[str]:
    """What is wrong with the Monte Carlo arguments of `collision_prob`, in
    config vocabulary; config validation reports the same list."""
    out = []
    if len(eps) < 2 or any(b >= a for a, b in zip(eps, eps[1:])):
        out.append("eps_ladder must be strictly decreasing with >= 2 levels")
    if not all(map(_finite_positive, eps)):
        out.append("eps_ladder entries must be finite and > 0")
    if n_paths < 100:
        out.append("paths must be >= 100")
    if n_paths > _KEY_LIMIT:  # a path index is one stream key component
        out.append("paths must be <= 2**32 (%d)" % _KEY_LIMIT)
    if threads < 1:
        out.append("threads must be >= 1")
    return out


def _box_problems(deltas: tuple, kappa) -> list[str]:
    """What is wrong with the box-count arguments of `box_count_dimension`
    and `box_dim`, in config vocabulary; config validation reports the
    same list."""
    out = []
    if not all(map(_finite_positive, deltas)):
        out.append("delta_ladder entries must be finite and > 0")
    if len(set(deltas)) != len(deltas):
        out.append("delta_ladder entries must not repeat")
    if not _finite_positive(kappa):
        out.append("kappa must be finite and > 0")
    return out


def _refuse(problems: list[str]) -> None:
    if problems:
        raise ValueError("; ".join(problems))


def wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial fraction."""
    if n <= 0:
        return (0.0, 1.0)
    p = hits / n
    z = _Z95
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class CollisionProbEstimate:
    """Hit fractions over a decreasing eps ladder, with Wilson intervals."""

    eps_ladder: tuple[float, ...]
    hits: tuple[int, ...]
    fractions: tuple[float, ...]
    intervals: tuple[tuple[float, float], ...]
    n_paths: int
    n_failed: int
    seed: int
    # matrices solved and grid points walked over the paths that did not
    # fail; run diagnostics, kept out of to_json_dict
    points_solved: int = 0
    grid_points: int = 0

    def to_json_dict(self) -> dict:
        return {
            "eps_ladder": list(self.eps_ladder),
            "hits": list(self.hits),
            "fractions": list(self.fractions),
            "wilson_95": [list(iv) for iv in self.intervals],
            "n_paths": self.n_paths,
            "n_failed": self.n_failed,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class BoxDimEstimate:
    """log N(delta) vs log(1/delta) slope over a fit window."""

    deltas: tuple[float, ...]
    counts: tuple[int, ...]
    thresholds: tuple[float, ...]
    slope: float | None
    stderr: float | None
    window: tuple[float, ...]
    reliable: bool
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "deltas": list(self.deltas),
            "counts": list(self.counts),
            "thresholds": list(self.thresholds),
            "slope": self.slope,
            "stderr": self.stderr,
            "fit_window": list(self.window),
            "reliable": self.reliable,
            "notes": list(self.notes),
        }


def _check_matches(spec: EnsembleSpec, pattern: CollisionPattern, kind: SpectralKind) -> None:
    """Refuse a spectral kind or pattern stated for another ensemble, whose
    theory the estimate would otherwise report."""
    if kind.beta != spec.beta:
        raise ValueError(
            "%s needs beta = %d, the ensemble has beta = %d" % (kind.value, kind.beta, spec.beta)
        )
    if kind.singular == spec.is_square:
        raise ValueError(
            "%s needs a %s ensemble" % (kind.value, "rectangular" if kind.singular else "square")
        )
    if pattern.ambient != spec.dims[0]:
        raise ValueError(
            "pattern ambient %d does not match the ensemble's %d spectral values"
            % (pattern.ambient, spec.dims[0])
        )


def _block_rows(grid: TimeGrid) -> int:
    """Rows per block of the path kernel: about `_BLOCK_POINTS` points, a
    row being one point on a 1-d grid.  Config validation asks the walk's
    limits with these rows."""
    return max(1, _BLOCK_POINTS // math.prod(grid.shape[1:]))


def _anchor_index(n: int) -> np.ndarray:
    """For each point of an axis of `n` points, the index of its nearest
    anchor among the anchors 0, 3, 6, ...; points past the last anchor
    take the last."""
    return np.minimum((np.arange(n) + 1) // _ANCHOR_STRIDE, (n - 1) // _ANCHOR_STRIDE)


def _certificate(spec: EnsembleSpec):
    """(lift, kappa, |shift|_F) of the pruned general route's certificate.

    The mapped difference of two raw matrices, T (X_B - X_A) T* (square)
    or T (X_B - X_A) Ttilde (rectangular), is row-major `vec(X_B - X_A) @
    lift` with lift = kron(T, conj T)^T or kron(T, Ttilde^T)^T, one GEMM
    for a whole block; lift is None with no transform, where the raw
    difference is the mapped one.  The shift cancels, and the square
    map's symmetrization does not increase the Frobenius norm.  Rounding
    in the map can grow with kappa, the product of the factors'
    condition numbers, and with the shift's norm, so the slack scales
    with both."""
    t, right = spec.transform, spec.transform_right
    if spec.is_square and t is not None:
        right = np.conj(t.T)
    shift_norm = 0.0 if spec.shift is None else float(np.linalg.norm(spec.shift))
    if t is None and right is None:
        return None, 1.0, shift_norm
    d1, d2 = spec.dims
    t = np.eye(d1) if t is None else t
    right = np.eye(d2) if right is None else right
    kappa = float(np.linalg.cond(t) * np.linalg.cond(right))
    return np.kron(t, right.T).T, kappa, shift_norm


def _solve(matrices, at, spec, pattern, kind):
    """(spectra, pattern gaps) of the flat raw matrices `matrices[at]`
    mapped by `_affine_values`.  A `NumericalError` names flat block
    indices."""
    try:
        values = _spectra(_affine_values(matrices[at], spec), kind)
    except NumericalError as err:
        where = np.arange(len(matrices))[at][list(err.batch_indices)]
        raise NumericalError(str(err), batch_indices=where) from None
    return values, pattern_gap_values(values, pattern)


def _block_gaps(matrices, shape, spec, pattern, kind, open_rungs, certificate):
    """(flat pattern gaps, spectra solved) of one general-route block of
    flat, finite raw `matrices` shaped `shape` on the grid.

    With no certificate every point is solved.  Otherwise only the
    anchors, every `_ANCHOR_STRIDE`-th point on every axis counted from
    the block's first row, and then only the points the certificate
    cannot clear: with A a point's nearest anchor, M the mapped matrices
    and tau the largest of `open_rungs` (the rungs not yet hit, ascending)
    below the running min and the anchors' gaps, B is cleared when
    gap(A) - 2 |M_B - M_A|_F - slack > tau, so its gap exceeds tau by
    Weyl's (Mirsky's) inequality.  Cleared points read +inf; with no
    rung left open nothing is solved."""
    if certificate is None:
        values, gaps = _solve(matrices, slice(None), spec, pattern, kind)
        return gaps, [values]
    gaps = np.full(len(matrices), np.inf)
    if not open_rungs:
        return gaps, []
    axes = [np.arange(0, n, _ANCHOR_STRIDE) for n in shape]
    anchors = np.ravel_multi_index(np.ix_(*axes), shape).ravel()
    values, anchor_gaps = _solve(matrices, anchors, spec, pattern, kind)
    gaps[anchors] = anchor_gaps
    below = [e for e in open_rungs if e < anchor_gaps.min()]
    if not below:
        return gaps, [values]
    tau = below[-1]
    lift, kappa, shift_norm = certificate
    # each point's anchor matrix, then its difference from it, in place
    nearest = np.ix_(*[_anchor_index(n) for n in shape])
    at_anchor = matrices[anchors].reshape(tuple(map(len, axes)) + matrices.shape[1:])
    diff = at_anchor[nearest].reshape(len(matrices), -1)
    np.subtract(matrices.reshape(len(matrices), -1), diff, out=diff)
    if lift is not None:
        diff = diff @ lift
    distance = np.sqrt(_sqnorm(diff))
    del diff
    scale = 1.0 + shift_norm + np.maximum(np.abs(values[:, 0]), np.abs(values[:, -1]))
    floor = anchor_gaps - _SLACK * kappa * scale
    # not (bound > tau): a NaN bound is solved, never cleared
    solve = ~(floor.reshape(at_anchor.shape[:-2])[nearest].ravel() - 2.0 * distance > tau)
    solve[anchors] = False
    rest = np.flatnonzero(solve)
    if not len(rest):
        return gaps, [values]
    rest_values, gaps[rest] = _solve(matrices, rest, spec, pattern, kind)
    return gaps, [values, rest_values]


def _path_rows(spec, pattern, kind, grid, seed, path_index, rungs=()):
    """Yield (first row, spectrum min, spectrum max, pattern gaps, points
    solved) for each block of `_block_rows(grid)` rows along axis 0 of
    Monte Carlo path `path_index`.

    A plain 2x2 square ensemble (no shift, no transform) takes the plane
    route: its gap is hi - lo of the closed-form spectrum of the entry
    draws, bitwise equal to the general route's DP over the spectra,
    because (2,) is the only pattern with d = 2 and hi >= lo.  Spectra
    ascend along the last axis and min/max do not round, so the extremes
    of the first and last values are bitwise those of the whole spectra.

    The general route solves every point when `rungs` is empty.  Given
    `rungs` (an eps ladder), it solves only what `_block_gaps` cannot
    clear of the rungs still above the running min gap; a cleared point's
    gap reads +inf and the extremes are those of the solved points, so
    only the hit count of each rung is exact, not the min gap itself.
    The plane route ignores `rungs`.  Raw matrices are checked finite at
    every point before anything is solved.  A `NumericalError` names the
    grid coordinates of the offending points of the first block that has
    any.
    """
    rows = _block_rows(grid)
    if spec.shape == (2,) and spec.shift is None and spec.transform is None:
        for start, _, draw in _row_draws(spec, grid, seed, path_index, rows):
            with _grid_coordinates(grid, start):
                lo, hi = _plane_spectrum(*_plane_entries(draw, spec.beta))
            low, high = lo.min(), hi.max()
            hi -= lo
            yield start, low, high, hi, hi.size
        return
    certificate = _certificate(spec) if rungs else None
    rungs = sorted(rungs)
    gap = math.inf
    for start, raw in _ensemble_rows(spec, grid, seed, path_index, rows):
        shape = raw.shape[:-2]
        matrices = raw.reshape((-1,) + raw.shape[-2:])
        with _grid_coordinates(grid, start):
            finite = np.isfinite(matrices).all(axis=(1, 2))
            if not finite.all():
                raise _nonfinite(~finite)
            gaps, solved = _block_gaps(matrices, shape, spec, pattern, kind,
                                       [e for e in rungs if e < gap], certificate)
        gap = min(gap, gaps.min())
        low = min((v[:, 0].min() for v in solved), default=math.inf)
        high = max((v[:, -1].max() for v in solved), default=-math.inf)
        del raw, matrices  # before the next block is filled
        yield start, low, high, gaps.reshape(shape), sum(map(len, solved))


def _path_pass(spec, pattern, kind, grid, seed, path_index, rungs=()):
    """(spectrum min, spectrum max, min pattern gap, points solved) of
    Monte Carlo path `path_index`, reduced block by block over
    `_path_rows` with the same `rungs`; with rungs, all but the hit count
    of each rung are over the solved points only."""
    # np.minimum, unlike min(), keeps a NaN wherever it sits
    low, high, gap, solved = math.inf, -math.inf, math.inf, 0
    for _, lo, hi, gaps, n in _path_rows(spec, pattern, kind, grid, seed, path_index, rungs):
        low, high, gap = np.minimum(low, lo), np.maximum(high, hi), np.minimum(gap, gaps.min())
        solved += n
    return low, high, gap, solved


def collision_prob(
    spec: EnsembleSpec,
    pattern: CollisionPattern,
    kind: SpectralKind,
    grid: TimeGrid,
    eps_ladder,
    n_paths: int,
    seed: int,
    threads: int = 1,
) -> CollisionProbEstimate:
    """Hit fractions of {min gap <= eps} over `n_paths` independent paths.

    Paths on which the eigensolver fails are counted in `n_failed` and
    excluded from the fractions, never silently dropped; a non-finite
    matrix fails its path wherever it sits.  General-route paths solve
    only the points that can change a hit count (module docstring), and
    `points_solved` out of `grid_points` says how many.  Results are a
    function of (seed, config) only.  A `kind` or `pattern` that does not
    fit `spec` (beta, square vs rectangular, ambient dimension) raises
    ValueError, and so do the arguments `_mc_problems` names, all at once.
    """
    _check_matches(spec, pattern, kind)
    eps = tuple(float(e) for e in eps_ladder)
    _refuse(_mc_problems(eps, n_paths, threads))

    def one(p: int) -> tuple[float, int]:
        try:
            _, _, gap, solved = _path_pass(spec, pattern, kind, grid, seed, p, eps)
            return float(gap), solved
        except NumericalError:
            return math.nan, 0

    if threads == 1:
        results = [one(p) for p in range(n_paths)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, range(n_paths)))
    mins = np.array([gap for gap, _ in results])
    ok = ~np.isnan(mins)
    n_ok = int(ok.sum())
    hits = tuple(int((mins[ok] <= e).sum()) for e in eps)
    fractions = tuple(h / n_ok if n_ok else math.nan for h in hits)
    intervals = tuple(wilson_interval(h, n_ok) for h in hits)
    return CollisionProbEstimate(
        eps_ladder=eps,
        hits=hits,
        fractions=fractions,
        intervals=intervals,
        n_paths=n_paths,
        n_failed=n_paths - n_ok,
        seed=seed,
        points_solved=sum(solved for _, solved in results),
        grid_points=n_ok * grid.n_points,
    )


def _box_runs(grid: TimeGrid, axis: int, delta: float) -> np.ndarray:
    """Run index of each point of `grid.axis(axis)` among the delta-boxes
    (physical side length) the axis meets.  A box's points along an axis
    are one contiguous run, so boxes are indexed by run, never by box id:
    a fine delta has more boxes than the axis has points."""
    a, b = grid.intervals[axis]
    n_boxes = max(1, math.ceil((b - a) / delta - 1e-12))
    ids = np.minimum(np.floor((grid.axis(axis) - a) / delta).astype(np.int64), n_boxes - 1)
    return np.cumsum(np.diff(ids, prepend=ids[0]) != 0)


def _run_starts(runs: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.diff(runs, prepend=-1))


class _BoxCounts:
    """Occupied delta-boxes of {gaps <= kappa * delta^holder} for each delta
    of a ladder, accumulated over blocks of whole rows along axis 0.

    Per block and delta, `logical_or.reduceat` over the box runs of axes
    1.. and then over the block's runs of axis 0 leaves one flag per box,
    ORed into an occupancy array of one flag per (run, run, ...); nothing
    larger than a block's mask and the occupancy arrays is built."""

    def __init__(self, grid: TimeGrid, delta_ladder, holder: float, kappa: float):
        self.deltas = tuple(sorted((float(d) for d in delta_ladder), reverse=True))
        self.thresholds = tuple(kappa * delta**holder for delta in self.deltas)
        # per delta: threshold, axis-0 run of each row, run starts of axes
        # 1.., occupancy
        self._levels = []
        for delta, thr in zip(self.deltas, self.thresholds):
            runs = [_box_runs(grid, j, delta) for j in range(grid.ndim)]
            occupied = np.zeros([r[-1] + 1 for r in runs], dtype=bool)
            self._levels.append((thr, runs[0], [_run_starts(r) for r in runs[1:]], occupied))

    def add(self, start: int, gaps: np.ndarray) -> None:
        """Mark the block of rows `start` .. `start + len(gaps)`."""
        for thr, rows, starts, occupied in self._levels:
            marked = gaps <= thr
            for j, s in enumerate(starts, 1):
                marked = np.logical_or.reduceat(marked, s, axis=j)
            runs = rows[start : start + len(gaps)]
            first = _run_starts(runs)
            occupied[runs[first]] |= np.logical_or.reduceat(marked, first, axis=0)

    def counts(self) -> tuple[int, ...]:
        return tuple(int(np.count_nonzero(occupied)) for *_, occupied in self._levels)


def _box_fit(boxes: _BoxCounts) -> BoxDimEstimate:
    """Least-squares log-log slope of the counts over the fit window, which
    drops the two coarsest levels and the finest one (boundary and
    discretization bias).  Too few usable levels flag the estimate
    unreliable, never raise."""
    deltas, counts = boxes.deltas, boxes.counts()
    notes = []
    lo = _DROP_COARSE
    hi = len(deltas) - _DROP_FINE
    window = [
        (d, c) for d, c in zip(deltas[lo:hi], counts[lo:hi]) if c > 0
    ]
    if len(window) < 3:
        notes.append("fewer than 3 usable levels in the fit window")
    if sum(1 for _, c in window if c >= 10) < 3:
        notes.append("fewer than 3 levels with at least 10 occupied boxes")
    slope = stderr = None
    if len(window) >= 2:
        x = np.log(1.0 / np.array([d for d, _ in window]))
        y = np.log(np.array([c for _, c in window], dtype=float))
        slope_, intercept = np.polyfit(x, y, 1)
        resid = y - (slope_ * x + intercept)
        sxx = ((x - x.mean()) ** 2).sum()
        dof = len(x) - 2
        stderr = float(np.sqrt(resid @ resid / dof / sxx)) if dof > 0 else None
        slope = float(slope_)
    else:
        notes.append("not enough occupied levels to fit a slope")
    return BoxDimEstimate(
        deltas=deltas,
        counts=counts,
        thresholds=boxes.thresholds,
        slope=slope,
        stderr=stderr,
        window=tuple(d for d, _ in window),
        reliable=not notes,
        notes=tuple(notes),
    )


def box_count_dimension(
    values: np.ndarray,
    grid: TimeGrid,
    delta_ladder,
    holder: float,
    kappa: float = 1.0,
) -> BoxDimEstimate:
    """Box-counting slope for the near-zero set of a nonnegative field.

    Marks grid points where `values` <= kappa * delta^holder, counts
    occupied delta-boxes per ladder level (one block of the counter
    `box_dim` streams a path through), and fits the log-log slope.
    Non-finite `values`, a `holder` that is not finite and > 0 and the
    arguments `_box_problems` names raise ValueError, all at once.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape != grid.shape:
        raise ValueError("values must be grid-shaped")
    deltas = tuple(float(d) for d in delta_ladder)
    problems = _box_problems(deltas, kappa)
    if not _finite_positive(holder):
        problems.append("holder must be finite and > 0")
    if not np.isfinite(vals).all():
        problems.append("values must be finite")
    _refuse(problems)
    boxes = _BoxCounts(grid, deltas, holder, kappa)
    boxes.add(0, vals)
    return _box_fit(boxes)


def box_dim(
    spec: EnsembleSpec,
    pattern: CollisionPattern,
    kind: SpectralKind,
    grid: TimeGrid,
    seed: int,
    delta_ladder,
    kappa: float = 1.0,
) -> BoxDimEstimate:
    """Box-counting dimension of the collision-time set on Monte Carlo
    path 0, the path `harness.run` summarizes in its simulate stage.  The
    threshold exponent is the largest Hurst exponent.

    Anisotropic exponent vectors with H_N / H_1 > 2 are refused: isotropic
    boxes would then need axis-specific scaling the estimator does not do.
    They, the arguments `_box_problems` names and inputs that do not fit
    `spec` (as in `collision_prob`) raise ValueError before any draw.
    """
    _check_matches(spec, pattern, kind)
    deltas = tuple(float(d) for d in delta_ladder)
    hs = spec.kernel.hurst.as_floats()
    problems = _box_problems(deltas, kappa)
    if max(hs) / min(hs) > 2.0:
        problems.insert(0, "anisotropy H_N/H_1 > 2 is unsupported by isotropic box counting")
    _refuse(problems)
    boxes = _BoxCounts(grid, deltas, max(hs), kappa)
    for start, _, _, gaps, _ in _path_rows(spec, pattern, kind, grid, seed, 0):
        boxes.add(start, gaps)
    return _box_fit(boxes)


@dataclass(frozen=True)
class ExperimentReport:
    """Theory verdict next to its Monte Carlo and box-dimension checks."""

    theory: TheoryVerdict
    mc: CollisionProbEstimate
    boxdim: BoxDimEstimate | None
    mc_behavior: str  # consistent-with-zero | consistent-with-positive | inconclusive
    agree: bool

    def to_json_dict(self) -> dict:
        return {
            "theory": self.theory.to_json_dict(),
            "mc": self.mc.to_json_dict(),
            "boxdim": None if self.boxdim is None else self.boxdim.to_json_dict(),
            "mc_behavior": self.mc_behavior,
            "agree": self.agree,
        }


def classify_mc(est: CollisionProbEstimate) -> str:
    """Decay vs plateau of the hit fraction along the eps ladder.

    Zero side: every rung at most half the previous one.  Positive side:
    the two smallest-eps fractions overlap at 95% and both exceed 0.05.
    The extrapolation to eps -> 0 is heuristic by nature.
    """
    f = est.fractions
    if len(f) >= 2 and all(b <= a / 2 for a, b in zip(f, f[1:])):
        return "consistent-with-zero"
    if len(f) >= 2:
        (lo1, hi1), (lo2, hi2) = est.intervals[-2], est.intervals[-1]
        overlap = max(lo1, lo2) <= min(hi1, hi2)
        if overlap and f[-1] > 0.05 and f[-2] > 0.05:
            return "consistent-with-positive"
    return "inconclusive"


def verdict_experiment(
    spec: EnsembleSpec,
    pattern: CollisionPattern,
    kind: SpectralKind,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    eps_ladder,
    boxdim: BoxDimEstimate | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """Bundle the exact prediction with the Monte Carlo estimate and
    agreement flags; `boxdim`, when given, is carried into the report.
    Inputs that do not fit `spec` raise ValueError, as in `collision_prob`."""
    theory = dichotomy(spec.kernel.hurst, kind, pattern)
    mc = collision_prob(spec, pattern, kind, grid, eps_ladder, n_paths, seed, threads)
    behavior = classify_mc(mc)
    expected = (
        "consistent-with-zero"
        if theory.verdict is Verdict.ZERO
        else "consistent-with-positive"
    )
    return ExperimentReport(
        theory=theory,
        mc=mc,
        boxdim=boxdim,
        mc_behavior=behavior,
        agree=behavior == expected,
    )
