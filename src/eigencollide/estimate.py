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
Monte Carlo path 0: `harness.run` draws it once, in its simulate stage,
and passes its gaps to `box_count_dimension` and the estimate to
`verdict_experiment`.  `collision_prob` still draws path 0 again as one
of its paths; threading it through would add a parameter to save 1/paths
of the work.

`_path_rows`, the one path kernel, walks a path in blocks of about
`_BLOCK_POINTS` points (whole rows along axis 0; a 1-d grid is one block)
and yields each block's spectrum extremes and pattern gaps.
`collision_prob` keeps only a running minimum, so it holds no grid-sized
array per path; `_path` joins the blocks into the gap grid that `box_dim`
and `harness.simulate` read.  Grids of up to `_BLOCK_POINTS` points are
one block, drawn and solved as a whole.  The kernel has two routes,
chosen from the ensemble alone.  A plain 2x2 self-adjoint ensemble (shape
(2,), no shift, no transform) takes the plane route: the entry draws go
straight into the closed-form spectrum, and the gap is hi - lo, with no
matrix path, spectra array or gap DP.  Every other ensemble (d >= 3, a
shift or transform, 2xn singular values) takes the general route:
matrices, spectra, `pattern_gap_values`.  Both routes, blocked or whole,
are bitwise the general route over the whole grid: each block draws the
next rows of the same entry streams (see `matfield`), and every later
step acts point by point.  A sheet with a dense (H != 1/2) axis is drawn
whole and then split into blocks, since a dense factor applied to a block
would round differently.  Everything is allocated per call, with no
shared buffer, so worker threads cannot interfere.

Paths are independent across workers and the reduction is ordered by path
index, so results are identical for any thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .gfield import TimeGrid
from .matfield import (
    EnsembleSpec,
    _ensemble_rows,
    _plane_entries,
    _row_draws,
    sample_ensemble,
)
from .spectra import (
    NumericalError,
    _grid_coordinates,
    _plane_spectrum,
    _spectra,
    pattern_gap_values,
    spectral_path,
)
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
# points per row block of the path kernel: a block's working set is a few
# hundred KB, whatever the grid
_BLOCK_POINTS = 1 << 14


def _positive_ladder(values, name: str) -> tuple[float, ...]:
    """The ladder as floats; ValueError unless every entry is finite and > 0."""
    out = tuple(float(v) for v in values)
    if not all(0 < v < math.inf for v in out):  # False for NaN
        raise ValueError("%s entries must be finite and > 0" % name)
    return out


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
    """Rows per block of the path kernel: about `_BLOCK_POINTS` points, and
    every row of a 1-d grid."""
    if grid.ndim == 1:
        return grid.shape[0]
    return max(1, _BLOCK_POINTS // math.prod(grid.shape[1:]))


def _path_rows(spec, pattern, kind, grid, seed, path_index):
    """Yield (first row, spectrum min, spectrum max, pattern gaps) for each
    block of `_block_rows(grid)` rows along axis 0 of Monte Carlo path
    `path_index`.

    A plain 2x2 square ensemble (no shift, no transform) takes the plane
    route: its gap is hi - lo of the closed-form spectrum of the entry
    draws, bitwise equal to the general route's DP over the spectra,
    because (2,) is the only pattern with d = 2 and hi >= lo.  Spectra
    ascend along the last axis and min/max do not round, so the extremes
    of the first and last values are bitwise those of the whole spectra.
    A `NumericalError` names the grid coordinates of the offending points
    of the first block that has any.
    """
    rows = _block_rows(grid)
    if spec.shape == (2,) and spec.shift is None and spec.transform is None:
        for start, _, draw in _row_draws(spec, grid, seed, path_index, rows):
            with _grid_coordinates(grid, start):
                lo, hi = _plane_spectrum(*_plane_entries(draw, spec.beta))
            low, high = lo.min(), hi.max()
            hi -= lo
            yield start, low, high, hi
        return
    if rows >= grid.shape[0]:
        blocks = [(0, spectral_path(sample_ensemble(spec, grid, seed, path_index), kind).values)]
    else:
        blocks = _spectra_rows(spec, kind, grid, seed, path_index, rows)
    for start, values in blocks:
        yield start, values[..., 0].min(), values[..., -1].max(), pattern_gap_values(values, pattern)


def _spectra_rows(spec, kind, grid, seed, path_index, rows):
    """Yield (first row, spectra) for each block of `rows` rows."""
    for start, matrices in _ensemble_rows(spec, grid, seed, path_index, rows):
        with _grid_coordinates(grid, start):
            values = _spectra(matrices, kind)
        yield start, values


def _path(spec, pattern, kind, grid, seed, path_index):
    """(spectrum min, spectrum max, pattern gaps over the whole grid) of
    Monte Carlo path `path_index`, joined from `_path_rows`."""
    low, high, gaps = math.inf, -math.inf, None
    for start, lo, hi, block in _path_rows(spec, pattern, kind, grid, seed, path_index):
        low, high = np.minimum(low, lo), np.maximum(high, hi)
        if len(block) == grid.shape[0]:
            gaps = block
            continue
        if gaps is None:
            gaps = np.empty(grid.shape)
        gaps[start : start + len(block)] = block
    return low, high, gaps


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
    excluded from the fractions, never silently dropped.  Results are a
    function of (seed, config) only.  A `kind` or `pattern` that does not
    fit `spec` (beta, square vs rectangular, ambient dimension) raises
    ValueError.
    """
    _check_matches(spec, pattern, kind)
    eps = _positive_ladder(eps_ladder, "eps ladder")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps ladder must be strictly decreasing")
    if n_paths < 100:
        raise ValueError("need at least 100 paths for a meaningful estimate")

    def one(p: int) -> float:
        low = math.inf  # np.minimum, unlike min(), keeps a NaN wherever it sits
        try:
            for *_, gaps in _path_rows(spec, pattern, kind, grid, seed, p):
                low = np.minimum(low, gaps.min())
        except NumericalError:
            return math.nan
        return float(low)

    if threads <= 1:
        mins = np.array([one(p) for p in range(n_paths)])
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            mins = np.array(list(pool.map(one, range(n_paths))))
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
    )


def _box_count(marked: np.ndarray, grid: TimeGrid, delta: float) -> int:
    """Number of delta-boxes (physical side length) meeting the marked set.

    A box's points along each axis are one contiguous run of the axis, so
    `logical_or.reduceat` over the runs, axis by axis, leaves one flag per
    box, and nothing larger than the boolean mask is built.
    """
    occupied = marked
    for j in range(grid.ndim):
        a, b = grid.intervals[j]
        n_boxes = max(1, math.ceil((b - a) / delta - 1e-12))
        ids = np.minimum(np.floor((grid.axis(j) - a) / delta).astype(np.int64), n_boxes - 1)
        starts = np.flatnonzero(np.diff(ids, prepend=-1))
        occupied = np.logical_or.reduceat(occupied, starts, axis=j)
    return int(np.count_nonzero(occupied))


def box_count_dimension(
    values: np.ndarray,
    grid: TimeGrid,
    delta_ladder,
    holder: float,
    kappa: float = 1.0,
) -> BoxDimEstimate:
    """Box-counting slope for the near-zero set of a nonnegative field.

    Marks grid points where `values` <= kappa * delta^holder, counts
    occupied delta-boxes per ladder level, and fits the log-log slope by
    least squares.  The window drops the two coarsest levels and the
    finest one (boundary and discretization bias).  Too few usable levels
    flag the estimate unreliable, never raise; ladder entries or a `kappa`
    that are not finite and > 0 raise ValueError.
    """
    deltas = tuple(sorted(_positive_ladder(delta_ladder, "delta ladder"), reverse=True))
    if len(set(deltas)) != len(deltas):
        raise ValueError("delta ladder must not contain repeats")
    if not 0 < kappa < math.inf:
        raise ValueError("kappa must be finite and > 0")
    vals = np.asarray(values, dtype=float)
    if vals.shape != grid.shape:
        raise ValueError("values must be grid-shaped")
    notes = []
    counts = []
    thresholds = []
    for delta in deltas:
        thr = kappa * delta**holder
        thresholds.append(thr)
        counts.append(_box_count(vals <= thr, grid, delta))

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
        counts=tuple(counts),
        thresholds=tuple(thresholds),
        slope=slope,
        stderr=stderr,
        window=tuple(d for d, _ in window),
        reliable=not notes,
        notes=tuple(notes),
    )


def _box_holder(spec: EnsembleSpec) -> float:
    """Threshold exponent of the isotropic box count: the largest Hurst
    exponent.  Refuses H_N / H_1 > 2, which the isotropic boxes cannot
    follow."""
    hs = spec.kernel.hurst.as_floats()
    if max(hs) / min(hs) > 2.0:
        raise ValueError(
            "anisotropy H_N/H_1 > 2 is unsupported by isotropic box counting"
        )
    return max(hs)


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
    path 0, the path `harness.run` summarizes in its simulate stage.

    Anisotropic exponent vectors with H_N / H_1 > 2 are refused: isotropic
    boxes would then need axis-specific scaling the estimator does not do.
    Inputs that do not fit `spec` raise ValueError, as in `collision_prob`.
    """
    _check_matches(spec, pattern, kind)
    holder = _box_holder(spec)
    gaps = _path(spec, pattern, kind, grid, seed, 0)[2]
    return box_count_dimension(gaps, grid, delta_ladder, holder=holder, kappa=kappa)


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
