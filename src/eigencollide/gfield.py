"""Scalar Gaussian fields on rectangular time grids.

`_sheet_rows` is the one sampler: it decides how any grid is drawn, and
yields the draw in blocks of rows along axis 0 for the Monte Carlo path
kernel.  `sample_sheet` is its one-block case and `sample_fbm_1d` the
one-block case of a one-exponent kernel, so one (seed, key) has one
realization whichever of them draws it.  Three methods, all exact:

* Every axis H = 1/2 (`_streams_by_rows`), a 1-d Brownian motion
  included: the factor of min(s, t) is L[i, k] = sqrt(t_k - t_{k-1}) for
  k <= i (t_0 = 0), applied as a scaling and a cumulative sum in O(n_j)
  per line.  A block draws only its own rows of normals and carries the
  last row of the axis-0 cumulative sum into the next block, so memory
  follows the block, not the grid.
* A fractional 1-d grid on a lattice through 0 whose draw, about
  `_LATTICE_STEP_BYTES` per lattice step from 0 to the grid end, fits in
  `_MAX_LATTICE_BYTES` (1 GiB): circulant embedding of the increment
  covariance (Davies-Harte, real FFT), drawn for the lattice from 0 and
  cut to the grid.
* Everything else: the sheet's covariance factorizes over axes, so the
  draw applies one cached per-axis Cholesky factor along each tensor
  dimension (the dense path; H = 1/2 axes still take the cumulative
  sum).  It costs n_j^3 once per axis plus (prod n_j) * sum_j c_j per
  draw, with c_j = 1 on H = 1/2 axes and n_j otherwise.

The last two draw the whole grid and slice it: a dense factor applied to
a row block goes through BLAS, whose blocking, and so its rounding,
depends on the row count, and the draw would no longer be the same bit
for bit.  The method follows from (grid, H) alone: a circulant embedding
with a negative eigenvalue, or an axis covariance without a Cholesky
factor, raises FactorizationError rather than fall back to another
method.

`_sampler_problems` owns the size limits: two points per axis, at most
`_MAX_DENSE` points on an axis with a dense factor, and on a fractional
1-d grid at most `_MAX_DENSE` points unless it takes Davies-Harte.
Nothing it checks allocates, so config validation reports its list
before any draw.

`_draw_plan` checks a (kernel, grid) once and caches what every draw of
it needs: the method, each axis's Brownian weights shaped to broadcast
along it or its dense factor, and the circulant spectrum.  A refused grid
raises there and is never cached, so every draw of it is refused.  An
entry draw is then its stream, its normals and the plan's arithmetic; a
caller drawing many entries looks the plan up once and passes it in.

Sampling uses the splittable streams of `eigencollide.rng`; a fixed
(seed, key) always reproduces the same values bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .rng import DOMAIN_FIELD, substream
from .theory import HurstVector

__all__ = [
    "FactorizationError",
    "TimeGrid",
    "KernelSpec",
    "FieldSample",
    "AssumptionReport",
    "kernel_eval",
    "kernel_gram",
    "sample_fbm_1d",
    "sample_sheet",
    "verify_assumptions",
]

# Dense per-axis factors refuse axes beyond this many points.
_MAX_DENSE = 4096
# A TimeGrid refuses more points than this in total.
_MAX_POINTS = 1 << 26
# bytes a Davies-Harte draw holds per lattice step from 0, and their cap:
# the memory budget of a path walk (`matfield._MAX_PATH_BYTES`)
_LATTICE_STEP_BYTES = 64
_MAX_LATTICE_BYTES = 1 << 30
# grid pairs per row block of the assumption scan
_SCAN_PAIRS = 1 << 18


class FactorizationError(RuntimeError):
    """Raised when no PSD factorization of a covariance can be obtained."""


@dataclass(frozen=True)
class TimeGrid:
    """Regular lattice on a compact box inside (0, inf)^N.

    `intervals` holds per-axis (a_j, b_j) with 0 < a_j <= b_j, `shape` the
    per-axis point counts.  A degenerate axis (a_j == b_j) must have a
    single point; samplers need at least two points per axis.
    """

    intervals: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]

    def __init__(self, intervals: Sequence[Sequence[float]], shape: Sequence[int]) -> None:
        ivs = tuple((float(a), float(b)) for a, b in intervals)
        ns = tuple(int(n) for n in shape)
        if len(ivs) != len(ns) or len(ivs) == 0:
            raise ValueError("need one (a, b) interval and one count per axis")
        for (a, b), n in zip(ivs, ns):
            if not a > 0:
                raise ValueError("interval start must be positive, got %g" % a)
            if a > b:
                raise ValueError("interval must satisfy a <= b")
            if a == b and n != 1:
                raise ValueError("degenerate axis a == b needs exactly one point")
            if n < 1:
                raise ValueError("need at least one point per axis")
        total = math.prod(ns)
        if total > _MAX_POINTS:
            raise ValueError(
                "grid has %d points, over the budget of %d" % (total, _MAX_POINTS)
            )
        object.__setattr__(self, "intervals", ivs)
        object.__setattr__(self, "shape", ns)

    @classmethod
    def unit(cls, shape: Sequence[int], interval=(1.0, 2.0)) -> "TimeGrid":
        """Grid with the same interval (default [1, 2]) on every axis."""
        return cls([interval] * len(tuple(shape)), shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def n_points(self) -> int:
        return math.prod(self.shape)

    def axis(self, j: int) -> np.ndarray:
        a, b = self.intervals[j]
        return np.linspace(a, b, self.shape[j])

    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(self.axis(j) for j in range(self.ndim))

    def points(self) -> np.ndarray:
        """All grid points as an array of shape (n_points, N), C-order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class KernelSpec:
    """Covariance spec: product of per-axis fractional Brownian kernels."""

    hurst: HurstVector

    @property
    def ndim(self) -> int:
        return len(self.hurst)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # hashing the exponents' Fractions would cost every draw's plan lookup
        return hash(self.hurst)


@dataclass(frozen=True)
class FieldSample:
    """One draw of the field on a grid."""

    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False


def _axis_cov(h: float, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    two_h = 2.0 * h
    return 0.5 * (s**two_h + t**two_h - np.abs(s - t) ** two_h)


def kernel_eval(spec: KernelSpec, s, t) -> float:
    """Covariance C(s, t) of the field at two points of (0, inf)^N."""
    sv = np.atleast_1d(np.asarray(s, dtype=float))
    tv = np.atleast_1d(np.asarray(t, dtype=float))
    if sv.shape != tv.shape or sv.ndim != 1 or len(sv) != spec.ndim:
        raise ValueError("points must both have %d coordinates" % spec.ndim)
    if np.any(sv <= 0) or np.any(tv <= 0):
        raise ValueError("points must have positive coordinates")
    out = 1.0
    for h, sj, tj in zip(spec.hurst.as_floats(), sv, tv):
        out *= _axis_cov(h, np.float64(sj), np.float64(tj))
    return float(out)


def kernel_gram(spec: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """Covariance matrix over all grid points (C-order flattening)."""
    if grid.ndim != spec.ndim:
        raise ValueError("grid and kernel dimension mismatch")
    idx = np.arange(grid.n_points)
    return _pair_cov(spec, grid, idx[:, None], idx[None, :])


def _pair_cov(spec: KernelSpec, grid: TimeGrid, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """C(t_p, t_q) for broadcastable arrays p, q of flat (C-order) grid
    indices: the axis covariances multiplied in axis order onto 1."""
    out = np.ones(np.broadcast_shapes(p.shape, q.shape))
    coords = zip(np.unravel_index(p, grid.shape), np.unravel_index(q, grid.shape))
    for j, (h, (pj, qj)) in enumerate(zip(spec.hurst.as_floats(), coords)):
        ax = grid.axis(j)
        out *= _axis_cov(h, ax[pj], ax[qj])
    return out


@lru_cache(maxsize=64)
def _axis_factor(h: float, a: float, b: float, n: int) -> np.ndarray:
    """Lower Cholesky factor of the H = h covariance on n points of [a, b];
    a covariance without one raises FactorizationError."""
    ax = np.linspace(a, b, n)
    try:
        factor = np.linalg.cholesky(_axis_cov(h, ax[:, None], ax[None, :]))
    except np.linalg.LinAlgError:
        raise FactorizationError(
            "the H = %g covariance of %d points on [%g, %g] has no Cholesky factor"
            % (h, n, a, b)
        ) from None
    factor.flags.writeable = False
    return factor


def _brownian_weights(a: float, b: float, n: int) -> np.ndarray:
    """Column weights sqrt(t_k - t_{k-1}), t_0 = 0, of the exact Cholesky
    factor of min(s, t) on the grid: L[i, k] = w[k] for k <= i."""
    ax = np.linspace(a, b, n)
    w = np.sqrt(np.diff(ax, prepend=0.0))
    w.flags.writeable = False
    return w


@lru_cache(maxsize=64)
def _fgn_sqrt_eigs(h: float, step: float, n_incr: int) -> np.ndarray | None:
    """sqrt eigenvalues of the circulant embedding of fGn covariance, the
    first n_incr + 1 of the 2 n_incr (the rest mirror them).

    Returns None when the embedding has a negative eigenvalue, which the
    caller refuses.
    """
    k = np.arange(n_incr + 1, dtype=float)
    gamma = (
        0.5
        * step ** (2 * h)
        * ((k + 1) ** (2 * h) - 2 * k ** (2 * h) + np.abs(k - 1) ** (2 * h))
    )
    circ = np.concatenate([gamma[:-1], gamma[-1:], gamma[-2:0:-1]])
    eigs = np.fft.fft(circ).real
    if eigs.min() < -1e-10 * eigs.max():
        return None
    eigs = np.clip(eigs[: n_incr + 1], 0.0, None)
    out = np.sqrt(eigs)
    out.flags.writeable = False
    return out


def _fgn_draw(sqrt_eigs: np.ndarray, n_incr: int, rng: np.random.Generator) -> np.ndarray:
    """One fGn realization from the circulant spectrum (Davies-Harte).

    The spectrum times the noise is Hermitian, so the real inverse FFT of
    its first half gives the real part of the full complex inverse FFT.
    """
    m = 2 * n_incr
    ends = rng.standard_normal(2)
    v = rng.standard_normal((n_incr - 1, 2))
    z = np.empty(n_incr + 1, dtype=complex)
    z[0] = ends[0]
    z[n_incr] = ends[1]
    z[1:n_incr] = (v[:, 0] + 1j * v[:, 1]) / np.sqrt(2.0)
    return np.sqrt(m) * np.fft.irfft(sqrt_eigs * z, n=m)[:n_incr]


def _lattice_presteps(grid: TimeGrid) -> int | None:
    """Number of lattice steps from 0 to the grid start, or None if the
    grid is not commensurate with a lattice through the origin."""
    (a, b), n = grid.intervals[0], grid.shape[0]
    step = (b - a) / (n - 1)
    m = a / step
    m_int = round(m)
    if abs(m - m_int) > 1e-9 * max(1.0, m):
        return None
    return m_int


def _lattice_bytes(grid: TimeGrid) -> int | None:
    """About the bytes a Davies-Harte draw of the 1-d `grid` holds,
    `_LATTICE_STEP_BYTES` per step of its lattice from 0 to the grid end,
    or None if the grid is off every lattice through 0."""
    presteps = _lattice_presteps(grid)
    if presteps is None:
        return None
    return (presteps + grid.shape[0]) * _LATTICE_STEP_BYTES


def _takes_davies_harte(hurst: Sequence[float], grid: TimeGrid) -> bool:
    """Whether `_sheet_rows` draws a grid by Davies-Harte: a fractional 1-d
    grid on a lattice through 0 of at most `_MAX_LATTICE_BYTES`."""
    if grid.ndim != 1 or hurst[0] == 0.5:
        return False
    nbytes = _lattice_bytes(grid)
    return nbytes is not None and nbytes <= _MAX_LATTICE_BYTES


_TOO_FEW_POINTS = "resolution entries must be >= 2 (every sampler needs two points per axis)"


def _sampler_problems(hurst: Sequence[float], grid: TimeGrid) -> list[str]:
    """What keeps `_sheet_rows` from drawing a field with exponents `hurst`
    on `grid`, in config vocabulary.  It raises this list; config
    validation reports it.  Nothing here allocates."""
    if any(n < 2 for n in grid.shape):
        return [_TOO_FEW_POINTS]
    if grid.ndim == 1 and hurst[0] != 0.5:
        n = grid.shape[0]
        if n <= _MAX_DENSE or _takes_davies_harte(hurst, grid):
            return []
        problem = ("a 1-d grid off the lattice through 0 takes the dense fallback, "
                   "at most %d points, got %d" % (_MAX_DENSE, n))
        nbytes = _lattice_bytes(grid)
        if nbytes is not None:
            problem = ("H = %g: the Davies-Harte draw of its lattice through 0 would take "
                       "%d bytes, over the budget of %d bytes, so the grid counts as off "
                       "it; " % (hurst[0], nbytes, _MAX_LATTICE_BYTES)) + problem
        return [problem]
    return [
        "axis %d (H = %g) has %d points, too many for a dense per-axis "
        "factorization (at most %d)" % (j, h, n, _MAX_DENSE)
        for j, (n, h) in enumerate(zip(grid.shape, hurst))
        if h != 0.5 and n > _MAX_DENSE
    ]


def _refuse_draw(problems: list[str]) -> None:
    """Raise `_sampler_problems`: too few points as ValueError, a grid too
    large for its method as FactorizationError."""
    if problems:
        error = ValueError if problems == [_TOO_FEW_POINTS] else FactorizationError
        raise error("; ".join(problems))


def _streams_by_rows(hurst: Sequence[float]) -> bool:
    """Whether `_sheet_rows` draws each block's own rows only, which it
    does when every axis has H = 1/2; otherwise it draws the sheet whole."""
    return all(h == 0.5 for h in hurst)


@dataclass(frozen=True, eq=False)
class _DrawPlan:
    """How `_sheet_rows` draws one kernel on one grid, made by `_draw_plan`.

    `by_rows` says whether each block draws its own rows (every axis
    H = 1/2).  Per axis, `weights` holds the Brownian weights shaped to
    broadcast along it, None on a dense axis, and `factors` the dense
    Cholesky factor, None on an H = 1/2 axis.  A Davies-Harte grid holds
    its lattice steps before the grid start and circulant spectrum instead.
    """

    shape: tuple[int, ...]
    by_rows: bool
    weights: tuple = ()
    factors: tuple = ()
    presteps: int = 0
    sqrt_eigs: np.ndarray | None = None

    def whole(self, rng: np.random.Generator) -> np.ndarray:
        """The draw of a grid that `_sheet_rows` draws whole: Davies-Harte
        or the per-axis factors."""
        if self.sqrt_eigs is not None:
            n_incr = self.presteps + self.shape[0] - 1
            fgn = _fgn_draw(self.sqrt_eigs, n_incr, rng)
            return np.concatenate([[0.0], np.cumsum(fgn)])[self.presteps :].copy()
        values = rng.standard_normal(self.shape)
        for j, (w, factor) in enumerate(zip(self.weights, self.factors)):
            if factor is None:
                values *= w
                np.add.accumulate(values, axis=j, out=values)  # cumsum
            else:
                values = np.moveaxis(np.tensordot(factor, values, axes=(1, j)), 0, j)
        return np.ascontiguousarray(values)


@lru_cache(maxsize=64)
def _draw_plan(spec: KernelSpec, grid: TimeGrid) -> _DrawPlan:
    """The plan of every draw of `spec` on `grid`, after refusing the grid
    as `_sampler_problems` does.  A refusal raises, so no plan is cached
    for it and every later draw is refused again."""
    if grid.ndim != spec.ndim:
        raise ValueError("grid and kernel dimension mismatch")
    hurst = spec.hurst.as_floats()
    _refuse_draw(_sampler_problems(hurst, grid))
    if _takes_davies_harte(hurst, grid):
        (a, b), n = grid.intervals[0], grid.shape[0]
        presteps = _lattice_presteps(grid)
        sqrt_eigs = _fgn_sqrt_eigs(hurst[0], (b - a) / (n - 1), presteps + n - 1)
        if sqrt_eigs is None:
            raise FactorizationError(
                "the circulant embedding of H = %g on %d points of [%g, %g] has a "
                "negative eigenvalue" % (hurst[0], n, a, b)
            )
        return _DrawPlan(grid.shape, False, presteps=presteps, sqrt_eigs=sqrt_eigs)
    weights, factors = [], []
    for j, (h, (a, b), n) in enumerate(zip(hurst, grid.intervals, grid.shape)):
        if h == 0.5:
            w = _brownian_weights(a, b, n)
            weights.append(w.reshape((-1,) + (1,) * (grid.ndim - 1 - j)))
            factors.append(None)
        else:
            weights.append(None)
            factors.append(_axis_factor(h, a, b, n))
    return _DrawPlan(grid.shape, _streams_by_rows(hurst), tuple(weights), tuple(factors))


def _as_exponent(H) -> float:
    return float(Fraction(H)) if isinstance(H, str) else float(H)


def sample_fbm_1d(H, grid: TimeGrid, seed: int, key: tuple[int, ...] = ()) -> FieldSample:
    """Exact fractional Brownian motion draw on a 1-d grid: `sample_sheet`
    of the one-exponent kernel, so the same (seed, key) gives the same
    values as every other draw of that kernel."""
    h = _as_exponent(H)
    if not 0 < h < 1:
        raise ValueError("Hurst exponent must lie in (0, 1)")
    if grid.ndim != 1:
        raise ValueError("sample_fbm_1d needs a 1-d grid")
    return sample_sheet(KernelSpec(HurstVector([Fraction(h)])), grid, seed, key)


def sample_sheet(
    spec: KernelSpec, grid: TimeGrid, seed: int, key: tuple[int, ...] = ()
) -> FieldSample:
    """One fractional-Brownian-sheet draw on the grid.

    The draw plan of (spec, grid) is cached (`_draw_plan`), so repeated
    draws on the same grid only pay the draw itself.  This is the
    one-block case of `_sheet_rows`.
    """
    return FieldSample(next(_sheet_rows(spec, grid, seed, key, grid.shape[0])))


def _sheet_rows(
    spec: KernelSpec, grid: TimeGrid, seed: int, key: tuple[int, ...], rows: int,
    plan: _DrawPlan | None = None,
):
    """Yield one sheet draw in blocks of `rows` rows along axis 0 (the last
    block may be shorter); joined, the blocks are `sample_sheet`'s values
    bit for bit.

    When every axis has H = 1/2, each block draws only its own rows of
    normals from the stream, which hands them out in C order, scales them
    by the axis-0 weights and adds the last row of the previous block's
    axis-0 cumulative sum before its own; the other axes are scaled and
    summed inside the block.  A fractional 1-d grid on the lattice through
    0 is drawn whole by Davies-Harte and sliced.  Any other sheet is drawn
    whole by the dense factors and sliced: a dense factor applied to a row
    block goes through BLAS, whose blocking, and so its rounding, depends
    on the row count.  The grid is checked, and the method, weights and
    factors looked up, once per (kernel, grid) by `_draw_plan`; a caller
    drawing many entries of one (kernel, grid) passes that `plan` in.
    """
    if plan is None:
        plan = _draw_plan(spec, grid)
    rng = substream(seed, DOMAIN_FIELD, *key)
    n0 = grid.shape[0]
    if not plan.by_rows:
        values = plan.whole(rng)
        yield from (values[row : row + rows] for row in range(0, n0, rows))
        return
    w0, tail = plan.weights[0], grid.shape[1:]
    for start in range(0, n0, rows):
        values = rng.standard_normal((min(rows, n0 - start),) + tail)
        values *= w0[start : start + rows]
        if start:
            values[:1] += carry
        np.add.accumulate(values, axis=0, out=values)  # cumsum, without its wrapper
        if start + rows < n0:  # into the next block
            carry = values[-1:].copy()
        for j in range(1, len(plan.weights)):
            values *= plan.weights[j]
            np.add.accumulate(values, axis=j, out=values)
        yield values


@dataclass(frozen=True)
class AssumptionReport:
    """Largest constants for the lower bounds the theory needs on a grid.

    c1: min_t ||xi(t)||_2                             (field never degenerates)
    c3: min over pairs of ||xi(s)-xi(t)||_2 / sum |s_j-t_j|^{H_j}
    c4: min over pairs of Var[xi(t)|xi(s)] / sum |s_j-t_j|^{2H_j}

    c3/c4 are None on single-point grids (no pairs: vacuous pass).
    """

    c1: float
    c3: float | None
    c4: float | None
    n_points: int
    n_pairs: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "c1": self.c1,
            "c3": self.c3,
            "c4": self.c4,
            "n_points": self.n_points,
            "n_pairs": self.n_pairs,
            "violations": list(self.violations),
            "passed": self.passed,
        }


def _scan_problems(grid: TimeGrid) -> list[str]:
    """What keeps `verify_assumptions` from scanning `grid`, whose time is
    quadratic in its points: more than `_MAX_DENSE` of them.  The scan
    raises this list and the `validate-field` command refuses it before
    scanning; config validation does not ask it, as it limits the command."""
    if grid.n_points > _MAX_DENSE:
        return [
            "assumption scan is quadratic in time; %d points exceed its "
            "%d-point cap, use a smaller grid" % (grid.n_points, _MAX_DENSE)
        ]
    return []


def verify_assumptions(spec: KernelSpec, grid: TimeGrid) -> AssumptionReport:
    """Scan all grid pairs for the nondegeneracy/nondeterminism constants.

    Time is quadratic in the number of grid points.  The pairs are scanned
    in blocks of rows of about `_SCAN_PAIRS` pairs, and the constants are
    minima, so the report equals a whole-grid scan while memory stays
    bounded: at the 4096-point cap on a 2-d grid the scan peaks at about
    64 MB resident (23 MB traced by tracemalloc) and takes 2.9 s, where
    holding every pair array at once took 1.2 GB (3.9 s), measured on a
    2-core x86-64 host.  Larger grids are refused (`_scan_problems`).
    """
    problems = _scan_problems(grid)
    if problems:
        raise ValueError("; ".join(problems))
    if grid.ndim != spec.ndim:
        raise ValueError("grid and kernel dimension mismatch")
    n = grid.n_points
    idx = np.arange(n)
    var = _pair_cov(spec, grid, idx, idx)
    violations = []
    c1 = float(np.sqrt(var.min()))
    if c1 <= 0:
        violations.append("c1 <= 0: field degenerates on the grid")
    if n < 2:
        return AssumptionReport(c1, None, None, n, 0, tuple(violations))
    pts = grid.points()
    hs = np.array(spec.hurst.as_floats())
    sd = np.sqrt(var)
    c3 = c4 = np.inf
    rows = max(1, _SCAN_PAIRS // n)
    for start in range(0, n, rows):
        p = idx[start : start + rows, None]
        diff = np.abs(pts[p[:, 0], None, :] - pts[None, :, :])
        sep_h = (diff**hs).sum(axis=-1)
        sep_2h = (diff ** (2 * hs)).sum(axis=-1)
        off = p != idx[None, :]

        gram = _pair_cov(spec, grid, p, idx[None, :])
        incr_sq = np.clip(var[p] + var[None, :] - 2 * gram, 0.0, None)
        c3 = np.minimum(c3, np.sqrt(incr_sq[off] / sep_h[off] ** 2).min())

        # Conditional variance of a centered Gaussian pair (U, V):
        # ( rho^2 - (sU - sV)^2 ) ( (sU + sV)^2 - rho^2 ) / (4 sV^2),
        # rho^2 = E[(U-V)^2].  Row index = conditioned point t, column = s.
        s_u = sd[p]
        s_v = sd[None, :]
        rho_sq = incr_sq
        condvar = (rho_sq - (s_u - s_v) ** 2) * ((s_u + s_v) ** 2 - rho_sq) / (4 * s_v**2)
        condvar = np.clip(condvar, 0.0, None)
        c4 = np.minimum(c4, (condvar[off] / sep_2h[off]).min())
    c3, c4 = float(c3), float(c4)
    if c3 <= 0:
        violations.append("c3 <= 0: increments can vanish at distinct points")
    if c4 <= 0:
        violations.append("c4 <= 0: conditional variance degenerates")

    return AssumptionReport(c1, c3, c4, n, n * (n - 1), tuple(violations))
