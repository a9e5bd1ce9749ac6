"""Ordered spectra and the distance-to-collision statistic.

Spectra are batched over leading axes, and the method depends only on the
matrix shape.  2x2 self-adjoint matrices use the closed form mid +- r with
mid = (a + c)/2 and r = hypot((a - c)/2, |b|), exact on ties; its one
implementation, `_plane_spectrum`, also serves the Monte Carlo plane route,
which passes it entry draws instead of matrices, so both routes agree bit
for bit and name non-finite points with the same message.  2xn singular
values take sigma_max from the 2x2 Gram matrix M M* and sigma_min from the
2x2 minors of M (Cauchy-Binet), so small values keep relative accuracy.
Everything else goes to batched LAPACK: `eigvalsh` for eigenvalues, `svd`
for singular values.  The supported range is d <= 64.  Non-finite
matrices and LAPACK failures raise `NumericalError` naming the offending
batch indices.

The pattern gap measures how far an ordered spectrum is from a prescribed
multiple collision: the minimum over disjoint index blocks of the given
sizes of the largest within-block range.  Its zero set is exactly the
collision event.  On sorted data the optimal blocks are contiguous, which
one dynamic program exploits: `pattern_gap_values`, the one entry, reads
the gap of one spectrum or of a whole batch off its table.  The blocks
attaining it are not reported; they could be backtracked from the same
table.  The brute-force equivalence is defended by a property test rather
than a proof here.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import product as _iproduct

import numpy as np

from .gfield import TimeGrid
from .theory import CollisionPattern, SpectralKind

__all__ = [
    "NumericalError",
    "SpectralPath",
    "eigvals_selfadjoint",
    "singvals",
    "pattern_gap_values",
    "spectral_path",
]

MAX_DIM = 64


class NumericalError(RuntimeError):
    """Linear-algebra failure; carries the offending batch indices."""

    def __init__(self, message: str, batch_indices=()):
        super().__init__(message)
        self.batch_indices = tuple(batch_indices)


@dataclass(frozen=True)
class SpectralPath:
    """Ordered eigenvalues or singular values at every grid point."""

    values: np.ndarray  # grid.shape + (k,), non-decreasing along the last axis

    def __post_init__(self):
        self.values.flags.writeable = False


def _mid_radius(a, c, b_abs):
    """Centre and half-spread of the spectrum of [[a, b], [conj b, c]].

    The half-spread hypot((a - c)/2, |b|) is taken as big * sqrt(1 + q^2)
    with q = small/big <= 1 (0 when big = 0), in place, which is about
    three times cheaper than `np.hypot`; halving first and scaling by the
    larger leg keep finite input from overflowing.  a and c share one
    shape; the work reuses the buffers of the two halves, so only three
    arrays of that shape are allocated.
    """
    shape = np.shape(a)
    half_a, half_c = np.atleast_1d(0.5 * a), np.atleast_1d(0.5 * c)
    mid = half_a + half_c
    big = np.abs(np.subtract(half_a, half_c, out=half_a), out=half_a)
    small = np.minimum(big, b_abs, out=half_c)
    np.maximum(big, b_abs, out=big)
    q = np.divide(small, big, out=small, where=big > 0)
    np.multiply(q, q, out=q)
    q += 1.0
    np.sqrt(q, out=q)
    q *= big
    return mid.reshape(shape), q.reshape(shape)


def _sqnorm(x):
    """Squared Euclidean norm along the last axis, real or complex."""
    out = np.einsum("...i,...i->...", x.real, x.real)
    if np.iscomplexobj(x):
        out += np.einsum("...i,...i->...", x.imag, x.imag)
    return out


def _nonfinite(bad: np.ndarray) -> NumericalError:
    """The error for a flat batch mask of matrices with non-finite entries."""
    return NumericalError(
        "non-finite entries in %d matrices" % bad.sum(), batch_indices=np.nonzero(bad)[0]
    )


def _dim_problems(rows: int) -> list[str]:
    """The supported range of spectra of (..., rows, cols) matrices, which
    `_batch` raises and config validation reports (rows = d, or d1 for
    singular values)."""
    return ["spectra are supported for d <= %d" % MAX_DIM] if rows > MAX_DIM else []


def _batch(arr: np.ndarray, rows: int) -> np.ndarray:
    """Float64/complex128 form of (..., rows, cols) matrices, all finite."""
    problems = _dim_problems(rows)
    if problems:
        raise ValueError("; ".join(problems))
    arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=False)
    if not np.isfinite(arr).all():
        flat = arr.reshape((-1,) + arr.shape[-2:])
        raise _nonfinite(~np.isfinite(flat).all(axis=(-2, -1)))
    return arr


def _plane_spectrum(a, c, b_abs) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (lo, hi) of [[a, b], [conj b, c]] from the
    real diagonal and |b|, batched over their common shape.

    Both 2x2 routes go through here: `eigvals_selfadjoint` with the
    entries of its matrices and the Monte Carlo plane route with the
    entries of `matfield._plane_entries`, so their values agree bit for
    bit.  A batch point with a non-finite entry raises `NumericalError`
    naming the flat batch indices.
    """
    ok = np.isfinite(a) & np.isfinite(c) & np.isfinite(b_abs)
    if not ok.all():
        raise _nonfinite(~ok.reshape(-1))
    mid, r = _mid_radius(a, c, b_abs)
    lo = mid - r
    return lo, np.add(mid, r, out=mid)


def _nonconverged(solve, flat, start=0) -> list[int]:
    """Batch indices on which the LAPACK routine `solve` fails, found by
    bisecting the batch."""
    try:
        solve(flat)
        return []
    except np.linalg.LinAlgError:
        if len(flat) == 1:
            return [start]
        half = len(flat) // 2
        return _nonconverged(solve, flat[:half], start) + _nonconverged(
            solve, flat[half:], start + half
        )


def _lapack(solve, arr, name: str) -> np.ndarray:
    """`solve(arr)`; a failure of the LAPACK routine `name` raises
    `NumericalError` naming the matrices it fails on."""
    try:
        return solve(arr)
    except np.linalg.LinAlgError:
        bad = _nonconverged(solve, arr.reshape((-1,) + arr.shape[-2:]))
        raise NumericalError(
            "LAPACK %s did not converge for %d matrices" % (name, len(bad)),
            batch_indices=bad,
        ) from None


def eigvals_selfadjoint(mats) -> np.ndarray:
    """Ascending eigenvalues of self-adjoint matrices, batched.

    `mats` has shape (..., d, d), real symmetric or complex Hermitian, with
    d <= MAX_DIM; the result has shape (..., d).  Non-finite matrices raise
    `NumericalError` naming their batch indices.
    """
    arr = np.asarray(mats)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError("expected square matrices on the trailing axes")
    arr = _batch(arr, arr.shape[-1])
    if arr.shape[-1] != 2:
        return _lapack(np.linalg.eigvalsh, arr, "eigvalsh")
    a, c, b_abs = arr[..., 0, 0].real, arr[..., 1, 1].real, np.abs(arr[..., 1, 0])
    lo, hi = _plane_spectrum(a, c, b_abs)
    return np.stack([lo, hi], axis=-1)


def singvals(mats) -> np.ndarray:
    """Ascending non-trivial singular values of (..., d1, d2) with d1 <= d2.

    For d1 = 2 the largest value comes from the 2x2 Gram matrix M M* in
    closed form and the smallest from sigma_min * sigma_max = |det M M*|^(1/2),
    the norm of the 2x2 minors of M (Cauchy-Binet), so small singular values
    keep their relative accuracy.  Other d1 go to batched LAPACK `svd`,
    which keeps small values accurate too.
    """
    arr = np.asarray(mats)
    if arr.ndim < 2 or arr.shape[-2] > arr.shape[-1]:
        raise ValueError("expected d1 <= d2 on the trailing axes")
    arr = _batch(arr, arr.shape[-2])
    if arr.shape[-2] != 2:
        return _lapack(partial(np.linalg.svd, compute_uv=False), arr, "svd")[..., ::-1]
    top, bottom = arr[..., 0, :], arr[..., 1, :]
    mid, r = _mid_radius(
        _sqnorm(top),
        _sqnorm(bottom),
        np.abs(np.einsum("...i,...i->...", top, np.conj(bottom))),
    )
    big = np.sqrt(mid + r)
    # Minors of M / sigma_max are at most 1, so their squares cannot overflow.
    u = arr / np.where(big > 0, big, 1.0)[..., None, None]
    area = np.zeros_like(big)
    for j in range(1, arr.shape[-1]):
        minors = u[..., 0, :j] * u[..., 1, j, None] - u[..., 0, j, None] * u[..., 1, :j]
        area += _sqnorm(minors)
    return np.stack([np.minimum(big * np.sqrt(area), big), big], axis=-1)


def _check_sorted(values: np.ndarray) -> None:
    if np.any(np.diff(values, axis=-1) < 0):
        raise ValueError("spectrum must be sorted ascending")


def _size_counts(pattern: CollisionPattern):
    """(ascending block sizes, how many blocks have each) of `pattern`."""
    sizes, counts = zip(*sorted(Counter(pattern.multiplicities).items()))
    return sizes, counts


def _gap_table(spectra, pattern: CollisionPattern):
    """(counts, dp) of the pattern-gap DP over (..., n) sorted spectra.

    dp[state][i] is the min over placements of the blocks left in `state`
    (a count per block size) at indices >= i of the largest within-block
    range: one row over the flattened batch per (state, i), or a scalar
    shared by every spectrum (0 with no block left, inf with no room
    left).  Rows are never written after they are stored, so later rows
    may share them.  Identical block sizes are collapsed into counts so
    the state space stays tiny.
    """
    arr = np.asarray(spectra, dtype=float)
    n = arr.shape[-1]
    if sum(pattern.multiplicities) > n:
        raise ValueError("pattern does not fit in a spectrum of length %d" % n)
    _check_sorted(arr)
    flat = arr.reshape(-1, n)
    sizes, counts = _size_counts(pattern)
    states = sorted(
        _iproduct(*[range(c + 1) for c in counts]),
        key=lambda st: sum(s * k for s, k in zip(sizes, st)),
    )
    dp = {}
    for st in states:
        need = sum(s * k for s, k in zip(sizes, st))
        if need == 0:
            dp[st] = [0.0] * (n + 1)
            continue
        rows = [np.inf] * (n + 1)
        for i in range(n - need, -1, -1):
            best = rows[i + 1] if i < n - need else None
            for which, (s, k) in enumerate(zip(sizes, st)):
                if k == 0:
                    continue
                rest = st[:which] + (k - 1,) + st[which + 1 :]
                cand = flat[:, i + s - 1] - flat[:, i]
                np.maximum(cand, dp[rest][i + s], out=cand)
                best = cand if best is None else np.minimum(best, cand, out=cand)
            rows[i] = best
        dp[st] = rows
    return counts, dp


def pattern_gap_values(spectra, pattern: CollisionPattern) -> np.ndarray:
    """Pattern-gap values of (..., n) sorted spectra, shape (...): a 0-d
    array for a single spectrum.  Unsorted input raises ValueError."""
    arr = np.asarray(spectra, dtype=float)
    counts, dp = _gap_table(arr, pattern)
    return dp[counts][0].reshape(arr.shape[:-1])


def spectral_path(path, kind: SpectralKind) -> SpectralPath:
    """Ordered spectra over a whole matrix path.

    Applies the eigensolver (square kinds) or the singular-value map
    (rectangular kinds) pointwise; numerical failures are annotated with
    the grid coordinates of the offending point.
    """
    with _grid_coordinates(path.grid):
        return SpectralPath(values=_spectra(path.values, kind))


def _spectra(values: np.ndarray, kind: SpectralKind) -> np.ndarray:
    """Ordered spectra of a batch of matrices, by kind; each solver refuses
    matrices of the wrong shape."""
    return singvals(values) if kind.singular else eigvals_selfadjoint(values)


@contextmanager
def _grid_coordinates(grid: TimeGrid, row: int = 0):
    """Re-raise a `NumericalError` from a grid-shaped batch, or from the
    block of the grid's rows that starts at row `row` of axis 0, with the
    grid coordinates of (up to four of) its offending points in the
    message and their flat grid indices as batch indices."""
    try:
        yield
    except NumericalError as err:
        offset = row * math.prod(grid.shape[1:])
        indices = tuple(b + offset for b in err.batch_indices)
        where = [tuple(int(c) for c in np.unravel_index(b, grid.shape)) for b in indices[:4]]
        raise NumericalError(
            "%s (grid coordinates %s%s)"
            % (err, where, ", ..." if len(indices) > 4 else ""),
            batch_indices=indices,
        ) from None
