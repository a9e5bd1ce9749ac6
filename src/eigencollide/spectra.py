"""Ordered spectra and the distance-to-collision statistic.

Spectra are batched over leading axes, and the method depends only on the
matrix shape.  2x2 self-adjoint matrices use the closed form mid +- r with
mid = (a + c)/2 and r = hypot((a - c)/2, |b|), exact on ties; its one
implementation, `_plane_spectrum`, also serves the Monte Carlo plane route,
which passes it entry draws instead of matrices, so both routes agree bit
for bit and name non-finite points with the same message.  2xn singular
values take sigma_max from the 2x2 Gram matrix M M* and sigma_min from the
2x2 minors of M (Cauchy-Binet), so small values keep relative accuracy.
Everything else goes to batched LAPACK `eigvalsh`; singular values with
d1 >= 3 go through the Gram matrix and lose values below about 1e-8 * |M|.
The supported range is d <= 64.  Non-finite matrices and LAPACK failures
raise `NumericalError` naming the offending batch indices.

`pattern_gap` measures how far an ordered spectrum is from a prescribed
multiple collision: the minimum over disjoint index blocks of the given
sizes of the largest within-block range.  Its zero set is exactly the
collision event.  On sorted data the optimal blocks are contiguous, which
one dynamic program exploits: `pattern_gap_values` reads the gap of a
whole batch off its table, and `pattern_gap` backtracks the same table for
the witness blocks.  The brute-force equivalence is defended by a property
test rather than a proof here.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product as _iproduct

import numpy as np

from .gfield import TimeGrid
from .theory import CollisionPattern, SpectralKind

__all__ = [
    "NumericalError",
    "SpectralPath",
    "GapStatistic",
    "eigvals_selfadjoint",
    "singvals",
    "pattern_gap",
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


@dataclass(frozen=True)
class GapStatistic:
    """Min-max within-block spectral range and the blocks attaining it."""

    value: float
    witness: tuple[tuple[int, ...], ...]


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


def _batch(arr: np.ndarray, rows: int) -> np.ndarray:
    """Float64/complex128 form of (..., rows, cols) matrices, all finite."""
    if rows > MAX_DIM:
        raise ValueError("spectra are supported for d <= %d" % MAX_DIM)
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


def _nonconverged(flat, start=0) -> list[int]:
    """Batch indices on which LAPACK fails, found by bisecting the batch."""
    try:
        np.linalg.eigvalsh(flat)
        return []
    except np.linalg.LinAlgError:
        if len(flat) == 1:
            return [start]
        half = len(flat) // 2
        return _nonconverged(flat[:half], start) + _nonconverged(flat[half:], start + half)


def _eigvalsh(arr) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(arr)
    except np.linalg.LinAlgError:
        bad = _nonconverged(arr.reshape((-1,) + arr.shape[-2:]))
        raise NumericalError(
            "LAPACK eigvalsh did not converge for %d matrices" % len(bad),
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
        return _eigvalsh(arr)
    a, c, b_abs = arr[..., 0, 0].real, arr[..., 1, 1].real, np.abs(arr[..., 1, 0])
    lo, hi = _plane_spectrum(a, c, b_abs)
    return np.stack([lo, hi], axis=-1)


def singvals(mats) -> np.ndarray:
    """Ascending non-trivial singular values of (..., d1, d2) with d1 <= d2.

    For d1 = 2 the largest value comes from the 2x2 Gram matrix M M* in
    closed form and the smallest from sigma_min * sigma_max = |det M M*|^(1/2),
    the norm of the 2x2 minors of M (Cauchy-Binet), so small singular values
    keep their relative accuracy.  For other d1 they are square roots of the
    Gram spectrum, clamped at zero; values below about 1e-8 * |M| are lost
    there to rounding in M M*.
    """
    arr = np.asarray(mats)
    if arr.ndim < 2 or arr.shape[-2] > arr.shape[-1]:
        raise ValueError("expected d1 <= d2 on the trailing axes")
    arr = _batch(arr, arr.shape[-2])
    if arr.shape[-2] != 2:
        w = _eigvalsh(arr @ np.conj(arr).swapaxes(-1, -2))
        return np.sqrt(np.clip(w, 0.0, None))
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
    sizes, counts = np.unique(pattern.multiplicities, return_counts=True)
    return tuple(int(s) for s in sizes), tuple(int(c) for c in counts)


def _gap_table(spectra, pattern: CollisionPattern):
    """(sizes, counts, dp) of the pattern-gap DP over (..., n) sorted spectra.

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
    return sizes, counts, dp


def pattern_gap_values(spectra, pattern: CollisionPattern) -> np.ndarray:
    """Batched pattern-gap values (no witness) for (..., n) sorted spectra."""
    arr = np.asarray(spectra, dtype=float)
    _, counts, dp = _gap_table(arr, pattern)
    return dp[counts][0].reshape(arr.shape[:-1])


def pattern_gap(spectrum, pattern: CollisionPattern) -> GapStatistic:
    """Pattern-gap of one sorted spectrum, with the witness blocks.

    The witness backtracks the table of `pattern_gap_values`.  Ties are
    broken toward the lexicographically smallest starting indices and then
    toward the smallest block size, so reports are deterministic.
    """
    lam = np.asarray(spectrum, dtype=float)
    if lam.ndim != 1:
        raise ValueError("expected a single spectrum")
    sizes, counts, dp = _gap_table(lam[None, :], pattern)

    def best(st, i):  # table entries are 1-row arrays or shared scalars
        return np.ravel(dp[st][i])[0]

    value = best(counts, 0)
    # Place a block at the earliest index where doing so still attains the
    # optimum.
    blocks: list[tuple[int, int]] = []  # (start, size)
    i, st = 0, counts
    while any(st):
        for which, (s, k) in enumerate(zip(sizes, st)):
            if k == 0 or i + s > len(lam):
                continue
            rest = st[:which] + (k - 1,) + st[which + 1 :]
            if max(lam[i + s - 1] - lam[i], best(rest, i + s)) <= value:
                blocks.append((i, s))
                i, st = i + s, rest
                break
        else:
            i += 1

    # Hand blocks back in pattern order, matching sizes first-come.
    remaining = list(blocks)
    witness = []
    for l in pattern.multiplicities:
        for k, (start, size) in enumerate(remaining):
            if size == l:
                witness.append(tuple(range(start, start + size)))
                del remaining[k]
                break
    return GapStatistic(value=float(value), witness=tuple(witness))


def spectral_path(path, kind: SpectralKind) -> SpectralPath:
    """Ordered spectra over a whole matrix path.

    Applies the eigensolver (square kinds) or the singular-value map
    (rectangular kinds) pointwise; numerical failures are annotated with
    the grid coordinates of the offending point.
    """
    with _grid_coordinates(path.grid):
        return SpectralPath(values=_spectra(path.values, kind))


def _spectra(values: np.ndarray, kind: SpectralKind) -> np.ndarray:
    """Ordered spectra of a batch of matrices, by kind."""
    if kind.singular:
        if values.shape[-2] > values.shape[-1]:
            raise ValueError("singular kind needs d1 <= d2")
        return singvals(values)
    if values.shape[-2] != values.shape[-1]:
        raise ValueError("eigen kind needs square matrices")
    return eigvals_selfadjoint(values)


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
