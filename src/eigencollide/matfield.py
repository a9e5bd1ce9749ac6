"""Matrix-valued Gaussian fields assembled from independent scalar draws.

The self-adjoint field puts independent copies of the scalar field at every
entry: xi_{i,j} (+ i eta_{i,j} in the complex case) above the diagonal,
conjugates below, and sqrt(2) xi_{i,i} on the diagonal, so the normalized
matrix at a fixed time is GOE (beta = 1) or GUE (beta = 2).  The
rectangular field fills all d1 x d2 entries i.i.d.  Affine maps
A + T X T* (square) and B + T W Ttilde (rectangular) sit on top.

Entry streams are keyed by (path index, entry index, real/imag part), so
Monte Carlo paths are reproducible and independent of scheduling.

Storage: complex128 (interleaved real/imag) only when beta = 2; the real
case stays float64 and never allocates an imaginary plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gfield import KernelSpec, TimeGrid, sample_fbm_1d, sample_sheet

__all__ = [
    "EnsembleSpec",
    "MatrixPath",
    "assemble_selfadjoint",
    "assemble_rect",
    "affine",
]

_PART_REAL = 0
_PART_IMAG = 1
_INVERTIBILITY_RTOL = 1e-10


def _check_invertible(mat: np.ndarray, name: str) -> None:
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals[-1] <= _INVERTIBILITY_RTOL * svals[0]:
        raise ValueError("%s is numerically singular" % name)


@dataclass(frozen=True)
class EnsembleSpec:
    """Shape, symmetry class, kernel and affine data of one ensemble.

    `shape` is (d,) for the self-adjoint square case or (d1, d2) with
    d1 <= d2 for the rectangular case.  `shift` is the deterministic
    offset (A or B), `transform` the left factor T, `transform_right` the
    right factor for the rectangular case; None means identity/zero.
    """

    beta: int
    shape: tuple[int, ...]
    kernel: KernelSpec
    shift: np.ndarray | None = None
    transform: np.ndarray | None = None
    transform_right: np.ndarray | None = None

    def __post_init__(self):
        if self.beta not in (1, 2):
            raise ValueError("beta must be 1 or 2")
        if len(self.shape) == 1:
            d = self.shape[0]
            if d < 2:
                raise ValueError("square ensembles need d >= 2")
            dims = (d, d)
        elif len(self.shape) == 2:
            d1, d2 = self.shape
            if d1 > d2:
                raise ValueError("rectangular ensembles need d1 <= d2")
            dims = (d1, d2)
        else:
            raise ValueError("shape must be (d,) or (d1, d2)")
        for name, mat, want in (
            ("shift", self.shift, dims),
            ("transform", self.transform, (dims[0], dims[0])),
            ("transform_right", self.transform_right, (dims[1], dims[1])),
        ):
            if mat is None:
                continue
            arr = np.asarray(mat)
            if arr.shape != want:
                raise ValueError("%s must have shape %s" % (name, want))
            if self.beta == 1 and np.iscomplexobj(arr) and np.any(arr.imag != 0):
                raise ValueError("beta = 1 requires real %s" % name)
            object.__setattr__(self, name, arr)
        if self.is_square and self.transform_right is not None:
            raise ValueError("square ensembles take no right transform")
        if self.is_square and self.shift is not None:
            if not np.allclose(self.shift, np.conj(self.shift.T), atol=0, rtol=0):
                raise ValueError("square shift must be self-adjoint")
        if self.transform is not None:
            _check_invertible(self.transform, "transform")
        if self.transform_right is not None:
            _check_invertible(self.transform_right, "transform_right")

    @property
    def is_square(self) -> bool:
        return len(self.shape) == 1

    @property
    def dims(self) -> tuple[int, int]:
        return (self.shape[0], self.shape[0]) if self.is_square else self.shape

    @property
    def dtype(self):
        return np.float64 if self.beta == 1 else np.complex128


@dataclass(frozen=True)
class MatrixPath:
    """One matrix per grid point; immutable after construction."""

    grid: TimeGrid
    values: np.ndarray  # grid.shape + (d1, d2)
    beta: int

    def __post_init__(self):
        self.values.flags.writeable = False


def _scalar_draw(
    kernel: KernelSpec, grid: TimeGrid, seed: int, key: tuple[int, ...]
) -> np.ndarray:
    # 1-d grids go through the circulant fBm sampler, which is much cheaper
    # than the dense axis factor on long axes; same law either way.
    if grid.ndim == 1:
        return sample_fbm_1d(float(kernel.hurst[0]), grid, seed, key).values
    return sample_sheet(kernel, grid, seed, key).values


def assemble_selfadjoint(
    spec: EnsembleSpec, grid: TimeGrid, seed: int, path_index: int = 0
) -> MatrixPath:
    """Draw the raw self-adjoint matrix field X on the grid.

    Exactly Hermitian by construction: entries below the diagonal are the
    conjugates of the draws above it, diagonal entries are sqrt(2) times a
    real draw (zero imaginary part also when beta = 2).
    """
    if not spec.is_square:
        raise ValueError("assemble_selfadjoint needs a square ensemble")
    d = spec.shape[0]
    out = np.zeros(grid.shape + (d, d), dtype=spec.dtype)
    for i in range(d):
        for j in range(i, d):
            entry = i * d + j
            xi = _scalar_draw(spec.kernel, grid, seed, (path_index, entry, _PART_REAL))
            if i == j:
                np.multiply(xi, np.sqrt(2.0), out=out[..., i, i])
                continue
            if spec.beta == 2:
                eta = _scalar_draw(
                    spec.kernel, grid, seed, (path_index, entry, _PART_IMAG)
                )
                out[..., i, j] = xi + 1j * eta
                out[..., j, i] = xi - 1j * eta
            else:
                out[..., i, j] = xi
                out[..., j, i] = xi
    return MatrixPath(grid=grid, values=out, beta=spec.beta)


def assemble_rect(
    spec: EnsembleSpec, grid: TimeGrid, seed: int, path_index: int = 0
) -> MatrixPath:
    """Draw the raw rectangular matrix field W with i.i.d. entries."""
    if spec.is_square:
        raise ValueError("assemble_rect needs a rectangular ensemble")
    d1, d2 = spec.shape
    out = np.zeros(grid.shape + (d1, d2), dtype=spec.dtype)
    for i in range(d1):
        for j in range(d2):
            entry = i * d2 + j
            xi = _scalar_draw(spec.kernel, grid, seed, (path_index, entry, _PART_REAL))
            if spec.beta == 2:
                eta = _scalar_draw(
                    spec.kernel, grid, seed, (path_index, entry, _PART_IMAG)
                )
                out[..., i, j] = xi + 1j * eta
            else:
                out[..., i, j] = xi
    return MatrixPath(grid=grid, values=out, beta=spec.beta)


def affine(path: MatrixPath, spec: EnsembleSpec) -> MatrixPath:
    """Pointwise affine ensemble: A + T X T* (square) or B + T W Ttilde.

    The square result is re-symmetrized through (M + M*)/2 to kill rounding
    asymmetry; the eigensolver requires exactly self-adjoint input.
    """
    values = path.values
    d1, d2 = spec.dims
    if values.shape[-2:] != (d1, d2):
        raise ValueError("path shape %s does not match spec" % (values.shape[-2:],))
    t = spec.transform
    if spec.is_square:
        if t is not None:
            values = t @ values @ np.conj(t.T)
            values = 0.5 * (values + np.conj(values.swapaxes(-1, -2)))
        if spec.shift is not None:
            values = values + spec.shift
    else:
        if t is not None:
            values = t @ values
        if spec.transform_right is not None:
            values = values @ spec.transform_right
        if spec.shift is not None:
            values = values + spec.shift
    return MatrixPath(grid=path.grid, values=np.ascontiguousarray(values), beta=path.beta)


def sample_ensemble(
    spec: EnsembleSpec, grid: TimeGrid, seed: int, path_index: int = 0
) -> MatrixPath:
    """Raw field plus affine map in one call (the Monte Carlo hot path)."""
    raw = (
        assemble_selfadjoint(spec, grid, seed, path_index)
        if spec.is_square
        else assemble_rect(spec, grid, seed, path_index)
    )
    return affine(raw, spec)
