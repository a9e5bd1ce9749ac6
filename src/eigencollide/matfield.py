"""Matrix-valued Gaussian fields assembled from independent scalar draws.

The self-adjoint field puts independent copies of the scalar field at every
entry: xi_{i,j} (+ i eta_{i,j} in the complex case) above the diagonal,
conjugates below, and sqrt(2) xi_{i,i} on the diagonal, so the normalized
matrix at a fixed time is GOE (beta = 1) or GUE (beta = 2).  The
rectangular field fills all d1 x d2 entries i.i.d.  Affine maps
A + T X T* (square) and B + T W Ttilde (rectangular) sit on top.

Entry streams are keyed by (path index, entry index, real/imag part), so
Monte Carlo paths are reproducible and independent of scheduling; one
helper, `_entry_key`, forms that key for every draw.  `_row_draws` is the
one entry-draw path: it hands out the draws of a path in blocks of rows
along axis 0, and `assemble_*` fill its single block over the whole grid.
One fill per class (`_fill_selfadjoint`, `_fill_rect`) turns a block's
draws into matrices.

The Monte Carlo path kernel `estimate._path_rows` takes each block of
raw matrices from `_ensemble_rows` and maps the ones it solves with
`_affine_values`; for a plain 2x2
self-adjoint ensemble `_plane_entries` turns a block's draws into its
diagonal (a, c) and modulus |b| of the off-diagonal entry, bitwise the
values `assemble_selfadjoint` stores, and no matrix is built.  A block
draws only its own rows on a grid whose axes all have H = 1/2
(`gfield._streams_by_rows`), a 1-d Brownian motion included; any other
grid is drawn whole per entry and sliced.  `gfield._sheet_rows` decides
how each entry is drawn, from a draw plan checked and built once per
(kernel, grid) (`gfield._draw_plan`): every entry of every path on one
grid shares it, and `_row_draws` looks it up once per path and hands it
to every entry's `_sheet_rows`, so an entry draw is its stream, its
normals and the plan's arithmetic.

`_walk_problems` owns the limits of a walk: its sampler's
(`gfield._sampler_problems`) and the memory budget of `_MAX_PATH_BYTES`
(1 GiB) of matrices held at once, which is one block when the draws
stream by rows and the whole path otherwise.  `_row_draws` raises the
budget before its first draw, so `assemble_*`, one block of the whole
grid, refuse a path over it; config validation asks with the rows of the
path kernel.

Storage: complex128 (interleaved real/imag) only when beta = 2; the real
case stays float64 and never allocates an imaginary plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gfield import (
    KernelSpec,
    TimeGrid,
    _draw_plan,
    _sampler_problems,
    _sheet_rows,
    _streams_by_rows,
)
# sample_fbm_1d, sample_sheet: unused, bound for the benchmark's tracer
from .gfield import sample_fbm_1d, sample_sheet  # noqa: F401

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
_SQRT2 = math.sqrt(2.0)  # the scale of a diagonal entry, bitwise np.sqrt(2.0)
# most bytes of matrices (points x d1 x d2 x itemsize) a walk over a path
# holds at once; its spectra and temporaries take a few times more
_MAX_PATH_BYTES = 1 << 30


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

    def __post_init__(self):
        self.values.flags.writeable = False


def _entry_key(spec: EnsembleSpec, path_index: int, i: int, j: int, part: int) -> tuple:
    """Stream key of matrix entry (i, j): (path index, i * d2 + j,
    real/imag part), the one place entry streams are keyed."""
    return (path_index, i * spec.dims[1] + j, part)


def _budget_problems(spec: EnsembleSpec, grid: TimeGrid, rows: int) -> list[str]:
    """The matrices a walk in blocks of `rows` rows holds at once, if over
    `_MAX_PATH_BYTES`: one block on a grid that streams by rows (every
    axis H = 1/2, on any number of axes), else the whole path, since its
    entry draws are whole."""
    d1, d2 = spec.dims
    nbytes = math.prod(grid.shape) * d1 * d2 * np.dtype(spec.dtype).itemsize
    if nbytes > _MAX_PATH_BYTES and _streams_by_rows(spec.kernel.hurst.as_floats()):
        nbytes = nbytes // grid.shape[0] * min(rows, grid.shape[0])
    if nbytes <= _MAX_PATH_BYTES:
        return []
    return ["the matrices a path walk holds at once take %d bytes, over the budget of %d bytes"
            % (nbytes, _MAX_PATH_BYTES)]


def _walk_problems(spec: EnsembleSpec, grid: TimeGrid, rows: int) -> list[str]:
    """What refuses a walk over a path of `spec` on `grid` in blocks of
    `rows` rows, in config vocabulary: the limits of its sampler
    `_sheet_rows`, which that sampler raises, and the memory budget, which
    `_row_draws` raises.  Config validation reports this list."""
    return (_sampler_problems(spec.kernel.hurst.as_floats(), grid)
            + _budget_problems(spec, grid, rows))


def _row_draws(spec: EnsembleSpec, grid: TimeGrid, seed: int, path_index: int, rows: int):
    """Yield (first row, block shape, draw) for each block of `rows` rows
    along axis 0 of Monte Carlo path `path_index`, after refusing, before
    the first draw, a walk over the memory budget or one its sampler
    refuses.

    `draw(i, j, part)` returns the block of the scalar field at entry
    (i, j) and must be called once per block for each entry the caller
    uses.  Each entry is one stream of `gfield._sheet_rows`, drawn by the
    path's one lookup of the draw plan, so joined blocks are the same
    values whatever `rows` is.  A stream is dropped after its last block,
    since a suspended generator keeps its whole draw alive.
    """
    problems = _budget_problems(spec, grid, rows)
    if problems:
        raise ValueError("; ".join(problems))
    plan = _draw_plan(spec.kernel, grid)
    n0 = grid.shape[0]
    streams = {}

    def draw(i, j, part):
        key = _entry_key(spec, path_index, i, j, part)
        entry = streams.pop(key, None) or _sheet_rows(
            spec.kernel, grid, seed, key, rows, plan=plan
        )
        block = next(entry)
        if start + rows < n0:
            streams[key] = entry
        return block

    for start in range(0, n0, rows):
        yield start, (min(rows, n0 - start),) + grid.shape[1:], draw


def _fill_selfadjoint(spec: EnsembleSpec, shape: tuple[int, ...], draw) -> np.ndarray:
    """Self-adjoint matrices of the entry draws `draw(i, j, part)` of one
    block: entries below the diagonal are the conjugates of the draws above
    it, diagonal entries sqrt(2) times a real draw."""
    d = spec.shape[0]
    out = np.zeros(shape + (d, d), dtype=spec.dtype)
    for i in range(d):
        for j in range(i, d):
            xi = draw(i, j, _PART_REAL)
            if i == j:
                np.multiply(xi, _SQRT2, out=out[..., i, i])
                continue
            if spec.beta == 2:
                eta = draw(i, j, _PART_IMAG)
                out[..., i, j] = xi + 1j * eta
                out[..., j, i] = xi - 1j * eta
            else:
                out[..., i, j] = xi
                out[..., j, i] = xi
    return out


def _fill_rect(spec: EnsembleSpec, shape: tuple[int, ...], draw) -> np.ndarray:
    """Rectangular matrices of the i.i.d. entry draws of one block."""
    d1, d2 = spec.shape
    out = np.zeros(shape + (d1, d2), dtype=spec.dtype)
    for i in range(d1):
        for j in range(d2):
            xi = draw(i, j, _PART_REAL)
            if spec.beta == 2:
                eta = draw(i, j, _PART_IMAG)
                out[..., i, j] = xi + 1j * eta
            else:
                out[..., i, j] = xi
    return out


def assemble_selfadjoint(
    spec: EnsembleSpec, grid: TimeGrid, seed: int, path_index: int = 0
) -> MatrixPath:
    """Draw the raw self-adjoint matrix field X on the grid.

    Exactly Hermitian by construction: entries below the diagonal are the
    conjugates of the draws above it, diagonal entries are sqrt(2) times a
    real draw (zero imaginary part also when beta = 2).  A path over
    `_MAX_PATH_BYTES` raises ValueError before anything is drawn.
    """
    if not spec.is_square:
        raise ValueError("assemble_selfadjoint needs a square ensemble")
    _, shape, draw = next(_row_draws(spec, grid, seed, path_index, grid.shape[0]))
    return MatrixPath(grid=grid, values=_fill_selfadjoint(spec, shape, draw))


def assemble_rect(
    spec: EnsembleSpec, grid: TimeGrid, seed: int, path_index: int = 0
) -> MatrixPath:
    """Draw the raw rectangular matrix field W with i.i.d. entries.  A path
    over `_MAX_PATH_BYTES` raises ValueError before anything is drawn."""
    if spec.is_square:
        raise ValueError("assemble_rect needs a rectangular ensemble")
    _, shape, draw = next(_row_draws(spec, grid, seed, path_index, grid.shape[0]))
    return MatrixPath(grid=grid, values=_fill_rect(spec, shape, draw))


def affine(path: MatrixPath, spec: EnsembleSpec) -> MatrixPath:
    """Pointwise affine ensemble: A + T X T* (square) or B + T W Ttilde.

    The square result is re-symmetrized through (M + M*)/2 to kill rounding
    asymmetry; the eigensolver requires exactly self-adjoint input.
    """
    d1, d2 = spec.dims
    if path.values.shape[-2:] != (d1, d2):
        raise ValueError("path shape %s does not match spec" % (path.values.shape[-2:],))
    return MatrixPath(grid=path.grid, values=_affine_values(path.values, spec))


def _affine_values(values: np.ndarray, spec: EnsembleSpec) -> np.ndarray:
    """`affine` on an array of raw matrices."""
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
    return np.ascontiguousarray(values)


def sample_ensemble(
    spec: EnsembleSpec, grid: TimeGrid, seed: int, path_index: int = 0
) -> MatrixPath:
    """Raw field plus affine map in one call: the whole-grid reference
    whose values the blocks of the Monte Carlo path kernel
    (`estimate._path_rows`) equal bit for bit."""
    raw = (
        assemble_selfadjoint(spec, grid, seed, path_index)
        if spec.is_square
        else assemble_rect(spec, grid, seed, path_index)
    )
    return affine(raw, spec)


def _plane_entries(draw, beta: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries (a, c, |b|) of the raw field [[a, b], [conj b, c]] of a
    2x2 square ensemble, from the entry draws `draw(i, j, part)` of one
    block.

    Forms each value with the arithmetic of `_fill_selfadjoint`, so the
    three arrays are bitwise the diagonal and the modulus of the
    off-diagonal entry of its matrices; no (..., 2, 2) tensor is built.
    """
    a = draw(0, 0, _PART_REAL) * _SQRT2
    b = draw(0, 1, _PART_REAL)
    if beta == 2:
        b = b + 1j * draw(0, 1, _PART_IMAG)  # as assembled, so |b| is bitwise the stored modulus
    c = draw(1, 1, _PART_REAL) * _SQRT2
    return a, c, np.abs(b)


def _ensemble_rows(spec: EnsembleSpec, grid: TimeGrid, seed: int, path_index: int, rows: int):
    """Yield (first row, raw matrices) for each block of `rows` rows of
    the raw field `assemble_*(spec, grid, seed, path_index)`, whose values
    they equal bit for bit: the entries fill the matrices as in
    `assemble_*`.  The affine map acts on each matrix alone, so
    `_affine_values` of a block, or of any subset of its matrices, is
    bitwise `sample_ensemble`'s values there."""
    fill = _fill_selfadjoint if spec.is_square else _fill_rect
    for start, shape, draw in _row_draws(spec, grid, seed, path_index, rows):
        yield start, fill(spec, shape, draw)
