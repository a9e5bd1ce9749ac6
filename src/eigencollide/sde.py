"""Direct integrators for the classical eigenvalue particle systems.

Euler-Maruyama for the interacting SDEs solved by eigenvalues of the
square self-adjoint matrix Brownian motion (repulsion 1/(x_i - x_j),
diffusion sqrt(2/beta)) and by the Gram spectrum of the rectangular matrix
Brownian motion (drift n + sum (x_i + x_j)/(x_i - x_j), diffusion
2 sqrt(x_i), reflection at 0).  These cross-validate the matrix-field
pipeline at H = 1/2 on a 1-d time axis.  `dyson_paths` and
`wishart_paths` are the integrator API; there is no single-step entry.

The repulsion is singular at coincidence, so a step is retried as two half
steps (recursively, at most 20 levels) when it would cross the ordering or
when the drift impulse dt * |drift| exceeds the smallest particle gap; the
second trigger catches the outward explosion Euler produces near
coincidence, where the true repulsion is self-limiting but the frozen
drift is not.  The Brownian increment is split linearly between the
halves, which keeps a step a pure function of (state, dt, noise): a run is
reproducible from (seed, dt schedule) alone.  Refinement helps because it
re-evaluates the singular drift mid-step, not because it adds randomness.
A path that cannot keep its order within 20 halvings is frozen at its last
valid state and flagged in the runners' `broken` mask, never raised.

Start states at (or within noise of) coincidence are nudged apart by a
1e-8 spread, refused where the spread rounds away (from about 1e8);
Wishart starts are first clipped to 0.  The runners prepend a geometric
warm-up ramp to the step schedule so the first steps satisfy the impulse
bound at the start state; halving alone cannot bridge from dt to the
fully collided scale.

The path runners integrate paths in chunks sized so that one block of
noise takes at most 64 MiB (16 384 paths at d = 2).  Their state is
particle-major, shape (d, paths), plus each path's smallest gap, carried
from one step's crossing test to the next step's impulse bound.  Path p
draws its Brownian increments from substream(seed, DOMAIN_SDE, p) in
blocks of 256 steps that continue one (steps, d) draw, so the block size
does not change any path.  The block is step-major, (256, d, paths): each
stream's draw lands in one reused (256, d) buffer and is copied into its
column, so that every step reads a contiguous (d, paths) slice.  (A
path-major block filled in place reads each step with a stride of one
stream's block; that measured slower than the copy, more so on many
paths.)  Rare events cost only when they happen: the broken-path mask is
updated after a step that returned a bad column, frozen paths are
restored only once some path broke, and a halved step gathers the
columns whose first half survived only when some did not.  The drifts
evaluate each of the d(d-1)/2 pair terms once into a (d, paths) array
and add every row in ascending j, bit for bit the row sums of the full
pair matrix, so a path does not depend on how many paths share its
chunk.  Memory is O(block * d * paths) per
chunk, independent of the number of steps.

The fractional (H > 1/2) systems are not integrated; only their explicit
drift coefficients are exposed, the Skorohod noise terms being out of
scope.
"""

from __future__ import annotations

import math

import numpy as np

from .gfield import _as_exponent
from .rng import DOMAIN_SDE, substream

__all__ = [
    "dyson_paths",
    "wishart_paths",
    "fractional_drift_coeffs",
    "fractional_wishart_drift_coeffs",
    "nudge_apart",
]

_MAX_HALVINGS = 20
_NUDGE = 1e-8
_BLOCK_STEPS = 256  # steps of noise drawn per stream at a time
_NOISE_BUDGET = 64 << 20  # bytes of the per-chunk noise buffer


def _chunk_paths(d: int) -> int:
    """Paths integrated at once: as many as a (_BLOCK_STEPS, d, paths)
    float64 noise buffer fits in _NOISE_BUDGET (16 384 at d = 2)."""
    return max(1, _NOISE_BUDGET // (8 * _BLOCK_STEPS * d))


def nudge_apart(positions) -> np.ndarray:
    """Separate coinciding start positions; the drift is singular there.

    Raises `ValueError` when the spread rounds away, as it does for tied
    starts of magnitude about 1e8 and above: a zero gap would make the
    warm-up ramp of the path runners take steps of length 0 forever.
    """
    x = np.asarray(positions, dtype=float).copy()
    if np.any(np.diff(x) <= 0):
        x = np.sort(x) + _NUDGE * np.arange(len(x))
        if np.any(np.diff(x) <= 0):
            raise ValueError(
                "start positions stay tied after a nudge of %g; "
                "separate them by hand" % _NUDGE
            )
    return x


def _pair_sums(x: np.ndarray, term) -> np.ndarray:
    """sum_{j != i} term(x_i, x_j) for a term antisymmetric in IEEE arithmetic,
    every row added in ascending j onto 0.0, an order np.sum lacks.  Pass j
    evaluates the pairs (i < j, j) once, adds them to rows i as their term j
    and subtracts them from row j, still 0.0, in ascending i: subtraction
    does not reorder, so np.subtract.reduce keeps that order.  Pass 1 writes
    rows 0 and 1 as 0.0 + t and 0.0 - t, and row j is first written by its
    own pass, so no row needs zeroing beforehand."""
    if len(x) < 2:
        return np.zeros(x.shape)
    out = np.empty(x.shape)
    t = term(x[0], x[1])
    np.add(0.0, t, out=out[0])
    np.subtract(0.0, t, out=out[1])
    for j in range(2, len(x)):
        t = term(x[:j], x[j : j + 1])
        out[:j] += t
        np.subtract.reduce(t, axis=0, initial=0.0, out=out[j])
    return out


def _dyson_drift(x: np.ndarray) -> np.ndarray:
    return _pair_sums(x, lambda a, b: 1.0 / (a - b))


def _wishart_drift(x: np.ndarray, n: int) -> np.ndarray:
    drift = _pair_sums(x, lambda a, b: (a + b) / (a - b))
    drift += n
    return drift


def _min_gap(x: np.ndarray) -> np.ndarray:
    """Smallest gap per path; NaN when a position is NaN."""
    if len(x) < 2:
        return np.full(x.shape[1:], np.inf)
    return _fold(np.minimum, x[1:] - x[:-1])


def _fold(ufunc, rows: np.ndarray) -> np.ndarray:
    """ufunc down the rows, first row first: on the runners' few rows this
    beats an axis-0 reduce, and a single row needs no call at all."""
    out = rows[0]
    for i in range(1, len(rows)):
        out = ufunc(out, rows[i])
    return out


def _advance(x, gap, dt, dw, depth, *model):
    """Vectorized Euler step with recursive halving on the bad subset.

    x and dw have shape (d, paths), gap is _min_gap(x), model is (drift_fn,
    diffusion_fn, reflect).  Returns (y, bad, _min_gap(y)); columns still
    bad at depth 0 are broken.  Run under np.errstate(invalid="ignore")."""
    drift_fn, diffusion_fn, reflect = model
    drift = drift_fn(x)
    drift *= dt
    y = diffusion_fn(x, dw)
    y += x
    y += drift
    if reflect:
        np.abs(y, out=y)
    gap_y = _min_gap(y)
    # NaN columns must count as crossed, so negate "smallest gap positive"
    bad = ~(gap_y > 0.0)
    if depth <= 0:
        return y, bad, gap_y
    # max |dt * drift| is dt * max |drift| exactly: rounding is monotone
    bad |= _fold(np.maximum, np.abs(drift, out=drift)) > gap
    if not np.count_nonzero(bad):
        return y, bad, gap_y
    (redo,) = bad.nonzero()
    half = dw[:, redo] / 2
    y1, bad1, gap1 = _advance(x[:, redo], gap[redo], dt / 2, half, depth - 1, *model)
    # columns that fail the first half are broken for good: no second half
    if not np.count_nonzero(bad1):
        y1, bad1, gap1 = _advance(y1, gap1, dt / 2, half, depth - 1, *model)
    else:
        (alive,) = (~bad1).nonzero()
        if len(alive):
            y1[:, alive], bad1[alive], gap1[alive] = _advance(
                y1[:, alive], gap1[alive], dt / 2, half[:, alive], depth - 1, *model
            )
    # bad was True exactly on redo: now it marks the columns whose halves crossed
    y[:, redo], bad[redo], gap_y[redo] = y1, bad1, gap1
    return y, bad, gap_y


def _dyson_diffusion(beta):
    coeff = math.sqrt(2.0 / beta)
    return lambda x, dw: coeff * dw


def _wishart_diffusion(x, dw):
    out = np.sqrt(np.maximum(x, 0.0))
    out *= 2.0
    out *= dw
    return out


def _dt_schedule(x0, t1, n_steps, drift_fn) -> np.ndarray:
    """Uniform steps of t1/n_steps, preceded by a geometric warm-up ramp
    when the start state cannot take a full step within the impulse bound."""
    target = t1 / n_steps
    gap = float(_min_gap(x0[:, None])[0])
    peak = float(np.abs(drift_fn(x0[:, None])).max())
    ramp = []
    if peak > 0 and np.isfinite(gap):
        dt = gap / peak
        t = 0.0
        while dt < target and t + dt < 0.5 * t1:
            ramp.append(dt)
            t += dt
            dt *= 2
    covered = sum(ramp)
    n_rest = max(1, math.ceil((t1 - covered) / target))
    rest = np.full(n_rest, (t1 - covered) / n_rest)
    return np.concatenate([np.asarray(ramp), rest])


def _run_paths(x0, t1, n_steps, seed, n_paths, drift_fn, diffusion_fn, reflect):
    if not t1 > 0:
        raise ValueError("t1 must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    d = len(x0)
    model = (drift_fn, diffusion_fn, reflect)
    dts = _dt_schedule(x0, t1, n_steps, drift_fn)
    sqrt_dts = np.sqrt(dts)
    block = min(_BLOCK_STEPS, len(dts))
    out = np.empty((n_paths, d))
    broken = np.zeros(n_paths, dtype=bool)
    chunk = _chunk_paths(d)
    for lo in range(0, n_paths, chunk):
        hi = min(lo + chunk, n_paths)
        streams = [substream(seed, DOMAIN_SDE, p) for p in range(lo, hi)]
        noise = np.empty((block, d, hi - lo))
        draw = np.empty((block, d))  # one stream's block, then its column of noise
        x = np.repeat(x0[:, None], hi - lo, axis=1)
        gap = _min_gap(x)
        dead = np.zeros(hi - lo, dtype=bool)
        any_dead = False
        with np.errstate(invalid="ignore"):
            for k0 in range(0, len(dts), block):
                nb = min(block, len(dts) - k0)
                # consecutive draws on a stream continue one (steps, d) draw
                for g, column in zip(streams, noise.transpose(2, 0, 1)):
                    g.standard_normal(out=draw[:nb])
                    column[:nb] = draw[:nb]
                noise[:nb] *= sqrt_dts[k0 : k0 + nb, None, None]
                for k, dt in enumerate(dts[k0 : k0 + nb].tolist()):
                    y, bad, gap_y = _advance(x, gap, dt, noise[k], _MAX_HALVINGS, *model)
                    if np.count_nonzero(bad):
                        dead |= bad
                        any_dead = True
                    if any_dead:  # broken paths keep their last valid state
                        np.copyto(y, x, where=dead)
                        np.copyto(gap_y, gap, where=dead)
                    x, gap = y, gap_y
        out[lo:hi] = x.T
        broken[lo:hi] = dead
    return out, broken


def dyson_paths(
    x0, t1: float, n_steps: int, beta: int, seed: int, n_paths: int
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal positions of `n_paths` independent repulsion paths.

    Returns (positions, broken): positions has shape (n_paths, d); broken
    marks paths whose ordering collapsed (they are frozen at the last
    valid state, counted, never silently dropped).
    """
    x0 = nudge_apart(x0)
    return _run_paths(
        x0, t1, n_steps, seed, n_paths, _dyson_drift, _dyson_diffusion(beta), reflect=False
    )


def wishart_paths(
    x0, t1: float, n_steps: int, n: int, seed: int, n_paths: int
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal Gram spectra of independent squared-Bessel-type paths."""
    x0 = nudge_apart(np.clip(np.asarray(x0, dtype=float), 0.0, None))
    if n < len(x0):
        raise ValueError("need n >= number of particles")
    return _run_paths(
        x0, t1, n_steps, seed, n_paths,
        lambda x: _wishart_drift(x, n), _wishart_diffusion, reflect=True,
    )


def _fractional_factor(H, t: float, positions) -> tuple[float, np.ndarray]:
    """2H t^{2H-1} and the positions as a particle-major column, after
    checking H in [1/2, 1), t > 0 and strictly increasing positions."""
    h = _as_exponent(H)
    if not 0.5 <= h < 1:
        raise ValueError("drift is defined for H in [1/2, 1)")
    if not t > 0:
        raise ValueError("t must be positive")
    x = np.asarray(positions, dtype=float)
    if x.ndim != 1:
        raise ValueError("positions must be a vector")
    if not np.all(np.diff(x) > 0):
        raise ValueError("positions must be strictly increasing")
    return 2.0 * h * t ** (2.0 * h - 1.0), x[:, None]


def fractional_drift_coeffs(H, t: float, positions) -> np.ndarray:
    """Drift vector of the fractional eigenvalue system: the explicit
    singular part 2H t^{2H-1} sum_{j != i} 1/(x_i - x_j).

    At H = 1/2 this is exactly the Dyson drift.  The Skorohod noise terms
    of the fractional system are out of scope.
    """
    factor, x = _fractional_factor(H, t, positions)
    return factor * _dyson_drift(x)[:, 0]


def fractional_wishart_drift_coeffs(H, t: float, positions, n: int) -> np.ndarray:
    """Drift vector of the fractional Gram-spectrum system:
    2H t^{2H-1} (n + sum_{j != i} (x_i + x_j)/(x_i - x_j)).

    Reduces to the Wishart drift at H = 1/2.  The interaction sum cancels
    over the particles, so the drifts sum to 2H d n t^{2H-1}, the time
    derivative of E tr W(t) = d n t^{2H}.
    """
    factor, x = _fractional_factor(H, t, positions)
    return factor * _wishart_drift(x, n)[:, 0]
