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
particle-major, shape (d, paths), so each per-particle operation is one
contiguous vector operation over the paths.  Path p draws its Brownian
increments from its own stream, substream(seed, DOMAIN_SDE, p), in blocks
of 256 steps; consecutive draws on one stream continue a single
(steps, d) draw, so the block size does not change any path.  Memory is
O(block * d * paths + d^2 * paths) per chunk of paths, independent of the
number of steps.  The drifts add their pair terms in ascending j, so a
path does not depend on how many paths share its chunk.

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


def _differences(x: np.ndarray) -> np.ndarray:
    """x_i - x_j over particle-major x, shape (d, d, paths), with inf on the
    diagonal so that pair terms divided by it vanish there."""
    d = len(x)
    diff = x[:, None] - x[None, :]
    diff.reshape(d * d, -1)[:: d + 1] = np.inf
    return diff


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """sum_j terms[i, j] of a (d, d, paths) array, added in ascending j
    onto 0.0.  numpy's sum picks its order from shape and strides; a fixed
    order keeps a path independent of how many paths share its chunk."""
    out = 0.0 + terms[:, 0]
    for j in range(1, len(terms)):
        out += terms[:, j]
    return out


def _dyson_drift(x: np.ndarray) -> np.ndarray:
    diff = _differences(x)
    return _row_sums(np.divide(1.0, diff, out=diff))


def _wishart_drift(x: np.ndarray, n: int) -> np.ndarray:
    total = x[:, None] + x[None, :]
    total /= _differences(x)
    out = _row_sums(total)
    out += n
    return out


def _min_gap(x: np.ndarray) -> np.ndarray:
    """Smallest gap per path; NaN when a position is NaN."""
    if len(x) < 2:
        return np.full(x.shape[1:], np.inf)
    return (x[1:] - x[:-1]).min(axis=0)


def _advance(x, dt, dw, depth, drift_fn, diffusion_fn, reflect):
    """Vectorized Euler step with recursive halving on the bad subset.

    x and dw are particle-major, shape (d, paths).  Returns (y, bad);
    columns still bad at depth 0 carry whatever the last attempt produced
    and must be treated as broken by the caller.  Callers run it under
    np.errstate(invalid="ignore"): a NaN column is reported as bad.
    """
    drift = drift_fn(x)
    drift *= dt
    y = diffusion_fn(x, dw)
    y += x
    y += drift
    if reflect:
        np.abs(y, out=y)
    # NaN columns must count as crossed, so negate "smallest gap positive"
    crossed = ~(_min_gap(y) > 0)
    # max |dt * drift| is dt * max |drift| exactly: rounding is monotone
    unstable = np.abs(drift, out=drift).max(axis=0) > _min_gap(x)
    bad = crossed | unstable
    if depth <= 0 or not bad.any():
        return y, crossed
    half = dw[:, bad] / 2
    y1, bad1 = _advance(x[:, bad], dt / 2, half, depth - 1, drift_fn, diffusion_fn, reflect)
    # columns that already failed the first half are broken for good; only
    # the survivors take the second half
    alive = ~bad1
    if alive.any():
        y1[:, alive], bad1[alive] = _advance(
            y1[:, alive], dt / 2, half[:, alive], depth - 1, drift_fn, diffusion_fn, reflect
        )
    y[:, bad] = y1
    crossed[bad] = bad1  # crossed is False outside bad
    return y, crossed


def _dyson_diffusion(beta):
    coeff = math.sqrt(2.0 / beta)
    return lambda x, dw: coeff * dw


def _wishart_diffusion(x, dw):
    out = np.clip(x, 0.0, None)
    np.sqrt(out, out=out)
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
        x = np.repeat(x0[:, None], hi - lo, axis=1)
        dead = np.zeros(hi - lo, dtype=bool)
        with np.errstate(invalid="ignore"):
            for k0 in range(0, len(dts), block):
                nb = min(block, len(dts) - k0)
                # consecutive draws on a stream continue one (steps, d) draw
                for j, g in enumerate(streams):
                    noise[:nb, :, j] = g.standard_normal((nb, d))
                noise[:nb] *= sqrt_dts[k0 : k0 + nb, None, None]
                for k, dt in enumerate(dts[k0 : k0 + nb]):
                    y, bad = _advance(
                        x, dt, noise[k], _MAX_HALVINGS, drift_fn, diffusion_fn, reflect
                    )
                    frozen = dead | bad
                    if frozen.any():
                        y[:, frozen] = x[:, frozen]  # broken paths keep their last valid state
                        dead = frozen
                    x = y
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
