"""Field sampler statistics against the closed-form covariance."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from eigencollide import gfield
from eigencollide.gfield import (
    _axis_cov,
    _axis_factor,
    _draw_plan,
    _fgn_autocov,
    _fgn_draw,
    _sheet_rows,
    FactorizationError,
    KernelSpec,
    TimeGrid,
    kernel_eval,
    kernel_gram,
    sample_fbm_1d,
    sample_sheet,
    verify_assumptions,
)
from eigencollide.rng import DOMAIN_FIELD, substream
from eigencollide.theory import HurstVector


def spec(*hs):
    return KernelSpec(HurstVector(hs))


# -- grids --------------------------------------------------------------


def test_grid_validation():
    TimeGrid.unit([8, 8])
    with pytest.raises(ValueError):
        TimeGrid([(0.0, 1.0)], [8])  # a must be positive
    with pytest.raises(ValueError):
        TimeGrid([(2.0, 1.0)], [8])
    with pytest.raises(ValueError):
        TimeGrid([(1.0, 1.0)], [4])  # degenerate axis needs one point
    with pytest.raises(ValueError, match="over the budget"):
        TimeGrid([(1.0, 2.0)] * 2, [2**13, 2**14])  # 2**27 points, nothing allocated
    for end in (np.inf, np.nan):
        with pytest.raises(ValueError, match="interval end must be finite"):
            TimeGrid([(1.0, end)], [4])


def test_grid_axes():
    g = TimeGrid([(1.0, 2.0), (1.0, 3.0)], [3, 5])
    assert g.n_points == 15
    assert np.allclose(g.axis(0), [1.0, 1.5, 2.0])
    assert g.points().shape == (15, 2)


# -- kernel -------------------------------------------------------------


def test_kernel_examples():
    assert kernel_eval(spec("1/2"), 1, 2) == 1.0
    assert kernel_eval(spec("1/2", "1/2"), (1, 1), (2, 3)) == 1.0
    assert kernel_eval(spec("3/4"), 1, 1) == 1.0


def test_kernel_symmetry_and_domain():
    k = spec("1/3", "3/4")
    s, t = (1.2, 1.7), (1.9, 1.1)
    assert kernel_eval(k, s, t) == pytest.approx(kernel_eval(k, t, s), rel=1e-15)
    with pytest.raises(ValueError):
        kernel_eval(k, (0.0, 1.0), (1.0, 1.0))


def test_gram_psd_on_small_grids():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n_axes = rng.integers(1, 3)
        hs = np.sort(rng.integers(1, 20, size=n_axes)) / 20
        k = spec(*["%d/20" % int(h * 20) for h in hs])
        counts = rng.integers(2, 4, size=n_axes)
        if np.prod(counts) > 12:
            counts = counts[:1]
            k = spec("%d/20" % int(hs[0] * 20))
        g = TimeGrid.unit(list(counts))
        gram = kernel_gram(k, g)
        assert np.allclose(gram, gram.T)
        w = np.linalg.eigvalsh(gram)
        assert w.min() >= -1e-8 * np.trace(gram)


# -- fbm sampler --------------------------------------------------------


def test_fbm_determinism():
    g = TimeGrid.unit([33])
    a = sample_fbm_1d("3/4", g, seed=9, key=(4,))
    b = sample_fbm_1d("3/4", g, seed=9, key=(4,))
    c = sample_fbm_1d("3/4", g, seed=9, key=(5,))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_fbm_bm_increments_uncorrelated():
    # H = 1/2 increments are independent; pooled lag-1 correlation ~ 0.
    g = TimeGrid.unit([65])
    m = 10_000
    draws = np.stack(
        [sample_fbm_1d(0.5, g, seed=21, key=(i,)).values for i in range(m)]
    )
    incr = np.diff(draws, axis=1)
    x = incr[:, :-1].ravel()
    y = incr[:, 1:].ravel()
    rho = np.corrcoef(x, y)[0, 1]
    assert abs(rho) < 4 / np.sqrt(m)


def test_fbm_variance_at_one():
    g = TimeGrid.unit([17])
    m = 10_000
    draws = np.array(
        [sample_fbm_1d("3/4", g, seed=3, key=(i,)).values[0] for i in range(m)]
    )
    var = draws.var()
    se = 1.0 * np.sqrt(2.0 / m)  # Var[B(1)] = 1^(2H) = 1
    assert abs(var - 1.0) <= 3 * se


def test_fbm_increment_scaling():
    # E[(B(t) - B(s))^2] = |t-s|^(2H), pooled over a long path.
    g = TimeGrid.unit([257])
    h = 0.3
    m = 4000
    draws = np.stack(
        [sample_fbm_1d(h, g, seed=77, key=(i,)).values for i in range(m)]
    )
    dt = 1.0 / 256
    for lag in (1, 4, 16):
        second_moment = np.mean((draws[:, lag:] - draws[:, :-lag]) ** 2)
        assert second_moment == pytest.approx((lag * dt) ** (2 * h), rel=0.05)


@pytest.mark.parametrize(
    "interval", [(1.0, 2.0), (1.03, 2.0)], ids=["on-lattice", "off-lattice"]
)
def test_fbm_sample_covariance(interval):
    # [1, 2] with 20 points sits on a lattice through 0 and [1.03, 2] on
    # none; one method draws both, exactly
    g = TimeGrid([interval], [20])
    m = 4000
    draws = np.stack(
        [sample_fbm_1d("2/3", g, seed=13, key=(i,)).values for i in range(m)]
    )
    emp = draws.T @ draws / m
    gram = kernel_gram(spec("2/3"), g)
    tol = 5 * np.abs(gram).max() * np.sqrt(2.0 / m)
    assert np.abs(emp - gram).max() < tol


def test_fbm_1d_point_cap():
    # one cap for fractional 1-d grids, wherever they sit, and no lattice
    # through 0 needed below it
    off = TimeGrid([(1.05, 2.0)], [5000])
    assert sample_fbm_1d("3/10", off, seed=0).values.shape == (5000,)
    for interval in ((1.0, 2.0), (8192.0, 8193.0)):
        g = TimeGrid([interval], [16385])
        with pytest.raises(FactorizationError, match="takes at most 16384 points, got 16385"):
            sample_fbm_1d("3/10", g, seed=0)
        # H = 1/2 takes the cumulative sum, which has no such cap
        assert sample_fbm_1d("1/2", g, seed=0).values.shape == (16385,)


def _implied_cov(plan):
    """The covariance a fractional 1-d plan draws: the increments' Toeplitz
    covariance read back from the circulant spectrum, and B(a) = mu . X +
    sigma Z, each point B(a) plus its increments."""
    col = np.fft.irfft(plan.sqrt_eigs**2)  # first column of the circulant
    m = plan.mu.size
    idx = np.arange(m)
    cov = np.zeros((m + 1, m + 1))
    cov[:m, :m] = col[np.abs(idx[:, None] - idx[None, :])]
    cov[m, m] = 1.0
    lin = np.zeros((m + 1, m + 1))  # point k from (X_1 .. X_m, Z)
    lin[:, :m] = plan.mu + np.tril(np.ones((m + 1, m)), -1)
    lin[:, m] = plan.sigma
    return lin @ cov @ lin.T


@pytest.mark.parametrize(
    "interval", [(1.0, 2.0), (0.5, 1.5), (1.03, 2.0), (1024.0, 1025.0)],
    ids=["unit", "half", "off-lattice", "far"],
)
@pytest.mark.parametrize("n", [20, 96, 1025])
def test_fbm_plan_covariance_is_exact(interval, n):
    for h in ("1/10", "3/10", "2/5", "7/10", "9/10"):
        k, g = spec(h), TimeGrid([interval], [n])
        gram = kernel_gram(k, g)
        err = np.abs(_implied_cov(_draw_plan(k, g)) - gram).max()
        assert err <= 1e-12 * np.abs(gram).max(), h


def test_levinson_residual_at_the_cap():
    # Sigma mu = c at 2^14 points, H = 0.9, with Sigma applied by FFT and
    # c_i = Cov(B(1), B(t_i)) - Cov(B(1), B(t_{i-1})) in extended precision,
    # at the grid's points and lags i * step
    n, h = 16384, 0.9
    grid = TimeGrid.unit([n])
    plan = _draw_plan(spec("9/10"), grid)
    t, lag = grid.axis(0).astype(np.longdouble), np.arange(n) * np.longdouble(1.0 / (n - 1))
    c = np.diff(0.5 * (1 + t ** (2 * h) - lag ** (2 * h))).astype(float)
    gamma = _fgn_autocov(h, 1.0 / (n - 1), n - 1)
    circ = np.concatenate([gamma, [0.0], gamma[:0:-1]])
    padded = np.concatenate([plan.mu, np.zeros(n - 1)])
    sigma_mu = np.fft.irfft(np.fft.rfft(circ) * np.fft.rfft(padded), n=circ.size)[: n - 1]
    assert np.linalg.norm(sigma_mu - c) <= 1e-12 * np.linalg.norm(c)


def test_fbm_plans_take_increments_at_a_five_smooth_length(monkeypatch):
    # every fractional 1-d grid takes the increments route, none a dense
    # factor, and the circulant's half-length is 5-smooth and >= n - 1
    factors = []
    monkeypatch.setattr(gfield, "_axis_factor", lambda *args: factors.append(args))
    monkeypatch.setattr(gfield, "_draw_plan", gfield._draw_plan.__wrapped__)
    for n in (2, 3, 20, 96, 97, 1025, 4097, 5000, 8192, 16384):
        interval = (1.0, 2.0) if n % 2 else (1.03, 2.0)
        plan = gfield._draw_plan(spec("3/10"), TimeGrid([interval], [n]))
        half = plan.sqrt_eigs.size - 1
        assert half >= n - 1 and plan.mu.size == n - 1
        for p in (2, 3, 5):
            while half % p == 0:
                half //= p
        assert half == 1, n
    assert factors == []


@pytest.mark.parametrize(
    "interval, n", [((1024.0, 1025.0), 1025), ((8192.0, 8193.0), 4097)], ids=["1025", "4097"]
)
def test_fbm_draw_memory_follows_the_grid_not_its_distance_from_0(monkeypatch, interval, n):
    # a draw, its plan included, holds memory of the order of its points,
    # however far from 0 they sit
    monkeypatch.setattr(gfield, "_draw_plan", gfield._draw_plan.__wrapped__)
    sample_fbm_1d("1/3", TimeGrid.unit([3]), seed=0)  # lazy imports, outside the count
    g = TimeGrid([interval], [n])
    tracemalloc.start()
    try:
        values = sample_fbm_1d("1/3", g, seed=0).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert values.shape == (n,) and np.isfinite(values).all()


@pytest.mark.parametrize("h", ["1/2", "3/10", "7/10"])
@pytest.mark.parametrize(
    "interval, n", [((1.0, 2.0), 33), ((1.03, 2.0), 20)], ids=["lattice", "off-lattice"]
)
def test_fbm_is_the_one_exponent_sheet_bitwise(h, interval, n):
    # one realization per (seed, key), whichever entry point draws it
    g = TimeGrid([interval], [n])
    want = sample_fbm_1d(h, g, seed=6, key=(1, 2, 0)).values
    for got in (
        sample_sheet(spec(h), g, seed=6, key=(1, 2, 0)).values,
        np.concatenate(list(_sheet_rows(spec(h), g, 6, (1, 2, 0), 4))),
    ):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# -- sheet sampler ------------------------------------------------------


def test_sheet_brownian_axes_have_no_dense_limit():
    # H = 1/2 axes build no dense factor, so the 4096-point limit of the
    # dense per-axis factors does not apply to them
    g = TimeGrid([(1.0, 2.0), (0.5, 3.0)], [8, 5000])
    got = sample_sheet(spec("1/2", "1/2"), g, seed=7, key=(2,)).values
    z = substream(7, DOMAIN_FIELD, 2).standard_normal((8, 5000))
    w = [
        np.sqrt(np.diff(np.linspace(a, b, n), prepend=0.0))
        for (a, b), n in zip(g.intervals, g.shape)
    ]
    want = np.cumsum(np.cumsum(z * w[0][:, None], axis=0) * w[1], axis=1)
    assert np.allclose(got, want, rtol=1e-12, atol=0)
    with pytest.raises(FactorizationError):
        sample_sheet(spec("2/5", "1/2"), TimeGrid([(1.0, 2.0), (1.0, 2.0)], [5000, 8]), seed=7)


def test_sheet_mean_and_covariance():
    k = spec("1/2", "1/2")
    g = TimeGrid([(1.0, 2.0), (1.0, 3.0)], [2, 2])
    m = 10_000
    draws = np.stack(
        [sample_sheet(k, g, seed=8, key=(i,)).values.ravel() for i in range(m)]
    )
    gram = kernel_gram(k, g)
    # centered field
    se_mean = np.sqrt(np.diag(gram) / m)
    assert np.all(np.abs(draws.mean(axis=0)) <= 3 * se_mean)
    # covariance, including Cov(xi(1,1), xi(2,3)) = 1
    emp = draws.T @ draws / m
    idx = [tuple(p) for p in g.points()].index((2.0, 3.0))
    assert emp[0, idx] == pytest.approx(1.0, abs=3 * np.sqrt(2.0 / m) * 2)
    tol = 5 * np.abs(gram).max() * np.sqrt(2.0 / m)
    assert np.abs(emp - gram).max() < tol


def test_sheet_marginal_variance():
    k = spec("1/3", "3/5")
    g = TimeGrid.unit([3, 3])
    m = 8000
    draws = np.stack([sample_sheet(k, g, seed=2, key=(i,)).values for i in range(m)])
    for ai, a in enumerate(g.axis(0)):
        for bi, b in enumerate(g.axis(1)):
            want = a ** (2 / 3) * b ** (6 / 5)
            got = draws[:, ai, bi].var()
            assert abs(got - want) <= 3 * want * np.sqrt(2.0 / m)


def test_sheet_matches_fbm_in_distribution_1d():
    # two grids and two entry points, compared at their shared endpoint
    # t = 2: `sample_sheet` on a lattice through 0, `sample_fbm_1d` off it
    k = spec("3/10")
    lattice, dense = TimeGrid.unit([17]), TimeGrid([(1.03, 2.0)], [20])
    m = 10_000
    lattice_end = np.array(
        [sample_sheet(k, lattice, seed=4, key=(i,)).values[-1] for i in range(m)]
    )
    dense_end = np.array(
        [sample_fbm_1d("3/10", dense, seed=5, key=(i,)).values[-1] for i in range(m)]
    )
    assert ks_2samp(lattice_end, dense_end).statistic < 0.03


def test_sheet_determinism():
    k = spec("2/5", "1/2")
    g = TimeGrid.unit([4, 4])
    a = sample_sheet(k, g, seed=11, key=(0, 1))
    b = sample_sheet(k, g, seed=11, key=(0, 1))
    assert np.array_equal(a.values, b.values)


def _dense_sheet(k, g, seed, key):
    """Reference draw: the dense Cholesky factor applied along every axis."""
    values = substream(seed, DOMAIN_FIELD, *key).standard_normal(g.shape)
    for j, h in enumerate(k.hurst.as_floats()):
        (a, b), n = g.intervals[j], g.shape[j]
        values = np.moveaxis(np.tensordot(_axis_factor(h, a, b, n), values, axes=(1, j)), 0, j)
    return values


@pytest.mark.parametrize(
    "hs, intervals, shape",
    [
        (("1/3", "1/2", "3/4"), [(1.0, 2.0), (0.5, 3.0), (1.0, 1.5)], (5, 9, 6)),
        (("1/2", "1/2"), [(0.5, 3.0), (0.5, 3.0)], (40, 33)),
        (("1/2",), [(0.5, 3.0)], (257,)),
    ],
)
def test_sheet_brownian_axes_match_dense_factor(hs, intervals, shape):
    # H = 1/2 axes apply the exact factor of min(s, t) as a scaled cumsum;
    # it must reproduce the dense Cholesky draw up to rounding.
    k, g = spec(*hs), TimeGrid(intervals, shape)
    got = sample_sheet(k, g, seed=31, key=(2, 5, 0)).values
    want = _dense_sheet(k, g, 31, (2, 5, 0))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class _CountingStream:
    """A stream that records the shape of every `standard_normal` draw."""

    def __init__(self, rng):
        self.rng, self.shapes = rng, []

    def standard_normal(self, size):
        self.shapes.append(size)
        return self.rng.standard_normal(size)


SHEET_ROW_CASES = {
    "bm-100x37": (("1/2", "1/2"), [(1.0, 2.0), (0.5, 3.0)], [100, 37]),
    "bm-33x5": (("1/2", "1/2"), [(1.0, 2.0)] * 2, [33, 5]),
    "bm-8x6x5": (("1/2", "1/2", "1/2"), [(1.0, 2.0)] * 3, [8, 6, 5]),
    "dense-1/2-7/10": (("1/2", "7/10"), [(1.0, 2.0)] * 2, [30, 20]),
    "dense-2/5-1/2": (("2/5", "1/2"), [(1.0, 2.0)] * 2, [30, 20]),
    # a 1-d Brownian motion, on the lattice through 0 and off it
    "bm-100": (("1/2",), [(1.0, 2.0)], [100]),
    "bm-off-lattice-100": (("1/2",), [(1.05, 2.0)], [100]),
    # fractional 1-d, on a lattice through 0 and off it
    "fbm-3/10-100": (("3/10",), [(1.0, 2.0)], [100]),
    "fbm-7/10-off-lattice-20": (("7/10",), [(1.03, 2.0)], [20]),
}


@pytest.mark.parametrize("case", sorted(SHEET_ROW_CASES))
def test_sheet_rows_join_to_sample_sheet_bitwise(monkeypatch, case):
    hs, intervals, shape = SHEET_ROW_CASES[case]
    grid = TimeGrid(intervals, shape)
    want = sample_sheet(spec(*hs), grid, 17, (4, 1, 0)).values
    streams = []

    def counting(*key):
        streams.append(_CountingStream(substream(*key)))
        return streams[-1]

    monkeypatch.setattr("eigencollide.gfield.substream", counting)
    for rows in (1, 3, 7, shape[0] - 1, shape[0], shape[0] + 4):
        blocks = list(_sheet_rows(spec(*hs), grid, 17, (4, 1, 0), rows))
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) <= rows
        got = np.concatenate(blocks)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # all-1/2 sheets draw each block's rows alone; a dense axis draws
        # whole, and a fractional 1-d grid draws 2N + 1 normals at once
        draws = streams[-1].shapes
        if all(h == "1/2" for h in hs):
            assert draws == [b.shape for b in blocks]
        elif len(shape) == 1:
            assert draws == [2 * _draw_plan(spec(*hs), grid).sqrt_eigs.size - 1]
        else:
            assert draws == [tuple(shape)]


def test_fgn_real_fft_matches_complex_ifft():
    for h, n_incr in ((0.5, 4096), (0.3, 257), (0.8, 2), (0.3, 1)):
        gamma = _fgn_autocov(h, 1.0 / n_incr, n_incr + 1)
        full = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
        half = np.sqrt(full[: n_incr + 1])
        normals = np.random.default_rng(9).standard_normal(2 * n_incr)
        got = _fgn_draw(half, normals)
        # Complex Davies-Harte: mirror the spectrum and the noise.
        m = 2 * n_incr
        v = normals[2:].reshape(n_incr - 1, 2)
        z = np.empty(m, dtype=complex)
        z[0], z[n_incr] = normals[:2]
        z[1:n_incr] = (v[:, 0] + 1j * v[:, 1]) / np.sqrt(2.0)
        z[n_incr + 1 :] = np.conj(z[1:n_incr][::-1])
        want = np.sqrt(m) * np.fft.ifft(np.sqrt(full) * z).real
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# Realizations recorded from the dense-factor sheet sampler, the 1-d
# cumulative sum recorded from `sample_sheet`, and fractional 1-d draws
# (increments and start value) recorded once their covariance matched
# `kernel_gram` to 1e-12: entries at fixed flat indices and the sum of
# squares.  They pin the stream layout (seed, key) -> values across sampler
# changes.
_PINNED = [
    pytest.param(
        lambda: sample_sheet(spec("1/2", "1/2"), TimeGrid.unit([32, 32]), 2024, (3, 1, 0)),
        [0, 31, 32, 527, 1023],
        [-0.8501444651854032, 0.6861578020183478, -0.8964114281041946,
         -0.892522704001193, -1.0056525077565557],
        751.5551847596566,
        id="sheet_brownian_32x32",
    ),
    pytest.param(
        lambda: sample_sheet(spec("2/5", "1/2"), TimeGrid.unit([16, 16]), 2024, (3, 1, 0)),
        [0, 15, 16, 135, 255],
        [-0.8501444651854032, -0.15588071195797473, -0.9005710193157717,
         -1.1042615864861425, -0.8282738118665186],
        145.39408000772153,
        id="sheet_mixed_16x16",
    ),
    pytest.param(
        lambda: sample_fbm_1d("7/10", TimeGrid.unit([4096]), 2024, (3, 1, 0)),
        [0, 1, 2047, 4095],
        [-0.10599118681209291, -0.10666974824435721, -0.4494685292353195,
         -1.138237570196045],
        2445.803376783846,
        id="fbm_increments_4096",
    ),
    pytest.param(
        lambda: sample_fbm_1d("1/2", TimeGrid.unit([4096]), 2024, (3, 1, 0)),
        [0, 1, 2047, 4095],
        [-0.8501444651854032, -0.8475657013767378, -0.810435885708402,
         1.146951653546431],
        3172.903681202731,
        id="fbm_brownian_cumsum_4096",
    ),
    pytest.param(
        lambda: sample_fbm_1d("7/10", TimeGrid([(1.03, 2.0)], [20]), 2024, (3, 1, 0)),
        [0, 7, 19],
        [0.02064329549913163, 0.22318270449218336, -0.9513205251139575],
        7.3081408275662945,
        id="fbm_off_lattice_20",
    ),
]


@pytest.mark.parametrize("draw, idx, values, sumsq", _PINNED)
def test_pinned_realizations(draw, idx, values, sumsq):
    flat = draw().values.ravel()
    assert np.allclose(flat[idx], values, rtol=1e-12, atol=0)
    assert np.sum(flat**2) == pytest.approx(sumsq, rel=1e-12)


# -- draw plan ----------------------------------------------------------

# sha256 of the block shapes and bytes `_sheet_rows` yields at seed 2024,
# key (3, 1, 0), recorded before the draw plan existed: the plan moves no
# bit.  The fractional 1-d case was recorded again when such grids moved to
# increments and a start value.
_BLOCK_DIGESTS = {
    "bm-2pt": ((("1/2",), [(1.0, 2.0)], [2]), {
        1: "4fe8c7505293977c1813c6db11bef9ade6cb69ab14ee0869f9e3cef720e56d0f",
        2: "09519d742c1ea948bf59018f6186063c150b4da16429b0cf87b930687f6f068f",
    }),
    "bm-1d": ((("1/2",), [(1.0, 2.0)], [50]), {
        1: "d69f5635350df82b3fb07accfff6e03bbc7d430e1e45d6459bba22df8845261b",
        7: "d39162d2e269e445e57e2bbc80b65f139bc2c6316cf5edacf069cfb40883538f",
        50: "58c59e0a9abe15e57e783ef21a0f6d79d0a7f6d5d3e7d186e4f2042db60133a2",
    }),
    "bm-2d": ((("1/2", "1/2"), [(1.0, 2.0), (0.5, 3.0)], [40, 9]), {
        1: "ac745d5a65f52af3a35bf237dc40487e4ca584f9d533990681a87de6b8729cd1",
        7: "d51cb47734197b0027d02ff203d8137af6b8f9acc952abe2676a9506daa87ec7",
        40: "ccde2b24d580a954914d11c647d51e852cfc773574cfde1a0c317424956d10b6",
    }),
    "bm-3d": ((("1/2", "1/2", "1/2"), [(1.0, 2.0)] * 3, [8, 6, 5]), {
        1: "a3df3749c137470d95ef48703f3de41c62c7fb7d1f9f47467724c078836123fa",
        7: "d929e75429e92903525275000374cd3c6d2bf98e9209e78db8314655d1bd87d0",
        8: "53947032b28596d221dcc76b098ed63a94de7c8ddc6aa1d29fcc4293993dc64f",
    }),
    "davies-harte-3/10": ((("3/10",), [(1.0, 2.0)], [33]), {
        1: "414ca290f6e9542f14861ffacca514e676884481361ef295db195c1fbb141177",
        7: "cefba35bdf6643062d3a48e0d2ed20703fecdd30775fe52047969ff5a5616427",
        33: "54ac4f86bbb86c6d95ba5a884495c1ac40acb36f44879452ce4d365d345409fa",
    }),
    "dense-2/5-1/2": ((("2/5", "1/2"), [(1.0, 2.0)] * 2, [30, 20]), {
        1: "64ca13781abf258f7304817841c29520df51c8f373e4e342d133fac2bb26591c",
        7: "8534fa89c3a36cc9720ab237e7d8fafd80b140d0ec1262980f0a6f0f9269a1a6",
        30: "84bcee79238bf170af100e2fa369caff232162061140f6448837fd9a9744a978",
    }),
}


@pytest.mark.parametrize("case", sorted(_BLOCK_DIGESTS))
def test_sheet_row_blocks_pinned(case):
    (hs, intervals, shape), digests = _BLOCK_DIGESTS[case]
    for rows, want in digests.items():
        digest = hashlib.sha256()
        for block in _sheet_rows(spec(*hs), TimeGrid(intervals, shape), 2024, (3, 1, 0), rows):
            digest.update(repr(block.shape).encode())
            digest.update(np.ascontiguousarray(block).tobytes())
        assert digest.hexdigest() == want, rows


@pytest.mark.parametrize(
    "hs, grid, error",
    [
        (("3/10",), TimeGrid([(1.05, 2.0)], [16385]), FactorizationError),
        (("2/5", "1/2"), TimeGrid([(1.0, 2.0)] * 2, [5000, 8]), FactorizationError),
        (("1/2",), TimeGrid([(1.0, 1.0)], [1]), ValueError),
    ],
    ids=["fbm-1d-cap", "dense-axis", "one-point"],
)
def test_refused_grid_is_refused_at_every_draw(hs, grid, error):
    # the plan cache keeps no refusal: each draw raises again
    for _ in range(3):
        with pytest.raises(error):
            sample_sheet(spec(*hs), grid, seed=0)


def test_failed_circulant_embedding_is_refused(monkeypatch):
    # the embedding of fGn has no negative eigenvalue at any H tried; a
    # negated spectrum stands in for one, with no plan cached so no other
    # test sees it
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda a: -rfft(a))
    monkeypatch.setattr(gfield, "_draw_plan", gfield._draw_plan.__wrapped__)
    g = TimeGrid([(1.03, 2.0)], [19])
    for _ in range(2):
        with pytest.raises(
            FactorizationError,
            match=r"circulant embedding of H = 0\.3 on 19 points of \[1\.03, 2\] has a negative",
        ):
            sample_fbm_1d("3/10", g, seed=0)


def test_failed_cholesky_is_refused(monkeypatch):
    def no_factor(a):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", no_factor)
    monkeypatch.setattr(gfield, "_axis_factor", gfield._axis_factor.__wrapped__)
    monkeypatch.setattr(gfield, "_draw_plan", gfield._draw_plan.__wrapped__)
    for k, g, named in (
        (spec("1/2", "7/10"), TimeGrid([(1.0, 2.0), (1.03, 2.0)], [3, 20]),
         r"H = 0\.7 covariance of 20 points on \[1\.03, 2\]"),
        (spec("1/2", "3/5"), TimeGrid([(1.0, 2.0), (0.5, 3.0)], [4, 6]),
         r"H = 0\.6 covariance of 6 points on \[0\.5, 3\]"),
    ):
        with pytest.raises(FactorizationError, match=named + " has no Cholesky factor"):
            sample_sheet(k, g, seed=0)


# -- assumption scan ----------------------------------------------------


def test_assumptions_bm_on_unit_grid():
    rep = verify_assumptions(spec("1/2"), TimeGrid.unit([64]))
    assert rep.passed
    assert rep.c1 >= 1.0  # ||xi(t)||^2 = t >= 1 on [1, 2]
    assert rep.c3 > 0
    assert rep.c4 > 0


def test_assumptions_anisotropic():
    rep = verify_assumptions(spec("1/3", "1/2"), TimeGrid.unit([6, 6]))
    assert rep.passed and rep.c3 > 0 and rep.c4 > 0


def test_assumptions_degenerate_grid_vacuous():
    rep = verify_assumptions(spec("1/2"), TimeGrid([(1.5, 1.5)], [1]))
    assert rep.passed
    assert rep.c3 is None and rep.c4 is None
    assert rep.n_pairs == 0


def _whole_grid_scan(spec_, grid):
    """The assumption scan over whole n x n arrays, with the Gram matrix
    built by Kronecker products: the reference of the row-blocked scan."""
    n = grid.n_points
    gram = np.ones((n, n))
    hs = spec_.hurst.as_floats()
    for j in range(grid.ndim):
        ax = grid.axis(j)
        cov_j = _axis_cov(hs[j], ax[:, None], ax[None, :])
        before, after = int(np.prod(grid.shape[:j])), int(np.prod(grid.shape[j + 1 :]))
        gram *= np.kron(np.ones((before, before)), np.kron(cov_j, np.ones((after, after))))
    var = np.diag(gram)
    pts = grid.points()
    hs = np.array(hs)
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    sep_h = (diff**hs).sum(axis=-1)
    sep_2h = (diff ** (2 * hs)).sum(axis=-1)
    off = ~np.eye(n, dtype=bool)
    incr_sq = np.clip(var[:, None] + var[None, :] - 2 * gram, 0.0, None)
    c3 = float(np.sqrt(incr_sq[off] / sep_h[off] ** 2).min())
    s_u, s_v = np.sqrt(var)[:, None], np.sqrt(var)[None, :]
    condvar = (incr_sq - (s_u - s_v) ** 2) * ((s_u + s_v) ** 2 - incr_sq) / (4 * s_v**2)
    c4 = float((np.clip(condvar, 0.0, None)[off] / sep_2h[off]).min())
    return gram, float(np.sqrt(var.min())), c3, c4, int(off.sum())


@pytest.mark.parametrize(
    "hs, intervals, shape",
    [
        (("1/2",), [(1.0, 2.0)], [64]),
        (("3/10",), [(0.5, 2.0)], [300]),
        (("1/2", "1/2"), [(1.0, 2.0)] * 2, [12, 16]),
        (("1/3", "1/2"), [(1.0, 2.0), (0.5, 3.0)], [9, 14]),
        (("1/4", "1/2", "3/4"), [(1.0, 2.0)] * 3, [5, 6, 7]),
    ],
    ids=["bm-1d", "fbm-1d", "sheet", "anisotropic", "3d"],
)
@pytest.mark.parametrize("pairs", [50, 1 << 18], ids=["many-blocks", "default-blocks"])
def test_assumption_scan_equals_whole_grid_scan(monkeypatch, hs, intervals, shape, pairs):
    monkeypatch.setattr(gfield, "_SCAN_PAIRS", pairs)
    grid = TimeGrid(intervals, shape)
    gram, c1, c3, c4, n_pairs = _whole_grid_scan(spec(*hs), grid)
    assert np.array_equal(kernel_gram(spec(*hs), grid).view(np.int64), gram.view(np.int64))
    rep = verify_assumptions(spec(*hs), grid)
    assert (rep.c1, rep.c3, rep.c4, rep.n_pairs) == (c1, c3, c4, n_pairs)
    assert rep.n_points == grid.n_points and rep.passed
