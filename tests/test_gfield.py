"""Field sampler statistics against the closed-form covariance."""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from eigencollide import gfield
from eigencollide.gfield import (
    _axis_cov,
    _axis_factor,
    _fgn_draw,
    _fgn_sqrt_eigs,
    _lattice_presteps,
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


def test_fbm_dense_fallback_incommensurate():
    # [1.03, 2] with 20 points has no lattice through 0; dense path is exact.
    g = TimeGrid([(1.03, 2.0)], [20])
    assert _lattice_presteps(g) is None
    m = 4000
    draws = np.stack(
        [sample_fbm_1d("2/3", g, seed=13, key=(i,)).values for i in range(m)]
    )
    emp = draws.T @ draws / m
    gram = kernel_gram(spec("2/3"), g)
    tol = 5 * np.abs(gram).max() * np.sqrt(2.0 / m)
    assert np.abs(emp - gram).max() < tol


def test_fbm_large_incommensurate_rejected():
    g = TimeGrid([(1.05, 2.0)], [5000])
    assert _lattice_presteps(g) is None
    with pytest.raises(FactorizationError, match="off the lattice through 0"):
        sample_fbm_1d("3/10", g, seed=0)
    # H = 1/2 takes the cumulative sum, which has no size limit, and a
    # fractional grid on the lattice through 0 takes Davies-Harte, whichever
    # entry point draws it
    assert sample_fbm_1d("1/2", g, seed=0).values.shape == (5000,)
    on_lattice = TimeGrid.unit([5000])
    assert sample_sheet(spec("3/10"), on_lattice, seed=0).values.shape == (5000,)


@pytest.mark.parametrize("h", ["1/2", "3/10", "7/10"])
@pytest.mark.parametrize(
    "interval, n", [((1.0, 2.0), 33), ((1.03, 2.0), 20)], ids=["lattice", "off-lattice"]
)
def test_fbm_is_the_one_exponent_sheet_bitwise(h, interval, n):
    # one realization per (seed, key), whichever entry point draws it
    g = TimeGrid([interval], [n])
    assert (_lattice_presteps(g) is None) == (interval[0] == 1.03)
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
    # two methods, compared at their shared endpoint t = 2: Davies-Harte on
    # the lattice through 0 and the dense factor off it
    k = spec("3/10")
    lattice, dense = TimeGrid.unit([17]), TimeGrid([(1.03, 2.0)], [20])
    assert _lattice_presteps(lattice) == 16 and _lattice_presteps(dense) is None
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
    # fractional 1-d: Davies-Harte on the lattice, the dense factor off it
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
        # whole, and Davies-Harte draws the normals of the lattice from 0
        draws = streams[-1].shapes
        if all(h == "1/2" for h in hs):
            assert draws == [b.shape for b in blocks]
        elif _lattice_presteps(grid) is not None and len(shape) == 1:
            n_incr = _lattice_presteps(grid) + shape[0] - 1
            assert draws == [2, (n_incr - 1, 2)]
        else:
            assert draws == [tuple(shape)]


def test_fgn_real_fft_matches_complex_ifft():
    for h, n_incr in ((0.5, 4096), (0.3, 257), (0.8, 2)):
        half = _fgn_sqrt_eigs(h, 1.0 / n_incr, n_incr)
        got = _fgn_draw(half, n_incr, np.random.default_rng(9))
        # Complex Davies-Harte: mirror the spectrum and the noise.
        rng = np.random.default_rng(9)
        m = 2 * n_incr
        ends = rng.standard_normal(2)
        v = rng.standard_normal((n_incr - 1, 2))
        z = np.empty(m, dtype=complex)
        z[0], z[n_incr] = ends
        z[1:n_incr] = (v[:, 0] + 1j * v[:, 1]) / np.sqrt(2.0)
        z[n_incr + 1 :] = np.conj(z[1:n_incr][::-1])
        full = np.concatenate([half, half[-2:0:-1]])
        want = np.sqrt(m) * np.fft.ifft(full * z).real[:n_incr]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _off_lattice_fbm(h, grid, seed, key):
    """`sample_fbm_1d` on a grid that must take the dense path."""
    assert _lattice_presteps(grid) is None
    return sample_fbm_1d(h, grid, seed, key)


# Realizations recorded from the dense-factor sheet sampler and the complex
# Davies-Harte draw, and the 1-d cumulative sum recorded from `sample_sheet`:
# entries at fixed flat indices and the sum of squares.  They pin the
# stream layout (seed, key) -> values across sampler changes.
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
        [-0.5569511477176413, -0.5525127623968559, -1.8414983296478107,
         -1.6756598764395925],
        10387.179423484135,
        id="fbm_davies_harte_4096",
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
        lambda: _off_lattice_fbm("7/10", TimeGrid([(1.03, 2.0)], [20]), 2024, (3, 1, 0)),
        [0, 7, 19],
        [-0.8679181870380859, -0.5100288113252927, -0.5433410543025377],
        6.708786159413038,
        id="fbm_dense_fallback_20",
    ),
]


@pytest.mark.parametrize("draw, idx, values, sumsq", _PINNED)
def test_pinned_realizations(draw, idx, values, sumsq):
    flat = draw().values.ravel()
    assert np.allclose(flat[idx], values, rtol=1e-12, atol=0)
    assert np.sum(flat**2) == pytest.approx(sumsq, rel=1e-12)


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
