"""Matrix-field assembly statistics and affine-map properties."""

import tracemalloc

import numpy as np
import pytest

from eigencollide import gfield
from eigencollide.gfield import KernelSpec, TimeGrid, sample_fbm_1d
from eigencollide.matfield import (
    EnsembleSpec,
    MatrixPath,
    _entry_key,
    _row_draws,
    affine,
    assemble_rect,
    assemble_selfadjoint,
    sample_ensemble,
)
from eigencollide.rng import DOMAIN_FIELD, substream
from eigencollide.theory import HurstVector

KERN = KernelSpec(HurstVector(["1/2"]))
GRID = TimeGrid.unit([2])  # t = 1 is grid point 0; C(1,1) = 1


def affine_inverse(path: MatrixPath, spec: EnsembleSpec) -> MatrixPath:
    """Inverse of `affine`, the oracle of the bijection tests; it exists
    because the transforms are invertible."""
    values = path.values
    if spec.shift is not None:
        values = values - spec.shift
    t = spec.transform
    if spec.is_square:
        if t is not None:
            tinv = np.linalg.inv(t)
            values = tinv @ values @ np.conj(tinv.T)
            values = 0.5 * (values + np.conj(values.swapaxes(-1, -2)))
    else:
        if t is not None:
            values = np.linalg.inv(t) @ values
        if spec.transform_right is not None:
            values = values @ np.linalg.inv(spec.transform_right)
    return MatrixPath(grid=path.grid, values=np.ascontiguousarray(values))


def draws_selfadjoint(beta, d, m, seed=5):
    spec = EnsembleSpec(beta=beta, shape=(d,), kernel=KERN)
    return np.stack(
        [assemble_selfadjoint(spec, GRID, seed, path_index=i).values[0] for i in range(m)]
    )


# -- spec validation ----------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(beta=3, shape=(2,), kernel=KERN)
    with pytest.raises(ValueError):
        EnsembleSpec(beta=1, shape=(3, 2), kernel=KERN)  # d1 > d2
    with pytest.raises(ValueError):
        EnsembleSpec(beta=1, shape=(2,), kernel=KERN, shift=np.array([[0.0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        EnsembleSpec(
            beta=1, shape=(2,), kernel=KERN, transform=np.array([[1.0, 0], [0, 0]])
        )
    with pytest.raises(ValueError):
        EnsembleSpec(
            beta=1, shape=(2,), kernel=KERN, transform=np.array([[1.0, 1j], [-1j, 1]])
        )


def test_near_singular_transform_rejected():
    t = np.diag([1.0, 1e-12])
    with pytest.raises(ValueError):
        EnsembleSpec(beta=1, shape=(2,), kernel=KERN, transform=t)


# -- entry statistics ---------------------------------------------------


def test_goe_entry_variances():
    m = 10_000
    x = draws_selfadjoint(1, 2, m)
    se = np.sqrt(2.0 / m)
    assert abs(x[:, 0, 0].var() - 2.0) <= 3 * 2.0 * se
    assert abs(x[:, 0, 1].var() - 1.0) <= 3 * 1.0 * se
    assert np.array_equal(x[:, 0, 1], x[:, 1, 0])


def test_gue_entry_variances():
    m = 10_000
    x = draws_selfadjoint(2, 2, m)
    se = np.sqrt(2.0 / m)
    assert np.all(x[:, 0, 0].imag == 0)
    assert np.all(x[:, 1, 1].imag == 0)
    assert abs(x[:, 0, 0].real.var() - 2.0) <= 3 * 2.0 * se
    assert abs(x[:, 0, 1].real.var() - 1.0) <= 3 * se
    assert abs(x[:, 0, 1].imag.var() - 1.0) <= 3 * se


def test_selfadjoint_exact():
    spec = EnsembleSpec(beta=2, shape=(3,), kernel=KERN)
    p = assemble_selfadjoint(spec, TimeGrid.unit([3]), seed=1)
    assert np.array_equal(p.values, np.conj(p.values.swapaxes(-1, -2)))


def test_entry_fields_independent():
    m = 10_000
    x = draws_selfadjoint(1, 2, m, seed=6)
    pairs = [((0, 0), (0, 1)), ((0, 0), (1, 1)), ((0, 1), (1, 1))]
    for (i1, j1), (i2, j2) in pairs:
        rho = np.corrcoef(x[:, i1, j1], x[:, i2, j2])[0, 1]
        assert abs(rho) < 4 / np.sqrt(m)


def test_brownian_row_draws_have_covariance_min_s_t():
    # a 1-d H = 1/2 entry is a scaled cumulative sum walked in blocks of 3
    # rows, the second block carrying the first's last row
    grid = TimeGrid([(0.5, 2.0)], [4])
    spec = EnsembleSpec(beta=1, shape=(2,), kernel=KERN)
    m = 3000
    entries = ((0, 0), (0, 1), (1, 1))

    def path(p):  # the three entry draws of path p, each joined over its blocks
        blocks = [[draw(i, j, 0) for i, j in entries]
                  for _, _, draw in _row_draws(spec, grid, 4, p, 3)]
        return np.concatenate(blocks, axis=1)

    x = np.concatenate([path(p) for p in range(m)])
    t = grid.axis(0)
    want = np.minimum.outer(t, t)
    got = x.T @ x / len(x)  # the mean is known to be 0
    se = np.sqrt((np.outer(t, t) + want**2) / len(x))
    assert np.all(np.abs(got - want) <= 5 * se)


def test_rect_entry_variances():
    m = 8000
    spec = EnsembleSpec(beta=1, shape=(2, 3), kernel=KERN)
    w = np.stack(
        [assemble_rect(spec, GRID, 7, path_index=i).values[0] for i in range(m)]
    )
    se = np.sqrt(2.0 / m)
    for i in range(2):
        for j in range(3):
            assert abs(w[:, i, j].var() - 1.0) <= 3 * se
    spec2 = EnsembleSpec(beta=2, shape=(2, 3), kernel=KERN)
    z = np.stack(
        [assemble_rect(spec2, GRID, 8, path_index=i).values[0] for i in range(m)]
    )
    assert abs(z[:, 0, 0].real.var() - 1.0) <= 3 * se
    assert abs(z[:, 0, 0].imag.var() - 1.0) <= 3 * se


def test_two_point_rect_draws_one_stream_per_entry(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return substream(*args)

    monkeypatch.setattr(gfield, "substream", spy)
    spec = EnsembleSpec(beta=1, shape=(2, 3), kernel=KERN)
    assemble_rect(spec, GRID, 7, path_index=5)
    assert calls == [(7, DOMAIN_FIELD, 5, e, 0) for e in range(6)]


def test_one_draw_plan_serves_every_entry_of_every_path():
    spec = EnsembleSpec(beta=1, shape=(2, 3), kernel=KERN)
    grid = TimeGrid([(1.0, 2.5)], [2])  # a grid no other test draws
    before = gfield._draw_plan.cache_info()
    for i in range(100):
        assemble_rect(spec, grid, 7, path_index=i)
    after = gfield._draw_plan.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 599)


def test_fixed_seed_bit_identical():
    spec = EnsembleSpec(beta=2, shape=(2, 3), kernel=KERN)
    a = assemble_rect(spec, GRID, 9, path_index=3)
    b = assemble_rect(spec, GRID, 9, path_index=3)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("h", ["1/2", "3/10"])
@pytest.mark.parametrize("interval", [(1.0, 2.0), (1.03, 2.0)], ids=["lattice", "off-lattice"])
def test_entry_on_a_1d_grid_is_sample_fbm_1d_of_its_key(h, interval):
    # one realization per (seed, key): an entry's draw is the 1-d draw
    # with that entry's stream key
    grid = TimeGrid([interval], [20])
    spec = EnsembleSpec(beta=2, shape=(2, 3), kernel=KernelSpec(HurstVector([h])))
    values = assemble_rect(spec, grid, 9, path_index=4).values
    for (i, j, part), got in (((0, 2, 0), values[:, 0, 2].real),
                              ((1, 1, 1), values[:, 1, 1].imag)):
        want = sample_fbm_1d(h, grid, 9, _entry_key(spec, 4, i, j, part)).values
        assert np.array_equal(got, want)


# -- affine maps --------------------------------------------------------


def test_affine_identity_is_bitwise():
    spec = EnsembleSpec(beta=1, shape=(2,), kernel=KERN)
    raw = assemble_selfadjoint(spec, GRID, seed=2)
    out = affine(raw, spec)
    assert np.array_equal(out.values, raw.values)


def test_affine_norm_bound():
    # |A + T X T*|_F <= 4 (|A|_F + |X|_F) for T = diag(1, 2)
    spec = EnsembleSpec(
        beta=1,
        shape=(2,),
        kernel=KERN,
        shift=np.diag([1.0, -2.0]),
        transform=np.diag([1.0, 2.0]),
    )
    raw = assemble_selfadjoint(spec, GRID, seed=3)
    out = affine(raw, spec)
    lhs = np.linalg.norm(out.values, axis=(-2, -1))
    rhs = 4 * (np.linalg.norm(spec.shift) + np.linalg.norm(raw.values, axis=(-2, -1)))
    assert np.all(lhs <= rhs)


def test_affine_bijection():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((2, 2)) + np.eye(2) * 2
    spec = EnsembleSpec(
        beta=1, shape=(2,), kernel=KERN, shift=np.diag([0.5, 0.5]), transform=t
    )
    raw = assemble_selfadjoint(spec, GRID, seed=4)
    back = affine_inverse(affine(raw, spec), spec)
    rel = np.linalg.norm(back.values - raw.values) / np.linalg.norm(raw.values)
    assert rel < 1e-12


def test_affine_rect_bijection():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    tr = rng.standard_normal((3, 3)) + 2 * np.eye(3)
    spec = EnsembleSpec(
        beta=2,
        shape=(2, 3),
        kernel=KERN,
        shift=(rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))),
        transform=t.astype(complex),
        transform_right=tr.astype(complex),
    )
    raw = assemble_rect(spec, GRID, seed=5)
    back = affine_inverse(affine(raw, spec), spec)
    rel = np.linalg.norm(back.values - raw.values) / np.linalg.norm(raw.values)
    assert rel < 1e-12


def test_affine_result_selfadjoint():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    spec = EnsembleSpec(beta=1, shape=(3,), kernel=KERN, transform=t)
    out = sample_ensemble(spec, GRID, seed=6)
    assert np.array_equal(out.values, out.values.swapaxes(-1, -2))


def test_real_case_stays_real():
    spec = EnsembleSpec(beta=1, shape=(2,), kernel=KERN)
    p = sample_ensemble(spec, GRID, seed=7)
    assert p.values.dtype == np.float64


@pytest.mark.parametrize(
    "assemble, shape", [(assemble_selfadjoint, (2,)), (assemble_rect, (2, 2))],
    ids=["selfadjoint", "rect"],
)
def test_assemble_refuses_oversize_path_before_allocating(assemble, shape):
    spec = EnsembleSpec(beta=2, shape=shape, kernel=KernelSpec(HurstVector(["1/2", "1/2"])))
    grid = TimeGrid.unit([8192, 8192])  # 2x2 complex128 matrices: 4 GiB
    tracemalloc.start()
    try:
        # one block of the whole grid: the walk holds the whole path
        with pytest.raises(ValueError, match="holds at once take 4294967296 bytes, over the budget"):
            assemble(spec, grid, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
