"""Eigensolver and pattern-gap checks against independent oracles."""

from itertools import combinations

import numpy as np
import pytest

from eigencollide.gfield import KernelSpec, TimeGrid
from eigencollide.matfield import EnsembleSpec, sample_ensemble
from eigencollide.spectra import (
    NumericalError,
    _mid_radius,
    eigvals_selfadjoint,
    pattern_gap_values,
    singvals,
    spectral_path,
)
from eigencollide.theory import CollisionPattern, HurstVector, SpectralKind


def charpoly_roots(m):
    """Eigenvalues via the characteristic polynomial.

    Coefficients come from the Faddeev-LeVerrier trace recursion and the
    roots from the companion matrix, so nothing here shares code with the
    closed forms or the LAPACK solver under test.
    """
    d = m.shape[0]
    coeffs = [1.0]
    a = np.array(m, dtype=complex)
    ak = np.eye(d, dtype=complex)
    for k in range(1, d + 1):
        ak = a @ ak
        c = -np.trace(ak) / k
        ak += c * np.eye(d)
        coeffs.append(c.real)
    return np.sort(np.roots(coeffs).real)


def rand_sym(rng, d, complex_=False):
    a = rng.standard_normal((d, d))
    if complex_:
        a = a + 1j * rng.standard_normal((d, d))
    return a + np.conj(a.T)


# -- eigensolver --------------------------------------------------------


def test_eigvals_fixed_examples():
    assert np.allclose(eigvals_selfadjoint(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])
    assert np.allclose(eigvals_selfadjoint(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1, 1])


def test_eigvals_against_charpoly_oracle():
    rng = np.random.default_rng(42)
    for _ in range(30):
        m = rand_sym(rng, 5)
        assert np.abs(eigvals_selfadjoint(m) - charpoly_roots(m)).max() < 1e-8


def test_eigvals_complex_against_charpoly_oracle():
    rng = np.random.default_rng(43)
    for _ in range(20):
        m = rand_sym(rng, 4, complex_=True)
        assert np.abs(eigvals_selfadjoint(m) - charpoly_roots(m)).max() < 1e-8


def test_eigvals_batched_matches_single():
    rng = np.random.default_rng(44)
    mats = np.stack([rand_sym(rng, 3) for _ in range(50)])
    batched = eigvals_selfadjoint(mats)
    for k in range(50):
        assert np.allclose(batched[k], eigvals_selfadjoint(mats[k]))


def test_weyl_stability():
    rng = np.random.default_rng(45)
    for _ in range(40):
        d = rng.integers(2, 7)
        a = rand_sym(rng, d)
        b = a + 0.1 * rand_sym(rng, d)
        wa, wb = eigvals_selfadjoint(a), eigvals_selfadjoint(b)
        assert np.abs(wa - wb).max() <= np.linalg.norm(a - b) + 1e-12


def test_eigvals_rejects_oversize():
    with pytest.raises(ValueError):
        eigvals_selfadjoint(np.eye(65))


@pytest.mark.parametrize("complex_", [False, True])
def test_eigvals_2x2_closed_form_against_oracles(complex_):
    rng = np.random.default_rng(52)
    mats = np.stack([rand_sym(rng, 2, complex_) for _ in range(200)])
    got = eigvals_selfadjoint(mats)
    assert np.abs(got - np.linalg.eigvalsh(mats)).max() < 1e-13
    for m, w in zip(mats, got):
        assert np.abs(w - charpoly_roots(m)).max() < 1e-12


@pytest.mark.parametrize("b", [0.0, 0j])
def test_eigvals_2x2_exact_ties(b):
    m = np.array([[3.7, b], [np.conj(b), 3.7]])
    w = eigvals_selfadjoint(m)
    assert w[0] == w[1] == 3.7
    assert pattern_gap_values(w, CollisionPattern((2,), 2)) == 0.0


@pytest.mark.parametrize("complex_", [False, True])
def test_eigvals_2x2_large_offset(complex_):
    # |mid| >> r makes the characteristic polynomial ill-conditioned, so the
    # oracle gets the matrix back with the offset removed (exactly, by
    # Sterbenz) and adds it to the roots.
    rng = np.random.default_rng(53)
    offset = 1e8
    for _ in range(20):
        m = rand_sym(rng, 2, complex_) + offset * np.eye(2)
        scale = np.linalg.norm(m)
        w = eigvals_selfadjoint(m)
        assert np.abs(w - np.linalg.eigvalsh(m)).max() < 2e-15 * scale
        want = charpoly_roots(m - offset * np.eye(2)) + offset
        assert np.abs(w - want).max() < 2e-15 * scale


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_eigvals_2x2_extreme_scales(complex_, scale):
    rng = np.random.default_rng(54)
    for _ in range(20):
        m = rand_sym(rng, 2, complex_)
        w = eigvals_selfadjoint(scale * m)
        norm = scale * np.linalg.norm(m)
        assert np.all(np.isfinite(w))
        assert np.abs(w - scale * eigvals_selfadjoint(m)).max() < 1e-14 * norm
        assert np.abs(w - np.linalg.eigvalsh(scale * m)).max() < 1e-14 * norm
        assert np.abs(w - charpoly_roots(scale * m)).max() < 1e-12 * norm


def test_eigvals_2x2_near_overflow():
    big = np.finfo(float).max
    w = eigvals_selfadjoint(np.array([[big, 0.0], [0.0, -big]]))
    assert list(w) == [-big, big]


def test_eigvals_nonfinite_matrix_raises_with_index():
    mats = np.stack([np.eye(3)] * 5)
    mats[3, 1, 2] = np.nan
    with pytest.raises(NumericalError) as err:
        eigvals_selfadjoint(mats)
    assert err.value.batch_indices == (3,)
    mats = np.stack([np.eye(2)] * 5)
    mats[1, 0, 0] = np.inf
    with pytest.raises(NumericalError) as err:
        eigvals_selfadjoint(mats)
    assert err.value.batch_indices == (1,)


def test_eigvals_lapack_failure_bisected_to_matrices(monkeypatch):
    # LAPACK does not fail on finite input in practice, so stand in a solver
    # that fails on every batch holding a marked matrix.
    lapack = np.linalg.eigvalsh

    def failing(a):
        if np.any(a[..., 0, 0] == 7.0):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return lapack(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    mats = np.stack([np.eye(3)] * 11)
    mats[[2, 9], 0, 0] = 7.0
    with pytest.raises(NumericalError) as err:
        eigvals_selfadjoint(mats)
    assert err.value.batch_indices == (2, 9)


# -- singular values ----------------------------------------------------


def test_singvals_fixed_examples():
    assert np.allclose(singvals(np.array([[1.0, 0, 0], [0, 2.0, 0]])), [1, 2])
    assert np.allclose(singvals(np.zeros((2, 3))), [0, 0])


def test_singvals_both_gram_forms_agree():
    rng = np.random.default_rng(46)
    for _ in range(20):
        m = rng.standard_normal((3, 5))
        sv = singvals(m)
        w = np.sort(eigvals_selfadjoint(m.T @ m))  # larger Gram form
        nontrivial = np.sqrt(np.clip(w[-3:], 0, None))
        assert np.abs(sv - nontrivial).max() < 1e-8


def test_singvals_requires_wide():
    with pytest.raises(ValueError):
        singvals(np.zeros((3, 2)))


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_singvals_2xn_against_svd(complex_, n):
    rng = np.random.default_rng(55)
    mats = rng.standard_normal((100, 2, n))
    if complex_:
        mats = mats + 1j * rng.standard_normal((100, 2, n))
    want = np.linalg.svd(mats, compute_uv=False)[..., ::-1]
    assert np.abs(singvals(mats) - want).max() < 1e-13


def _unitary(rng, n, complex_):
    a = rng.standard_normal((n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(a)[0]


@pytest.mark.parametrize("complex_", [False, True])
def test_singvals_2xn_small_value_keeps_relative_accuracy(complex_):
    # The Gram route squares sigma = 1e-9 into rounding noise of M M*.
    rng = np.random.default_rng(56)
    for _ in range(20):
        u, v = _unitary(rng, 2, complex_), _unitary(rng, 3, complex_)
        m = u @ np.diag([1e-9, 1.0]) @ np.conj(v.T)[:2]
        small, big = singvals(m)
        assert small == pytest.approx(1e-9, rel=1e-6)
        assert big == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("complex_", [False, True])
def test_singvals_3xn_small_value_keeps_relative_accuracy(complex_):
    # The Gram route M M* returned 3.4e-9 for sigma = 1e-9 here.
    rng = np.random.default_rng(58)
    for _ in range(20):
        u, v = _unitary(rng, 3, complex_), _unitary(rng, 4, complex_)
        m = u @ np.diag([1e-9, 0.5, 1.0]) @ np.conj(v.T)[:3]
        got = singvals(m)
        assert got[0] == pytest.approx(1e-9, rel=1e-6)
        assert got[1:] == pytest.approx([0.5, 1.0], rel=1e-14)


def test_singvals_lapack_failure_bisected_to_matrices(monkeypatch):
    # as for eigvalsh: a stand-in SVD that fails on every batch holding a
    # marked matrix
    lapack = np.linalg.svd

    def failing(a, **kwargs):
        if np.any(a[..., 0, 0] == 7.0):
            raise np.linalg.LinAlgError("SVD did not converge")
        return lapack(a, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    mats = np.stack([np.eye(3, 4)] * 11)
    mats[[4, 5], 0, 0] = 7.0
    with pytest.raises(NumericalError, match="LAPACK svd did not converge for 2 matrices") as err:
        singvals(mats)
    assert err.value.batch_indices == (4, 5)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_singvals_2xn_extreme_scales(scale):
    rng = np.random.default_rng(57)
    m = rng.standard_normal((10, 2, 3))
    got = singvals(scale * m)
    assert np.all(np.isfinite(got))
    assert np.abs(got / scale - singvals(m)).max() < 1e-14


# -- pattern gap --------------------------------------------------------


def brute_force_gap(lam, mult):
    """Min over all disjoint index sets (any order, not just contiguous)."""
    best = np.inf

    def rec(avail, idx, cur):
        nonlocal best
        if cur >= best:
            return
        if idx == len(mult):
            best = min(best, cur)
            return
        for js in combinations(sorted(avail), mult[idx]):
            span = lam[js[-1]] - lam[js[0]]
            rec(avail - set(js), idx + 1, max(cur, span))

    rec(frozenset(range(len(lam))), 0, 0.0)
    return best


def all_patterns(n):
    out = []

    def rec(prefix, budget, low):
        for l in range(low, budget + 1):
            out.append(tuple(prefix + [l]))
            rec(prefix + [l], budget - l, l)

    rec([], n, 2)
    return out


def test_pattern_gap_examples():
    lam = np.array([0.0, 0.1, 0.15, 0.9])
    assert pattern_gap_values(lam, CollisionPattern((2,), 4)) == pytest.approx(0.05)
    assert pattern_gap_values(lam, CollisionPattern((2, 2), 4)) == pytest.approx(0.75)
    assert pattern_gap_values(np.array([3.0, 3.0, 3.0]), CollisionPattern((3,), 3)) == 0.0


def test_pattern_gap_matches_brute_force():
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        lam = np.sort(rng.standard_normal(n))
        if rng.random() < 0.3:  # inject exact ties
            i, j = rng.integers(0, n, size=2)
            lam[i] = lam[j]
            lam = np.sort(lam)
        for mult in all_patterns(n):
            p = CollisionPattern(mult, n)
            want = brute_force_gap(lam, mult)
            assert pattern_gap_values(lam, p) == pytest.approx(want, abs=1e-12)
            got = pattern_gap_values(lam[None, :], p)[0]
            assert got == pytest.approx(want, abs=1e-12)


# Spectra full of ties, for every n <= 6.
TIE_SPECTRA = [
    (1.0, 1.0),
    (0.25, 0.5),
    (0.0, 0.75),
    (1.0, 1.0, 1.0),
    (0.25, 0.5, 0.75),
    (0.0, 0.5, 0.75),
    (1.0, 1.0, 1.0, 1.0),
    (0.0, 0.25, 0.25, 0.75),
    (0.0, 0.0, 0.25, 0.75),
    (1.0, 1.0, 1.0, 1.0, 1.0),
    (0.0, 0.25, 0.25, 0.25, 0.75),
    (0.0, 0.0, 0.25, 0.5, 0.75),
    (0.0, 0.5, 0.5, 0.5, 1.0),
    (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    (0.0, 0.0, 0.5, 0.5, 0.75, 0.75),
    (0.0, 0.0, 0.25, 0.25, 0.75, 0.75),
    (0.0, 0.25, 0.25, 0.5, 0.5, 0.75),
    (0.0, 0.0, 0.0, 0.5, 0.5, 0.5),
]


def test_pattern_gap_values_equal_to_witness_dp():
    # The DP and the brute force only subtract, take max and take min of the
    # same values, so they must agree exactly, ties included.
    rng = np.random.default_rng(4711)
    for n in range(2, 7):
        spectra = np.sort(rng.integers(0, 5, size=(60, n)) * 0.25 + rng.random((60, 1)), axis=1)
        spectra[:30] = np.sort(rng.standard_normal((30, n)), axis=1)
        ties = np.array([lam for lam in TIE_SPECTRA if len(lam) == n])
        for mult in all_patterns(n):
            p = CollisionPattern(mult, n)
            got = pattern_gap_values(spectra, p)
            want = np.array([brute_force_gap(lam, mult) for lam in spectra])
            assert np.all(got == want), (n, mult)
            assert all(pattern_gap_values(lam, p) == w for lam, w in zip(spectra, want))
            want = np.array([brute_force_gap(lam, mult) for lam in ties])
            assert np.all(pattern_gap_values(ties, p) == want), (n, mult)
            assert all(pattern_gap_values(lam, p) == w for lam, w in zip(ties, want))


def test_pattern_gap_values_shapes():
    p = CollisionPattern((2,), 3)
    assert pattern_gap_values([0.0, 1.0, 1.5], p).shape == ()
    assert pattern_gap_values(np.zeros((4, 5, 3)), p).shape == (4, 5)
    assert pattern_gap_values(np.zeros((0, 3)), p).shape == (0,)


def test_mid_radius_against_hypot():
    rng = np.random.default_rng(808)
    x = rng.standard_normal(4000) * 10.0 ** rng.integers(-150, 151, 4000)
    y = np.abs(rng.standard_normal(4000)) * 10.0 ** rng.integers(-150, 151, 4000)
    big = np.finfo(float).max
    cases = [(0.0, 0.0), (1.0, 1.0), (-3.0, 3.0), (0.0, 2.5), (4.0, 0.0),
             (1e150, 1e150), (1e-150, 1e-150), (1e150, 1e-150), (1e-150, 1e150),
             (1e308, 1e308), (big, 0.0), (big / 2, big / 2), (-1e308, 1e300)]
    dx = np.concatenate([x, [c[0] for c in cases]])
    b = np.concatenate([y, [c[1] for c in cases]])
    # With a = dx and c = -dx the halved difference is exactly dx.
    mid, r = _mid_radius(dx, -dx, b)
    want = np.hypot(dx, b)
    assert np.all(mid == 0) and np.all(np.isfinite(r))
    assert np.all(r[want == 0] == 0)
    # ulp distance of nonnegative doubles: difference of their bit patterns
    assert np.abs(r.view(np.int64) - want.view(np.int64)).max() <= 2
    # 0-d input keeps its shape
    mid0, r0 = _mid_radius(np.float64(1.0), np.float64(3.0), np.float64(0.0))
    assert np.shape(r0) == () and r0 == 1.0 and mid0 == 2.0


def test_pattern_gap_translation_invariance():
    # Exact invariance on dyadic values, where float addition is exact.
    rng = np.random.default_rng(49)
    lam = np.sort(rng.integers(-64, 64, size=6)) / 64.0
    p = CollisionPattern((2, 3), 6)
    base = pattern_gap_values(lam, p)
    for c in (-5.0, 0.25, 12.5):
        assert pattern_gap_values(np.sort(lam + c), p) == base
    # and to rounding accuracy for generic values
    lam = np.sort(rng.standard_normal(6))
    base = pattern_gap_values(lam, p)
    for c in (-3.7, 0.1):
        assert pattern_gap_values(np.sort(lam + c), p) == pytest.approx(base, abs=1e-12)


def test_pattern_gap_lipschitz():
    rng = np.random.default_rng(50)
    p = CollisionPattern((2, 2), 7)
    for _ in range(100):
        lam = np.sort(rng.standard_normal(7))
        eps = 10.0 ** rng.uniform(-6, -1)
        lam2 = np.sort(lam + rng.uniform(-eps, eps, size=7))
        a, b = pattern_gap_values(lam, p), pattern_gap_values(lam2, p)
        assert abs(a - b) <= 2 * np.abs(np.sort(lam2) - lam).max() + 1e-12


def test_pattern_gap_monotone_in_blocks():
    rng = np.random.default_rng(51)
    for _ in range(50):
        lam = np.sort(rng.standard_normal(8))
        base = pattern_gap_values(lam, CollisionPattern((2,), 8))
        more = pattern_gap_values(lam, CollisionPattern((2, 2), 8))
        even_more = pattern_gap_values(lam, CollisionPattern((2, 2, 2), 8))
        assert base <= more <= even_more


def test_pattern_gap_requires_sorted():
    with pytest.raises(ValueError):
        pattern_gap_values(np.array([1.0, 0.5]), CollisionPattern((2,), 2))


# -- spectral paths -----------------------------------------------------


def _tiny_ensemble(beta, shape):
    return EnsembleSpec(
        beta=beta, shape=shape, kernel=KernelSpec(HurstVector(["1/2"]))
    )


def test_spectral_path_constant_matrix():
    grid = TimeGrid.unit([4])
    vals = np.tile(np.diag([1.0, 2.0]), (4, 1, 1))

    class Dummy:
        pass

    path = Dummy()
    path.grid = grid
    path.values = vals
    sp = spectral_path(path, SpectralKind.REAL_EIGEN)
    assert np.allclose(sp.values, [1.0, 2.0])


@pytest.mark.parametrize("kind", [SpectralKind.REAL_EIGEN, SpectralKind.REAL_SINGULAR])
def test_spectral_path_nan_names_grid_coordinate(kind):
    grid = TimeGrid.unit([4, 5])
    vals = np.tile(np.diag([1.0, 2.0]), (4, 5, 1, 1))
    vals[2, 3, 1, 0] = np.nan

    class Dummy:
        pass

    path = Dummy()
    path.grid = grid
    path.values = vals
    with pytest.raises(NumericalError, match=r"grid coordinates \[\(2, 3\)\]"):
        spectral_path(path, kind)


def test_spectral_path_shift_equivariance():
    grid = TimeGrid.unit([8])
    spec = _tiny_ensemble(1, (2,))
    raw = sample_ensemble(spec, grid, seed=4)
    shifted = EnsembleSpec(
        beta=1,
        shape=(2,),
        kernel=spec.kernel,
        shift=np.diag([5.0, 5.0]),
    )
    from eigencollide.matfield import affine

    sp0 = spectral_path(raw, SpectralKind.REAL_EIGEN)
    sp5 = spectral_path(affine(raw, shifted), SpectralKind.REAL_EIGEN)
    assert np.abs(sp5.values - sp0.values - 5.0).max() < 1e-10


def test_spectral_path_singular_vs_gram():
    grid = TimeGrid.unit([6])
    spec = _tiny_ensemble(2, (2, 3))
    z = sample_ensemble(spec, grid, seed=12)
    sv = spectral_path(z, SpectralKind.COMPLEX_SINGULAR).values
    gram = z.values @ np.conj(z.values.swapaxes(-1, -2))
    lam = eigvals_selfadjoint(gram)
    assert np.abs(sv**2 - lam).max() < 1e-8


def test_spectral_path_sorted_invariant():
    grid = TimeGrid.unit([5, 5])
    spec = _tiny_ensemble(1, (3,))
    kern2 = KernelSpec(HurstVector(["1/2", "1/2"]))
    spec = EnsembleSpec(beta=1, shape=(3,), kernel=kern2)
    sp = spectral_path(sample_ensemble(spec, grid, seed=3), SpectralKind.REAL_EIGEN)
    assert np.all(np.diff(sp.values, axis=-1) >= 0)
