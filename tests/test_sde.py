"""Integrator unit checks: drifts, invariants, determinism, breakdown."""

import numpy as np
import pytest

from eigencollide.sde import (
    CollisionBreakdownError,
    ParticleState,
    dyson_paths,
    dyson_step,
    fractional_drift_coeffs,
    fractional_wishart_drift_coeffs,
    nudge_apart,
    wishart_eig_step,
    wishart_paths,
)


def state(xs, beta=1, n=None, t=0.0):
    return ParticleState(time=t, positions=np.asarray(xs, dtype=float), beta=beta, n=n)


# -- single steps -------------------------------------------------------


def test_dyson_step_drift_and_noise():
    s = state([0.0, 1.0], beta=2)
    out = dyson_step(s, 0.01, np.array([0.0, 0.0]))
    # pure drift: -+ 0.01 / gap with sqrt(2/beta) absorbing nothing here
    assert out.positions == pytest.approx([-0.01, 1.01])
    assert out.time == pytest.approx(0.01)
    out = dyson_step(s, 0.01, np.array([0.02, -0.02]))
    assert out.positions == pytest.approx([0.02 * np.sqrt(2 / 2) - 0.01, 1.01 - 0.02])


def test_dyson_step_requires_order():
    with pytest.raises(ValueError):
        dyson_step(state([1.0, 1.0]), 0.01, np.zeros(2))


def test_dyson_step_halving_preserves_order():
    # noise that would cross without refinement
    s = state([0.0, 0.05])
    out = dyson_step(s, 1e-3, np.array([0.2, -0.2]))
    assert out.positions[0] < out.positions[1]


def test_dyson_step_breakdown_carries_state():
    # an enormous crossing increment over a tiny dt: the repulsion impulse
    # (~dt/gap) cannot outrun the noise at any refinement level
    s = state([0.0, 1e-3])
    with pytest.raises(CollisionBreakdownError) as err:
        dyson_step(s, 1e-12, np.array([1.0, -1.0]))
    assert err.value.state is s


def test_wishart_step_mean_drift():
    s = state([1.0, 2.0], n=3)
    out = wishart_eig_step(s, 1e-3, np.zeros(2))
    drift1 = 3 + (1 + 2) / (1 - 2)
    drift2 = 3 + (2 + 1) / (2 - 1)
    assert out.positions == pytest.approx([1 + 1e-3 * drift1, 2 + 1e-3 * drift2])


def test_wishart_step_reflects_at_zero():
    s = state([0.04, 5.0], n=3)
    out = wishart_eig_step(s, 1e-4, np.array([-40.0, 0.0]))
    assert np.all(out.positions >= 0)


def test_wishart_step_needs_n():
    with pytest.raises(ValueError):
        wishart_eig_step(state([0.5, 1.0]), 0.01, np.zeros(2))
    with pytest.raises(ValueError):
        wishart_eig_step(state([0.5, 1.0, 2.0], n=2), 0.01, np.zeros(3))


# -- path ensembles -----------------------------------------------------


def test_dyson_d1_is_brownian():
    m = 4000
    term, broken = dyson_paths(np.zeros(1), 1.0, 200, beta=1, seed=11, n_paths=m)
    assert broken.sum() == 0
    var = term.var()
    se = 2.0 * np.sqrt(2.0 / m)
    assert abs(var - 2.0) <= 3 * se  # Var = (2/beta) t


def test_dyson_sum_rule():
    # interaction cancels pairwise: sum of positions is Brownian with
    # variance (2/beta) d t
    m = 4000
    d, beta = 3, 2
    term, broken = dyson_paths(np.array([-0.1, 0.0, 0.1]), 1.0, 400, beta, 13, m)
    total = term[~broken].sum(axis=1)
    want = (2.0 / beta) * d * 1.0
    se = want * np.sqrt(2.0 / len(total))
    assert abs(total.var() - want) <= 3 * se


def test_dyson_symmetric_start_symmetric_mean():
    m = 4000
    term, broken = dyson_paths(np.array([-1.0, 1.0]), 1.0, 400, 2, 17, m)
    mean = term[~broken].mean(axis=0)
    assert abs(mean[0] + mean[1]) < 4 * np.abs(term).std() / np.sqrt(m)


def test_wishart_d1_mean():
    m = 4000
    term, broken = wishart_paths(np.array([0.5]), 1.0, 400, n=3, seed=19, n_paths=m)
    assert broken.sum() == 0
    se = term.std() / np.sqrt(m)
    assert abs(term.mean() - 3.5) <= 3 * se


def test_wishart_sum_drift():
    # E[sum lam(t)] = sum lam(0) + n d t
    m = 4000
    term, broken = wishart_paths(np.array([0.2, 0.8]), 1.0, 400, n=3, seed=23, n_paths=m)
    total = term[~broken].sum(axis=1)
    se = total.std() / np.sqrt(len(total))
    assert abs(total.mean() - (1.0 + 3 * 2 * 1.0)) <= 3 * se


def test_wishart_positions_nonnegative():
    term, broken = wishart_paths(np.zeros(2), 0.5, 300, n=3, seed=29, n_paths=500)
    assert np.all(term >= 0)


def test_paths_deterministic():
    a, _ = dyson_paths(np.zeros(2), 0.5, 300, 1, 31, 64)
    b, _ = dyson_paths(np.zeros(2), 0.5, 300, 1, 31, 64)
    c, _ = dyson_paths(np.zeros(2), 0.5, 300, 1, 32, 64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_beta2_no_breakdowns_from_spread_start():
    term, broken = dyson_paths(np.array([-1.0, 1.0]), 1.0, 1000, 2, 37, 2000)
    assert broken.sum() == 0


# -- nudging ------------------------------------------------------------


def test_nudge_apart():
    out = nudge_apart(np.zeros(3))
    assert np.all(np.diff(out) > 0)
    assert np.abs(out - np.zeros(3)).max() <= 2e-8
    spread = np.array([0.0, 1.0])
    assert np.array_equal(nudge_apart(spread), spread)


# -- fractional drifts --------------------------------------------------


def test_fractional_drift_reduces_to_dyson():
    s = state([0.3, 0.9, 2.0])
    got = fractional_drift_coeffs(0.5, 7.0, s)
    x = s.positions
    want = [
        sum(1.0 / (x[i] - x[j]) for j in range(3) if j != i) for i in range(3)
    ]
    assert got == pytest.approx(want)


def test_fractional_drift_example():
    s = state([0.0, 1.0])
    got = fractional_drift_coeffs("3/4", 1.0, s)
    assert got == pytest.approx([-1.5, 1.5])


def test_fractional_drift_antisymmetry():
    rng = np.random.default_rng(41)
    for _ in range(20):
        xs = np.sort(rng.standard_normal(5))
        s = state(xs)
        got = fractional_drift_coeffs("2/3", 2.5, s)
        assert abs(got.sum()) < 1e-9


def test_fractional_drift_domain():
    s = state([0.0, 1.0])
    with pytest.raises(ValueError):
        fractional_drift_coeffs(0.4, 1.0, s)
    with pytest.raises(ValueError):
        fractional_drift_coeffs(0.75, 0.0, s)


def test_fractional_wishart_drift_reduces():
    s = state([1.0, 2.0], n=3)
    got = fractional_wishart_drift_coeffs(0.5, 1.0, s)
    assert got == pytest.approx([3 - 3.0, 3 + 3.0])
    got = fractional_wishart_drift_coeffs("3/4", 1.0, s)
    # 2H n + 2H t^{2H-1} * interaction at t=1
    assert got == pytest.approx([1.5 * 3 + 1.5 * (-3.0), 1.5 * 3 + 1.5 * 3.0])


def test_fractional_wishart_drift_time_dependence():
    # Away from t = 1 the n term carries t^{2H-1} too: the drifts sum to
    # d/dt E tr W(t) = 2H d n t^{2H-1}, the interaction sum cancelling.
    s = state([1.0, 2.0], n=3)
    got = fractional_wishart_drift_coeffs("3/4", 0.25, s)
    factor = 1.5 * 0.25**0.5
    assert got == pytest.approx([factor * (3 - 3.0), factor * (3 + 3.0)])
    assert got.sum() == pytest.approx(1.5 * 2 * 3 * 0.25**0.5)
    rng = np.random.default_rng(58)
    for _ in range(20):
        xs = np.sort(rng.uniform(0.1, 4.0, size=4))
        t = rng.uniform(0.1, 3.0)
        got = fractional_wishart_drift_coeffs("2/3", t, state(xs, n=5))
        assert got.sum() == pytest.approx((4 / 3) * 4 * 5 * t ** (1 / 3), rel=1e-9)
