"""Integrator unit checks: drifts, invariants, determinism, breakdown."""

import tracemalloc

import numpy as np
import pytest

from eigencollide import sde
from eigencollide.sde import (
    dyson_paths,
    fractional_drift_coeffs,
    fractional_wishart_drift_coeffs,
    nudge_apart,
    wishart_paths,
)


def step(xs, dt, noise, beta=1, n=None, depth=sde._MAX_HALVINGS):
    """One Euler step with halving of a single path through the runners'
    `_advance`: Dyson, or Wishart when `n` is given.  Returns (y, bad)."""
    x = np.asarray(xs, dtype=float)[:, None]
    dw = np.asarray(noise, dtype=float)[:, None]
    if n is None:
        model = (sde._dyson_drift, sde._dyson_diffusion(beta), False)
    else:
        model = (lambda y: sde._wishart_drift(y, n), sde._wishart_diffusion, True)
    with np.errstate(invalid="ignore"):
        y, bad = sde._advance(x, dt, dw, depth, *model)
    return y[:, 0], bool(bad[0])


# -- single steps -------------------------------------------------------


def test_dyson_step_drift_and_noise():
    out, bad = step([0.0, 1.0], 0.01, [0.0, 0.0], beta=2)
    # pure drift: -+ 0.01 / gap with sqrt(2/beta) absorbing nothing here
    assert not bad
    assert out == pytest.approx([-0.01, 1.01])
    out, bad = step([0.0, 1.0], 0.01, [0.02, -0.02], beta=2)
    assert not bad
    assert out == pytest.approx([0.02 * np.sqrt(2 / 2) - 0.01, 1.01 - 0.02])


def test_dyson_step_halving_preserves_order():
    # noise that would cross without refinement
    out, bad = step([0.0, 0.05], 1e-3, [0.2, -0.2])
    assert not bad
    assert out[0] < out[1]


def test_dyson_step_breakdown_reported_bad():
    # an enormous crossing increment over a tiny dt: the repulsion impulse
    # (~dt/gap) cannot outrun the noise at any refinement level
    out, bad = step([0.0, 1e-3], 1e-12, [1.0, -1.0])
    assert bad
    # with no halving left, a crossing step is bad at once
    out, bad = step([0.0, 0.05], 1e-3, [0.2, -0.2], depth=0)
    assert bad
    assert out[0] > out[1]


def test_wishart_step_mean_drift():
    out, bad = step([1.0, 2.0], 1e-3, [0.0, 0.0], n=3)
    drift1 = 3 + (1 + 2) / (1 - 2)
    drift2 = 3 + (2 + 1) / (2 - 1)
    assert not bad
    assert out == pytest.approx([1 + 1e-3 * drift1, 2 + 1e-3 * drift2])


def test_wishart_step_reflects_at_zero():
    out, bad = step([0.04, 5.0], 1e-4, [-40.0, 0.0], n=3)
    assert not bad
    assert np.all(out >= 0)


def test_wishart_paths_need_n_at_least_d():
    with pytest.raises(ValueError, match="n >= number of particles"):
        wishart_paths(np.array([0.5, 1.0, 2.0]), 1.0, 10, 2, 0, 2)


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


# -- paths pinned bit for bit -------------------------------------------
# Terminal positions recorded from the integrator before its state became
# particle-major and its noise was drawn in blocks; both changes must leave
# every path unchanged, so these compare with ==.

DYSON_PINS = {
    (1, 1): [
        [1.4138127733871826],
        [-0.11478768154290248],
        [2.2503205791742946],
    ],
    (1, 2): [
        [1.1678749104916035],
        [-0.5078280212108023],
        [-0.5026575812891299],
    ],
    (2, 1): [
        [-1.9088259140965056, 2.5159049754385863],
        [-2.5153293551975846, 1.4463540754194193],
        [-2.201335338175355, 0.47334576584554705],
    ],
    (2, 2): [
        [-1.1346056855811424, -0.571324007701075],
        [-1.7333956315971324, 1.2661140007723082],
        [-1.0124183965212104, 0.9508200474128005],
    ],
    (3, 1): [
        [0.5767871831501935, 1.4213828967107256, 3.721107581451465],
        [-2.283320775619243, 1.5834885935006782, 2.9804136924373017],
        [-1.747599332237206, 1.3699657361703006, 4.027996610035701],
    ],
    (3, 2): [
        [-2.3536970743561967, -0.2172191196417168, 1.1149584396072214],
        [-1.8640696336329063, -0.037461323647336224, 1.6559164374725368],
        [-1.7072505588032714, 0.4449880579846982, 1.7473579182404573],
    ],
}


@pytest.mark.parametrize("d, beta", sorted(DYSON_PINS))
def test_dyson_paths_pinned(d, beta):
    term, broken = dyson_paths(np.zeros(d), 1.0, 200, beta, 5 + d + 10 * beta, 3)
    assert not broken.any()
    assert term.tolist() == DYSON_PINS[d, beta]


def _count_halvings(monkeypatch):
    calls = []
    advance = sde._advance

    def spy(x, dt, dw, depth, *rest):
        calls.append(depth < sde._MAX_HALVINGS)
        return advance(x, dt, dw, depth, *rest)

    monkeypatch.setattr(sde, "_advance", spy)
    return calls


WISHART_PINS = {
    # (x0, n_steps, n, seed, n_paths): terminal positions
    ((0.5,), 200, 3, 41, 3): [
        [4.285661901747826],
        [4.721156903326133],
        [6.30240309634787],
    ],
    ((0.0, 0.0), 200, 3, 43, 3): [
        [0.6728861857613431, 2.9759130907017357],
        [0.13703631284574738, 1.7807067139153514],
        [1.849832750245889, 2.5054117203869817],
    ],
    ((0.0, 0.0), 20, 2, 47, 4): [
        [0.16078167795083154, 2.349701083756234],
        [2.17407919507469, 6.998408040818265],
        [1.2085389397659287, 4.0291901430807355],
        [1.0464840170182863, 8.859829448859202],
    ],
}


@pytest.mark.parametrize("args", sorted(WISHART_PINS))
def test_wishart_paths_pinned(monkeypatch, args):
    x0, n_steps, n, seed, n_paths = args
    halved = _count_halvings(monkeypatch)
    term, broken = wishart_paths(np.array(x0), 1.0, n_steps, n, seed, n_paths)
    assert not broken.any()
    assert term.tolist() == WISHART_PINS[args]
    if len(x0) > 1:
        assert any(halved)  # the pin covers the halving recursion


def test_steps_pinned_through_halving(monkeypatch):
    halved = _count_halvings(monkeypatch)
    out, bad = step([0.0, 0.05], 1e-3, [0.2, -0.2])
    assert not bad
    assert out.tolist() == [0.02323223304703363, 0.026767766952966367]
    assert any(halved)
    halved.clear()
    out, bad = step([0.04, 5.0], 1e-4, [-40.0, 0.0], n=3)
    assert not bad
    assert out.tolist() == [4.548386428624489, 5.000789102959081]
    assert any(halved)


def test_broken_paths_pinned(monkeypatch):
    # one halving level is too few near coincidence: broken paths keep
    # their last valid state
    monkeypatch.setattr(sde, "_MAX_HALVINGS", 1)
    term, broken = dyson_paths(np.array([0.0, 0.05]), 1.0, 10, 1, 4, 6)
    assert broken.tolist() == [True, False, True, False, True, False]
    assert term.tolist() == [
        [0.0002183046073667705, 1.1135896058764951],
        [-1.2306394569190984, 1.4744603985768698],
        [-0.34718738055363485, 0.6954962071421893],
        [-0.08759040083618917, 0.41133853816166466],
        [-0.1950597552755255, 0.6338762779966692],
        [0.0190646315786984, 2.3765545503421084],
    ]


@pytest.mark.parametrize(
    "block, chunk",
    [
        pytest.param(1, sde._CHUNK_PATHS, id="1"),
        pytest.param(7, sde._CHUNK_PATHS, id="7"),
        pytest.param(sde._BLOCK_STEPS, sde._CHUNK_PATHS, id=str(sde._BLOCK_STEPS)),
        pytest.param(sde._BLOCK_STEPS, 1, id="chunk1"),
        pytest.param(sde._BLOCK_STEPS, 2, id="chunk2"),
    ],
)
def test_noise_block_size_does_not_change_paths(monkeypatch, block, chunk):
    monkeypatch.setattr(sde, "_BLOCK_STEPS", block)
    monkeypatch.setattr(sde, "_CHUNK_PATHS", chunk)
    # 200 steps plus the warm-up ramp are no multiple of 7; two extra paths
    # share the chunk without changing the pinned ones, and chunks of 1 or
    # 2 paths split the five paths without changing them either
    term, _ = dyson_paths(np.zeros(3), 1.0, 200, 1, 18, 5)
    assert term[:3].tolist() == DYSON_PINS[3, 1]
    args = ((0.0, 0.0), 200, 3, 43, 3)
    term, _ = wishart_paths(np.array(args[0]), 1.0, *args[1:])
    assert term.tolist() == WISHART_PINS[args]


def test_path_memory_does_not_grow_with_steps():
    tracemalloc.start()
    try:
        dyson_paths(np.zeros(2), 1.0, 2000, 1, 3, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize(
    "t1, n_steps, n_paths, named",
    [
        (0.0, 10, 4, "t1 must be positive"),
        (-1.0, 10, 4, "t1 must be positive"),
        (float("nan"), 10, 4, "t1 must be positive"),
        (1.0, 0, 4, "n_steps must be >= 1"),
        (1.0, 10, 0, "n_paths must be >= 1"),
    ],
)
def test_path_runner_arguments_validated(t1, n_steps, n_paths, named):
    with pytest.raises(ValueError, match=named):
        dyson_paths(np.zeros(2), t1, n_steps, 1, 0, n_paths)
    with pytest.raises(ValueError, match=named):
        wishart_paths(np.zeros(2), t1, n_steps, 3, 0, n_paths)


# -- nudging ------------------------------------------------------------


def test_nudge_apart():
    out = nudge_apart(np.zeros(3))
    assert np.all(np.diff(out) > 0)
    assert np.abs(out - np.zeros(3)).max() <= 2e-8
    spread = np.array([0.0, 1.0])
    assert np.array_equal(nudge_apart(spread), spread)


@pytest.mark.parametrize("x0", [[1e9, 1e9], [1e20, 1e20], [1e8, 1e8, 1e8]])
def test_ties_the_nudge_cannot_separate_are_refused(x0):
    # the 1e-8 spread rounds away there; a zero gap used to make the
    # warm-up ramp take steps of length 0 forever
    with pytest.raises(ValueError, match="stay tied"):
        nudge_apart(x0)
    with pytest.raises(ValueError, match="stay tied"):
        dyson_paths(np.array(x0), 1.0, 10, 1, 0, 2)
    with pytest.raises(ValueError, match="stay tied"):
        wishart_paths(np.array(x0), 1.0, 10, 3, 0, 2)


# -- fractional drifts --------------------------------------------------


def test_fractional_drift_reduces_to_dyson():
    x = [0.3, 0.9, 2.0]
    got = fractional_drift_coeffs(0.5, 7.0, x)
    want = [
        sum(1.0 / (x[i] - x[j]) for j in range(3) if j != i) for i in range(3)
    ]
    assert got == pytest.approx(want)


def test_fractional_drift_example():
    got = fractional_drift_coeffs("3/4", 1.0, [0.0, 1.0])
    assert got == pytest.approx([-1.5, 1.5])


def test_fractional_drift_antisymmetry():
    rng = np.random.default_rng(41)
    for _ in range(20):
        xs = np.sort(rng.standard_normal(5))
        got = fractional_drift_coeffs("2/3", 2.5, xs)
        assert abs(got.sum()) < 1e-9


def test_fractional_drift_domain():
    x = [0.0, 1.0]
    with pytest.raises(ValueError):
        fractional_drift_coeffs(0.4, 1.0, x)
    with pytest.raises(ValueError):
        fractional_drift_coeffs(0.75, 0.0, x)
    with pytest.raises(ValueError):
        fractional_drift_coeffs(0.75, 1.0, [1.0, 1.0])
    with pytest.raises(ValueError):
        fractional_wishart_drift_coeffs(0.75, 1.0, [2.0, 1.0], 3)


def test_fractional_wishart_drift_reduces():
    x = [1.0, 2.0]
    got = fractional_wishart_drift_coeffs(0.5, 1.0, x, 3)
    assert got == pytest.approx([3 - 3.0, 3 + 3.0])
    got = fractional_wishart_drift_coeffs("3/4", 1.0, x, 3)
    # 2H n + 2H t^{2H-1} * interaction at t=1
    assert got == pytest.approx([1.5 * 3 + 1.5 * (-3.0), 1.5 * 3 + 1.5 * 3.0])


def test_fractional_wishart_drift_time_dependence():
    # Away from t = 1 the n term carries t^{2H-1} too: the drifts sum to
    # d/dt E tr W(t) = 2H d n t^{2H-1}, the interaction sum cancelling.
    got = fractional_wishart_drift_coeffs("3/4", 0.25, [1.0, 2.0], 3)
    factor = 1.5 * 0.25**0.5
    assert got == pytest.approx([factor * (3 - 3.0), factor * (3 + 3.0)])
    assert got.sum() == pytest.approx(1.5 * 2 * 3 * 0.25**0.5)
    rng = np.random.default_rng(58)
    for _ in range(20):
        xs = np.sort(rng.uniform(0.1, 4.0, size=4))
        t = rng.uniform(0.1, 3.0)
        got = fractional_wishart_drift_coeffs("2/3", t, xs, 5)
        assert got.sum() == pytest.approx((4 / 3) * 4 * 5 * t ** (1 / 3), rel=1e-9)
