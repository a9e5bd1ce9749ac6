"""Estimator checks on synthetic sets and small Monte Carlo runs."""

import dataclasses

import numpy as np
import pytest

from eigencollide.estimate import (
    box_count_dimension,
    box_dim,
    classify_mc,
    collision_prob,
    verdict_experiment,
    wilson_interval,
)
from eigencollide.gfield import KernelSpec, TimeGrid, sample_fbm_1d
from eigencollide.matfield import EnsembleSpec, sample_ensemble
from eigencollide.spectra import pattern_gap_values
from eigencollide.theory import CollisionPattern, HurstVector, SpectralKind, Verdict


def ensemble(hs, shape=(2,), beta=1):
    return EnsembleSpec(beta=beta, shape=shape, kernel=KernelSpec(HurstVector(hs)))


PAT2 = CollisionPattern((2,), 2)
RE = SpectralKind.REAL_EIGEN


# -- wilson -------------------------------------------------------------


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12) and 0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo > 0.95
    # hand-evaluated closed form at k=5, n=50, z=1.96
    assert wilson_interval(5, 50) == pytest.approx((0.0437, 0.2133), abs=1e-3)


# -- collision probability g -------------------------------------------


def test_collision_prob_trivial_threshold():
    # eps larger than any spectral diameter: every path hits
    grid = TimeGrid.unit([16])
    est = collision_prob(ensemble(["1/2"]), PAT2, RE, grid, (1e9, 1.0, 0.001), 100, 3)
    assert est.fractions[0] == 1.0
    assert est.n_failed == 0


def test_collision_prob_nested_and_deterministic():
    grid = TimeGrid.unit([64])
    ladder = (0.5, 0.1, 0.02)
    a = collision_prob(ensemble(["1/2"]), PAT2, RE, grid, ladder, 200, 5, threads=1)
    b = collision_prob(ensemble(["1/2"]), PAT2, RE, grid, ladder, 200, 5, threads=3)
    assert a == b  # worker count cannot matter
    assert a.hits[0] >= a.hits[1] >= a.hits[2]  # nested events


def test_collision_prob_counts_nan_path_as_failed(monkeypatch):
    def planted(spec, grid, seed, path_index=0):
        path = sample_ensemble(spec, grid, seed, path_index)
        if path_index != 7:
            return path
        values = path.values.copy()
        values[3, 1, 0] = np.nan
        return dataclasses.replace(path, values=values)

    monkeypatch.setattr("eigencollide.estimate.sample_ensemble", planted)
    grid = TimeGrid.unit([8])
    est = collision_prob(ensemble(["1/2"]), PAT2, RE, grid, (1e9, 0.5), 100, 3)
    assert est.n_failed == 1
    assert est.hits[0] == 99
    assert est.fractions[0] == 1.0


def test_collision_prob_validates():
    grid = TimeGrid.unit([8])
    with pytest.raises(ValueError):
        collision_prob(ensemble(["1/2"]), PAT2, RE, grid, (0.1, 0.2), 100, 1)
    with pytest.raises(ValueError):
        collision_prob(ensemble(["1/2"]), PAT2, RE, grid, (0.2, 0.1), 50, 1)
    for ladder in [(0.4, -0.1), (0.4, 0.0), (0.4, float("nan")), (float("inf"), 0.4)]:
        with pytest.raises(ValueError, match="finite and > 0"):
            collision_prob(ensemble(["1/2"]), PAT2, RE, grid, ladder, 100, 1)


@pytest.mark.parametrize(
    "ladder, kappa",
    [
        ([0.5, 0.25, 0.0], 1.0),
        ([0.5, 0.25, 0.125, -0.0625], 1.0),
        ([0.5, float("nan")], 1.0),
        ([0.5, 0.25], -1.0),
        ([0.5, 0.25], float("inf")),
    ],
)
def test_box_count_rejects_nonpositive_ladder_or_kappa(ladder, kappa):
    grid = TimeGrid.unit([16])
    with pytest.raises(ValueError, match="finite and > 0"):
        box_count_dimension(np.ones(grid.shape), grid, ladder, holder=0.5, kappa=kappa)


MISMATCHED = {
    "complex-kind-on-beta-1": (PAT2, SpectralKind.COMPLEX_EIGEN, "needs beta = 2"),
    "singular-kind-on-square": (PAT2, SpectralKind.REAL_SINGULAR, "needs a rectangular"),
    "ambient-5-on-d-2": (CollisionPattern((2,), 5), RE, "pattern ambient 5"),
}
ESTIMATORS = {
    "collision_prob": lambda *a: collision_prob(*a, (0.2, 0.1), 100, 1),
    "box_dim": lambda *a: box_dim(*a, 0, [0.5, 0.25]),
    "verdict_experiment": lambda *a: verdict_experiment(*a, 100, 1, (0.2, 0.1)),
}


@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
@pytest.mark.parametrize("case", sorted(MISMATCHED))
def test_estimators_reject_kind_or_pattern_of_another_ensemble(case, estimator):
    # each of these would run and report the theory of another problem
    pattern, kind, named = MISMATCHED[case]
    with pytest.raises(ValueError, match=named):
        ESTIMATORS[estimator](ensemble(["1/2"]), pattern, kind, TimeGrid.unit([8]))


def test_min_gap_nonincreasing_under_refinement():
    # same draw, nested evaluation sets: refinement can only lower the min
    grid = TimeGrid.unit([257])
    from eigencollide.matfield import sample_ensemble
    from eigencollide.spectra import spectral_path

    spec = ensemble(["1/2"])
    sp = spectral_path(sample_ensemble(spec, grid, seed=9), RE)
    gaps = pattern_gap_values(sp.values, PAT2)
    for stride in (16, 4, 2, 1):
        coarse = gaps[::stride].min()
        assert coarse >= gaps.min()


# -- box counting -------------------------------------------------------


def test_box_count_full_grid_recovers_ambient_dimension():
    grid = TimeGrid.unit([256, 256])
    values = np.zeros(grid.shape)  # everything marked at every level
    est = box_count_dimension(values, grid, [2.0**-k for k in range(1, 7)], holder=0.5)
    assert est.slope == pytest.approx(2.0, abs=0.01)


def test_box_count_axis_line_has_dimension_one():
    grid = TimeGrid.unit([256, 256])
    values = np.ones(grid.shape)
    values[:, 128] = 0.0  # a vertical line
    est = box_count_dimension(values, grid, [2.0**-k for k in range(1, 7)], holder=0.5)
    assert est.slope == pytest.approx(1.0, abs=0.01)


def test_box_count_single_point_has_dimension_zero():
    grid = TimeGrid.unit([512])
    values = np.ones(grid.shape)
    values[300] = 0.0
    est = box_count_dimension(values, grid, [2.0**-k for k in range(1, 8)], holder=0.5)
    assert est.slope == pytest.approx(0.0, abs=0.01)
    assert not est.reliable  # single boxes never reach the 10-box bar


def test_box_count_empty_set_flagged_not_raised():
    grid = TimeGrid.unit([128])
    values = np.ones(grid.shape)  # threshold never reached at fine levels
    est = box_count_dimension(values, grid, [0.5, 0.25, 0.125, 0.0625, 0.03125], holder=0.5)
    assert not est.reliable
    assert est.counts[-1] == 0


def test_box_count_bm_zero_set():
    # single-path slopes fluctuate by ~0.15 around 1/2; the tight +-0.1
    # calibration averages several paths and lives in the acceptance suite
    grid = TimeGrid.unit([2**16])
    s = sample_fbm_1d(0.5, grid, seed=0, key=(0,))
    vals = np.abs(s.values - s.values[0])  # pin at the left endpoint
    est = box_count_dimension(vals, grid, [2.0**-k for k in range(2, 13)], holder=0.5)
    assert est.reliable
    assert est.slope == pytest.approx(0.5, abs=0.2)


def test_box_dim_rejects_strong_anisotropy():
    grid = TimeGrid.unit([8, 8])
    spec = ensemble(["1/4", "3/4"])
    with pytest.raises(ValueError):
        box_dim(spec, PAT2, RE, grid, 0, [0.5, 0.25])


def test_box_dim_complex_sheet_dust():
    # theory dim = 2 - (1/2)*3 = 1/2; the wide band reflects the
    # estimator's variance on so sparse a set.  Seed pinned on a path
    # that realizes the collision.
    spec = ensemble(["1/2", "1/2"], beta=2)
    grid = TimeGrid.unit([512, 512])
    est = box_dim(
        spec, PAT2, SpectralKind.COMPLEX_EIGEN, grid, seed=3018,
        delta_ladder=[2.0**-k for k in range(1, 8)],
        kappa=2.0 * np.sqrt(3.0),
    )
    assert est.slope is not None
    assert 0.2 <= est.slope <= 0.8


def test_box_counts_monotone_in_delta():
    grid = TimeGrid.unit([2**14])
    s = sample_fbm_1d(0.5, grid, seed=1, key=(0,))
    vals = np.abs(s.values - s.values[0])
    est = box_count_dimension(vals, grid, [2.0**-k for k in range(2, 11)], holder=0.5)
    # deltas are stored descending; smaller boxes can only be more numerous
    assert all(a <= b for a, b in zip(est.counts, est.counts[1:]))


def test_box_dim_zero_verdict_unreliable():
    # Dyson-like config: collision set empty, so counts die out
    grid = TimeGrid.unit([2048])
    est = box_dim(ensemble(["1/2"]), PAT2, RE, grid, seed=0,
                  delta_ladder=[2.0**-k for k in range(2, 10)], kappa=0.1)
    assert not est.reliable


# -- bundled experiment -------------------------------------------------


def test_verdict_experiment_dyson_consistent_with_zero():
    grid = TimeGrid.unit([1024])
    rep = verdict_experiment(
        ensemble(["1/2"]), PAT2, RE, grid,
        n_paths=400, seed=1, eps_ladder=(0.02, 0.005, 0.00125), threads=2,
    )
    assert rep.theory.verdict is Verdict.ZERO
    assert rep.mc_behavior == "consistent-with-zero"
    assert rep.agree


def test_verdict_experiment_sheet_consistent_with_positive():
    grid = TimeGrid.unit([64, 64])
    rep = verdict_experiment(
        ensemble(["1/2", "1/2"]), PAT2, RE, grid,
        n_paths=400, seed=2, eps_ladder=(0.8, 0.4, 0.22, 0.2), threads=2,
    )
    assert rep.theory.verdict is Verdict.POSITIVE
    assert rep.theory.dim == 1
    assert rep.mc_behavior == "consistent-with-positive"
    assert rep.agree


def test_classify_requires_plateau_above_floor():
    from eigencollide.estimate import CollisionProbEstimate

    est = CollisionProbEstimate(
        eps_ladder=(0.1, 0.05),
        hits=(8, 4),
        fractions=(0.04, 0.02),
        intervals=(wilson_interval(8, 200), wilson_interval(4, 200)),
        n_paths=200,
        n_failed=0,
        seed=0,
    )
    assert classify_mc(est) == "consistent-with-zero"
