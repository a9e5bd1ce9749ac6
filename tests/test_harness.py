"""Config round trips, run records, determinism, CLI surfaces."""

import argparse
import dataclasses
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from eigencollide.cli import _build_parser, cli
from eigencollide.estimate import box_count_dimension, box_dim, collision_prob
from eigencollide.gfield import _sheet_rows
from eigencollide.harness import (
    ConfigError,
    check_config,
    config_hash,
    parse_config,
    render_config,
    run,
    simulate,
)
from eigencollide.matfield import sample_ensemble
from eigencollide.spectra import pattern_gap_values, spectral_path
from eigencollide.theory import Verdict, dichotomy

MINIMAL = """
kind: real-eigen
shape: [2]
pattern: [2]
hurst: ["1/2", "1/2"]
resolution: [32, 32]
paths: 150
seed: 11
eps_ladder: [0.8, 0.4, 0.2]
"""


# MINIMAL with another kind, shape, hurst, resolution or interval
def _sized(kind="real-eigen", shape="[2]", hurst='["1/2", "1/2"]', resolution="[32, 32]",
           interval=None):
    text = (
        MINIMAL.replace("kind: real-eigen", "kind: " + kind)
        .replace("shape: [2]", "shape: " + shape)
        .replace('hurst: ["1/2", "1/2"]', "hurst: " + hurst)
        .replace("resolution: [32, 32]", "resolution: " + resolution)
    )
    return text if interval is None else text + "interval: %s\n" % interval


def test_parse_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.interval == ((1.0, 2.0), (1.0, 2.0))  # documented default box
    assert cfg.kappa == 1.0
    assert cfg.threads == 1
    assert not cfg.boxdim


def test_round_trip_stability():
    cfg = parse_config(MINIMAL)
    assert parse_config(render_config(cfg)) == cfg
    # and for a config exercising every optional field
    full = dataclasses.replace(
        cfg,
        delta_ladder=(0.5, 0.25, 0.125),
        boxdim=True,
        kappa=2.5,
        shift=((0.0, 1.0), (1.0, 0.0)),
        transform=((2.0, 0.0), (0.0, 1.0)),
        out_dir="out",
    )
    assert parse_config(render_config(full)) == full


def test_strict_mode_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key: 'typo'"):
        parse_config(MINIMAL + "\ntypo: 3\n")


def test_pattern_shape_mismatch_named():
    bad = MINIMAL.replace("shape: [2]", "shape: [3]").replace(
        "pattern: [2]", "pattern: [2, 2]"
    )
    with pytest.raises(ConfigError, match="does not fit"):
        parse_config(bad)


def test_hurst_order_rejected():
    bad = MINIMAL.replace('["1/2", "1/2"]', '["3/5", "2/5"]')
    with pytest.raises(ConfigError, match="non-decreasing"):
        parse_config(bad)


def test_kind_shape_consistency():
    bad = MINIMAL.replace("kind: real-eigen", "kind: real-singular")
    with pytest.raises(ConfigError, match="real-singular needs a rectangular ensemble"):
        parse_config(bad)


def test_multiple_violations_reported_together():
    bad = (
        MINIMAL.replace("paths: 150", "paths: 10")
        .replace("eps_ladder: [0.8, 0.4, 0.2]", "eps_ladder: [0.1, 0.4]")
    )
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    msg = str(err.value)
    assert "paths" in msg and "eps_ladder" in msg
    # the kind/shape rule is asked of the ensemble even when another rule fails
    bad = MINIMAL.replace("paths: 150", "paths: 10").replace(
        "kind: real-eigen", "kind: real-singular"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    msg = str(err.value)
    assert "paths must be >= 100" in msg
    assert "real-singular needs a rectangular ensemble" in msg


FLIP = """
kind: real-eigen
shape: [3]
pattern: [3]
hurst: [0.3333333333333333, 0.5]
resolution: [8, 8]
"""


def test_float_exponents_that_would_flip_the_verdict_are_refused():
    # Q = c is the Zero side, so a rounded exponent can flip the verdict:
    # 0.3333333333333333 would read Positive where "1/3" reads Zero
    with pytest.raises(ConfigError, match="hurst must be a list of rationals"):
        parse_config(FLIP)
    cfg = parse_config(FLIP.replace("0.3333333333333333, 0.5", '"1/3", "1/2"'))
    verdict = dichotomy(cfg.hurst_vector(), cfg.spectral_kind, cfg.collision_pattern())
    assert (verdict.Q, verdict.codim, verdict.verdict) == (5, 5, Verdict.ZERO)


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("paths: 150", 'paths: "many"', "paths must be an integer"),
        ("paths: 150", "paths: 150.0", "paths must be an integer"),
        ("seed: 11", "seed: true", "seed must be an integer"),
        ("eps_ladder: [0.8, 0.4, 0.2]", "eps_ladder: 0.5", "eps_ladder must be a list"),
        ("eps_ladder: [0.8, 0.4, 0.2]", 'eps_ladder: [0.8, "x"]', "eps_ladder must be a list"),
        ('hurst: ["1/2", "1/2"]', "hurst: 0.5", "hurst must be a list"),
        ('hurst: ["1/2", "1/2"]', "hurst: [0.5, 0.5]", "hurst must be a list of rationals"),
        ("resolution: [32, 32]", "resolution: 32", "resolution must be a list"),
        ("shape: [2]", "shape: [[2]]", "shape must be a list"),
        ("seed: 11", "seed: 11\ninterval: [1, 2]", "interval must be a list"),
        ("seed: 11", "seed: 11\ntransform: 5", "transform must be a list"),
        ("seed: 11", "seed: 11\nboxdim: 1", "boxdim must be true or false"),
    ],
)
def test_wrongly_typed_values_are_config_errors(old, new, named):
    with pytest.raises(ConfigError, match=named):
        parse_config(MINIMAL.replace(old, new))


def test_paths_over_one_key_word_are_refused():
    # a path index is one stream key component, an integer below 2**32
    assert parse_config(MINIMAL.replace("paths: 150", "paths: 4294967296")).paths == 2**32
    with pytest.raises(ConfigError, match=r"paths must be <= 2\*\*32 \(4294967296\)"):
        parse_config(MINIMAL.replace("paths: 150", "paths: 4294967297"))


def test_config_hash_ignores_execution_details():
    cfg = parse_config(MINIMAL)
    assert config_hash(cfg) == config_hash(dataclasses.replace(cfg, threads=8))
    assert config_hash(cfg) == config_hash(dataclasses.replace(cfg, out_dir="x"))
    assert config_hash(cfg) != config_hash(dataclasses.replace(cfg, seed=12))


def test_run_record_deterministic(tmp_path):
    cfg = parse_config(MINIMAL)
    run(cfg, out_dir=str(tmp_path / "a"))
    run(cfg, out_dir=str(tmp_path / "b"))
    a = (tmp_path / "a" / "record.json").read_bytes()
    b = (tmp_path / "b" / "record.json").read_bytes()
    assert a == b
    run(dataclasses.replace(cfg, threads=3), out_dir=str(tmp_path / "c"))
    assert (tmp_path / "c" / "record.json").read_bytes() == a


def test_run_outputs_and_files(tmp_path):
    cfg = parse_config(MINIMAL)
    rec = run(cfg, out_dir=str(tmp_path))
    payload = json.loads(rec.scientific_json())
    assert payload["outputs"]["predict"]["verdict"] == "positive"
    assert payload["outputs"]["predict"]["dim"] == "1/1"
    assert "simulate" in payload["outputs"]
    assert "estimate" in payload["outputs"]
    assert (tmp_path / "hits.csv").read_text().startswith("eps,hits,fraction")
    assert (tmp_path / "config.yaml").exists()
    assert (tmp_path / "meta.json").exists()


def test_run_zero_verdict_boxdim_degrades_gracefully(tmp_path):
    text = """
kind: real-eigen
shape: [2]
pattern: [2]
hurst: ["1/2"]
resolution: [512]
paths: 120
seed: 3
eps_ladder: [0.1, 0.05]
delta_ladder: [0.25, 0.125, 0.0625, 0.03125]
boxdim: true
kappa: 0.05
"""
    cfg = parse_config(text)
    rec = run(cfg, out_dir=str(tmp_path))
    payload = json.loads(rec.scientific_json())
    assert payload["outputs"]["predict"]["verdict"] == "zero"
    assert any("unreliable" in w for w in payload["warnings"])
    assert (tmp_path / "boxes.csv").exists()


BOXED = """
kind: real-eigen
shape: [2]
pattern: [2]
hurst: ["1/2"]
resolution: [64]
paths: 100
seed: 4
eps_ladder: [0.4, 0.2]
delta_ladder: [0.25, 0.125, 0.0625]
boxdim: true
"""


def _stage_warnings(text, tmp_path):
    rec = run(parse_config(text), out_dir=str(tmp_path))
    assert "estimate" not in rec.outputs
    assert not (tmp_path / "hits.csv").exists()
    return list(rec.warnings)


def _nan_at_point_5(values):
    values = values.copy()
    values[5] = np.nan
    return values


def _assert_path0_failure(text, tmp_path):
    # The box count is path 0's, so a path 0 the eigensolver rejects fails
    # the estimate stage's box count with the simulate stage's message.
    warnings = _stage_warnings(text, tmp_path)
    assert len(warnings) == 2
    message = warnings[0].removeprefix("simulate failed: ")
    assert "non-finite entries" in message and "(5,)" in message
    assert warnings[1] == "estimate failed: " + message
    # the exception type and traceback go to meta.json, never to record.json
    failures = json.loads((tmp_path / "meta.json").read_text())["failures"]
    assert {stage: f["type"] for stage, f in failures.items()} == {
        "simulate": "NumericalError",
        "estimate": "NumericalError",
    }
    for f in failures.values():
        assert f["traceback"].startswith("Traceback (most recent call last):")
        assert f["traceback"].rstrip().endswith("NumericalError: " + message)
    record = (tmp_path / "record.json").read_text()
    assert "Traceback" not in record and "NumericalError" not in record


def _planted_sheet_rows(kernel, grid, seed, key, rows, plan=None):
    # the draw of entry (0, 1) on path 0, NaN at grid point 5
    values = next(_sheet_rows(kernel, grid, seed, key, grid.shape[0], plan=plan))
    if key[:2] == (0, 1):
        values = _nan_at_point_5(values)
    for row in range(0, len(values), rows):
        yield values[row : row + rows]


def test_run_boxdim_path0_numerical_failure_fails_estimate(tmp_path, monkeypatch):
    # plain 2x2 paths take the plane route, which draws entries but no
    # matrix path, so the NaN is planted in the draw of entry (0, 1)
    monkeypatch.setattr("eigencollide.matfield._sheet_rows", _planted_sheet_rows)
    _assert_path0_failure(BOXED, tmp_path)


def test_run_boxdim_path0_numerical_failure_fails_estimate_3x3(tmp_path, monkeypatch):
    monkeypatch.setattr("eigencollide.matfield._sheet_rows", _planted_sheet_rows)
    _assert_path0_failure(BOXED.replace("shape: [2]", "shape: [3]"), tmp_path)


def test_run_boxdim_strong_anisotropy_fails_estimate(tmp_path):
    text = BOXED.replace('hurst: ["1/2"]', 'hurst: ["1/4", "3/4"]').replace(
        "resolution: [64]", "resolution: [8, 8]"
    )
    assert _stage_warnings(text, tmp_path) == [
        "estimate failed: anisotropy H_N/H_1 > 2 is unsupported by isotropic box counting"
    ]


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# integer outputs of `run` on each shipped config, at its seed and grid with
# 100 paths on one thread: Monte Carlo hits per eps, failed paths, and box
# counts per delta when the config asks for them
GOLDEN = {
    "anisotropic_affine": ((91, 90, 87, 87), 0, None),
    "brownian_sheet": ((55, 50, 47, 47), 0, (4, 7, 10, 19, 17, 19, 22)),
    "dyson_bm": ((5, 2, 0), 0, None),
    "rect_sheet_singular": ((94, 89, 84, 83), 0, None),
}


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.yaml")))
def test_shipped_configs_keep_their_integer_outputs(name):
    cfg = parse_config((CONFIGS / (name + ".yaml")).read_text())
    record = run(dataclasses.replace(cfg, paths=100, threads=1))
    assert not record.warnings
    est = record.outputs["estimate"]
    counts = est["boxdim"] and tuple(est["boxdim"]["counts"])
    assert (tuple(est["mc"]["hits"]), est["mc"]["n_failed"], counts) == GOLDEN[name]


# config overrides of MINIMAL (2x2 real on a 32x32 sheet)
SIMULATE_CASES = {
    "2x2-beta1-1d": dict(hurst=("1/2",), resolution=(512,), interval=((1.0, 2.0),)),
    "2x2-beta2-1d": dict(kind="complex-eigen", hurst=("3/10",), resolution=(512,),
                         interval=((1.0, 2.0),)),
    "2x2-beta1-2d": dict(),
    "2x2-beta2-2d": dict(kind="complex-eigen"),
    "3x3-transform": dict(shape=(3,), transform=((2.0, 0.5, 0.0), (0.0, 1.0, 0.0),
                                                 (0.25, 0.0, 1.5))),
    "2x3-singular": dict(kind="real-singular", shape=(2, 3)),
}


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
def test_simulate_equals_the_reference_pipeline_bitwise(case):
    cfg = dataclasses.replace(parse_config(MINIMAL), **SIMULATE_CASES[case], boxdim=True,
                              delta_ladder=(0.5, 0.25, 0.125, 0.0625), kappa=4.0)
    check_config(cfg)
    path = sample_ensemble(cfg.ensemble(), cfg.time_grid(), cfg.seed, 0)
    values = spectral_path(path, cfg.spectral_kind).values
    want = pattern_gap_values(values, cfg.collision_pattern())
    summary = simulate(cfg)
    holder = max(cfg.hurst_vector().as_floats())
    ref = box_count_dimension(want, cfg.time_grid(), cfg.delta_ladder, holder, cfg.kappa)
    boxes = box_dim(cfg.ensemble(), cfg.collision_pattern(), cfg.spectral_kind, cfg.time_grid(),
                    cfg.seed, cfg.delta_ladder, cfg.kappa)
    assert boxes.counts == ref.counts and any(ref.counts)
    assert boxes.thresholds == ref.thresholds
    assert simulate(dataclasses.replace(cfg, boxdim=False)) == summary
    assert summary["path_index"] == 0
    for key, value in (
        ("spectrum_min", values.min()),
        ("spectrum_max", values.max()),
        ("min_pattern_gap", want.min()),
    ):
        assert _bits(summary[key]) == _bits(value), key


# -- CLI ----------------------------------------------------------------


def test_cli_no_arguments_usage(capsys):
    rc = cli([])
    assert rc == 2
    assert "usage" in capsys.readouterr().err


def test_cli_predict_examples(capsys):
    rc = cli(["predict", "--beta", "1", "--d", "2", "--pattern", "2", "--hurst", "1/2,1/2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Q=4" in out and "c=2" in out and "positive" in out and "dim=1" in out

    rc = cli(["predict", "--beta", "2", "--d", "3", "--pattern", "3", "--hurst", "1/2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Q=2" in out and "c=8" in out and "zero" in out


def test_cli_predict_json(capsys):
    rc = cli(
        ["predict", "--beta", "1", "--shape", "2,3", "--pattern", "2",
         "--hurst", "1/2,1/2", "--json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "Q": "4/1", "c": "2/1", "verdict": "positive", "ell0": 2, "dim": "1/1"
    }


def test_cli_report_and_reprint(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(MINIMAL)
    out_dir = tmp_path / "run"
    rc = cli(["report", "--config", str(cfg_file), "--out", str(out_dir)])
    assert rc == 0
    assert "written to %s" % out_dir in capsys.readouterr().out
    rc = cli(["report", "--from", str(out_dir), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outputs"]["predict"]["Q"] == "4/1"


def test_cli_report_names_the_config_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "from_config"
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(
        MINIMAL.replace("resolution: [32, 32]", "resolution: [8, 8]")
        + "out_dir: %s\n" % out_dir
    )
    assert cli(["report", "--config", str(cfg_file)]) == 0
    assert "written to %s" % out_dir in capsys.readouterr().out
    assert (out_dir / "record.json").exists()


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.yaml")))
def test_cli_validate_field_refuses_grids_over_the_scan_cap(name, capsys):
    # the cap limits the command, not the config, which run accepts
    path = CONFIGS / (name + ".yaml")
    n_points = parse_config(path.read_text()).time_grid().n_points
    rc = cli(["validate-field", "--config", str(path)])
    err = capsys.readouterr().err
    if n_points <= 4096:
        assert rc == 0 and not err
    else:
        assert rc == 2
        assert err == (
            "config error: assumption scan is quadratic in time; %d points exceed its "
            "4096-point cap, use a smaller grid\n" % n_points
        )


def test_cli_validate_field(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(MINIMAL.replace("resolution: [32, 32]", "resolution: [6, 6]"))
    rc = cli(["validate-field", "--config", str(cfg_file), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True


def test_cli_simulate_dump_field(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(MINIMAL.replace("resolution: [32, 32]", "resolution: [6, 6]"))
    dump = tmp_path / "field.csv"
    rc = cli(["simulate", "--config", str(cfg_file), "--json", "--dump-field", str(dump)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["field_csv"] == str(dump)
    lines = dump.read_text().splitlines()
    assert lines[0] == "t1,t2,value"
    assert len(lines) == 37
    assert lines[1].startswith("1,1,")  # the default box starts at (1, 1)


@pytest.mark.parametrize(
    "text",
    [
        # a fractional 1-d grid of 8192 points, more than a dense factor takes
        _sized(hurst='["3/10"]', resolution="[8192]"),
        # two blocks of 256 rows
        _sized(resolution="[300, 64]"),
    ],
    ids=["1d-8192", "sheet-two-blocks"],
)
def test_cli_dump_field_writes_path_0_entry_0(tmp_path, capsys, text):
    cfg = parse_config(text)
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(text)
    dump = tmp_path / "field.csv"
    assert cli(["simulate", "--config", str(cfg_file), "--dump-field", str(dump)]) == 0
    grid = cfg.time_grid()
    # the raw draw of entry (0, 0) of path 0, before the sqrt(2) of the diagonal
    want = sample_ensemble(cfg.ensemble(), grid, cfg.seed, 0).values[..., 0, 0] / np.sqrt(2.0)
    lines = dump.read_text().splitlines()
    assert len(lines) == grid.n_points + 1
    got = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])
    assert np.allclose(got, want.ravel(), rtol=1e-11, atol=1e-12)
    coords = np.array([[float(c) for c in line.split(",")[:-1]] for line in lines[1:]])
    assert np.allclose(coords, grid.points(), rtol=1e-11, atol=0)


def test_cli_simulate(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(MINIMAL)
    rc = cli(["simulate", "--config", str(cfg_file), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["grid_points"] == 1024
    assert payload["min_pattern_gap"] >= 0
    # the simulate command prints the simulate stage of `report`
    summary = run(parse_config(MINIMAL)).outputs["simulate"]
    assert payload == {**summary, "grid_points": 1024}


def test_cli_collide_prob_overrides(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(MINIMAL)
    rc = cli(["collide-prob", "--config", str(cfg_file), "--paths", "120",
              "--grid", "16,16", "--eps-ladder", "1.0,0.5", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_paths"] == 120
    assert payload["eps_ladder"] == [1.0, 0.5]


def test_cli_collide_prob_prints_points_solved(tmp_path, capsys):
    # a 3x3 ensemble takes the pruned general route; the count stays out
    # of --json
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(_sized(shape="[3]", resolution="[16, 16]"))
    assert cli(["collide-prob", "--config", str(cfg_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    cfg = parse_config(cfg_file.read_text())
    est = collision_prob(cfg.ensemble(), cfg.collision_pattern(), cfg.spectral_kind,
                         cfg.time_grid(), cfg.eps_ladder, cfg.paths, cfg.seed)
    assert 0 < est.points_solved < est.grid_points == 150 * 256
    assert lines[-1] == "points solved: %d of %d grid points" % (est.points_solved, 150 * 256)
    assert cli(["collide-prob", "--config", str(cfg_file), "--json"]) == 0
    assert "points_solved" not in capsys.readouterr().out


def test_cli_collide_prob_names_failed_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("eigencollide.matfield._sheet_rows", _planted_sheet_rows)
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(BOXED)
    assert cli(["collide-prob", "--config", str(cfg_file)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "failed paths: 1 of 100"


def test_cli_boxdim_without_delta_ladder_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(MINIMAL)
    assert cli(["boxdim", "--config", str(cfg_file)]) == 2
    assert "boxdim needs delta_ladder" in capsys.readouterr().err


# 2x2 real Brownian sheet whose path 0 box count has a slope but too few
# well-filled levels, so the estimate is flagged unreliable
SLOPED = MINIMAL.replace("resolution: [32, 32]", "resolution: [64, 64]") + (
    "delta_ladder: [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625]\nkappa: 5\nboxdim: true\n"
)


def test_cli_boxdim_prints_the_slope(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(SLOPED)
    assert cli(["boxdim", "--config", str(cfg_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("slope -0.5498 +- ") and "levels  [unreliable: " in out


def test_cli_report_prints_slope_and_warnings(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(SLOPED)
    assert cli(["report", "--config", str(cfg_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "boxdim: slope -0.5498" in lines
    assert lines[-1].startswith("warning: boxdim unreliable: ")


def test_report_box_stage_equals_the_boxdim_command(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(SLOPED)
    assert cli(["report", "--config", str(cfg_file), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert cli(["boxdim", "--config", str(cfg_file), "--json"]) == 0
    est = json.loads(capsys.readouterr().out)
    rows = (tmp_path / "run" / "boxes.csv").read_text().splitlines()[1:]
    assert [int(row.rsplit(",", 1)[1]) for row in rows] == est["counts"] and any(est["counts"])
    record = json.loads((tmp_path / "run" / "record.json").read_text())
    assert record["outputs"]["estimate"]["boxdim"] == est


def test_cli_report_from_without_record_exits_1(tmp_path, capsys):
    assert cli(["report", "--from", str(tmp_path)]) == 1
    assert "no record.json under %s" % tmp_path in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--threads", "0"], "threads must be >= 1"),
        (["--paths", "50"], "paths must be >= 100"),
        (["--grid", "16"], "resolution needs one entry"),
        (["--eps-ladder", "0.1,0.4"], "eps_ladder must be strictly decreasing"),
        (["--seed", "-1"], "seed must be a 64-bit"),
        (["--grid", "1,16"], "resolution entries must be >= 2"),
        (["--eps-ladder", "0.4,-0.1"], "eps_ladder entries must be finite and > 0"),
        (["--eps-ladder", "0.4,nan"], "eps_ladder entries must be finite and > 0"),
        (["--delta-ladder", "0.5,0.25,0.0"], "delta_ladder entries must be finite and > 0"),
        (["--delta-ladder", "0.5,0.25,0.125,-0.0625"], "delta_ladder entries must be finite"),
        (["--delta-ladder", "0.5,-0.25", "--json"], "delta_ladder entries must be finite"),
        (["--delta-ladder", "inf,0.5"], "delta_ladder entries must be finite and > 0"),
        (["--delta-ladder", "0.5,0.25,0.25"], "delta_ladder entries must not repeat"),
        (["--kappa", "-1"], "kappa must be finite and > 0"),
        (["--kappa", "0"], "kappa must be finite and > 0"),
        (["--kappa", "inf"], "kappa must be finite and > 0"),
    ],
)
def test_cli_overrides_are_validated(tmp_path, capsys, flags, named):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(MINIMAL)
    # the box-count flags belong to boxdim, the others to collide-prob
    command = "boxdim" if flags[0] in ("--delta-ladder", "--kappa") else "collide-prob"
    rc = cli([command, "--config", str(cfg_file)] + flags)
    assert rc == 2
    assert named in capsys.readouterr().err


def test_cli_nonpositive_ladder_in_config_exits_2(tmp_path, capsys):
    # the estimate stage used to fail on a zero delta with a division by
    # zero, losing the Monte Carlo estimate; the config is refused instead
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(MINIMAL + "delta_ladder: [0.5, 0.25, 0.0]\nboxdim: true\n")
    assert cli(["report", "--config", str(cfg_file), "--out", str(tmp_path / "run")]) == 2
    assert "delta_ladder entries must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_wrongly_typed_config_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(MINIMAL.replace("paths: 150", 'paths: "many"'))
    assert cli(["collide-prob", "--config", str(cfg_file)]) == 2
    assert "paths must be an integer" in capsys.readouterr().err


def test_cli_resolution_below_two_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(MINIMAL.replace("resolution: [32, 32]", "resolution: [1, 16]"))
    assert cli(["collide-prob", "--config", str(cfg_file)]) == 2
    assert "resolution entries must be >= 2" in capsys.readouterr().err


def test_cli_sde_csv(tmp_path, capsys):
    out = tmp_path / "paths.csv"
    rc = cli(["sde", "--model", "dyson", "--d", "2", "--beta", "1",
              "--paths", "100", "--steps", "200", "--seed", "5",
              "--out", str(out), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["paths"] == 100
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,broken"
    assert len(lines) == 101
    summary = (tmp_path / "paths.summary.csv").read_text().splitlines()
    assert summary[0] == "statistic,x1,x2"
    assert summary[1].startswith("mean,")


def test_cli_sde_every_path_broken_writes_null(tmp_path, capsys, monkeypatch):
    # with no halving a start this close breaks every path: the statistics
    # are undefined, so the JSON carries null (NaN is not JSON) and the
    # summary CSV an empty field, without numpy's empty-slice warnings
    monkeypatch.setattr("eigencollide.sde._MAX_HALVINGS", 0)
    out = tmp_path / "paths.csv"
    flags = ["sde", "--x0", "0,0.0001", "--steps", "3", "--paths", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli(flags + ["--out", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert cli(flags) == 0
    assert "terminal mean undefined" in capsys.readouterr().out
    assert payload["broken"] == 3
    assert payload["mean"] == [None, None] and payload["var"] == [None, None]
    summary = (tmp_path / "paths.summary.csv").read_text().splitlines()
    assert summary[1:] == ["mean,,", "var,,", "broken,3,3"]


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--t1", "-1"], "t1 must be positive"),
        (["--t1", "0"], "t1 must be positive"),
        (["--steps", "0"], "n_steps must be >= 1"),
        (["--paths", "0"], "n_paths must be >= 1"),
        (["--model", "wishart", "--d", "3", "--n", "2"], "need n >= number of particles"),
        (["--d", "2", "--x0", "0,1,2"], "--x0 has 3 start positions but --d is 2"),
        (["--x0", "1e9,1e9"], "start positions stay tied"),
        (["--model", "wishart", "--beta", "2"], "sde --model wishart takes no --beta"),
        (["--model", "dyson", "--n", "7"], "sde --model dyson takes no --n"),
        (["--n", "7"], "sde --model dyson takes no --n"),
    ],
)
def test_cli_sde_bad_arguments_exit_2(flags, named, capsys):
    assert cli(["sde", "--paths", "4", "--steps", "10"] + flags) == 2
    assert named in capsys.readouterr().err


def test_cli_report_stage_failure_exits_nonzero(tmp_path, capsys, monkeypatch):
    # a NaN in path 0's draw passes config validation but fails simulate
    # and the box count at run time; the record is still written, with
    # the failures in warnings.
    monkeypatch.setattr("eigencollide.matfield._sheet_rows", _planted_sheet_rows)
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(BOXED)
    rc = cli(["report", "--config", str(cfg_file), "--out", str(tmp_path / "r"), "--json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert "predict" in payload["outputs"]
    assert any("failed" in w for w in payload["warnings"])
    assert (tmp_path / "r" / "record.json").exists()


def test_cli_threads_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EIGENCOLLIDE_THREADS", "3")
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(MINIMAL)
    rc = cli(["collide-prob", "--config", str(cfg_file), "--paths", "100",
              "--grid", "8,8", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    # thread count must not leak into the science; the call just succeeds
    assert payload["n_paths"] == 100


def _captured_threads(monkeypatch):
    seen = []

    def fake(*args, threads=1, **kwargs):
        seen.append(threads)
        raise SystemExit(0)

    monkeypatch.setattr("eigencollide.cli.collision_prob", fake)
    return seen


def test_cli_threads_config_wins_over_env(tmp_path, monkeypatch):
    monkeypatch.setenv("EIGENCOLLIDE_THREADS", "3")
    seen = _captured_threads(monkeypatch)
    explicit = tmp_path / "explicit.yaml"
    explicit.write_text(MINIMAL + "threads: 1\n")
    unset = tmp_path / "unset.yaml"
    unset.write_text(MINIMAL)
    for argv in (
        ["collide-prob", "--config", str(explicit)],
        ["collide-prob", "--config", str(unset)],
        ["collide-prob", "--config", str(unset), "--threads", "2"],
    ):
        with pytest.raises(SystemExit):
            cli(argv)
    assert seen == [1, 3, 2]


@pytest.mark.parametrize("value", ["two", "0", "1.5"])
def test_cli_threads_env_bad_value_is_usage_error(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("EIGENCOLLIDE_THREADS", value)
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(MINIMAL)
    rc = cli(["collide-prob", "--config", str(cfg_file)])
    assert rc == 2
    assert "EIGENCOLLIDE_THREADS" in capsys.readouterr().err


SMALL = MINIMAL.replace("resolution: [32, 32]", "resolution: [8, 8]") + (
    "delta_ladder: [0.5, 0.25, 0.125]\n"
)


@pytest.mark.parametrize("command", ["predict", "simulate", "boxdim", "validate-field"])
def test_cli_threads_env_ignored_without_threads_flag(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("EIGENCOLLIDE_THREADS", "abc")
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(SMALL)
    assert cli([command, "--config", str(cfg_file)]) == 0, capsys.readouterr().err


SHARED_FLAGS = {
    "predict": {"--config", "--json"},
    "simulate": {"--config", "--seed", "--json"},
    "collide-prob": {"--config", "--seed", "--threads", "--json"},
    "boxdim": {"--config", "--seed", "--json"},
    "sde": {"--seed", "--out", "--json"},
    "validate-field": {"--config", "--json"},
    "report": {"--config", "--seed", "--out", "--threads", "--json"},
}


def test_cli_declares_only_the_shared_flags_each_command_reads():
    parser = _build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    shared = set().union(*SHARED_FLAGS.values())
    declared = {
        name: {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
        for name, sub in subs.choices.items()
    }
    assert {name: opts & shared for name, opts in declared.items()} == SHARED_FLAGS
    assert sum(len(opts) for opts in declared.values()) == 43


RUN_FLAGS = ("--config", "--seed", "--threads", "--out")
UNDECLARED = [
    (command, flag)
    for command, flags in SHARED_FLAGS.items()
    for flag in RUN_FLAGS
    if flag not in flags
]


def _run_flag_values(tmp_path):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(SMALL)
    return {"--config": str(cfg_file), "--seed": "3", "--threads": "1",
            "--out": str(tmp_path / "out")}


@pytest.mark.parametrize("command, flag", UNDECLARED)
def test_cli_undeclared_flag_exits_2(tmp_path, capsys, command, flag):
    values = _run_flag_values(tmp_path)
    run_args = {
        "predict": ["--beta", "1", "--d", "2", "--pattern", "2", "--hurst", "1/2,1/2"],
        "sde": ["--paths", "4", "--steps", "10"],
    }.get(command, ["--config", values["--config"]])
    assert cli([command, *run_args, flag, values[flag]]) == 2
    assert "unrecognized arguments: " + flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", RUN_FLAGS)
def test_cli_report_from_refuses_run_flags(tmp_path, capsys, flag):
    values = _run_flag_values(tmp_path)
    done = tmp_path / "done"
    done.mkdir()
    (done / "record.json").write_text("{}\n")
    assert cli(["report", "--from", str(done), flag, values[flag]]) == 2
    assert "report --from takes no " + flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_bad_config_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "bad.yaml"
    cfg_file.write_text(MINIMAL + "\nbogus: 1\n")
    rc = cli(["predict", "--config", str(cfg_file)])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


def _assert_refused(tmp_path, capsys, text, named):
    # validation only: neither parsing nor the refused command draws
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert named in str(err.value)
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(text)
    assert cli(["simulate", "--config", str(cfg_file)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, nbytes",
    [
        # a dense axis: the entry draws, so the walk, hold the whole path
        (_sized(hurst='["2/5", "1/2"]', resolution="[4096, 8193]"), 4096 * 8193 * 4 * 8),
        # a fractional 1-d grid: its draw is whole (and over its point cap)
        (_sized(hurst='["1/3"]', resolution="[33554433]", interval="[[0.5, 1.5]]"),
         33554433 * 4 * 8),
        # streamed by rows: one block of one row of 2^25 points
        (_sized(shape="[3]", resolution="[2, 33554432]"), 2**25 * 9 * 8),
    ],
    ids=["dense-axis", "1d", "streamed-row"],
)
def test_matrix_path_over_the_memory_budget_is_refused(tmp_path, capsys, text, nbytes):
    named = "holds at once take %d bytes, over the budget of %d bytes" % (nbytes, 2**30)
    _assert_refused(tmp_path, capsys, text, named)


@pytest.mark.parametrize(
    "text",
    [
        # all H = 1/2: the walk holds one block of 2^14 points, whatever the grid
        _sized(kind="complex-eigen", shape="[3]", resolution="[8192, 8192]"),
        _sized(resolution="[8192, 4097]"),
        _sized(kind="real-singular", shape="[2, 3]", resolution="[8192, 4096]"),
        # a 1-d Brownian motion streams by rows too: one block, on a
        # lattice through 0 or off it
        _sized(hurst='["1/2"]', resolution="[33554433]"),
        _sized(hurst='["1/2"]', resolution="[5000]", interval="[[1.05, 2.0]]"),
        # a dense axis: the whole path, exactly 2**30 bytes
        _sized(hurst='["2/5", "1/2"]', resolution="[4096, 8192]"),
    ],
    ids=["streamed-3x3-complex", "streamed-2x2", "streamed-2x3", "streamed-1d",
         "streamed-1d-off-lattice", "dense-at-budget"],
)
def test_walk_within_the_memory_budget_is_accepted(text):
    parse_config(text)


@pytest.mark.parametrize(
    "text, named",
    [
        (_sized(hurst='["2/5", "1/2"]', resolution="[5000, 8]"),
         "axis 0 (H = 0.4) has 5000 points, too many for a dense per-axis factorization"),
        # one point cap for fractional 1-d grids, wherever they sit; parsing
        # comes first, so no draw is attempted
        (_sized(hurst='["1/3"]', resolution="[16385]", interval="[[1.05, 2.0]]"),
         "a fractional 1-d grid (H = 0.333333) takes at most 16384 points, got 16385"),
        (_sized(hurst='["1/3"]', resolution="[16385]", interval="[[1000000.0, 1000001.0]]"),
         "a fractional 1-d grid (H = 0.333333) takes at most 16384 points, got 16385"),
        (_sized(shape="[65]", resolution="[2, 2]"), "spectra are supported for d <= 64"),
    ],
    ids=["dense-axis", "fbm-1d-cap-off-lattice", "fbm-1d-cap-far", "d-65"],
)
def test_sampler_and_spectra_limits_are_refused_at_validation(tmp_path, capsys, text, named):
    _assert_refused(tmp_path, capsys, text, named)


def test_fractional_1d_grid_is_capped_by_its_points_without_allocating():
    # 16385 points are refused however close to 0 they sit, and 4097 points
    # are accepted however far from it; validation allocates nothing
    # either way
    refused = _sized(hurst='["1/3"]', resolution="[16385]", interval="[[1.0, 2.0]]")
    accepted = _sized(hurst='["1/3"]', resolution="[4097]", interval="[[8192.0, 8193.0]]")
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"takes at most 16384 points, got 16385"):
            parse_config(refused)
        parse_config(accepted)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("end", [".inf", ".nan"])
def test_non_finite_interval_end_is_refused_at_validation(tmp_path, capsys, end):
    text = _sized(hurst='["1/2"]', resolution="[8]", interval="[[1.0, %s]]" % end)
    _assert_refused(tmp_path, capsys, text, "grid: interval end must be finite")


def test_matrix_path_at_the_memory_budget_is_accepted():
    # 8192 x 4096 points of 2x2 float64 matrices: exactly 2**30 bytes
    parse_config(MINIMAL.replace("resolution: [32, 32]", "resolution: [8192, 4096]"))
