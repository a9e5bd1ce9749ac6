"""Experiment configuration, orchestration and persistence.

Configs are single YAML documents with a strict key set; parsing collects
every violated invariant into one error.  A config holds only primitives,
so `parse_config(render_config(c)) == c` is plain equality; the numpy
objects (ensemble, grid, pattern) are built on demand.

`run` executes predict -> simulate -> estimate and writes the outputs
under the configured directory:

    record.json   scientific results; byte-identical across reruns and
                  thread counts for a fixed (config, seed)
    meta.json     timings, each failed stage's exception type and
                  traceback, and timestamps, deliberately kept out of
                  record.json so determinism is checkable byte for byte
    hits.csv      per-epsilon hit fractions
    boxes.csv     per-delta box counts (when box counting is requested)

`simulate` summarizes Monte Carlo path 0 in one pass of the estimators'
path kernel: the simulate stage's output and the `simulate` command's.
The estimate stage draws path 0 again, in `box_dim` when box counting is
requested (the `boxdim` command's call) and as one of the Monte Carlo
estimate's paths.

Rationals are rendered as exact "p/q" strings in all JSON output.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .estimate import (
    _block_rows,
    _box_problems,
    _check_matches,
    _mc_problems,
    _path_pass,
    box_dim,
    verdict_experiment,
)
from .gfield import KernelSpec, TimeGrid
# sample_ensemble, spectral_path, pattern_gap_values: unused, bound for the benchmark's tracer
from .matfield import EnsembleSpec, _walk_problems, sample_ensemble  # noqa: F401
from .rng import _seed_problems
from .spectra import _dim_problems, pattern_gap_values, spectral_path  # noqa: F401
from .theory import CollisionPattern, HurstVector, SpectralKind, dichotomy

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunRecord",
    "check_config",
    "parse_config",
    "render_config",
    "run",
    "simulate",
]

_KINDS = {k.value: k for k in SpectralKind}

_DEFAULT_EPS = (0.4, 0.2, 0.11, 0.1)


class ConfigError(ValueError):
    """Invalid experiment config; message lists every violation found."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Primitive, serialization-stable description of one experiment."""

    kind: str
    shape: tuple[int, ...]
    pattern: tuple[int, ...]
    hurst: tuple[str, ...]
    resolution: tuple[int, ...]
    interval: tuple[tuple[float, float], ...]
    eps_ladder: tuple[float, ...] = _DEFAULT_EPS
    delta_ladder: tuple[float, ...] = ()
    kappa: float = 1.0
    paths: int = 1000
    seed: int = 0
    threads: int = 1
    boxdim: bool = False
    shift: tuple | None = None
    transform: tuple | None = None
    transform_right: tuple | None = None
    out_dir: str | None = None

    # -- derived objects ------------------------------------------------

    @property
    def spectral_kind(self) -> SpectralKind:
        return _KINDS[self.kind]

    def hurst_vector(self) -> HurstVector:
        return HurstVector(self.hurst)

    def collision_pattern(self) -> CollisionPattern:
        return CollisionPattern(self.pattern, ambient=self.shape[0])

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.interval, self.resolution)

    def ensemble(self) -> EnsembleSpec:
        def to_matrix(rows):
            if rows is None:
                return None
            arr = np.array([[_from_cell(c) for c in row] for row in rows])
            return arr

        return EnsembleSpec(
            beta=self.spectral_kind.beta,
            shape=self.shape,
            kernel=KernelSpec(self.hurst_vector()),
            shift=to_matrix(self.shift),
            transform=to_matrix(self.transform),
            transform_right=to_matrix(self.transform_right),
        )


def _from_cell(c):
    if isinstance(c, str):
        return complex(c)
    return float(c)


def _tupled(value):
    if isinstance(value, (list, tuple)):
        return tuple(_tupled(v) for v in value)
    return value


def _listed(value):
    if isinstance(value, tuple):
        return [_listed(v) for v in value]
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML config; reject unknown keys (strict mode)
    and report every violated invariant at once."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ConfigError("config is not valid YAML: %s" % err) from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of keys to values")

    known = {f.name for f in fields(ExperimentConfig)}
    problems = [
        "unknown key: %r" % k for k in sorted(set(raw) - known)
    ]
    data = {k: _tupled(v) for k, v in raw.items() if k in known}

    required = ("kind", "shape", "pattern", "hurst", "resolution")
    for key in required:
        if key not in data:
            problems.append("missing key: %r" % key)
    if problems and any(p.startswith("missing") for p in problems):
        raise ConfigError("; ".join(problems))

    hurst = data["hurst"]
    n_axes = len(hurst) if isinstance(hurst, tuple) else 0
    data.setdefault("interval", tuple([(1.0, 2.0)] * n_axes))

    cfg = ExperimentConfig(**data)
    problems.extend(_validate(cfg))
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is(kind):
    return lambda v: isinstance(v, kind)


def _tuple_of(check):
    return lambda v: isinstance(v, tuple) and all(check(x) for x in v)


def _optional(check):
    return lambda v: v is None or check(v)


def _is_pair(v) -> bool:
    return isinstance(v, tuple) and len(v) == 2 and all(map(_is_real, v))


def _is_cell(v) -> bool:
    return _is_real(v) or isinstance(v, str)


_is_matrix = _optional(_tuple_of(_tuple_of(_is_cell)))

# Value types checked before any invariant, so that a wrongly typed value
# is reported by name instead of failing inside a comparison.
_FIELD_TYPES = {
    "kind": (_is(str), "a string"),
    "shape": (_tuple_of(_is_int), "a list of integers"),
    "pattern": (_tuple_of(_is_int), "a list of integers"),
    "hurst": (_tuple_of(_is(str)), "a list of rationals"),
    "resolution": (_tuple_of(_is_int), "a list of integers"),
    "interval": (_tuple_of(_is_pair), "a list of [a, b] pairs"),
    "eps_ladder": (_tuple_of(_is_real), "a list of numbers"),
    "delta_ladder": (_tuple_of(_is_real), "a list of numbers"),
    "kappa": (_is_real, "a number"),
    "paths": (_is_int, "an integer"),
    "seed": (_is_int, "an integer"),
    "threads": (_is_int, "an integer"),
    "boxdim": (_is(bool), "true or false"),
    "shift": (_is_matrix, "a list of rows"),
    "transform": (_is_matrix, "a list of rows"),
    "transform_right": (_is_matrix, "a list of rows"),
    "out_dir": (_optional(_is(str)), "a string"),
}


def _validate(cfg: ExperimentConfig) -> list[str]:
    """Every violated invariant of `cfg`.  A rule the run enforces is asked
    of its owner (`EnsembleSpec`, `HurstVector`, `CollisionPattern`,
    `TimeGrid`, the estimators, the walk over a path with the path
    kernel's rows, the spectra, the random streams), so the config reports
    the run's message."""
    out = [
        "%s must be %s, got %r" % (name, what, getattr(cfg, name))
        for name, (check, what) in _FIELD_TYPES.items()
        if not check(getattr(cfg, name))
    ]
    if out:
        return out
    if cfg.kind not in _KINDS:
        out.append("kind must be one of %s" % sorted(_KINDS))
        return out
    hv = pattern = grid = ensemble = None
    try:
        hv = cfg.hurst_vector()
    except (ValueError, TypeError, ZeroDivisionError) as err:
        out.append("hurst: %s" % err)
    if cfg.shape:  # an empty shape has no ambient dimension; the ensemble names it
        try:
            pattern = cfg.collision_pattern()
        except ValueError as err:
            out.append("pattern: %s" % err)
    if hv is not None:
        if len(cfg.resolution) != len(hv):
            out.append("resolution needs one entry per hurst exponent")
        if len(cfg.interval) != len(hv):
            out.append("interval needs one (a, b) pair per hurst exponent")
    try:
        grid = cfg.time_grid()
    except ValueError as err:
        out.append("grid: %s" % err)
    out += _mc_problems(cfg.eps_ladder, cfg.paths, cfg.threads)
    out += _box_problems(cfg.delta_ladder, cfg.kappa)
    out += _seed_problems(cfg.seed)
    if cfg.boxdim and not cfg.delta_ladder:
        out.append("boxdim requested but delta_ladder is empty")
    if hv is not None:
        try:
            ensemble = cfg.ensemble()
        except ValueError as err:
            out.append("ensemble: %s" % err)
    if ensemble is not None and pattern is not None:
        try:
            _check_matches(ensemble, pattern, cfg.spectral_kind)
        except ValueError as err:
            out.append(str(err))
    if ensemble is not None:
        if grid is not None:
            out += _walk_problems(ensemble, grid, _block_rows(grid))
        out += _dim_problems(ensemble.dims[0])
    return out


def check_config(cfg: ExperimentConfig) -> None:
    """Raise `ConfigError` listing every violated invariant of `cfg`."""
    problems = _validate(cfg)
    if problems:
        raise ConfigError("; ".join(problems))


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical YAML form; parse(render(c)) == c."""
    data = {}
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if value is None and f.name in ("shift", "transform", "transform_right", "out_dir"):
            continue
        data[f.name] = _listed(value)
    return yaml.safe_dump(data, sort_keys=True, default_flow_style=None)


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the scientific content: threads and out_dir are execution
    details and must not distinguish otherwise identical experiments."""
    neutral = replace(cfg, threads=1, out_dir=None)
    return hashlib.sha256(render_config(neutral).encode()).hexdigest()


@dataclass(frozen=True)
class RunRecord:
    """Everything a run produced, traceable to (config hash, seed)."""

    config_hash: str
    code_version: str
    outputs: dict
    warnings: tuple[str, ...]
    timings: dict
    failures: dict  # stage -> exception type name and traceback (meta.json only)

    def scientific_json(self) -> str:
        payload = {
            "config_hash": self.config_hash,
            "code_version": self.code_version,
            "outputs": self.outputs,
            "warnings": list(self.warnings),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def simulate(cfg: ExperimentConfig) -> dict:
    """Spectral summary of Monte Carlo path 0 of `cfg`, in one pass of the
    estimators' path kernel."""
    low, high, gap = _path_pass(cfg.ensemble(), cfg.collision_pattern(), cfg.spectral_kind,
                                cfg.time_grid(), cfg.seed, 0)
    return {
        "path_index": 0,
        "spectrum_min": float(low),
        "spectrum_max": float(high),
        "min_pattern_gap": float(gap),
    }


def run(cfg: ExperimentConfig, out_dir: str | None = None) -> RunRecord:
    """Execute predict -> simulate -> estimate, then persist.

    A stage failure is recorded in `warnings` (its exception type and
    traceback in `failures`), partial outputs preserved; the record is
    still written.
    """
    check_config(cfg)
    kind = cfg.spectral_kind
    pattern = cfg.collision_pattern()
    grid = cfg.time_grid()
    ensemble = cfg.ensemble()

    outputs: dict = {}
    warnings: list[str] = []
    timings: dict = {}
    failures: dict = {}

    def fail(stage: str, err: Exception) -> None:
        warnings.append("%s failed: %s" % (stage, err))
        failures[stage] = {"type": type(err).__name__, "traceback": traceback.format_exc()}

    t0 = time.perf_counter()
    verdict = dichotomy(ensemble.kernel.hurst, kind, pattern)
    outputs["predict"] = verdict.to_json_dict()
    timings["predict"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        outputs["simulate"] = simulate(cfg)
    except Exception as err:  # record and continue: partial outputs survive
        fail("simulate", err)
    timings["simulate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        boxdim = None
        if cfg.boxdim:
            boxdim = box_dim(ensemble, pattern, kind, grid, cfg.seed, cfg.delta_ladder, cfg.kappa)
        report = verdict_experiment(
            ensemble,
            pattern,
            kind,
            grid,
            n_paths=cfg.paths,
            seed=cfg.seed,
            eps_ladder=cfg.eps_ladder,
            boxdim=boxdim,
            threads=cfg.threads,
        )
        outputs["estimate"] = report.to_json_dict()
        if report.boxdim is not None and not report.boxdim.reliable:
            warnings.append("boxdim unreliable: %s" % "; ".join(report.boxdim.notes))
    except Exception as err:
        fail("estimate", err)
    timings["estimate"] = time.perf_counter() - t0

    record = RunRecord(
        config_hash=config_hash(cfg),
        code_version=__version__,
        outputs=outputs,
        warnings=tuple(warnings),
        timings=timings,
        failures=failures,
    )
    target = out_dir or cfg.out_dir
    if target is not None:
        _persist(record, cfg, Path(target))
    return record


def _persist(record: RunRecord, cfg: ExperimentConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.yaml").write_text(render_config(cfg))
    (out / "record.json").write_text(record.scientific_json() + "\n")
    meta = {"timings": record.timings, "failures": record.failures,
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S")}
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    est = record.outputs.get("estimate")
    if est:
        lines = ["eps,hits,fraction,wilson_lo,wilson_hi"]
        mc = est["mc"]
        for e, h, f, (lo, hi) in zip(
            mc["eps_ladder"], mc["hits"], mc["fractions"], mc["wilson_95"]
        ):
            lines.append("%.12g,%d,%.12g,%.12g,%.12g" % (e, h, f, lo, hi))
        (out / "hits.csv").write_text("\n".join(lines) + "\n")
        if est.get("boxdim"):
            bd = est["boxdim"]
            lines = ["delta,threshold,count"]
            for d, t, c in zip(bd["deltas"], bd["thresholds"], bd["counts"]):
                lines.append("%.12g,%.12g,%d" % (d, t, c))
            (out / "boxes.csv").write_text("\n".join(lines) + "\n")

