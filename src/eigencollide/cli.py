"""Command-line interface.

Subcommands, with the shared flags each one takes besides its own:

    predict         exact verdict and dimension         --config --json
    simulate        path 0's spectrum range and gap     --config --seed --json
    collide-prob    hit fractions over the eps ladder   --config --seed --threads --json
    boxdim          box count of path 0's collisions    --config --seed --json
    sde             eigenvalue SDE paths, CSV           --seed --out --json
    validate-field  assumption constants of the grid    --config --json
    report          predict -> simulate -> estimate     --config --seed --out --threads --json

A flag a subcommand does not declare is a usage error (exit 2), and so
is a run flag next to `report --from DIR`, which re-prints a finished run.
`simulate` and the simulate stage of `report` are one function,
`harness.simulate`, one streamed pass that summarizes path 0; `boxdim`
and the box stage of `report` are one call, `estimate.box_dim`, another
pass that box-counts the same path 0.  `validate-field` refuses a grid
over the assumption scan's point cap with exit 2, before scanning.
`simulate --dump-field` writes, as CSV, the raw draw of matrix entry
(0, 0) of path 0 (before the sqrt(2) of the diagonal), block by block
through the path kernel's walk, so its memory is the walk's.
EIGENCOLLIDE_THREADS sets the thread count of the subcommands with
--threads where neither the config nor --threads does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .estimate import _block_rows, box_dim, collision_prob
from .gfield import KernelSpec, _scan_problems, verify_assumptions
from .harness import ConfigError, ExperimentConfig, check_config, parse_config, run, simulate
from .matfield import _PART_REAL, _row_draws
from .sde import dyson_paths, wishart_paths
from .theory import CollisionPattern, HurstVector, SpectralKind, dichotomy

__all__ = ["main", "cli"]


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _default_threads() -> int:
    text = os.environ.get("EIGENCOLLIDE_THREADS", "1")
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError("EIGENCOLLIDE_THREADS must be a positive integer, got %r" % text)
    return threads


_SHARED = {
    "--config": dict(help="YAML experiment config"),
    "--seed": dict(type=int, help="experiment seed (overrides the config's)"),
    "--out": dict(help="output directory (report) or CSV file (sde)"),
    "--threads": dict(type=int, help="worker threads"),
    "--json": dict(action="store_true", help="machine-readable output"),
}

# argument -> config field, for every flag that overrides the config
_OVERRIDES = {"seed": "seed", "threads": "threads", "paths": "paths", "grid": "resolution",
              "eps_ladder": "eps_ladder", "delta_ladder": "delta_ladder", "kappa": "kappa"}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="eigencollide",
        description="collision dichotomies for spectra of matrix Gaussian fields",
    )
    top.add_argument("--version", action="version", version=__version__)
    subs = top.add_subparsers(dest="command", required=True)

    def sub(name, summary, shared):
        p = subs.add_parser(name, help=summary)
        for flag in shared.split():
            p.add_argument(flag, **_SHARED[flag])
        return p

    p = sub("predict", "exact verdict and dimension", "--config --json")
    p.add_argument("--beta", type=int, choices=(1, 2))
    p.add_argument("--d", type=int, help="square dimension (eigenvalue kinds)")
    p.add_argument("--shape", type=_ints, help="d1,d2 (singular-value kinds)")
    p.add_argument("--pattern", type=_ints, help="multiplicities, e.g. 2,3")
    p.add_argument("--hurst", help="comma-separated rationals, e.g. 1/2,1/2")

    p = sub("simulate", "draw one path, print spectral summary", "--config --seed --json")
    p.add_argument("--dump-field", help="write path 0's raw draw of entry (0, 0) as CSV")

    p = sub("collide-prob", "Monte Carlo collision probability",
            "--config --seed --threads --json")
    p.add_argument("--paths", type=int, help="override path count")
    p.add_argument("--grid", type=_ints, help="override per-axis resolution")
    p.add_argument("--eps-ladder", type=_floats, help="override eps ladder")

    p = sub("boxdim", "box-counting dimension of one path", "--config --seed --json")
    p.add_argument("--grid", type=_ints, help="override per-axis resolution")
    p.add_argument("--delta-ladder", type=_floats, help="override delta ladder")
    p.add_argument("--kappa", type=float, help="threshold prefactor")

    p = sub("sde", "integrate the eigenvalue SDE systems", "--seed --out --json")
    p.add_argument("--model", choices=("dyson", "wishart"), default="dyson")
    p.add_argument("--d", type=int, default=2, help="number of particles")
    p.add_argument("--beta", type=int, choices=(1, 2), help="dyson only (default 1)")
    p.add_argument("--n", type=int, help="wishart only: second dimension (default max(d, 3))")
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--x0", type=_floats, help="start positions (default zeros)")

    sub("validate-field", "assumption constants on a grid", "--config --json")

    p = sub("report", "full run: predict, simulate, estimate",
            "--config --seed --out --threads --json")
    p.add_argument("--from", dest="from_dir", help="re-print an existing run directory")

    return top


def _load_config(args) -> ExperimentConfig:
    if args.config is None:
        raise ConfigError("this command needs --config")
    text = Path(args.config).read_text()
    cfg = parse_config(text)
    overrides = {
        field: getattr(args, name)
        for name, field in _OVERRIDES.items()
        if getattr(args, name, None) is not None
    }
    if overrides:
        cfg = replace(cfg, **overrides)
        check_config(cfg)
    # The environment default applies only where the subcommand takes
    # --threads and neither the config nor --threads sets a thread count;
    # parse_config has accepted the mapping.
    if "threads" in args and args.threads is None and "threads" not in yaml.safe_load(text):
        cfg = replace(cfg, threads=_default_threads())
    return cfg


def _emit(payload: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _predict(args) -> int:
    if args.config:
        cfg = _load_config(args)
        kind = cfg.spectral_kind
        hurst = cfg.hurst_vector()
        pattern = cfg.collision_pattern()
    else:
        missing = [
            name
            for name, val in (("--beta", args.beta), ("--pattern", args.pattern), ("--hurst", args.hurst))
            if val is None
        ]
        if args.d is None and args.shape is None:
            missing.append("--d or --shape")
        if missing:
            print("predict needs %s (or --config)" % ", ".join(missing), file=sys.stderr)
            return 2
        singular = args.shape is not None
        kind = next(k for k in SpectralKind if k.beta == args.beta and k.singular == singular)
        ambient = args.shape[0] if singular else args.d
        hurst = HurstVector([Fraction(h) for h in args.hurst.split(",")])
        pattern = CollisionPattern(args.pattern, ambient=ambient)
    verdict = dichotomy(hurst, kind, pattern)
    human = "Q=%s, c=%s, verdict=%s" % (verdict.Q, verdict.codim, verdict.verdict.value)
    if verdict.dim is not None:
        human += ", ell0=%d, dim=%s" % (verdict.ell0, verdict.dim)
    _emit(verdict.to_json_dict(), args.json, human)
    return 0


def _simulate(args) -> int:
    cfg = _load_config(args)
    payload = simulate(cfg)
    payload["grid_points"] = int(np.prod(cfg.resolution))
    if args.dump_field:
        _dump_field_csv(cfg, args.dump_field)
        payload["field_csv"] = args.dump_field
    _emit(
        payload,
        args.json,
        "spectrum in [%.6g, %.6g], min pattern gap %.6g over %d grid points"
        % (
            payload["spectrum_min"],
            payload["spectrum_max"],
            payload["min_pattern_gap"],
            payload["grid_points"],
        ),
    )
    return 0


def _collide_prob(args) -> int:
    cfg = _load_config(args)
    est = collision_prob(
        cfg.ensemble(),
        cfg.collision_pattern(),
        cfg.spectral_kind,
        cfg.time_grid(),
        cfg.eps_ladder,
        cfg.paths,
        cfg.seed,
        threads=cfg.threads,
    )
    lines = [
        "eps=%-10g fraction=%-8.4f hits=%-6d wilson95=[%.4f, %.4f]" % (e, f, h, lo, hi)
        for e, f, h, (lo, hi) in zip(est.eps_ladder, est.fractions, est.hits, est.intervals)
    ]
    if est.n_failed:
        lines.append("failed paths: %d of %d" % (est.n_failed, est.n_paths))
    _emit(est.to_json_dict(), args.json, "\n".join(lines))
    return 0


def _boxdim(args) -> int:
    cfg = _load_config(args)
    if not cfg.delta_ladder:
        print("boxdim needs delta_ladder in the config or --delta-ladder", file=sys.stderr)
        return 2
    est = box_dim(
        cfg.ensemble(),
        cfg.collision_pattern(),
        cfg.spectral_kind,
        cfg.time_grid(),
        cfg.seed,
        cfg.delta_ladder,
        kappa=cfg.kappa,
    )
    if est.slope is None:
        human = "no slope (%s)" % "; ".join(est.notes)
    else:
        human = "slope %.4f +- %.4f over %d levels%s" % (
            est.slope,
            est.stderr if est.stderr is not None else float("nan"),
            len(est.window),
            "" if est.reliable else "  [unreliable: %s]" % "; ".join(est.notes),
        )
    _emit(est.to_json_dict(), args.json, human)
    return 0


def _sde(args) -> int:
    d = args.d
    if args.model == "dyson" and args.n is not None:
        raise ConfigError("sde --model dyson takes no --n")
    if args.model == "wishart" and args.beta is not None:
        raise ConfigError("sde --model wishart takes no --beta (its system is the real one)")
    if args.x0 and len(args.x0) != d:
        raise ConfigError("--x0 has %d start positions but --d is %d" % (len(args.x0), d))
    x0 = np.asarray(args.x0, dtype=float) if args.x0 else np.zeros(d)
    seed = args.seed if args.seed is not None else 0
    try:
        if args.model == "dyson":
            beta = args.beta if args.beta is not None else 1
            term, broken = dyson_paths(x0, args.t1, args.steps, beta, seed, args.paths)
        else:
            n = args.n if args.n is not None else max(d, 3)
            term, broken = wishart_paths(x0, args.t1, args.steps, n, seed, args.paths)
    except ValueError as err:  # the runners reject bad arguments up front
        raise ConfigError(str(err)) from err
    kept = term[~broken]
    # with every path broken the statistics are undefined: null, not NaN
    summary = {
        "model": args.model,
        "paths": args.paths,
        "broken": int(broken.sum()),
        "mean": kept.mean(axis=0).tolist() if len(kept) else [None] * d,
        "var": kept.var(axis=0).tolist() if len(kept) else [None] * d,
    }
    if args.out:
        header = ",".join("x%d" % (i + 1) for i in range(d)) + ",broken"
        rows = [header]
        for row, b in zip(term, broken):
            rows.append(",".join("%.12g" % v for v in row) + ",%d" % int(b))
        Path(args.out).write_text("\n".join(rows) + "\n")
        summary["csv"] = args.out
        stat_rows = ["statistic," + ",".join("x%d" % (i + 1) for i in range(d))]
        for name in ("mean", "var"):
            stat_rows.append(
                name + "," + ",".join("" if v is None else "%.12g" % v for v in summary[name])
            )
        stat_rows.append("broken," + ",".join([str(summary["broken"])] * d))
        summary_path = str(Path(args.out).with_suffix(".summary.csv"))
        Path(summary_path).write_text("\n".join(stat_rows) + "\n")
        summary["summary_csv"] = summary_path
    mean = np.round(summary["mean"], 4) if len(kept) else "undefined"
    _emit(
        summary,
        args.json,
        "%s: %d paths (%d broken), terminal mean %s"
        % (args.model, args.paths, summary["broken"], mean),
    )
    return 0


def _dump_field_csv(cfg: ExperimentConfig, path: str) -> None:
    """Path 0's raw draw of entry (0, 0) as CSV, grid coordinates then the
    value, written a block of the path kernel's rows at a time."""
    grid = cfg.time_grid()
    axes = grid.axes()
    with open(path, "w") as out:
        out.write(",".join("t%d" % (j + 1) for j in range(grid.ndim)) + ",value\n")
        for start, shape, draw in _row_draws(cfg.ensemble(), grid, cfg.seed, 0, _block_rows(grid)):
            mesh = np.meshgrid(axes[0][start : start + shape[0]], *axes[1:], indexing="ij")
            points = zip(*(m.ravel() for m in mesh), draw(0, 0, _PART_REAL).ravel())
            out.writelines(",".join("%.12g" % v for v in point) + "\n" for point in points)


def _validate_field(args) -> int:
    cfg = _load_config(args)
    grid = cfg.time_grid()
    problems = _scan_problems(grid)
    if problems:
        raise ConfigError("; ".join(problems))
    payload = verify_assumptions(KernelSpec(cfg.hurst_vector()), grid).to_json_dict()
    human = "c1=%.6g c3=%s c4=%s over %d points (%s)" % (
        payload["c1"],
        payload["c3"],
        payload["c4"],
        payload["n_points"],
        "pass" if payload["passed"] else "; ".join(payload["violations"]),
    )
    _emit(payload, args.json, human)
    return 0


def _report(args) -> int:
    if args.from_dir:
        given = [f for f in ("config", "seed", "threads", "out") if getattr(args, f) is not None]
        if given:
            flags = ", ".join("--" + f for f in given)
            print("report --from takes no %s" % flags, file=sys.stderr)
            return 2
        record_path = Path(args.from_dir) / "record.json"
        if not record_path.exists():
            print("no record.json under %s" % args.from_dir, file=sys.stderr)
            return 1
        payload = json.loads(record_path.read_text())
        _emit(payload, args.json, record_path.read_text().rstrip())
        return 0
    cfg = _load_config(args)
    record = run(cfg, out_dir=args.out)
    payload = json.loads(record.scientific_json())
    # exit 0 iff every stage produced a record; unreliable-estimate flags
    # are carried in the record, not in the exit code
    stages_ok = all(k in payload["outputs"] for k in ("predict", "simulate", "estimate"))
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        pred = payload["outputs"]["predict"]
        print("predict: Q=%s c=%s verdict=%s dim=%s" % (pred["Q"], pred["c"], pred["verdict"], pred["dim"]))
        est = payload["outputs"].get("estimate")
        if est:
            print("mc: fractions %s -> %s" % (est["mc"]["fractions"], est["mc_behavior"]))
            if est.get("boxdim") and est["boxdim"]["slope"] is not None:
                print("boxdim: slope %.4f" % est["boxdim"]["slope"])
        for w in payload["warnings"]:
            print("warning: %s" % w)
        if args.out or cfg.out_dir:
            print("written to %s" % (args.out or cfg.out_dir))
    return 0 if stages_ok else 1


_HANDLERS = {
    "predict": _predict,
    "simulate": _simulate,
    "collide-prob": _collide_prob,
    "boxdim": _boxdim,
    "sde": _sde,
    "validate-field": _validate_field,
    "report": _report,
}


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if err.code is not None else 0
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as err:
        print("config error: %s" % err, file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print("not found: %s" % err, file=sys.stderr)
        return 1
    except Exception as err:  # pragma: no cover - last-resort reporting
        print("error: %s" % err, file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
