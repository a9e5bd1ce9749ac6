"""One benchmark repetition in a fresh process.

Started by `run.py`, never by hand.  The process imports the package from
the checkout's `src/`, parses the shipped configs and fills the first-draw
caches (that is the set-up), then runs the workload at `threads=1` and, on
the MC workloads, once more at `threads=nproc`.  It checks every output and
prints one JSON line with the timings, checks and scientific results.

With `--trace 1` it then runs `TRACE_ROUNDS` rounds, each a traced and an
untraced `threads=1` pass (layer boundaries wrapped, see `tracer.py`) plus
a `threads=nproc` pass on the MC workloads, and adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import statistics
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import eigencollide  # noqa: E402
from eigencollide import estimate, gfield, harness, matfield, sde, spectra  # noqa: E402
from eigencollide.theory import CollisionPattern, HurstVector, SpectralKind  # noqa: E402

import tracer  # noqa: E402

if not Path(eigencollide.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit("eigencollide was imported from outside this checkout")

MC_CONFIGS = {
    "sheet_mc": ("brownian_sheet",),
    "configs_mixed": ("dyson_bm", "anisotropic_affine", "rect_sheet_singular"),
}
WORKLOADS = (*MC_CONFIGS, "sde_xval")

# Reduced sizes.  100 paths is the smallest count `harness.run` accepts.
# dyson_bm gets 400: its zero-side rule (each eps rung at most half the
# previous) misfires on 1-2 hit counts, which at 100 paths happened on 2 of
# 40 seeds and at 400 paths on none.  A dyson_bm path is cheap (about 5 ms).
# "smoke" shrinks grids and path counts so the benchmark's own tests run in
# seconds; its scientific checks are not expected to pass.
SIZES = {
    "full": {"mc_paths": {"dyson_bm": 400}, "resolution": None,
             "sde_paths": 128, "sde_steps": 10_000, "matrix_samples": 1000},
    "smoke": {"mc_paths": {}, "resolution": (24, 256),
              "sde_paths": 16, "sde_steps": 200, "matrix_samples": 100},
}
MIN_MC_PATHS = 100

# Criterion 8's pinned path: fixed whatever the workload seed, because its
# slope check is only claimed on the path that realizes the collision.
BOX512 = {"seed": 2003, "resolution": 512, "kappa": 2.0 * math.sqrt(2.0),
          "deltas": tuple(2.0**-k for k in range(1, 8))}
BOX512_TOLERANCE = 0.25

# Criterion 9's pinned seeds; the workload seed is added to each.
SDE_SEEDS = {"dyson": 919, "goe": 929, "wishart": 939, "gram": 949}
KS_ALPHA = 0.001

# Rounds of a traced run; each gives one traced/untraced ratio.
TRACE_ROUNDS = 3


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    fa = np.searchsorted(a, both, side="right") / len(a)
    fb = np.searchsorted(b, both, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def ks_critical(n: int, m: int, alpha: float = KS_ALPHA) -> float:
    """Asymptotic two-sample KS critical value at level alpha."""
    return math.sqrt(-math.log(alpha / 2) / 2) * math.sqrt((n + m) / (n * m))


# -- set-up ------------------------------------------------------------------


def mc_experiments(workload: str, seed: int, size: dict) -> list:
    """(name, config) pairs at the reduced size, seeds offset by `seed`."""
    out = []
    for name in MC_CONFIGS[workload]:
        cfg = harness.parse_config((ROOT / "configs" / f"{name}.yaml").read_text())
        paths = size["mc_paths"].get(name, MIN_MC_PATHS)
        cfg = replace(cfg, paths=paths, seed=cfg.seed + seed)
        if size["resolution"] is not None:
            res = size["resolution"][0] if len(cfg.resolution) > 1 else size["resolution"][1]
            cfg = replace(cfg, resolution=(res,) * len(cfg.resolution))
        out.append((name, cfg))
    return out


def sheet_spec():
    kernel = gfield.KernelSpec(HurstVector(["1/2", "1/2"]))
    return matfield.EnsembleSpec(beta=1, shape=(2,), kernel=kernel)


def fill_caches(experiments, workload: str) -> None:
    """First draw on every grid, so the cached axis factors and circulant
    spectra are built before the timed phase."""
    for _, cfg in experiments:
        grid, kernel = cfg.time_grid(), cfg.ensemble().kernel
        if grid.ndim == 1:
            gfield.sample_fbm_1d(kernel.hurst[0], grid, 0, key=(0,))
        else:
            gfield.sample_sheet(kernel, grid, 0, key=(0,))
    if workload == "sheet_mc":
        gfield.sample_sheet(sheet_spec().kernel,
                            gfield.TimeGrid.unit([BOX512["resolution"]] * 2), 0, key=(0,))
    if workload == "sde_xval":
        gfield.sample_fbm_1d(0.5, gfield.TimeGrid.unit([2]), 0, key=(0,))


# -- workloads ---------------------------------------------------------------


def mc_pass(experiments, threads: int, out: Path) -> dict:
    """Every config through `harness.run`."""
    results = {}
    for name, cfg in experiments:
        record = harness.run(replace(cfg, threads=threads), out_dir=str(out / name))
        files = {f: (out / name / f).read_bytes()
                 for f in ("record.json", "hits.csv", "boxes.csv")
                 if (out / name / f).exists()}
        results[name] = {"record": record, "files": files, "paths": cfg.paths}
    return results


def box512() -> dict:
    """Criterion 8's pinned 512^2 path.  `box_dim` takes no thread count."""
    grid = gfield.TimeGrid.unit([BOX512["resolution"]] * 2)
    est = estimate.box_dim(
        sheet_spec(), CollisionPattern((2,), 2), SpectralKind.REAL_EIGEN, grid,
        seed=BOX512["seed"], delta_ladder=BOX512["deltas"], kappa=BOX512["kappa"])
    return est.to_json_dict()


def sde_parts(seed: int, size: dict) -> dict:
    """Criterion 9's four independent pieces, as zero-argument callables."""
    kernel = gfield.KernelSpec(HurstVector(["1/2"]))
    grid = gfield.TimeGrid.unit([2])  # the value at t = 1 is grid point 0
    square = matfield.EnsembleSpec(beta=1, shape=(2,), kernel=kernel)
    rect = matfield.EnsembleSpec(beta=1, shape=(2, 3), kernel=kernel)
    paths, steps, samples = size["sde_paths"], size["sde_steps"], size["matrix_samples"]
    s = {k: v + seed for k, v in SDE_SEEDS.items()}

    def goe():
        mats = np.stack([matfield.assemble_selfadjoint(square, grid, s["goe"], i).values[0]
                         for i in range(samples)])
        return spectra.eigvals_selfadjoint(mats)

    def gram():
        mats = np.stack([matfield.assemble_rect(rect, grid, s["gram"], i).values[0]
                         for i in range(samples)])
        return spectra.singvals(mats) ** 2

    return {
        "dyson": lambda: sde.dyson_paths(np.zeros(2), 1.0, steps, beta=1,
                                         seed=s["dyson"], n_paths=paths),
        "goe": goe,
        "wishart": lambda: sde.wishart_paths(np.zeros(2), 1.0, steps, n=3,
                                             seed=s["wishart"], n_paths=paths),
        "gram": gram,
    }


# -- checks and science --------------------------------------------------------


def digest(result: dict) -> str:
    """Hash of a pass's scientific outputs (bytes written, arrays returned)."""
    h = hashlib.sha256()
    for name in sorted(result):
        item = result[name]
        h.update(name.encode())
        if isinstance(item, dict) and "files" in item:
            for f in sorted(item["files"]):
                h.update(f.encode() + item["files"][f])
        elif isinstance(item, (tuple, np.ndarray)):
            for arr in item if isinstance(item, tuple) else (item,):
                h.update(np.ascontiguousarray(arr).tobytes())
        else:
            h.update(json.dumps(item, sort_keys=True).encode())
    return h.hexdigest()


def mc_checks(t1: dict, tn: dict) -> tuple[dict, dict, dict]:
    """(checks, path counts, science) for an MC workload's two passes.  The
    pinned box path is in the threads=1 pass only."""
    checks, science = {}, {}
    counts = {"attempted": 0, "failed": 0}
    for name, one in t1.items():
        if name == "box512":
            slope = one["slope"]
            checks["box512.slope_within_1+-%g" % BOX512_TOLERANCE] = (
                slope is not None and abs(slope - 1.0) <= BOX512_TOLERANCE)
            science[name] = {"predicted_dim": "1/1", "seed": BOX512["seed"],
                             **{k: one[k] for k in ("slope", "stderr", "reliable", "notes")}}
            continue
        ests = [r["record"].outputs.get("estimate") for r in (one, tn[name])]
        checks[f"{name}.estimate_completed"] = None not in ests
        checks[f"{name}.files_identical_across_threads"] = one["files"] == tn[name]["files"]
        # a pass whose estimate stage failed counts all its paths as failed
        failed = [r["paths"] if e is None else e["mc"]["n_failed"]
                  for r, e in zip((one, tn[name]), ests)]
        counts["attempted"] += one["paths"] + tn[name]["paths"]
        counts["failed"] += sum(failed)
        checks[f"{name}.no_failed_paths"] = sum(failed) == 0
        if None in ests:
            science[name] = {"warnings": list(one["record"].warnings)}
            continue
        est = ests[0]
        checks[f"{name}.mc_agrees_with_theory"] = bool(est["agree"])
        theory = est["theory"]
        entry = {
            "predicted": theory["verdict"], "predicted_dim": theory["dim"],
            "mc_behavior": est["mc_behavior"], "agree": est["agree"],
            "eps_ladder": est["mc"]["eps_ladder"], "hit_fractions": est["mc"]["fractions"],
            "n_paths": est["mc"]["n_paths"], "seed": est["mc"]["seed"],
            "warnings": list(one["record"].warnings),
        }
        if est["boxdim"] is not None:
            entry["boxdim"] = {k: est["boxdim"][k]
                               for k in ("slope", "stderr", "reliable", "notes")}
        science[name] = entry
    return checks, counts, science


def sde_checks(t1: dict) -> tuple[dict, dict, dict]:
    """(checks, path counts, science) for the SDE cross-validation, which
    runs at threads=1 only: the `sde` API takes no thread count."""
    (dyson, dyson_broken), (wish, wish_broken) = t1["dyson"], t1["wishart"]
    goe, gram = t1["goe"], t1["gram"]
    crit_a = ks_critical(len(dyson), len(goe))
    crit_b = ks_critical(len(wish), len(gram))
    ks = {
        "gap": (ks_statistic(dyson[:, 1] - dyson[:, 0], goe[:, 1] - goe[:, 0]), crit_a),
        "gram_low": (ks_statistic(wish[:, 0], gram[:, 0]), crit_b),
        "gram_high": (ks_statistic(wish[:, 1], gram[:, 1]), crit_b),
    }
    broken = int(dyson_broken.sum()) + int(wish_broken.sum())
    checks = {"sde.no_broken_paths": broken == 0}
    for name, (stat, crit) in ks.items():
        checks[f"sde.ks_{name}_below_critical"] = stat < crit
    counts = {"attempted": len(dyson) + len(wish), "failed": broken}
    science = {
        f"ks_{name}": {"statistic": stat, "critical_alpha_%g" % KS_ALPHA: crit}
        for name, (stat, crit) in ks.items()
    }
    science["sizes"] = {"sde_paths": len(dyson), "matrix_samples": len(goe)}
    return checks, counts, science


# -- main ------------------------------------------------------------------------


class Workload:
    """Set-up state plus one timed pass at a given thread count."""

    def __init__(self, name: str, seed: int, size: dict, workdir: Path):
        self.name = name
        self.workdir = workdir
        self.threaded = name in MC_CONFIGS  # has a threads=nproc pass
        if name == "sde_xval":
            self.parts = sde_parts(seed, size)
            fill_caches([], name)
        else:
            self.experiments = mc_experiments(name, seed, size)
            fill_caches(self.experiments, name)

    def run_pass(self, threads: int, label: str) -> tuple[dict, float, float]:
        """(outputs, seconds, seconds in `harness.run`).  The pinned box path
        rides the threads=1 passes of `sheet_mc`; the SDE workload has no
        threads parameter and runs sequentially."""
        t0 = time.perf_counter()
        if self.name == "sde_xval":
            result = {name: part() for name, part in self.parts.items()}
            return result, time.perf_counter() - t0, 0.0
        result = mc_pass(self.experiments, threads, self.workdir / label)
        harness_s = time.perf_counter() - t0
        if self.name == "sheet_mc" and threads == 1:
            result["box512"] = box512()
        return result, time.perf_counter() - t0, harness_s

    def check(self, t1: dict, tn: dict | None):
        return sde_checks(t1) if self.name == "sde_xval" else mc_checks(t1, tn)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=tuple(SIZES), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken just before this process was started")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after the set-up and report only its time")
    args = ap.parse_args(argv)

    threads = nproc()
    work = Workload(args.workload, args.seed, SIZES[args.size], args.workdir)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    t1, wall_s, harness_s = work.run_pass(1, "t1")
    # the threaded pass's high-water mark depends on how its workers
    # interleave, so the reported peak is the one after the threads=1 pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "threads": threads}
    tn = None
    if work.threaded:
        tn, out["wall_s_threaded"], harness_s_threaded = work.run_pass(threads, "tN")
        out["peak_rss_mb_threaded"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks, counts, science = work.check(t1, tn)
    out.update(checks=checks, counts=counts, science=science, outputs_sha256=digest(t1))
    if args.trace:
        rounds = trace_rounds(work, threads)
        checks["trace.outputs_identical"] = all(r["digest"] == digest(t1) for r in rounds)
        per_round = [tracer.layer_metrics(r["tracer"], r["traced_s"], r["plain_s"])
                     for r in rounds]
        layers = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        # speedup of the harness.run part, over every untraced pass of this process
        if work.threaded:
            layers["estimate.thread_speedup"] = (
                statistics.median([harness_s] + [r["plain_harness_s"] for r in rounds])
                / statistics.median([harness_s_threaded] + [r["threaded_s"] for r in rounds]))
        out["layers"] = layers
        out["layer_table"] = rounds[0]["tracer"].table()
        out["trace_rounds"] = [{k: v for k, v in r.items() if k.endswith("_s")}
                               for r in rounds]
    print(json.dumps(out))


def trace_rounds(work: Workload, threads: int) -> list:
    """`TRACE_ROUNDS` rounds of one traced and one untraced threads=1 pass,
    the order alternating from round to round so that warm-up and host
    drift fall on both sides of the ratio, plus a threads=nproc pass on the
    MC workloads."""
    rounds = []
    for i in range(TRACE_ROUNDS):
        r = {"tracer": tracer.Tracer()}
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if not traced:
                _, r["plain_s"], r["plain_harness_s"] = work.run_pass(1, f"plain{i}")
                continue
            r["tracer"].install()
            try:
                result, r["traced_s"], _ = work.run_pass(1, f"traced{i}")
            finally:
                r["tracer"].uninstall()
            r["digest"] = digest(result)
        if work.threaded:
            _, r["threaded_s"], _ = work.run_pass(threads, f"threaded{i}")
        rounds.append(r)
    return rounds


if __name__ == "__main__":
    main()
