"""Repeat the benchmark over several seeds and summarise it.

    python3 perfbench/collect.py --runs 10 --seconds 30 --out perfbench/results/baseline.json

For each workload: untraced runs at seeds 0..runs-1, then one traced run at
seed 0.  Writes each end-to-end metric's values, median, quartiles and
spread (interquartile distance over the median, as
`statistics.quantiles(values, n=4)` gives the quartiles), every run's
correctness, the scientific results at seed 0 and the traced per-layer
table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(report, result) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


def summary(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    out = {"run_seconds": seconds, "seeds": list(range(args.runs)), "workloads": {}}
    for workload in workloads:
        runs = [bench(workload, seed, seconds, 0) for seed in range(args.runs)]
        report0 = runs[0][0]
        entry = {
            "correct": [r["correct"] for _, r in runs],
            "checks_failed": [rep["checks_failed"] for rep, _ in runs],
            "failed_frac": [rep["failed_frac"] for rep, _ in runs],
            "repetitions": [rep["repetitions"] for rep, _ in runs],
            "per_repetition": [rep["per_repetition"] for rep, _ in runs],
            "end_to_end": {},
            "science_seed0": report0["science"],
            "checks_seed0": report0["checks"],
        }
        for name, bound in bounds.items():
            s = summary([r["metrics"][name]["value"] for _, r in runs])
            s["unit"] = runs[0][1]["metrics"][name]["unit"]
            s["bound"] = bound
            entry["end_to_end"][name] = s
            print("%-14s %-16s median %10.4f  spread %.4f (bound %.2f)"
                  % (workload, name, s["median"], s["spread"], bound), flush=True)
        report, result = bench(workload, 0, seconds, 1)
        entry["per_layer"] = result["metrics"]
        entry["layer_table"] = report["layer_table"]
        entry["trace_rounds"] = report["per_repetition"][0]["trace_rounds"]
        entry["trace_correct"] = result["correct"]
        out["environment"] = report0["environment"]
        out["workloads"][workload] = entry
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
