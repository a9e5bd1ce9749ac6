"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_does_not_perturb_scientific_outputs(workload, tmp_path):
    work = worker.Workload(workload, 0, worker.SIZES["smoke"], tmp_path)
    plain, *_ = work.run_pass(1, "plain")
    tr = tracer.Tracer()
    modules = {mod: importlib.import_module(mod) for mod, _, _ in tracer.BOUNDARIES}
    originals = {(mod, attr): getattr(modules[mod], attr) for mod, attr, _ in tracer.BOUNDARIES}
    tr.install()
    try:
        traced, *_ = work.run_pass(1, "traced")
    finally:
        tr.uninstall()
    assert worker.digest(traced) == worker.digest(plain)
    assert sum(tr.calls.values()) > 0
    for (mod, attr), fn in originals.items():
        assert getattr(modules[mod], attr) is fn


def test_self_time_excludes_child_spans():
    tr = tracer.Tracer()
    leaf = tr._wrap(lambda: time.sleep(0.02), "rng.substream")
    parent = tr._wrap(lambda: (leaf(), leaf()), "matfield.sample_ensemble")
    parent()
    assert tr.calls["rng.substream"] == 2
    assert tr.self_s["matfield.sample_ensemble"] < 0.01
    assert tr.total_s["matfield.sample_ensemble"] >= tr.total_s["rng.substream"] >= 0.04
    assert tr.root_s == tr.total_s["matfield.sample_ensemble"]


def test_ks_statistic_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(300), rng.standard_normal(1000) + 0.1
    assert worker.ks_statistic(a, b) == pytest.approx(stats.ks_2samp(a, b).statistic, abs=1e-12)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*", "results"))
    proc = run_bench("sheet_mc", 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
