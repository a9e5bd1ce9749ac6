"""Every exported name resolves, every name the demos and the README import
from the package exists, every attribute the benchmark tracer wraps exists,
and one smoke-size pass of every benchmark workload runs, so that deleting
or re-signing a name the benchmark uses fails here."""

import ast
import importlib
import importlib.util
import json
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import eigencollide

MODULES = sorted(
    "eigencollide." + m.name for m in pkgutil.iter_modules(eigencollide.__path__)
)
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", ["eigencollide"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing


def _python_sources():
    """(label, source) for each demo script and each python block of the README."""
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield "demos/" + path.name, path.read_text()
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    for i, block in enumerate(blocks):
        yield "README.md#python%d" % i, block


@pytest.mark.parametrize(
    "label, source", [pytest.param(*item, id=item[0]) for item in _python_sources()]
)
def test_demo_and_readme_imports_resolve(label, source):
    # parsed, not run: the demos take minutes
    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module == "eigencollide" or node.module.startswith("eigencollide.")
        ):
            module = importlib.import_module(node.module)
            missing += [
                "%s.%s" % (node.module, a.name) for a in node.names if not hasattr(module, a.name)
            ]
    assert not missing, label


def test_tracer_boundaries_exist():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        (mod, attr)
        for mod, attr, _ in tracer.BOUNDARIES
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert not missing


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_smoke_pass(workload, tmp_path, monkeypatch):
    # the worker puts perfbench/ and src/ on sys.path; monkeypatch restores it
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("_perfbench_worker", TRACER.with_name("worker.py"))
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    work = worker.Workload(workload, 0, worker.SIZES["smoke"], tmp_path)
    result, _, _ = work.run_pass(1, "t1")
    assert result
    for name, item in result.items():
        if isinstance(item, dict) and "record" in item:
            # `run` turns a failing stage into a warning, so check the stages
            assert set(item["record"].outputs) == {"predict", "simulate", "estimate"}, name
            assert "record.json" in item["files"], name
