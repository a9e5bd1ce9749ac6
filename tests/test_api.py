"""Every exported name resolves, and so does every attribute the benchmark
tracer wraps, so that deleting a name cannot silently break either."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import eigencollide

MODULES = sorted(
    "eigencollide." + m.name for m in pkgutil.iter_modules(eigencollide.__path__)
)
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("name", ["eigencollide"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing


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
