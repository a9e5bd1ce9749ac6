"""Every exported name resolves, every name the demos and the README import
from the package exists, every `eigencollide` command line of the README
parses, every attribute the benchmark tracer wraps exists,
every module-level import is read, exported or traced, importing the
package loads no module only some runs read, and one smoke-size
pass of every benchmark workload runs, so that deleting or re-signing a name
the benchmark uses fails here."""

import ast
import importlib
import importlib.util
import json
import pkgutil
import re
import shlex
import subprocess
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


def _readme_commands():
    """Each `eigencollide` command of the README's sh blocks, split as a
    shell would, with trailing comments dropped."""
    for block in re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["eigencollide"]:
                yield words[1:]


README_COMMANDS = list(_readme_commands())


def test_readme_has_commands():
    assert len(README_COMMANDS) >= 8


@pytest.mark.parametrize(
    "argv", [pytest.param(a, id="%d-%s" % (i, a[0])) for i, a in enumerate(README_COMMANDS)]
)
def test_readme_command_lines_parse(argv, capsys):
    # argparse only: no command runs
    from eigencollide.cli import _build_parser

    try:
        _build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail("README command does not parse: eigencollide %s\n%s"
                    % (shlex.join(argv), capsys.readouterr().err))


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


def _module_imports(tree):
    """Names bound by the module-level imports of a parsed module."""
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def test_module_imports_are_read_exported_or_traced():
    # an import nothing reads is dead code, unless the module exports it or
    # the benchmark tracer wraps it on that module
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {(mod, attr) for mod, attr, _ in tracer.BOUNDARIES}
    unread = []
    for path in sorted((ROOT / "src" / "eigencollide").glob("*.py")):
        module = "eigencollide" + ("" if path.stem == "__init__" else "." + path.stem)
        tree = ast.parse(path.read_text())
        read = {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        exported = set(getattr(importlib.import_module(module), "__all__", ()))
        unread += [
            "%s.%s" % (module, name)
            for name in _module_imports(tree)
            if name not in read | exported and (module, name) not in traced
        ]
    assert not unread


_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, %r)
import eigencollide, eigencollide.harness, eigencollide.estimate, eigencollide.sde, eigencollide.cli
on_use = ("yaml", "concurrent.futures", "traceback")
after_import = [m for m in on_use if m in sys.modules]
eigencollide.harness.parse_config(open(%r).read())
print(json.dumps({"after_import": after_import, "yaml_after_parse": "yaml" in sys.modules}))
"""


def test_import_leaves_yaml_thread_pool_and_traceback_to_first_use():
    # a fresh interpreter, so that no other test has loaded them
    code = _IMPORT_PROBE % (str(ROOT / "src"), str(ROOT / "configs" / "dyson_bm.yaml"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = json.loads(done.stdout)
    assert loaded["after_import"] == []
    assert loaded["yaml_after_parse"]


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
