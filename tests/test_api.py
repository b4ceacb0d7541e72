"""The public API: every exported name, every benchmark span and every
benchmark import resolves, and the package's modules import in layers.

An export left behind for a deleted symbol fails here rather than in a
user's import, and a renamed function that the benchmark traces or imports
fails here rather than dropping out of its report or failing its run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import starctr

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_resolves():
    assert [name for name in starctr.__all__
            if not hasattr(starctr, name)] == []


def test_star_import():
    namespace = {}
    exec("from starctr import *", namespace)
    assert set(starctr.__all__) <= set(namespace)


def _tracer_module():
    """``perfbench/tracer.py``, imported from its file; nothing installed."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Targets of a class that no longer exists (bn is now a PartitionedNorm);
# perfbench skips them with a warning.
KNOWN_MISSING = {"layers.BatchNorm.forward_train",
                 "layers.BatchNorm.forward_infer", "layers.BatchNorm.backward"}


def test_every_benchmark_span_resolves():
    """A rename in ``src/`` that drops a span the benchmark traces fails
    here, not as a thinner benchmark report."""
    missing = set()
    for module, qualname in _tracer_module().TARGETS:
        obj = importlib.import_module(f"starctr.{module}")
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.add(f"{module}.{qualname}")
    assert missing <= KNOWN_MISSING


def _star_imports(path: Path):
    """``(module, name)`` of each ``from starctr... import name`` in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "starctr"):
            yield from ((node.module, alias.name) for alias in node.names)


def test_every_benchmark_import_resolves():
    """A move in ``src/`` that drops a name the benchmark imports fails
    here, not as a failed benchmark run."""
    imports = {pair for path in sorted((ROOT / "perfbench").glob("*.py"))
               for pair in _star_imports(path)}
    assert ("starctr.datagen", "read_dataset") in imports
    missing = set()
    for module, name in imports:
        if not (hasattr(importlib.import_module(module), name)
                or importlib.util.find_spec(f"{module}.{name}")):
            missing.add(f"{module}.{name}")
    assert missing == set()


def _package_imports() -> dict[str, set[str]]:
    """Each module of the package and the package modules it imports
    relatively; a name ``from . import`` takes that is not a module is
    ``__init__``'s."""
    package = ROOT / "src" / "starctr"
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for name in modules:
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        graph[name] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                graph[name] |= ({node.module} if node.module else
                                {alias.name if alias.name in modules
                                 else "__init__" for alias in node.names})
    return graph


def test_modules_import_in_layers():
    graph = _package_imports()
    assert graph["config"] <= {"errors"}
    assert graph["data"] <= {"errors"}
    assert graph["layers"] <= {"errors", "data"}
    assert {name for name, deps in graph.items() if "datagen" in deps} == {
        "cli", "__init__"}
    done, path = set(), []

    def visit(name):
        assert name not in path, f"import cycle: {path + [name]}"
        if name not in done:
            path.append(name)
            for dep in sorted(graph[name]):
                visit(dep)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)
