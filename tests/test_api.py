"""The public API: every exported name, every benchmark span, every
benchmark import and every README import resolves, the package's modules
import in layers, in the source and at run time, and every name a module
imports is used.

An export left behind for a deleted symbol fails here rather than in a
user's import, and a renamed function that the benchmark traces or imports
fails here rather than dropping out of its report or failing its run.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def _closure(graph: dict[str, set[str]], name: str) -> set[str]:
    """``name`` and every package module it imports, directly or not."""
    out, todo = set(), [name]
    while todo:
        if (module := todo.pop()) not in out:
            out.add(module)
            todo.extend(graph[module])
    return out


def test_modules_import_in_layers():
    graph = _package_imports()
    assert graph["config"] <= {"errors"}
    assert graph["data"] <= {"errors"}
    assert graph["tensor"] == set()
    assert graph["layers"] <= {"errors", "data", "tensor"}
    assert graph["container"] <= {"config", "errors"}
    assert graph["__init__"] == set()
    assert {name for name, deps in graph.items() if "datagen" in deps} == {
        "cli"}
    assert {name for name, deps in graph.items() if "__init__" in deps} == {
        "cli"}
    assert _closure(graph, "data") == {"data", "errors"}
    assert _closure(graph, "datagen") == {"datagen", "config", "data",
                                          "tensor", "errors"}
    # Serving loads no training code, and the batch stream no model.
    assert _closure(graph, "serve").isdisjoint({
        "layers", "model", "checkpoint", "optim", "pipeline", "train",
        "gradcheck", "metrics", "datagen"})
    assert _closure(graph, "serve") == {"serve", "container", "config",
                                        "data", "errors", "tensor"}
    assert _closure(graph, "pipeline") == {"pipeline", "data", "errors"}
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


@pytest.mark.parametrize("module", ["data", "config", "datagen", "serve",
                                    "pipeline", "checkpoint", "container",
                                    "tensor", "layers", "gradcheck", "train"])
def test_import_loads_only_what_the_module_imports(module):
    """In a fresh interpreter, importing a module loads the package root and
    that module's closure in the import graph, nothing more."""
    loaded = subprocess.run(
        [sys.executable, "-c",
         f"import sys, starctr.{module}\n"
         "print(*(name for name in sys.modules\n"
         "        if name.partition('.')[0] == 'starctr'))"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
        capture_output=True, text=True, timeout=60).stdout.split()
    assert set(loaded) == {"starctr"} | {
        f"starctr.{name}" for name in _closure(_package_imports(), module)}


def _command_imports() -> dict[str, set[str]]:
    """Each ``cmd_*`` of ``cli`` and the package modules it runs with: its
    own imports and those at the top of ``cli`` (``__init__`` for a name
    ``from . import`` takes)."""
    tree = ast.parse((ROOT / "src" / "starctr" / "cli.py").read_text(
        encoding="utf-8"))

    def imported(body):
        return {node.module or "__init__" for node in body
                if isinstance(node, ast.ImportFrom) and node.level == 1}

    return {node.name: imported(tree.body) | imported(node.body)
            for node in tree.body if isinstance(node, ast.FunctionDef)
            and node.name.startswith("cmd_")}


# Every CLI command, on a workspace the commands before it build.
COMMANDS = [
    ["gen-data", "gen.cfg", "train.tsv"],
    ["train", "exp.cfg", "train.tsv", "m.ckpt"],
    ["eval", "m.ckpt", "train.tsv", "report.txt"],
    ["ablation", "exp.cfg", "train.tsv"],
    ["fold", "m.ckpt", "m.fold"],
    ["score", "m.fold", "train.tsv", "predictions.tsv"],
    ["gradcheck"],
]


def test_each_command_loads_only_what_it_imports(tmp_path):
    """In a fresh interpreter, a command loads the package root, ``cli`` and
    the closure of the modules its ``cmd_*`` runs with, nothing more; so
    ``score`` and ``gen-data`` load no layer and no model."""
    from starctr.datagen import default_gen_config, format_gen_config

    (tmp_path / "gen.cfg").write_text(format_gen_config(default_gen_config(
        num_domains=3, seed=11, n_examples=1_000, vocab_items=300,
        vocab_profiles=120, vocab_contexts=12)))
    (tmp_path / "exp.cfg").write_text(
        "domains=3\nvocab_items=300\nvocab_profiles=120\nvocab_contexts=12\n"
        "layers=16,8,1\nembed_dim=4\naux_embed_dim=4\naux_hidden=6\n"
        "batch_size=128\nepochs=1\nseed=0\n")
    runner = ("import sys\n"
              "from starctr.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(*(name for name in sys.modules\n"
              "        if name.partition('.')[0] == 'starctr'),\n"
              "      file=sys.stderr)\n"
              "sys.exit(code)\n")

    def start(argv):
        return subprocess.Popen(
            [sys.executable, "-c", runner, *argv], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)

    # gradcheck reads no file, so it runs alongside the others.
    running = {"gradcheck": start(["gradcheck"])}
    loaded = {}
    for argv in COMMANDS:
        proc = running.get(argv[0]) or start(argv)
        err = proc.communicate(timeout=120)[1]
        assert proc.returncode == 0, err
        loaded[argv[0]] = set(err.split())
    graph = _package_imports()
    commands = {name[4:].replace("_", "-"): modules
                for name, modules in _command_imports().items()}
    assert commands.keys() == loaded.keys()
    for command, modules in commands.items():
        closure = set().union(*(_closure(graph, m) for m in modules))
        assert loaded[command] == {"starctr", "starctr.cli"} | {
            f"starctr.{m}" for m in closure - {"__init__"}}, command
    for command in ("score", "gen-data"):
        assert loaded[command].isdisjoint({"starctr.layers", "starctr.model"})


def test_every_module_level_import_is_used():
    """A name a module imports at its top level is used in that module, and
    one a function imports is used in that function, unless its import is
    marked ``# noqa: F401`` (a re-export)."""
    unused = []
    for path in sorted((ROOT / "src" / "starctr").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        for scope in [tree] + [node for node in ast.walk(tree)
                               if isinstance(node, ast.FunctionDef)]:
            used = {node.id for node in ast.walk(scope)
                    if isinstance(node, ast.Name)}
            for node in scope.body:
                if (not isinstance(node, (ast.Import, ast.ImportFrom))
                        or getattr(node, "module", None) == "__future__"
                        or any("# noqa: F401" in line for line
                               in lines[node.lineno - 1:node.end_lineno])):
                    continue
                unused += [f"{path.name}:{node.lineno} {name}"
                           for alias in node.names
                           if (name := (alias.asname or alias.name
                                        ).partition(".")[0]) not in used]
    assert unused == []


def _readme_python_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_readme_imports_resolve():
    """Every ``import`` of a README snippet names a module and names that
    exist; the snippets themselves may train at full scale."""
    blocks = _readme_python_blocks()
    assert len(blocks) >= 2
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                exec(compile(ast.Module([node], []), "README.md", "exec"), {})


def test_readme_custom_loop_runs(capsys):
    block, = (block for block in _readme_python_blocks()
              if "train_step(model, opt, batch)" in block)
    exec(compile(block, "README.md", "exec"), {})
    steps, loss, check = capsys.readouterr().out.split()
    assert int(steps) == 20 and 0 < float(loss) and 0 < float(check)
