"""Every demo imports cleanly and exposes a callable ``main``, and every
demo but the slow one runs to the end.

Running a demo's ``main`` in-process catches a package change that breaks
it at run time, not only a renamed import.  Demo 05 trains three models at
the default scale (about two minutes), so it is only imported.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
IMPORT_ONLY = {"05_train_compare_models"}
RUN = [path for path in DEMOS if path.stem not in IMPORT_ONLY]


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_found():
    assert DEMOS and len(RUN) == len(DEMOS) - len(IMPORT_ONLY)


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_with_main(path):
    assert callable(getattr(_load(path), "main", None))


@pytest.mark.parametrize("path", RUN, ids=[p.stem for p in RUN])
def test_demo_runs(path, capsys):
    _load(path).main()
    assert capsys.readouterr().out
