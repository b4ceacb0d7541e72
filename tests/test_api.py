"""The public API: every exported name and every benchmark span resolves.

An export left behind for a deleted symbol fails here rather than in a
user's import, and a renamed function that the benchmark traces fails here
rather than dropping out of its report.
"""

import importlib
import importlib.util
from pathlib import Path

import starctr


def test_every_export_resolves():
    assert [name for name in starctr.__all__
            if not hasattr(starctr, name)] == []


def test_star_import():
    namespace = {}
    exec("from starctr import *", namespace)
    assert set(starctr.__all__) <= set(namespace)


def _tracer_module():
    """``perfbench/tracer.py``, imported from its file; nothing installed."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
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
