"""Span tracing of starctr from outside the package.

``install()`` wraps the public functions and methods listed in ``TARGETS``:
every module-level binding of a listed function across the ``starctr.*``
modules (re-imports such as ``starctr.train.stream_batches`` included) and
listed methods on their class.  A wrapper records one span per call: name,
start, end, parent span, training step and request id.  Spans stay in
memory until ``Tracer.write`` saves them at the end of the process.
``summarize`` turns saved spans into per-span self time (duration minus the
time covered by child spans) and call counts.

A target that no longer exists is skipped with a warning, so a rename in
``src/`` drops that span's metrics and never breaks an untraced run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# (module, qualname) pairs; the metric name is "<module>.<qualname>".
TARGETS = (
    ("datagen", "generate_examples"), ("datagen", "write_dataset"),
    ("datagen", "read_dataset"), ("datagen", "parse_example"),
    ("datagen", "validate_ids"),
    ("pipeline", "stream_batches"), ("pipeline", "ShuffleBuffer.draw"),
    ("pipeline", "ShuffleBuffer.sample_domain"),
    ("model", "Batch.from_examples"), ("model", "_CtrNet.forward"),
    ("model", "_CtrNet.backward"), ("model", "_CtrNet.zero_grad"),
    ("model", "embed_and_pool"), ("model", "embed_backward"),
    ("model", "StarFcn.forward"), ("model", "StarFcn.backward"),
    ("model", "AuxNet.forward"), ("model", "AuxNet.backward"),
    ("layers", "EmbeddingTable.pool"), ("layers", "EmbeddingTable.backward"),
    ("layers", "FcLayer.forward"), ("layers", "FcLayer.backward"),
    ("layers", "PartitionedNorm.forward_train"),
    ("layers", "PartitionedNorm.forward_infer"),
    ("layers", "PartitionedNorm.backward"),
    ("layers", "BatchNorm.forward_train"), ("layers", "BatchNorm.forward_infer"),
    ("layers", "BatchNorm.backward"),
    ("layers", "LayerNorm.forward_train"), ("layers", "LayerNorm.forward_infer"),
    ("layers", "LayerNorm.backward"),
    ("optim", "bce_loss"), ("optim", "Adam.step"),
    ("train", "train_model"), ("train", "evaluate_model"),
    ("train", "predictions_for"), ("train", "run_ablation"),
    ("metrics", "build_report"), ("metrics", "weighted_auc_detail"),
    ("metrics", "auc"),
    ("serve", "fold"), ("serve", "save_folded"), ("serve", "load_folded"),
    ("serve", "score_file"), ("serve", "score_with_model"),
    ("serve", "FoldedModel.score_examples"), ("serve", "FoldedModel.score_batch"),
    ("checkpoint", "save_model"), ("checkpoint", "load_model"),
    ("cli", "main"),
)

GENERATORS = {"pipeline.stream_batches"}


def _adam_rows(self, params, tables=()):
    return sum(int(t.grad_rows.size) for t in tables)


# Counts taken from a call's arguments, before the call: span -> (count, fn).
ARG_COUNTS = {
    "layers.EmbeddingTable.pool":
        ("layers.EmbeddingTable.ids", lambda self, flat_ids, offsets: np.size(flat_ids)),
    "optim.Adam.step": ("optim.Adam.rows_updated", _adam_rows),
    "serve.FoldedModel.score_batch":
        ("serve.FoldedModel.score_batch.examples", lambda self, batch: batch.size),
}


class Tracer:
    """In-memory span recorder for one process (single-threaded)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.step_id = []
        self.request_id = []
        self._stack: list[int] = []
        self.step = 0           # Adam steps completed in this process
        self.request = -1       # set by the request client per request
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step_id.append(self.step)
        self.request_id.append(self.request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, count: str, n: int):
        self.counts[count] = self.counts.get(count, 0) + int(n)

    def write(self, path: str):
        np.savez(path, name=np.array(self.name, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64),
                 step=np.array(self.step_id, dtype=np.int64),
                 request=np.array(self.request_id, dtype=np.int64))
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "counts": self.counts,
                       "missing": self.missing}, fh)


def _wrap_call(tracer: Tracer, fn, name: str):
    nid = tracer.name_id(name)
    count = ARG_COUNTS.get(name)
    is_step = name == "optim.Adam.step"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if count is not None:
            tracer.add(count[0], count[1](*args, **kwargs))
        idx = tracer.enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
            if is_step:
                tracer.step += 1

    return traced


def _wrap_generator(tracer: Tracer, fn, name: str):
    """One span per ``next()``; the generator body runs inside the span."""
    nid = tracer.name_id(name)
    yields = name + ".yields"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def spans():
            while True:
                idx = tracer.enter(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.exit(idx)
                tracer.add(yields, 1)
                yield item

        return spans()

    return traced


def _starctr_modules():
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "starctr" or key.startswith("starctr."))]


def install(tracer: Tracer) -> Tracer:
    """Wrap every target in every loaded starctr module; return the tracer."""
    import importlib

    for module_name in dict.fromkeys(m for m, _ in TARGETS):
        try:
            importlib.import_module(f"starctr.{module_name}")
        except ImportError:
            pass
    modules = _starctr_modules()
    for module_name, qualname in TARGETS:
        name = f"{module_name}.{qualname}"
        try:
            module = sys.modules[f"starctr.{module_name}"]
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = vars(owner)[attr]
        except (AttributeError, KeyError):
            tracer.missing.append(name)
            print(f"perfbench: trace target {name} not found; its metrics "
                  f"are left out", file=sys.stderr)
            continue
        wrap = _wrap_generator if name in GENERATORS else _wrap_call
        if owner_name:
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(wrap(tracer, raw.__func__, name)))
            else:
                setattr(owner, attr, wrap(tracer, raw, name))
            continue
        wrapped = wrap(tracer, raw, name)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapped)
    return tracer


# --------------------------------------------------------------------------
# Analysis of saved spans (parent side)
# --------------------------------------------------------------------------

def load(path: str) -> dict:
    with np.load(path) as data:
        spans = {key: data[key] for key in data.files}
    with open(path + ".json", encoding="utf-8") as fh:
        spans.update(json.load(fh))
    return spans


def self_times(spans: dict) -> np.ndarray:
    """Per-span self time in seconds: duration minus child coverage.

    Calls nest strictly in one thread, so children never overlap and their
    coverage is the sum of their durations.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


def summarize(spans: dict) -> dict[str, dict]:
    """name -> {"self_s", "calls", "total_s"} for every span name seen."""
    own = self_times(spans)
    dur = spans["end"] - spans["start"]
    out = {}
    for nid, name in enumerate(spans["names"]):
        mask = spans["name"] == nid
        out[name] = {"self_s": float(own[mask].sum()), "calls": int(mask.sum()),
                     "total_s": float(dur[mask].sum())}
    return out


def data_wait_s(spans: dict) -> float:
    """Self time of the training data path: every pipeline span plus each
    ``Batch.from_examples`` called straight from ``train_model``."""
    names = spans["names"]
    own = self_times(spans)
    pipeline = [i for i, n in enumerate(names) if n.startswith("pipeline.")]
    wait = float(own[np.isin(spans["name"], pipeline)].sum())
    if "model.Batch.from_examples" in names and "train.train_model" in names:
        batch = spans["name"] == names.index("model.Batch.from_examples")
        parent = spans["parent"][batch]
        valid = parent >= 0
        in_train = np.zeros(batch.sum(), dtype=bool)
        in_train[valid] = spans["name"][parent[valid]] == names.index("train.train_model")
        wait += float(own[batch][in_train].sum())
    return wait
