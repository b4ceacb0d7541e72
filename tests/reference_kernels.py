"""Kernels the package replaced, kept as bitwise references: the
``np.add.at`` embedding kernels (for the pool, its backward and the folded
scorer's mean pool), the per-parameter Adam (for the one-pass arena Adam),
and the folded request path that regrouped every request by a sort and a
gather (for the one-pass scorer), with its masked sigmoid and fresh arrays
in place of the scorer's in-place layers."""

import numpy as np

from starctr.datagen import Dataset, validate_ids
from starctr.errors import DataError
from starctr.model import Batch


def reference_pool(table, flat_ids, offsets):
    """``EmbeddingTable.pool`` by ``np.add.at`` into zeros; ``offsets=None``
    means one id per row."""
    flat_ids = np.asarray(flat_ids, dtype=np.int64)
    table._check_ids(flat_ids)
    if offsets is None:
        counts = np.ones(flat_ids.size, dtype=np.int64)
    else:
        counts = np.diff(np.asarray(offsets, dtype=np.int64))
    n = counts.size
    out = np.zeros((n, table.dim))
    if flat_ids.size:
        owner = np.repeat(np.arange(n), counts)
        np.add.at(out, owner, table.weights[flat_ids])
        out /= np.maximum(counts, 1)[:, None]
    table._cache = (flat_ids, counts)
    return out


def reference_backward(table, upstream):
    """``EmbeddingTable.backward`` by ``np.add.at`` into ``grad``."""
    flat_ids, counts = table._cache
    if flat_ids.size:
        scaled = upstream / np.maximum(counts, 1)[:, None]
        owner = np.repeat(np.arange(counts.size), counts)
        np.add.at(table.grad, flat_ids, scaled[owner])
        table.grad_rows = np.union1d(table.grad_rows, flat_ids)
    table._cache = None


def reference_mean_pool(weights, flat_ids, counts):
    """``layers.mean_pool`` by ``np.add.at`` into zeros for every slice
    length, one-id slices included (the folded scorer used to gather those
    rows directly; both give the same bits); ``counts=None`` means one id
    per row."""
    counts = np.ones(flat_ids.size, dtype=np.int64) if counts is None else counts
    out = np.zeros((counts.size, weights.shape[1]))
    if flat_ids.size:
        owner = np.repeat(np.arange(counts.size), counts)
        np.add.at(out, owner, weights[flat_ids])
        out /= np.maximum(counts, 1)[:, None]
    return out


def reference_sigmoid(x):
    """``layers.sigmoid`` as a boolean-mask split of the input."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[np.logical_not(pos)])
    out[np.logical_not(pos)] = ex / (1.0 + ex)
    return out


def reference_score_batch(folded, batch):
    """``FoldedModel.score_batch`` with the pooled fields concatenated, the
    ln standardization written out, and fresh arrays at every step."""
    p = batch.domain
    if not 1 <= p <= folded.num_domains:
        raise DataError(f"unknown domain {p} (model serves 1..{folded.num_domains})")
    dom = folded.domains[p - 1]
    behavior = reference_mean_pool(folded.embeddings["behavior"],
                                   batch.behavior_flat,
                                   np.diff(batch.behavior_offsets))
    z = np.concatenate([behavior] + [
        folded.embeddings[name].take(getattr(batch, name), axis=0)
        for name in ("profile", "item", "context")], axis=1)

    def mlp(x, layers):
        for li, (w, b) in enumerate(layers):
            x = x @ w + b
            if li != len(layers) - 1:
                x = np.maximum(x, 0.0)
        return x[:, 0]

    x = z
    if folded.config.normalizer == "ln":
        mu = z.mean(axis=1, keepdims=True)
        var = np.mean((z - mu) ** 2, axis=1, keepdims=True)
        x = (z - mu) * (1.0 / np.sqrt(var + folded.config.epsilon))
    logits = mlp(x, dom.layers)
    if dom.aux_layers:
        logits = logits + mlp(z, dom.aux_layers)
    return np.clip(reference_sigmoid(logits), 1e-15, 1.0 - 1e-15)


def reference_score_examples(folded, examples, batch_size=4096):
    """``FoldedModel.score_examples`` that checks ids, then sorts every
    input by domain and gathers each chunk before scoring it."""
    data = Dataset.from_examples(examples)
    config = folded.config
    validate_ids(data, config.vocab_items, config.vocab_profiles,
                 config.vocab_contexts)
    out = np.empty(len(data))
    order = np.argsort(data.p, kind="stable")
    domain_starts = np.flatnonzero(np.diff(data.p[order])) + 1
    for rows in np.split(order, domain_starts):
        for start in range(0, rows.size, batch_size):
            chunk = rows[start:start + batch_size]
            out[chunk] = reference_score_batch(
                folded, Batch(data.take(chunk)))
    return out


def use_reference_kernels(monkeypatch):
    """Route every embedding pool, backward and folded pool through the
    ``np.add.at`` reference for the rest of the test."""
    from starctr import serve
    from starctr.layers import EmbeddingTable

    monkeypatch.setattr(EmbeddingTable, "pool", reference_pool)
    monkeypatch.setattr(EmbeddingTable, "backward", reference_backward)
    monkeypatch.setattr(serve, "mean_pool", reference_mean_pool)


def arena_slice(arena, view):
    """The slice of ``arena.values`` that ``view``, a contiguous view of
    it, covers."""
    start = (view.ctypes.data - arena.values.ctypes.data) // view.itemsize
    return slice(start, start + view.size)


class ReferenceAdam:
    """``Adam.step`` as a loop: one update per given ``Param`` and one
    row-gathered update per embedding table, with moments keyed by name.
    The same per-value arithmetic, in the same order, as the arena Adam."""

    def __init__(self, lr=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = {}
        self.v = {}

    def _moments(self, key, shape):
        if key not in self.m:
            self.m[key] = np.zeros(shape)
            self.v[key] = np.zeros(shape)
        return self.m[key], self.v[key]

    def step(self, params, tables=()):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p in params:
            m, v = self._moments(p.name, p.value.shape)
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * (p.grad * p.grad)
            p.value -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.epsilon)
        for table in tables:
            rows = table.grad_rows
            if rows.size == 0:
                continue
            g = table.grad[rows]
            m, v = self._moments(table.name, table.weights.shape)
            m[rows] = self.beta1 * m[rows] + (1.0 - self.beta1) * g
            v[rows] = self.beta2 * v[rows] + (1.0 - self.beta2) * (g * g)
            table.weights[rows] -= (
                self.lr * (m[rows] / c1) / (np.sqrt(v[rows] / c2) + self.epsilon)
            )

    def flat(self, moments, model):
        """``moments`` (``self.m`` or ``self.v``) in the layout of the
        model's arena; zeros where no moment exists yet."""
        out = np.zeros(model.arena.size)
        owners = [(p.name, p.value) for p in model.params()]
        owners += [(t.name, t.weights) for t in model.embedding_tables()]
        for name, values in owners:
            if name in moments:
                out[arena_slice(model.arena, values)] = moments[name].ravel()
        return out
