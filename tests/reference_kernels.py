"""Kernels the package replaced, kept as bitwise references: the
``np.add.at`` embedding kernels (for the pool, its backward and the folded
scorer's mean pool) and the per-parameter Adam (for the one-pass arena Adam)."""

import numpy as np


def reference_pool(table, flat_ids, offsets):
    """``EmbeddingTable.pool`` by ``np.add.at`` into zeros."""
    flat_ids = np.asarray(flat_ids, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    table._check_ids(flat_ids)
    n = offsets.size - 1
    counts = np.diff(offsets)
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
        table.touched[flat_ids] = True
    table._cache = None


def reference_mean_pool(weights, flat_ids, counts):
    """``layers.mean_pool`` by ``np.add.at`` into zeros for every slice
    length, one-id slices included (the folded scorer used to gather those
    rows directly; both give the same bits)."""
    out = np.zeros((counts.size, weights.shape[1]))
    if flat_ids.size:
        owner = np.repeat(np.arange(counts.size), counts)
        np.add.at(out, owner, weights[flat_ids])
        out /= np.maximum(counts, 1)[:, None]
    return out


def use_reference_kernels(monkeypatch):
    """Route every embedding pool, backward and folded pool through the
    ``np.add.at`` reference for the rest of the test."""
    from starctr import serve
    from starctr.layers import EmbeddingTable

    monkeypatch.setattr(EmbeddingTable, "pool", reference_pool)
    monkeypatch.setattr(EmbeddingTable, "backward", reference_backward)
    monkeypatch.setattr(serve, "mean_pool", reference_mean_pool)


class ReferenceAdam:
    """``Adam.step`` as a loop: one update per touched ``Param`` and one
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
            if not p.touched:
                continue
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
        for owner in model.params() + model.embedding_tables():
            if owner.name in moments:
                data = moments[owner.name].ravel()
                out[owner.start:owner.start + data.size] = data
        return out
