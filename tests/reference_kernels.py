"""The ``np.add.at`` embedding kernels the bincount ones replaced, kept as
the bitwise reference for the pool, its backward and the folded scorer."""

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
    """``EmbeddingTable.backward`` by ``np.add.at`` into ``_grad_dense``."""
    flat_ids, counts = table._cache
    if flat_ids.size:
        scaled = upstream / np.maximum(counts, 1)[:, None]
        owner = np.repeat(np.arange(counts.size), counts)
        np.add.at(table._grad_dense, flat_ids, scaled[owner])
        table._touched[flat_ids] = True
    table._cache = None


def reference_folded_pool(folded, batch):
    """``FoldedModel._pool`` with its own ``np.add.at`` behavior pool."""
    d = folded.config.embed_dim
    n = batch.size
    z = np.zeros((n, 4 * d))
    counts = np.diff(batch.behavior_offsets)
    if batch.behavior_flat.size:
        owner = np.repeat(np.arange(n), counts)
        np.add.at(z[:, 0:d], owner,
                  folded.embeddings["behavior"][batch.behavior_flat])
        z[:, 0:d] /= np.maximum(counts, 1)[:, None]
    z[:, d:2 * d] = folded.embeddings["profile"][batch.profile]
    z[:, 2 * d:3 * d] = folded.embeddings["item"][batch.item]
    z[:, 3 * d:4 * d] = folded.embeddings["context"][batch.context]
    return z


def use_reference_kernels(monkeypatch):
    """Route every embedding pool, backward and folded pool through the
    ``np.add.at`` reference for the rest of the test."""
    from starctr.layers import EmbeddingTable
    from starctr.serve import FoldedModel

    monkeypatch.setattr(EmbeddingTable, "pool", reference_pool)
    monkeypatch.setattr(EmbeddingTable, "backward", reference_backward)
    monkeypatch.setattr(FoldedModel, "_pool", reference_folded_pool)
