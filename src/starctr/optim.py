"""Sigmoid cross-entropy loss over logits, and Adam with lazy sparse
embedding updates over one parameter arena.

``bce_loss(logits, y)`` is the one loss: it reads the logits a model's
``forward`` returns and gives their gradient for ``backward``.
``Adam(arena, lr)`` owns the moments of every value of ``arena``;
``train.train_step`` runs one step of both.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, DataError
from .layers import Arena, EmbeddingTable, sigmoid

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


def _check_labels(y: np.ndarray):
    if not np.isin(y, (0.0, 1.0)).all():
        bad = y[~np.isin(y, (0.0, 1.0))][0]
        raise DataError(f"label {bad!r} outside {{0, 1}}")


def bce_loss(logits: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy of ``logits`` and its gradient w.r.t. them.

    The loss is the stable softplus form ``max(s,0) - s*y + log(1 +
    exp(-|s|))``, so no logit overflows it; the gradient is
    ``(sigmoid(s) - y) / batch``.
    """
    s = np.asarray(logits, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_labels(y)
    per = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))
    return float(per.mean()), (sigmoid(s) - y) / y.size


class Adam:
    """Adam with bias correction and lazy updates, bound to one ``Arena``.

    The moments ``m`` and ``v`` are flat vectors in the arena's layout,
    allocated with the optimizer.  ``step(spans, tables)`` updates the
    dense slices ``spans`` (a step on domain p passes ``arena.spans(p)``:
    shared, then p's), then the ``grad_rows`` of every embedding table
    through one index, which holds each value once.  Values outside the
    spans and rows outside ``grad_rows`` keep their values and moments
    bitwise (no decay), which is what keeps other domains isolated and makes
    embedding updates lazy, the usual trade made by sparse trainers.  Per
    value the update is the textbook one with the module's constants,
    ``m = BETA1*m + (1-BETA1)*g``, ``v = BETA2*v + (1-BETA2)*(g*g)``,
    ``w -= lr*(m/c1) / (sqrt(v/c2) + EPSILON)``; bias correction uses the
    global step count ``t``.
    """

    def __init__(self, arena: Arena, lr: float = 0.001):
        self.arena = arena
        self.lr = lr
        self.t = 0
        self.m = np.zeros(arena.size)
        self.v = np.zeros(arena.size)

    def _update(self, idx: slice | np.ndarray, c1: float, c2: float):
        """The update of the arena values at ``idx``, a slice or an index
        that holds each value once."""
        g = self.arena.grads[idx]
        m = BETA1 * self.m[idx] + (1.0 - BETA1) * g
        v = BETA2 * self.v[idx] + (1.0 - BETA2) * (g * g)
        self.m[idx] = m
        self.v[idx] = v
        self.arena.values[idx] -= (self.lr * (m / c1)
                                   / (np.sqrt(v / c2) + EPSILON))

    def step(self, spans: list[slice], tables: list[EmbeddingTable] = ()):
        """One optimization step over ``spans``, ascending disjoint slices
        of the arena's dense values, and the arena's ``tables`` in order."""
        ends = [0, *(e for s in spans for e in (s.start, s.stop)),
                self.arena.dense.stop]
        if ends != sorted(ends):
            raise ContractViolation("spans overlap or leave the arena's "
                                    "dense values")
        if len(tables) != len(self.arena.tables) or any(
                t is not mine for t, mine in zip(tables, self.arena.tables)):
            raise ContractViolation("Adam steps every embedding table of its "
                                    "arena once, in the arena's order")
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        for span in spans:
            self._update(span, c1, c2)
        idx = np.concatenate([np.zeros(0, dtype=np.int64)] + [
            np.add.outer(t.grad_rows * t.dim + start, np.arange(t.dim)).ravel()
            for t, start in zip(tables, self.arena.table_starts)])
        if idx.size:
            self._update(idx, c1, c2)
