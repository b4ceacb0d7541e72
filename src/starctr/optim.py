"""Sigmoid cross-entropy loss and Adam with lazy sparse embedding updates."""

from __future__ import annotations

import numpy as np

from .errors import DataError, ShapeError
from .layers import EmbeddingTable, Param


def _check_labels(y: np.ndarray):
    if not np.isin(y, (0.0, 1.0)).all():
        bad = y[~np.isin(y, (0.0, 1.0))][0]
        raise DataError(f"label {bad!r} outside {{0, 1}}")


def bce_loss(yhat: np.ndarray, y: np.ndarray, logits: np.ndarray | None = None
             ) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient w.r.t. the logits.

    When ``logits`` are supplied the loss is computed with the stable
    softplus form ``max(s,0) - s*y + log(1 + exp(-|s|))``; otherwise it falls
    back to the probabilities directly (valid because sigmoid outputs stay in
    (0, 1)).  The returned gradient is ``(yhat - y) / batch``.
    """
    yhat = np.asarray(yhat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_labels(y)
    n = y.size
    if logits is not None:
        s = np.asarray(logits, dtype=np.float64)
        per = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))
    else:
        per = -(y * np.log(yhat) + (1.0 - y) * np.log1p(-yhat))
    loss = float(per.mean())
    return loss, (yhat - y) / n


class Adam:
    """Adam with bias correction and lazy updates for embedding tables.

    Dense parameters with ``grad is None`` are skipped entirely: their values
    and moments stay bitwise unchanged, which is what keeps untouched domains
    isolated.  Embedding rows are updated lazily -- only rows with accumulated
    gradient move, and the moments of untouched rows are deliberately frozen
    (no decay), the usual trade made by sparse trainers.  Bias correction uses
    the global step count.
    """

    def __init__(self, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def _moments(self, key: str, shape) -> tuple[np.ndarray, np.ndarray]:
        if key not in self._m:
            self._m[key] = np.zeros(shape)
            self._v[key] = np.zeros(shape)
        return self._m[key], self._v[key]

    def step(self, params: list[Param], tables: list[EmbeddingTable] = ()):
        """One optimization step over dense params and embedding tables."""
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p in params:
            if p.grad is None:
                continue
            if p.grad.shape != p.value.shape:
                raise ShapeError(
                    f"{p.name}: grad {p.grad.shape} vs value {p.value.shape}"
                )
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
            g = table._grad_dense[rows]
            m, v = self._moments(table.name, table.weights.shape)
            m[rows] = self.beta1 * m[rows] + (1.0 - self.beta1) * g
            v[rows] = self.beta2 * v[rows] + (1.0 - self.beta2) * (g * g)
            table.weights[rows] -= (
                self.lr * (m[rows] / c1) / (np.sqrt(v[rows] / c2) + self.epsilon)
            )
