"""Sigmoid cross-entropy loss and Adam with lazy sparse embedding updates."""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, DataError
from .layers import Arena, EmbeddingTable, Param


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
    """Adam with bias correction and lazy updates, over one ``Arena``.

    The moments ``m`` and ``v`` are flat vectors in the arena's layout.  A
    step updates the touched values only: each run of adjacent touched
    dense ``Param`` spans in place (a model's arena is laid out by owner,
    so a step has at most two: shared, then the batch's domain), and the
    ``grad_rows`` of every embedding table gathered by one index, which
    holds each value once.
    Untouched parameters and rows keep their values and moments bitwise (no
    decay), which is what keeps untouched domains isolated and makes
    embedding updates lazy, the usual trade made by sparse trainers.  Per
    value the arithmetic is the textbook update in a fixed order,
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)``,
    ``w -= lr*(m/c1) / (sqrt(v/c2) + eps)``; bias correction uses the
    global step count.
    """

    def __init__(self, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.arena: Arena | None = None
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def _bind(self, owners: list[Param] | list[EmbeddingTable]):
        if not owners:
            raise ContractViolation("Adam.step: no parameters to step")
        if owners[0].arena is None:
            raise ContractViolation(f"{owners[0].name}: not in a parameter "
                                    "arena")
        self.arena = owners[0].arena
        self.m = np.zeros(self.arena.size)
        self.v = np.zeros(self.arena.size)
        self._work = np.empty((5, 0))

    def _scratch(self, n: int) -> np.ndarray:
        """Five work vectors of at least ``n`` values for the update's
        temporaries, kept between steps rather than allocated in each."""
        if self._work.shape[1] < n:
            self._work = np.empty((5, 2 * n))
        return self._work

    def _dense_runs(self, params: list[Param]) -> list[tuple[int, int]]:
        """The touched spans of ``params``, adjacent ones merged."""
        spans = []
        for p in params:
            if p.arena is not self.arena:
                raise ContractViolation(f"{p.name}: not in the optimizer's "
                                        "parameter arena")
            if p.touched:
                spans.append((p.start, p.start + p.value.size))
        spans.sort()
        runs = []
        for lo, hi in spans:
            if runs and runs[-1][1] == lo:
                runs[-1] = (runs[-1][0], hi)
            else:
                runs.append((lo, hi))
        return runs

    def _update(self, g, m, v, c1, c2) -> np.ndarray:
        """Update the moments ``m``, ``v`` in place; return the step."""
        tmp, upd = self._work[3, :g.size], self._work[4, :g.size]
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=tmp)
        m += tmp
        v *= self.beta2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - self.beta2
        v += tmp
        np.divide(m, c1, out=upd)
        upd *= self.lr
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.epsilon
        upd /= tmp
        return upd

    def step(self, params: list[Param], tables: list[EmbeddingTable] = ()):
        """One optimization step over dense params and embedding tables,
        all views of one arena; ``tables`` must hold every table of it
        once."""
        if self.arena is None:
            self._bind(params or tables)
        arena = self.arena
        runs = self._dense_runs(params)
        if len(tables) != arena.num_tables or len(
                {id(t) for t in tables if t.arena is arena}) != len(tables):
            raise ContractViolation("Adam steps every embedding table of its "
                                    "arena once, and only those")
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        idx = np.concatenate([np.zeros(0, dtype=np.int64)] + [
            np.add.outer(t.grad_rows * t.dim + t.start,
                         np.arange(t.dim)).ravel() for t in tables])
        work = self._scratch(max([idx.size] + [hi - lo for lo, hi in runs]))
        for lo, hi in runs:
            arena.values[lo:hi] -= self._update(
                arena.grads[lo:hi], self.m[lo:hi], self.v[lo:hi], c1, c2)
        if idx.size:
            g, m, v = (np.take(a, idx, out=w[:idx.size], mode="clip")
                       for a, w in zip((arena.grads, self.m, self.v), work))
            upd = self._update(g, m, v, c1, c2)
            self.m[idx] = m
            self.v[idx] = v
            arena.values[idx] -= upd
