"""Embedding, fully-connected, and normalization layers with manual backprop.

Layers follow one protocol: ``forward`` caches whatever the matching
``backward`` needs, ``backward`` takes dL/d(output), adds parameter
gradients into ``grad``, and returns dL/d(input).  Gradients accumulate
until ``zero_grad``; an embedding table keeps the sorted ``grad_rows`` it
wrote.

A model keeps every trainable array in one ``Arena``: a flat float64
``values`` vector and a flat ``grads`` vector, of which each ``Param.value``
and ``grad`` and each table's ``weights`` and ``grad`` are views, laid out
by owner so that a step on domain p writes two dense spans,
``Arena.spans(p)``.

Batch normalization is partitioned normalization with one partition and no
domain affine (``PartitionedNorm(..., per_domain=False)``), so bn and pn
run the same arithmetic, and pn with unit domain scale and zero domain bias
is bitwise equal to bn.  Moving statistics are kept one row per partition:
M for pn, 1 for bn.  Both normalizers and ``LayerNorm`` take the same calls:
``forward_train(z, p)``, ``forward_infer(z, p)``,
``backward``, ``params`` and ``domain_params(p)``.  All three standardize
through ``tensor.standardize`` (columns for bn and pn, rows for ln), the
home of every array kernel, and backprop through one ``_affine_backward``.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .data import first_outside
from .errors import (
    ContractViolation,
    DataError,
    DegenerateInputError,
    DomainError,
    UninitializedStatsError,
)
from .tensor import _segment_sum, mean_pool, relu, standardize


class Param:
    """A named trainable array and its accumulated gradient, of the same
    shape."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def __repr__(self):
        return f"Param({self.name}, shape={self.value.shape})"


class Arena:
    """One flat float64 ``values`` and ``grads`` vector holding the
    ``shared`` params, each list of ``domains`` (domain 1's first), then
    ``tables``, as views that keep their contents; gradients start at zero.

    ``shared`` and ``domains[p - 1]`` slice the dense values, which
    ``dense`` covers; ``table_starts`` are the offsets of ``tables``.
    Owners do not refer to the arena, so a dropped model leaves no cycle.
    """

    def __init__(self, shared: list["Param"],
                 domains: list[list["Param"]] = (),
                 tables: list["EmbeddingTable"] = ()):
        owners = [(p, "value") for group in (shared, *domains) for p in group]
        owners += [(t, "weights") for t in tables]
        self.size = sum(getattr(o, attr).size for o, attr in owners)
        self.values = np.empty(self.size)
        self.grads = np.zeros(self.size)
        start = 0
        for owner, attr in owners:
            old = getattr(owner, attr)
            span = slice(start, start + old.size)
            setattr(owner, attr, self.values[span].reshape(old.shape))
            getattr(owner, attr)[...] = old
            owner.grad = self.grads[span].reshape(old.shape)
            start = span.stop
        ends = list(accumulate((sum(p.value.size for p in group)
                                for group in (shared, *domains)), initial=0))
        self.shared, *self.domains = map(slice, ends, ends[1:])
        self.dense = slice(0, ends[-1])
        self.tables = tuple(tables)
        self.table_starts = tuple(accumulate(
            (t.weights.size for t in tables), initial=ends[-1]))[:-1]
        for t in tables:
            t.grad_rows = _NO_ROWS

    def spans(self, p: int) -> list[slice]:
        """The dense slices a step on domain p writes: shared, then p's."""
        if not 1 <= p <= len(self.domains):
            raise DomainError(f"arena: domain {p} outside "
                              f"1..{len(self.domains)}")
        return [self.shared, self.domains[p - 1]]

    def zero_grad(self):
        """Zero every dense gradient, then each table's ``grad_rows``."""
        self.grads[self.dense] = 0.0
        for t in self.tables:
            t.zero_grad()


_NO_ROWS = np.zeros(0, dtype=np.int64)
_NO_ROWS.flags.writeable = False


class EmbeddingTable:
    """Dense embedding matrix with sparse gradient accumulation.

    Lookups are batched: ``pool(flat_ids, offsets)`` mean-pools the rows for
    each example's slice of ``flat_ids`` (an empty slice pools to a zero
    vector).  Backward accumulates gradients only into looked-up rows, and
    ``grad_rows`` holds those rows, sorted and unique (int64), until
    ``zero_grad`` zeros them and empties it.

    Both directions are one ``bincount`` segment sum: ``mean_pool`` forward,
    a sum by id over the looked-up rows backward.  Sums run in occurrence
    order from 0.0, so with one backward per ``zero_grad`` the output and
    the gradient are bitwise equal to the unbuffered scatter-add
    (``ufunc.at`` on ``np.add``).  Two backward calls without ``zero_grad``
    accumulate as ``g + (a + b)``, not ``(g + a) + b``.
    """

    def __init__(self, vocab_size: int, dim: int, rng, init_scale: float = 0.1,
                 name: str = "embed"):
        self.name = name
        self.vocab_size = vocab_size
        self.dim = dim
        self.weights = rng.normal(0.0, init_scale, size=(vocab_size, dim))
        self.grad = np.zeros((vocab_size, dim))
        self.grad_rows = _NO_ROWS
        self._cache = None

    def _check_ids(self, flat_ids: np.ndarray):
        if (i := first_outside(flat_ids, 0, self.vocab_size)) >= 0:
            raise DataError(f"field '{self.name}': id {flat_ids[i]} outside "
                            f"vocab of {self.vocab_size}")

    def pool(self, flat_ids: np.ndarray,
             offsets: np.ndarray | None) -> np.ndarray:
        """Mean-pool each example's ids (``offsets=None``: one id per
        example); caches the lookup for backward."""
        flat_ids = np.asarray(flat_ids, dtype=np.int64)
        self._check_ids(flat_ids)
        counts = None
        if offsets is not None:
            counts = np.diff(np.asarray(offsets, dtype=np.int64))
        self._cache = (flat_ids, counts)
        return mean_pool(self.weights, flat_ids, counts)

    def backward(self, upstream: np.ndarray):
        if self._cache is None:
            raise ContractViolation(f"{self.name}: backward without forward")
        flat_ids, counts = self._cache
        if flat_ids.size:
            # One id per example: dividing by a count of 1 and repeating
            # once would leave every value as it is.
            scaled = upstream
            if counts is not None:
                scaled = np.repeat(upstream / np.maximum(counts, 1)[:, None],
                                   counts, axis=0)
            # Number the distinct ids in order: a byte mask, then a lookup.
            seen = np.zeros(self.vocab_size, dtype=bool)
            seen[flat_ids] = True
            rows = np.flatnonzero(seen)
            slot = np.empty(self.vocab_size, dtype=np.int64)
            slot[rows] = np.arange(rows.size)
            self.grad[rows] += _segment_sum(slot[flat_ids], scaled, rows.size)
            self.grad_rows = (np.union1d(self.grad_rows, rows)
                              if self.grad_rows.size else rows)
        self._cache = None

    def zero_grad(self):
        self.grad[self.grad_rows] = 0.0
        self.grad_rows = _NO_ROWS


class FcLayer:
    """Fully connected layer ``out = act(x @ W + b)`` with W of shape (in, out)."""

    def __init__(self, in_dim: int, out_dim: int, activation: str = "relu",
                 *, rng, name: str = "fc"):
        if activation not in ("relu", "identity"):
            raise ValueError(f"unknown activation {activation!r}")
        self.name = name
        self.activation = activation
        limit = np.sqrt(6.0 / in_dim)
        self.W = Param(f"{name}.W", rng.uniform(-limit, limit, size=(in_dim, out_dim)))
        self.b = Param(f"{name}.b", np.zeros(out_dim))
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        pre = x @ self.W.value + self.b.value
        out = relu(pre) if self.activation == "relu" else pre
        self._cache = (x, pre)
        return out

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ContractViolation(f"{self.name}: backward without forward")
        x, pre = self._cache
        dpre = upstream * (pre > 0) if self.activation == "relu" else upstream
        self.W.grad += x.T @ dpre
        self.b.grad += dpre.sum(axis=0)
        self._cache = None
        return dpre @ self.W.value.T

    def params(self) -> list[Param]:
        return [self.W, self.b]


def _affine_backward(upstream, gamma, inv, xhat, axis: int):
    """Backprop through ``gamma * xhat + beta`` of ``xhat, _, _, inv =
    standardize(z, epsilon, axis)``.

    Returns ``(dz, dgamma, dbeta)``, the affine's gradients summed over
    rows."""
    n = upstream.shape[axis]
    dxhat = upstream * gamma
    dz = (inv / n) * (
        n * dxhat - dxhat.sum(axis=axis, keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=axis, keepdims=True)
    )
    return dz, (upstream * xhat).sum(axis=0), upstream.sum(axis=0)


class PartitionedNorm:
    """Batch normalization with moments and an affine per partition.

    pn (``per_domain=True``): one partition per domain.  Training
    normalizes by the current (single-domain) mini-batch moments and applies
    scale ``gamma * gamma_p`` and bias ``beta + beta_p``; only partition p's
    moving moments are updated.  Inference standardizes with partition p's
    moving moments.

    bn (``per_domain=False``): one partition that every domain maps to and
    no domain affine; ``gamma`` and ``beta`` are used as they are, so this is
    plain batch normalization.

    A partition's first training batch populates its moving moments
    directly; later batches blend with ``E <- (1-m) E + m mu``.
    """

    def __init__(self, dim: int, num_domains: int, momentum: float = 0.01,
                 epsilon: float = 1e-5, per_domain: bool = True):
        self.name = "pn" if per_domain else "bn"
        self.dim = dim
        self.num_domains = num_domains
        self.per_domain = per_domain
        self.momentum = momentum
        self.epsilon = epsilon
        self.gamma = Param(f"{self.name}.gamma", np.ones(dim))
        self.beta = Param(f"{self.name}.beta", np.zeros(dim))
        domains = range(1, num_domains + 1) if per_domain else ()
        self.domain_gamma = [Param(f"{self.name}.d{p}.gamma", np.ones(dim))
                             for p in domains]
        self.domain_beta = [Param(f"{self.name}.d{p}.beta", np.zeros(dim))
                            for p in domains]
        partitions = num_domains if per_domain else 1
        self.moving_mean = np.zeros((partitions, dim))
        self.moving_var = np.ones((partitions, dim))
        self.populated = np.zeros(partitions, dtype=bool)
        self._cache = None

    def affine(self, p: int):
        """Domain p's (partition index, effective scale, effective bias)."""
        if not 1 <= p <= self.num_domains:
            raise DomainError(
                f"{self.name}: domain {p} outside 1..{self.num_domains}"
            )
        if not self.per_domain:
            return 0, self.gamma.value, self.beta.value
        i = p - 1
        return (i, self.gamma.value * self.domain_gamma[i].value,
                self.beta.value + self.domain_beta[i].value)

    def forward_train(self, z: np.ndarray, p: int) -> np.ndarray:
        i, gamma_eff, beta_eff = self.affine(p)
        if z.shape[0] < 2:
            raise DegenerateInputError(
                f"{self.name}: batch of {z.shape[0]} cannot be normalized"
            )
        xhat, mu, var, inv = standardize(z, self.epsilon, axis=0)
        mu, var = mu[0], var[0]
        if not self.populated[i]:
            self.moving_mean[i] = mu
            self.moving_var[i] = var
            self.populated[i] = True
        else:
            m = self.momentum
            self.moving_mean[i] = (1.0 - m) * self.moving_mean[i] + m * mu
            self.moving_var[i] = (1.0 - m) * self.moving_var[i] + m * var
        self._cache = (i, gamma_eff, inv, xhat)
        return gamma_eff * xhat + beta_eff

    def forward_infer(self, z: np.ndarray, p: int) -> np.ndarray:
        i, gamma_eff, beta_eff = self.affine(p)
        if not self.populated[i]:
            raise UninitializedStatsError(
                f"{self.name}: domain {p} has no populated statistics"
            )
        inv = 1.0 / np.sqrt(self.moving_var[i] + self.epsilon)
        return gamma_eff * ((z - self.moving_mean[i]) * inv) + beta_eff

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ContractViolation(f"{self.name}: backward without forward")
        i, gamma_eff, inv, xhat = self._cache
        dz, dgamma_eff, dbeta_eff = _affine_backward(upstream, gamma_eff, inv,
                                                     xhat, axis=0)
        if self.per_domain:
            self.domain_gamma[i].grad += dgamma_eff * self.gamma.value
            self.domain_beta[i].grad += dbeta_eff
            dgamma_eff = dgamma_eff * self.domain_gamma[i].value
        self.gamma.grad += dgamma_eff
        self.beta.grad += dbeta_eff
        self._cache = None
        return dz

    def params(self) -> list[Param]:
        return [self.gamma, self.beta] + self.domain_gamma + self.domain_beta

    def domain_params(self, p: int) -> list[Param]:
        if not self.per_domain:
            return []
        return [self.domain_gamma[p - 1], self.domain_beta[p - 1]]


class LayerNorm:
    """Per-row standardization with a learned per-feature affine.

    Identical in training and inference, and the same for every domain;
    rows need at least two features."""

    def __init__(self, dim: int, epsilon: float = 1e-5):
        self.name = "ln"
        self.dim = dim
        self.epsilon = epsilon
        self.gamma = Param("ln.gamma", np.ones(dim))
        self.beta = Param("ln.beta", np.zeros(dim))
        self._cache = None

    def forward(self, z: np.ndarray) -> np.ndarray:
        if z.shape[1] < 2:
            raise DegenerateInputError(
                f"{self.name}: feature width {z.shape[1]} cannot be normalized"
            )
        xhat, _, _, inv = standardize(z, self.epsilon, axis=1)
        self._cache = (inv, xhat)
        return self.gamma.value * xhat + self.beta.value

    # Same transform in both modes and for every domain p; the aliases take
    # the calls of ``PartitionedNorm``.
    def forward_train(self, z: np.ndarray, p: int) -> np.ndarray:
        return self.forward(z)

    def forward_infer(self, z: np.ndarray, p: int) -> np.ndarray:
        return self.forward(z)

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ContractViolation(f"{self.name}: backward without forward")
        inv, xhat = self._cache
        dz, dgamma, dbeta = _affine_backward(upstream, self.gamma.value, inv,
                                             xhat, axis=1)
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        self._cache = None
        return dz

    def params(self) -> list[Param]:
        return [self.gamma, self.beta]

    def domain_params(self, p: int) -> list[Param]:
        return []
