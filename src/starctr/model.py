"""Multi-domain CTR models: one star-topology trunk, auxiliary net, normalizers.

Every variant runs the same trunk, ``StarFcn``, built from up to two
factors: a shared fully-connected stack and one stack per domain.  Domain
p's effective layer is the product of the factors present:

* star: shared and domain stacks, fused element-wise as ``(W_p * W,
  b_p + b)``.  Domain stacks start at ones/zeros so every domain begins as
  the shared model and learns its deviation;
* base: the shared stack only, so every domain runs the same layers;
* shared_bottom: the domain stacks only, each trained from its own random
  start.

Shared parameters receive gradients from every batch, domain parameters
only from their own domain's batches: the two dense spans
``model.arena.spans(p)`` of the model's ``Arena``.

All variants share the same embedding front-end (one table per field, mean
pooling, concatenation), a configurable normalizer (bn / ln / pn), and an
optional auxiliary network that embeds the domain indicator, concatenates it
with the raw pooled features, and adds its scalar output to the main logit.
A model's ``forward`` returns these logits; the loss and the scorers apply
the sigmoid.  The aux net runs exactly when the model has one
(``config.aux_enabled``).

The normalizer is ln (``LayerNorm``) or a ``PartitionedNorm``: pn keeps
moving statistics and a domain affine per domain, and bn is the same class
with one partition that every domain maps to and no domain affine.  Moving
statistics are kept one per partition: M for pn, 1 for bn.

A model's settings are a ``config.ModelConfig``; ``config.TRUNK_FACTORS``
names the factors of each variant.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import TRUNK_FACTORS, ModelConfig, field_vocabs
from .data import FIELDS, Batch
from .errors import ConfigError, ContractViolation, DomainError, ShapeError
from .layers import (
    Arena,
    EmbeddingTable,
    FcLayer,
    LayerNorm,
    Param,
    PartitionedNorm,
)
from .tensor import make_rng, relu


def make_tables(config: ModelConfig) -> dict[str, EmbeddingTable]:
    """One embedding table per field."""
    return {
        name: EmbeddingTable(vocab, config.embed_dim,
                             rng=make_rng(config.seed, stream=10 + i),
                             init_scale=config.embed_init_scale, name=name)
        for i, (name, vocab) in enumerate(field_vocabs(config).items())
    }


def embed_and_pool(batch: Batch, tables: dict[str, EmbeddingTable]) -> np.ndarray:
    """Mean-pool each field's embeddings and concatenate in field order."""
    return np.concatenate([tables[name].pool(ids, offsets)
                           for name, ids, offsets in batch.fields()], axis=1)


def embed_backward(dz: np.ndarray, tables: dict[str, EmbeddingTable],
                   embed_dim: int):
    for i, name in enumerate(FIELDS):
        tables[name].backward(dz[:, i * embed_dim:(i + 1) * embed_dim])


def star_layer_params(w: np.ndarray, b: np.ndarray, w_p: np.ndarray,
                      b_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fuse shared and domain layer parameters: (w_p * w, b_p + b).

    Each factor must have the shape of its counterpart; numpy would
    otherwise broadcast a mismatch into a wrong-shaped layer."""
    if w_p.shape != w.shape or b_p.shape != b.shape:
        raise ShapeError(f"star layer: domain factors {w_p.shape}, "
                         f"{b_p.shape} vs shared {w.shape}, {b.shape}")
    return w_p * w, b_p + b


def _build_stack(in_dim: int, widths: Sequence[int], rng, name: str,
                 ones_init: bool = False) -> list[FcLayer]:
    layers = []
    prev = in_dim
    for li, width in enumerate(widths):
        act = "identity" if li == len(widths) - 1 else "relu"
        layer = FcLayer(prev, width, activation=act, rng=rng,
                        name=f"{name}.{li}")
        if ones_init:
            layer.W.value[:] = 1.0
            layer.b.value[:] = 0.0
        layers.append(layer)
        prev = width
    return layers


class StarFcn:
    """The trunk of every variant: an optional shared stack and optional
    per-domain stacks (see ``TRUNK_FACTORS``).

    With both factors, domain p's layer is ``star_layer_params`` of the
    shared and the domain layer; with one factor it is that factor's layer.
    Domain stacks start at ones/zeros when a shared stack exists, so each
    domain starts as the shared model, and at random otherwise.  Stacks
    draw from ``rng`` in checkpoint order: shared, then d1..dM.
    """

    def __init__(self, in_dim: int, widths: Sequence[int], num_domains: int,
                 rng, variant: str = "star"):
        has_shared, has_domain = TRUNK_FACTORS[variant]
        self.widths = tuple(widths)
        self.num_domains = num_domains
        self.shared = (_build_stack(in_dim, widths, rng, "fcn.shared")
                       if has_shared else None)
        self.domain = [
            _build_stack(in_dim, widths, rng, f"fcn.d{p}",
                         ones_init=has_shared)
            for p in range(1, num_domains + 1)
        ] if has_domain else None
        self._cache = None

    def stacks(self) -> list[list[FcLayer]]:
        """The stacks present: shared if any, then domains 1..M."""
        return ([self.shared] if self.shared else []) + (self.domain or [])

    def _factors(self, p: int):
        """Domain p's (shared layer, domain layer) pairs; None marks a
        factor the variant lacks."""
        if not 1 <= p <= self.num_domains:
            raise DomainError(f"domain {p} outside 1..{self.num_domains}")
        none = [None] * len(self.widths)
        return zip(self.shared or none,
                   self.domain[p - 1] if self.domain else none)

    @staticmethod
    def _fuse(sl: FcLayer | None, dl: FcLayer | None):
        if sl is None:
            return dl.W.value, dl.b.value
        if dl is None:
            return sl.W.value, sl.b.value
        return star_layer_params(sl.W.value, sl.b.value, dl.W.value,
                                 dl.b.value)

    def fused_params(self, p: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Domain p's effective (W, b) per layer, as new arrays."""
        return [tuple(a.copy() for a in self._fuse(sl, dl))
                for sl, dl in self._factors(p)]

    def forward(self, x: np.ndarray, p: int) -> np.ndarray:
        steps = []
        last = len(self.widths) - 1
        for li, (sl, dl) in enumerate(self._factors(p)):
            w, b = self._fuse(sl, dl)
            pre = x @ w + b
            hidden = li < last
            steps.append((x, pre, w, sl, dl, hidden))
            x = relu(pre) if hidden else pre
        self._cache = steps
        return x[:, 0]

    def backward(self, ds: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ContractViolation("star fcn: backward without forward")
        upstream = ds[:, None]
        for x, pre, w, sl, dl, hidden in reversed(self._cache):
            dpre = upstream * (pre > 0) if hidden else upstream
            d_w = x.T @ dpre
            d_b = dpre.sum(axis=0)
            for mine, other in ((sl, dl), (dl, sl)):
                if mine is not None:
                    mine.W.grad += (d_w if other is None
                                    else d_w * other.W.value)
                    mine.b.grad += d_b
            upstream = dpre @ w.T
        self._cache = None
        return upstream

    def params(self) -> list[Param]:
        return [q for stack in self.stacks() for layer in stack
                for q in layer.params()]

    def domain_params(self, p: int) -> list[Param]:
        if self.domain is None:
            return []
        return [q for layer in self.domain[p - 1] for q in layer.params()]


class AuxNet:
    """Two-layer net over the domain embedding (optionally with raw pooled
    features concatenated) producing the scalar added to the main logit.

    The domain indicator is a one-id field: row p - 1 of ``embed``, looked
    up and backpropagated like every other field."""

    def __init__(self, num_domains: int, aux_embed_dim: int, feature_dim: int,
                 hidden: int, rng):
        self.aux_embed_dim = aux_embed_dim
        self.feature_dim = feature_dim
        # Domain embeddings start spread out: domain identities are
        # separable by the body from the first step.
        self.embed = EmbeddingTable(num_domains, aux_embed_dim, rng=rng,
                                    init_scale=0.5, name="aux.embed")
        self.fc1 = FcLayer(aux_embed_dim + feature_dim, hidden,
                           activation="relu", rng=rng, name="aux.fc1")
        self.fc2 = FcLayer(hidden, 1, activation="identity", rng=rng,
                           name="aux.fc2")

    def forward(self, z_raw: np.ndarray, p: int) -> np.ndarray:
        e = self.embed.pool(np.full(z_raw.shape[0], p - 1), None)
        x = np.concatenate([e, z_raw], axis=1) if self.feature_dim else e
        return self.fc2.forward(self.fc1.forward(x))[:, 0]

    def backward(self, ds: np.ndarray) -> np.ndarray:
        """Returns dL/d(z_raw); it has no columns when features are not
        consumed."""
        dx = self.fc1.backward(self.fc2.backward(ds[:, None]))
        self.embed.backward(dx[:, :self.aux_embed_dim])
        return dx[:, self.aux_embed_dim:]

    def params(self) -> list[Param]:
        return self.fc1.params() + self.fc2.params()


class _CtrNet:
    """The model of every variant: embeddings -> normalizer -> trunk (+ aux)
    -> logits.  The loss (``optim.bce_loss``) and the scorers apply the
    sigmoid.

    A model instance has a single writer during training (forward caches are
    instance state); after training, inference-mode calls are read-only.
    """

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        self.tables = make_tables(config)
        if config.normalizer == "ln":
            self.norm = LayerNorm(config.input_dim, config.epsilon)
        else:
            self.norm = PartitionedNorm(config.input_dim, config.num_domains,
                                        config.momentum, config.epsilon,
                                        per_domain=config.normalizer == "pn")
        self.fcn = StarFcn(config.input_dim, config.layer_widths,
                           config.num_domains,
                           rng=make_rng(config.seed, stream=20),
                           variant=config.variant)
        if config.aux_enabled:
            feature_dim = config.input_dim if config.aux_use_features else 0
            self.aux = AuxNet(config.num_domains, config.aux_embed_dim,
                              feature_dim, config.aux_hidden,
                              rng=make_rng(config.seed, stream=30))
        else:
            self.aux = None
        self._params = list(self.norm.params()) + self.fcn.params()
        if self.aux is not None:
            self._params += self.aux.params()
        # Owner order: shared parameters, then domain 1's, ..., domain M's,
        # so a step on domain p writes the two spans ``arena.spans(p)``.
        domains = [self.domain_params(p)
                   for p in range(1, config.num_domains + 1)]
        owned = {id(q) for group in domains for q in group}
        shared = [q for q in self._params if id(q) not in owned]
        self.arena = Arena(shared, domains, self.embedding_tables())
        self._mode: str | None = None   # the mode of the pending forward

    def forward(self, batch: Batch, mode: str = "train") -> np.ndarray:
        """The logits of ``batch``: trunk plus aux net, before the sigmoid.

        ``mode="train"`` normalizes by batch statistics and moves the moving
        statistics; ``"infer"`` uses the moving statistics.  Only a
        train-mode forward may be followed by ``backward``."""
        if mode not in ("train", "infer"):
            raise ConfigError(f"unknown mode {mode!r}")
        z = embed_and_pool(batch, self.tables)
        if mode == "train":
            zn = self.norm.forward_train(z, batch.domain)
        else:
            zn = self.norm.forward_infer(z, batch.domain)
        logits = self.fcn.forward(zn, batch.domain)
        if self.aux is not None:
            logits = logits + self.aux.forward(z, batch.domain)
        self._mode = mode
        return logits

    def backward(self, dlogits: np.ndarray):
        """Accumulate the gradients of the last forward's logits."""
        if self._mode is None:
            raise ContractViolation("model backward without forward")
        if self._mode != "train":
            raise ContractViolation("backward requires a train-mode forward")
        self._mode = None
        dz_aux = None if self.aux is None else self.aux.backward(dlogits)
        dzn = self.fcn.backward(dlogits)
        dz = self.norm.backward(dzn)
        if dz_aux is not None and dz_aux.shape[1]:
            dz = dz + dz_aux
        embed_backward(dz, self.tables, self.config.embed_dim)

    def params(self) -> list[Param]:
        """Every dense parameter: normalizer, trunk, then aux net."""
        return list(self._params)

    def embedding_tables(self) -> list[EmbeddingTable]:
        out = [self.tables[name] for name in FIELDS]
        if self.aux is not None:
            out.append(self.aux.embed)
        return out

    def zero_grad(self):
        self.arena.zero_grad()

    def domain_params(self, p: int) -> list[Param]:
        """Parameters that belong exclusively to domain p."""
        return self.norm.domain_params(p) + self.fcn.domain_params(p)


def build_model(config: ModelConfig) -> _CtrNet:
    return _CtrNet(config)
