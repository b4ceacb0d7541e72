"""Multi-domain CTR models: star-topology FCN, auxiliary net, and baselines.

The star model keeps one shared fully-connected stack plus one stack per
domain; domain p's effective layer weights are ``W_p * W`` (element-wise)
with bias ``b_p + b``.  Domain stacks start at ones/zeros so every domain
begins as the shared model and learns its deviation.  Shared parameters
receive gradients from every batch, domain parameters only from their own
domain's batches.

All variants share the same embedding front-end (one table per field, mean
pooling, concatenation), a configurable normalizer (bn / ln / pn), and an
optional auxiliary network that embeds the domain indicator, concatenates it
with the raw pooled features, and adds its scalar output to the main logit
before the sigmoid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .datagen import FIELDS, Dataset, Example, as_dataset
from .errors import ConfigError, ContractViolation
from .layers import (
    BatchNorm,
    EmbeddingTable,
    FcLayer,
    LayerNorm,
    Param,
    PartitionedNorm,
    relu,
    sigmoid,
    _acc,
)
from .tensor import add, hadamard, make_rng

VARIANTS = ("star", "base", "shared_bottom")
NORMALIZERS = ("bn", "ln", "pn")
# Strategies for combining shared and domain layer parameters.  Other
# combination functions are a plausible extension; only the element-wise
# product (with summed bias) is implemented.
COMBINE_STRATEGIES = ("elementwise_product",)


@dataclass
class ModelConfig:
    variant: str = "star"
    normalizer: str = "pn"
    aux_enabled: bool = True
    num_domains: int = 5
    embed_dim: int = 8
    vocab_items: int = 4000
    vocab_profiles: int = 1200
    vocab_contexts: int = 50
    layer_widths: tuple[int, ...] = (64, 32, 1)
    aux_embed_dim: int = 16
    aux_hidden: int = 16
    aux_use_features: bool = False
    embed_init_scale: float = 0.1
    combine: str = "elementwise_product"
    momentum: float = 0.01
    epsilon: float = 1e-5
    seed: int = 0

    @property
    def input_dim(self) -> int:
        return 4 * self.embed_dim

    def validate(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown model variant {self.variant!r}")
        if self.normalizer not in NORMALIZERS:
            raise ConfigError(f"unknown normalizer {self.normalizer!r}")
        if not self.layer_widths or self.layer_widths[-1] != 1:
            raise ConfigError(
                f"layer widths {self.layer_widths} must end in 1 (the logit)"
            )
        if self.num_domains < 1:
            raise ConfigError("num_domains must be >= 1")
        if self.combine not in COMBINE_STRATEGIES:
            raise ConfigError(
                f"unknown combination strategy {self.combine!r}; "
                f"implemented: {COMBINE_STRATEGIES}"
            )


class Batch(Dataset):
    """Rows of one domain, the unit of training and scoring; labels are
    float64 for the loss."""

    __slots__ = ("domain", "size")

    def __init__(self, rows: Dataset):
        if len(rows) == 0:
            raise ContractViolation("empty batch")
        domain = rows.p[0]
        if (rows.p != domain).any():
            raise ContractViolation(
                f"mixed-domain batch: domains {np.unique(rows.p).tolist()}"
            )
        super().__init__(rows.behavior_flat, rows.behavior_offsets,
                         rows.profile, rows.item, rows.context,
                         rows.y.astype(np.float64), rows.p)
        self.domain = int(domain)
        self.size = len(rows)

    @classmethod
    def from_examples(cls, examples: Dataset | Sequence[Example]) -> "Batch":
        return cls(as_dataset(examples))


def make_tables(config: ModelConfig) -> dict[str, EmbeddingTable]:
    """One embedding table per field (behavior and item index the item vocab)."""
    vocabs = {
        "behavior": config.vocab_items,
        "profile": config.vocab_profiles,
        "item": config.vocab_items,
        "context": config.vocab_contexts,
    }
    return {
        name: EmbeddingTable(vocabs[name], config.embed_dim,
                             rng=make_rng(config.seed, stream=10 + i),
                             init_scale=config.embed_init_scale, name=name)
        for i, name in enumerate(FIELDS)
    }


def embed_and_pool(batch: Batch, tables: dict[str, EmbeddingTable]) -> np.ndarray:
    """Mean-pool each field's embeddings and concatenate in field order."""
    n = batch.size
    single_offsets = np.arange(n + 1, dtype=np.int64)
    parts = [
        tables["behavior"].pool(batch.behavior_flat, batch.behavior_offsets),
        tables["profile"].pool(batch.profile, single_offsets),
        tables["item"].pool(batch.item, single_offsets),
        tables["context"].pool(batch.context, single_offsets),
    ]
    return np.concatenate(parts, axis=1)


def embed_backward(dz: np.ndarray, tables: dict[str, EmbeddingTable],
                   embed_dim: int):
    for i, name in enumerate(FIELDS):
        tables[name].backward(dz[:, i * embed_dim:(i + 1) * embed_dim])


def star_layer_params(w: np.ndarray, b: np.ndarray, w_p: np.ndarray,
                      b_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fuse shared and domain layer parameters: (w_p * w, b_p + b)."""
    return hadamard(w_p, w), add(b_p, b)


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
    """Shared stack plus M domain stacks fused by element-wise weight product."""

    def __init__(self, in_dim: int, widths: Sequence[int], num_domains: int,
                 rng, name: str = "fcn"):
        self.widths = tuple(widths)
        self.num_domains = num_domains
        self.shared = _build_stack(in_dim, widths, rng, f"{name}.shared")
        self.domain = [
            _build_stack(in_dim, widths, rng, f"{name}.d{p}", ones_init=True)
            for p in range(1, num_domains + 1)
        ]
        self._cache = None

    def forward(self, x: np.ndarray, p: int) -> np.ndarray:
        if not 1 <= p <= self.num_domains:
            raise ConfigError(f"domain {p} outside 1..{self.num_domains}")
        i = p - 1
        steps = []
        for sl, dl in zip(self.shared, self.domain[i]):
            w_star, b_star = star_layer_params(sl.W.value, sl.b.value,
                                               dl.W.value, dl.b.value)
            pre = x @ w_star + b_star
            out = relu(pre) if sl.activation == "relu" else pre
            steps.append((x, pre, w_star, sl, dl))
            x = out
        self._cache = steps
        return x[:, 0]

    def backward(self, ds: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ContractViolation("star fcn: backward without forward")
        upstream = ds[:, None]
        for x, pre, w_star, sl, dl in reversed(self._cache):
            dpre = upstream * (pre > 0) if sl.activation == "relu" else upstream
            d_wstar = x.T @ dpre
            d_bstar = dpre.sum(axis=0)
            _acc(sl.W, d_wstar * dl.W.value)
            _acc(dl.W, d_wstar * sl.W.value)
            _acc(sl.b, d_bstar)
            _acc(dl.b, d_bstar)
            upstream = dpre @ w_star.T
        self._cache = None
        return upstream

    def params(self) -> list[Param]:
        out = [p for layer in self.shared for p in layer.params()]
        for stack in self.domain:
            out.extend(p for layer in stack for p in layer.params())
        return out

    def domain_params(self, p: int) -> list[Param]:
        return [q for layer in self.domain[p - 1] for q in layer.params()]


class AuxNet:
    """Two-layer net over the domain embedding (optionally with raw pooled
    features concatenated) producing the scalar added to the main logit."""

    def __init__(self, num_domains: int, aux_embed_dim: int, feature_dim: int,
                 hidden: int, rng, name: str = "aux"):
        self.aux_embed_dim = aux_embed_dim
        self.feature_dim = feature_dim
        # Domain embeddings start spread out: domain identities are
        # separable by the body from the first step.
        self.embed = EmbeddingTable(num_domains, aux_embed_dim, rng=rng,
                                    init_scale=0.5, name=f"{name}.embed")
        self.fc1 = FcLayer(aux_embed_dim + feature_dim, hidden,
                           activation="relu", rng=rng, name=f"{name}.fc1")
        self.fc2 = FcLayer(hidden, 1, activation="identity", rng=rng,
                           name=f"{name}.fc2")
        self._cache = None

    def forward(self, z_raw: np.ndarray, p: int) -> np.ndarray:
        n = z_raw.shape[0]
        e = np.tile(self.embed.weights[p - 1], (n, 1))
        x = np.concatenate([e, z_raw], axis=1) if self.feature_dim else e
        s = self.fc2.forward(self.fc1.forward(x))[:, 0]
        self._cache = p
        return s

    def backward(self, ds: np.ndarray) -> np.ndarray:
        """Returns dL/d(z_raw); zeros when features are not consumed."""
        if self._cache is None:
            raise ContractViolation("aux net: backward without forward")
        p = self._cache
        dx = self.fc1.backward(self.fc2.backward(ds[:, None]))
        self.embed.add_row_grad(p - 1, dx[:, :self.aux_embed_dim].sum(axis=0))
        self._cache = None
        return dx[:, self.aux_embed_dim:]

    def params(self) -> list[Param]:
        return self.fc1.params() + self.fc2.params()


def _make_normalizer(config: ModelConfig):
    dim = config.input_dim
    if config.normalizer == "bn":
        return BatchNorm(dim, config.momentum, config.epsilon)
    if config.normalizer == "ln":
        return LayerNorm(dim, config.epsilon)
    return PartitionedNorm(dim, config.num_domains, config.momentum,
                           config.epsilon)


@dataclass
class ForwardState:
    s_main: np.ndarray
    s_aux: np.ndarray | None
    logits: np.ndarray
    mode: str
    domain: int


class _CtrNet:
    """Shared plumbing: embeddings -> normalizer -> trunk (+ aux) -> sigmoid.

    A model instance has a single writer during training (forward caches are
    instance state); after training, inference-mode calls are read-only.
    """

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        self.tables = make_tables(config)
        self.norm = _make_normalizer(config)
        self.aux_enabled = config.aux_enabled
        if config.aux_enabled:
            feature_dim = config.input_dim if config.aux_use_features else 0
            self.aux = AuxNet(config.num_domains, config.aux_embed_dim,
                              feature_dim, config.aux_hidden,
                              rng=make_rng(config.seed, stream=30))
        else:
            self.aux = None
        self.last_forward: ForwardState | None = None

    # Trunk hooks implemented by subclasses.
    def _trunk_forward(self, zn: np.ndarray, p: int) -> np.ndarray:
        raise NotImplementedError

    def _trunk_backward(self, ds: np.ndarray, p: int) -> np.ndarray:
        raise NotImplementedError

    def _trunk_params(self) -> list[Param]:
        raise NotImplementedError

    def _normalize(self, z, p, mode, update_stats):
        if isinstance(self.norm, PartitionedNorm):
            if mode == "train":
                return self.norm.forward_train(z, p, update_stats=update_stats)
            return self.norm.forward_infer(z, p)
        if mode == "train":
            return self.norm.forward_train(z, update_stats=update_stats)
        return self.norm.forward_infer(z)

    def forward(self, batch: Batch, mode: str = "train",
                update_stats: bool | None = None) -> np.ndarray:
        if mode not in ("train", "infer"):
            raise ConfigError(f"unknown mode {mode!r}")
        if update_stats is None:
            update_stats = mode == "train"
        z = embed_and_pool(batch, self.tables)
        zn = self._normalize(z, batch.domain, mode, update_stats)
        s_main = self._trunk_forward(zn, batch.domain)
        if self.aux is not None and self.aux_enabled:
            s_aux = self.aux.forward(z, batch.domain)
            logits = s_main + s_aux
        else:
            s_aux = None
            logits = s_main
        self.last_forward = ForwardState(s_main, s_aux, logits, mode,
                                         batch.domain)
        return sigmoid(logits)

    def backward(self, dlogits: np.ndarray):
        state = self.last_forward
        if state is None:
            raise ContractViolation("model backward without forward")
        if state.mode != "train":
            raise ContractViolation("backward requires a train-mode forward")
        dz_aux = None
        if state.s_aux is not None:
            dz_aux = self.aux.backward(dlogits)
        dzn = self._trunk_backward(dlogits, state.domain)
        dz = self.norm.backward(dzn)
        if dz_aux is not None and dz_aux.shape[1]:
            dz = dz + dz_aux
        embed_backward(dz, self.tables, self.config.embed_dim)
        self.last_forward = None

    def params(self) -> list[Param]:
        out = list(self.norm.params())
        out.extend(self._trunk_params())
        if self.aux is not None:
            out.extend(self.aux.params())
        return out

    def embedding_tables(self) -> list[EmbeddingTable]:
        out = [self.tables[name] for name in FIELDS]
        if self.aux is not None:
            out.append(self.aux.embed)
        return out

    def zero_grad(self):
        for p in self.params():
            p.zero_grad()
        for t in self.embedding_tables():
            t.zero_grad()

    def param_count(self) -> int:
        dense = sum(p.value.size for p in self.params())
        sparse = sum(t.weights.size for t in self.embedding_tables())
        return dense + sparse

    def domain_params(self, p: int) -> list[Param]:
        """Parameters that belong exclusively to domain p."""
        out = []
        if isinstance(self.norm, PartitionedNorm):
            out.extend(self.norm.domain_params(p))
        out.extend(self._trunk_domain_params(p))
        return out

    def _trunk_domain_params(self, p: int) -> list[Param]:
        return []


class StarModel(_CtrNet):
    def __init__(self, config: ModelConfig):
        if config.variant != "star":
            raise ConfigError(f"StarModel built with variant {config.variant!r}")
        super().__init__(config)
        self.fcn = StarFcn(config.input_dim, config.layer_widths,
                           config.num_domains,
                           rng=make_rng(config.seed, stream=20))

    def _trunk_forward(self, zn, p):
        return self.fcn.forward(zn, p)

    def _trunk_backward(self, ds, p):
        return self.fcn.backward(ds)

    def _trunk_params(self):
        return self.fcn.params()

    def _trunk_domain_params(self, p):
        return self.fcn.domain_params(p)


class BaselineModel(_CtrNet):
    """Base (one shared stack) or Shared Bottom (per-domain stacks)."""

    def __init__(self, config: ModelConfig):
        if config.variant not in ("base", "shared_bottom"):
            raise ConfigError(
                f"BaselineModel built with variant {config.variant!r}"
            )
        super().__init__(config)
        rng = make_rng(config.seed, stream=20)
        if config.variant == "base":
            self.stacks = [_build_stack(config.input_dim, config.layer_widths,
                                        rng, "fcn")]
        else:
            self.stacks = [
                _build_stack(config.input_dim, config.layer_widths, rng,
                             f"fcn.d{p}")
                for p in range(1, config.num_domains + 1)
            ]

    def _stack_for(self, p: int) -> list[FcLayer]:
        if self.config.variant == "base":
            return self.stacks[0]
        return self.stacks[p - 1]

    def _trunk_forward(self, zn, p):
        x = zn
        for layer in self._stack_for(p):
            x = layer.forward(x)
        return x[:, 0]

    def _trunk_backward(self, ds, p):
        upstream = ds[:, None]
        for layer in reversed(self._stack_for(p)):
            upstream = layer.backward(upstream)
        return upstream

    def _trunk_params(self):
        return [q for stack in self.stacks for layer in stack
                for q in layer.params()]

    def _trunk_domain_params(self, p):
        if self.config.variant == "base":
            return []
        return [q for layer in self.stacks[p - 1] for q in layer.params()]


def build_model(config: ModelConfig) -> _CtrNet:
    config.validate()
    if config.variant == "star":
        return StarModel(config)
    return BaselineModel(config)


def build_baseline(variant: str, config: ModelConfig) -> BaselineModel:
    if variant not in ("base", "shared_bottom"):
        raise ConfigError(f"unknown baseline variant {variant!r}")
    return BaselineModel(replace(config, variant=variant))

