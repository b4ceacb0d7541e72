"""Finite-difference validation for every backward pass in the package."""

from __future__ import annotations

import numpy as np

from .config import ModelConfig
from .data import Example
from .layers import (Arena, EmbeddingTable, FcLayer, LayerNorm, Param,
                     PartitionedNorm)
from .model import Batch, build_model
from .optim import bce_loss
from .tensor import grad_check, make_rng


# Central-difference step of every check.
H = 1e-5


def _check(arena: Arena, loss, backward) -> float:
    """Max relative error, over every value of ``arena``, of the gradient
    of ``loss()[0]``: ``backward(loss()[1])`` adds the analytic gradient
    into ``arena.grads``, zeroed first.  ``tensor.grad_check`` perturbs
    ``arena.values`` in place; they are restored after."""
    theta0 = arena.values.copy()

    def f(theta):
        arena.values[...] = theta
        return loss()[0]

    arena.zero_grad()
    backward(loss()[1])
    err = grad_check(f, theta0, arena.grads, H)
    arena.values[...] = theta0
    return err


def _weighted_sum(out: np.ndarray, r: np.ndarray):
    """The scalar ``sum(out * r)`` a layer check differentiates, and its
    gradient ``r`` with respect to ``out``."""
    return float((out * r).sum()), r.copy()


def check_fc_layer() -> float:
    """Checks the layer's params and its input, in one arena."""
    rng = make_rng(11)
    layer = FcLayer(5, 3, activation="relu", rng=rng, name="fc")
    x = Param("x", rng.normal(size=(4, 5)))
    r = rng.normal(size=(4, 3))
    arena = Arena([x] + layer.params())
    return _check(arena, lambda: _weighted_sum(layer.forward(x.value), r),
                  lambda dout: np.copyto(x.grad, layer.backward(dout)))


# (flat ids, offsets) for every input shape the pool sees: lists with repeated
# ids and an empty list, a batch whose lists are all empty, one id per example.
_EMBEDDING_CASES = (
    ([0, 2, 2, 5, 1, 4], [0, 3, 3, 4, 6]),
    ([], [0, 0, 0, 0]),
    ([6, 3, 3, 0, 5], [0, 1, 2, 3, 4, 5]),
)


def check_embedding() -> float:
    rng = make_rng(12)
    table = EmbeddingTable(7, 3, rng=rng, name="field")
    arena = Arena([], [], [table])
    worst = 0.0
    for flat, offsets in _EMBEDDING_CASES:
        flat = np.array(flat, dtype=np.int64)
        offsets = np.array(offsets, dtype=np.int64)
        r = rng.normal(size=(offsets.size - 1, 3))
        worst = max(worst, _check(
            arena, lambda: _weighted_sum(table.pool(flat, offsets), r),
            table.backward))
    return worst


def _check_norm(norm) -> float:
    """Max gradcheck error over the input and every param of ``norm``, run
    on domain 2 (of 3 for bn and pn)."""
    params = norm.params()
    rng = make_rng(13)
    x = Param("x", rng.normal(1.5, 2.0, size=(6, 4)))
    r = rng.normal(size=(6, 4))
    for p in params:
        p.value[:] = rng.normal(1.0, 0.3, size=p.value.shape)
    arena = Arena([x] + params)
    return _check(arena,
                  lambda: _weighted_sum(norm.forward_train(x.value, 2), r),
                  lambda dout: np.copyto(x.grad, norm.backward(dout)))


def check_batchnorm() -> float:
    # bn is one partition that every domain maps to.
    return _check_norm(PartitionedNorm(4, num_domains=3, per_domain=False))


def check_layernorm() -> float:
    return _check_norm(LayerNorm(4))


def check_partitioned_norm() -> float:
    # The zero analytic gradients of domains 1 and 3 are checked against
    # zero numeric gradients.
    return _check_norm(PartitionedNorm(4, num_domains=3))


def tiny_model_config(variant: str = "star", normalizer: str = "pn",
                      aux: bool = True) -> ModelConfig:
    return ModelConfig(
        variant=variant,
        normalizer=normalizer,
        aux_enabled=aux,
        num_domains=2,
        embed_dim=4,
        vocab_items=12,
        vocab_profiles=6,
        vocab_contexts=4,
        layer_widths=(8, 4, 1),
        aux_embed_dim=3,
        aux_hidden=5,
        seed=3,
    )


def random_examples(n: int, config: ModelConfig, domain: int,
                    seed: int = 5) -> Batch:
    """A batch of n random examples of one domain; the first has an empty
    behavior list."""
    rng = make_rng(seed, stream=domain)
    out = []
    for i in range(n):
        length = int(rng.integers(0, 4)) if i else 0  # first one empty
        out.append(Example(
            behavior=tuple(int(v) for v in
                           rng.integers(0, config.vocab_items, size=length)),
            profile=int(rng.integers(0, config.vocab_profiles)),
            item=int(rng.integers(0, config.vocab_items)),
            context=int(rng.integers(0, config.vocab_contexts)),
            y=int(rng.integers(0, 2)),
            p=domain,
        ))
    return Batch.from_examples(out)


def check_model(config: ModelConfig) -> float:
    """End-to-end check of dL/d(theta) for every parameter of a model, on
    the model's own arena and a batch of four examples."""
    model = build_model(config)
    batch = random_examples(4, config, domain=1)
    return _check(model.arena,
                  lambda: bce_loss(model.forward(batch, mode="train"),
                                   batch.y),
                  model.backward)


def run_all() -> dict[str, float]:
    """Max relative error per module; everything must come in under 1e-4."""
    return {
        "fc_layer": check_fc_layer(),
        "embedding": check_embedding(),
        "batch_norm": check_batchnorm(),
        "layer_norm": check_layernorm(),
        "partitioned_norm": check_partitioned_norm(),
        "star_pn_aux": check_model(tiny_model_config("star", "pn", True)),
        "star_bn_aux": check_model(tiny_model_config("star", "bn", True)),
        "star_ln_noaux": check_model(tiny_model_config("star", "ln", False)),
        "base_bn_aux": check_model(tiny_model_config("base", "bn", True)),
        "shared_bottom_pn_aux": check_model(
            tiny_model_config("shared_bottom", "pn", True)),
    }
