"""Finite-difference validation for every backward pass in the package."""

from __future__ import annotations

import numpy as np

from .datagen import Example
from .layers import EmbeddingTable, FcLayer, LayerNorm, PartitionedNorm
from .model import Batch, ModelConfig, build_model
from .optim import bce_loss
from .tensor import grad_check, make_rng


# Layer checks perturb inputs as well as parameters: they pack both into one
# vector and scatter it back.  Each builds its layer, so gradients start at 0.
def _pack(arrays) -> np.ndarray:
    return np.concatenate([np.asarray(a).ravel() for a in arrays])


def _scatter(theta: np.ndarray, arrays):
    offset = 0
    for a in arrays:
        n = a.size
        np.copyto(a, theta[offset:offset + n].reshape(a.shape))
        offset += n


def check_fc_layer(h: float = 1e-5) -> float:
    rng = make_rng(11)
    layer = FcLayer(5, 3, activation="relu", rng=rng, name="fc")
    x = rng.normal(size=(4, 5))
    r = rng.normal(size=(4, 3))
    arrays = [x, layer.W.value, layer.b.value]
    theta0 = _pack(arrays)

    def f(theta):
        _scatter(theta, arrays)
        return float((layer.forward(x) * r).sum())

    _scatter(theta0, arrays)
    layer.forward(x)
    dx = layer.backward(r.copy())
    analytic = _pack([dx, layer.W.grad, layer.b.grad])
    return grad_check(f, theta0, analytic, h)


# (flat ids, offsets) for every input shape the pool sees: lists with repeated
# ids and an empty list, a batch whose lists are all empty, one id per example.
_EMBEDDING_CASES = (
    ([0, 2, 2, 5, 1, 4], [0, 3, 3, 4, 6]),
    ([], [0, 0, 0, 0]),
    ([6, 3, 3, 0, 5], [0, 1, 2, 3, 4, 5]),
)


def check_embedding(h: float = 1e-5) -> float:
    rng = make_rng(12)
    table = EmbeddingTable(7, 3, rng=rng, name="field")
    weights = table.weights
    theta0 = weights.ravel().copy()
    worst = 0.0
    for flat, offsets in _EMBEDDING_CASES:
        flat = np.array(flat, dtype=np.int64)
        offsets = np.array(offsets, dtype=np.int64)
        r = rng.normal(size=(offsets.size - 1, 3))

        def f(theta):
            weights[...] = theta.reshape(weights.shape)
            return float((table.pool(flat, offsets) * r).sum())

        weights[...] = theta0.reshape(weights.shape)
        table.zero_grad()
        table.pool(flat, offsets)
        table.backward(r.copy())
        worst = max(worst, grad_check(f, theta0, table.grad, h))
    return worst


def _check_norm(norm, h: float) -> float:
    """Max gradcheck error over the input and every param of ``norm``, run
    on domain 2 (of 3 for bn and pn)."""
    params = norm.params()
    rng = make_rng(13)
    x = rng.normal(1.5, 2.0, size=(6, 4))
    r = rng.normal(size=(6, 4))
    for p in params:
        p.value[:] = rng.normal(1.0, 0.3, size=p.value.shape)
    arrays = [x] + [p.value for p in params]
    theta0 = _pack(arrays)

    def f(theta):
        _scatter(theta, arrays)
        return float((norm.forward_train(x, 2) * r).sum())

    _scatter(theta0, arrays)
    norm.forward_train(x, 2)
    dx = norm.backward(r.copy())
    analytic = _pack([dx] + [p.grad for p in params])
    return grad_check(f, theta0, analytic, h)


def check_batchnorm(h: float = 1e-5) -> float:
    # bn is one partition that every domain maps to.
    return _check_norm(PartitionedNorm(4, num_domains=3, per_domain=False), h)


def check_layernorm(h: float = 1e-5) -> float:
    return _check_norm(LayerNorm(4), h)


def check_partitioned_norm(h: float = 1e-5) -> float:
    # The zero analytic gradients of domains 1 and 3 are checked against
    # zero numeric gradients.
    return _check_norm(PartitionedNorm(4, num_domains=3), h)


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


def check_model(config: ModelConfig, batch_size: int = 4,
                h: float = 1e-5) -> float:
    """End-to-end check of dL/d(theta) for every parameter of a model: the
    model's arena ``values`` are perturbed in place and ``grads`` hold the
    analytic gradient."""
    model = build_model(config)
    batch = random_examples(batch_size, config, domain=1)
    values = model.arena.values
    theta0 = values.copy()

    def loss_value():
        return bce_loss(model.forward(batch, mode="train"), batch.y)

    def f(theta):
        values[...] = theta
        return loss_value()[0]

    model.zero_grad()
    _, dlogits = loss_value()
    model.backward(dlogits)
    err = grad_check(f, theta0, model.arena.grads, h)
    values[...] = theta0
    return err


def run_all(h: float = 1e-5) -> dict[str, float]:
    """Max relative error per module; everything must come in under 1e-4."""
    results = {
        "fc_layer": check_fc_layer(h),
        "embedding": check_embedding(h),
        "batch_norm": check_batchnorm(h),
        "layer_norm": check_layernorm(h),
        "partitioned_norm": check_partitioned_norm(h),
        "star_pn_aux": check_model(tiny_model_config("star", "pn", True), h=h),
        "star_bn_aux": check_model(tiny_model_config("star", "bn", True), h=h),
        "star_ln_noaux": check_model(tiny_model_config("star", "ln", False), h=h),
        "base_bn_aux": check_model(tiny_model_config("base", "bn", True), h=h),
        "shared_bottom_pn_aux": check_model(
            tiny_model_config("shared_bottom", "pn", True), h=h),
    }
    return results
