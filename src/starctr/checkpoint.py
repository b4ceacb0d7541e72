"""Versioned little-endian binary checkpoints.

Layout (all integers little-endian, all tensors raw float64 in C order):

    magic    4 bytes  b"STAR"
    version  u16      currently 1
    variant  u8       0=base, 1=shared_bottom, 2=star
    norm     u8       0=bn, 1=ln, 2=pn
    aux      u8       0=off, 1=aux with features, 2=aux without features
    pad      u8       0
    M        u32      number of domains
    embed_dim, aux_embed_dim, aux_hidden          u32 each
    vocab_items, vocab_profiles, vocab_contexts   u32 each
    n_layers u32, then layer widths               u32 each
    momentum f64, epsilon f64, seed u64

followed by tensor sections in this exact order:

    1. embedding tables: behavior, profile, item, context
       (vocab x embed_dim each)
    2. normalizer state
       bn: gamma, beta, populated u8, moving_mean, moving_var
       ln: gamma, beta
       pn: gamma, beta, then per domain p = 1..M:
           gamma_p, beta_p, populated u8, mean_p, var_p
    3. trunk: the shared stack if the variant has one (base, star), then
       the per-domain stacks p = 1..M if it has them (shared_bottom, star);
       per stack, per layer W then b
    4. aux (only when the aux flag is set): embed (M x aux_embed_dim),
       fc1.W, fc1.b, fc2.W, fc2.b

``load(save(model))`` reproduces every array bitwise.
"""

from __future__ import annotations

import io
import struct

import numpy as np

from .errors import CheckpointError, VersionError
from .layers import BatchNorm, LayerNorm
from .model import ModelConfig, build_model

MAGIC = b"STAR"
VERSION = 1
_VARIANT_CODE = {"base": 0, "shared_bottom": 1, "star": 2}
_NORM_CODE = {"bn": 0, "ln": 1, "pn": 2}
_VARIANT_NAME = {v: k for k, v in _VARIANT_CODE.items()}
_NORM_NAME = {v: k for k, v in _NORM_CODE.items()}
_AUX_CODES = (0, 1, 2)


def _write_array(buf, arr: np.ndarray):
    buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_array(buf, shape) -> np.ndarray:
    count = int(np.prod(shape))
    raw = buf.read(count * 8)
    if len(raw) != count * 8:
        raise CheckpointError("truncated tensor section")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _read_exact(buf, n: int) -> bytes:
    raw = buf.read(n)
    if len(raw) != n:
        raise CheckpointError("truncated header")
    return raw


def serialize(model) -> bytes:
    config = model.config
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<H", VERSION))
    aux_code = 0
    if config.aux_enabled:
        aux_code = 1 if config.aux_use_features else 2
    buf.write(struct.pack(
        "<BBBB", _VARIANT_CODE[config.variant], _NORM_CODE[config.normalizer],
        aux_code, 0,
    ))
    buf.write(struct.pack(
        "<IIIIIII", config.num_domains, config.embed_dim,
        config.aux_embed_dim, config.aux_hidden, config.vocab_items,
        config.vocab_profiles, config.vocab_contexts,
    ))
    buf.write(struct.pack("<I", len(config.layer_widths)))
    for w in config.layer_widths:
        buf.write(struct.pack("<I", w))
    buf.write(struct.pack("<ddQ", config.momentum, config.epsilon,
                          config.seed))

    for name in ("behavior", "profile", "item", "context"):
        _write_array(buf, model.tables[name].weights)

    norm = model.norm
    if isinstance(norm, BatchNorm):
        _write_array(buf, norm.gamma.value)
        _write_array(buf, norm.beta.value)
        buf.write(struct.pack("<B", 1 if norm.populated else 0))
        _write_array(buf, norm.moving_mean)
        _write_array(buf, norm.moving_var)
    elif isinstance(norm, LayerNorm):
        _write_array(buf, norm.gamma.value)
        _write_array(buf, norm.beta.value)
    else:
        _write_array(buf, norm.gamma.value)
        _write_array(buf, norm.beta.value)
        for i in range(config.num_domains):
            _write_array(buf, norm.domain_gamma[i].value)
            _write_array(buf, norm.domain_beta[i].value)
            buf.write(struct.pack("<B", 1 if norm.populated[i] else 0))
            _write_array(buf, norm.moving_mean[i])
            _write_array(buf, norm.moving_var[i])

    for stack in model.fcn.stacks():
        for layer in stack:
            _write_array(buf, layer.W.value)
            _write_array(buf, layer.b.value)

    if config.aux_enabled:
        _write_array(buf, model.aux.embed.weights)
        _write_array(buf, model.aux.fc1.W.value)
        _write_array(buf, model.aux.fc1.b.value)
        _write_array(buf, model.aux.fc2.W.value)
        _write_array(buf, model.aux.fc2.b.value)
    return buf.getvalue()


def deserialize(raw: bytes):
    buf = io.BytesIO(raw)
    if _read_exact(buf, 4) != MAGIC:
        raise CheckpointError("bad magic: not a model checkpoint")
    (version,) = struct.unpack("<H", _read_exact(buf, 2))
    if version != VERSION:
        raise VersionError(f"checkpoint version {version}, expected {VERSION}")
    var_code, norm_code, aux_flag, _ = struct.unpack("<BBBB", _read_exact(buf, 4))
    if var_code not in _VARIANT_NAME:
        raise CheckpointError(f"unknown variant code {var_code}")
    if norm_code not in _NORM_NAME:
        raise CheckpointError(f"unknown normalizer code {norm_code}")
    if aux_flag not in _AUX_CODES:
        raise CheckpointError(f"unknown aux code {aux_flag}")
    (m, embed_dim, aux_embed_dim, aux_hidden, vocab_items, vocab_profiles,
     vocab_contexts) = struct.unpack("<IIIIIII", _read_exact(buf, 28))
    (n_layers,) = struct.unpack("<I", _read_exact(buf, 4))
    widths = struct.unpack(f"<{n_layers}I", _read_exact(buf, 4 * n_layers))
    momentum, epsilon, seed = struct.unpack("<ddQ", _read_exact(buf, 24))

    config = ModelConfig(
        variant=_VARIANT_NAME[var_code],
        normalizer=_NORM_NAME[norm_code],
        aux_enabled=bool(aux_flag),
        aux_use_features=aux_flag == 1,
        num_domains=m,
        embed_dim=embed_dim,
        vocab_items=vocab_items,
        vocab_profiles=vocab_profiles,
        vocab_contexts=vocab_contexts,
        layer_widths=tuple(widths),
        aux_embed_dim=aux_embed_dim,
        aux_hidden=aux_hidden,
        momentum=momentum,
        epsilon=epsilon,
        seed=int(seed),
    )
    model = build_model(config)

    for name in ("behavior", "profile", "item", "context"):
        table = model.tables[name]
        table.weights = _read_array(buf, table.weights.shape)

    norm = model.norm
    dim = config.input_dim
    if isinstance(norm, BatchNorm):
        norm.gamma.value = _read_array(buf, (dim,))
        norm.beta.value = _read_array(buf, (dim,))
        norm.populated = bool(_read_exact(buf, 1)[0])
        norm.moving_mean = _read_array(buf, (dim,))
        norm.moving_var = _read_array(buf, (dim,))
    elif isinstance(norm, LayerNorm):
        norm.gamma.value = _read_array(buf, (dim,))
        norm.beta.value = _read_array(buf, (dim,))
    else:
        norm.gamma.value = _read_array(buf, (dim,))
        norm.beta.value = _read_array(buf, (dim,))
        for i in range(m):
            norm.domain_gamma[i].value = _read_array(buf, (dim,))
            norm.domain_beta[i].value = _read_array(buf, (dim,))
            norm.populated[i] = bool(_read_exact(buf, 1)[0])
            norm.moving_mean[i] = _read_array(buf, (dim,))
            norm.moving_var[i] = _read_array(buf, (dim,))

    for stack in model.fcn.stacks():
        for layer in stack:
            layer.W.value = _read_array(buf, layer.W.value.shape)
            layer.b.value = _read_array(buf, layer.b.value.shape)

    if config.aux_enabled:
        model.aux.embed.weights = _read_array(buf, (m, aux_embed_dim))
        model.aux.fc1.W.value = _read_array(buf, model.aux.fc1.W.value.shape)
        model.aux.fc1.b.value = _read_array(buf, model.aux.fc1.b.value.shape)
        model.aux.fc2.W.value = _read_array(buf, model.aux.fc2.W.value.shape)
        model.aux.fc2.b.value = _read_array(buf, model.aux.fc2.b.value.shape)
    if buf.read(1):
        raise CheckpointError("trailing bytes after checkpoint payload")
    return model


def save_model(model, path: str):
    with open(path, "wb") as fh:
        fh.write(serialize(model))


def load_model(path: str):
    with open(path, "rb") as fh:
        return deserialize(fh.read())
