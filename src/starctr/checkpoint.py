"""The one tensor container: checkpoints and folded models.

A trained checkpoint and a folded serving model are the same kind of file,
laid out after safetensors (https://github.com/huggingface/safetensors):

    magic        4 bytes  b"STAR"
    version      u16      little-endian, currently 2
    pad          u16      0
    header_len   u64      little-endian, a multiple of 8
    header       header_len bytes of UTF-8 JSON, padded with spaces
    payload      the tensors, raw little-endian float64 in C order

The header is one JSON object with exactly these keys:

    kind     "model" (a checkpoint) or "folded" (a folded serving model)
    config   every ``ModelConfig`` field by name; layer_widths is a list
    tensors  name -> {"dtype": "<f8", "shape": [...], "offset": n}, the
             offset in bytes from the start of the payload
    sha256   hex digest of the payload

Header and payload start on 8-byte boundaries, and every tensor is a
whole number of f8, so each tensor is 8-byte aligned.  The tensors tile
the payload exactly: no gap, no overlap, no trailing byte.

Tensor names, ``kind=model``: each embedding table under its
``EmbeddingTable.name`` (behavior, profile, item, context, aux.embed),
then each trainable array under its ``Param.name`` (pn.gamma, pn.d1.beta,
fcn.shared.0.W, fcn.d2.1.b, aux.fc1.W, ...), then for bn and pn the moving
statistics ``<norm>.moving_mean``, ``<norm>.moving_var`` and
``<norm>.populated`` (1.0 populated, 0.0 not), one row per partition: M
for pn, 1 for bn, so bn stores shapes (1, dim) and (1,).

Tensor names, ``kind=folded``: ``embed.<field>`` per embedding table;
per domain p = 1..M and trunk layer i, ``d<p>.<i>.W`` and ``d<p>.<i>.b``,
domain p's ReLU network with the frozen normalization affine (bn, pn) or
ln's gamma and beta folded into layer 0 and a feature-free aux net's
output into the last bias; with an aux net over the features, its two
layers ``d<p>.aux.<i>.W`` and ``d<p>.aux.<i>.b`` (i = 0, 1).

Reading checks everything above and raises ``CheckpointError`` (a
``VersionError`` for another version) on the first mismatch; the config
must also pass ``ModelConfig.validate`` and every tensor must have the name
and shape the config implies, and a checkpoint's payload is checked to
hold the floats its config implies before any model is built.  Files are
written to ``<path>.tmp`` and moved into place, so a failed write leaves
the previous file as it was.
``deserialize(serialize(model))`` reproduces every array bitwise.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields
from pathlib import Path
from typing import Callable

import numpy as np

from .config import ModelConfig
from .data import write_atomic
from .errors import CheckpointError, ConfigError, VersionError
from .model import build_model

MAGIC = b"STAR"
VERSION = 2
_PREFIX = 16
_DTYPE = "<f8"
_HEADER_KEYS = {"kind", "config", "tensors", "sha256"}
_CONFIG_TYPES = {f.name: type(f.default) for f in fields(ModelConfig)}


def _config_to_json(config: ModelConfig) -> dict:
    out = {}
    for name, kind in _CONFIG_TYPES.items():
        value = getattr(config, name)
        out[name] = [int(w) for w in value] if kind is tuple else kind(value)
    return out


def _config_from_json(raw) -> ModelConfig:
    if not isinstance(raw, dict):
        raise CheckpointError("header config is not an object")
    missing = sorted(set(_CONFIG_TYPES) - set(raw))
    unknown = sorted(set(raw) - set(_CONFIG_TYPES))
    if missing or unknown:
        raise CheckpointError(f"config keys do not match ModelConfig: "
                              f"missing {missing}, unknown {unknown}")
    values = {}
    for name, kind in _CONFIG_TYPES.items():
        value = raw[name]
        if (kind is tuple and isinstance(value, list)
                and all(type(w) is int for w in value)):
            value = tuple(value)
        if type(value) is not kind:
            raise CheckpointError(
                f"config {name}: expected {kind.__name__}, got {raw[name]!r}")
        values[name] = value
    config = ModelConfig(**values)
    try:
        config.validate()
    except ConfigError as exc:
        raise CheckpointError(f"config: {exc}") from None
    return config


def pack(kind: str, config: ModelConfig,
         tensors: dict[str, np.ndarray]) -> bytes:
    """The container bytes of named tensors, in the given order."""
    entries, blobs, offset = {}, [], 0
    for name, value in tensors.items():
        arr = np.asarray(value, dtype=_DTYPE)
        entries[name] = {"dtype": _DTYPE, "shape": list(arr.shape),
                         "offset": offset}
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    payload = b"".join(blobs)
    header = json.dumps({
        "kind": kind,
        "config": _config_to_json(config),
        "tensors": entries,
        "sha256": hashlib.sha256(payload).hexdigest(),
    }, separators=(",", ":")).encode("utf-8")
    header += b" " * (-len(header) % 8)
    return (MAGIC + VERSION.to_bytes(2, "little") + bytes(2)
            + len(header).to_bytes(8, "little") + header + payload)


def _spans(entries, payload_size: int) -> dict[str, tuple[tuple, int]]:
    """Check the tensor table against the payload; name -> (shape, offset)."""
    if not isinstance(entries, dict):
        raise CheckpointError("header tensors is not an object")
    spans = {}
    for name, e in entries.items():
        if not (isinstance(e, dict) and set(e) == {"dtype", "shape", "offset"}
                and e["dtype"] == _DTYPE and isinstance(e["shape"], list)
                and all(type(d) is int and d >= 0 for d in e["shape"])
                and type(e["offset"]) is int and e["offset"] >= 0):
            raise CheckpointError(f"tensor {name}: bad entry {e!r}")
        spans[name] = (tuple(e["shape"]), e["offset"])
    end = 0
    for offset, nbytes, name in sorted(
            (offset, 8 * math.prod(shape), name)
            for name, (shape, offset) in spans.items()):
        if offset + nbytes > payload_size:
            raise CheckpointError(f"tensor {name}: bytes {offset}.."
                                  f"{offset + nbytes} past the payload "
                                  f"({payload_size} bytes)")
        if offset % 8:
            raise CheckpointError(f"tensor {name}: offset {offset} not "
                                  "8-byte aligned")
        if offset < end:
            raise CheckpointError(f"tensor {name}: overlaps the tensor "
                                  f"before it (offset {offset} < {end})")
        if offset > end:
            raise CheckpointError(f"payload bytes {end}..{offset} belong "
                                  "to no tensor")
        end = offset + nbytes
    if end != payload_size:
        raise CheckpointError(f"payload bytes {end}..{payload_size} belong "
                              "to no tensor")
    return spans


def unpack(raw: bytes, kind: str, assemble: Callable,
           floats: Callable[[ModelConfig], int] | None = None):
    """Check container bytes and return ``assemble(config, take)``.

    ``take(name, shape)`` hands out the tensor ``name`` (a new float64
    array) once; a tensor ``assemble`` does not take is an error.  So is a
    payload of fewer than ``floats(config)`` floats, before ``assemble``
    runs: an edited header cannot make it allocate past the file's size.
    """
    if raw[:4] != MAGIC:
        raise CheckpointError("bad magic: not a starctr model file")
    if len(raw) < _PREFIX:
        raise CheckpointError("truncated header")
    version = int.from_bytes(raw[4:6], "little")
    if version != VERSION:
        raise VersionError(f"file format version {version}, expected "
                           f"{VERSION}")
    header_len = int.from_bytes(raw[8:16], "little")
    if header_len > len(raw) - _PREFIX:
        raise CheckpointError(f"header length {header_len} past the end of "
                              f"the file ({len(raw)} bytes)")
    if header_len % 8:
        raise CheckpointError(f"header length {header_len} is not a "
                              "multiple of 8")
    try:
        header = json.loads(raw[_PREFIX:_PREFIX + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # incl. UnicodeDecodeError
        raise CheckpointError(f"header is not valid JSON: {exc}") from None
    if not isinstance(header, dict) or set(header) != _HEADER_KEYS:
        raise CheckpointError(f"header must hold exactly the keys "
                              f"{sorted(_HEADER_KEYS)}")
    if header["kind"] != kind:
        raise CheckpointError(f"file holds kind {header['kind']!r}, "
                              f"expected {kind!r}")
    config = _config_from_json(header["config"])
    payload = memoryview(raw)[_PREFIX + header_len:]
    spans = _spans(header["tensors"], len(payload))
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise CheckpointError("payload sha256 does not match the header")
    if floats is not None and 8 * floats(config) > len(payload):
        raise CheckpointError(
            f"the config implies {floats(config)} floats but the payload "
            f"holds {len(payload) // 8}: missing tensors or a config that "
            "does not match them")

    def take(name: str, shape) -> np.ndarray:
        if name not in spans:
            raise CheckpointError(f"missing tensor {name}")
        stored, offset = spans.pop(name)
        if stored != tuple(shape):
            raise CheckpointError(f"tensor {name}: shape {list(stored)}, "
                                  f"the config implies {list(shape)}")
        return np.frombuffer(payload, _DTYPE, math.prod(stored),
                             offset).reshape(stored).astype(np.float64)

    out = assemble(config, take)
    if spans:
        raise CheckpointError(f"unknown tensors: {', '.join(sorted(spans))}")
    return out


def _model_arrays(model) -> list[tuple[str, object, str]]:
    """(tensor name, owner, attribute) of every array a model stores."""
    out = [(t.name, t, "weights") for t in model.embedding_tables()]
    out += [(p.name, p, "value") for p in model.params()]
    if model.config.normalizer != "ln":
        out += [(f"{model.norm.name}.{attr}", model.norm, attr)
                for attr in ("moving_mean", "moving_var", "populated")]
    return out


def _model_floats(config: ModelConfig) -> int:
    """Floats in a checkpoint: the trainable arrays, then each bn/pn
    partition's moving mean, moving variance and populated flag."""
    partitions = {"ln": 0, "bn": 1, "pn": config.num_domains}
    return (config.param_count()
            + partitions[config.normalizer] * (2 * config.input_dim + 1))


def serialize(model) -> bytes:
    return pack("model", model.config,
                {name: getattr(owner, attr)
                 for name, owner, attr in _model_arrays(model)})


def _assemble_model(config: ModelConfig, take):
    """Build the model and fill each array in place: trainable arrays are
    views of the model's parameter arena and must stay so.  A nonzero
    ``populated`` value reads as True."""
    model = build_model(config)
    for name, owner, attr in _model_arrays(model):
        array = getattr(owner, attr)
        array[...] = take(name, array.shape)
    return model


def deserialize(raw: bytes):
    return unpack(raw, "model", _assemble_model, _model_floats)


def save_model(model, path: str):
    write_atomic(path, serialize(model))


def load_model(path: str):
    return deserialize(Path(path).read_bytes())
