"""Checkpoints: a model's arrays in the tensor container with
``kind="model"``, named as the ``container`` docstring lists them.
``deserialize(serialize(model))`` reproduces every array bitwise.
"""

from __future__ import annotations

from pathlib import Path

from .config import ModelConfig
from .container import pack, unpack
from .data import write_atomic
from .model import build_model


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
