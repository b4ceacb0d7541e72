"""Experiment configuration: flat key=value files with CLI overrides."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

from .datagen import field_parser, format_field, parse_kv_text, parse_value
from .errors import ConfigError
from .model import ModelConfig


@dataclass
class ExperimentConfig:
    variant: str = "star"
    normalizer: str = "pn"
    aux: bool = True
    layers: tuple[int, ...] = (64, 32, 1)
    embed_dim: int = 8
    aux_embed_dim: int = 16
    aux_hidden: int = 16
    aux_use_features: bool = False
    embed_init_scale: float = 0.1
    domains: int = 5
    lr: float = 0.001
    batch_size: int = 1024
    epochs: int = 1
    seed: int = 0
    buffer_capacity: int = 0        # 0 means 50 * batch_size
    momentum: float = 0.01
    epsilon: float = 1e-5
    vocab_items: int = 4000
    vocab_profiles: int = 1200
    vocab_contexts: int = 50

    def validate(self):
        """Check the training settings here and the model's in
        ``ModelConfig.validate``."""
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr!r}")
        self.model_config().validate()

    @property
    def effective_buffer_capacity(self) -> int:
        return self.buffer_capacity or 50 * self.batch_size

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{
            f.name: getattr(self, _MODEL_KEYS.get(f.name, f.name))
            for f in fields(ModelConfig)})


# The ModelConfig fields whose config key is spelled differently.
_MODEL_KEYS = {"aux_enabled": "aux", "num_domains": "domains",
               "layer_widths": "layers"}
_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def parse_experiment_config(text: str,
                            overrides: dict[str, str] | None = None
                            ) -> ExperimentConfig:
    """The config of ``key=value`` text, with ``overrides`` applied; each
    key is an ExperimentConfig field and parses by ``field_parser``."""
    kv = parse_kv_text(text)
    if overrides:
        kv.update(overrides)
    unknown = sorted(k for k in kv if k not in _FIELDS)
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    config = ExperimentConfig(**{
        key: parse_value(key, raw, field_parser(_FIELDS[key]))
        for key, raw in kv.items()})
    config.validate()
    return config


def load_experiment_config(path: str,
                           overrides: dict[str, str] | None = None
                           ) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_experiment_config(fh.read(), overrides)


def format_experiment_config(config: ExperimentConfig) -> str:
    return "".join(f"{f.name}={format_field(getattr(config, f.name))}\n"
                   for f in fields(config))


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(
        format_experiment_config(config).encode("utf-8")
    ).hexdigest()


def with_overrides(config: ExperimentConfig, **kwargs) -> ExperimentConfig:
    out = replace(config, **kwargs)
    out.validate()
    return out
