"""Experiment configuration: flat key=value files with CLI overrides."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

from .datagen import (MAX_SIZE, bounded, format_fields, parse_fields,
                      parse_kv_text, read_config_text)
from .errors import ConfigError
from .model import ModelConfig


@dataclass
class ExperimentConfig(ModelConfig):
    """A model's settings and the settings that train it."""
    lr: float = bounded(0, open_low=True, default=0.001)
    batch_size: int = bounded(2, MAX_SIZE, default=1024)
    epochs: int = bounded(1, MAX_SIZE, default=1)
    # 0 means 50 * batch_size
    buffer_capacity: int = bounded(0, MAX_SIZE, default=0)

    def validate(self):
        """``ModelConfig.validate``, then: a batch fits an explicit buffer,
        checked before any data is read."""
        super().validate()
        if self.buffer_capacity and self.batch_size > self.buffer_capacity:
            raise ConfigError(f"batch_size {self.batch_size} exceeds buffer "
                              f"capacity {self.buffer_capacity}")

    @property
    def effective_buffer_capacity(self) -> int:
        return self.buffer_capacity or 50 * self.batch_size

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name)
                              for f in fields(ModelConfig)})


def parse_experiment_config(text: str,
                            overrides: dict[str, str] | None = None
                            ) -> ExperimentConfig:
    """The config of ``key=value`` text, with ``overrides`` applied; each
    key names an ExperimentConfig field (``datagen.parse_fields``)."""
    kv = parse_kv_text(text)
    if overrides:
        kv.update(overrides)
    config = ExperimentConfig(**parse_fields(ExperimentConfig, kv))
    if kv:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(kv)))
    config.validate()
    return config


def load_experiment_config(path: str,
                           overrides: dict[str, str] | None = None
                           ) -> ExperimentConfig:
    return parse_experiment_config(read_config_text(path), overrides)


def format_experiment_config(config: ExperimentConfig) -> str:
    return format_fields(config)


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(
        format_experiment_config(config).encode("utf-8")
    ).hexdigest()


def with_overrides(config: ExperimentConfig, **kwargs) -> ExperimentConfig:
    out = replace(config, **kwargs)
    out.validate()
    return out
