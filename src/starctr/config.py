"""Experiment configuration: flat key=value files with CLI overrides."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

from .datagen import parse_kv_text
from .errors import ConfigError
from .model import ModelConfig, NORMALIZERS, VARIANTS


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


def _parse_widths(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in value.split(",") if t.strip())
    except ValueError:
        raise ConfigError(f"bad layer widths {value!r}") from None


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
    train_data: str = ""
    eval_data: str = ""

    def validate(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.normalizer not in NORMALIZERS:
            raise ConfigError(f"unknown normalizer {self.normalizer!r}")
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
        return ModelConfig(
            variant=self.variant,
            normalizer=self.normalizer,
            aux_enabled=self.aux,
            num_domains=self.domains,
            embed_dim=self.embed_dim,
            vocab_items=self.vocab_items,
            vocab_profiles=self.vocab_profiles,
            vocab_contexts=self.vocab_contexts,
            layer_widths=self.layers,
            aux_embed_dim=self.aux_embed_dim,
            aux_hidden=self.aux_hidden,
            aux_use_features=self.aux_use_features,
            embed_init_scale=self.embed_init_scale,
            momentum=self.momentum,
            epsilon=self.epsilon,
            seed=self.seed,
        )


_PARSERS = {
    "variant": str,
    "normalizer": str,
    "aux": _parse_bool,
    "layers": _parse_widths,
    "embed_dim": int,
    "aux_embed_dim": int,
    "aux_hidden": int,
    "aux_use_features": _parse_bool,
    "embed_init_scale": float,
    "domains": int,
    "lr": float,
    "batch_size": int,
    "epochs": int,
    "seed": int,
    "buffer_capacity": int,
    "momentum": float,
    "epsilon": float,
    "vocab_items": int,
    "vocab_profiles": int,
    "vocab_contexts": int,
    "train_data": str,
    "eval_data": str,
}


def parse_experiment_config(text: str,
                            overrides: dict[str, str] | None = None
                            ) -> ExperimentConfig:
    kv = parse_kv_text(text)
    if overrides:
        kv.update(overrides)
    unknown = sorted(k for k in kv if k not in _PARSERS)
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    values = {}
    for key, raw in kv.items():
        try:
            values[key] = _PARSERS[key](raw)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"bad value for {key}: {raw!r}") from None
    config = ExperimentConfig(**values)
    config.validate()
    return config


def load_experiment_config(path: str,
                           overrides: dict[str, str] | None = None
                           ) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_experiment_config(fh.read(), overrides)


def format_experiment_config(config: ExperimentConfig) -> str:
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "layers":
            value = ",".join(str(w) for w in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(
        format_experiment_config(config).encode("utf-8")
    ).hexdigest()


def with_overrides(config: ExperimentConfig, **kwargs) -> ExperimentConfig:
    out = replace(config, **kwargs)
    out.validate()
    return out
