"""Settings: one field codec for every config file, the model's settings
(``ModelConfig``) and the experiment's (``ExperimentConfig``).

Config files are flat ``key=value`` text, one key per dataclass field
(``config_keys``), read by ``parse_fields`` and written by
``format_fields``; each value parses to the type of its field's default
(see ``field_parser``), and ``bounded`` declares a field's range, which
``check_fields`` checks.  Experiment configs take CLI overrides.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError

# Sizes past memory yet below numpy's limits, which end in a traceback.
MAX_SIZE = 10**9


def bounded(low, high=math.inf, *, open_low=False, key=None, **kwargs):
    """A dataclass field whose value ``check_fields`` keeps in [low, high],
    or in (low, high] if ``open_low``, and finite if a float.  ``key`` is
    the field's config key where it differs from the field name."""
    metadata = {"range": (low, high, open_low)}
    if key is not None:
        metadata["key"] = key
    return field(metadata=metadata, **kwargs)


def config_keys(cls) -> dict:
    """Each config key of dataclass ``cls`` and its field, in field order:
    the field's ``key`` metadata, else its name; a ``key`` of None marks a
    field that is not a config key."""
    keys = ((f.metadata.get("key", f.name), f) for f in fields(cls))
    return {key: f for key, f in keys if key is not None}


def _rule(value, low, high, open_low) -> str:
    """What ``value`` must be to lie in a field's declared range."""
    rule = [] if isinstance(value, int) else ["finite"]
    if high < math.inf:
        rule.append(f"in {'(' if open_low else '['}{low}, {high}]")
    elif low > -math.inf:
        rule.append(f"{'>' if open_low else '>='} {low}")
    return " and ".join(rule)


def check_fields(config, prefix: str = ""):
    """Raise ConfigError, naming ``prefix`` and the config key, for the
    first field of ``config`` outside the range it declares (``bounded``);
    a float must also be finite."""
    for key, f in config_keys(type(config)).items():
        if "range" not in f.metadata:
            continue
        low, high, open_low = f.metadata["range"]
        value = getattr(config, f.name)
        if not ((isinstance(value, int) or math.isfinite(value))
                and (low < value if open_low else low <= value)
                and value <= high):
            raise ConfigError(f"{prefix}{key} must be "
                              f"{_rule(value, low, high, open_low)}, "
                              f"got {value!r}")


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(value)


def _parse_ints(value: str) -> tuple[int, ...]:
    return tuple(int(t) for t in value.split(","))


def _parse_floats(value: str) -> np.ndarray | None:
    return np.array([float(t) for t in value.split(",")]) if value else None


_PARSE_TYPE = {bool: _parse_bool, tuple: _parse_ints}


def field_parser(f):
    """The parser of a config value for dataclass field ``f``: comma-separated
    floats for a "vector" field, a float for a field with no default, else
    the type of the default (a bool as true/false, a tuple as ints)."""
    if f.metadata.get("vector"):
        return _parse_floats
    if f.default is MISSING:
        return float
    kind = type(f.default)
    return _PARSE_TYPE.get(kind, kind)


def format_field(value) -> str:
    """A config value as the text ``field_parser`` reads back."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (tuple, np.ndarray)):
        return ",".join(map(format_field, np.asarray(value).tolist()))
    return str(value)


def parse_value(key: str, raw: str, parse):
    """``parse(raw)``, with a ValueError reported as a bad value for ``key``."""
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None


def read_config_text(path: str) -> str:
    """A config file's text; one that is not UTF-8 is a ConfigError naming
    the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 ({exc.reason} at byte "
                          f"{exc.start})") from None


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse ``key=value`` lines; '#' starts a comment, blanks ignored, and
    a key set twice is an error."""
    out: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        if key in set_on:
            raise ConfigError(f"line {lineno}: key {key!r} already set on "
                              f"line {set_on[key]}")
        set_on[key] = lineno
        out[key] = value.strip()
    return out


def parse_fields(cls, kv: dict[str, str], prefix: str = "") -> dict:
    """Keyword arguments of dataclass ``cls``: each field's value at key
    ``<prefix><config key>`` of ``kv``, parsed by ``field_parser`` and
    removed from ``kv``; a field with no default and no key is missing."""
    out = {}
    for key, f in config_keys(cls).items():
        key = prefix + key
        if key in kv:
            out[f.name] = parse_value(key, kv.pop(key), field_parser(f))
        elif f.default is MISSING:
            raise ConfigError(f"{key} missing")
    return out


def format_fields(config, prefix: str = "") -> str:
    """``<prefix><config key>=<value>`` lines of every field of ``config``
    that is not None, in field order; ``parse_fields`` reads them back."""
    return "".join(f"{prefix}{key}={format_field(value)}\n"
                   for key, f in config_keys(type(config)).items()
                   if (value := getattr(config, f.name)) is not None)


# The trunk factors each variant holds: (shared stack, per-domain stacks).
TRUNK_FACTORS = {
    "star": (True, True),
    "base": (True, False),
    "shared_bottom": (False, True),
}
VARIANTS = tuple(TRUNK_FACTORS)
NORMALIZERS = ("bn", "ln", "pn")


@dataclass
class ModelConfig:
    """A model's settings.  Field names and order are the checkpoint
    header's; ``key`` metadata names a config-file key that differs."""
    variant: str = "star"
    normalizer: str = "pn"
    aux_enabled: bool = field(default=True, metadata={"key": "aux"})
    num_domains: int = bounded(1, MAX_SIZE, default=5, key="domains")
    embed_dim: int = bounded(1, MAX_SIZE, default=8)
    vocab_items: int = bounded(1, MAX_SIZE, default=4000)
    vocab_profiles: int = bounded(1, MAX_SIZE, default=1200)
    vocab_contexts: int = bounded(1, MAX_SIZE, default=50)
    layer_widths: tuple[int, ...] = field(default=(64, 32, 1),
                                          metadata={"key": "layers"})
    aux_embed_dim: int = bounded(1, MAX_SIZE, default=16)
    aux_hidden: int = bounded(1, MAX_SIZE, default=16)
    aux_use_features: bool = False
    embed_init_scale: float = bounded(0, default=0.1)
    momentum: float = bounded(0, 1, default=0.01)
    epsilon: float = bounded(0, open_low=True, default=1e-5)
    seed: int = bounded(0, default=0)

    @property
    def input_dim(self) -> int:
        return 4 * self.embed_dim

    def param_count(self) -> int:
        """Floats in a model's trainable arrays: the embedding tables, the
        normalizer's affine, the trunk's stacks and the aux net."""
        dims = (self.input_dim,) + self.layer_widths
        has_shared, has_domain = TRUNK_FACTORS[self.variant]
        stacks = has_shared + has_domain * self.num_domains
        affines = 1 + self.num_domains if self.normalizer == "pn" else 1
        aux_in = self.aux_embed_dim + self.input_dim * self.aux_use_features
        aux = (self.num_domains * self.aux_embed_dim
               + (aux_in + 2) * self.aux_hidden + 1)
        return (sum(field_vocabs(self).values()) * self.embed_dim
                + stacks * sum(a * b + b for a, b in zip(dims, dims[1:]))
                + 2 * self.input_dim * affines + aux * self.aux_enabled)

    def validate(self):
        check_fields(self)
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown model variant {self.variant!r}")
        if self.normalizer not in NORMALIZERS:
            raise ConfigError(f"unknown normalizer {self.normalizer!r}")
        widths = self.layer_widths
        if not (widths and widths[-1] == 1
                and all(1 <= w <= MAX_SIZE for w in widths)):
            raise ConfigError(f"layers must end in 1 (the logit), each width "
                              f"in [1, {MAX_SIZE}], got {widths}")


def field_vocabs(config: ModelConfig) -> dict[str, int]:
    """Vocabulary size per field, in field order (behavior and item index
    the item vocab)."""
    return {
        "behavior": config.vocab_items,
        "profile": config.vocab_profiles,
        "item": config.vocab_items,
        "context": config.vocab_contexts,
    }


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
    key names an ExperimentConfig field (``parse_fields``)."""
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
