"""Synthetic multi-domain CTR data with controllable commonality/distinction.

Ground truth is logistic in latent ID factors: every vocabulary entry carries
a hidden factor vector, an example's feature vector is the concatenation of
its pooled field factors, and the click probability for domain p is

    sigmoid(w_shared . phi(x) + alpha_p * w_p . phi(x) + bias_p)

``alpha_p`` (the profile's ``specificity``) blends shared and domain-specific
label functions, ``feature_shift`` tilts which IDs each domain samples (so
domains have genuinely different input distributions), and ``bias_p`` is
calibrated by bisection so the realized CTR hits the profile's target.

The examples come back as a ``data.Dataset``; ``generate`` also writes them
in the dataset text format.  A generator config file holds "domains" (the
number of profiles), the ``GenConfig`` keys and ``domain.<i>.<key>`` for
each ``DomainProfile`` key, read and written by the field codec of
``config``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import (MAX_SIZE, bounded, check_fields, config_keys,
                     format_fields, parse_fields, parse_kv_text, parse_value,
                     read_config_text)
from .data import Dataset, _flat_rows, write_dataset
# perfbench traces these as datagen.<name> and imports read_dataset from here.
from .data import parse_example, read_dataset, validate_ids  # noqa: F401
from .errors import CalibrationError, ConfigError
from .layers import mean_pool, sigmoid
from .tensor import make_rng


@dataclass
class DomainProfile:
    traffic_share: float = bounded(0, 1)
    # No declared range: validate raises CalibrationError outside (0, 1).
    base_ctr: float
    specificity: float = bounded(-math.inf, default=0.6)
    # A "vector" field's config value is comma-separated floats.
    feature_shift: np.ndarray | None = field(default=None,
                                             metadata={"vector": True})


@dataclass
class GenConfig:
    profiles: list[DomainProfile] = field(metadata={"key": None})
    n_examples: int = bounded(0, MAX_SIZE, default=200_000, key="examples")
    seed: int = bounded(0, default=0)
    # -1: reuse seed; set differently for a holdout
    sample_seed: int = bounded(-1, default=-1)
    latent_dim: int = bounded(1, MAX_SIZE, default=8)
    vocab_items: int = bounded(1, MAX_SIZE, default=4000)
    vocab_profiles: int = bounded(1, MAX_SIZE, default=1200)
    vocab_contexts: int = bounded(1, MAX_SIZE, default=50)
    behavior_mean_len: float = bounded(0, MAX_SIZE, default=4.0)
    behavior_max_len: int = bounded(0, MAX_SIZE, default=10)
    shared_weight_scale: float = bounded(0, default=0.35)
    domain_weight_scale: float = bounded(0, default=0.5)
    # Constant added to every shared-weight coordinate: puts part of the label
    # signal on the overall feature intensity (the row mean), mimicking an
    # "engagement level" effect.
    weight_mean_shift: float = bounded(-math.inf, default=0.15)
    # Rank of the per-domain deviation weights.  0 draws each domain's
    # deviation independently; r > 0 draws them from a shared r-dimensional
    # subspace (domains deviate in related directions, as related business
    # domains do), scaled to keep the same total deviation energy.  At most
    # 4 * latent_dim, the dimension of the space.
    domain_rank: int = bounded(0, default=2)

    @property
    def num_domains(self) -> int:
        return len(self.profiles)

    @property
    def effective_sample_seed(self) -> int:
        return self.seed if self.sample_seed < 0 else self.sample_seed

    def validate(self):
        """Raise ConfigError, naming the config file key, for a value out of
        range (CalibrationError for a base_ctr outside (0, 1))."""
        if not self.profiles:
            raise ConfigError("at least one domain profile required")
        check_fields(self)
        if self.domain_rank > 4 * self.latent_dim:
            raise ConfigError(f"domain_rank must be <= 4 * latent_dim = "
                              f"{4 * self.latent_dim}, got {self.domain_rank}")
        for i, p in enumerate(self.profiles, start=1):
            check_fields(p, f"domain.{i}.")
        shares = np.array([p.traffic_share for p in self.profiles])
        if abs(shares.sum() - 1.0) > 1e-9:
            raise ConfigError(f"traffic shares sum to {shares.sum()}, not 1")
        for i, p in enumerate(self.profiles, start=1):
            if not 0.0 < p.base_ctr < 1.0:
                raise CalibrationError(
                    f"domain {i}: base_ctr {p.base_ctr} outside (0, 1)"
                )
            shift = p.feature_shift
            if shift is not None and (len(shift) != self.latent_dim
                                      or not np.isfinite(shift).all()):
                raise ConfigError(
                    f"domain.{i}.feature_shift must be {self.latent_dim} "
                    f"(latent_dim) finite floats, got "
                    f"{np.asarray(shift, dtype=float).tolist()}"
                )


# Percentages and CTRs follow the heterogeneity of real display-ad domains:
# shares span ~5x, CTRs span ~10x (including the 1.27% and 12.03% extremes,
# which sit on the smaller domains as they do in real traffic).
_DEFAULT_SHARES = (0.2876, 0.1676, 0.1216, 0.1000, 0.0585)
_DEFAULT_CTRS = (0.0375, 0.0324, 0.0214, 0.1203, 0.0127)


def default_profiles(num_domains: int = 5,
                     latent_dim: int = 8) -> list[DomainProfile]:
    """Heterogeneous domain profiles with distinct latent shift directions,
    each of norm 2."""
    rng = make_rng(0, stream=7)
    raw = np.array([_DEFAULT_SHARES[i % len(_DEFAULT_SHARES)] * (1.0 + i // 5)
                    for i in range(num_domains)])
    shares = raw / raw.sum()
    profiles = []
    for i in range(num_domains):
        shift = rng.normal(size=latent_dim)
        shift *= 2.0 / np.linalg.norm(shift)
        profiles.append(DomainProfile(
            traffic_share=float(shares[i]),
            base_ctr=_DEFAULT_CTRS[i % len(_DEFAULT_CTRS)],
            feature_shift=shift,
        ))
    return profiles


def default_gen_config(num_domains: int = 5, seed: int = 0,
                       n_examples: int = 200_000, **overrides) -> GenConfig:
    profiles = default_profiles(num_domains, overrides.get("latent_dim", 8))
    return GenConfig(profiles=profiles, n_examples=n_examples, seed=seed,
                     **overrides)


@dataclass
class GroundTruth:
    """Hidden factors and weights behind a generated dataset."""
    latent_items: np.ndarray
    latent_profiles: np.ndarray
    latent_contexts: np.ndarray
    w_shared: np.ndarray
    w_domain: np.ndarray          # (M, 4k)
    biases: np.ndarray            # (M,)


@dataclass
class GenResult:
    examples: Dataset
    truth: GroundTruth
    true_probs: np.ndarray
    realized_ctr: dict[int, float] = field(default_factory=dict)


# Buckets of the guide table: a power of two, so ``u * _GUIDE_BUCKETS`` and
# ``j / _GUIDE_BUCKETS`` are exact.
_GUIDE_BUCKETS = 1 << 16


def _guide_table(cum_probs: np.ndarray) -> np.ndarray:
    """``guide[j]``, for j in 0..B, counts the ``cum_probs`` values <= j / B
    (B = ``_GUIDE_BUCKETS``, ``cum_probs`` non-decreasing and >= 0)."""
    # cum <= j / B exactly when ceil(cum * B) <= j: the first j that counts
    # it.  A value past 1 (a cumsum's rounding) counts at no j <= B.
    first = np.ceil(cum_probs * _GUIDE_BUCKETS).astype(np.int64)
    counts = np.bincount(first, minlength=_GUIDE_BUCKETS + 1)
    return np.cumsum(counts[:_GUIDE_BUCKETS + 1])


def _draw_categorical(rng_uniform: np.ndarray, cum_probs: np.ndarray,
                      guide: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum_probs, u, side="right")`` clipped to the last
    category, for uniforms ``u`` in [0, 1); ``guide`` is
    ``_guide_table(cum_probs)``.

    ``u`` lies in bucket ``j = floor(u * B)``, so its answer lies in
    ``[guide[j], guide[j + 1]]``; ``cum_probs`` is searched only for the
    uniforms whose bucket holds a category boundary.
    """
    bucket = (rng_uniform * _GUIDE_BUCKETS).astype(np.int64)
    out = guide[bucket]
    split = np.flatnonzero((guide[1:] != guide[:-1])[bucket])
    out[split] = np.searchsorted(cum_probs, rng_uniform[split], side="right")
    return np.minimum(out, cum_probs.size - 1, out=out)


def _domain_cum_probs(latent: np.ndarray, shift: np.ndarray | None) -> np.ndarray:
    if shift is None:
        logits = np.zeros(latent.shape[0])
    else:
        logits = latent @ shift
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    return np.cumsum(probs)


def _calibrate_bias(raw_logits: np.ndarray, target: float) -> float:
    """Bisect the additive bias so mean(sigmoid(raw + b)) == target.

    Once the midpoint equals an end, every later step would repeat a
    comparison already made and the bisection would return that midpoint,
    so it returns it there.
    """
    x = np.empty_like(raw_logits)
    e = np.empty_like(raw_logits)
    nonneg = np.empty(raw_logits.shape, dtype=bool)

    def mean_sigmoid(bias: float) -> float:
        # layers.sigmoid's arithmetic in these buffers: e = exp(-|x|), then
        # 1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere.
        np.add(raw_logits, bias, out=x)
        np.greater_equal(x, 0, out=nonneg)
        np.abs(x, out=x)
        np.negative(x, out=x)
        np.exp(x, out=e)
        np.add(e, 1.0, out=x)
        np.divide(e, x, out=e)
        np.divide(1.0, x, out=e, where=nonneg)
        return e.mean()

    lo, hi = -60.0, 60.0
    if not mean_sigmoid(lo) < target < mean_sigmoid(hi):
        raise CalibrationError(f"CTR target {target} unreachable by bias shift")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if mean_sigmoid(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Rows pooled at a time: the pool's gathered factors stay a few MB.
_POOL_ROWS = 16_384


def _ungroup(grouped: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Values back in arrival order: ``grouped[i]`` belongs at ``rows[i]``."""
    out = np.empty_like(grouped)
    out[rows] = grouped
    return out


def generate_examples(config: GenConfig) -> GenResult:
    """Draw a full dataset (in arrival order) plus its ground truth."""
    config.validate()
    m = config.num_domains
    k = config.latent_dim
    n = config.n_examples
    # The world (latent factors, ground-truth weights) comes from `seed`;
    # which examples get drawn comes from `sample_seed`, so a holdout set is
    # the same world with a different sample_seed.
    rng_lat = make_rng(config.seed, stream=0)
    rng_w = make_rng(config.seed, stream=1)
    rng_s = make_rng(config.effective_sample_seed, stream=2)
    rng_y = make_rng(config.effective_sample_seed, stream=3)

    latent_items = rng_lat.normal(size=(config.vocab_items, k))
    latent_profiles = rng_lat.normal(size=(config.vocab_profiles, k))
    latent_contexts = rng_lat.normal(size=(config.vocab_contexts, k))
    w_shared = (rng_w.normal(0.0, config.shared_weight_scale, size=4 * k)
                + config.weight_mean_shift)
    if config.domain_rank > 0:
        r = config.domain_rank
        basis, _ = np.linalg.qr(rng_w.normal(size=(4 * k, r)))
        coords = rng_w.normal(
            0.0, config.domain_weight_scale * np.sqrt(4 * k / r), size=(m, r)
        )
        w_domain = coords @ basis.T
    else:
        w_domain = rng_w.normal(0.0, config.domain_weight_scale,
                                size=(m, 4 * k))

    cum_shares = np.cumsum([p.traffic_share for p in config.profiles])
    domains = _draw_categorical(rng_s.uniform(size=n), cum_shares,
                                _guide_table(cum_shares)) + 1

    lens = np.minimum(rng_s.poisson(config.behavior_mean_len, size=n),
                      config.behavior_max_len)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    u_beh = rng_s.uniform(size=int(offsets[-1]))
    u_item = rng_s.uniform(size=n)
    u_prof = rng_s.uniform(size=n)
    u_ctx = rng_s.uniform(size=n)

    # One stable sort groups the rows by domain, in arrival order within
    # each: domain p owns grouped rows bounds[p - 1]:bounds[p] and grouped
    # behavior ids flat_bounds[p - 1]:flat_bounds[p].  So each domain draws
    # from the same uniforms, and pools and scores the same rows, in the
    # same order as a mask of its rows would give.
    rows = np.argsort(domains, kind="stable")
    flat_rows, offsets_g = _flat_rows(offsets, rows)
    bounds = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(domains, minlength=m + 1)[1:], out=bounds[1:])
    flat_bounds = offsets_g[bounds]
    u_beh, u_item, u_prof, u_ctx = (u_beh[flat_rows], u_item[rows],
                                    u_prof[rows], u_ctx[rows])
    beh_g = np.empty(u_beh.size, dtype=np.int64)
    item_g, prof_g, ctx_g = (np.empty(n, dtype=np.int64) for _ in range(3))
    for p in range(1, m + 1):
        shift = config.profiles[p - 1].feature_shift
        cum_item = _domain_cum_probs(latent_items, shift)
        cum_prof = _domain_cum_probs(latent_profiles, shift)
        cum_ctx = _domain_cum_probs(latent_contexts, shift)
        guide_item = _guide_table(cum_item)
        own = slice(bounds[p - 1], bounds[p])
        flat = slice(flat_bounds[p - 1], flat_bounds[p])
        beh_g[flat] = _draw_categorical(u_beh[flat], cum_item, guide_item)
        item_g[own] = _draw_categorical(u_item[own], cum_item, guide_item)
        prof_g[own] = _draw_categorical(u_prof[own], cum_prof,
                                        _guide_table(cum_prof))
        ctx_g[own] = _draw_categorical(u_ctx[own], cum_ctx,
                                       _guide_table(cum_ctx))

    # Pooled latent features of the grouped rows, same convention as the
    # model: mean over the behavior list (zeros when empty), then concat
    # with the single fields.  Built in row blocks, so the gathered
    # factors stay small; each row's sum is the same in any block.
    phi = np.empty((n, 4 * k))
    lens_g = np.diff(offsets_g)
    for lo in range(0, n, _POOL_ROWS):
        hi = min(lo + _POOL_ROWS, n)
        block = phi[lo:hi]
        block[:, 0:k] = mean_pool(
            latent_items, beh_g[offsets_g[lo]:offsets_g[hi]], lens_g[lo:hi])
        block[:, k:2 * k] = latent_profiles[prof_g[lo:hi]]
        block[:, 2 * k:3 * k] = latent_items[item_g[lo:hi]]
        block[:, 3 * k:4 * k] = latent_contexts[ctx_g[lo:hi]]

    logits = np.empty(n)
    biases = np.zeros(m)
    for p in range(1, m + 1):
        prof = config.profiles[p - 1]
        own = slice(bounds[p - 1], bounds[p])
        raw = phi[own] @ (w_shared + prof.specificity * w_domain[p - 1])
        if raw.size:
            biases[p - 1] = _calibrate_bias(raw, prof.base_ctr)
        logits[rows[own]] = raw + biases[p - 1]

    probs = sigmoid(logits)
    ys = (rng_y.uniform(size=n) < probs).astype(np.int64)

    examples = Dataset(_ungroup(beh_g, flat_rows), offsets,
                       _ungroup(prof_g, rows), _ungroup(item_g, rows),
                       _ungroup(ctx_g, rows), ys, domains)
    truth = GroundTruth(latent_items, latent_profiles, latent_contexts,
                        w_shared, w_domain, biases)
    # Click counts are whole numbers, so each sum and mean is exact.
    clicks = np.bincount(domains, weights=ys, minlength=m + 1)[1:]
    sizes = np.diff(bounds)
    realized = {p: float(clicks[p - 1] / sizes[p - 1])
                for p in range(1, m + 1) if sizes[p - 1]}
    return GenResult(examples, truth, probs, realized)


def generate(config: GenConfig, path: str) -> GenResult:
    """Generate a dataset and write it to ``path``."""
    result = generate_examples(config)
    write_dataset(result.examples, path)
    return result


def parse_gen_config(text: str) -> GenConfig:
    kv = parse_kv_text(text)
    if "domains" not in kv:
        raise ConfigError("missing required key 'domains'")
    m = parse_value("domains", kv.pop("domains"), int)
    kwargs = parse_fields(GenConfig, kv)
    # Each profile needs a key of its own, so one of the first len(kv) + 1
    # is missing and raises: a huge ``domains`` parses no further.
    profiles = [DomainProfile(**parse_fields(DomainProfile, kv,
                                             f"domain.{i}."))
                for i in range(1, min(m, len(kv) + 1) + 1)]
    for key in kv:
        prefix, _, rest = key.partition(".")
        index, _, name = rest.partition(".")
        if (prefix == "domain" and index.isdecimal()
                and name in config_keys(DomainProfile)
                and not 1 <= int(index) <= m):
            raise ConfigError(f"domain index {int(index)} outside 1..{m} "
                              f"in {key!r}")
    if kv:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(kv)))
    config = GenConfig(profiles=profiles, **kwargs)
    config.validate()
    return config


def format_gen_config(config: GenConfig) -> str:
    return (f"domains={config.num_domains}\n" + format_fields(config)
            + "".join(format_fields(prof, f"domain.{i}.")
                      for i, prof in enumerate(config.profiles, start=1)))


def load_gen_config(path: str) -> GenConfig:
    return parse_gen_config(read_config_text(path))
