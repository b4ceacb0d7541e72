"""Synthetic multi-domain CTR data with controllable commonality/distinction.

Ground truth is logistic in latent ID factors: every vocabulary entry carries
a hidden factor vector, an example's feature vector is the concatenation of
its pooled field factors, and the click probability for domain p is

    sigmoid(w_shared . phi(x) + alpha_p * w_p . phi(x) + bias_p)

``alpha_p`` (the profile's ``specificity``) blends shared and domain-specific
label functions, ``feature_shift`` tilts which IDs each domain samples (so
domains have genuinely different input distributions), and ``bias_p`` is
calibrated by bisection so the realized CTR hits the profile's target.
"""

from __future__ import annotations

import io
import math
import os
import re
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import CalibrationError, ConfigError, DataError, ParseError
from .layers import mean_pool, sigmoid
from .tensor import make_rng

FIELDS = ("behavior", "profile", "item", "context")


class Example(NamedTuple):
    behavior: tuple[int, ...]
    profile: int
    item: int
    context: int
    y: int
    p: int


class Dataset:
    """Examples as columns: behavior lists in CSR form, one array per field.

    Row ``i``'s behavior ids are
    ``behavior_flat[behavior_offsets[i]:behavior_offsets[i + 1]]``; the
    other fields hold one int64 per row.  Indexing with an int yields an
    ``Example``, iteration yields every row as one, and any other key (a
    slice, a boolean mask, an index array) gathers a new ``Dataset`` of the
    rows numpy's indexing of ``arange(len)`` picks.
    """

    __slots__ = ("behavior_flat", "behavior_offsets", "profile", "item",
                 "context", "y", "p")

    def __init__(self, behavior_flat, behavior_offsets, profile, item,
                 context, y, p):
        self.behavior_flat = behavior_flat
        self.behavior_offsets = behavior_offsets
        self.profile = profile
        self.item = item
        self.context = context
        self.y = y
        self.p = p

    @classmethod
    def from_examples(cls, rows: list[Example]) -> "Dataset":
        """The columns of ``Example`` rows (see ``example_columns``)."""
        return cls.from_columns(*example_columns(rows))

    @classmethod
    def from_columns(cls, behavior_flat: np.ndarray, counts: np.ndarray,
                     scalars: np.ndarray) -> "Dataset":
        """The Dataset of ``example_columns`` output; its scalar columns
        are views of the rows of ``scalars``."""
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(behavior_flat, offsets, *scalars)

    def __len__(self) -> int:
        return self.p.shape[0]

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            i = range(len(self))[key]
            lo, hi = self.behavior_offsets[i:i + 2].tolist()
            return Example(tuple(self.behavior_flat[lo:hi].tolist()),
                           int(self.profile[i]), int(self.item[i]),
                           int(self.context[i]), int(self.y[i]),
                           int(self.p[i]))
        return self.take(np.arange(len(self))[key])

    def __iter__(self):
        flat = self.behavior_flat.tolist()
        offsets = self.behavior_offsets.tolist()
        columns = zip(self.profile.tolist(), self.item.tolist(),
                      self.context.tolist(),
                      self.y.astype(np.int64, copy=False).tolist(),
                      self.p.tolist())
        for lo, hi, row in zip(offsets, offsets[1:], columns):
            yield Example(tuple(flat[lo:hi]), *row)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in Dataset.__slots__)

    __hash__ = None

    def take(self, rows) -> "Dataset":
        """Gather the given rows, in the given order, into a new Dataset."""
        rows = np.asarray(rows, dtype=np.int64)
        flat_rows, offsets = _flat_rows(self.behavior_offsets, rows)
        return Dataset(self.behavior_flat[flat_rows], offsets,
                       self.profile[rows], self.item[rows],
                       self.context[rows], self.y[rows], self.p[rows])

    def row_range(self, start: int, stop: int) -> "Dataset":
        """Rows ``start:stop`` as views of these columns; only the offsets
        are new."""
        offsets = self.behavior_offsets[start:stop + 1]
        return Dataset(self.behavior_flat[offsets[0]:offsets[-1]],
                       offsets - offsets[0], self.profile[start:stop],
                       self.item[start:stop], self.context[start:stop],
                       self.y[start:stop], self.p[start:stop])


def example_columns(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transpose ``Example`` rows into int64 id columns, one pass per field:
    the one place where rows become columns.

    Returns ``(behavior_flat, counts, scalars)``: every row's behavior ids
    in row order, each row's number of them, and a ``(5, len(rows))``
    block whose rows are the profile, item, context, y and p columns
    (``Example._fields[1:]``)."""
    if not rows:
        none = np.zeros(0, dtype=np.int64)
        return none, none, np.zeros((5, 0), dtype=np.int64)
    behavior, *scalars = zip(*rows)
    counts = np.fromiter(map(len, behavior), dtype=np.int64, count=len(rows))
    flat = np.fromiter(chain.from_iterable(behavior), dtype=np.int64)
    return flat, counts, np.array(scalars, dtype=np.int64)


def _flat_rows(offsets: np.ndarray, rows: np.ndarray):
    """Where the behavior ids of ``rows``, in that order, sit in a flat CSR
    array with ``offsets``; and the offsets of the gathered lists."""
    starts = offsets[rows]
    lens = offsets[rows + 1] - starts
    gathered = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lens, out=gathered[1:])
    flat_rows = np.repeat(starts - gathered[:-1], lens)
    flat_rows += np.arange(gathered[-1], dtype=np.int64)
    return flat_rows, gathered


def bounded(low, high=math.inf, *, open_low=False, key=None, **kwargs):
    """A dataclass field whose value ``check_fields`` keeps in [low, high],
    or in (low, high] if ``open_low``, and finite if a float.  ``key`` is
    the field's config key where it differs from the field name."""
    metadata = {"range": (low, high, open_low)}
    if key is not None:
        metadata["key"] = key
    return field(metadata=metadata, **kwargs)


@dataclass
class DomainProfile:
    traffic_share: float = bounded(0, 1)
    # No declared range: validate raises CalibrationError outside (0, 1).
    base_ctr: float
    specificity: float = bounded(-math.inf, default=0.6)
    # A "vector" field's config value is comma-separated floats.
    feature_shift: np.ndarray | None = field(default=None,
                                             metadata={"vector": True})


# Sizes past memory yet below numpy's limits, which end in a traceback.
MAX_SIZE = 10**9


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


# ---------------------------------------------------------------------------
# Dataset file format: one example per line,
#   p<TAB>y<TAB>behavior:id,id,...<TAB>profile:id<TAB>item:id<TAB>ctx:id
# ---------------------------------------------------------------------------

def format_example(ex: Example) -> str:
    beh = ",".join(str(b) for b in ex.behavior)
    return (f"{ex.p}\t{ex.y}\tbehavior:{beh}\tprofile:{ex.profile}"
            f"\titem:{ex.item}\tctx:{ex.context}")


# Every line holds the tokens p, y, behavior ids..., profile, item, ctx.  The
# reader and the writer move between these tokens and the Dataset columns.
_SCALAR_COLUMNS = ("p", "y", "profile", "item", "context")


def _token_layout(lens: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Token positions of each line's scalar fields (in ``_SCALAR_COLUMNS``
    order), and a mask of the tokens that are behavior ids."""
    end = np.cumsum(lens + 5)
    start = end - (lens + 5)
    slots = (start, start + 1, end - 3, end - 2, end - 1)
    is_behavior = np.ones(int(end[-1]) if end.size else 0, dtype=bool)
    for pos in slots:
        is_behavior[pos] = False
    return slots, is_behavior


# The text written before each scalar token, in ``_SCALAR_COLUMNS`` order;
# "\tbehavior:" follows y, and "," separates behavior ids.  A line's leading
# "\n" ends the previous line; the writer drops the first and adds a last.
_SCALAR_PREFIXES = (b"\n", b"\t", b"\tprofile:", b"\titem:", b"\tctx:")
_BEHAVIOR_TAG = b"\tbehavior:"
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.uint64)
_WRITE_ROWS = 16_384


def _put(out: np.ndarray, at: np.ndarray, text: bytes):
    """Write ``text`` into ``out`` at each of the positions ``at``."""
    for j, byte in enumerate(text):
        out[at + j] = byte


def _format_lines(data: Dataset) -> bytes:
    """The text lines of ``data`` (non-empty), built as one byte array."""
    lens = np.diff(data.behavior_offsets)
    slots, is_behavior = _token_layout(lens)
    digits = np.empty(is_behavior.size, dtype=np.int64)
    width = np.ones(digits.size, dtype=np.int64)    # "," or a prefix
    for name, pos, text in zip(_SCALAR_COLUMNS, slots, _SCALAR_PREFIXES):
        digits[pos] = getattr(data, name)
        width[pos] = len(text)
    digits[is_behavior] = data.behavior_flat
    # The tag comes before the token after y: the profile, or a first
    # behavior id, whose "," it replaces.
    width[slots[1] + 1] += len(_BEHAVIOR_TAG) - (lens > 0)
    negative = digits < 0
    # Unsigned, so the magnitude of -2**63 is 2**63.
    digits = np.abs(digits, out=digits).view(np.uint64)
    ndigits = np.ones(digits.size, dtype=np.int64)
    for power in _POWERS_OF_TEN:
        longer = digits >= power
        if not longer.any():
            break
        ndigits += longer
    width += negative
    width += ndigits
    end = np.cumsum(width)
    first = end - ndigits    # each token's first digit
    # Every byte left as "," lies between two behavior ids.
    out = np.full(int(end[-1]) + 1, ord(","), dtype=np.uint8)
    for pos, text in zip(slots, _SCALAR_PREFIXES):
        _put(out, first[pos] - negative[pos] - len(text), text)
    _put(out, end[slots[1]], _BEHAVIOR_TAG)
    out[first[negative] - 1] = ord("-")
    # Digit d of every token, counted from its last digit, written for the
    # largest d first.  A token with fewer than d + 1 digits writes its
    # digit d, a "0", at its first digit (the clamp), where its leading
    # digit, written later, replaces it.
    chars = []
    for _ in range(int(ndigits.max())):
        quotient = digits // 10
        chars.append((digits - 10 * quotient).astype(np.uint8))
        digits = quotient
    for d in reversed(range(len(chars))):
        chars[d] += ord("0")
        out[np.maximum(end - (d + 1), first)] = chars[d]
    out[-1] = ord("\n")
    return out[1:].tobytes()


@contextmanager
def atomic_open(path: str, mode: str = "wb", **kwargs):
    """Write ``<path>.tmp`` and rename it to ``path``; if the block raises,
    remove it and leave ``path`` as it was.  Every output goes through here."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_atomic(path: str, raw: bytes):
    with atomic_open(path) as fh:
        fh.write(raw)


def write_dataset(data: Dataset, path: str):
    with atomic_open(path) as fh:
        for start in range(0, len(data), _WRITE_ROWS):
            fh.write(_format_lines(data.row_range(start, start + _WRITE_ROWS)))


def _parse_tagged(part: str, tag: str, lineno: int) -> str:
    prefix = tag + ":"
    if not part.startswith(prefix):
        raise ParseError(f"expected '{tag}:' field, got {part!r}", lineno)
    return part[len(prefix):]


def parse_example(line: str, lineno: int = 0) -> Example:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 6:
        raise ParseError(f"expected 6 tab-separated fields, got {len(parts)}",
                         lineno)
    try:
        p = int(parts[0])
        y = int(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad domain/label: {exc}", lineno) from None
    if p < 1:
        raise ParseError(f"domain {p} invalid: domains are 1-based", lineno)
    if y not in (0, 1):
        raise ParseError(f"label {y} outside {{0, 1}}", lineno)
    beh_raw = _parse_tagged(parts[2], "behavior", lineno)
    try:
        behavior = tuple(int(t) for t in beh_raw.split(",")) if beh_raw else ()
        profile = int(_parse_tagged(parts[3], "profile", lineno))
        item = int(_parse_tagged(parts[4], "item", lineno))
        context = int(_parse_tagged(parts[5], "ctx", lineno))
    except ValueError as exc:
        raise ParseError(f"bad id: {exc}", lineno) from None
    return Example(behavior, profile, item, context, y, p)


# Lines exactly as write_dataset formats them, with values parse_example
# accepts and numbers that fit in int64.  Runs of such lines are parsed as
# arrays; every other line goes through parse_example.
_CANONICAL_LINE = (rb"[1-9]\d{0,17}\t[01]\tbehavior:(?:\d{1,18}(?:,\d{1,18})*)?"
                   rb"\tprofile:\d{1,18}\titem:\d{1,18}\tctx:\d{1,18}\n")
# Possessive: a run never gives lines back, so ``re`` keeps no backtracking
# state per line matched.
_CANONICAL_RUN = re.compile(rb"(?:" + _CANONICAL_LINE + rb")*+")
_DIGITS_ONLY = bytes(c if 48 <= c <= 57 else 32 for c in range(256))
_READ_BYTES = 1 << 20
_INT64 = range(-2 ** 63, 2 ** 63)


def _parse_canonical(buf: bytes) -> Dataset:
    """Columns of a run of canonical lines."""
    text = np.frombuffer(buf, dtype=np.uint8)
    line_ends = np.flatnonzero(text == ord("\n"))
    commas = np.searchsorted(np.flatnonzero(text == ord(",")), line_ends)
    behavior_tags = np.flatnonzero(text == ord(":"))[0::4]
    lens = np.diff(commas, prepend=0) + (text[behavior_tags + 1] != ord("\t"))
    tokens = np.fromstring(buf.translate(_DIGITS_ONLY), dtype=np.int64,
                           sep=" ")
    slots, is_behavior = _token_layout(lens)
    offsets = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    p, y, profile, item, context = (tokens[pos] for pos in slots)
    return Dataset(tokens[is_behavior], offsets, profile, item, context, y, p)


def _parse_other(raw: bytes, lineno: int, rows: list[Example]) -> int:
    """Parse one non-canonical line the way a text-mode read sees it (it may
    hold several lines split at a bare CR); returns the last line number."""
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError:
        raise ParseError("non-ASCII byte", lineno + 1) from None
    for line in io.StringIO(text, newline=None):
        lineno += 1
        if not line.strip():
            continue
        ex = parse_example(line, lineno)
        if not all(v in _INT64 for v in (*ex.behavior, ex.profile, ex.item,
                                         ex.context, ex.p)):
            raise ParseError("id or domain outside the 64-bit integer range",
                             lineno)
        rows.append(ex)
    return lineno


def _concat(pieces: list[Dataset]) -> Dataset:
    if not pieces:
        return Dataset.from_examples([])
    shifts = np.cumsum([0] + [piece.behavior_flat.size for piece in pieces])
    offsets = [pieces[0].behavior_offsets[:1]] + [
        piece.behavior_offsets[1:] + shift
        for piece, shift in zip(pieces, shifts)
    ]
    return Dataset(np.concatenate([piece.behavior_flat for piece in pieces]),
                   np.concatenate(offsets),
                   *(np.concatenate([getattr(piece, name) for piece in pieces])
                     for name in ("profile", "item", "context", "y", "p")))


def read_dataset(path: str) -> Dataset:
    """Read a dataset file, about 1 MB of text at a time.

    Blank lines are skipped; a malformed line raises ParseError with its
    1-based line number.  Memory stays near the size of the columns.
    """
    pieces: list[Dataset] = []
    others: list[Example] = []
    lineno = 0
    tail = b""
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_READ_BYTES)
            buf = tail + block
            if not block and buf and not buf.endswith(b"\n"):
                buf += b"\n"
            cut = buf.rfind(b"\n") + 1
            buf, tail = buf[:cut], buf[cut:]
            pos = 0
            while pos < len(buf):
                end = _CANONICAL_RUN.match(buf, pos).end()
                if end > pos:
                    if others:
                        pieces.append(Dataset.from_examples(others))
                        others = []
                    pieces.append(_parse_canonical(buf[pos:end]))
                    lineno += len(pieces[-1])
                if end == len(buf):
                    break
                pos = buf.index(b"\n", end) + 1
                lineno = _parse_other(buf[end:pos], lineno, others)
            if not block:
                break
    if others:
        pieces.append(Dataset.from_examples(others))
    return _concat(pieces)


# ---------------------------------------------------------------------------
# Config files: flat key=value, one key per dataclass field (config_keys),
# read by parse_fields and written by format_fields.  Each value parses to
# the type of its field's default (see field_parser).
# In a generator config the keys are "domains" (the number of profiles), the
# GenConfig keys and domain.<i>.<key> for each DomainProfile key.
# ---------------------------------------------------------------------------


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
    return tuple(int(t) for t in value.split(",") if t.strip())


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
    """Parse ``key=value`` lines; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
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


def validate_ids(data: Dataset, vocab_items: int, vocab_profiles: int,
                 vocab_contexts: int):
    """Raise DataError naming the first example (1-based) whose ids fall
    outside the given vocabularies, and its first such id (a behavior id
    counts as an item id).  Clean data costs one min and one max per
    column; the masks are built only to name the example."""
    if (_ids_fit(data.item, 0, vocab_items)
            and _ids_fit(data.behavior_flat, 0, vocab_items)
            and _ids_fit(data.profile, 0, vocab_profiles)
            and _ids_fit(data.context, 0, vocab_contexts)):
        return

    def outside(ids, vocab):
        return (ids < 0) | (ids >= vocab)

    bad_item = outside(data.item, vocab_items)
    bad_behavior = np.flatnonzero(outside(data.behavior_flat, vocab_items))
    owners = np.searchsorted(data.behavior_offsets, bad_behavior, side="right")
    bad_item[owners - 1] = True
    checks = ((bad_item, "item", vocab_items),
              (outside(data.profile, vocab_profiles), "profile", vocab_profiles),
              (outside(data.context, vocab_contexts), "context", vocab_contexts))
    i = int(np.argmax(bad_item | checks[1][0] | checks[2][0]))
    lo, hi = data.behavior_offsets[i:i + 2]
    row = {"item": [data.item[i], *data.behavior_flat[lo:hi]],
           "profile": [data.profile[i]], "context": [data.context[i]]}
    for mask, field_name, vocab in checks:
        if mask[i]:
            bad_id = next(int(v) for v in row[field_name]
                          if not 0 <= v < vocab)
            raise DataError(f"example {i + 1}: {field_name} id outside "
                            f"vocab: {bad_id} not in [0, {vocab})")


def check_rows(data: Dataset, config):
    """Raise DataError naming the first example (1-based) whose ids fall
    outside the vocabularies of the model config ``config``, or whose
    domain is outside ``1..config.num_domains``."""
    validate_ids(data, config.vocab_items, config.vocab_profiles,
                 config.vocab_contexts)
    if _ids_fit(data.p, 1, config.num_domains + 1):
        return
    i = int(np.argmax((data.p < 1) | (data.p > config.num_domains)))
    raise DataError(f"example {i + 1}: unknown domain {data.p[i]} "
                    f"(model serves 1..{config.num_domains})")


def clean_domain(behavior_flat: np.ndarray, scalars: np.ndarray,
                 config) -> int:
    """The domain of the non-empty ``example_columns`` output
    ``(behavior_flat, _, scalars)`` when ``check_rows`` would accept it
    and all its rows share that domain; 0 otherwise.  One min and one max
    per column, and no mask."""
    low = scalars.min(axis=1).tolist()
    high = scalars.max(axis=1).tolist()
    p = low[4]
    vocabs = (config.vocab_profiles, config.vocab_items, config.vocab_contexts)
    if (p == high[4] and 1 <= p <= config.num_domains and min(low[:3]) >= 0
            and all(h < v for h, v in zip(high, vocabs))
            and _ids_fit(behavior_flat, 0, config.vocab_items)):
        return p
    return 0


def _ids_fit(ids: np.ndarray, low: int, high: int) -> bool:
    """Whether every id lies in ``[low, high)``: one min and one max, none
    for an empty column."""
    return ids.size == 0 or (low <= ids.min() and ids.max() < high)
