"""Kernels the package replaced, kept as bitwise references: the
``np.add.at`` embedding kernels (for the pool, its backward and the folded
scorer's mean pool), the per-parameter Adam (for the one-pass arena Adam),
and the folded request path that regrouped every request by a sort and a
gather (for the one-pass scorer), with its masked sigmoid and fresh arrays
in place of the scorer's in-place layers; and the data generator that drew
each domain's rows through a boolean mask, with its ``searchsorted`` draws
and 80-step bisection, and a writer that formats one row at a time (for the
grouped generator and the array writer); and the id checks that built an
out-of-range mask per column (for the checks through ``first_outside``)."""

import numpy as np

from starctr.data import Dataset, format_example, validate_ids
from starctr.datagen import GenConfig, GenResult, GroundTruth, _domain_cum_probs
from starctr.errors import CalibrationError, DataError
from starctr.layers import mean_pool, sigmoid
from starctr.model import Batch
from starctr.tensor import make_rng


def reference_check_ids(table, flat_ids):
    """``EmbeddingTable._check_ids`` by a mask of the out-of-vocab ids."""
    if flat_ids.size == 0:
        return
    bad = (flat_ids < 0) | (flat_ids >= table.vocab_size)
    if bad.any():
        offender = int(flat_ids[bad][0])
        raise DataError(
            f"field '{table.name}': id {offender} outside vocab of "
            f"{table.vocab_size}"
        )


def reference_validate_ids(data, config):
    """``data.validate_ids`` by one out-of-vocab mask per column, each
    behavior offender marking its row's item mask."""
    vocab_items, vocab_profiles, vocab_contexts = (
        config.vocab_items, config.vocab_profiles, config.vocab_contexts)

    def outside(ids, vocab):
        return (ids < 0) | (ids >= vocab)

    bad_item = outside(data.item, vocab_items)
    bad_behavior = np.flatnonzero(outside(data.behavior_flat, vocab_items))
    owners = np.searchsorted(data.behavior_offsets, bad_behavior, side="right")
    bad_item[owners - 1] = True
    checks = ((bad_item, "item", vocab_items),
              (outside(data.profile, vocab_profiles), "profile", vocab_profiles),
              (outside(data.context, vocab_contexts), "context", vocab_contexts))
    bad_rows = bad_item | checks[1][0] | checks[2][0]
    if not bad_rows.any():
        return
    i = int(np.argmax(bad_rows))
    lo, hi = data.behavior_offsets[i:i + 2]
    row = {"item": [data.item[i], *data.behavior_flat[lo:hi]],
           "profile": [data.profile[i]], "context": [data.context[i]]}
    for mask, field_name, vocab in checks:
        if mask[i]:
            bad_id = next(int(v) for v in row[field_name]
                          if not 0 <= v < vocab)
            raise DataError(f"example {i + 1}: {field_name} id outside "
                            f"vocab: {bad_id} not in [0, {vocab})")


def reference_check_rows(data, config):
    """``data.check_rows`` by a mask of the unknown domains."""
    reference_validate_ids(data, config)
    bad = (data.p < 1) | (data.p > config.num_domains)
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"example {i + 1}: unknown domain {data.p[i]} "
                        f"(model serves 1..{config.num_domains})")


def reference_pool(table, flat_ids, offsets):
    """``EmbeddingTable.pool`` by ``np.add.at`` into zeros; ``offsets=None``
    means one id per row."""
    flat_ids = np.asarray(flat_ids, dtype=np.int64)
    reference_check_ids(table, flat_ids)
    if offsets is None:
        counts = np.ones(flat_ids.size, dtype=np.int64)
    else:
        counts = np.diff(np.asarray(offsets, dtype=np.int64))
    n = counts.size
    out = np.zeros((n, table.dim))
    if flat_ids.size:
        owner = np.repeat(np.arange(n), counts)
        np.add.at(out, owner, table.weights[flat_ids])
        out /= np.maximum(counts, 1)[:, None]
    table._cache = (flat_ids, counts)
    return out


def reference_backward(table, upstream):
    """``EmbeddingTable.backward`` by ``np.add.at`` into ``grad``."""
    flat_ids, counts = table._cache
    if flat_ids.size:
        scaled = upstream / np.maximum(counts, 1)[:, None]
        owner = np.repeat(np.arange(counts.size), counts)
        np.add.at(table.grad, flat_ids, scaled[owner])
        table.grad_rows = np.union1d(table.grad_rows, flat_ids)
    table._cache = None


def reference_mean_pool(weights, flat_ids, counts):
    """``layers.mean_pool`` by ``np.add.at`` into zeros for every slice
    length, one-id slices included (the folded scorer used to gather those
    rows directly; both give the same bits); ``counts=None`` means one id
    per row."""
    counts = np.ones(flat_ids.size, dtype=np.int64) if counts is None else counts
    out = np.zeros((counts.size, weights.shape[1]))
    if flat_ids.size:
        owner = np.repeat(np.arange(counts.size), counts)
        np.add.at(out, owner, weights[flat_ids])
        out /= np.maximum(counts, 1)[:, None]
    return out


def reference_sigmoid(x):
    """``layers.sigmoid`` as a boolean-mask split of the input."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[np.logical_not(pos)])
    out[np.logical_not(pos)] = ex / (1.0 + ex)
    return out


def reference_score_batch(folded, batch):
    """``FoldedModel.score_batch`` with the pooled fields concatenated, the
    ln standardization written out, and fresh arrays at every step."""
    p = batch.domain
    if not 1 <= p <= folded.num_domains:
        raise DataError(f"unknown domain {p} (model serves 1..{folded.num_domains})")
    dom = folded.domains[p - 1]
    behavior = reference_mean_pool(folded.embeddings["behavior"],
                                   batch.behavior_flat,
                                   np.diff(batch.behavior_offsets))
    z = np.concatenate([behavior] + [
        folded.embeddings[name].take(getattr(batch, name), axis=0)
        for name in ("profile", "item", "context")], axis=1)

    def mlp(x, layers):
        for li, (w, b) in enumerate(layers):
            x = x @ w + b
            if li != len(layers) - 1:
                x = np.maximum(x, 0.0)
        return x[:, 0]

    x = z
    if folded.config.normalizer == "ln":
        mu = z.mean(axis=1, keepdims=True)
        var = np.mean((z - mu) ** 2, axis=1, keepdims=True)
        x = (z - mu) * (1.0 / np.sqrt(var + folded.config.epsilon))
    logits = mlp(x, dom.layers)
    if dom.aux_layers:
        logits = logits + mlp(z, dom.aux_layers)
    return np.clip(reference_sigmoid(logits), 1e-15, 1.0 - 1e-15)


def reference_score_examples(folded, examples, batch_size=4096):
    """``FoldedModel.score_examples`` that checks ids, then sorts every
    input by domain and gathers each chunk before scoring it."""
    data = Dataset.from_examples(examples)
    validate_ids(data, folded.config)
    out = np.empty(len(data))
    order = np.argsort(data.p, kind="stable")
    domain_starts = np.flatnonzero(np.diff(data.p[order])) + 1
    for rows in np.split(order, domain_starts):
        for start in range(0, rows.size, batch_size):
            chunk = rows[start:start + batch_size]
            out[chunk] = reference_score_batch(
                folded, Batch(data.take(chunk)))
    return out


def use_reference_kernels(monkeypatch):
    """Route every embedding pool, backward and folded pool through the
    ``np.add.at`` reference for the rest of the test."""
    from starctr import serve
    from starctr.layers import EmbeddingTable

    monkeypatch.setattr(EmbeddingTable, "pool", reference_pool)
    monkeypatch.setattr(EmbeddingTable, "backward", reference_backward)
    monkeypatch.setattr(serve, "mean_pool", reference_mean_pool)


def arena_slice(arena, view):
    """The slice of ``arena.values`` that ``view``, a contiguous view of
    it, covers."""
    start = (view.ctypes.data - arena.values.ctypes.data) // view.itemsize
    return slice(start, start + view.size)


class ReferenceAdam:
    """``Adam.step`` as a loop: one update per given ``Param`` and one
    row-gathered update per embedding table, with moments keyed by name.
    The same per-value arithmetic, in the same order, as the arena Adam."""

    def __init__(self, lr=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = {}
        self.v = {}

    def _moments(self, key, shape):
        if key not in self.m:
            self.m[key] = np.zeros(shape)
            self.v[key] = np.zeros(shape)
        return self.m[key], self.v[key]

    def step(self, params, tables=()):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p in params:
            m, v = self._moments(p.name, p.value.shape)
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * (p.grad * p.grad)
            p.value -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.epsilon)
        for table in tables:
            rows = table.grad_rows
            if rows.size == 0:
                continue
            g = table.grad[rows]
            m, v = self._moments(table.name, table.weights.shape)
            m[rows] = self.beta1 * m[rows] + (1.0 - self.beta1) * g
            v[rows] = self.beta2 * v[rows] + (1.0 - self.beta2) * (g * g)
            table.weights[rows] -= (
                self.lr * (m[rows] / c1) / (np.sqrt(v[rows] / c2) + self.epsilon)
            )

    def flat(self, moments, model):
        """``moments`` (``self.m`` or ``self.v``) in the layout of the
        model's arena; zeros where no moment exists yet."""
        out = np.zeros(model.arena.size)
        owners = [(p.name, p.value) for p in model.params()]
        owners += [(t.name, t.weights) for t in model.embedding_tables()]
        for name, values in owners:
            if name in moments:
                out[arena_slice(model.arena, values)] = moments[name].ravel()
        return out


def reference_draw_categorical(rng_uniform, cum_probs):
    """``datagen._draw_categorical`` as one ``searchsorted`` over ``cum_probs``."""
    return np.searchsorted(cum_probs, rng_uniform, side="right").clip(
        0, cum_probs.size - 1
    )


def reference_calibrate_bias(raw_logits: np.ndarray, target: float) -> float:
    """``datagen._calibrate_bias`` as all 80 bisection steps, each on a
    fresh ``sigmoid``."""
    lo, hi = -60.0, 60.0
    if not (sigmoid(raw_logits + lo).mean() < target < sigmoid(raw_logits + hi).mean()):
        raise CalibrationError(f"CTR target {target} unreachable by bias shift")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sigmoid(raw_logits + mid).mean() < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_generate_examples(config: GenConfig) -> GenResult:
    """``datagen.generate_examples`` with a boolean mask per domain."""
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

    shares = np.array([p.traffic_share for p in config.profiles])
    domains = reference_draw_categorical(rng_s.uniform(size=n), np.cumsum(shares)) + 1

    lens = np.minimum(rng_s.poisson(config.behavior_mean_len, size=n),
                      config.behavior_max_len)
    total_beh = int(lens.sum())
    u_beh = rng_s.uniform(size=total_beh)
    u_item = rng_s.uniform(size=n)
    u_prof = rng_s.uniform(size=n)
    u_ctx = rng_s.uniform(size=n)

    beh_ids = np.zeros(total_beh, dtype=np.int64)
    item_ids = np.zeros(n, dtype=np.int64)
    prof_ids = np.zeros(n, dtype=np.int64)
    ctx_ids = np.zeros(n, dtype=np.int64)
    flat_domain = np.repeat(domains, lens)
    for p in range(1, m + 1):
        shift = config.profiles[p - 1].feature_shift
        cum_item = _domain_cum_probs(latent_items, shift)
        cum_prof = _domain_cum_probs(latent_profiles, shift)
        cum_ctx = _domain_cum_probs(latent_contexts, shift)
        fm = flat_domain == p
        em = domains == p
        beh_ids[fm] = reference_draw_categorical(u_beh[fm], cum_item)
        item_ids[em] = reference_draw_categorical(u_item[em], cum_item)
        prof_ids[em] = reference_draw_categorical(u_prof[em], cum_prof)
        ctx_ids[em] = reference_draw_categorical(u_ctx[em], cum_ctx)

    # Pooled latent features, same convention as the model: mean over the
    # behavior list (zeros when empty), then concat with the single fields.
    phi = np.empty((n, 4 * k))
    phi[:, 0:k] = mean_pool(latent_items, beh_ids, lens)
    phi[:, k:2 * k] = latent_profiles[prof_ids]
    phi[:, 2 * k:3 * k] = latent_items[item_ids]
    phi[:, 3 * k:4 * k] = latent_contexts[ctx_ids]

    logits = np.zeros(n)
    biases = np.zeros(m)
    for p in range(1, m + 1):
        prof = config.profiles[p - 1]
        em = domains == p
        raw = phi[em] @ (w_shared + prof.specificity * w_domain[p - 1])
        biases[p - 1] = reference_calibrate_bias(raw, prof.base_ctr) if em.any() else 0.0
        logits[em] = raw + biases[p - 1]

    probs = sigmoid(logits)
    ys = (rng_y.uniform(size=n) < probs).astype(np.int64)

    offsets = np.concatenate(([0], np.cumsum(lens)))
    examples = Dataset(beh_ids, offsets, prof_ids, item_ids, ctx_ids, ys,
                       domains)
    truth = GroundTruth(latent_items, latent_profiles, latent_contexts,
                        w_shared, w_domain, biases)
    realized = {
        p: float(ys[domains == p].mean()) for p in range(1, m + 1)
        if (domains == p).any()
    }
    return GenResult(examples, truth, probs, realized)


def reference_format_lines(data):
    """``data._format_lines``: ``format_example`` of each row."""
    return "".join(format_example(ex) + "\n" for ex in data).encode("ascii")
