"""Per-domain weight folding and batch scoring.

At serving time the trunk's factorization is collapsed, whatever the
variant: each domain gets its pre-computed fused layer weights, and (for
bn/pn) the frozen normalization becomes a plain per-feature affine
``z * scale_p + shift_p``.  Folded inference therefore never touches the
shared-vs-domain split and its per-example cost does not depend on the
number of domains.

A request is scored in one pass.  A request whose rows all share one
domain is scored without a copy; other inputs are grouped by a stable
sort.  An aux net that does not read the features depends only on the
domain, so it folds to one logit per domain, computed once when the
FoldedModel is built.  BLAS kernels can round the same example's score
differently in the last bit at different batch shapes, which is why a
request's scores are compared with the predictions file at 1e-12 rather
than bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .checkpoint import pack, unpack
from .datagen import (Dataset, Example, as_dataset, atomic_open, read_dataset,
                      validate_domains, validate_ids, write_atomic)
from .errors import DataError, FoldError
from .layers import mean_pool, relu, sigmoid
from .model import Batch, ModelConfig, field_vocabs

_PRED_FMT = "{user}\t{p}\t{yhat:.17g}\t{y}\n"


def _clamp_probs(yhat: np.ndarray) -> np.ndarray:
    """Clip fresh probabilities in place."""
    return np.clip(yhat, 1e-15, 1.0 - 1e-15, out=yhat)


@dataclass
class FoldedDomain:
    layers: list[tuple[np.ndarray, np.ndarray]]   # fused (W*, b*) per layer
    norm_scale: np.ndarray | None                 # None when normalizer is ln
    norm_shift: np.ndarray | None


class FoldedModel:
    """Immutable per-domain serving model produced by fold().

    Scoring allocates its buffers per call, so one model may serve
    concurrent callers."""

    def __init__(self, config, embeddings: dict[str, np.ndarray],
                 domains: list[FoldedDomain], ln_params, aux):
        self.config = config
        self.embeddings = embeddings
        self.domains = domains
        self.ln_params = ln_params          # (gamma, beta, epsilon) or None
        self.aux = aux                      # (embed, W1, b1, W2, b2) or None
        self.aux_uses_features = config.aux_use_features
        # Without features the aux net sees only the domain embedding: its
        # output is one logit per domain, computed here once.  Derived from
        # ``aux``; the file stores only the aux tensors.
        self.aux_logit = None
        if aux is not None and not self.aux_uses_features:
            embed, w1, b1, w2, b2 = aux
            self.aux_logit = (relu(embed @ w1 + b1) @ w2 + b2)[:, 0]

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    def score_batch(self, batch: Batch) -> np.ndarray:
        p = batch.domain
        if not 1 <= p <= self.num_domains:
            raise DataError(f"unknown domain {p} (model serves 1..{self.num_domains})")
        folded = self.domains[p - 1]
        z = np.concatenate([
            mean_pool(self.embeddings[name], ids,
                      None if offsets is None else np.diff(offsets))
            for name, ids, offsets in batch.fields()], axis=1)
        if folded.norm_scale is not None:
            x = z * folded.norm_scale
            x += folded.norm_shift
        else:
            gamma, beta, eps = self.ln_params
            mu = z.mean(axis=1, keepdims=True)
            var = np.mean((z - mu) ** 2, axis=1, keepdims=True)
            x = gamma * ((z - mu) / np.sqrt(var + eps)) + beta
        last = len(folded.layers) - 1
        for li, (w, b) in enumerate(folded.layers):
            x = x @ w
            x += b
            if li != last:
                np.maximum(x, 0.0, out=x)
        logits = x[:, 0]
        if self.aux_logit is not None:
            logits += self.aux_logit[p - 1]
        elif self.aux is not None:
            embed, w1, b1, w2, b2 = self.aux
            e = np.tile(embed[p - 1], (batch.size, 1))
            h = relu(np.concatenate([e, z], axis=1) @ w1 + b1)
            logits += (h @ w2 + b2)[:, 0]
        return _clamp_probs(sigmoid(logits))

    def score_examples(self, examples: Dataset | Sequence[Example],
                       batch_size: int = 4096) -> np.ndarray:
        """Scores in input order; an id outside the vocabularies or a
        domain outside ``1..num_domains`` is a DataError naming the
        example."""
        data = as_dataset(examples)
        _check_ids(data, self.config)
        return _score_grouped(self.score_batch, data, batch_size)


def fold(model) -> FoldedModel:
    """Pre-compute fused per-domain weights and frozen normalization affines
    for a model of any variant."""
    config = model.config
    norm = model.norm
    ln = config.normalizer == "ln"
    ln_params = None
    domains = []
    for p in range(1, config.num_domains + 1):
        layers = model.fcn.fused_params(p)
        scale = shift = None
        if not ln:
            i, gamma_eff, beta_eff = norm.affine(p)
            if not norm.populated[i]:
                raise FoldError(f"domain {p}: statistics never populated")
            scale = gamma_eff / np.sqrt(norm.moving_var[i] + norm.epsilon)
            shift = beta_eff - scale * norm.moving_mean[i]
        domains.append(FoldedDomain(layers, scale, shift))
    if ln:
        ln_params = (norm.gamma.value.copy(), norm.beta.value.copy(),
                     norm.epsilon)
    embeddings = {name: model.tables[name].weights.copy()
                  for name in model.tables}
    aux = None
    if model.aux is not None:
        a = model.aux
        aux = (a.embed.weights.copy(), a.fc1.W.value.copy(),
               a.fc1.b.value.copy(), a.fc2.W.value.copy(),
               a.fc2.b.value.copy())
    return FoldedModel(config, embeddings, domains, ln_params, aux)


def score_with_model(model, examples: Dataset | Sequence[Example],
                     batch_size: int = 4096) -> np.ndarray:
    """Unfolded inference-mode scoring; the reference for fold equivalence."""

    def score_batch(batch: Batch) -> np.ndarray:
        return _clamp_probs(sigmoid(model.forward(batch, mode="infer")))

    data = as_dataset(examples)
    _check_ids(data, model.config)
    return _score_grouped(score_batch, data, batch_size)


def _check_ids(data: Dataset, config: ModelConfig):
    validate_ids(data, config.vocab_items, config.vocab_profiles,
                 config.vocab_contexts)
    validate_domains(data, config.num_domains)


def _score_grouped(score_batch, data: Dataset, batch_size: int) -> np.ndarray:
    """Scores of ``data`` in input order, from one ``score_batch`` call per
    run of at most ``batch_size`` rows of one domain.

    At most ``batch_size`` rows of one domain are scored as they are,
    without a copy; otherwise rows are grouped by domain with a stable sort
    and the scores scattered back."""
    n = len(data)
    if n and n <= batch_size and (data.p == data.p[0]).all():
        return score_batch(Batch(data))
    out = np.empty(n)
    order = np.argsort(data.p, kind="stable")
    domain_starts = np.flatnonzero(np.diff(data.p[order])) + 1
    for rows in np.split(order, domain_starts):
        for start in range(0, rows.size, batch_size):
            chunk = rows[start:start + batch_size]
            out[chunk] = score_batch(Batch(data.take(chunk)))
    return out


@dataclass
class ScoreSummary:
    n_scored: int
    n_skipped: int
    first_errors: list[str]

    def message(self) -> str:
        if self.n_skipped == 0:
            return f"scored {self.n_scored} examples"
        head = "; ".join(self.first_errors[:3])
        return (f"scored {self.n_scored} examples, skipped {self.n_skipped} "
                f"with unknown domains ({head})")


def score_file(folded: FoldedModel, data_path: str, out_path: str,
               batch_size: int = 4096) -> ScoreSummary:
    """Score a dataset file into ``user<TAB>p<TAB>yhat<TAB>y`` lines.

    Output order follows input order.  Lines whose domain the model does not
    serve are skipped and reported in the summary; an id outside the model's
    vocabularies is a DataError, raised before the output is opened.
    """
    data = read_dataset(data_path)
    config = folded.config
    validate_ids(data, config.vocab_items, config.vocab_profiles,
                 config.vocab_contexts)
    served = data.p <= folded.num_domains
    skipped = np.flatnonzero(~served)
    errors = []
    if skipped.size:
        first = skipped[:10].tolist()
        errors = [f"line {lineno}: unknown domain {data.p[row]}"
                  for row, lineno in zip(first, _line_numbers(data_path, first))]
        data = data.take(np.flatnonzero(served))
    yhat = _score_grouped(folded.score_batch, data, batch_size)
    with atomic_open(out_path, "w", encoding="ascii", newline="\n") as fh:
        for user, p, prob, y in zip(data.profile.tolist(), data.p.tolist(),
                                    yhat, data.y.tolist()):
            fh.write(_PRED_FMT.format(user=user, p=p, yhat=prob, y=y))
    return ScoreSummary(len(data), int(skipped.size), errors)


def _line_numbers(path: str, rows: list[int]) -> list[int]:
    """1-based line numbers of the given rows (ascending) of a dataset file,
    counted as read_dataset counts them."""
    wanted = set(rows)
    with open(path, "r", encoding="ascii") as fh:
        nonblank = (lineno for lineno, line in enumerate(fh, start=1)
                    if line.strip())
        return [lineno for row, lineno in enumerate(nonblank) if row in wanted]


# The folded model file is the container of ``checkpoint.py`` with
# ``kind="folded"``; its module docstring names every tensor.
_AUX_NAMES = ("aux.embed", "aux.fc1.W", "aux.fc1.b", "aux.fc2.W", "aux.fc2.b")


def save_folded(folded: FoldedModel, path: str):
    tensors = {f"embed.{name}": w for name, w in folded.embeddings.items()}
    for p, dom in enumerate(folded.domains, start=1):
        for li, (w, b) in enumerate(dom.layers):
            tensors[f"d{p}.{li}.W"] = w
            tensors[f"d{p}.{li}.b"] = b
        if dom.norm_scale is not None:
            tensors[f"d{p}.scale"] = dom.norm_scale
            tensors[f"d{p}.shift"] = dom.norm_shift
    if folded.ln_params is not None:
        tensors["ln.gamma"], tensors["ln.beta"] = folded.ln_params[:2]
    if folded.aux is not None:
        tensors.update(zip(_AUX_NAMES, folded.aux))
    write_atomic(path, pack("folded", folded.config, tensors))


def _assemble_folded(config: ModelConfig, take) -> FoldedModel:
    embeddings = {name: take(f"embed.{name}", (vocab, config.embed_dim))
                  for name, vocab in field_vocabs(config).items()}
    in_dim = config.input_dim
    dims = (in_dim,) + config.layer_widths
    affine = config.normalizer != "ln"
    domains = [
        FoldedDomain(
            [(take(f"d{p}.{li}.W", dims[li:li + 2]),
              take(f"d{p}.{li}.b", dims[li + 1:li + 2]))
             for li in range(len(config.layer_widths))],
            take(f"d{p}.scale", (in_dim,)) if affine else None,
            take(f"d{p}.shift", (in_dim,)) if affine else None,
        )
        for p in range(1, config.num_domains + 1)
    ]
    ln_params = None
    if not affine:
        ln_params = (take("ln.gamma", (in_dim,)), take("ln.beta", (in_dim,)),
                     config.epsilon)
    aux = None
    if config.aux_enabled:
        m, e, h = config.num_domains, config.aux_embed_dim, config.aux_hidden
        aux_in = e + (in_dim if config.aux_use_features else 0)
        shapes = ((m, e), (aux_in, h), (h,), (h, 1), (1,))
        aux = tuple(take(name, shape)
                    for name, shape in zip(_AUX_NAMES, shapes))
    return FoldedModel(config, embeddings, domains, ln_params, aux)


def load_folded(path: str) -> FoldedModel:
    return unpack(Path(path).read_bytes(), "folded", _assemble_folded)


def read_predictions(path: str) -> list[tuple[int, int, float, int]]:
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 4:
                raise DataError(f"line {lineno}: expected 4 fields")
            rows.append((int(parts[0]), int(parts[1]), float(parts[2]),
                         int(parts[3])))
    return rows
