"""Per-domain weight folding and batch scoring.

``fold`` turns a model of any variant into one plain ReLU network per
domain: the trunk's factors fuse into each domain's layers, and what
depends only on the domain folds into them.  The frozen bn/pn affine
``z * scale_p + shift_p``, or ln's ``gamma`` and ``beta``, folds into the
first layer as ``(scale[:, None] * W0, shift @ W0 + b0)``, so only ln's row
standardization (``tensor.standardize``) runs at serving.  A feature-free
aux net's output, one constant per domain, folds into the last bias; an
aux net over the features stays a two-layer network over the raw pooled
features, its domain embedding folded into its first bias.  Folded
inference never touches the shared-vs-domain split, its per-example cost
does not depend on the number of domains, and it agrees with
``score_with_model`` to 1e-12: folding regroups floating-point sums.

Folded scoring runs one kernel, a domain's network over id columns
(``FoldedModel._score``).  A request of at most ``SCORE_BATCH`` clean rows
of one domain reaches it with no ``Dataset`` or ``Batch``; other inputs are
grouped by a stable sort.  BLAS kernels can round the same example's score
differently in the last bit at different batch shapes, which is why a
request's scores are compared with the predictions file at 1e-12 rather
than bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import ModelConfig, field_vocabs
from .container import pack, unpack
from .data import (Batch, Dataset, Example, atomic_open, check_rows,
                   clean_domain, example_columns, read_dataset, validate_ids,
                   write_atomic)
from .errors import DataError, FoldError
from .tensor import mean_pool, relu, sigmoid, standardize

_PRED_FMT = "{user}\t{p}\t{yhat:.17g}\t{y}\n"
# Most rows of one domain a scorer passes to one call of the folded kernel.
SCORE_BATCH = 4096


def _clamp_probs(yhat: np.ndarray) -> np.ndarray:
    """Clip fresh probabilities in place: ``np.clip``'s values from two
    ufunc calls, without its Python wrapper's per-call cost."""
    np.maximum(yhat, 1e-15, out=yhat)
    return np.minimum(yhat, 1.0 - 1e-15, out=yhat)


def _mlp(x: np.ndarray, layers) -> np.ndarray:
    """The logits of a ReLU network: ``x @ W + b`` per layer, a ReLU
    between layers.  Works in place on a fresh buffer; ``x`` is kept."""
    last = len(layers) - 1
    for li, (w, b) in enumerate(layers):
        x = x @ w
        x += b
        if li != last:
            np.maximum(x, 0.0, out=x)
    return x[:, 0]


@dataclass
class FoldedDomain:
    layers: list[tuple[np.ndarray, np.ndarray]]       # (W, b) per trunk layer
    aux_layers: list[tuple[np.ndarray, np.ndarray]]   # aux net over features


class FoldedModel:
    """Immutable per-domain serving model produced by fold().

    Scoring allocates its buffers per call, so one model may serve
    concurrent callers."""

    def __init__(self, config, embeddings: dict[str, np.ndarray],
                 domains: list[FoldedDomain]):
        self.config = config
        self.embeddings = embeddings
        self.domains = domains

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    def score_batch(self, batch: Batch) -> np.ndarray:
        p = batch.domain
        if not 1 <= p <= self.num_domains:
            raise DataError(f"unknown domain {p} (model serves 1..{self.num_domains})")
        return self._score(p, batch.behavior_flat,
                           np.diff(batch.behavior_offsets), batch.profile,
                           batch.item, batch.context)

    def score_examples(self, rows: Sequence[Example]) -> np.ndarray:
        """Scores of a request's ``Example`` rows, in input order; an id
        outside the vocabularies or a domain outside ``1..num_domains`` is
        a DataError naming the example.

        The rows become id columns once.  At most ``SCORE_BATCH`` clean
        rows of one domain go straight to that domain's network; any other
        request is checked and scored as ``score_file`` scores a file."""
        flat, counts, scalars = example_columns(rows)
        if 0 < counts.size <= SCORE_BATCH:
            p = clean_domain(flat, scalars, self.config)
            if p:
                profile, item, context, _, _ = scalars
                return self._score(p, flat, counts, profile, item, context)
        data = Dataset.from_columns(flat, counts, scalars)
        check_rows(data, self.config)
        return _score_grouped(self.score_batch, data)

    def _score(self, p: int, behavior: np.ndarray, counts: np.ndarray,
               profile: np.ndarray, item: np.ndarray,
               context: np.ndarray) -> np.ndarray:
        """Clamped probabilities of domain ``p``'s folded network over id
        columns that are already checked: row i's behavior ids are the
        next ``counts[i]`` of ``behavior``, its other ids one per column."""
        folded = self.domains[p - 1]
        tables = self.embeddings
        z = np.concatenate([mean_pool(tables["behavior"], behavior, counts),
                            mean_pool(tables["profile"], profile, None),
                            mean_pool(tables["item"], item, None),
                            mean_pool(tables["context"], context, None)],
                           axis=1)
        x = z
        if self.config.normalizer == "ln":
            x = standardize(z, self.config.epsilon, axis=1)[0]
        logits = _mlp(x, folded.layers)
        if folded.aux_layers:
            logits += _mlp(z, folded.aux_layers)
        return _clamp_probs(sigmoid(logits))


def fold(model) -> FoldedModel:
    """One ReLU network per domain for a model of any variant (see the
    module docstring); every array is new."""
    config = model.config
    norm, aux = model.norm, model.aux
    domains = []
    for p in range(1, config.num_domains + 1):
        layers = model.fcn.fused_params(p)
        if config.normalizer == "ln":
            scale, shift = norm.gamma.value, norm.beta.value
        else:
            i, gamma_eff, beta_eff = norm.affine(p)
            if not norm.populated[i]:
                raise FoldError(f"domain {p}: statistics never populated")
            scale = gamma_eff / np.sqrt(norm.moving_var[i] + norm.epsilon)
            shift = beta_eff - scale * norm.moving_mean[i]
        w0, b0 = layers[0]
        layers[0] = (scale[:, None] * w0, shift @ w0 + b0)
        aux_layers = []
        if aux is not None:
            w1, e = aux.fc1.W.value, aux.aux_embed_dim
            h = aux.embed.weights[p - 1] @ w1[:e] + aux.fc1.b.value
            w2, b2 = aux.fc2.W.value, aux.fc2.b.value
            if config.aux_use_features:
                aux_layers = [(w1[e:].copy(), h), (w2.copy(), b2.copy())]
            else:
                w, b = layers[-1]
                layers[-1] = (w, b + (relu(h) @ w2 + b2))
        domains.append(FoldedDomain(layers, aux_layers))
    embeddings = {name: model.tables[name].weights.copy()
                  for name in model.tables}
    return FoldedModel(config, embeddings, domains)


def score_with_model(model, data: Dataset) -> np.ndarray:
    """Unfolded inference-mode scoring; the reference for fold equivalence."""

    def score_batch(batch: Batch) -> np.ndarray:
        return _clamp_probs(sigmoid(model.forward(batch, mode="infer")))

    check_rows(data, model.config)
    return _score_grouped(score_batch, data)


def _score_grouped(score_batch, data: Dataset) -> np.ndarray:
    """Scores of ``data`` in input order, from one ``score_batch`` call per
    run of at most ``SCORE_BATCH`` rows of one domain: rows are grouped by
    domain with a stable sort and the scores scattered back."""
    n = len(data)
    out = np.empty(n)
    order = np.argsort(data.p, kind="stable")
    domain_starts = np.flatnonzero(np.diff(data.p[order])) + 1
    for rows in np.split(order, domain_starts):
        for start in range(0, rows.size, SCORE_BATCH):
            chunk = rows[start:start + SCORE_BATCH]
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


def score_file(folded: FoldedModel, data_path: str, out_path: str
               ) -> ScoreSummary:
    """Score a dataset file into ``user<TAB>p<TAB>yhat<TAB>y`` lines.

    Output order follows input order.  Lines whose domain the model does not
    serve are skipped and reported in the summary; an id outside the model's
    vocabularies is a DataError, raised before the output is opened.
    """
    data = read_dataset(data_path)
    validate_ids(data, folded.config)
    served = data.p <= folded.num_domains
    skipped = np.flatnonzero(~served)
    errors = []
    if skipped.size:
        first = skipped[:10].tolist()
        errors = [f"line {lineno}: unknown domain {data.p[row]}"
                  for row, lineno in zip(first, _line_numbers(data_path, first))]
        data = data.take(np.flatnonzero(served))
    yhat = _score_grouped(folded.score_batch, data)
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


# The folded model file is the tensor container (``container``) with
# ``kind="folded"``; that module's docstring names every tensor.
def save_folded(folded: FoldedModel, path: str):
    tensors = {f"embed.{name}": w for name, w in folded.embeddings.items()}
    for p, dom in enumerate(folded.domains, start=1):
        for prefix, layers in ((f"d{p}", dom.layers),
                               (f"d{p}.aux", dom.aux_layers)):
            for li, (w, b) in enumerate(layers):
                tensors[f"{prefix}.{li}.W"] = w
                tensors[f"{prefix}.{li}.b"] = b
    write_atomic(path, pack("folded", folded.config, tensors))


def _assemble_folded(config: ModelConfig, take) -> FoldedModel:
    embeddings = {name: take(f"embed.{name}", (vocab, config.embed_dim))
                  for name, vocab in field_vocabs(config).items()}

    def layers(prefix: str, dims: tuple[int, ...]):
        return [(take(f"{prefix}.{li}.W", dims[li:li + 2]),
                 take(f"{prefix}.{li}.b", dims[li + 1:li + 2]))
                for li in range(len(dims) - 1)]

    trunk = (config.input_dim,) + config.layer_widths
    aux = ((config.input_dim, config.aux_hidden, 1)
           if config.aux_enabled and config.aux_use_features else ())
    domains = [FoldedDomain(layers(f"d{p}", trunk), layers(f"d{p}.aux", aux))
               for p in range(1, config.num_domains + 1)]
    return FoldedModel(config, embeddings, domains)


def load_folded(path: str) -> FoldedModel:
    return unpack(Path(path).read_bytes(), "folded", _assemble_folded)

