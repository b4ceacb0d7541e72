"""Streaming training loop, evaluation, and the ablation grid.

``train_step`` is the one training step of the package: zero the
gradients, take the logits of one single-domain batch, their loss and its
gradient, run the backward pass and one Adam update of the model's arena.
``train_model`` streams the batches through the shuffle buffer (or replays
a ``BatchPlan``) and calls it once per batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, TextIO

from .config import ExperimentConfig, with_overrides
from .data import Batch, Dataset, check_rows
from .errors import ConfigError, DataError, NumericError
from .metrics import (MetricReport, PredictionColumns, auc_or_none,
                      build_report)
from .model import build_model
from .optim import Adam, bce_loss
from .pipeline import ShuffleBuffer, stream_batches
from .serve import score_with_model
from .tensor import make_rng

LOG_EVERY = 100
# A batch loss above this stops the run: an uninformed model scores ln 2.
LOSS_CEILING = 1e3


@dataclass
class TrainResult:
    model: object
    steps: int
    final_epoch_loss: float


def _plan_key(config: ExperimentConfig) -> tuple:
    """Every setting the training batches depend on, besides the data."""
    return (config.seed, config.batch_size, config.effective_buffer_capacity,
            config.epochs, config.vocab_items, config.vocab_profiles,
            config.vocab_contexts)


def _epoch_batches(config: ExperimentConfig, data: Dataset,
                   epoch: int) -> Iterator[Batch]:
    buffer = ShuffleBuffer(config.effective_buffer_capacity,
                           make_rng(config.seed, stream=1000 + epoch))
    return stream_batches(data, buffer, config.batch_size)


@dataclass(frozen=True)
class BatchPlan:
    """Every epoch's training batches of one dataset, built once.

    The batches depend only on the data and on the seed, batch size, buffer
    capacity and epoch count, so configs that differ elsewhere (variant,
    normalizer, aux, lr, ...) train on one plan; ids were checked against
    the vocabularies.  ``train_model`` accepts a plan only for a config
    with the same ``key``.
    """

    key: tuple
    epochs: tuple[tuple[Batch, ...], ...]

    @classmethod
    def build(cls, config: ExperimentConfig, data: Dataset) -> "BatchPlan":
        config.validate()
        check_rows(data, config)
        return cls(_plan_key(config),
                   tuple(tuple(_epoch_batches(config, data, epoch))
                         for epoch in range(config.epochs)))


def train_step(model, opt: Adam, batch: Batch) -> float:
    """One optimizer step on one single-domain batch; returns its loss.

    ``zero_grad`` -> ``forward`` (logits) -> ``bce_loss`` -> ``backward``
    -> ``opt.step`` (``arena.spans`` of the domain, and the tables).  A
    non-finite loss, or one above ``LOSS_CEILING``, is a ``NumericError``
    naming the step (``opt.t + 1``) and the domain, raised before any
    gradient accumulates.
    """
    model.zero_grad()
    loss, dlogits = bce_loss(model.forward(batch, mode="train"), batch.y)
    if not math.isfinite(loss) or loss > LOSS_CEILING:
        raise NumericError(f"loss {loss!r} at step {opt.t + 1} "
                           f"(domain {batch.domain}): training diverged")
    model.backward(dlogits)
    opt.step(model.arena.spans(batch.domain), model.embedding_tables())
    return loss


def train_model(config: ExperimentConfig, data: Dataset | BatchPlan,
                log: TextIO | None = None) -> TrainResult:
    """Train a model over the arrival stream via the shuffle buffer.

    ``data`` is streamed through the buffer epoch by epoch, or is a
    ``BatchPlan`` of it whose batches are replayed.  Batches smaller than 2
    (possible only while the buffer drains) are skipped: batch-statistics
    normalizers cannot consume them; a run that trains no batch is a
    ``DataError``.  A non-finite loss, or one above ``LOSS_CEILING``, stops
    the run with a ``NumericError`` naming the step and the domain.
    """
    config.validate()
    if isinstance(data, BatchPlan):
        if data.key != _plan_key(config):
            raise ConfigError(f"batch plan built for (seed, batch_size, "
                              f"buffer, epochs, vocabularies) {data.key},"
                              f" config has {_plan_key(config)}")
        epochs = data.epochs
    else:
        check_rows(data, config)
        epochs = (_epoch_batches(config, data, epoch)
                  for epoch in range(config.epochs))
    model = build_model(config.model_config())
    opt = Adam(model.arena, lr=config.lr)
    epoch_loss = 0.0
    for epoch, batches in enumerate(epochs):
        epoch_loss = 0.0
        epoch_examples = 0
        for batch in batches:
            if batch.size < 2:
                continue
            loss = train_step(model, opt, batch)
            epoch_loss += loss * batch.size
            epoch_examples += batch.size
            if log is not None and opt.t % LOG_EVERY == 0:
                log.write(f"{opt.t}\t{loss!r}\n")
        epoch_loss = epoch_loss / max(epoch_examples, 1)
        if log is not None:
            log.write(f"# epoch {epoch + 1} mean_loss={epoch_loss!r} "
                      f"examples={epoch_examples}\n")
    if opt.t == 0:
        raise DataError("nothing to train on: no batch held 2 or more "
                        "examples")
    return TrainResult(model, opt.t, epoch_loss)


def predictions_for(model, data: Dataset) -> PredictionColumns:
    """Score ``data`` unfolded; an id outside the model's vocabularies, or
    a domain it does not serve, is a DataError naming the example."""
    yhat = score_with_model(model, data)
    return PredictionColumns(user=data.profile, p=data.p, yhat=yhat, y=data.y)


def evaluate_model(model, data: Dataset) -> MetricReport:
    return build_report(predictions_for(model, data))


ABLATION_VARIANTS = (
    ("base", "bn"),
    ("base", "pn"),
    ("star", "bn"),
    ("star", "ln"),
    ("star", "pn"),
)


@dataclass
class AblationRow:
    variant: str
    normalizer: str
    aux: bool
    overall_auc: float | None

    def format(self) -> str:
        """The AUC prints as a Python float's repr whatever numpy's."""
        aux = "on" if self.aux else "off"
        auc = None if self.overall_auc is None else float(self.overall_auc)
        return (f"{self.variant}\t{self.normalizer}\taux={aux}\t"
                f"overall_auc={auc!r}")


def run_ablation(config: ExperimentConfig, train_data: Dataset,
                 eval_data: Dataset) -> list[AblationRow]:
    """Overall AUC for the five architecture/normalizer cells, aux on and
    off; all ten train on one ``BatchPlan`` of ``train_data``.  Both
    datasets are checked before the first cell trains."""
    if not len(eval_data):
        raise DataError("no evaluation examples available for the ablation")
    plan = BatchPlan.build(config, train_data)
    check_rows(eval_data, config)
    rows = []
    for variant, normalizer in ABLATION_VARIANTS:
        for aux in (True, False):
            cell = with_overrides(config, variant=variant,
                                  normalizer=normalizer, aux_enabled=aux)
            model = train_model(cell, plan).model
            rows.append(AblationRow(variant, normalizer, aux, auc_or_none(
                score_with_model(model, eval_data), eval_data.y)))
    return rows
