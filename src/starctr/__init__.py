"""Multi-domain CTR prediction at desk scale.

One model serves M business domains: a shared embedding front-end,
domain-partitioned normalization, a star-topology fully-connected trunk
(shared weights element-wise modulated per domain), and a small auxiliary
network that feeds the domain indicator straight into the final logit.
Includes baselines, a synthetic multi-domain generator, a shuffle-buffer
training pipeline, ranking/calibration metrics, and weight-folded serving.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# One BLAS thread, set before numpy loads: a second changes a gemm's
# rounding, so a seed's checkpoint, and buys no speed at this scale.
BLAS_THREADS = None if "numpy" in _sys.modules else 1   # None: set too late
_os.environ.update(dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from . import errors
from .checkpoint import load_model, save_model
from .config import ExperimentConfig, load_experiment_config, parse_experiment_config
from .datagen import (
    Dataset,
    DomainProfile,
    Example,
    GenConfig,
    default_gen_config,
    generate,
    generate_examples,
    read_dataset,
    write_dataset,
)
from .gradcheck import run_all as run_gradchecks
from .layers import (
    EmbeddingTable,
    FcLayer,
    LayerNorm,
    PartitionedNorm,
    sigmoid,
)
from .metrics import (
    MetricReport,
    PredictionColumns,
    auc,
    build_report,
    pcoc,
    weighted_auc,
)
from .model import (
    AuxNet,
    Batch,
    ModelConfig,
    StarFcn,
    build_model,
    embed_and_pool,
    star_layer_params,
)
from .optim import Adam, bce_loss
from .pipeline import ShuffleBuffer, iter_batches, stream_batches
from .serve import FoldedModel, fold, load_folded, save_folded, score_file
from .tensor import grad_check, make_rng
from .train import evaluate_model, run_ablation, train_model, train_step

__all__ = [
    "Adam", "AuxNet", "Batch", "Dataset",
    "DomainProfile",
    "EmbeddingTable", "Example", "ExperimentConfig", "FcLayer", "FoldedModel",
    "GenConfig", "LayerNorm", "MetricReport", "ModelConfig",
    "PartitionedNorm", "PredictionColumns", "ShuffleBuffer", "StarFcn",
    "auc", "bce_loss", "build_model", "build_report",
    "default_gen_config", "embed_and_pool", "errors", "evaluate_model",
    "fold", "generate", "generate_examples", "grad_check", "iter_batches",
    "load_experiment_config", "load_folded", "load_model", "make_rng",
    "parse_experiment_config", "pcoc", "read_dataset",
    "run_ablation", "run_gradchecks", "save_folded", "save_model",
    "score_file", "sigmoid", "star_layer_params", "stream_batches",
    "train_model", "train_step", "weighted_auc", "write_dataset",
]
