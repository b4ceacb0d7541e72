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

# One BLAS thread: a second changes a gemm's rounding, so a seed's
# checkpoint, and buys no speed at this scale.  The variables pin a BLAS
# that numpy has yet to load; an OpenBLAS it has loaded is told directly.
_os.environ.update(dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                "scipy_openblas_set_num_threads",
                "openblas_set_num_threads64_", "openblas_set_num_threads")


def _pin_loaded_openblas() -> bool:
    """Call ``*openblas_set_num_threads*(1)`` in each OpenBLAS this process
    has loaded (Linux lists them in /proc/self/maps); True if one took it."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {parts[5].strip() for parts in map(str.split, fh)
                     if len(parts) == 6 and "openblas" in parts[5]}
    except OSError:
        return False
    pinned = False
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _SET_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                pinned = True
                break
    return pinned


# None: numpy came first and loaded no OpenBLAS that could be pinned.
BLAS_THREADS = (1 if "numpy" not in _sys.modules or _pin_loaded_openblas()
                else None)

from . import errors
from .checkpoint import load_model, save_model
from .config import (ExperimentConfig, ModelConfig, load_experiment_config,
                     parse_experiment_config)
from .data import Dataset, Example, read_dataset, write_dataset
from .datagen import (
    DomainProfile,
    GenConfig,
    default_gen_config,
    generate,
    generate_examples,
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
