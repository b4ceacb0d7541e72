"""The seeded generator and the array kernels of the package.

``make_rng(seed, stream)`` is the generator every draw in the package comes
from, so a seed reproduces every experiment.  ``relu``, the stable
``sigmoid``, ``mean_pool`` (over ``_segment_sum``) and ``standardize`` are
plain functions of arrays that the layers, folded serving and the data
generator share; this module imports nothing of the package, so serving and
the generator load no training layer.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Seeded counter-based generator (Philox).

    Identical (seed, stream) pairs give bitwise-identical draw sequences, so
    every experiment in this package is reproducible from its seed alone.
    """
    return np.random.Generator(np.random.Philox([int(seed), int(stream)]))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function: ``1 / (1 + e)`` where x >= 0
    and ``e / (1 + e)`` elsewhere, with ``e = exp(-|x|)``, so no exp
    overflows.  Both branches are computed for every value and ``np.where``
    picks one, which is cheaper than masking the input.  A caller that
    already holds ``exp(-|x|)`` passes it as ``e``."""
    x = np.asarray(x, dtype=np.float64)
    if e is None:
        e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _segment_sum(segments: np.ndarray, values: np.ndarray,
                 num_segments: int) -> np.ndarray:
    """Sum the rows of ``values`` (n, dim) into ``num_segments`` rows by
    ``segments`` (n,).

    One ``np.bincount`` over cell ids ``segment * dim + col``: each cell
    starts at 0.0 and adds its values in input order.  That is the order of
    numpy's unbuffered scatter-add (``ufunc.at`` on ``np.add``), so the
    result is bitwise equal to that scatter into zeros.
    """
    dim = values.shape[1]
    cells = np.arange(num_segments * dim).reshape(num_segments, dim)
    cells = cells.take(segments, axis=0)
    sums = np.bincount(cells.ravel(), weights=values.ravel(),
                       minlength=num_segments * dim)
    # bincount of an empty input is int64 whatever the weights.
    return sums.astype(np.float64, copy=False).reshape(num_segments, dim)


def mean_pool(weights: np.ndarray, flat_ids: np.ndarray,
              counts: np.ndarray | None) -> np.ndarray:
    """Mean of ``weights`` rows over consecutive slices of ``flat_ids``, one
    slice of ``counts[i]`` ids per output row; an empty slice pools to zeros.
    ``counts=None`` means one id per row.

    The one pooling routine of the package: training, folded serving and the
    data generator all call it.  Sums run in occurrence order from 0.0 and
    are then divided by the count, so the result is bitwise equal to an
    unbuffered scatter-add (``ufunc.at`` on ``np.add``) into zeros followed
    by the same division.  Ids are not checked: numpy wraps negative ones.
    """
    if counts is None:
        return weights.take(flat_ids, axis=0)
    owner = np.repeat(np.arange(counts.size), counts)
    out = _segment_sum(owner, weights.take(flat_ids, axis=0), counts.size)
    out /= np.maximum(counts, 1)[:, None]
    return out


def standardize(z: np.ndarray, epsilon: float, axis: int):
    """``(z - mean) * inv`` with ``inv = 1 / sqrt(var + epsilon)``, the
    moments taken along ``axis``: 0 standardizes each column by the batch
    (bn, pn), 1 each row by its features (ln).

    Returns ``(xhat, mean, var, inv)``; the moments keep ``axis``."""
    mu = z.mean(axis=axis, keepdims=True)
    diff = z - mu
    var = np.mean(diff * diff, axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + epsilon)
    return diff * inv, mu, var, inv
