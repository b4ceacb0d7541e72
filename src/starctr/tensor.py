"""The seeded generator and the central-difference gradient checker.

``make_rng(seed, stream)`` is the generator every draw in the package comes
from, so a seed reproduces every experiment.  ``grad_check`` compares an
analytic gradient with central differences of a function of a flat float64
vector; ``gradcheck`` runs it over a parameter arena for every hand-derived
backward pass.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericError, ShapeError


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Seeded counter-based generator (Philox).

    Identical (seed, stream) pairs give bitwise-identical draw sequences, so
    every experiment in this package is reproducible from its seed alone.
    """
    return np.random.Generator(np.random.Philox([int(seed), int(stream)]))


def grad_check(
    f: Callable[[np.ndarray], float],
    theta: np.ndarray,
    analytic_grad: np.ndarray,
    h: float = 1e-5,
) -> float:
    """Max relative error between an analytic gradient and central differences.

    For each coordinate i the numeric gradient is
    ``(f(theta + h e_i) - f(theta - h e_i)) / (2 h)`` and the reported error is
    ``max_i |g_a[i] - g_n[i]| / max(1, |g_a[i]| + |g_n[i]|)``.

    ``f`` must be a pure function of ``theta``; it is evaluated 2 * len(theta)
    times on perturbed copies.
    """
    theta = np.asarray(theta, dtype=np.float64).ravel()
    analytic_grad = np.asarray(analytic_grad, dtype=np.float64).ravel()
    if theta.shape != analytic_grad.shape:
        raise ShapeError(
            f"grad_check: theta {theta.shape} vs gradient {analytic_grad.shape}"
        )
    worst = 0.0
    work = theta.copy()
    for i in range(theta.size):
        orig = work[i]
        work[i] = orig + h
        f_plus = float(f(work))
        work[i] = orig - h
        f_minus = float(f(work))
        work[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"grad_check: non-finite f at coordinate {i}")
        g_n = (f_plus - f_minus) / (2.0 * h)
        g_a = analytic_grad[i]
        err = abs(g_a - g_n) / max(1.0, abs(g_a) + abs(g_n))
        if err > worst:
            worst = err
    return worst
