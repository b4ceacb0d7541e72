"""Sliding-window shuffle buffer emitting single-domain mini-batches.

Arrival order in production drifts (different domains spike at different
hours), so training directly in chronological order destabilizes the domain
mix.  The buffer holds a window of history, picks a domain proportional to
its buffered share, and samples that domain's examples uniformly without
replacement.  Every stored example is emitted exactly once.  Single
threaded by design: one caller drives the iterator.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .data import Batch, Dataset
from .errors import ConfigError

_NO_ROWS = np.zeros(0, dtype=np.int64)


class ShuffleBuffer:
    """Bounded pool of stream row indices bucketed by domain.

    Each domain's pool keeps its rows in arrival order.
    """

    def __init__(self, capacity: int, rng: np.random.Generator):
        if capacity < 1:
            raise ConfigError(f"buffer capacity {capacity} must be positive")
        self.capacity = capacity
        self.rng = rng
        self._pools: dict[int, np.ndarray] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def free(self) -> int:
        return self.capacity - self._size

    def add(self, rows: np.ndarray, domains: np.ndarray):
        """Buffer the stream rows ``rows``, whose domains are ``domains``."""
        if rows.size > self.free:
            raise ConfigError("buffer overfilled")
        for p in np.unique(domains).tolist():
            pool = self._pools.get(p, _NO_ROWS)
            self._pools[p] = np.concatenate((pool, rows[domains == p]))
        self._size += rows.size

    def domain_counts(self) -> dict[int, int]:
        return {p: pool.size for p, pool in self._pools.items() if pool.size}

    def sample_domain(self, min_count: int = 1) -> int | None:
        """Pick a domain with probability proportional to its buffer share."""
        counts = [(p, c) for p, c in sorted(self.domain_counts().items())
                  if c >= min_count]
        if not counts:
            return None
        weights = np.array([c for _, c in counts], dtype=np.float64)
        idx = int(self.rng.choice(len(counts), p=weights / weights.sum()))
        return counts[idx][0]

    def draw(self, p: int, k: int) -> np.ndarray:
        """Remove and return k uniform rows of domain p, in arrival order."""
        pool = self._pools[p]
        k = min(k, pool.size)
        chosen = self.rng.choice(pool.size, size=k, replace=False)
        mask = np.zeros(pool.size, dtype=bool)
        mask[chosen] = True
        self._pools[p] = pool[~mask]
        self._size -= k
        return pool[mask]


def stream_batches(data: Dataset, buffer: ShuffleBuffer, batch_size: int
                   ) -> Iterator[Batch]:
    """Yield single-domain batches from an arrival stream through the buffer.

    While the stream is live, only domains holding at least 2 buffered
    examples are eligible (downstream normalizers need batches of 2+).  Once
    the stream is exhausted the buffer drains completely, so leftover
    singletons are still emitted and conservation holds; callers that train
    should skip batches smaller than 2.
    """
    if batch_size > buffer.capacity:
        raise ConfigError(
            f"batch_size {batch_size} exceeds buffer capacity {buffer.capacity}"
        )
    n = len(data)
    pos = 0
    exhausted = False

    def refill():
        # The stream counts as exhausted once the buffer has room it cannot
        # fill, not when its last row is buffered.
        nonlocal pos, exhausted
        end = min(n, pos + buffer.free)
        buffer.add(np.arange(pos, end), data.p[pos:end])
        pos = end
        exhausted = exhausted or (pos == n and buffer.free > 0)

    refill()
    while len(buffer) > 0:
        p = buffer.sample_domain(min_count=2)
        if p is None or exhausted:
            # Drain mode (or no domain has 2 buffered): emit whatever exists;
            # a buffer that holds a row has a domain that holds one.
            p = buffer.sample_domain(min_count=1)
        yield Batch(data.take(buffer.draw(p, batch_size)))
        refill()


def iter_batches(data: Dataset, batch_size: int) -> Iterator[Batch]:
    """Chronological batching (no buffer): consecutive same-domain runs.

    Splits the stream wherever the domain changes, and runs longer than
    ``batch_size``, so every batch stays single-domain; used as the
    no-buffer comparison point for the pipeline.
    """
    domain_starts = np.flatnonzero(np.diff(data.p)) + 1
    for run in np.split(np.arange(len(data)), domain_starts):
        for start in range(0, run.size, batch_size):
            yield Batch(data.take(run[start:start + batch_size]))


def batch_domain_mix(batches: Sequence[Batch], window: int = 50
                     ) -> list[dict[int, float]]:
    """Per-window domain mix (fraction of examples per domain) over batches."""
    mixes = []
    for start in range(0, len(batches), window):
        counts: dict[int, int] = {}
        for batch in batches[start:start + window]:
            counts[batch.domain] = counts.get(batch.domain, 0) + batch.size
        total = sum(counts.values())
        mixes.append({p: c / total for p, c in counts.items()})
    return mixes


def mean_tv_distance(mixes: list[dict[int, float]],
                     global_mix: dict[int, float]) -> float:
    """Average total-variation distance of window mixes from the global mix."""
    tvs = []
    for mix in mixes:
        domains = set(mix) | set(global_mix)
        tv = 0.5 * sum(abs(mix.get(p, 0.0) - global_mix.get(p, 0.0))
                       for p in domains)
        tvs.append(tv)
    return float(np.mean(tvs))
