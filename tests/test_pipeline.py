from collections import Counter

import numpy as np

import pytest

from starctr.data import Dataset, Example
from starctr.datagen import default_gen_config, generate_examples
from starctr.errors import ConfigError
from starctr.pipeline import (
    ShuffleBuffer,
    iter_batches,
    batch_domain_mix,
    mean_tv_distance,
    stream_batches,
)
from starctr.tensor import make_rng


def toy_examples(n, num_domains, seed=0, sort_by_domain=False):
    rng = make_rng(seed, stream=77)
    out = [
        Example((int(rng.integers(0, 50)),), int(rng.integers(0, 20)),
                int(rng.integers(0, 50)), int(rng.integers(0, 5)),
                int(rng.integers(0, 2)), int(rng.integers(1, num_domains + 1)))
        for _ in range(n)
    ]
    if sort_by_domain:
        out.sort(key=lambda ex: ex.p)
    return out


class TestShuffleBuffer:
    def test_batch_size_exceeding_capacity(self):
        buffer = ShuffleBuffer(10, make_rng(0))
        with pytest.raises(ConfigError):
            list(stream_batches(Dataset.from_examples([]), buffer, 11))

    def test_every_batch_single_domain(self):
        examples = toy_examples(5_000, 4)
        buffer = ShuffleBuffer(512, make_rng(1))
        for batch in stream_batches(Dataset.from_examples(examples), buffer,
                                    64):
            assert len({ex.p for ex in batch}) == 1

    def test_conservation_full_capacity_is_permutation(self):
        examples = toy_examples(3_000, 3)
        buffer = ShuffleBuffer(3_000, make_rng(2))
        data = Dataset.from_examples(examples)
        emitted = [ex for b in stream_batches(data, buffer, 100) for ex in b]
        assert Counter(emitted) == Counter(examples)

    def test_conservation_small_buffer(self):
        examples = toy_examples(2_000, 5)
        buffer = ShuffleBuffer(256, make_rng(3))
        data = Dataset.from_examples(examples)
        emitted = [ex for b in stream_batches(data, buffer, 32) for ex in b]
        assert Counter(emitted) == Counter(examples)

    def test_deterministic_given_seed(self):
        data = Dataset.from_examples(toy_examples(1_000, 3))
        runs = []
        for _ in range(2):
            buffer = ShuffleBuffer(128, make_rng(42))
            runs.append([tuple(b) for b in stream_batches(data, buffer, 16)])
        assert runs[0] == runs[1]

    def test_buffer_never_exceeds_capacity(self):
        data = Dataset.from_examples(toy_examples(1_000, 2))
        buffer = ShuffleBuffer(64, make_rng(4))
        for _ in stream_batches(data, buffer, 16):
            assert len(buffer) <= 64

    def test_domain_sorted_stream_mixes_earlier_than_chronological(self):
        # Worst-case arrival skew: all of domain 1, then all of domain 2, ...
        examples = toy_examples(20_000, 4, sort_by_domain=True)
        global_counts = Counter(ex.p for ex in examples)
        total = len(examples)
        global_mix = {p: c / total for p, c in global_counts.items()}

        buffer = ShuffleBuffer(10 * 64, make_rng(5))
        data = Dataset.from_examples(examples)
        buffered = list(stream_batches(data, buffer, 64))
        chronological = list(iter_batches(data, 64))

        tv_buffered = mean_tv_distance(batch_domain_mix(buffered, 20),
                                       global_mix)
        tv_chrono = mean_tv_distance(batch_domain_mix(chronological, 20),
                                     global_mix)
        assert tv_buffered < tv_chrono

    def test_acceptance_scale_conservation(self):
        examples = generate_examples(
            default_gen_config(num_domains=5, seed=3, n_examples=100_000,
                               vocab_items=500, vocab_profiles=200,
                               vocab_contexts=20)
        ).examples
        buffer = ShuffleBuffer(25_600, make_rng(6))
        emitted = [ex for b in stream_batches(examples, buffer, 512) for ex in b]
        assert Counter(emitted) == Counter(examples)
        assert len(emitted) == len(examples)


def test_drain_emits_leftover_singletons():
    # Domain 2 has a single example; conservation still holds and the
    # singleton arrives during the drain phase.
    examples = [Example((1,), 0, 0, 0, 0, 1) for _ in range(5)]
    examples.insert(3, Example((2,), 1, 1, 1, 1, 2))
    buffer = ShuffleBuffer(4, make_rng(9))
    batches = list(stream_batches(Dataset.from_examples(examples), buffer, 2))
    emitted = [ex for b in batches for ex in b]
    assert Counter(emitted) == Counter(examples)
    assert any(len(b) == 1 for b in batches)


def reference_batches(examples, capacity, rng, batch_size):
    """The list-based buffer the index plan replaced: same RNG calls, each
    batch in arrival order.  The plan must emit exactly these batches."""
    pools, size, it, exhausted = {}, 0, iter(examples), False

    def refill():
        nonlocal size, exhausted
        while not exhausted and size < capacity:
            try:
                ex = next(it)
            except StopIteration:
                exhausted = True
                break
            pools.setdefault(ex.p, []).append(ex)
            size += 1

    def sample(min_count):
        counts = [(p, len(pool)) for p, pool in sorted(pools.items())
                  if len(pool) >= min_count]
        if not counts:
            return None
        w = np.array([c for _, c in counts], dtype=np.float64)
        return counts[int(rng.choice(len(counts), p=w / w.sum()))][0]

    refill()
    while size:
        p = sample(2)
        if p is None or exhausted:
            p = sample(1)
        pool = pools[p]
        chosen = rng.choice(len(pool), size=min(batch_size, len(pool)),
                            replace=False)
        mask = np.zeros(len(pool), dtype=bool)
        mask[chosen] = True
        yield [ex for ex, m in zip(pool, mask) if m]
        pools[p] = [ex for ex, m in zip(pool, mask) if not m]
        size -= len(chosen)
        refill()


@pytest.mark.parametrize("seed,batch_size,capacity,n", [
    (0, 16, 64, 1_000),      # capacity below n
    (1, 7, 40, 500),
    (2, 4, 8, 300),
    (3, 32, 1_000, 1_000),   # capacity equal to n
    (4, 50, 5_000, 1_000),   # capacity above n
])
def test_index_plan_matches_list_reference(seed, batch_size, capacity, n):
    rng = make_rng(seed, stream=78)
    domains = rng.choice(4, size=n, p=[0.5, 0.3, 0.19, 0.01]) + 1
    # Distinct items make every row identifiable.
    examples = [ex._replace(item=i, p=int(d)) for i, (ex, d) in
                enumerate(zip(toy_examples(n, 4, seed=seed), domains))]
    expected = list(reference_batches(examples, capacity, make_rng(seed),
                                      batch_size))
    got = [list(b) for b in stream_batches(
        Dataset.from_examples(examples),
        ShuffleBuffer(capacity, make_rng(seed)), batch_size)]
    assert got == expected
    if capacity < n:
        # The drain phase emits leftover singletons.
        assert any(len(b) == 1 for b in expected)
