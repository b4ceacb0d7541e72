"""The synthetic multi-domain generator and the shuffle-buffer pipeline.

Domains differ in traffic share, base CTR (calibrated by bisection), which
ids they sample (latent shifts), and their label function (shared weights
plus a domain-specific deviation).  The buffer turns an arbitrarily skewed
arrival order into a steady stream of single-domain mini-batches without
dropping or duplicating a single example.
"""

from collections import Counter

import numpy as np

from starctr.datagen import default_gen_config, generate_examples
from starctr.pipeline import (
    ShuffleBuffer,
    iter_batches,
    batch_domain_mix,
    mean_tv_distance,
    stream_batches,
)
from starctr.tensor import make_rng


def main():
    config = default_gen_config(num_domains=5, seed=0, n_examples=50_000)
    result = generate_examples(config)
    data = result.examples
    print("domain   share    target_ctr  realized_ctr")
    counts = Counter(data.p.tolist())
    for p, prof in enumerate(config.profiles, start=1):
        print(f"  {p}      {counts[p] / len(data):.3f}"
              f"    {prof.base_ctr:.4f}      {result.realized_ctr[p]:.4f}")

    print("\nworst-case arrival order: the stream sorted by domain")
    stream = data.take(np.argsort(data.p, kind="stable"))
    global_mix = {p: c / len(stream) for p, c in counts.items()}

    chrono = list(iter_batches(stream, 512))
    buffered = list(stream_batches(stream, ShuffleBuffer(5120, make_rng(1)),
                                   512))
    tv_c = mean_tv_distance(batch_domain_mix(chrono, 20), global_mix)
    tv_b = mean_tv_distance(batch_domain_mix(buffered, 20), global_mix)
    print(f"  rolling domain-mix TV distance, chronological: {tv_c:.3f}")
    print(f"  rolling domain-mix TV distance, buffered:      {tv_b:.3f}")

    emitted = Counter(ex for b in buffered for ex in b)
    print(f"  emitted examples == stored examples: "
          f"{emitted == Counter(stream)}")
    print(f"  every batch single-domain: "
          f"{all(len(set(b.p.tolist())) == 1 for b in buffered)}")


if __name__ == "__main__":
    main()
