"""Weight folding: serving cost independent of the factorized structure.

Before serving, each domain's fused layer weights (W_p * W, b_p + b) are
pre-computed, the frozen per-domain normalization folds into the first
layer and the feature-free aux net's output into the last bias, so each
domain is one plain ReLU network.  Scores match the unfolded model to float
precision and come out a little faster because the fusion work leaves the
hot path.
The demo also times the request path: one-domain requests of 100 rows.
"""

import time

import numpy as np

from starctr.config import ModelConfig
from starctr.data import Dataset
from starctr.gradcheck import random_examples
from starctr.model import build_model
from starctr.optim import Adam
from starctr.serve import fold, score_with_model
from starctr.train import train_step


def main():
    config = ModelConfig(variant="star", normalizer="pn", aux_enabled=True,
                         aux_use_features=False, num_domains=5, embed_dim=8,
                         vocab_items=1000, vocab_profiles=300,
                         vocab_contexts=20, layer_widths=(64, 32, 1), seed=1)
    model = build_model(config)
    opt = Adam(model.arena)
    for step in range(60):
        domain = 1 + step % 5
        batch = random_examples(64, config, domain, seed=step)
        train_step(model, opt, batch)

    folded = fold(model)
    examples = []
    for p in range(1, 6):
        examples.extend(random_examples(4000, config, p, seed=100 + p))

    t0 = time.perf_counter()
    a = folded.score_examples(examples)
    t_folded = time.perf_counter() - t0
    t0 = time.perf_counter()
    b = score_with_model(model, Dataset.from_examples(examples))
    t_unfolded = time.perf_counter() - t0

    print(f"scored {len(examples)} examples across 5 domains")
    print(f"  max |folded - unfolded| = {np.abs(a - b).max():.2e}")
    print(f"  folded:   {t_folded * 1000:7.1f} ms")
    print(f"  unfolded: {t_unfolded * 1000:7.1f} ms")

    # Serving traffic: one-domain requests of 100 rows, each a list of
    # Example tuples, scored one after another.
    requests = [examples[start:start + 100]
                for start in range(0, len(examples), 100)]
    latency = []
    for i in range(2000):
        request = requests[i % len(requests)]
        t0 = time.perf_counter()
        folded.score_examples(request)
        latency.append(time.perf_counter() - t0)
    latency_us = np.array(latency) * 1e6
    print(f"{len(latency)} one-domain requests of 100 rows")
    print(f"  mean {latency_us.mean():6.1f} us, "
          f"p90 {np.quantile(latency_us, 0.9):6.1f} us")


if __name__ == "__main__":
    main()
