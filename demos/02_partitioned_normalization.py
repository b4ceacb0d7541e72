"""Why per-domain normalization matters when domains have shifted inputs.

Two domains produce features with different means and scales.  Batch
normalization folds both into one set of moving moments, so at inference each
domain sees mis-centered inputs.  Partitioned normalization keeps per-domain
moments and per-domain scale/bias, so each domain is standardized on its own
terms -- and with unit domain scale and zero domain bias it reduces exactly
(bitwise) to batch normalization.  Batch normalization is the same class
with one partition that every domain maps to and no domain affine.
"""

import numpy as np

from starctr.layers import PartitionedNorm
from starctr.tensor import make_rng


def main():
    rng = make_rng(0)
    dim = 4
    draw = {
        1: lambda n: rng.normal(0.0, 1.0, size=(n, dim)),
        2: lambda n: rng.normal(3.0, 0.5, size=(n, dim)),
    }

    bn = PartitionedNorm(dim, num_domains=2, per_domain=False)
    pn = PartitionedNorm(dim, num_domains=2)
    for _ in range(300):
        for p in (1, 2):
            z = draw[p](256)
            bn.forward_train(z, p)
            pn.forward_train(z, p)

    print("moving means learned by each normalizer:")
    print(f"  bn (one global set) : {np.round(bn.moving_mean[0], 2)}")
    print(f"  pn domain 1         : {np.round(pn.moving_mean[0], 2)}")
    print(f"  pn domain 2         : {np.round(pn.moving_mean[1], 2)}")

    z1 = draw[1](2000)
    print("\ninference on fresh domain-1 data (per-feature output means):")
    print(f"  bn : {np.round(bn.forward_infer(z1, 1).mean(axis=0), 2)}"
          "  <- off-center: global moments absorbed domain 2")
    print(f"  pn : {np.round(pn.forward_infer(z1, 1).mean(axis=0), 2)}"
          "  <- centered")

    bn2 = PartitionedNorm(dim, num_domains=3, per_domain=False)
    pn2 = PartitionedNorm(dim, num_domains=3)
    z = draw[1](64)
    same = np.array_equal(pn2.forward_train(z, 2), bn2.forward_train(z, 2))
    print(f"\npn with unit domain scale/zero domain bias == bn bitwise: {same}")


if __name__ == "__main__":
    main()
