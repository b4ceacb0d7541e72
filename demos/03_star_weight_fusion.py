"""The star topology: one shared stack, M domain stacks, fused per layer.

Domain p's effective layer is (W_p * W, b_p + b).  Domain stacks start at
ones/zeros, so every domain initially IS the shared model; training moves
each domain's multiplicative mask away from ones only on its own examples.
"""

import numpy as np

from starctr.gradcheck import random_examples, tiny_model_config
from starctr.model import Batch, build_model, star_layer_params
from starctr.optim import Adam
from starctr.train import train_step


def main():
    w = np.array([[2.0, -1.0], [0.5, 4.0]])
    b = np.array([1.0, -1.0])
    w_p = np.array([[1.5, 1.0], [0.0, 2.0]])
    b_p = np.array([0.25, 0.0])
    w_star, b_star = star_layer_params(w, b, w_p, b_p)
    print("shared layer\n", w, b)
    print("domain mask\n", w_p, b_p)
    print("fused layer for this domain\n", w_star, b_star)

    config = tiny_model_config("star", "pn", aux=False)
    model = build_model(config)
    print("\nfresh model (no aux): domain stacks are all-ones masks ->")
    ex1 = random_examples(6, config, domain=1, seed=8)
    ex2 = [e._replace(p=2) for e in ex1]
    model.norm.moving_mean[:] = 0.0
    model.norm.moving_var[:] = 1.0
    model.norm.populated[:] = True
    out1 = model.forward(ex1, mode="infer")
    out2 = model.forward(Batch.from_examples(ex2), mode="infer")
    print(f"  same inputs through domain 1 vs domain 2: "
          f"max diff {np.abs(out1 - out2).max():.1e}")

    print("\nten optimizer steps on domain-1 batches:")
    opt = Adam(model.arena, lr=0.01)
    for step in range(10):
        train_step(model, opt, random_examples(16, config, 1, seed=50 + step))
    drift1 = np.abs(model.fcn.domain[0][0].W.value - 1.0).max()
    drift2 = np.abs(model.fcn.domain[1][0].W.value - 1.0).max()
    print(f"  domain-1 mask drift from ones: {drift1:.4f}")
    print(f"  domain-2 mask drift from ones: {drift2:.4f}  "
          "<- untouched, structurally isolated")


if __name__ == "__main__":
    main()
