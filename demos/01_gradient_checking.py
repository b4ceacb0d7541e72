"""Every backward pass in the package, validated by central differences.

All gradients are hand-derived (there is no autodiff here), so each layer and
each full model is checked against (f(theta + h) - f(theta - h)) / 2h.
"""

from starctr.gradcheck import grad_check, run_all

import numpy as np


def main():
    print("A quick warm-up: d/dx x^2 at x=3 against the analytic 6.0")
    err = grad_check(lambda t: float(t[0] ** 2), np.array([3.0]),
                     np.array([6.0]))
    print(f"  relative error {err:.2e}\n")

    print("And a deliberately wrong gradient (scaled by 2) is caught:")
    err = grad_check(lambda t: float(t[0] ** 2), np.array([3.0]),
                     np.array([12.0]))
    print(f"  relative error {err:.2f}  <- clearly flagged\n")

    print("Full sweep over layers and model variants (tolerance 1e-4):")
    for name, err in run_all().items():
        print(f"  {name:24s} {err:.3e}")


if __name__ == "__main__":
    main()
