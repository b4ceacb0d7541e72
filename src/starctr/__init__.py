"""Multi-domain CTR prediction at desk scale.

One model serves M business domains: a shared embedding front-end,
domain-partitioned normalization, a star-topology fully-connected trunk
(shared weights element-wise modulated per domain), and a small auxiliary
network that feeds the domain indicator straight into the final logit.

This root pins BLAS to one thread before numpy loads, names the version and
imports no module of the package: each name is imported from its module
(``from starctr.train import train_model``).  ``tests/conftest.py`` and
``tests/golden/update.py`` still import ``starctr`` before numpy loads, as
the variables below pin any BLAS and the ``ctypes`` fallback only OpenBLAS.
"""

__version__ = "0.1.0"
__all__ = ["BLAS_THREADS", "__version__"]

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
