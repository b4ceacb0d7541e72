import sys

# Imported first, so the session runs BLAS on the one thread the package
# pins before numpy loads.
import starctr  # noqa: F401

sys.path.insert(0, "tests")
