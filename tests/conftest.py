import sys
import time

# Imported first, so the session runs BLAS on the one thread the package
# pins before numpy loads.
import starctr  # noqa: F401
import pytest

sys.path.insert(0, "tests")


@pytest.fixture(scope="session")
def gradient_checks():
    """One ``gradcheck.run_all()`` for the session and its wall time in
    seconds, shared by the gradient-correctness criterion, the drift ledger
    and the CLI's ``gradcheck`` test."""
    from starctr.gradcheck import run_all

    t0 = time.time()
    results = run_all()
    return results, time.time() - t0
