"""The drift ledger (``tests/golden/ledger.json``) still describes the code.

Each test names every entry that changed.  A change that moves an entry on
purpose rewrites the ledger with ``tests/golden/update.py`` and lists the
entry, its old and new hash and the reason in CHANGES.md.  Entries
downstream of a matrix product are compared only in the environment that
recorded them; elsewhere that test is skipped, naming both environments.
"""

import json

import pytest

from golden.update import LEDGER, compute_ledger, drift


@pytest.fixture(scope="module")
def ledgers(gradient_checks):
    return (json.loads(LEDGER.read_text()),
            compute_ledger(gradient_checks[0]))


def test_portable_entries_unchanged(ledgers):
    recorded, current = ledgers
    changed = drift(recorded["portable"], current["portable"])
    assert not changed, "ledger entries changed:\n" + "\n".join(changed)


def test_gemm_entries_unchanged(ledgers):
    recorded, current = ledgers
    if recorded["environment"] != current["environment"]:
        pytest.skip(f"ledger recorded under {recorded['environment']}, this "
                    f"run has {current['environment']}: entries downstream "
                    f"of a matrix product not compared")
    changed = drift(recorded["gemm"], current["gemm"])
    assert not changed, "ledger entries changed:\n" + "\n".join(changed)
