"""The public API: every exported name resolves.

An export left behind for a deleted symbol fails here rather than in a
user's import.
"""

import starctr


def test_every_export_resolves():
    assert [name for name in starctr.__all__
            if not hasattr(starctr, name)] == []


def test_star_import():
    namespace = {}
    exec("from starctr import *", namespace)
    assert set(starctr.__all__) <= set(namespace)
