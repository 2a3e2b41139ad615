"""The package namespace: every exported name exists."""

from __future__ import annotations

import landsel


def test_every_exported_name_resolves():
    assert [name for name in landsel.__all__ if not hasattr(landsel, name)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from landsel import *", namespace)
    assert set(landsel.__all__) <= set(namespace)
