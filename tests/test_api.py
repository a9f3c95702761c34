"""The package's public names: every exported name must exist."""

import src_connector


def test_all_names_resolve():
    missing = [name for name in src_connector.__all__ if not hasattr(src_connector, name)]
    assert missing == []
    assert len(set(src_connector.__all__)) == len(src_connector.__all__)


def test_star_import():
    namespace = {}
    exec("from src_connector import *", namespace)
    assert set(src_connector.__all__) <= namespace.keys()
