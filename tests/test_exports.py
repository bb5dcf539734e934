"""The package's public export list."""

import cointwatch


def test_every_exported_name_resolves():
    missing = [name for name in cointwatch.__all__ if not hasattr(cointwatch, name)]
    assert missing == []
    assert len(set(cointwatch.__all__)) == len(cointwatch.__all__)


def test_star_import():
    namespace = {}
    exec("from cointwatch import *", namespace)
    assert set(cointwatch.__all__) <= set(namespace)
