"""The package's public surface."""

import percolab


def test_all_exports_resolve_once():
    # a deleted name left in __all__ would break ``from percolab import *``
    missing = [name for name in percolab.__all__ if not hasattr(percolab, name)]
    assert missing == []
    assert len(set(percolab.__all__)) == len(percolab.__all__)
