"""The package's public surface: every name in ``__all__`` is exported."""

import todagibbs


def test_all_names_resolve_and_star_import_succeeds():
    assert len(set(todagibbs.__all__)) == len(todagibbs.__all__)
    assert [name for name in todagibbs.__all__ if not hasattr(todagibbs, name)] == []
    namespace = {}
    exec("from todagibbs import *", namespace)
    assert set(todagibbs.__all__) <= namespace.keys()
