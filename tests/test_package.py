"""The package's public surface: every exported name resolves, once."""

import reformlab


def test_all_names_resolve_without_duplicates():
    assert len(reformlab.__all__) == len(set(reformlab.__all__))
    missing = [name for name in reformlab.__all__ if not hasattr(reformlab, name)]
    assert missing == []
