import rigidsolv


def test_every_exported_name_resolves():
    missing = [name for name in rigidsolv.__all__ if not hasattr(rigidsolv, name)]
    assert missing == []
    assert len(set(rigidsolv.__all__)) == len(rigidsolv.__all__)
