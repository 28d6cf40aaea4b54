"""Package surface: every name ``bowseq`` exports exists."""

import bowseq


def test_every_exported_name_resolves():
    assert len(set(bowseq.__all__)) == len(bowseq.__all__)
    assert [name for name in bowseq.__all__ if not hasattr(bowseq, name)] == []
    namespace: dict = {}
    exec("from bowseq import *", namespace)
    assert set(bowseq.__all__) <= set(namespace)
