"""Package surface: every name ``bowseq`` exports exists, and so does every
call site the benchmark traces."""

import importlib
from pathlib import Path

import bowseq


def test_every_exported_name_resolves():
    assert len(set(bowseq.__all__)) == len(bowseq.__all__)
    assert [name for name in bowseq.__all__ if not hasattr(bowseq, name)] == []
    namespace: dict = {}
    exec("from bowseq import *", namespace)
    assert set(bowseq.__all__) <= set(namespace)


def test_every_benchmark_traced_call_site_exists(monkeypatch):
    """The benchmark's tracer wraps ``(owner, attribute)`` pairs by name; a
    refactor that drops one breaks the traced run, so it fails here first."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    missing = [(name, attr) for name, owner, attr in tracing.LAYERS if attr not in owner.__dict__]
    assert missing == []
