"""Package surface: every name ``bowseq`` exports exists, and so does every
call site the benchmark traces and every bowseq name the scripts and the
benchmark's worker use."""

import ast
import importlib
import inspect
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


def test_every_bowseq_name_the_scripts_use_exists():
    """The scripts and the benchmark's worker import bowseq by name,
    ``paper_batch.py`` down to ``training._train_batch`` and
    ``data.make_batches``, the worker down to ``greedy_decode`` and
    ``training.make_batches``, and no other test runs them: each of their
    imports from bowseq must succeed, and every attribute they read off a
    bowseq module must exist."""
    missing, read = [], set()
    for script in ("scripts/paper_batch.py", "scripts/a4_seeds.py", "scripts/bits.py",
                   "perfbench/worker.py"):
        path = Path(__file__).resolve().parents[1] / script
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names: dict = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bowseq"):
                exec(compile(ast.Module([node], []), str(path), "exec"), names)
        modules = {name: value for name, value in names.items() if inspect.ismodule(value)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                read.add((node.value.id, node.attr))
                if not hasattr(modules[node.value.id], node.attr):
                    missing.append((script, node.value.id, node.attr))
    assert {("training", "_train_batch"), ("data", "make_batches"),
            ("training", "make_batches"), ("inference", "beam_search")} <= read
    assert missing == []
