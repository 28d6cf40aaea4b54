"""Span tracing for the benchmark, applied from outside the package.

The tracer replaces public functions and methods of ``bowseq`` with thin
wrappers that record one span per call: name, start, end and the span that
was open when the call began.  Spans stay in memory and are written out once
at the end.  Nothing under ``src/`` knows about the tracer; ``patched``
restores every replaced attribute on exit.

The same module holds the two counters that the traced run takes at layer
boundaries: the size of each autodiff graph handed to ``backward`` and the
cyclic garbage collector's work, read from ``gc.callbacks``.

Import it after ``src/`` is on ``sys.path``, as ``worker.py`` does.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import time
from pathlib import Path

from bowseq import autodiff, inference, training
from bowseq.model import LstmCell, Seq2SeqModel

#: (span name, owner, attribute) for every wrapped call site.  Module-level
#: names are patched in the module that calls them and methods on their
#: class, so calls made inside the package go through the wrapper.
LAYERS = (
    ("data.make_batches", training, "make_batches"),
    ("model.forward", Seq2SeqModel, "forward_teacher_forced"),
    ("model.encode", Seq2SeqModel, "encode"),
    ("model.lstm_step", LstmCell, "step"),
    ("model.decode_step", Seq2SeqModel, "decode_step"),
    ("model.attend", Seq2SeqModel, "attend"),
    ("objectives.word_loss", training, "word_loss"),
    ("objectives.bag_loss", training, "bag_loss"),
    ("objectives.clip", training, "clip_gradients"),
    ("objectives.adam", training, "adam_step"),
    ("autodiff.backward", autodiff, "backward"),
    ("inference.beam_search", inference, "beam_search"),
    ("training.loop", training, "train_model"),
)

#: Span around the graph walk that counts nodes; it is tracer work, not a layer.
GRAPH_WALK = "bench.graph_walk"


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` triples, restoring the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def graph_size(root) -> tuple[int, int]:
    """Nodes reachable from ``root`` through ``Node.parents`` and their
    value + grad bytes."""
    seen = {id(root)}
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.value.nbytes + node.grad.nbytes
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen), nbytes


class Tracer:
    """Collects spans, graph sizes and GC activity while ``active``."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, float, float]] = []  # id, name, parent, start, end
        self.graph_nodes: list[int] = []
        self.graph_bytes: list[int] = []
        self.gc_collected = 0
        self.gc_pause_s = 0.0
        self._stack: list[int] = [-1]
        self._gc_started = 0.0

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id in call order
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (span_id, name, parent, start, end)

        return wrapper

    def _counting_backward(self, backward):
        walk = self._span(GRAPH_WALK, graph_size)

        @functools.wraps(backward)
        def wrapper(root):
            nodes, nbytes = walk(root)
            self.graph_nodes.append(nodes)
            self.graph_bytes.append(nbytes)
            return backward(root)

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.gc_collected += info["collected"]

    @contextlib.contextmanager
    def active(self):
        """Wrap every layer in ``LAYERS`` and listen to the collector."""
        replacements = []
        for name, owner, attr in LAYERS:
            fn = self._span(name, owner.__dict__[attr])
            if name == "autodiff.backward":
                fn = self._counting_backward(fn)
            replacements.append((owner, attr, fn))
        gc.callbacks.append(self._on_gc)
        try:
            with patched(replacements):
                yield
        finally:
            gc.callbacks.remove(self._on_gc)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, excluding time covered by child spans."""
        totals: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for span_id, name, _, start, end in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[span_id]
        return totals

    def root_time(self) -> float:
        return sum(end - start for _, _, parent, start, end in self.spans if parent < 0)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[1] == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, parent, start, end in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "name": name, "parent": parent,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
