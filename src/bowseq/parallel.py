"""The large kernels split over the machine's cores, bit for bit.

On the first call of any of its functions this module sets the bundled
OpenBLAS to one thread and starts a pool of (cores - 1) worker threads;
importing it starts nothing.  From then on every product bowseq computes
runs on one BLAS thread, whole or in parts split here.  With OpenBLAS's own
threads, its idle worker spins on the second core for a tenth of a second
or more after every multithreaded product, so the elementwise passes
between products (softmax, clipping, Adam) could not use that core, and a
product's bits depend on the thread count at some column counts (100 and
257 columns differ between one thread and two).  Here bowseq splits the
work itself:

- ``each(fn, n, work)`` runs ``fn(lo, hi)`` over contiguous parts of
  ``[0, n)``, for rows or blocks of elementwise work;
- ``columns(fn, m, k, n)`` runs ``fn(lo, hi)`` over the output columns of
  an (m, k) x (k, n) product, for phases built around one;
- ``matmul(a, b, out, bias)`` is a product, plus a bias row, a 2-D one
  split by ``columns``.

The caller runs the first part itself; the workers run the others under a
copy of its ``contextvars`` context, which carries NumPy's ``errstate``.
Every part writes only its own slice of arrays that the caller allocated,
and any scratch it allocates itself.

Splits move no bit.  Elementwise work and row-wise reductions are the same
arithmetic on any contiguous part.  A product is split only along its output
columns, with cuts at multiples of ``_TILE`` and at least ``_MIN_PRODUCT``
multiply-adds in every part: each output column then goes through the same
OpenBLAS kernel with the same reduction order as in the whole product,
while smaller sub-products may take OpenBLAS's small-matrix kernel, and
other cuts or row splits change the tiling.  Measured on OpenBLAS 0.3.31
with its SkylakeX kernels only; other builds and kernels may tile
differently, and ``tests/test_parallel.py``, which keeps a grid of shapes,
is the check to run there.

If OpenBLAS cannot be set to one thread, or there is one core, every ``fn``
runs inline over the whole range.  Calls from inside a part, or while
another thread's split runs, run inline too.
"""

from __future__ import annotations

import contextvars
import ctypes
import glob
import os
import queue
import threading
import time
from pathlib import Path
from typing import Callable

import numpy as np

#: Least multiply-adds in each part of a split product.
_MIN_PRODUCT = 1 << 22
#: Column cuts of a split product fall at multiples of this.
_TILE = 64
#: Least entries of elementwise work in each part of ``each``.
_MIN_ENTRIES = 1 << 18
#: After a part, a worker waits for the next one in waits of ``_POLL_S``
#: seconds for ``_AWAKE_S`` seconds, then in one wait.
_POLL_S = 1e-4
_AWAKE_S = 3e-3

Part = Callable[[int, int], None]


class _Pool:
    """Worker threads, started on first use.  They live as long as the
    process, blocked on the task queue between splits."""

    def __init__(self, width: int = 0) -> None:
        self.started = threading.Lock()
        self.busy = threading.Lock()
        self.tasks: queue.SimpleQueue = queue.SimpleQueue()
        self.width = 0  # parts a split may have; 0 until started, 1 inline
        if width:
            self.spawn(width)

    def start(self) -> int:
        """Set OpenBLAS to one thread and start the workers, once; returns
        the width."""
        with self.started:
            if not self.width:
                cores = _cores()
                self.spawn(cores if cores > 1 and _blas_to_one_thread() else 1)
        return self.width

    def spawn(self, width: int) -> None:
        for _ in range(width - 1):
            threading.Thread(target=self.serve, name="bowseq", daemon=True).start()
        self.width = width

    def serve(self) -> None:
        """Run parts until the process ends.  For ``_AWAKE_S`` after each
        part the worker waits for the next one in short timed waits, and
        only then in one blocking wait.  Measured on a 2-vCPU virtual
        machine: a worker woken from a long wait started its part a median
        150 µs after the caller, about a tenth of a greedy decoding step at
        V=16k, and the short waits put greedy decoding there back at the
        speed it had with OpenBLAS's own threads.  Unlike a spin, a timed
        wait holds neither a core nor the interpreter lock."""
        awake_until = 0.0
        while True:
            try:
                if time.perf_counter() < awake_until:
                    task = self.tasks.get(timeout=_POLL_S)
                else:
                    task = self.tasks.get()
            except queue.Empty:
                continue
            context, fn, lo, hi, done = task
            try:
                context.run(fn, lo, hi)
                outcome = None
            except BaseException as err:  # handed to the caller, which raises it
                outcome = err
            # Drop the part before reporting it done: its closure, or a
            # failure's traceback, can hold arrays as large as a whole
            # optimizer state.
            del task, context, fn
            done.put(outcome)
            del done, outcome
            awake_until = time.perf_counter() + _AWAKE_S

    def run(self, fn: Part, bounds: list[int]) -> None:
        """``fn`` over the parts between consecutive ``bounds``."""
        if not self.busy.acquire(blocking=False):
            fn(bounds[0], bounds[-1])
            return
        try:
            # A queue per split, so that a split abandoned by an interrupt
            # cannot hand its parts' outcomes to the next one.
            done: queue.SimpleQueue = queue.SimpleQueue()
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                self.tasks.put((contextvars.copy_context(), fn, lo, hi, done))
            try:
                fn(bounds[0], bounds[1])
            finally:
                errors = [done.get() for _ in bounds[2:]]
            for err in errors:
                if err is not None:
                    raise err
        finally:
            self.busy.release()


_pool = _Pool()
# A forked child has none of the parent's threads: it starts its own pool.
os.register_at_fork(after_in_child=lambda: globals().update(_pool=_Pool()))


def _cores() -> int:
    """The cores this process may run on (all of them where the platform
    cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_to_one_thread() -> bool:
    """Set the OpenBLAS that NumPy bundles to one thread; False if there is
    none, it cannot be loaded, or the setting did not take."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                getter.argtypes, getter.restype = (), ctypes.c_int
                setter(1)
                return getter() == 1
    return False


def each(fn: Part, n: int, work: int) -> None:
    """Run ``fn(lo, hi)`` over contiguous parts of ``[0, n)`` that cover it:
    at most ``n`` parts and one per thread of the pool, with at least
    ``_MIN_ENTRIES`` of ``work`` in each, so work under twice that runs as
    one part."""
    count = min(_pool.width or _pool.start(), n, work // _MIN_ENTRIES)
    if count < 2:
        fn(0, n)
        return
    _pool.run(fn, [n * i // count for i in range(count + 1)])


def columns(fn: Part, m: int, k: int, n: int) -> None:
    """Run ``fn(lo, hi)`` over column ranges of the (m, n) output of an
    (m, k) x (k, n) product: cuts at multiples of ``_TILE``, and at least
    ``_MIN_PRODUCT`` multiply-adds in every part."""
    width = _pool.width or _pool.start()
    if m * k * n < 2 * _MIN_PRODUCT:
        fn(0, n)
        return
    count = min(width, m * k * n // _MIN_PRODUCT)
    while count > 1:
        step = -(-n // (count * _TILE)) * _TILE
        if m * k * min(step, n - (count - 1) * step) >= _MIN_PRODUCT:
            _pool.run(fn, [min(i * step, n) for i in range(count + 1)])
            return
        count -= 1
    fn(0, n)


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
           bias: np.ndarray | None = None) -> np.ndarray:
    """``np.matmul(a, b, out=out)``, plus a (1, n) ``bias`` row when one is
    given.  A 2-D product is split over the cores by ``columns``, the bias
    added within each part, and its output is allocated here when ``out``
    is None."""
    _pool.width or _pool.start()  # the first call of any function here sets BLAS
    if a.ndim == 2 and b.ndim == 2 and a.size * b.shape[1] >= 2 * _MIN_PRODUCT:
        if out is None:
            out = np.empty((a.shape[0], b.shape[1]), np.result_type(a, b))

        def part(lo: int, hi: int) -> None:
            cols = out[:, lo:hi]
            np.matmul(a, b[:, lo:hi], out=cols)
            if bias is not None:
                cols += bias[:, lo:hi]

        columns(part, *a.shape, b.shape[1])
        return out
    out = np.matmul(a, b, out=out)
    if bias is not None:
        out += bias
    return out
