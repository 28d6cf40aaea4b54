"""The kernels split over threads give the bits of the unsplit kernels.

The tests run their work on pools of 1, 2 and 3 parts, whatever the
machine has, and compare with ``assert_array_equal``: products on a grid of shapes,
the fused generator's values and gradients, clipping, one Adam step, and a
short training run's checkpoint.  The pools are ``parallel._Pool`` objects
swapped in for the module's own; OpenBLAS is set to one thread first, as on
any first use.
"""

import contextlib
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import bowseq
from bowseq import autodiff as ad
from bowseq import parallel
from bowseq.data import EOS, ExamplePair, extract_bag
from bowseq.model import ModelConfig, Seq2SeqModel
from bowseq.objectives import AdamState, ScheduleParams, adam_step, clip_gradients
from bowseq.training import TrainingError, train_model

WIDTHS = (1, 2, 3)
_POOLS: dict[int, parallel._Pool] = {}


@pytest.fixture(autouse=True)
def _one_blas_thread():
    if not parallel._blas_to_one_thread():
        pytest.skip("the bundled OpenBLAS cannot be set to one thread here")


@contextlib.contextmanager
def split_into(width: int):
    """Run bowseq's splits on a pool of ``width`` parts; yields the list of
    the part counts of the splits that ran."""
    if width not in _POOLS:
        _POOLS[width] = parallel._Pool(width)
    pool = _POOLS[width]
    counts: list[int] = []
    run = pool.run

    def counted(fn, bounds):
        counts.append(len(bounds) - 1)
        run(fn, bounds)

    saved, parallel._pool, pool.run = parallel._pool, pool, counted
    try:
        yield counts
    finally:
        parallel._pool = saved
        del pool.run


def each_width(work):
    """{width: work()} over ``WIDTHS``, checking that the widest pool split
    some work into its full width."""
    results = {}
    for width in WIDTHS:
        with split_into(width) as counts:
            results[width] = work()
        if width > 1:
            assert max(counts, default=1) == width, f"nothing split into {width} parts"
    return results


@pytest.mark.parametrize("m,k,n", itertools.product((1, 10, 16, 320), (64, 128, 512),
                                                    (128, 4096, 16000, 50004)))
def test_matmul_matches_the_unsplit_product(m, k, n):
    rng = np.random.default_rng([m, k, n])
    for a_t, b_t in itertools.product((False, True), repeat=2):
        a = rng.standard_normal((k, m)).T if a_t else rng.standard_normal((m, k))
        b = rng.standard_normal((n, k)).T if b_t else rng.standard_normal((k, n))
        expected = np.matmul(a, b)
        for width in WIDTHS:
            with split_into(width):
                np.testing.assert_array_equal(parallel.matmul(a, b), expected,
                                              err_msg=f"{width} parts, transposed {a_t, b_t}")


def test_column_cuts_fall_on_tiles_and_keep_the_floor():
    seen = []
    with split_into(3):
        parallel.columns(lambda lo, hi: seen.append((lo, hi)), 10, 512, 50004)
    assert [lo for lo, _ in seen] == [0, 16704, 33408] and seen[-1][1] == 50004
    seen.clear()
    with split_into(3):
        # Two parts would hold 128 and 2 columns, the second under the floor.
        parallel.columns(lambda lo, hi: seen.append((lo, hi)), 16, 4096, 130)
    assert seen == [(0, 130)]


@pytest.mark.parametrize("n,work,count", [(1 << 20, 2 * parallel._MIN_ENTRIES - 1, 1),
                                           (1, 1 << 30, 1), (1 << 20, 1 << 20, 3)],
                         ids=["work-under-twice-the-floor", "one-index", "three-parts"])
def test_each_runs_contiguous_parts_that_cover_the_range(n, work, count):
    seen = []
    with split_into(3):
        parallel.each(lambda lo, hi: seen.append((lo, hi)), n, work)
    seen.sort()
    assert len(seen) == count and seen[0][0] == 0 and seen[-1][1] == n
    assert all(hi == lo for (_, hi), (lo, _) in zip(seen, seen[1:]))


@pytest.mark.parametrize("budget", [ad._SCORE_BUDGET, 1 << 20], ids=["one-chunk", "two-chunks"])
def test_generator_losses_values_and_gradients(budget, monkeypatch):
    monkeypatch.setattr(ad, "_SCORE_BUDGET", budget)
    rng = np.random.default_rng(8)
    batch, steps, hidden, vocab = 16, 20, 128, 5000
    x0 = rng.standard_normal((steps * batch, hidden))
    w0 = rng.standard_normal((hidden, vocab)) * 0.1
    b0 = rng.standard_normal((1, vocab))
    targets = rng.integers(0, vocab, (batch, steps))
    mask = (np.arange(steps) < rng.integers(1, steps + 1, (batch, 1))).astype(np.float64)
    # Bags of 1 to 50 distinct words, padded with PAD under a 0 mask.
    bag_mask = (np.arange(50) < rng.integers(1, 51, (batch, 1))).astype(np.float64)
    columns = np.stack([rng.choice(np.arange(4, vocab), 50, replace=False) for _ in range(batch)])
    columns[bag_mask == 0.0] = 0

    def run():
        x, w, b = ad.parameter(x0), ad.parameter(w0), ad.parameter(b0)
        word, bag = ad.generator_losses(x, w, b, targets, mask, columns)
        ad.backward(ad.add(word, ad.scale(ad.bag_nll(bag, bag_mask), 0.7)))
        return [word.value, bag.value, x.grad, w.grad, b.grad]

    results = each_width(run)
    for width, got in results.items():
        for name, a, e in zip(("word", "bag", "d_x", "d_weight", "d_bias"), got, results[1]):
            np.testing.assert_array_equal(a, e, err_msg=f"{name}, {width} parts")


def _store_with_gradients():
    """A model whose gradients are random, some above the splitting floors."""
    config = ModelConfig(8000, 8000, emb_size=128, hidden_size=128)
    model = Seq2SeqModel(config, init_rng=np.random.default_rng(1))
    rng = np.random.default_rng(2)
    for _, node in model.params.items():
        node.grad = rng.standard_normal(node.value.shape)
    return model.params


def test_clip_factor_and_clipped_gradients():
    def run():
        store = _store_with_gradients()
        factor = clip_gradients(store, 5.0)
        return factor, [node.grad for _, node in store.items()]

    results = each_width(run)
    assert results[1][0] < 1.0
    for width, (factor, grads) in results.items():
        assert factor == results[1][0], width
        for got, expected in zip(grads, results[1][1]):
            np.testing.assert_array_equal(got, expected, err_msg=f"{width} parts")


def test_adam_steps():
    def run():
        store = _store_with_gradients()
        state = AdamState.for_store(store, lr=1e-3)
        adam_step(store, state)
        adam_step(store, state)
        return [a for name, node in store.items() for a in (node.value, state.m[name],
                                                             state.v[name])]

    results = each_width(run)
    for width, arrays in results.items():
        for got, expected in zip(arrays, results[1]):
            np.testing.assert_array_equal(got, expected, err_msg=f"{width} parts")


def test_clipping_and_adam_make_no_full_size_temporary():
    """Each part of clipping and Adam allocates only block-sized scratch: at
    most 512 KB per part, where a temporary the size of ``gen.weight``
    (1.02M entries) alone would be 8 MB."""
    def run():
        store = _store_with_gradients()
        state = AdamState.for_store(store, lr=1e-3)
        tracemalloc.start()
        try:
            clip_gradients(store, 5.0)
            adam_step(store, state)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for width, peak in each_width(run).items():
        assert peak < 4 << 20, f"{width} parts: peak {peak} bytes"


def wide_setup(vocab=4000, hidden=128, n_pairs=32, length=10, seed=3):
    """A model and pairs whose generator, softmax rows and Adam blocks are
    above the splitting floors."""
    config = ModelConfig(vocab, vocab, emb_size=hidden, hidden_size=hidden, dropout=0.2)
    rng = np.random.default_rng(seed)
    model = Seq2SeqModel(config, init_rng=rng)
    pair_rng = np.random.default_rng(seed + 1)
    pairs = []
    for _ in range(n_pairs):
        source = tuple(int(t) for t in pair_rng.integers(4, vocab, length))
        target = tuple(int(t) for t in pair_rng.integers(4, vocab, length - 1)) + (EOS,)
        pairs.append(ExamplePair(source, target, extract_bag(target)))
    return model, pairs, rng


def test_training_writes_the_same_checkpoint(tmp_path):
    def run():
        model, pairs, rng = wide_setup()
        out = tmp_path / f"run-{len(list(tmp_path.iterdir()))}"
        train_model(model, pairs, ScheduleParams(), rng, epochs=2, batch_size=16, lr=1e-3,
                    checkpoint_dir=out)
        return (out / "final.ckpt").read_bytes()

    results = each_width(run)
    for width, blob in results.items():
        assert blob == results[1], f"{width} parts"


@pytest.mark.parametrize("width", [2, 3])
def test_non_finite_scores_stay_silent_in_split_kernels(width):
    """The non-finite-scores case of test_training.py at a shape whose
    kernels split, with an infinite bias entry: every row's max is inf, so
    the softmax rows compute inf - inf.  Workers see the caller's
    ``errstate``, so warnings as errors leave only the training error, and
    no parameter moves."""
    model, pairs, rng = wide_setup()
    model.params["gen.bias"].value[0, 0] = np.inf
    before = {name: node.value.tobytes() for name, node in model.params.items()}
    with split_into(width) as counts, warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingError, match=r"non-finite loss at epoch 0, batch 0"):
            train_model(model, pairs, ScheduleParams(), rng, epochs=1, batch_size=16)
    assert max(counts) == width
    for name, node in model.params.items():
        assert node.value.tobytes() == before[name], name


def test_a_failing_part_raises_in_the_caller():
    def fail_late(lo, hi):
        if lo:
            raise ValueError(f"part at {lo}")

    with split_into(2):
        with pytest.raises(ValueError, match="part at"):
            parallel.each(fail_late, 1 << 20, 1 << 20)
        out = np.zeros(1 << 20)
        parallel.each(lambda lo, hi: out.__setitem__(slice(lo, hi), 1.0), out.size, out.size)
    assert out.sum() == out.size


def test_a_finished_part_is_not_kept_alive():
    """An idle worker holds nothing of the last part it ran: a closure over
    an optimizer state would otherwise keep the state alive into the next
    one (100 MB more at the train-wide benchmark shape)."""
    class Payload:
        pass

    payload = Payload()
    alive = weakref.ref(payload)

    def part(lo, hi, payload=payload):
        pass

    with split_into(2) as counts:
        parallel.each(part, 1 << 20, 1 << 20)
    assert counts == [2]
    del part, payload
    assert alive() is None


def test_concurrent_and_nested_splits_cover_every_index():
    """More calling threads than cores, with nested splits inside parts, on a
    short switch interval: every index is written exactly once per call."""
    n, callers, rounds = 1 << 19, 4, 20
    failures = []

    def caller(seed):
        out = np.zeros(n)

        def part(lo, hi):
            parallel.each(lambda a, b: np.add(out[lo + a : lo + b], 1.0,
                                               out=out[lo + a : lo + b]), hi - lo, hi - lo)

        for _ in range(rounds):
            out[:] = 0.0
            parallel.each(part, n, n)
            if not np.all(out == 1.0):
                failures.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with split_into(3):
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []


def _python(code: str) -> list[str]:
    """The words that ``code`` prints in a fresh interpreter importing this
    checkout's bowseq."""
    src = str(Path(bowseq.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return out.stdout.split()


def test_importing_starts_no_thread():
    assert _python("import threading, bowseq\nfrom bowseq import parallel\n"
                   "print(threading.active_count(), parallel._pool.width)") == ["1", "0"]


def test_the_first_call_of_any_function_starts_the_pool():
    """A product under every floor is the first call: the pool starts, and
    with it OpenBLAS is set to one thread, before the product runs."""
    width, cores = _python(
        "import numpy as np\nfrom bowseq import parallel\n"
        "parallel.matmul(np.ones((2, 3)), np.ones((3, 4)))\n"
        "print(parallel._pool.width, parallel._cores())")
    assert width == cores


def _fresh_pool(monkeypatch) -> parallel._Pool:
    pool = parallel._Pool()
    monkeypatch.setattr(parallel, "_pool", pool)
    return pool


def test_without_sched_getaffinity_the_cores_come_from_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    pool = _fresh_pool(monkeypatch)
    seen = []
    parallel.each(lambda lo, hi: seen.append((lo, hi)), 1 << 20, 1 << 20)
    assert seen == [(0, 1 << 20)] and pool.width == 1


def test_an_openblas_that_cannot_be_loaded_leaves_every_part_inline(monkeypatch):
    def cannot_load(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(parallel.ctypes, "CDLL", cannot_load)
    monkeypatch.setattr(parallel, "_cores", lambda: 4)
    assert not parallel._blas_to_one_thread()
    pool = _fresh_pool(monkeypatch)
    seen = []
    parallel.each(lambda lo, hi: seen.append((lo, hi)), 1 << 20, 1 << 20)
    assert seen == [(0, 1 << 20)] and pool.width == 1
