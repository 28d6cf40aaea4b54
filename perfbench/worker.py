"""One benchmark run of one workload, in its own process.

``run.py`` starts this file as a fresh child so that the child's
``ru_maxrss`` is the workload's peak memory.  The child builds the
workload's inputs from the seed, sets up (several times when measuring
set-up), measures for the given seconds with tracing off or runs the traced
comparison, checks the outputs, and prints one JSON object as its last line.

On decode-beam the set-up trains a model, so it runs in a child of its own
(``--phase setup``), which saves the model with the package's
``save_checkpoint`` and its set-up record beside it.  A second child
(``--phase measure``) rebuilds the inputs, loads that model and only
decodes, so its ``ru_maxrss`` covers decoding and not the set-up training.

The package is imported from ``src/`` of the current directory, the root of
the checkout being measured.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from bowseq import inference, training  # noqa: E402
from bowseq.data import (  # noqa: E402
    EOS,
    ExamplePair,
    ToyTaskSpec,
    Vocab,
    build_vocab,
    extract_bag,
    generate_toy_pairs,
    make_pair,
)
from bowseq.inference import BeamConfig, greedy_decode, score_sequence  # noqa: E402
from bowseq.metrics import corpus_bleu  # noqa: E402
from bowseq.model import (  # noqa: E402
    ModelConfig,
    Seq2SeqModel,
    load_checkpoint,
    save_checkpoint,
)
from bowseq.objectives import ScheduleParams  # noqa: E402

from pace import NOMINAL_REF_S, Pace  # noqa: E402
from tracing import GRAPH_WALK, Tracer, patched  # noqa: E402

#: Input sizes.  ``tiny`` exists for the smoke check only.
SIZES = {
    "full": dict(toy_pairs=2000, toy_test=200, wide_vocab=16000, wide_pairs=48,
                 wide_heldout=16, gate_sample=10, traced_sentences=40),
    "tiny": dict(toy_pairs=96, toy_test=12, wide_vocab=300, wide_pairs=32,
                 wide_heldout=4, gate_sample=4, traced_sentences=4),
}
SETUP_REPEATS = 3
#: Share of the measured seconds spent on the workload's main operation;
#: greedy decoding of the workload's held-out sources takes the rest.
MAIN_SHARE = 0.75
BEAM_WIDTH = 10
LL_TOLERANCE = 1e-9
#: How much an operation slows when the host does, relative to the pace
#: reference (see pace.py), fitted on the tuning machine: training and greedy
#: decoding of the toy model, the same of the wide model, and beam search at
#: B=1 on the toy model.
ELASTICITY = {"toy": 1.0, "wide": 0.5, "beam": 1.5}
#: The model each workload sets up and trains or decodes.
MODEL = {"train-toy": "toy", "train-wide": "wide", "decode-beam": "toy"}
#: A4 batch size, learning rate and clip norm.
TOY_TRAINING = (32, 7e-3, 1.0)


@dataclass
class Prepared:
    """A set-up workload: trained-for-one-epoch model plus its inputs."""

    seed: int
    model: Seq2SeqModel
    pairs: list[ExamplePair]
    batch_size: int
    lr: float
    clip_norm: float
    snapshot: dict[str, np.ndarray]
    heldout: list[list[int]]            # sources for greedy and beam decoding
    references: list[list[str]] | None  # target tokens of ``heldout`` (toy only)
    tgt_vocab: Vocab | None
    warmup_losses: list[float]
    size: dict


def _train_epoch(model, pairs, rng, batch_size, lr, clip_norm) -> list[float]:
    history = training.train_model(
        model, pairs, ScheduleParams(), rng, epochs=1, batch_size=batch_size,
        lr=lr, clip_norm=clip_norm, record_batches=True,
    )
    return [b.total for b in history[0].batches]


def _finish(seed, size, model, pairs, batch_size, lr, clip_norm, rng, **rest) -> Prepared:
    losses = _train_epoch(model, pairs, rng, batch_size, lr, clip_norm)
    snapshot = {name: node.value.copy() for name, node in model.params.items()}
    return Prepared(seed, model, pairs, batch_size, lr, clip_norm, snapshot,
                    warmup_losses=losses, size=size, **rest)


def toy_inputs(seed: int, size: dict):
    """A4 reverse-lexicon corpus and vocabularies: (pairs, model config,
    held-out sources with their references)."""
    spec = ToyTaskSpec(task="reverse-lexicon", alphabet_size=20, min_length=5, max_length=10,
                       pairs=size["toy_pairs"], test_pairs=size["toy_test"], seed=seed)
    corpus_rng = np.random.default_rng(spec.seed)
    train_src, train_tgt = generate_toy_pairs(spec, spec.pairs, corpus_rng)
    test_src, test_tgt = generate_toy_pairs(spec, spec.test_pairs, corpus_rng)
    src_vocab, tgt_vocab = build_vocab(train_src), build_vocab(train_tgt)
    pairs = [make_pair(s, t, src_vocab, tgt_vocab) for s, t in zip(train_src, train_tgt)]
    config = ModelConfig(len(src_vocab), len(tgt_vocab), emb_size=64, hidden_size=64,
                         dropout=0.0, generator_input="concat")
    heldout = dict(heldout=[src_vocab.encode(s) for s in test_src],
                   references=test_tgt, tgt_vocab=tgt_vocab)
    return pairs, config, heldout


def setup_toy(seed: int, size: dict) -> Prepared:
    """Toy inputs, model, one training epoch."""
    pairs, config, heldout = toy_inputs(seed, size)
    rng = np.random.default_rng(seed)
    model = Seq2SeqModel(config, init_rng=rng)
    return _finish(seed, size, model, pairs, *TOY_TRAINING, rng, **heldout)


def load_toy(seed: int, size: dict, checkpoint: Path) -> Prepared:
    """Toy inputs and the model a ``--phase setup`` child trained and saved."""
    pairs, _, heldout = toy_inputs(seed, size)
    model = load_checkpoint(checkpoint)
    snapshot = {name: node.value.copy() for name, node in model.params.items()}
    return Prepared(seed, model, pairs, *TOY_TRAINING, snapshot, warmup_losses=[], size=size,
                    **heldout)


def setup_wide(seed: int, size: dict) -> Prepared:
    """Uniform-token pairs over a wide vocabulary, model, one short epoch."""
    vocab, length = size["wide_vocab"], 20
    corpus_rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(size["wide_pairs"]):
        source = tuple(int(t) for t in corpus_rng.integers(4, vocab, length))
        target = tuple(int(t) for t in corpus_rng.integers(4, vocab, length - 1)) + (EOS,)
        pairs.append(ExamplePair(source, target, extract_bag(target)))
    heldout = corpus_rng.integers(4, vocab, (size["wide_heldout"], length)).tolist()
    config = ModelConfig(vocab, vocab, emb_size=128, hidden_size=128,
                         dropout=0.2, generator_input="context")
    rng = np.random.default_rng(seed)
    model = Seq2SeqModel(config, init_rng=rng)
    return _finish(seed, size, model, pairs, 16, 3e-4, 10.0, rng,
                   heldout=heldout, references=None, tgt_vocab=None)


SETUPS = {"train-toy": setup_toy, "train-wide": setup_wide, "decode-beam": setup_toy}


class Ops:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


# -- timed operations -------------------------------------------------------


class BatchClock:
    """Times every training batch, from the end of the previous optimizer
    step to the end of its own, and notes the target tokens of every batch
    the epoch is cut into.

    The first batch of an epoch is timed from the moment ``make_batches``
    returns, so it holds that batch alone and not the epoch's start-up (Adam
    state allocation, the shuffle draw, batching), which an epoch pays once.
    Between batches the host pace is sampled when due, outside every batch's
    interval.  These are the only wrappers in place while tracing is off.
    """

    def __init__(self, pace: Pace | None) -> None:
        self.spans: list[tuple[float, float]] = []  # (start, end) per batch
        self.tokens: list[int] = []
        self.epoch_start = 0.0
        step, cut = training.adam_step, training.make_batches

        def stamped(*args, **kwargs):
            step(*args, **kwargs)
            self.spans.append((self._start, time.perf_counter()))
            if pace is not None:
                pace.tick()
            self._start = time.perf_counter()

        def counted(*args, **kwargs):
            batches = cut(*args, **kwargs)
            self.tokens[:] = [int(b.target_lengths.sum()) for b in batches]
            self.spans.clear()
            self.epoch_start = self._start = time.perf_counter()
            return batches

        self._start = 0.0
        self._patch = patched([(training, "adam_step", stamped),
                               (training, "make_batches", counted)])

    def __enter__(self):
        self._patch.__enter__()
        return self

    def __exit__(self, *exc):
        return self._patch.__exit__(*exc)


def restore(prep: Prepared) -> None:
    """Put the post-set-up parameters back."""
    for name, node in prep.model.params.items():
        node.value[...] = prep.snapshot[name]


def train_round(prep: Prepared, clock: BatchClock, ops: Ops):
    """One epoch from the post-set-up parameters with a fixed RNG, so every
    round does identical work and must produce identical losses."""
    restore(prep)
    rng = np.random.default_rng([prep.seed, 1])
    started = time.perf_counter()
    try:
        losses = _train_epoch(prep.model, prep.pairs, rng, prep.batch_size, prep.lr,
                              prep.clip_norm)
    except training.TrainingError as err:
        ops.check(False, f"training: {err}")
        return None
    for loss in losses:
        ops.check(math.isfinite(loss), f"training: non-finite loss {loss}")
    return list(clock.spans), list(clock.tokens), losses, clock.epoch_start - started


def beam_one(prep: Prepared, index: int):
    """((start, end), hypotheses) of one beam-10 search."""
    source = prep.heldout[index % len(prep.heldout)]
    started = time.perf_counter()
    hyps = inference.beam_search(prep.model, source, BeamConfig(width=BEAM_WIDTH))
    return (started, time.perf_counter()), hyps


def greedy_phase(prep: Prepared, seconds: float, ops: Ops, pace: Pace):
    """Repeated greedy_decode_batch over the held-out sources: (pass spans, output)."""
    spans, outputs = [], None
    deadline = time.perf_counter() + seconds
    while not spans or time.perf_counter() < deadline:
        started = time.perf_counter()
        decoded = inference.greedy_decode_batch(prep.model, prep.heldout)
        spans.append((started, time.perf_counter()))
        pace.tick()
        if outputs is None:
            outputs = decoded
        ops.attempted += len(decoded)
        ops.check(decoded == outputs, "greedy: output differs between passes")
    return spans, outputs


def _quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values), q))


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timing_metrics(pace: Pace, op_spans, op_units, op_elasticity: float, greedy_spans,
                   greedy_elasticity: float, sentences: int):
    """The timing metrics at nominal pace and in wall-clock time: operations
    of ``op_units`` work each (tokens of a batch, or one beam sentence), and
    greedy passes over ``sentences`` sources."""
    kinds = {}
    for kind in ("nominal", "wall"):
        def seconds(spans, elasticity):
            walls = [end - start for start, end in spans]
            if kind == "wall":
                return walls
            return [pace.nominal(w, start, end, elasticity)
                    for w, (start, end) in zip(walls, spans)]

        op_s = seconds(op_spans, op_elasticity)
        greedy_s = seconds(greedy_spans, greedy_elasticity)
        kinds[kind] = {
            "throughput_per_s": sum(op_units) / sum(op_s),
            "op_ms.p50": 1000.0 * _quantile(op_s, 0.5),
            "op_ms.p75": 1000.0 * _quantile(op_s, 0.75),
            "greedy_sents_per_s": sentences / statistics.median(greedy_s),
        }
    return kinds["nominal"], kinds["wall"]


def measure_training(prep: Prepared, seconds: float, ops: Ops, checks: dict,
                     pace: Pace, model_elasticity: float) -> dict:
    rounds = []
    deadline = time.perf_counter() + MAIN_SHARE * seconds
    with BatchClock(pace) as clock:
        while not rounds or time.perf_counter() < deadline:
            result = train_round(prep, clock, ops)
            if result is None:
                break
            rounds.append(result)
    if not rounds:
        raise SystemExit(f"training failed: {ops.notes}")
    first_losses = rounds[0][2]
    for _, _, losses, _ in rounds[1:]:
        ops.check(losses == first_losses, "training: losses differ between identical rounds")
    checks["final_loss"] = first_losses[-1].hex()
    batches = [span for spans, _, _, _ in rounds for span in spans]
    tokens = [n for _, counts, _, _ in rounds for n in counts]
    # Read before decoding, whose cycle-held graphs would otherwise set the
    # peak: this is the memory of set-up and training alone.
    peak_rss_mb = _peak_rss_mb()
    restore(prep)
    passes, decoded = greedy_phase(prep, (1.0 - MAIN_SHARE) * seconds, ops, pace)
    _quality(prep, decoded, checks, "greedy_bleu", ops)
    nominal, wall = timing_metrics(pace, batches, tokens, model_elasticity, passes,
                                   model_elasticity,
                                   len(prep.heldout))
    return {
        **nominal,
        "peak_rss_mb": peak_rss_mb,
        "wall": wall,
        "samples": {"rounds": len(rounds), "batches": len(batches),
                    "greedy_passes": len(passes)},
        "raw": {"batch_spans": batches, "batch_tokens": tokens, "greedy_pass_spans": passes,
                "round_start_s": [start for _, _, _, start in rounds]},
    }


def measure_beam(prep: Prepared, seconds: float, ops: Ops, checks: dict, pace: Pace,
                 model_elasticity: float) -> dict:
    spans, first = [], []
    deadline = time.perf_counter() + MAIN_SHARE * seconds
    count = len(prep.heldout)
    while not spans or time.perf_counter() < deadline:
        index = len(spans)
        span, hyps = beam_one(prep, index)
        spans.append(span)
        pace.tick()
        ops.attempted += 1
        if index < count:
            first.append(hyps)
    for index in range(min(prep.size["gate_sample"], len(first))):
        ops.check(beam_one(prep, index)[1] == first[index],
                  f"beam: output differs between passes on sentence {index}")
    # Read before greedy decoding, as on the training workloads: this is the
    # memory of loading the model and beam search alone.
    peak_rss_mb = _peak_rss_mb()
    passes, decoded = greedy_phase(prep, (1.0 - MAIN_SHARE) * seconds, ops, pace)
    _quality(prep, decoded, checks, "greedy_bleu", ops)
    check_decoding(prep, first, ops, checks)
    _quality(prep, [list(h[0].tokens) for h in first], checks, "beam_bleu", ops,
             references=prep.references[: len(first)])
    nominal, wall = timing_metrics(pace, spans, [1] * len(spans), ELASTICITY["beam"], passes,
                                   model_elasticity, len(prep.heldout))
    return {
        **nominal,
        "peak_rss_mb": peak_rss_mb,
        "wall": wall,
        "samples": {"sentences": len(spans), "greedy_passes": len(passes)},
        "raw": {"sentence_spans": spans, "greedy_pass_spans": passes},
    }


# -- correctness gates ------------------------------------------------------


def check_decoding(prep: Prepared, beams: list, ops: Ops, checks: dict) -> None:
    """Width-1 beam equals greedy; top-hypothesis scores equal teacher-forced
    scores; every beam returns ranked finished hypotheses."""
    sample = min(prep.size["gate_sample"], len(beams))
    worst = 0.0
    for index in range(sample):
        source = prep.heldout[index]
        narrow = inference.beam_search(prep.model, source, BeamConfig(width=1))[0]
        greedy = greedy_decode(prep.model, source)
        ops.check(narrow.tokens == greedy.tokens
                  and abs(narrow.log_likelihood - greedy.log_likelihood) <= LL_TOLERANCE,
                  f"decode: width-1 beam differs from greedy on sentence {index}")
        top = beams[index][0]
        gap = abs(top.log_likelihood - score_sequence(prep.model, source, top.tokens))
        worst = max(worst, gap)
        ops.check(gap <= LL_TOLERANCE,
                  f"decode: beam score off score_sequence by {gap:.3g} on sentence {index}")
    for index, hyps in enumerate(beams):
        ops.check(bool(hyps) and all(h.finished and h.tokens[-1] == EOS for h in hyps),
                  f"decode: beam returned unfinished hypotheses on sentence {index}")
    checks["beam_score_max_gap"] = worst


def _quality(prep, decoded, checks, key, ops, references=None) -> None:
    """BLEU of decoded token ids against the references: a check, not a metric."""
    if prep.references is None:
        return
    references = prep.references if references is None else references
    hyps = [prep.tgt_vocab.decode(ids) for ids in decoded]
    bleu = corpus_bleu(hyps, references).bleu
    checks[key] = round(bleu, 4)
    ops.check(math.isfinite(bleu) and 0.0 <= bleu <= 100.0, f"quality: {key} {bleu}")


# -- traced run -------------------------------------------------------------


def traced_comparison(workload: str, prep: Prepared, seconds: float, ops: Ops,
                      out_dir: Path) -> dict:
    """Alternate untraced and traced repetitions of one fixed unit of work and
    report per-layer self times per batch (training) or per sentence (beam)."""
    tracer = Tracer()
    walls = {False: [], True: []}
    outputs = []
    deadline = time.perf_counter() + seconds
    with BatchClock(None) as clock:
        while not walls[True] or time.perf_counter() < deadline:
            for traced in (False, True):
                started = time.perf_counter()
                with tracer.active() if traced else contextlib.nullcontext():
                    units_per_rep, output = _unit_of_work(workload, prep, clock, ops)
                walls[traced].append(time.perf_counter() - started)
                outputs.append(output)
    for output in outputs[1:]:
        ops.check(output == outputs[0], "trace: repetitions produced different outputs")
    units = units_per_rep * len(walls[True])
    traced_wall = sum(walls[True])
    selfs = tracer.self_times()

    def per_unit_ms(seconds_total: float) -> float:
        return 1000.0 * seconds_total / units

    def self_ms(name: str) -> float:
        return per_unit_ms(selfs.get(name, 0.0))

    beam = workload == "decode-beam"
    layers = {
        "model.lstm_step_ms": self_ms("model.lstm_step"),
        "model.attend_ms": self_ms("model.attend"),
        "model.decode_step_self_ms": self_ms("model.decode_step"),
        "model.forward_self_ms": self_ms("model.forward"),
        "model.encode_ms": self_ms("model.encode"),
        "objectives.word_loss_ms": self_ms("objectives.word_loss"),
        "objectives.bag_loss_ms": self_ms("objectives.bag_loss"),
        "objectives.clip_ms": self_ms("objectives.clip"),
        "objectives.adam_ms": self_ms("objectives.adam"),
        "autodiff.backward_ms": self_ms("autodiff.backward"),
        "data.make_batches_ms": self_ms("data.make_batches"),
        "training.loop_self_ms": self_ms("training.loop"),
        "inference.beam_search_self_ms": self_ms("inference.beam_search"),
        "inference.decode_steps_per_sent":
            tracer.count("model.decode_step") / units if beam else 0.0,
        "model.lstm_step_calls": tracer.count("model.lstm_step") / units,
        "model.decode_step_calls": tracer.count("model.decode_step") / units,
        "autodiff.graph_nodes": _mean(tracer.graph_nodes),
        "autodiff.graph_bytes": _mean(tracer.graph_bytes),
        "autodiff.gc_collected": tracer.gc_collected / units,
        "autodiff.gc_pause_ms": per_unit_ms(tracer.gc_pause_s),
        "trace.wall_ms": per_unit_ms(traced_wall),
        "trace.untraced_wall_ms": per_unit_ms(sum(walls[False])),
        "trace.overhead_ms": per_unit_ms(traced_wall - sum(walls[False])),
        "trace.graph_walk_ms": self_ms(GRAPH_WALK),
        "trace.remainder_ms": per_unit_ms(traced_wall - tracer.root_time()),
    }
    tracer.write(out_dir / f"spans-{workload}-seed{prep.seed}.jsonl")
    return {"layers": layers, "samples": {"units": units, "repetitions": len(walls[True]),
                                          "spans": len(tracer.spans)}}


def _unit_of_work(workload: str, prep: Prepared, clock: BatchClock, ops: Ops):
    """(units done, their outputs): beam sentences or training batches."""
    if workload == "decode-beam":
        count = min(prep.size["traced_sentences"], len(prep.heldout))
        ops.attempted += count
        return count, [beam_one(prep, index)[1] for index in range(count)]
    result = train_round(prep, clock, ops)
    if result is None:
        raise SystemExit(f"training failed: {ops.notes}")
    return len(result[0]), result[2]


def _mean(values: list[int]) -> float:
    return float(sum(values)) / len(values) if values else 0.0


# -- provenance -------------------------------------------------------------


def _blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, asked from the library itself."""
    import ctypes
    import glob

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "blas_thread_env": {key: os.environ[key] for key in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if key in os.environ},
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# -- entry ------------------------------------------------------------------


def set_up(args, ops: Ops, checks: dict, pace: Pace):
    """(prepared workload, seconds of each set-up at nominal pace, the same in
    wall-clock time): several set-ups when measuring set-up time, one for the
    traced run.  The pace is sampled between the set-up epoch's batches."""
    setup = SETUPS[args.workload]
    step = training.adam_step

    def ticking(*args, **kwargs):
        step(*args, **kwargs)
        pace.tick()

    setup_s, setup_wall_s, warmups = [], [], []
    prep = None
    for _ in range(1 if args.trace else SETUP_REPEATS):
        # Each repeat starts from a clean heap, and so does the measurement
        # after it; no collection is forced inside a timed region.
        prep = None
        gc.collect()
        spent = pace.spent_s
        started = time.perf_counter()
        with patched([(training, "adam_step", ticking)]):
            prep = setup(args.seed, SIZES[args.size])
        ended = time.perf_counter()
        wall = ended - started - (pace.spent_s - spent)
        setup_wall_s.append(wall)
        setup_s.append(pace.nominal(wall, started, ended, ELASTICITY[MODEL[args.workload]]))
        warmups.append(prep.warmup_losses)
        ops.check(all(math.isfinite(x) for x in prep.warmup_losses),
                  "setup: non-finite set-up training loss")
    for losses in warmups[1:]:
        ops.check(losses == warmups[0], "setup: set-up training losses differ between repeats")
    checks["setup_loss"] = prep.warmup_losses[-1].hex()
    return prep, setup_s, setup_wall_s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--phase", choices=("all", "setup", "measure"), default="all",
                        help="decode-beam sets up in one child and measures in another")
    args = parser.parse_args()
    if (args.phase == "all") != (args.workload != "decode-beam"):
        parser.error("decode-beam runs as --phase setup, then --phase measure; "
                     "the other workloads as --phase all")

    ops, checks, pace = Ops(), {}, Pace()
    stem = args.out_dir / f"setup-{args.workload}-seed{args.seed}-trace{args.trace}"
    checkpoint, record = stem.with_suffix(".ckpt"), stem.with_suffix(".json")
    if args.phase == "measure":
        saved = json.loads(record.read_text(encoding="utf-8"))
        setup_s, setup_wall_s, checks = saved["setup_s"], saved["setup_wall_s"], saved["checks"]
        ops.attempted, ops.failed, ops.notes = saved["attempted"], saved["failed"], saved["notes"]
        prep = load_toy(args.seed, SIZES[args.size], checkpoint)
    else:
        prep, setup_s, setup_wall_s = set_up(args, ops, checks, pace)
    if args.phase == "setup":
        save_checkpoint(prep.model, checkpoint)
        record.write_text(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s,
                                      "checks": checks,
                                      "attempted": ops.attempted, "failed": ops.failed,
                                      "notes": ops.notes}), encoding="utf-8")
        print(json.dumps({"setup_s": setup_s, "failed": ops.failed}))
        return 0
    gc.collect()

    result = {"workload": args.workload, "provenance": provenance(args.seed)}
    if args.trace:
        result.update(traced_comparison(args.workload, prep, args.seconds, ops, args.out_dir))
    else:
        measure = measure_beam if args.workload == "decode-beam" else measure_training
        metrics = measure(prep, args.seconds, ops, checks, pace, ELASTICITY[MODEL[args.workload]])
        result["samples"] = metrics.pop("samples")
        result["raw"] = dict(metrics.pop("raw"), setup_s=setup_s, setup_wall_s=setup_wall_s,
                             pace=list(zip(pace.stamps, pace.samples)))
        result["wall"] = dict(metrics.pop("wall"), setup_s=statistics.median(setup_wall_s))
        result["metrics"] = dict(metrics, setup_s=statistics.median(setup_s))
        result["samples"]["setups"] = len(setup_s)
        result["pace"] = {"reference_ms.p50": 1000.0 * statistics.median(pace.samples),
                          "nominal_reference_ms": 1000.0 * NOMINAL_REF_S,
                          "elasticity": ELASTICITY,
                          "samples": len(pace.samples)}
    result.update(attempted=ops.attempted, failed=ops.failed, failures=ops.notes[:20],
                  checks=checks)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
