"""A4's toy A/B comparison at model seeds 1 to 8, bow and base arms.

    python3 scripts/a4_seeds.py --out runs/a4_seeds.json

Each (seed, arm) run repeats the set-up of the A4 acceptance test exactly:
the reverse-lexicon toy corpus at seed 1234 (2000 training and 200 test
pairs), E=H=64, one layer each side, the concat generator, lr 7e-3, clip
norm 1.0, no dropout, 30 epochs of batch 32, and beam-10 test BLEU.  Only
the model seed varies; seed 7 is the test's own, so its row must read the
test's figures.

The runs go two at a time, each in a child process.  bowseq sets OpenBLAS
to one thread itself on first use, and at these shapes splits only the
validation set's encoder products over a second thread.  Bits do not depend
on the thread count (README, Threads).
The JSON holds, per seed and arm, the beam-10 test BLEU and, per epoch, the
greedy validation BLEU, the mean bag loss and the fraction of batches whose
gradient was clipped.  Apart from the ``wall_s`` fields, two runs write
identical files.  The package is imported from the ``src/`` of the checkout
this script sits in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
#: A4's own seed first, then the others, as in the ROADMAP's table.
SEEDS = (7, 1, 2, 3, 4, 5, 6, 8)
ARMS = ("bow", "base")
JOBS = 2


def run_arm(seed: int, arm: str) -> dict:
    """Train one arm of A4 at one model seed; returns its JSON record."""
    sys.path.insert(0, str(SRC))
    import numpy as np

    from bowseq.data import ToyTaskSpec, build_vocab, generate_toy_corpus, load_pairs, read_corpus
    from bowseq.inference import BeamConfig, beam_search
    from bowseq.metrics import corpus_bleu
    from bowseq.model import ModelConfig, Seq2SeqModel
    from bowseq.objectives import ScheduleParams
    from bowseq.training import ValidationSet, train_model

    started = time.perf_counter()
    spec = ToyTaskSpec(task="reverse-lexicon", alphabet_size=20, min_length=5, max_length=10,
                       pairs=2000, test_pairs=200, seed=1234)
    with tempfile.TemporaryDirectory() as tmp:
        paths = generate_toy_corpus(spec, Path(tmp) / "toy")
        src_vocab = build_vocab(read_corpus(paths["train_src"]))
        tgt_vocab = build_vocab(read_corpus(paths["train_tgt"]))
        pairs = load_pairs(paths["train_src"], paths["train_tgt"], src_vocab, tgt_vocab)
        test_src = read_corpus(paths["test_src"])
        test_tgt = read_corpus(paths["test_tgt"])
    validation = ValidationSet(sources=[src_vocab.encode(t) for t in test_src],
                               references=test_tgt, vocab=tgt_vocab)
    config = ModelConfig(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
                         emb_size=64, hidden_size=64, enc_layers=1, dec_layers=1,
                         dropout=0.0, generator_input="concat")
    rng = np.random.default_rng(seed)
    model = Seq2SeqModel(config, init_rng=rng)
    schedule = ScheduleParams() if arm == "bow" else ScheduleParams.baseline()
    history = train_model(model, pairs, schedule, rng, epochs=30, batch_size=32, lr=7e-3,
                          clip_norm=1.0, validation=validation, record_batches=True)
    beam = BeamConfig(width=10)
    hyps = [tgt_vocab.decode(beam_search(model, src_vocab.encode(toks), beam)[0].tokens)
            for toks in test_src]
    return {
        "test_bleu": corpus_bleu(hyps, test_tgt).bleu,
        "epochs": [
            {
                "val_bleu": stats.val_bleu,
                "bag_loss": stats.bag_loss,
                "clipped": sum(b.clip_factor < 1.0 for b in stats.batches) / len(stats.batches),
            }
            for stats in history
        ],
        "wall_s": time.perf_counter() - started,
    }


def run_child(seed: int, arm: str) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--child", str(seed), arm],
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"seed {seed}, arm {arm} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def table(runs: dict) -> str:
    """The ROADMAP's table of beam-10 test BLEU, and bow - base's spread."""
    diffs = [runs[s]["bow"]["test_bleu"] - runs[s]["base"]["test_bleu"] for s in SEEDS]
    rows = [
        "| seed | " + " | ".join(str(s) for s in SEEDS) + " |",
        "|---" * (len(SEEDS) + 1) + "|",
        *("| " + arm + " | " + " | ".join(f"{runs[s][arm]['test_bleu']:.2f}" for s in SEEDS)
          + " |" for arm in ARMS),
        "| bow - base | " + " | ".join(f"{d:+.2f}" for d in diffs) + " |",
        f"bow - base: median {statistics.median(diffs):+.2f}, "
        f"range {min(diffs):+.2f} to {max(diffs):+.2f}",
    ]
    return "\n".join(rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="where to write the sweep's JSON")
    group.add_argument("--child", nargs=2, metavar=("SEED", "ARM"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        seed, arm = args.child
        json.dump(run_arm(int(seed), arm), sys.stdout)
        return 0
    started = time.perf_counter()
    jobs = [(seed, arm) for seed in SEEDS for arm in ARMS]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        futures = [pool.submit(run_child, seed, arm) for seed, arm in jobs]
        results = [future.result() for future in futures]
    runs: dict = {}
    for (seed, arm), record in zip(jobs, results):
        runs.setdefault(seed, {})[arm] = record
    sweep = {
        "setup": "A4: reverse-lexicon toy corpus seed 1234, E=H=64, 1/1 layers, concat, "
                 "lr 7e-3, clip 1.0, dropout 0, 30 epochs, B=32, beam 10",
        "runs": {str(seed): runs[seed] for seed in SEEDS},
        "wall_s": time.perf_counter() - started,
    }
    Path(args.out).write_text(json.dumps(sweep, indent=1) + "\n", encoding="utf-8")
    print(table(runs))
    print(f"wall {sweep['wall_s']:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
