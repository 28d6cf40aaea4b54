"""Two training batches and beam-10 decoding at the paper's configuration.

    python3 scripts/paper_batch.py --root . --out runs/paper_batch.json [--pairs N]

The configuration is the ``train`` subcommand's defaults: vocabularies of
50,000 words plus the 4 reserved entries, E=H=512, 3 encoder and 2 decoder
layers, dropout 0.2, the context generator, batches of 64, Adam at lr 3e-4,
clip norm 10 and the first epoch's bag weight.  The script holds N random
pairs (``--pairs``, default two batches' worth) of 50-token sources and
targets, cuts them into batches with ``make_batches`` as an epoch is cut,
and trains the first two batches of that list while it holds the rest, so
the peak RSS shows what an epoch of N pairs costs beside a batch.  After
the two batches, beam 10 decodes 4 random 50-token sources one at a time,
with a 30-token cap.

The work runs in a child process that caps its own address space at
``CAP_GIB`` with RLIMIT_AS, imports bowseq from ``<root>/src``, so that one
copy of this script can measure any checkout, and reads its own peak
resident memory.
The JSON holds N, the seconds of each batch, the resident memory at each
batch's end (``VmRSS``, null where ``/proc/self/status`` is missing), the
milliseconds per decoded sentence, the peak RSS in MiB, the cap, the root's
git revision, and the SHA-256 of its ``src/**/*.py`` as perfbench's
provenance takes it, which tells apart two checkouts without ``.git``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

BATCHES = 2
SENTENCES = 4
BEAM_WIDTH = 10
DECODE_CAP = 30
SEED = 0
#: Address-space cap of the measuring child, GiB.
CAP_GIB = 6.5


def resident_mib() -> float | None:
    """This process's resident memory now, in MiB, or None without
    ``/proc/self/status``."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0  # reported in kB
    except OSError:
        pass
    return None


def measure(root: Path, pairs: int) -> dict:
    """The child's work on ``pairs`` pairs: returns the JSON record."""
    cap = int(CAP_GIB * (1 << 30))
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    from bowseq import cli, data, training
    from bowseq.inference import BeamConfig, beam_search
    from bowseq.model import ModelConfig, Seq2SeqModel
    from bowseq.objectives import AdamState, ScheduleParams, bag_weight

    args = cli.build_parser().parse_args(
        ["train", "--train-src", "-", "--train-tgt", "-", "--ckpt-dir", "-"])
    vocab = args.vocab_size + 4
    length = args.max_sent_len
    config = ModelConfig(vocab, vocab, emb_size=args.emb_size, hidden_size=args.hidden_size,
                         enc_layers=args.enc_layers, dec_layers=args.dec_layers,
                         dropout=args.dropout, generator_input=args.generator_input)
    rng = np.random.default_rng(SEED)
    model = Seq2SeqModel(config, init_rng=rng)
    adam = AdamState.for_store(model.params, lr=args.lr)
    weight = bag_weight(0, ScheduleParams(cap=getattr(args, "lambda"), start=args.k,
                                          slope=args.alpha))
    sources = rng.integers(4, vocab, (pairs, length)).tolist()
    contents = rng.integers(4, vocab, (pairs, length - 1)).tolist()
    corpus = [data.ExamplePair(tuple(s), tuple(c) + (data.EOS,), data.extract_bag(c))
              for s, c in zip(sources, contents)]
    del sources, contents  # the corpus alone stays held, as in training
    batches = data.make_batches(corpus, args.batch_size, vocab, SEED)
    batch_s, batch_end_rss = [], []
    for index, batch in enumerate(batches[:BATCHES]):
        started = time.perf_counter()
        training._train_batch(model, batch, weight, args.clip_norm, adam, rng, 0, index)
        batch_s.append(time.perf_counter() - started)
        batch_end_rss.append(resident_mib())
    sources = rng.integers(4, vocab, (SENTENCES, length)).tolist()
    beam = BeamConfig(width=BEAM_WIDTH, max_length=DECODE_CAP)
    started = time.perf_counter()
    for source in sources:
        beam_search(model, source, beam)
    decode_s = time.perf_counter() - started
    return {
        "pairs": pairs,
        "config": {"vocab": vocab, "emb_size": args.emb_size, "hidden_size": args.hidden_size,
                   "layers": [args.enc_layers, args.dec_layers], "batch_size": args.batch_size,
                   "length": length, "beam_width": BEAM_WIDTH, "decode_cap": DECODE_CAP,
                   "sentences": SENTENCES},
        "batch_s": batch_s,
        "batch_end_rss_mib": batch_end_rss,
        "decode_ms_per_sentence": 1000.0 * decode_s / SENTENCES,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rlimit_as_gib": CAP_GIB,
    }


def git_revision(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                        help="checkout whose src/ is measured (default: this one)")
    parser.add_argument("--out", help="where to write the JSON (default: print it)")
    parser.add_argument("--pairs", type=int, default=2 * 64,
                        help="pairs held and cut into batches (default: two batches of 64)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    root = Path(args.root).resolve()
    if args.child:
        json.dump(measure(root, args.pairs), sys.stdout)
        return 0
    proc = subprocess.run([sys.executable, __file__, "--child", "--root", str(root),
                           "--pairs", str(args.pairs)], capture_output=True, text=True)
    if proc.returncode:
        print(proc.stderr, file=sys.stderr)
        return proc.returncode
    record = {"root": str(root), "git_revision": git_revision(root),
              "source_sha256": source_sha256(root), **json.loads(proc.stdout)}
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
