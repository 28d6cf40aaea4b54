"""One SHA-256 over what training and decoding compute, to compare checkouts.

    python3 scripts/bits.py --root <checkout>

Two checkouts print the same digest when they train and decode bit for bit
alike.  Each of three shapes trains a freshly seeded model under the bag
schedule (``ScheduleParams()``) and under the baseline
(``ScheduleParams.baseline()``), and the digest covers, per run and in
order:

- every epoch's word, bag and total loss, as ``float.hex``;
- every parameter's name, shape and bytes, in registration order;
- beam-5 search of the decode set: every hypothesis's tokens and
  ``float.hex`` log-likelihood, best first;
- ``greedy_decode_batch`` of the decode set, as one batch.

The shapes (``SHAPES``) are A4-like (reverse-lexicon toy pairs, E=H=64, one
layer a side, the concat generator, no dropout), V=2000 with the context
generator, dropout 0.2 and 20-token sentences, and V=300 with 3 encoder and
2 decoder layers, dropout and sentences of mixed lengths, so that batches
hold padded rows.  The work runs in a child process that imports bowseq
from ``<root>/src``, so that one copy of this script can measure any
checkout.  A run takes about 6 s on a 2-core host.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
from pathlib import Path

SEED = 11
BEAM_WIDTH = 5
#: name: (model config, training pairs, sentence lengths, epochs, batch size,
#: learning rate).  ``vocab`` None means the A4 toy task's vocabularies.
SHAPES = {
    "a4": (dict(vocab=None, emb_size=64, hidden_size=64, enc_layers=1, dec_layers=1,
                dropout=0.0, generator_input="concat"), 640, (5, 10), 4, 32, 7e-3),
    "context": (dict(vocab=2000, emb_size=64, hidden_size=64, enc_layers=1, dec_layers=1,
                     dropout=0.2, generator_input="context"), 256, (20, 20), 3, 16, 3e-3),
    "deep": (dict(vocab=300, emb_size=32, hidden_size=32, enc_layers=3, dec_layers=2,
                  dropout=0.2, generator_input="concat"), 192, (2, 12), 3, 16, 3e-3),
}
DECODE_SENTENCES = 24


def shape_data(name: str, rng):
    """(source vocabulary size, target vocabulary size, training pairs,
    decode sources) of one shape."""
    from bowseq import data

    config, count, (low, high), *_ = SHAPES[name]
    if config["vocab"] is None:
        spec = data.ToyTaskSpec(min_length=low, max_length=high)
        src, tgt = data.generate_toy_pairs(spec, count + DECODE_SENTENCES, rng)
        src_vocab = data.build_vocab(src)
        tgt_vocab = data.build_vocab(tgt)
        pairs = [data.make_pair(s, t, src_vocab, tgt_vocab) for s, t in zip(src, tgt)]
        return (len(src_vocab), len(tgt_vocab), pairs[:count],
                [list(p.source) for p in pairs[count:]])
    vocab = config["vocab"]
    pairs = []
    for _ in range(count + DECODE_SENTENCES):
        source = rng.integers(data.EOS + 1, vocab, int(rng.integers(low, high + 1)))
        content = rng.integers(data.EOS + 1, vocab, int(rng.integers(low, high + 1)) - 1)
        target = tuple(content.tolist()) + (data.EOS,)
        pairs.append(data.ExamplePair(tuple(source.tolist()), target, data.extract_bag(target)))
    return vocab, vocab, pairs[:count], [list(p.source) for p in pairs[count:]]


def digest_run(name: str, schedule, digest) -> None:
    """Train one shape under one schedule and add its bits to ``digest``."""
    import numpy as np

    from bowseq.inference import BeamConfig, beam_search, greedy_decode_batch
    from bowseq.model import ModelConfig, Seq2SeqModel
    from bowseq.training import train_model

    config, _, _, epochs, batch_size, lr = SHAPES[name]
    rng = np.random.default_rng(SEED)
    src_size, tgt_size, pairs, sources = shape_data(name, rng)
    model_config = ModelConfig(src_size, tgt_size,
                               **{k: v for k, v in config.items() if k != "vocab"})
    model = Seq2SeqModel(model_config, init_rng=rng)
    history = train_model(model, pairs, schedule, rng, epochs=epochs, batch_size=batch_size,
                          lr=lr)
    for stats in history:
        for value in (stats.word_loss, stats.bag_loss, stats.total_loss):
            digest.update(float(value).hex().encode())
    for param, node in model.params.items():
        digest.update(f"{param}{node.value.shape}".encode())
        digest.update(node.value.tobytes())
    for source in sources:
        for hyp in beam_search(model, source, BeamConfig(width=BEAM_WIDTH)):
            digest.update(f"{hyp.tokens}{float(hyp.log_likelihood).hex()}".encode())
    digest.update(repr(greedy_decode_batch(model, sources)).encode())


def measure(root: Path) -> str:
    """The child's work: the hex digest over every shape and schedule."""
    sys.path.insert(0, str(root / "src"))
    from bowseq.objectives import ScheduleParams

    digest = hashlib.sha256()
    for name in SHAPES:
        for schedule in (ScheduleParams(), ScheduleParams.baseline()):
            digest_run(name, schedule, digest)
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                        help="checkout whose src/ is run (default: this one)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    root = Path(args.root).resolve()
    if args.child:
        print(measure(root))
        return 0
    proc = subprocess.run([sys.executable, __file__, "--child", "--root", str(root)],
                          capture_output=True, text=True)
    if proc.returncode:
        print(proc.stderr, file=sys.stderr)
        return proc.returncode
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
