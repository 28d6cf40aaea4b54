"""Command-line entry point.

Subcommands: gen-toy, build-vocab, train, translate, evaluate, grad-check.
Tunable options resolve as explicit flag > config file > built-in default;
config files are flat ``key=value`` lines using the flag spellings (``#``
starts a comment).  Exit codes: 0 success, 1 usage error, 2 runtime failure
(missing file, NaN loss, malformed corpus, failed gradient check).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import (
    EOS,
    MAX_SENTENCE_LENGTH,
    TOY_TASKS,
    Batch,
    ExamplePair,
    ToyTaskSpec,
    Vocab,
    build_vocab,
    encode_pairs,
    extract_bag,
    generate_toy_corpus,
    pack_batch,
    read_corpus,
    read_lines,
    read_parallel,
)
from .inference import BeamConfig, beam_search, normalized_score
from .metrics import bag_overlap, corpus_bleu, format_report
from .model import (
    GENERATOR_INPUTS,
    ModelConfig,
    Seq2SeqModel,
    load_checkpoint,
)
from .objectives import (
    ScheduleParams,
    bag_loss,
    total_loss,
    word_loss,
)
from .training import ValidationSet, train_model


class UsageError(ValueError):
    pass


DEFAULTS: dict[str, object] = {
    # schedule / objective
    "lambda": 1.0,
    "k": 0.1,
    "alpha": 0.1,
    "baseline": False,
    # model
    "emb-size": 512,
    "hidden-size": 512,
    "enc-layers": 3,
    "dec-layers": 2,
    "dropout": 0.2,
    "generator-input": "context",
    "vocab-size": 50_000,
    "max-sent-len": MAX_SENTENCE_LENGTH,
    # optimization
    "lr": 0.0003,
    "clip-norm": 10.0,
    "batch-size": 64,
    "epochs": 10,
    "seed": 0,
    # decoding
    "beam-width": 10,
    "length-exponent": 1.0,
    "max-length": 0,  # 0 means 2 * source length + 10
    "n-best": 0,
    # toy generator
    "task": "reverse-lexicon",
    "alphabet-size": 20,
    "min-len": 5,
    "max-len": 10,
    "pairs": 2000,
    "test-pairs": 200,
    # vocabulary builder
    "max-size": 50_000,
}

CHOICES = {
    "generator-input": GENERATOR_INPUTS,
    "task": TOY_TASKS,
}

POSITIVE = ("positive", lambda v: v > 0)
NON_NEGATIVE = ("non-negative", lambda v: v >= 0)

#: What a numeric option's value must be; the others take any value.
BOUNDS = {
    **dict.fromkeys(("emb-size", "hidden-size", "enc-layers", "dec-layers", "vocab-size",
                     "max-sent-len", "lr", "clip-norm", "batch-size", "epochs", "beam-width",
                     "alphabet-size", "min-len", "max-len", "pairs"), POSITIVE),
    **dict.fromkeys(("k", "alpha", "seed", "length-exponent", "max-length", "n-best",
                     "test-pairs", "max-size"), NON_NEGATIVE),
    "dropout": ("in [0, 1)", lambda v: 0.0 <= v < 1.0),
}

#: Option pairs (low, high) where low's value must not exceed high's.
ORDERED = (("k", "lambda"), ("dec-layers", "enc-layers"), ("min-len", "max-len"))

#: What grad-check's own options must be; it takes no ``Settings``.
GRAD_CHECK_BOUNDS = {
    **dict.fromkeys(("emb-size", "hidden-size", "enc-layers", "dec-layers", "batch-size",
                     "source-length", "target-length", "step", "tolerance"), POSITIVE),
    **dict.fromkeys(("src-vocab-size", "tgt-vocab-size"),
                    ("at least 5 (4 reserved tokens plus content)", lambda v: v >= 5)),
    "param-scale": NON_NEGATIVE,
}


def _parse_config_value(key: str, raw: str):
    default = DEFAULTS[key]
    try:
        if isinstance(default, bool):
            lowered = raw.lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError:
        raise UsageError(f"config value for {key!r} is not a {type(default).__name__}: {raw!r}")
    if key in CHOICES and raw not in CHOICES[key]:
        raise UsageError(f"config value for {key!r} must be one of {CHOICES[key]}, got {raw!r}")
    return raw


def read_config_file(path: str | Path) -> dict[str, object]:
    try:
        lines = read_lines(path)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    values: dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
        values[key] = _parse_config_value(key, value)
    return values


class Settings:
    """Flag > config file > default resolution for tunable options.  Every
    option the subcommand takes is checked against ``BOUNDS`` and ``ORDERED``
    here, so a command that starts from its settings writes nothing first."""

    def __init__(self, args: argparse.Namespace) -> None:
        self._args = vars(args)
        config = self._args.get("config")
        self._file = read_config_file(config) if config else {}
        taken = [key for key in DEFAULTS if key.replace("-", "_") in self._args]
        for key in taken:
            rule, holds = BOUNDS.get(key, (None, None))
            if holds and not holds(self.get(key)):
                raise UsageError(f"--{key} must be {rule}, got {self.get(key)!r}")
        for low, high in ORDERED:
            if low in taken and self.get(low) > self.get(high):
                raise UsageError(
                    f"--{low} ({self.get(low)!r}) must not exceed --{high} ({self.get(high)!r})")

    def get(self, key: str):
        explicit = self._args.get(key.replace("-", "_"))
        if explicit is not None:
            return explicit
        if key in self._file:
            return self._file[key]
        return DEFAULTS[key]


class CliParser(argparse.ArgumentParser):
    """argparse reports usage problems with exit code 1, not its default 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _flag(parser: argparse.ArgumentParser, name: str, kind, helptext: str) -> None:
    if kind is bool:
        parser.add_argument(name, action="store_const", const=True, default=None, help=helptext)
    else:
        key = name.lstrip("-")
        parser.add_argument(
            name, type=kind, default=None, choices=CHOICES.get(key), help=helptext
        )


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value options file (flags still win)")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    _flag(parser, "--emb-size", int, "embedding width")
    _flag(parser, "--hidden-size", int, "LSTM state width")
    _flag(parser, "--enc-layers", int, "encoder depth")
    _flag(parser, "--dec-layers", int, "decoder depth")
    _flag(parser, "--dropout", float, "dropout rate between layers and on embeddings")
    _flag(parser, "--generator-input", str, "generator consumes context or [state; context]")


def build_parser() -> CliParser:
    parser = CliParser(prog="bowseq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="command", parser_class=CliParser
    )

    p = sub.add_parser("gen-toy", help="write a synthetic parallel corpus")
    _add_config_flag(p)
    p.add_argument("--out", required=True, help="output path prefix")
    _flag(p, "--task", str, "copy, reverse, or reverse-lexicon")
    _flag(p, "--alphabet-size", int, "distinct source tokens")
    _flag(p, "--min-len", int, "minimum sentence length")
    _flag(p, "--max-len", int, "maximum sentence length")
    _flag(p, "--pairs", int, "training pairs")
    _flag(p, "--test-pairs", int, "held-out pairs (0 for none)")
    _flag(p, "--seed", int, "generator seed")
    p.set_defaults(func=cmd_gen_toy)

    p = sub.add_parser("build-vocab", help="frequency-ranked vocabulary")
    _add_config_flag(p)
    p.add_argument("--corpus", action="append", required=True, help="corpus file (repeatable)")
    p.add_argument("--out", required=True, help="vocabulary output path")
    _flag(p, "--max-size", int, "maximum regular tokens kept")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train a model")
    _add_config_flag(p)
    p.add_argument("--train-src", required=True)
    p.add_argument("--train-tgt", required=True)
    p.add_argument("--valid-src")
    p.add_argument("--valid-tgt")
    p.add_argument("--src-vocab", help="vocabulary path (built from the corpus when absent)")
    p.add_argument("--tgt-vocab", help="vocabulary path (built from the corpus when absent)")
    p.add_argument("--ckpt-dir", required=True, help="checkpoint output directory")
    p.add_argument("--log-file", help="metrics log path (default: <ckpt-dir>/metrics.log)")
    _add_model_flags(p)
    _flag(p, "--lambda", float, "bag-weight cap")
    _flag(p, "--k", float, "bag-weight starting value")
    _flag(p, "--alpha", float, "bag-weight per-epoch increment")
    _flag(p, "--baseline", bool, "train without the bag objective")
    _flag(p, "--vocab-size", int, "cap when building vocabularies here")
    _flag(p, "--max-sent-len", int, "drop training pairs longer than this")
    _flag(p, "--lr", float, "Adam learning rate")
    _flag(p, "--clip-norm", float, "global gradient L2 cap")
    _flag(p, "--batch-size", int, "examples per update")
    _flag(p, "--epochs", int, "training epochs")
    _flag(p, "--seed", int, "master seed (init, shuffling, dropout)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("translate", help="decode a corpus")
    _add_config_flag(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="hypothesis file (default: stdout)")
    p.add_argument("--n-best-file", help="where to write the n-best list")
    _flag(p, "--beam-width", int, "beam size")
    _flag(p, "--length-exponent", float, "length-normalization exponent (0: raw log-likelihood)")
    _flag(p, "--max-length", int, "decode cap in tokens (0: 2*source+10)")
    _flag(p, "--n-best", int, "hypotheses per sentence in the n-best file")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", help="score hypotheses against references")
    p.add_argument("hypothesis", help="hypothesis corpus file")
    p.add_argument("reference", help="reference corpus file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "grad-check", help="finite-difference check on a tiny model"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--src-vocab-size", type=int, default=20)
    p.add_argument("--tgt-vocab-size", type=int, default=20)
    p.add_argument("--emb-size", type=int, default=8)
    p.add_argument("--hidden-size", type=int, default=8)
    p.add_argument("--enc-layers", type=int, default=1)
    p.add_argument("--dec-layers", type=int, default=1)
    p.add_argument("--batch-size", type=int, default=2)
    p.add_argument("--source-length", type=int, default=3)
    p.add_argument("--target-length", type=int, default=4)
    p.add_argument("--step", type=float, default=1e-4)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument(
        "--param-scale",
        type=float,
        default=1.0,
        help="redraw parameters as uniform(-scale, scale) so no gradient entry sits in "
        "finite-difference noise; 0 keeps the standard training initialization",
    )
    p.add_argument(
        "--generator-input",
        choices=GENERATOR_INPUTS,
        default="concat",
        help="checked variant; concat feeds the generator from state and context, giving "
        "every decoder parameter a well-conditioned gradient path",
    )
    p.set_defaults(func=cmd_grad_check)

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_toy(args: argparse.Namespace) -> int:
    s = Settings(args)
    spec = ToyTaskSpec(
        task=s.get("task"),
        alphabet_size=s.get("alphabet-size"),
        min_length=s.get("min-len"),
        max_length=s.get("max-len"),
        pairs=s.get("pairs"),
        test_pairs=s.get("test-pairs"),
        seed=s.get("seed"),
    )
    paths = generate_toy_corpus(spec, args.out)
    for role, path in paths.items():
        print(f"{role}\t{path}")
    return 0


def cmd_build_vocab(args: argparse.Namespace) -> int:
    s = Settings(args)
    sentences = []
    for path in args.corpus:
        sentences.extend(read_corpus(path))
    vocab = build_vocab(sentences, s.get("max-size"))
    vocab.save(args.out)
    print(f"wrote {len(vocab)} entries (4 reserved) to {args.out}")
    return 0


def _load_or_build_vocab(
    path: str | None, corpus_path: str, max_size: int, fallback: Path
) -> Vocab:
    if path and Path(path).exists():
        return Vocab.load(path)
    vocab = build_vocab(read_corpus(corpus_path), max_size)
    out = Path(path) if path else fallback
    out.parent.mkdir(parents=True, exist_ok=True)
    vocab.save(out)
    return vocab


def cmd_train(args: argparse.Namespace) -> int:
    s = Settings(args)
    if bool(args.valid_src) != bool(args.valid_tgt):
        raise UsageError("--valid-src and --valid-tgt must be given together")
    if args.valid_src:
        # Read before anything is written, so that an empty set leaves nothing behind.
        valid_lines = [(src, tgt) for src, tgt in read_parallel(args.valid_src, args.valid_tgt)
                       if src and tgt]
        if not valid_lines:
            raise ValueError(f"validation set {args.valid_src} / {args.valid_tgt} has no pair "
                             "with two non-blank sides")
    ckpt_dir = Path(args.ckpt_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    max_size = s.get("vocab-size")
    src_vocab = _load_or_build_vocab(args.src_vocab, args.train_src, max_size, ckpt_dir / "src.vocab")
    tgt_vocab = _load_or_build_vocab(args.tgt_vocab, args.train_tgt, max_size, ckpt_dir / "tgt.vocab")

    max_length = s.get("max-sent-len")
    lines = read_parallel(args.train_src, args.train_tgt)
    pairs = encode_pairs(lines, src_vocab, tgt_vocab, max_length)
    print(f"dropped {len(lines) - len(pairs)} of {len(lines)} training pairs longer than "
          f"{max_length} tokens or with a blank side")
    if not pairs:
        raise ValueError("training corpus is empty after length filtering")

    validation = None
    if args.valid_src:
        sources = [src_vocab.encode(src) for src, _ in valid_lines]
        validation = ValidationSet(sources, [tgt for _, tgt in valid_lines], tgt_vocab)

    config = ModelConfig(
        src_vocab_size=len(src_vocab),
        tgt_vocab_size=len(tgt_vocab),
        emb_size=s.get("emb-size"),
        hidden_size=s.get("hidden-size"),
        enc_layers=s.get("enc-layers"),
        dec_layers=s.get("dec-layers"),
        dropout=s.get("dropout"),
        generator_input=s.get("generator-input"),
    )
    if s.get("baseline"):
        schedule = ScheduleParams.baseline()
    else:
        schedule = ScheduleParams(cap=s.get("lambda"), start=s.get("k"), slope=s.get("alpha"))

    rng = np.random.default_rng(s.get("seed"))
    model = Seq2SeqModel(config, init_rng=rng)
    log_path = Path(args.log_file) if args.log_file else ckpt_dir / "metrics.log"
    history = train_model(
        model,
        pairs,
        schedule,
        rng,
        epochs=s.get("epochs"),
        batch_size=s.get("batch-size"),
        lr=s.get("lr"),
        clip_norm=s.get("clip-norm"),
        validation=validation,
        checkpoint_dir=ckpt_dir,
        log_path=log_path,
    )
    last = history[-1]
    print(f"trained {len(history)} epochs on {len(pairs)} pairs")
    print(f"final word/bag/total loss: {last.word_loss:.6f} {last.bag_loss:.6f} {last.total_loss:.6f}")
    print(f"checkpoints: {ckpt_dir}  metrics: {log_path}")
    return 0


def cmd_translate(args: argparse.Namespace) -> int:
    s = Settings(args)
    model = load_checkpoint(args.checkpoint)
    src_vocab = Vocab.load(args.src_vocab)
    tgt_vocab = Vocab.load(args.tgt_vocab)
    if len(src_vocab) != model.config.src_vocab_size or len(tgt_vocab) != model.config.tgt_vocab_size:
        raise ValueError(
            f"vocabulary sizes {len(src_vocab)}/{len(tgt_vocab)} do not match the checkpoint "
            f"({model.config.src_vocab_size}/{model.config.tgt_vocab_size})"
        )
    n_best = s.get("n-best")
    if n_best and not args.n_best_file:
        raise UsageError("--n-best needs --n-best-file")
    config = BeamConfig(
        width=s.get("beam-width"),
        max_length=s.get("max-length") or None,
        length_exponent=s.get("length-exponent"),
    )

    lines = read_lines(args.input)
    outputs: list[str] = []
    nbest_lines: list[str] = []
    for index, line in enumerate(lines):
        tokens = line.split()
        if not tokens:
            outputs.append("")
            continue
        ranked = beam_search(model, src_vocab.encode(tokens), config)
        outputs.append(" ".join(tgt_vocab.decode(ranked[0].tokens)))
        for hyp in ranked[: n_best or 0]:
            score = normalized_score(hyp, config.length_exponent)
            nbest_lines.append(f"{index} ||| {score:.6f} ||| {' '.join(tgt_vocab.decode(hyp.tokens))}")

    rendered = "".join(out + "\n" for out in outputs)
    if args.output:
        Path(args.output).write_text(rendered, encoding="utf-8")
        print(f"translated {len(lines)} lines -> {args.output}")
    else:
        sys.stdout.write(rendered)
    if args.n_best_file:
        Path(args.n_best_file).write_text(
            "".join(nb + "\n" for nb in nbest_lines), encoding="utf-8"
        )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    hyps = [line.split() for line in read_lines(args.hypothesis)]
    refs = [line.split() for line in read_lines(args.reference)]
    report = format_report(corpus_bleu(hyps, refs), bag_overlap(hyps, refs))
    sys.stdout.write(report)
    return 0


def cmd_grad_check(args: argparse.Namespace) -> int:
    for key, (rule, holds) in GRAD_CHECK_BOUNDS.items():
        value = getattr(args, key.replace("-", "_"))
        if not holds(value):
            raise UsageError(f"--{key} must be {rule}, got {value!r}")
    if args.dec_layers > args.enc_layers:
        raise UsageError(f"--dec-layers ({args.dec_layers!r}) must not exceed --enc-layers "
                         f"({args.enc_layers!r})")
    config = ModelConfig(
        src_vocab_size=args.src_vocab_size,
        tgt_vocab_size=args.tgt_vocab_size,
        emb_size=args.emb_size,
        hidden_size=args.hidden_size,
        enc_layers=args.enc_layers,
        dec_layers=args.dec_layers,
        dropout=0.0,
        generator_input=args.generator_input,
    )
    rng = np.random.default_rng(args.seed)
    model = Seq2SeqModel(config, init_rng=rng)
    if args.param_scale:
        for _, node in model.params.items():
            node.value[...] = rng.uniform(-args.param_scale, args.param_scale, node.value.shape)
    batch = _random_batch(
        rng,
        args.batch_size,
        args.source_length,
        args.target_length,
        config.src_vocab_size,
        config.tgt_vocab_size,
    )

    def loss_fn(_params):
        forward = model.forward_teacher_forced(batch)
        l_word = word_loss(forward)
        l_bag = bag_loss(forward.bag_scores, batch.bag_indicator)
        return total_loss(l_word, l_bag, 1.0)

    report = ad.finite_difference_check(
        loss_fn, model.params, step=args.step, tolerance=args.tolerance
    )
    print(report.format())
    return 0 if report.passed else 2


def _random_batch(rng, batch_size, src_len, tgt_len, src_vocab_size, tgt_vocab_size) -> Batch:
    source = rng.integers(4, src_vocab_size, size=(batch_size, src_len))
    content = rng.integers(4, tgt_vocab_size, size=(batch_size, tgt_len - 1))
    pairs = [
        ExamplePair(tuple(src), tuple(words) + (EOS,), extract_bag(words))
        for src, words in zip(source.tolist(), content.tolist())
    ]
    return pack_batch(pairs, tgt_vocab_size)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps failures to exit codes
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
