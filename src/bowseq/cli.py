"""Command-line entry point.

Subcommands: gen-toy, build-vocab, train, translate, evaluate, grad-check.
Each option is declared once, in ``build_parser``, with its default, its
choices and an argparse type that enforces its rule.  Tunable options
resolve as explicit flag > config file > declared default; config files are
flat ``key=value`` lines using the flag spellings (``#`` starts a comment).
A file may hold any subcommand's keys, each value is checked by its flag's
own rule, and an error names the file's ``path:line``.  Exit codes: 0
success, 1 usage error (bad flag or config value, out-of-range or
inconsistent options), 2 runtime failure (missing file, NaN loss, malformed
corpus, failed gradient check).
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


def _checked(kind, rule: str, holds):
    """An argparse type: a ``kind`` value for which ``holds`` is true."""

    def parse(raw: str):
        value = kind(raw)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value!r}")
        return value

    # argparse's "invalid int value" and the config file's "is not a int" read it.
    parse.__name__ = kind.__name__
    return parse


positive_int = _checked(int, "positive", lambda v: v > 0)
positive_float = _checked(float, "positive", lambda v: v > 0)
non_negative_int = _checked(int, "non-negative", lambda v: v >= 0)
non_negative_float = _checked(float, "non-negative", lambda v: v >= 0)
dropout_rate = _checked(float, "in [0, 1)", lambda v: 0.0 <= v < 1.0)
vocab_size = _checked(int, "at least 5 (4 reserved tokens plus content)", lambda v: v >= 5)

#: Option pairs (low, high) where low's value must not exceed high's.
ORDERED = (("k", "lambda"), ("dec-layers", "enc-layers"), ("min-len", "max-len"))


class CliParser(argparse.ArgumentParser):
    """argparse reports usage problems with exit code 1, not its default 2.
    ``build_parser`` sets ``commands``, the subcommand parsers by name."""

    commands: dict[str, "CliParser"]

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> CliParser:
    parser = CliParser(prog="bowseq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="command", parser_class=CliParser
    )
    config_help = "flat key=value options file (flags still win)"

    p = sub.add_parser("gen-toy", help="write a synthetic parallel corpus")
    p.add_argument("--config", help=config_help)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--task", default="reverse-lexicon", choices=TOY_TASKS,
                   help="copy, reverse, or reverse-lexicon")
    p.add_argument("--alphabet-size", type=positive_int, default=20,
                   help="distinct source tokens")
    p.add_argument("--min-len", type=positive_int, default=5, help="minimum sentence length")
    p.add_argument("--max-len", type=positive_int, default=10, help="maximum sentence length")
    p.add_argument("--pairs", type=positive_int, default=2000, help="training pairs")
    p.add_argument("--test-pairs", type=non_negative_int, default=200,
                   help="held-out pairs (0 for none)")
    p.add_argument("--seed", type=non_negative_int, default=0, help="generator seed")
    p.set_defaults(func=cmd_gen_toy)

    p = sub.add_parser("build-vocab", help="frequency-ranked vocabulary")
    p.add_argument("--config", help=config_help)
    p.add_argument("--corpus", action="append", required=True, help="corpus file (repeatable)")
    p.add_argument("--out", required=True, help="vocabulary output path")
    p.add_argument("--max-size", type=non_negative_int, default=50_000,
                   help="maximum regular tokens kept")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", help=config_help)
    p.add_argument("--train-src", required=True)
    p.add_argument("--train-tgt", required=True)
    p.add_argument("--valid-src")
    p.add_argument("--valid-tgt")
    p.add_argument("--src-vocab", help="vocabulary path (built from the corpus when absent)")
    p.add_argument("--tgt-vocab", help="vocabulary path (built from the corpus when absent)")
    p.add_argument("--ckpt-dir", required=True, help="checkpoint output directory")
    p.add_argument("--log-file", help="metrics log path (default: <ckpt-dir>/metrics.log)")
    p.add_argument("--emb-size", type=positive_int, default=512, help="embedding width")
    p.add_argument("--hidden-size", type=positive_int, default=512, help="LSTM state width")
    p.add_argument("--enc-layers", type=positive_int, default=3, help="encoder depth")
    p.add_argument("--dec-layers", type=positive_int, default=2, help="decoder depth")
    p.add_argument("--dropout", type=dropout_rate, default=0.2,
                   help="dropout rate between layers and on embeddings")
    p.add_argument("--generator-input", default="context", choices=GENERATOR_INPUTS,
                   help="generator consumes context or [state; context]")
    p.add_argument("--lambda", type=float, default=1.0, help="bag-weight cap")
    p.add_argument("--k", type=non_negative_float, default=0.1, help="bag-weight starting value")
    p.add_argument("--alpha", type=non_negative_float, default=0.1,
                   help="bag-weight per-epoch increment")
    p.add_argument("--baseline", action="store_true", help="train without the bag objective")
    p.add_argument("--vocab-size", type=positive_int, default=50_000,
                   help="cap when building vocabularies here")
    p.add_argument("--max-sent-len", type=positive_int, default=MAX_SENTENCE_LENGTH,
                   help="drop training pairs longer than this")
    p.add_argument("--lr", type=positive_float, default=0.0003, help="Adam learning rate")
    p.add_argument("--clip-norm", type=positive_float, default=10.0,
                   help="global gradient L2 cap")
    p.add_argument("--batch-size", type=positive_int, default=64, help="examples per update")
    p.add_argument("--epochs", type=positive_int, default=10, help="training epochs")
    p.add_argument("--seed", type=non_negative_int, default=0,
                   help="master seed (init, shuffling, dropout)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("translate", help="decode a corpus")
    p.add_argument("--config", help=config_help)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="hypothesis file (default: stdout)")
    p.add_argument("--n-best-file", help="where to write the n-best list")
    p.add_argument("--beam-width", type=positive_int, default=10, help="beam size")
    p.add_argument("--length-exponent", type=non_negative_float, default=1.0,
                   help="length-normalization exponent (0: raw log-likelihood)")
    p.add_argument("--max-length", type=non_negative_int, default=0,
                   help="decode cap in tokens (0: 2*source+10)")
    p.add_argument("--n-best", type=non_negative_int, default=0,
                   help="hypotheses per sentence in the n-best file")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", help="score hypotheses against references")
    p.add_argument("hypothesis", help="hypothesis corpus file")
    p.add_argument("reference", help="reference corpus file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "grad-check", help="finite-difference check on a tiny model"
    )
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--src-vocab-size", type=vocab_size, default=20)
    p.add_argument("--tgt-vocab-size", type=vocab_size, default=20)
    p.add_argument("--emb-size", type=positive_int, default=8)
    p.add_argument("--hidden-size", type=positive_int, default=8)
    p.add_argument("--enc-layers", type=positive_int, default=1)
    p.add_argument("--dec-layers", type=positive_int, default=1)
    p.add_argument("--batch-size", type=positive_int, default=2)
    p.add_argument("--source-length", type=positive_int, default=3)
    p.add_argument("--target-length", type=positive_int, default=4)
    p.add_argument("--step", type=positive_float, default=1e-4)
    p.add_argument("--tolerance", type=positive_float, default=1e-4)
    p.add_argument(
        "--param-scale",
        type=non_negative_float,
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

    parser.commands = sub.choices
    return parser


def config_options() -> dict[str, argparse.Action]:
    """The options a config file may set, by flag spelling: every option
    with a default of a subcommand that takes ``--config``."""
    options: dict[str, argparse.Action] = {}
    for command in build_parser().commands.values():
        actions = command._actions
        if any(action.dest == "config" for action in actions):
            options.update((action.option_strings[0][2:], action) for action in actions
                           if action.default not in (None, argparse.SUPPRESS))
    return options


def _config_value(action: argparse.Action, raw: str):
    """``raw`` parsed and checked as the option's flag value would be."""
    if action.nargs == 0:  # a switch such as --baseline
        lowered = raw.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise ValueError(f"is not a bool: {raw!r}")
    kind = action.type or str
    try:
        value = kind(raw)
    except ValueError:
        raise ValueError(f"is not a {kind.__name__}: {raw!r}")
    if action.choices and value not in action.choices:
        raise ValueError(f"must be one of {action.choices}, got {raw!r}")
    return value


def read_config_file(path: str | Path) -> dict[str, object]:
    """The file's values by key; any subcommand's option may appear, and
    each value is checked by that option's own rule."""
    options = config_options()
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
        if key not in options:
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
        try:
            values[key] = _config_value(options[key], value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"{path}:{lineno}: config value for {key!r} {exc}")
    return values


def _parse_args(parser: CliParser, argv: list[str] | None) -> argparse.Namespace:
    """Parse ``argv`` as explicit flag > config file > declared default, then
    check ``ORDERED``.  The file's values for the subcommand's own options
    become its defaults for a second parse, so the flags still win."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        command = parser.commands[args.command]
        values = {key.replace("-", "_"): value
                  for key, value in read_config_file(args.config).items()}
        command.set_defaults(**{dest: value for dest, value in values.items()
                                if command.get_default(dest) is not None})
        args = parser.parse_args(argv)
    for low, high in ORDERED:
        low_value, high_value = (getattr(args, key.replace("-", "_"), None) for key in (low, high))
        if low_value is not None and low_value > high_value:
            raise UsageError(f"--{low} ({low_value!r}) must not exceed --{high} ({high_value!r})")
    return args


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_toy(args: argparse.Namespace) -> int:
    spec = ToyTaskSpec(
        task=args.task,
        alphabet_size=args.alphabet_size,
        min_length=args.min_len,
        max_length=args.max_len,
        pairs=args.pairs,
        test_pairs=args.test_pairs,
        seed=args.seed,
    )
    paths = generate_toy_corpus(spec, args.out)
    for role, path in paths.items():
        print(f"{role}\t{path}")
    return 0


def cmd_build_vocab(args: argparse.Namespace) -> int:
    sentences = []
    for path in args.corpus:
        sentences.extend(read_corpus(path))
    vocab = build_vocab(sentences, args.max_size)
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
    max_size = args.vocab_size
    src_vocab = _load_or_build_vocab(args.src_vocab, args.train_src, max_size, ckpt_dir / "src.vocab")
    tgt_vocab = _load_or_build_vocab(args.tgt_vocab, args.train_tgt, max_size, ckpt_dir / "tgt.vocab")

    lines = read_parallel(args.train_src, args.train_tgt)
    pairs = encode_pairs(lines, src_vocab, tgt_vocab, args.max_sent_len)
    read = len(lines)
    del lines  # the strings are 4-5 times the pairs, and training reads only the pairs
    print(f"dropped {read - len(pairs)} of {read} training pairs longer than "
          f"{args.max_sent_len} tokens or with a blank side")
    if not pairs:
        raise ValueError("training corpus is empty after length filtering")

    validation = None
    if args.valid_src:
        sources = [src_vocab.encode(src) for src, _ in valid_lines]
        validation = ValidationSet(sources, [tgt for _, tgt in valid_lines], tgt_vocab)

    config = ModelConfig(
        src_vocab_size=len(src_vocab),
        tgt_vocab_size=len(tgt_vocab),
        emb_size=args.emb_size,
        hidden_size=args.hidden_size,
        enc_layers=args.enc_layers,
        dec_layers=args.dec_layers,
        dropout=args.dropout,
        generator_input=args.generator_input,
    )
    if args.baseline:
        schedule = ScheduleParams.baseline()
    else:
        schedule = ScheduleParams(cap=getattr(args, "lambda"), start=args.k, slope=args.alpha)

    rng = np.random.default_rng(args.seed)
    model = Seq2SeqModel(config, init_rng=rng)
    log_path = Path(args.log_file) if args.log_file else ckpt_dir / "metrics.log"
    history = train_model(
        model,
        pairs,
        schedule,
        rng,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        clip_norm=args.clip_norm,
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
    model = load_checkpoint(args.checkpoint)
    src_vocab = Vocab.load(args.src_vocab)
    tgt_vocab = Vocab.load(args.tgt_vocab)
    if len(src_vocab) != model.config.src_vocab_size or len(tgt_vocab) != model.config.tgt_vocab_size:
        raise ValueError(
            f"vocabulary sizes {len(src_vocab)}/{len(tgt_vocab)} do not match the checkpoint "
            f"({model.config.src_vocab_size}/{model.config.tgt_vocab_size})"
        )
    if args.n_best and not args.n_best_file:
        raise UsageError("--n-best needs --n-best-file")
    config = BeamConfig(
        width=args.beam_width,
        max_length=args.max_length or None,
        length_exponent=args.length_exponent,
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
        for hyp in ranked[: args.n_best]:
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
    try:
        args = _parse_args(build_parser(), argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps failures to exit codes
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
