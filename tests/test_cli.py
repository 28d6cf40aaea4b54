"""Command-line tests: the full corpus -> vocab -> train -> translate ->
evaluate pipeline through ``main``, option precedence, and exit codes."""

import re

import numpy as np
import pytest

from bowseq import cli
from bowseq.cli import ORDERED, main, read_config_file
from bowseq.data import Vocab, build_vocab, read_corpus


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One trained tiny run shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("cli")
    prefix = root / "toy"
    assert main([
        "gen-toy", "--out", str(prefix), "--task", "reverse-lexicon",
        "--alphabet-size", "6", "--min-len", "3", "--max-len", "4",
        "--pairs", "24", "--test-pairs", "8", "--seed", "3",
    ]) == 0
    assert main([
        "build-vocab", "--corpus", f"{prefix}.src", "--out", str(root / "src.vocab"),
    ]) == 0
    assert main([
        "build-vocab", "--corpus", f"{prefix}.tgt", "--out", str(root / "tgt.vocab"),
    ]) == 0
    assert main([
        "train",
        "--train-src", f"{prefix}.src", "--train-tgt", f"{prefix}.tgt",
        "--src-vocab", str(root / "src.vocab"), "--tgt-vocab", str(root / "tgt.vocab"),
        "--ckpt-dir", str(root / "run"),
        "--emb-size", "8", "--hidden-size", "8",
        "--enc-layers", "1", "--dec-layers", "1",
        "--epochs", "1", "--batch-size", "8", "--seed", "1", "--dropout", "0.1",
    ]) == 0
    return root


class TestPipeline:
    def test_toy_corpus_files(self, workspace):
        for suffix in (".src", ".tgt", ".test.src", ".test.tgt"):
            assert (workspace / f"toy{suffix}").exists()
        train_src = (workspace / "toy.src").read_text().splitlines()
        test_src = (workspace / "toy.test.src").read_text().splitlines()
        assert len(train_src) == 24
        assert len(test_src) == 8
        assert all(3 <= len(line.split()) <= 4 for line in train_src)

    def test_vocab_files_load(self, workspace):
        src_vocab = Vocab.load(workspace / "src.vocab")
        tgt_vocab = Vocab.load(workspace / "tgt.vocab")
        assert len(src_vocab) <= 6 + 4
        regular = [set(v.decode(range(4, len(v)))) for v in (src_vocab, tgt_vocab)]
        assert regular[0].isdisjoint(regular[1])

    def test_build_vocab_counts_every_corpus_in_order(self, tmp_path):
        """Over several files with blank lines and CR line ends, build-vocab
        writes the vocabulary of their tokenized sentences, file after file."""
        corpora = [tmp_path / "a.txt", tmp_path / "b.txt"]
        corpora[0].write_bytes(b"c b\r\n\r\n  \na c\rd\n")
        corpora[1].write_bytes(b"\ne d d\r\nb\r\n\n")
        args = [arg for path in corpora for arg in ("--corpus", str(path))]
        assert main(["build-vocab", *args, "--out", str(tmp_path / "v"), "--max-size", "3"]) == 0
        sentences = [s for path in corpora for s in read_corpus(path)]
        build_vocab(sentences, 3).save(tmp_path / "want")
        assert (tmp_path / "v").read_bytes() == (tmp_path / "want").read_bytes()
        assert Vocab.load(tmp_path / "v").decode(range(4, 7)) == ["d", "c", "b"]

    def test_training_artifacts(self, workspace):
        assert (workspace / "run" / "epoch-000.ckpt").exists()
        assert (workspace / "run" / "final.ckpt").exists()
        log = (workspace / "run" / "metrics.log").read_text()
        assert len([l for l in log.splitlines() if not l.startswith("#")]) == 1

    def test_translate_writes_one_line_per_input(self, workspace):
        hyp_path = workspace / "hyp.txt"
        rc = main([
            "translate",
            "--checkpoint", str(workspace / "run" / "final.ckpt"),
            "--src-vocab", str(workspace / "src.vocab"),
            "--tgt-vocab", str(workspace / "tgt.vocab"),
            "--input", str(workspace / "toy.test.src"),
            "--output", str(hyp_path),
            "--beam-width", "2",
        ])
        assert rc == 0
        hyps = hyp_path.read_text().splitlines()
        assert len(hyps) == 8

    def test_translate_keeps_a_line_separator_inside_its_line(self, workspace, tmp_path):
        source = tmp_path / "in.txt"
        source.write_text("1 2\u20283\n4 5\n\n6\x0c1\n", encoding="utf-8")
        hyp_path = tmp_path / "hyp.txt"
        assert main([
            "translate",
            "--checkpoint", str(workspace / "run" / "final.ckpt"),
            "--src-vocab", str(workspace / "src.vocab"),
            "--tgt-vocab", str(workspace / "tgt.vocab"),
            "--input", str(source),
            "--output", str(hyp_path),
            "--beam-width", "2",
        ]) == 0
        assert hyp_path.read_text(encoding="utf-8").count("\n") == 4

    def test_translate_to_stdout_with_n_best(self, workspace, capsys):
        nbest_path = workspace / "nbest.txt"
        rc = main([
            "translate",
            "--checkpoint", str(workspace / "run" / "final.ckpt"),
            "--src-vocab", str(workspace / "src.vocab"),
            "--tgt-vocab", str(workspace / "tgt.vocab"),
            "--input", str(workspace / "toy.test.src"),
            "--beam-width", "2", "--n-best", "2", "--n-best-file", str(nbest_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 8
        nbest = nbest_path.read_text().splitlines()
        assert len(nbest) == 16
        first = nbest[0].split(" ||| ")
        assert first[0] == "0"
        float(first[1])

    def test_evaluate_reports_the_metrics(self, workspace, capsys):
        hyp_path = workspace / "hyp.txt"
        if not hyp_path.exists():
            pytest.skip("translate test must run first")
        rc = main(["evaluate", str(hyp_path), str(workspace / "toy.test.tgt")])
        assert rc == 0
        out = capsys.readouterr().out
        names = [line.split("\t")[0] for line in out.splitlines()]
        assert names == ["bleu", "bleu_bp", "bag_precision", "bag_recall", "bag_f1"]

    def test_evaluate_perfect_match_scores_hundred(self, workspace, capsys):
        ref = workspace / "toy.test.tgt"
        rc = main(["evaluate", str(ref), str(ref)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bleu\t100.00" in out
        assert "bag_f1\t1.0000" in out

    def test_gen_toy_is_deterministic(self, workspace, tmp_path):
        again = tmp_path / "again"
        assert main([
            "gen-toy", "--out", str(again), "--task", "reverse-lexicon",
            "--alphabet-size", "6", "--min-len", "3", "--max-len", "4",
            "--pairs", "24", "--test-pairs", "8", "--seed", "3",
        ]) == 0
        for suffix in (".src", ".tgt"):
            assert (workspace / f"toy{suffix}").read_text() == (
                tmp_path / f"again{suffix}"
            ).read_text()


class TestTrainCommand:
    def test_reports_pairs_dropped_for_length(self, tmp_path, capsys):
        (tmp_path / "train.src").write_text("a b\nc d e f g h\nb a\n", encoding="utf-8")
        (tmp_path / "train.tgt").write_text("x y\nz\ny x\n", encoding="utf-8")
        assert main([
            "train", "--train-src", str(tmp_path / "train.src"),
            "--train-tgt", str(tmp_path / "train.tgt"), "--ckpt-dir", str(tmp_path / "run"),
            "--max-sent-len", "5", "--emb-size", "4", "--hidden-size", "4",
            "--enc-layers", "1", "--dec-layers", "1", "--epochs", "1", "--batch-size", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "dropped 1 of 3 training pairs longer than 5 tokens" in out
        assert "trained 1 epochs on 2 pairs" in out

    def test_reports_pairs_dropped_for_a_blank_side(self, tmp_path, capsys):
        for name, text in (("train.src", "a b\n\nb a\na\n"), ("train.tgt", "x y\nz\n\nx\n")):
            (tmp_path / name).write_text(text, encoding="utf-8")
        assert main([
            "train", "--train-src", str(tmp_path / "train.src"),
            "--train-tgt", str(tmp_path / "train.tgt"), "--ckpt-dir", str(tmp_path / "run"),
            "--valid-src", str(tmp_path / "train.src"), "--valid-tgt", str(tmp_path / "train.tgt"),
            "--emb-size", "4", "--hidden-size", "4", "--enc-layers", "1", "--dec-layers", "1",
            "--epochs", "1", "--batch-size", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "dropped 2 of 4 training pairs" in out
        assert "trained 1 epochs on 2 pairs" in out

    def test_empty_validation_set_is_rejected_before_training(self, tmp_path, capsys):
        (tmp_path / "train.src").write_text("a b\nb a\n", encoding="utf-8")
        (tmp_path / "train.tgt").write_text("x y\ny x\n", encoding="utf-8")
        (tmp_path / "valid.src").write_text("a\n\n", encoding="utf-8")
        (tmp_path / "valid.tgt").write_text("\nx\n", encoding="utf-8")
        assert main([
            "train", "--train-src", str(tmp_path / "train.src"),
            "--train-tgt", str(tmp_path / "train.tgt"), "--ckpt-dir", str(tmp_path / "run"),
            "--valid-src", str(tmp_path / "valid.src"), "--valid-tgt", str(tmp_path / "valid.tgt"),
            "--emb-size", "4", "--hidden-size", "4", "--enc-layers", "1", "--dec-layers", "1",
            "--epochs", "1", "--batch-size", "2",
        ]) == 2
        err = capsys.readouterr().err
        assert f"validation set {tmp_path / 'valid.src'} / {tmp_path / 'valid.tgt'}" in err
        log = tmp_path / "run" / "metrics.log"
        assert not log.exists() or all(row.startswith("#") for row in log.read_text().splitlines())


class TestGradCheckCommand:
    def test_small_model_passes(self, capsys):
        rc = main([
            "grad-check", "--seed", "11",
            "--src-vocab-size", "8", "--tgt-vocab-size", "8",
            "--emb-size", "4", "--hidden-size", "4",
            "--batch-size", "2", "--source-length", "2", "--target-length", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out


class TestExitCodes:
    def test_no_command_is_a_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_a_usage_error(self, tmp_path):
        assert main(["gen-toy", "--out", str(tmp_path / "x"), "--bogus", "1"]) == 1

    def test_missing_required_flag_is_a_usage_error(self):
        assert main(["train"]) == 1

    def test_n_best_without_file_is_a_usage_error(self, workspace):
        rc = main([
            "translate",
            "--checkpoint", str(workspace / "run" / "final.ckpt"),
            "--src-vocab", str(workspace / "src.vocab"),
            "--tgt-vocab", str(workspace / "tgt.vocab"),
            "--input", str(workspace / "toy.test.src"),
            "--n-best", "2",
        ])
        assert rc == 1

    def test_one_sided_validation_is_a_usage_error(self, workspace, tmp_path):
        rc = main([
            "train",
            "--train-src", str(workspace / "toy.src"),
            "--train-tgt", str(workspace / "toy.tgt"),
            "--valid-src", str(workspace / "toy.test.src"),
            "--ckpt-dir", str(tmp_path / "run"),
            "--epochs", "1",
        ])
        assert rc == 1

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "-1"), ("--clip-norm", "0"), ("--dropout", "1.5"), ("--epochs", "0"),
    ])
    def test_bad_train_option_is_rejected_before_writing(self, workspace, tmp_path, capsys,
                                                          flag, value):
        options = {"--emb-size": "8", "--hidden-size": "8", "--enc-layers": "1",
                   "--dec-layers": "1", "--epochs": "1", "--batch-size": "8", flag: value}
        run = tmp_path / "run"
        rc = main([
            "train",
            "--train-src", str(workspace / "toy.src"),
            "--train-tgt", str(workspace / "toy.tgt"),
            "--ckpt-dir", str(run),
            *(word for pair in options.items() for word in pair),
        ])
        assert rc == 1
        assert flag in capsys.readouterr().err
        written = {p.name for p in run.iterdir()} if run.exists() else set()
        assert not written & {"src.vocab", "tgt.vocab", "metrics.log"}

    @pytest.mark.parametrize("option", [
        ["--bag-loss", "full-bce"], ["--bag-keep-duplicates"], "bag-loss = paper",
        "bag-keep-duplicates = true",
    ], ids=["flag-bag-loss", "flag-bag-keep-duplicates", "config-bag-loss",
            "config-bag-keep-duplicates"])
    def test_removed_bag_option_is_refused_before_writing(self, workspace, tmp_path, capsys,
                                                          option):
        """The bag is always the set of target words under the paper's loss,
        so ``bag-loss`` and ``bag-keep-duplicates`` are unknown options."""
        if isinstance(option, str):
            (tmp_path / "opts.cfg").write_text(option + "\n", encoding="utf-8")
            option, named = ["--config", str(tmp_path / "opts.cfg")], option.split(" ")[0]
        else:
            named = option[0]
        run = tmp_path / "run"
        rc = main([
            "train",
            "--train-src", str(workspace / "toy.src"),
            "--train-tgt", str(workspace / "toy.tgt"),
            "--ckpt-dir", str(run),
            *option,
        ])
        assert rc == 1
        assert named in capsys.readouterr().err
        assert not run.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--hidden-size", "0"), ("--batch-size", "0"), ("--source-length", "0"),
        ("--param-scale", "-1"), ("--src-vocab-size", "3"), ("--step", "-1"),
        ("--tolerance", "0"), ("--dec-layers", "2"), ("--seed", "-1"),
    ])
    def test_bad_grad_check_option_is_a_usage_error(self, capsys, flag, value):
        assert main(["grad-check", flag, value]) == 1
        out, err = capsys.readouterr()
        assert flag in err and out == ""

    def test_inconsistent_toy_lengths_are_a_usage_error(self, tmp_path, capsys):
        rc = main(["gen-toy", "--out", str(tmp_path / "toy"), "--min-len", "6", "--max-len", "5"])
        assert rc == 1
        assert "--min-len" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_checkpoint_is_a_runtime_error(self, workspace, tmp_path):
        rc = main([
            "translate",
            "--checkpoint", str(tmp_path / "nope.ckpt"),
            "--src-vocab", str(workspace / "src.vocab"),
            "--tgt-vocab", str(workspace / "tgt.vocab"),
            "--input", str(workspace / "toy.test.src"),
        ])
        assert rc == 2

    def test_missing_corpus_is_a_runtime_error(self, tmp_path):
        assert main(["evaluate", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]) == 2

    def test_vocab_size_mismatch_is_a_runtime_error(self, workspace, tmp_path):
        small = tmp_path / "small.txt"
        small.write_text("a b\n")
        assert main(["build-vocab", "--corpus", str(small), "--out", str(tmp_path / "small.vocab")]) == 0
        rc = main([
            "translate",
            "--checkpoint", str(workspace / "run" / "final.ckpt"),
            "--src-vocab", str(tmp_path / "small.vocab"),
            "--tgt-vocab", str(workspace / "tgt.vocab"),
            "--input", str(workspace / "toy.test.src"),
        ])
        assert rc == 2


class TestConfigFile:
    def test_values_parse_with_comments(self, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(
            "# generator settings\n"
            "pairs = 7\n"
            "min-len=3  # inline comment\n"
            "\n"
            "baseline = true\n"
            "lr = 0.01\n"
        )
        values = read_config_file(cfg)
        assert values == {"pairs": 7, "min-len": 3, "baseline": True, "lr": 0.01}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("momentum = 0.9\n")
        with pytest.raises(ValueError, match="unknown option"):
            read_config_file(cfg)

    def test_bad_value_type_rejected(self, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("epochs = soon\n")
        with pytest.raises(ValueError, match="not a int"):
            read_config_file(cfg)

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("epochs 3\n")
        with pytest.raises(ValueError, match="key=value"):
            read_config_file(cfg)

    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("pairs = 7\nmin-len = 3\nmax-len = 3\nalphabet-size = 5\ntest-pairs = 0\n")
        from_file = tmp_path / "from_file"
        assert main(["gen-toy", "--config", str(cfg), "--out", str(from_file)]) == 0
        assert len((tmp_path / "from_file.src").read_text().splitlines()) == 7

        flag_wins = tmp_path / "flag_wins"
        assert main([
            "gen-toy", "--config", str(cfg), "--pairs", "5", "--out", str(flag_wins),
        ]) == 0
        assert len((tmp_path / "flag_wins.src").read_text().splitlines()) == 5

    def test_bad_config_path_is_a_usage_error(self, tmp_path):
        rc = main([
            "gen-toy", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x"),
        ])
        assert rc == 1

    def test_option_tables_agree(self):
        """Every config key is an option that a subcommand taking --config
        reads, declared with one rule wherever it appears, so no key is
        accepted that no command reads; ORDERED pairs name options that one
        subcommand declares together."""
        commands = cli.build_parser().commands
        options = cli.config_options()
        assert set(options) == {key for command in CONFIG_COMMANDS
                                for key in OPTION_DEFAULTS[command][1]}
        for key, action in options.items():
            readers = [commands[c] for c in CONFIG_COMMANDS if f"--{key}" in HELP_FLAGS[c]]
            assert readers, key
            for reader in readers:
                (declared,) = (a for a in reader._actions if a.dest == action.dest)
                assert (declared.type, declared.default, declared.choices, declared.nargs) == (
                    action.type, action.default, action.choices, action.nargs), key
        for low, high in ORDERED:
            assert any({f"--{low}", f"--{high}"} <= flags for flags in HELP_FLAGS.values())

    def test_settings_fall_back_to_defaults(self, tmp_path):
        """Options that neither a flag nor the config file sets take their
        defaults: 200 test pairs of 5 to 10 tokens."""
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("pairs = 7\n")
        assert main(["gen-toy", "--config", str(cfg), "--out", str(tmp_path / "toy")]) == 0
        assert len((tmp_path / "toy.src").read_text().splitlines()) == 7
        test_src = (tmp_path / "toy.test.src").read_text().splitlines()
        assert len(test_src) == 200
        assert all(5 <= len(line.split()) <= 10 for line in test_src)

    def test_one_file_serves_train_and_translate(self, workspace, tmp_path):
        """A file may hold any subcommand's keys; each command reads its own."""
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("emb-size = 8\nhidden-size = 8\nenc-layers = 1\ndec-layers = 1\n"
                       "epochs = 1\nbatch-size = 8\nbeam-width = 2\nn-best = 2\n")
        vocabs = ["--src-vocab", str(workspace / "src.vocab"),
                  "--tgt-vocab", str(workspace / "tgt.vocab")]
        run = tmp_path / "run"
        assert main([
            "train", "--config", str(cfg),
            "--train-src", str(workspace / "toy.src"), "--train-tgt", str(workspace / "toy.tgt"),
            *vocabs,
            "--ckpt-dir", str(run),
        ]) == 0
        log = (run / "metrics.log").read_text().splitlines()
        assert len([row for row in log if not row.startswith("#")]) == 1
        nbest = tmp_path / "nbest.txt"
        assert main([
            "translate", "--config", str(cfg), "--checkpoint", str(run / "final.ckpt"),
            *vocabs,
            "--input", str(workspace / "toy.test.src"), "--output", str(tmp_path / "hyp.txt"),
            "--n-best-file", str(nbest),
        ]) == 0
        assert len(nbest.read_text().splitlines()) == 16

    @pytest.mark.parametrize("command, line", [
        ("train", "lr = -1"), ("train", "dropout = 1.5"), ("gen-toy", "lr = -1"),
    ])
    def test_out_of_range_value_in_file_is_a_usage_error(self, workspace, tmp_path, capsys,
                                                          command, line):
        """A value is checked by its option's rule whichever subcommand
        reads the file, and the error names the key at path:line before
        anything is written."""
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"# tuned\n{line}\n")
        out = tmp_path / "out"
        required = {
            "train": ["--train-src", str(workspace / "toy.src"),
                      "--train-tgt", str(workspace / "toy.tgt"), "--ckpt-dir", str(out)],
            "gen-toy": ["--out", str(out / "toy")],
        }[command]
        assert main([command, "--config", str(cfg), *required]) == 1
        key = line.split(" ")[0]
        assert f"{cfg}:2: config value for {key!r} must be" in capsys.readouterr().err
        assert not out.exists()


#: The parent's option surface: for each subcommand, the flags its required
#: arguments need and the default of every tunable option.
OPTION_DEFAULTS = {
    "gen-toy": (["--out", "x"], {
        "task": "reverse-lexicon", "alphabet-size": 20, "min-len": 5, "max-len": 10,
        "pairs": 2000, "test-pairs": 200, "seed": 0,
    }),
    "build-vocab": (["--corpus", "c", "--out", "v"], {"max-size": 50_000}),
    "train": (["--train-src", "s", "--train-tgt", "t", "--ckpt-dir", "d"], {
        "lambda": 1.0, "k": 0.1, "alpha": 0.1, "baseline": False,
        "emb-size": 512, "hidden-size": 512, "enc-layers": 3, "dec-layers": 2,
        "dropout": 0.2, "generator-input": "context", "vocab-size": 50_000,
        "max-sent-len": 50, "lr": 0.0003, "clip-norm": 10.0, "batch-size": 64,
        "epochs": 10, "seed": 0,
    }),
    "translate": (["--checkpoint", "c", "--src-vocab", "s", "--tgt-vocab", "t", "--input", "i"], {
        "beam-width": 10, "length-exponent": 1.0, "max-length": 0, "n-best": 0,
    }),
    "evaluate": (["h", "r"], {}),
    "grad-check": ([], {
        "seed": 0, "src-vocab-size": 20, "tgt-vocab-size": 20, "emb-size": 8,
        "hidden-size": 8, "enc-layers": 1, "dec-layers": 1, "batch-size": 2,
        "source-length": 3, "target-length": 4, "step": 1e-4, "tolerance": 1e-4,
        "param-scale": 1.0, "generator-input": "concat",
    }),
}

CONFIG_COMMANDS = ("gen-toy", "build-vocab", "train", "translate")

#: Every flag each subcommand's --help lists at the parent.
HELP_FLAGS = {
    "gen-toy": {"--alphabet-size", "--config", "--help", "--max-len", "--min-len", "--out",
                "--pairs", "--seed", "--task", "--test-pairs"},
    "build-vocab": {"--config", "--corpus", "--help", "--max-size", "--out"},
    "train": {"--alpha", "--baseline", "--batch-size", "--ckpt-dir", "--clip-norm", "--config",
              "--dec-layers", "--dropout", "--emb-size", "--enc-layers", "--epochs",
              "--generator-input", "--help", "--hidden-size", "--k", "--lambda", "--log-file",
              "--lr", "--max-sent-len", "--seed", "--src-vocab", "--tgt-vocab", "--train-src",
              "--train-tgt", "--valid-src", "--valid-tgt", "--vocab-size"},
    "translate": {"--beam-width", "--checkpoint", "--config", "--help", "--input",
                  "--length-exponent", "--max-length", "--n-best", "--n-best-file", "--output",
                  "--src-vocab", "--tgt-vocab"},
    "evaluate": {"--help"},
    "grad-check": {"--batch-size", "--dec-layers", "--emb-size", "--enc-layers",
                   "--generator-input", "--help", "--hidden-size", "--param-scale", "--seed",
                   "--source-length", "--src-vocab-size", "--step", "--target-length",
                   "--tgt-vocab-size", "--tolerance"},
}


class TestOptionSurface:
    @pytest.mark.parametrize("command", sorted(OPTION_DEFAULTS))
    def test_defaults(self, command):
        required, defaults = OPTION_DEFAULTS[command]
        args = vars(cli.build_parser().parse_args([command, *required]))
        got = {key: args[key.replace("-", "_")] for key in defaults}
        assert {k: (v, type(v)) for k, v in got.items()} == {
            k: (v, type(v)) for k, v in defaults.items()}

    @pytest.mark.parametrize("command", sorted(HELP_FLAGS))
    def test_help_lists_the_flags(self, command, capsys):
        assert main([command, "--help"]) == 0
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == HELP_FLAGS[command]
