"""Training-loop tests: checkpoints and logs land where asked, the schedule
feeds through, baseline parity on the word term, non-finite aborts, the
recorded clip factor, a training batch's peak memory and the pages warm
batches fault in."""

import platform
import tracemalloc
import warnings

import numpy as np
import pytest

from bowseq import training
from bowseq.data import EOS, ExamplePair, Vocab, extract_bag, make_batches
from bowseq.model import ModelConfig, Seq2SeqModel, load_checkpoint
from bowseq.objectives import AdamState, ScheduleParams
from bowseq.training import (
    LOG_HEADER,
    EpochStats,
    TrainingError,
    ValidationSet,
    train_model,
)


def tiny_setup(seed=5, n_pairs=12):
    cfg = ModelConfig(
        src_vocab_size=16, tgt_vocab_size=16, emb_size=8, hidden_size=8,
        enc_layers=1, dec_layers=1, dropout=0.1,
    )
    rng = np.random.default_rng(seed)
    model = Seq2SeqModel(cfg, init_rng=rng)
    pair_rng = np.random.default_rng(99)
    pairs = []
    for _ in range(n_pairs):
        n = int(pair_rng.integers(2, 5))
        src = tuple(int(t) for t in pair_rng.integers(4, 16, size=n))
        tgt = tuple(int(t) for t in pair_rng.integers(4, 16, size=n)) + (EOS,)
        pairs.append(ExamplePair(src, tgt, extract_bag(tgt)))
    return model, pairs, rng


class TestTrainModel:
    def test_single_epoch_artifacts(self, tmp_path):
        model, pairs, rng = tiny_setup()
        log_path = tmp_path / "metrics.log"
        history = train_model(
            model, pairs, ScheduleParams(), rng,
            epochs=1, batch_size=4,
            checkpoint_dir=tmp_path / "ckpt", log_path=log_path,
        )
        assert len(history) == 1
        assert history[0].epoch == 0
        assert history[0].bag_weight == 0.1
        assert (tmp_path / "ckpt" / "epoch-000.ckpt").exists()
        assert (tmp_path / "ckpt" / "final.ckpt").exists()
        text = log_path.read_text()
        assert text.startswith(LOG_HEADER)
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(lines) == 1
        fields = lines[0].split("\t")
        assert fields[0] == "0"
        assert fields[1] == "0.1"
        assert len(fields) == 8

    def test_final_checkpoint_matches_last_epoch(self, tmp_path):
        model, pairs, rng = tiny_setup()
        train_model(
            model, pairs, ScheduleParams(), rng,
            epochs=2, batch_size=4, checkpoint_dir=tmp_path,
        )
        last = load_checkpoint(tmp_path / "epoch-001.ckpt")
        final = load_checkpoint(tmp_path / "final.ckpt")
        for (_, a), (_, b) in zip(last.params.items(), final.params.items()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_schedule_values_reach_the_stats(self):
        model, pairs, rng = tiny_setup()
        history = train_model(
            model, pairs, ScheduleParams(cap=0.3, start=0.1, slope=0.1), rng,
            epochs=4, batch_size=4,
        )
        weights = [h.bag_weight for h in history]
        np.testing.assert_allclose(weights, [0.1, 0.2, 0.3, 0.3], atol=1e-12)

    def test_baseline_first_batch_word_loss_matches_default(self):
        """With identical seeds the first batch is identical, so its word term
        must match before any update diverges the runs."""
        results = {}
        for name, schedule in [("bag", ScheduleParams()), ("base", ScheduleParams.baseline())]:
            model, pairs, rng = tiny_setup(seed=5)
            history = train_model(
                model, pairs, schedule, rng,
                epochs=1, batch_size=4, record_batches=True,
            )
            results[name] = history[0].batches
        assert results["bag"][0].word == results["base"][0].word
        assert results["base"][0].weight == 0.0
        assert results["bag"][0].weight == 0.1

    def test_losses_are_batch_means(self):
        model, pairs, rng = tiny_setup()
        history = train_model(
            model, pairs, ScheduleParams(), rng,
            epochs=1, batch_size=4, record_batches=True,
        )
        stats = history[0]
        np.testing.assert_allclose(
            stats.word_loss, np.mean([b.word for b in stats.batches]), atol=1e-12
        )
        np.testing.assert_allclose(
            stats.total_loss, np.mean([b.total for b in stats.batches]), atol=1e-12
        )

    def test_non_finite_loss_aborts_with_location(self):
        model, pairs, rng = tiny_setup()
        model.params["gen.bias"].value[...] = np.nan
        with pytest.raises(TrainingError, match=r"epoch 0, batch 0"):
            train_model(model, pairs, ScheduleParams(), rng, epochs=1, batch_size=4)

    def test_non_finite_scores_raise_only_the_training_error(self):
        """NaN scores reach the log-space loss kernels: they stay silent, the
        loss check reports the batch, and no parameter moves."""
        model, pairs, rng = tiny_setup()
        model.params["gen.weight"].value[0, 0] = np.nan
        before = {name: node.value.tobytes() for name, node in model.params.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match=r"non-finite loss at epoch 0, batch 0"):
                train_model(model, pairs, ScheduleParams(), rng, epochs=1, batch_size=4)
        for name, node in model.params.items():
            assert node.value.tobytes() == before[name], name

    def test_non_finite_gradient_aborts_before_any_update(self, monkeypatch):
        """A NaN gradient in batch 1 of epoch 1 stops training with that
        index, and no parameter has moved since its backward pass."""
        model, pairs, rng = tiny_setup()
        real_backward = training.ad.backward
        calls, before = [], {}

        def poisoned_backward(root):
            real_backward(root)
            calls.append(len(calls))
            if len(calls) == 5:  # epoch 1 (3 batches per epoch), batch 1
                before.update({name: node.value.copy() for name, node in model.params.items()})
                model.params["enc.l0.bwd.w_rec"].grad[0, 3] = np.nan

        monkeypatch.setattr(training.ad, "backward", poisoned_backward)
        with pytest.raises(TrainingError, match=r"epoch 1, batch 1\b.*'enc.l0.bwd.w_rec'"):
            train_model(model, pairs, ScheduleParams(), rng, epochs=2, batch_size=4)
        for name, node in model.params.items():
            assert node.value.tobytes() == before[name].tobytes(), name

    def test_batches_record_the_clip_factor(self):
        factors = {}
        for clip_norm in (1e-6, 1e9):
            model, pairs, rng = tiny_setup()
            history = train_model(model, pairs, ScheduleParams(), rng, epochs=1, batch_size=4,
                                  clip_norm=clip_norm, record_batches=True)
            factors[clip_norm] = [b.clip_factor for b in history[0].batches]
        assert len(factors[1e-6]) == 3
        assert all(0.0 < f < 1.0 for f in factors[1e-6])
        assert factors[1e9] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("batch_size,steps,vocab,hidden",
                             [(2, 40, 4000, 8), (4, 30, 20000, 16), (8, 20, 16000, 32)])
    def test_batch_holds_one_score_matrix(self, batch_size, steps, vocab, hidden):
        """The generator holds the (T*B, V) scores once, and their gradient
        overwrites them: one warm training batch, backward and Adam
        included, allocates less at its peak than 1.5 (T*B, V) float64
        score matrices, so never a second one."""
        config = ModelConfig(src_vocab_size=16, tgt_vocab_size=vocab, emb_size=hidden,
                             hidden_size=hidden, dropout=0.0)
        rng = np.random.default_rng(21)
        model = Seq2SeqModel(config, init_rng=rng)
        pairs = []
        for _ in range(batch_size):
            src = tuple(int(t) for t in rng.integers(4, 16, size=5))
            tgt = tuple(int(t) for t in rng.integers(4, vocab, size=steps - 1)) + (EOS,)
            pairs.append(ExamplePair(src, tgt, extract_bag(tgt)))
        (batch,) = make_batches(pairs, batch_size, vocab, seed=0)
        args = (1.0, 10.0, AdamState.for_store(model.params), rng, 0, 0)
        training._train_batch(model, batch, *args)  # caches and the Adam moments are warm
        tracemalloc.start()
        try:
            training._train_batch(model, batch, *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * steps * batch_size * vocab * 8

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc policy set on glibc only")
    def test_warm_batches_fault_in_no_fresh_pages(self):
        """At the A4 shape a warm training batch reuses the heap the previous
        batch freed; with glibc's default policy it faults in about 900
        fresh pages each time."""
        import resource  # Unix only, like glibc

        vocab = 24
        config = ModelConfig(src_vocab_size=vocab, tgt_vocab_size=vocab, emb_size=64,
                             hidden_size=64, dropout=0.0, generator_input="concat")
        rng = np.random.default_rng(4)
        model = Seq2SeqModel(config, init_rng=rng)
        pairs = []
        for _ in range(32):
            src = tuple(int(t) for t in rng.integers(4, vocab, size=int(rng.integers(5, 11))))
            tgt = tuple(reversed(src)) + (EOS,)
            pairs.append(ExamplePair(src, tgt, extract_bag(tgt)))
        (batch,) = make_batches(pairs, 32, vocab, seed=0)
        args = (0.1, 1.0, AdamState.for_store(model.params), rng, 0, 0)
        for _ in range(2):
            training._train_batch(model, batch, *args)
        faults = []
        for _ in range(5):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            training._train_batch(model, batch, *args)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert max(faults) < 100, faults

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc policy set on glibc only")
    def test_different_warm_batches_fault_in_no_fresh_pages(self):
        """At train-wide's shape (V=16000, E=H=128, B=16, 20 tokens) eight
        different batches, each on its first use: from the third on, none
        faults in fresh pages.  A dense (B, V) bag indicator, allocated when
        the batches were cut but written only at its bag entries, faulted in
        about 250 pages on its first full read."""
        import resource  # Unix only, like glibc

        vocab, length = 16000, 20
        config = ModelConfig(src_vocab_size=vocab, tgt_vocab_size=vocab, emb_size=128,
                             hidden_size=128, dropout=0.2, generator_input="context")
        rng = np.random.default_rng(6)
        model = Seq2SeqModel(config, init_rng=rng)
        pairs = []
        for _ in range(8 * 16):
            src = tuple(int(t) for t in rng.integers(4, vocab, length))
            tgt = tuple(int(t) for t in rng.integers(4, vocab, length - 1)) + (EOS,)
            pairs.append(ExamplePair(src, tgt, extract_bag(tgt)))
        batches = make_batches(pairs, 16, vocab, seed=0)
        args = (0.1, 10.0, AdamState.for_store(model.params, lr=3e-4), rng, 0, 0)
        faults = []
        for batch in batches:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            training._train_batch(model, batch, *args)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert len(faults) == 8 and max(faults[2:]) < 100, faults

    def test_validation_columns_filled_when_requested(self):
        model, pairs, rng = tiny_setup()
        vocab = Vocab([f"t{i}" for i in range(12)])
        assert len(vocab) == 16
        val = ValidationSet(
            sources=[[4, 5, 6], [7, 8]],
            references=[["t0", "t1"], ["t2"]],
            vocab=vocab,
        )
        history = train_model(
            model, pairs, ScheduleParams(), rng,
            epochs=1, batch_size=4, validation=val,
        )
        assert history[0].val_bleu is not None
        assert history[0].val_bag_f1 is not None

    def test_log_marks_missing_validation_as_na(self, tmp_path):
        model, pairs, rng = tiny_setup()
        log_path = tmp_path / "m.log"
        train_model(
            model, pairs, ScheduleParams(), rng,
            epochs=1, batch_size=4, log_path=log_path,
        )
        line = [l for l in log_path.read_text().splitlines() if not l.startswith("#")][0]
        assert line.split("\t")[6:] == ["NA", "NA"]

    def test_empty_pairs_rejected(self):
        model, _, rng = tiny_setup()
        with pytest.raises(ValueError, match="pairs"):
            train_model(model, [], ScheduleParams(), rng, epochs=1, batch_size=4)

    def test_zero_epochs_rejected(self):
        model, pairs, rng = tiny_setup()
        with pytest.raises(ValueError, match="epochs"):
            train_model(model, pairs, ScheduleParams(), rng, epochs=0, batch_size=4)

    @pytest.mark.parametrize("option, value", [("lr", -1.0), ("lr", 0.0), ("clip_norm", 0.0)])
    def test_bad_step_option_rejected_before_the_log(self, tmp_path, option, value):
        """A negative rate would train by gradient ascent, a zero rate train
        nothing, and a zero clip norm fail only at the first batch."""
        model, pairs, rng = tiny_setup()
        log_path = tmp_path / "m.log"
        with pytest.raises(ValueError, match=option):
            train_model(model, pairs, ScheduleParams(), rng, epochs=1, batch_size=4,
                        log_path=log_path, **{option: value})
        assert not log_path.exists()

    @pytest.mark.parametrize("sources, references, vocab_size", [
        ([], [], 16),
        ([[4, 5], [6]], [["t0"]], 16),
        ([[4, 5], []], [["t0"], ["t1"]], 16),
        ([[4, 5], [6, 16]], [["t0"], ["t1"]], 16),
        ([[4, 5], [6]], [["t0"], ["t1"]], 12),
    ], ids=["empty", "fewer-references", "empty-source", "source-outside-vocab",
            "vocab-size"])
    def test_bad_validation_set_rejected_before_training(self, tmp_path, monkeypatch,
                                                         sources, references, vocab_size):
        """A validation set the first epoch's end could not score fails
        before any batch trains or any file is written."""
        model, pairs, rng = tiny_setup()

        def train_batch(*args):
            raise AssertionError("a batch trained before the check")

        monkeypatch.setattr(training, "_train_batch", train_batch)
        val = ValidationSet(sources, references, Vocab([f"t{i}" for i in range(vocab_size - 4)]))
        with pytest.raises(ValueError):
            train_model(model, pairs, ScheduleParams(), rng, epochs=1, batch_size=4,
                        validation=val, checkpoint_dir=tmp_path / "ckpt",
                        log_path=tmp_path / "m.log")
        assert list(tmp_path.iterdir()) == []

    def test_gradients_are_released_before_the_forward_pass(self, monkeypatch):
        """No parameter holds the previous batch's gradient while the next
        batch's activations are built."""
        model, pairs, rng = tiny_setup()
        real_forward = model.forward_teacher_forced
        held = []

        def forward(*args, **kwargs):
            held.append([name for name, node in model.params.items() if node._grad is not None])
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(model, "forward_teacher_forced", forward)
        train_model(model, pairs, ScheduleParams(), rng, epochs=1, batch_size=4)
        assert len(held) == 3 and held == [[], [], []]

    def test_gradients_are_released_once_adam_has_read_them(self, monkeypatch):
        """No parameter holds a gradient once a batch returns or raises for
        a non-finite gradient, nor while an epoch end validates."""
        model, pairs, rng = tiny_setup()

        def held():
            return [name for name, node in model.params.items() if node._grad is not None]

        batch = make_batches(pairs, 4, 16, seed=0)[0]
        args = (0.5, 10.0, AdamState.for_store(model.params), rng, 0, 0)
        training._train_batch(model, batch, *args)
        assert held() == []
        real_backward = training.ad.backward

        def poisoned_backward(root):
            real_backward(root)
            model.params["enc.l0.bwd.w_rec"].grad[0, 3] = np.nan

        monkeypatch.setattr(training.ad, "backward", poisoned_backward)
        with pytest.raises(TrainingError, match="non-finite gradient"):
            training._train_batch(model, batch, *args)
        assert held() == []
        monkeypatch.setattr(training.ad, "backward", real_backward)
        real_validate, seen = training._validate, []

        def validate(*args):
            seen.append(held())
            return real_validate(*args)

        monkeypatch.setattr(training, "_validate", validate)
        val = ValidationSet([[4, 5, 6], [7, 8]], [["t0", "t1"], ["t2"]],
                            Vocab([f"t{i}" for i in range(12)]))
        train_model(model, pairs, ScheduleParams(), rng, epochs=2, batch_size=4, validation=val)
        assert seen == [[], []]


class TestDeterminism:
    def _run(self, tmp_path, tag):
        model, pairs, rng = tiny_setup(seed=7)
        log_path = tmp_path / f"{tag}.log"
        train_model(
            model, pairs, ScheduleParams(), rng,
            epochs=2, batch_size=4,
            checkpoint_dir=tmp_path / tag, log_path=log_path,
        )
        return (tmp_path / tag / "final.ckpt").read_bytes(), log_path.read_text()

    @staticmethod
    def _strip_wall(text):
        lines = []
        for line in text.splitlines():
            if line.startswith("#"):
                lines.append(line)
            else:
                fields = line.split("\t")
                fields[5] = "WALL"
                lines.append("\t".join(fields))
        return "\n".join(lines)

    def test_identical_runs_are_bit_identical(self, tmp_path):
        ckpt_a, log_a = self._run(tmp_path, "a")
        ckpt_b, log_b = self._run(tmp_path, "b")
        assert ckpt_a == ckpt_b
        assert self._strip_wall(log_a) == self._strip_wall(log_b)

    def test_different_seeds_diverge(self, tmp_path):
        ckpt_a, _ = self._run(tmp_path, "a")
        model, pairs, rng = tiny_setup(seed=8)
        train_model(
            model, pairs, ScheduleParams(), rng,
            epochs=2, batch_size=4, checkpoint_dir=tmp_path / "c",
        )
        assert ckpt_a != (tmp_path / "c" / "final.ckpt").read_bytes()


class TestEpochStatsFormatting:
    def test_log_line_layout(self):
        stats = EpochStats(
            epoch=3, bag_weight=0.4, word_loss=1.25, bag_loss=0.5,
            total_loss=1.45, wall_seconds=12.3456, val_bleu=87.6543, val_bag_f1=0.98765,
        )
        line = stats.log_line()
        assert line == "3\t0.4\t1.25\t0.5\t1.45\t12.346\t87.65\t0.9877\n"

    def test_header_names_every_column(self):
        header_fields = LOG_HEADER.splitlines()[0].lstrip("# ").split("\t")
        assert header_fields == [
            "epoch", "bag_weight", "word_loss", "bag_loss",
            "total_loss", "wall_s", "val_bleu", "val_bag_f1",
        ]
