"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.  A4 trains two full toy models and takes a few minutes; everything
else finishes in seconds.
"""

import math
import random
import time

import numpy as np
import pytest

import conftest

from bowseq import autodiff as ad
from bowseq.autodiff import ParameterStore, constant, finite_difference_check
from bowseq.data import (
    EOS,
    Batch,
    ExamplePair,
    ToyTaskSpec,
    build_vocab,
    extract_bag,
    generate_toy_corpus,
    load_pairs,
    read_corpus,
)
from bowseq.inference import BeamConfig, beam_search, greedy_decode, normalized_score, score_sequence
from bowseq.metrics import bag_overlap, corpus_bleu
from bowseq.model import ModelConfig, Seq2SeqModel, bow_probabilities, load_checkpoint
from bowseq.objectives import (
    AdamState,
    ScheduleParams,
    adam_step,
    bag_loss,
    bag_weight,
    clip_gradients,
    total_loss,
    word_loss,
)
from bowseq.training import ValidationSet, train_model


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def random_batch(rng, batch_size, src_len, tgt_len, src_vocab, tgt_vocab):
    source = rng.integers(4, src_vocab, size=(batch_size, src_len))
    content = rng.integers(4, tgt_vocab, size=(batch_size, tgt_len - 1))
    target = np.concatenate([content, np.full((batch_size, 1), EOS)], axis=1)
    indicator = np.zeros((batch_size, tgt_vocab))
    for i in range(batch_size):
        for w in extract_bag(tuple(int(t) for t in target[i])):
            indicator[i, w] = 1.0
    return Batch(
        source=source.astype(np.int64),
        source_lengths=np.full(batch_size, src_len, dtype=np.int64),
        source_mask=np.ones((batch_size, src_len)),
        target=target.astype(np.int64),
        target_lengths=np.full(batch_size, tgt_len, dtype=np.int64),
        target_mask=np.ones((batch_size, tgt_len)),
        bag_indicator=indicator,
    )


class TestA1GradientCorrectness:
    def test_full_model_finite_differences(self):
        """Analytic gradients of the combined loss at full bag weight match
        central finite differences (step 1e-4) within 1e-4 for every
        parameter, bilinear attention and generator included, in under 60 s.

        The check point is drawn uniform(-1, 1) with the concatenated
        generator input so no true gradient entry sits inside the
        finite-difference truncation noise; the relative-error formula
        divides by max(|numeric|, 1e-8), which misreads harmless 1e-11
        noise as failure on entries whose true gradient is ~1e-9 (as
        happens at the 0.1-scale training initialization).
        """
        started = time.perf_counter()
        config = ModelConfig(
            src_vocab_size=20, tgt_vocab_size=20, emb_size=8, hidden_size=8,
            enc_layers=1, dec_layers=1, dropout=0.0, generator_input="concat",
        )
        rng = np.random.default_rng(0)
        model = Seq2SeqModel(config, init_rng=rng)
        for _, node in model.params.items():
            node.value[...] = rng.uniform(-1.0, 1.0, node.value.shape)
        batch = random_batch(rng, 2, 3, 4, 20, 20)

        def loss_fn(_params):
            forward = model.forward_teacher_forced(batch)
            l_word = word_loss(forward)
            l_bag = bag_loss(forward.bag_scores, batch.bag_indicator)
            return total_loss(l_word, l_bag, 1.0)

        result = finite_difference_check(loss_fn, model.params, step=1e-4, tolerance=1e-4)
        elapsed = time.perf_counter() - started
        checked = {name for name, _ in model.params.items()}
        coverage = {"attn.bilinear", "gen.weight", "gen.bias"} <= checked
        ok = result.passed and coverage and elapsed < 60.0
        report(
            "A1 gradient-correctness",
            ok,
            f"max rel err {result.max_rel_error:.2e} over {len(checked)} parameters "
            f"(tol 1e-4) in {elapsed:.1f}s",
        )
        assert result.passed, result.format()
        assert coverage
        assert elapsed < 60.0


class TestA2ScheduleExactness:
    def test_ramp_values_exact(self):
        params = ScheduleParams(cap=1.0, start=0.1, slope=0.1)
        weights = [bag_weight(i, params) for i in range(1001)]
        exact = all(w == min(1.0, 0.1 + 0.1 * i) for i, w in enumerate(weights))
        pinned = weights[0] == 0.1 and weights[9] == 1.0
        nondecreasing = all(a <= b for a, b in zip(weights, weights[1:]))
        capped = all(w <= 1.0 for w in weights)
        ok = exact and pinned and nondecreasing and capped
        report(
            "A2 schedule-exactness",
            ok,
            f"w0={weights[0]!r} w9={weights[9]!r} nondecreasing and capped over 0..1000, "
            "zero tolerance",
        )
        assert ok


class TestA3LossOracles:
    """The losses training runs, on scores: the word loss of the fused
    generator primitive, given time-major (T*B, V) scores through an
    identity generator, row t*B + b being step t of sentence b, and the bag
    loss on (B, V) step-summed scores."""

    @staticmethod
    def _word_oracle(scores, targets, mask):
        batch, steps = targets.shape
        total = 0.0
        for b in range(batch):
            for t in range(steps):
                if mask[b, t] > 0:
                    row = scores[t * batch + b]
                    total += math.log(sum(math.exp(v) for v in row)) - row[targets[b, t]]
        return total / batch

    @staticmethod
    def _bag_oracle(s, indicator):
        batch, vocab = indicator.shape
        total = 0.0
        for b in range(batch):
            for w in range(vocab):
                if indicator[b, w] > 0:
                    total += indicator[b, w] * math.log(1.0 + math.exp(-s[b, w]))
        return total / batch

    def test_loss_oracles(self):
        rng = np.random.default_rng(314)
        worst = 0.0
        for _ in range(100):
            batch = int(rng.integers(1, 5))
            steps = int(rng.integers(1, 6))
            vocab = int(rng.integers(2, 9))
            probs = [rng.uniform(0.01, 1.0, size=(batch, vocab)) for _ in range(steps)]
            scores = np.log(np.concatenate(probs))  # word scores = log p, time-major
            targets = rng.integers(0, vocab, size=(batch, steps))
            mask = (rng.random((batch, steps)) < 0.8).astype(np.float64)
            got, _ = conftest.score_losses(scores, targets, mask)
            worst = max(worst, abs(float(got.value) - self._word_oracle(scores, targets, mask)))

            p = rng.uniform(0.05, 0.95, size=(batch, vocab))
            bag_scores = np.log(p / (1.0 - p))  # bag scores = logit p
            indicator = (rng.random((batch, vocab)) < 0.4).astype(np.float64)
            got_bag = bag_loss(constant(bag_scores), indicator)
            worst = max(worst, abs(float(got_bag.value) - self._bag_oracle(bag_scores, indicator)))
        cases_ok = worst < 1e-10

        vocab, steps, batch = 17, 6, 3
        uniform = constant(np.zeros((steps * batch, vocab)))  # equal scores: uniform words
        targets = np.tile(np.arange(steps) % vocab, (batch, 1))
        got, _ = conftest.score_losses(uniform, targets, np.ones((batch, steps)))
        uniform_err = abs(float(got.value) - steps * math.log(vocab))
        uniform_ok = uniform_err < 1e-9

        scores = [constant(rng.normal(size=(4, 7))) for _ in range(6)]
        base = bow_probabilities(scores, timesteps=range(6)).value
        perm = [5, 2, 0, 4, 1, 3]
        shuffled = bow_probabilities([scores[i] for i in perm], timesteps=perm).value
        perm_ok = np.array_equal(base, shuffled)

        ok = cases_ok and uniform_ok and perm_ok
        report(
            "A3 loss-oracles",
            ok,
            f"100 random cases worst err {worst:.2e} (tol 1e-10); uniform case err "
            f"{uniform_err:.2e} (tol 1e-9); sentence probability permutation-invariant "
            f"bit-exactly: {perm_ok}",
        )
        assert ok


class TestA4ToyConvergence:
    # Free hyperparameters, chosen for convergence within the pinned budget;
    # sizes, batch, epoch count, data shape, and beam width are pinned by the
    # criterion.  Both arms use the generator variant that projects
    # [decoder state; context] to vocabulary scores: the context-only default
    # squashes attention energies through tanh, which caps how sharply any one
    # source position can be attended, and on an exact-sequence task that
    # bottleneck keeps test BLEU in the 80s at this epoch budget.  Sharing the
    # variant across both arms leaves the A/B comparison meaningful.
    LEARNING_RATE = 7e-3
    CLIP_NORM = 1.0
    DROPOUT = 0.0
    SEED = 7

    def _train_variant(self, schedule, pairs, src_vocab, tgt_vocab, validation):
        config = ModelConfig(
            src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
            emb_size=64, hidden_size=64, enc_layers=1, dec_layers=1,
            dropout=self.DROPOUT, generator_input="concat",
        )
        rng = np.random.default_rng(self.SEED)
        model = Seq2SeqModel(config, init_rng=rng)
        history = train_model(
            model, pairs, schedule, rng,
            epochs=30, batch_size=32, lr=self.LEARNING_RATE,
            clip_norm=self.CLIP_NORM, validation=validation,
        )
        return model, history

    def _beam_bleu(self, model, src_vocab, tgt_vocab, test_src, test_tgt):
        beam = BeamConfig(width=10)
        hyps = [
            tgt_vocab.decode(beam_search(model, src_vocab.encode(toks), beam)[0].tokens)
            for toks in test_src
        ]
        return corpus_bleu(hyps, test_tgt).bleu, bag_overlap(hyps, test_tgt).f1

    def test_toy_convergence_ab(self, tmp_path):
        started = time.perf_counter()
        spec = ToyTaskSpec(
            task="reverse-lexicon", alphabet_size=20, min_length=5,
            max_length=10, pairs=2000, test_pairs=200, seed=1234,
        )
        paths = generate_toy_corpus(spec, tmp_path / "toy")
        src_vocab = build_vocab(read_corpus(paths["train_src"]))
        tgt_vocab = build_vocab(read_corpus(paths["train_tgt"]))
        pairs = load_pairs(paths["train_src"], paths["train_tgt"], src_vocab, tgt_vocab)
        test_src = read_corpus(paths["test_src"])
        test_tgt = read_corpus(paths["test_tgt"])
        validation = ValidationSet(
            sources=[src_vocab.encode(t) for t in test_src],
            references=test_tgt,
            vocab=tgt_vocab,
        )

        bow_model, bow_history = self._train_variant(
            ScheduleParams(), pairs, src_vocab, tgt_vocab, validation
        )
        bow_bleu, _ = self._beam_bleu(bow_model, src_vocab, tgt_vocab, test_src, test_tgt)
        base_model, _ = self._train_variant(
            ScheduleParams.baseline(), pairs, src_vocab, tgt_vocab, validation
        )
        base_bleu, _ = self._beam_bleu(base_model, src_vocab, tgt_vocab, test_src, test_tgt)

        f1_first = bow_history[0].val_bag_f1
        f1_final = bow_history[-1].val_bag_f1
        elapsed = time.perf_counter() - started

        both_converged = bow_bleu >= 95.0 and base_bleu >= 95.0
        non_inferior = bow_bleu >= base_bleu - 1.0
        f1_improved = f1_final > f1_first
        in_budget = elapsed < 15 * 60
        ok = both_converged and non_inferior and f1_improved and in_budget
        report(
            "A4 toy-convergence-ab",
            ok,
            f"beam-10 test BLEU bow={bow_bleu:.2f} base={base_bleu:.2f} "
            f"(bar 95.0, non-inferiority {bow_bleu - base_bleu:+.2f} >= -1.0, directional "
            f"only); bag F1 {f1_first:.4f} -> {f1_final:.4f}; {elapsed:.0f}s (< 900s)",
        )
        assert both_converged, f"bow={bow_bleu:.2f} base={base_bleu:.2f}"
        assert non_inferior
        assert f1_improved
        assert in_budget


class TestA5BeamOracle:
    @staticmethod
    def _tiny_model(seed):
        config = ModelConfig(
            src_vocab_size=5, tgt_vocab_size=5, emb_size=6, hidden_size=8,
            enc_layers=1, dec_layers=1, dropout=0.0,
        )
        return Seq2SeqModel(config, init_rng=np.random.default_rng(seed))

    @staticmethod
    def _enumerate_best(model, source, max_length):
        content = [t for t in range(model.config.tgt_vocab_size) if t != EOS]
        best = None

        def walk(prefix):
            nonlocal best
            seq = prefix + (EOS,)
            ll = score_sequence(model, source, seq)
            score = ll / len(seq)
            if best is None or (-score, seq) < (-best[0], best[1]):
                best = (score, seq)
            if len(prefix) < max_length - 1:
                for tok in content:
                    walk(prefix + (tok,))

        walk(())
        return best[1]

    def test_beam_equals_enumeration_and_greedy(self):
        rng = np.random.default_rng(2718)
        mismatches = 0
        for trial in range(20):
            model = self._tiny_model(1000 + trial)
            source = [int(t) for t in rng.integers(0, 5, size=int(rng.integers(1, 4)))]
            want = self._enumerate_best(model, source, max_length=4)
            got = beam_search(model, source, BeamConfig(width=625, max_length=4))[0]
            if got.tokens != want:
                mismatches += 1
        enum_ok = mismatches == 0

        greedy_mismatches = 0
        for trial in range(100):
            model_seed = 2000 + trial % 10
            model = self._tiny_model(model_seed)
            source = [int(t) for t in rng.integers(0, 5, size=int(rng.integers(2, 6)))]
            beam = beam_search(model, source, BeamConfig(width=1))[0]
            greedy = greedy_decode(model, source)
            if beam.tokens != greedy.tokens:
                greedy_mismatches += 1
        greedy_ok = greedy_mismatches == 0

        ok = enum_ok and greedy_ok
        report(
            "A5 beam-oracle",
            ok,
            f"width-625 beam == exhaustive argmax on 20/20 tiny models "
            f"({mismatches} mismatches); width-1 == greedy on 100/100 sentences "
            f"({greedy_mismatches} mismatches)",
        )
        assert ok


class TestA6BleuOracle:
    def test_bleu_fixtures(self):
        corpus = [["the", "cat", "sat", "on", "the", "mat"], ["one", "two", "three", "four"]]
        identity_ok = corpus_bleu(corpus, corpus).bleu == 100.0

        disjoint_ok = (
            corpus_bleu([["a", "b", "c", "d", "e"]], [["v", "w", "x", "y", "z"]]).bleu == 0.0
        )

        hyp = "the the the the the the the".split()
        ref = "the cat is on the mat".split()
        p1 = corpus_bleu([hyp], [ref]).precisions[0]
        clip_err = abs(p1 - 2.0 / 7.0)
        clip_ok = clip_err < 1e-9

        pyrng = random.Random(99)
        words = [f"w{i}" for i in range(15)]
        hyps = [
            [pyrng.choice(words) for _ in range(pyrng.randint(1, 12))] for _ in range(40)
        ]
        refs = [
            [pyrng.choice(words) for _ in range(pyrng.randint(1, 12))] for _ in range(40)
        ]
        base = corpus_bleu(hyps, refs)
        order = list(range(40))
        pyrng.shuffle(order)
        shuffled = corpus_bleu([hyps[i] for i in order], [refs[i] for i in order])
        order_ok = shuffled == base

        ok = identity_ok and disjoint_ok and clip_ok and order_ok
        report(
            "A6 bleu-oracle",
            ok,
            f"identity=100.00: {identity_ok}; disjoint=0.00: {disjoint_ok}; clipped "
            f"p1 err {clip_err:.2e} (tol 1e-9); pair-order invariance exact: {order_ok}",
        )
        assert ok


class TestA7DeterminismPersistence:
    @staticmethod
    def _pairs():
        rng = np.random.default_rng(55)
        pairs = []
        for _ in range(16):
            n = int(rng.integers(2, 6))
            src = tuple(int(t) for t in rng.integers(4, 18, size=n))
            tgt = tuple(int(t) for t in rng.integers(4, 18, size=n)) + (EOS,)
            pairs.append(ExamplePair(src, tgt, extract_bag(tgt)))
        return pairs

    def _run(self, outdir):
        config = ModelConfig(
            src_vocab_size=18, tgt_vocab_size=18, emb_size=8, hidden_size=8,
            enc_layers=1, dec_layers=1, dropout=0.2,
        )
        rng = np.random.default_rng(9)
        model = Seq2SeqModel(config, init_rng=rng)
        train_model(
            model, self._pairs(), ScheduleParams(), rng,
            epochs=2, batch_size=4,
            checkpoint_dir=outdir, log_path=outdir / "metrics.log",
        )
        return outdir / "final.ckpt", outdir / "metrics.log"

    @staticmethod
    def _strip_wall(text):
        rows = []
        for line in text.splitlines():
            if line.startswith("#"):
                rows.append(line)
            else:
                fields = line.split("\t")
                fields[5] = "WALL"
                rows.append("\t".join(fields))
        return "\n".join(rows)

    def test_repeat_runs_and_roundtrip(self, tmp_path):
        ckpt_a, log_a = self._run(tmp_path / "a")
        ckpt_b, log_b = self._run(tmp_path / "b")
        ckpt_same = ckpt_a.read_bytes() == ckpt_b.read_bytes()
        logs_same = self._strip_wall(log_a.read_text()) == self._strip_wall(log_b.read_text())

        model = load_checkpoint(ckpt_a)
        again = load_checkpoint(ckpt_a)
        batch = random_batch(np.random.default_rng(77), 3, 4, 5, 18, 18)
        out_a = model.forward_teacher_forced(batch)
        out_b = again.forward_teacher_forced(batch)
        forward_same = np.array_equal(out_a.scores.value, out_b.scores.value) and np.array_equal(
            out_a.bag_scores.value, out_b.bag_scores.value
        )

        ok = ckpt_same and logs_same and forward_same
        report(
            "A7 determinism-persistence",
            ok,
            f"repeat runs: checkpoints bit-identical={ckpt_same}, logs (wall column "
            f"aside) identical={logs_same}; save/load forward bit-identical={forward_same}",
        )
        assert ok


class TestA8ClippingOptimizer:
    def test_clipping_and_adam(self):
        rng = np.random.default_rng(123)
        store = ParameterStore()
        for i in range(4):
            node = store.create(f"p{i}", np.zeros((5, 5)))
            node.grad = rng.normal(size=(5, 5)) * 50.0
        clip_gradients(store, max_norm=10.0)
        post_norm = math.sqrt(
            sum(float(np.sum(n.grad * n.grad)) for _, n in store.items())
        )
        clip_ok = post_norm <= 10.0 + 1e-9

        step_store = ParameterStore()
        w = step_store.create("w", rng.normal(size=(4, 4)))
        w.grad = np.where(rng.random((4, 4)) < 0.5, 1.0, -1.0)
        before = w.value.copy()
        adam_step(step_store, AdamState.for_store(step_store, lr=0.0003))
        magnitudes = np.abs(before - w.value)
        step_err = float(np.max(np.abs(magnitudes - 0.0003)))
        step_ok = step_err < 1e-6

        quad_store = ParameterStore()
        q = quad_store.create("q", np.array([[2.0, -3.0]]))
        state = AdamState.for_store(quad_store, lr=0.1)
        values = []
        for _ in range(10):
            quad_store.zero_gradients()
            loss = ad.sum_all(ad.mul(q, q))
            ad.backward(loss)
            values.append(float(loss.value))
            adam_step(quad_store, state)
        values.append(float(np.sum(q.value**2)))
        decreasing = all(b < a for a, b in zip(values, values[1:]))

        ok = clip_ok and step_ok and decreasing
        report(
            "A8 clipping-optimizer",
            ok,
            f"post-clip norm {post_norm:.12f} <= 10+1e-9; first Adam step off by "
            f"{step_err:.2e} from lr 0.0003 (tol 1e-6); 10 steps on w^2 strictly "
            f"decreasing: {decreasing}",
        )
        assert ok
