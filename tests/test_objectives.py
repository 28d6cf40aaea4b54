"""Objective tests: scalar-loop oracles and finite differences for both
loss terms, their gradients at extreme scores, the weight schedule,
gradient clipping, and the Adam optimizer."""

import math

import numpy as np
import pytest

from conftest import score_losses

from bowseq import autodiff as ad
from bowseq.autodiff import ParameterStore, constant, finite_difference_check
from bowseq.cli import _random_batch
from bowseq.data import EOS, ExamplePair, extract_bag, make_batches
from bowseq.model import ModelConfig, Seq2SeqModel
from bowseq.objectives import (
    AdamState,
    LossBreakdown,
    NonFiniteGradientError,
    ScheduleParams,
    adam_step,
    bag_loss,
    bag_weight,
    clip_gradients,
    total_loss,
    word_loss,
)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def logit(p):
    return np.log(p / (1.0 - p))


def word_loss_oracle(scores, targets, mask):
    """Direct scalar-loop restatement: batch mean of summed gold surprisal,
    the log of the row's summed exponentials minus the gold score; row
    t*B + b of the scores is step t of sentence b."""
    batch, steps = targets.shape
    total = 0.0
    for b in range(batch):
        for t in range(steps):
            if mask[b, t] > 0:
                row = scores[t * batch + b]
                total += math.log(sum(math.exp(v) for v in row)) - row[targets[b, t]]
    return total / batch


def bag_loss_oracle(s, indicator):
    """-log sigmoid(s) = log(1 + e^-s) per bag word."""
    batch, vocab = indicator.shape
    total = 0.0
    for b in range(batch):
        for w in range(vocab):
            if indicator[b, w] > 0:
                total += indicator[b, w] * math.log(1.0 + math.exp(-s[b, w]))
    return total / batch


class TestWordLoss:
    """The word loss of the fused generator primitive, on chosen scores
    through an identity generator (``conftest.score_losses``)."""

    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            batch = int(rng.integers(1, 5))
            steps = int(rng.integers(1, 6))
            vocab = int(rng.integers(2, 9))
            probs = [rng.uniform(0.01, 1.0, size=(batch, vocab)) for _ in range(steps)]
            scores = np.log(np.concatenate(probs))  # time-major (T*B, V)
            targets = rng.integers(0, vocab, size=(batch, steps))
            mask = (rng.random((batch, steps)) < 0.8).astype(np.float64)
            got, _ = score_losses(scores, targets, mask)
            want = word_loss_oracle(scores, targets, mask)
            np.testing.assert_allclose(got.value, want, rtol=0, atol=1e-10)

    def test_uniform_probabilities_give_length_times_log_vocab(self):
        vocab, steps, batch = 13, 7, 3
        scores = constant(np.zeros((steps * batch, vocab)))
        targets = np.tile(np.arange(steps) % vocab, (batch, 1))
        mask = np.ones((batch, steps))
        got, _ = score_losses(scores, targets, mask)
        np.testing.assert_allclose(got.value, steps * np.log(vocab), atol=1e-9)

    def test_masked_positions_do_not_contribute(self):
        rng = np.random.default_rng(7)
        clean = np.log(rng.uniform(0.1, 1.0, size=(3 * 2, 5)))  # T=3 steps of B=2 rows
        dirty = clean.copy()
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        targets = rng.integers(0, 5, size=(2, 3))
        dirty[2 * 2 + 0, targets[0, 2]] = -800.0
        dirty[1 * 2 + 1, targets[1, 1]] = -800.0
        a, _ = score_losses(clean, targets, mask)
        b, _ = score_losses(dirty, targets, mask)
        np.testing.assert_array_equal(a.value, b.value)

    def test_shape_mismatch_rejected(self):
        scores = constant(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="incompatible shapes"):
            score_losses(scores, np.zeros((2, 2), dtype=int), np.ones((2, 2)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        store = ParameterStore()
        raw = store.create("logits", rng.normal(size=(3, 6)))
        targets = np.array([[2], [4], [0]])
        mask = np.ones((3, 1))

        def loss_fn(_store):
            return score_losses(raw, targets, mask)[0]

        report = finite_difference_check(loss_fn, store, step=1e-6, tolerance=1e-6)
        assert report.passed, report.format()


class TestBagLoss:
    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            batch = int(rng.integers(1, 5))
            vocab = int(rng.integers(2, 9))
            s = logit(rng.uniform(0.05, 0.95, size=(batch, vocab)))
            indicator = (rng.random((batch, vocab)) < 0.4).astype(np.float64)
            got = bag_loss(constant(s), indicator)
            want = bag_loss_oracle(s, indicator)
            np.testing.assert_allclose(got.value, want, rtol=0, atol=1e-12)

    def test_worked_example(self):
        p = np.array([[0.5, 0.25, 0.8]])
        indicator = np.array([[1.0, 0.0, 1.0]])
        got = bag_loss(constant(logit(p)), indicator)
        want = -(np.log(0.5) + np.log(0.8))
        np.testing.assert_allclose(got.value, want, atol=1e-12)

    def test_duplicate_counts_scale_their_term(self):
        p = np.array([[0.5, 0.25]])
        indicator = np.array([[2.0, 0.0]])
        got = bag_loss(constant(logit(p)), indicator)
        np.testing.assert_allclose(got.value, -2.0 * np.log(0.5), atol=1e-12)

    def test_empty_bag_contributes_zero(self):
        s = constant(logit(np.array([[0.3, 0.7], [0.2, 0.9]])))
        got = bag_loss(s, np.zeros((2, 2)))
        assert got.value.item() == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            bag_loss(constant(np.ones((1, 2))), np.ones((1, 3)))

    def test_gradient_identity_sigmoid_minus_one(self):
        """For score sums S, d bag_loss / dS is (sigmoid(S) - 1) / B on bag words."""
        rng = np.random.default_rng(12)
        store = ParameterStore()
        scores = store.create("scores", rng.normal(size=(3, 5)))
        indicator = (rng.random((3, 5)) < 0.5).astype(np.float64)
        loss = bag_loss(scores, indicator)
        store.zero_gradients()
        ad.backward(loss)
        want = (sigmoid(scores.value) - 1.0) * indicator / 3.0
        np.testing.assert_allclose(scores.grad, want, rtol=0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        store = ParameterStore()
        scores = store.create("scores", rng.normal(size=(2, 4)))
        indicator = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 1.0]])

        def loss_fn(_store):
            return bag_loss(scores, indicator)

        report = finite_difference_check(loss_fn, store, step=1e-6, tolerance=1e-6)
        assert report.passed, report.format()


class TestSchedule:
    def test_default_ramp_values(self):
        params = ScheduleParams()
        for epoch, want in [(0, 0.1), (1, 0.2), (4, 0.5), (8, 0.9)]:
            np.testing.assert_allclose(bag_weight(epoch, params), want, atol=1e-12)

    def test_cap_reached_exactly_at_epoch_nine(self):
        params = ScheduleParams()
        assert bag_weight(9, params) == 1.0
        for epoch in (10, 50, 1000):
            assert bag_weight(epoch, params) == 1.0

    def test_baseline_is_always_zero(self):
        params = ScheduleParams.baseline()
        assert all(bag_weight(e, params) == 0.0 for e in range(100))

    def test_custom_slope(self):
        params = ScheduleParams(cap=0.5, start=0.0, slope=0.25)
        assert bag_weight(0, params) == 0.0
        assert bag_weight(1, params) == 0.25
        assert bag_weight(2, params) == 0.5
        assert bag_weight(3, params) == 0.5

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            bag_weight(-1, ScheduleParams())

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError, match="start"):
            ScheduleParams(cap=0.5, start=0.9)
        with pytest.raises(ValueError, match="slope"):
            ScheduleParams(slope=-0.1)


class TestTotalLoss:
    def test_weighted_sum(self):
        word = constant(np.array(2.0))
        bag = constant(np.array(0.5))
        got = total_loss(word, bag, 0.1)
        np.testing.assert_allclose(got.value, 2.05, atol=1e-12)

    def test_zero_weight_returns_word_node(self):
        word = constant(np.array(2.0))
        bag = constant(np.array(0.5))
        assert total_loss(word, bag, 0.0) is word

    def test_zero_weight_gradients_match_word_only_run(self):
        rng = np.random.default_rng(14)
        values = rng.normal(size=(3, 4))
        targets = np.array([[1], [2], [0]])
        mask = np.ones((3, 1))
        indicator = np.ones((3, 4))

        def run(include_bag):
            store = ParameterStore()
            raw = store.create("logits", values.copy())
            word, bag_scores = score_losses(raw, targets, mask)
            store.zero_gradients()
            if include_bag:
                word = total_loss(word, bag_loss(bag_scores, indicator), 0.0)
            ad.backward(word)
            return raw.grad.copy()

        np.testing.assert_array_equal(run(True), run(False))

    def test_breakdown_total(self):
        breakdown = LossBreakdown(word=2.0, bag=0.5, weight=0.2)
        np.testing.assert_allclose(breakdown.total, 2.1, atol=1e-15)


class TestScoreForms:
    """The log-space losses training runs, on scores lifted from A3-style
    random cases, on padded model batches, and at extreme scores."""

    def test_word_equals_reference_on_random_cases(self):
        rng = np.random.default_rng(314)
        for _ in range(100):
            batch = int(rng.integers(1, 5))
            steps = int(rng.integers(1, 6))
            vocab = int(rng.integers(2, 9))
            scores = np.log(rng.uniform(0.01, 1.0, size=(steps * batch, vocab)))
            targets = rng.integers(0, vocab, size=(batch, steps))
            mask = (rng.random((batch, steps)) < 0.8).astype(np.float64)
            got, _ = score_losses(scores, targets, mask)
            want = word_loss_oracle(scores, targets, mask)
            np.testing.assert_allclose(got.value, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", ["paper"])
    def test_bag_equals_reference_on_random_cases(self, variant):
        rng = np.random.default_rng(315)
        for _ in range(100):
            batch = int(rng.integers(1, 5))
            vocab = int(rng.integers(2, 9))
            scores = logit(rng.uniform(0.05, 0.95, size=(batch, vocab)))
            indicator = (rng.random((batch, vocab)) < 0.4).astype(np.float64)
            got = bag_loss(constant(scores), indicator)
            want = bag_loss_oracle(scores, indicator)
            np.testing.assert_allclose(got.value, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", ["paper"])
    def test_model_batch_with_padding_matches_reference(self, variant):
        """Gradients on a batch with padded target steps against central
        finite differences, at A1's step and tolerance and, as in A1, at a
        uniform(-1, 1) check point."""
        config = ModelConfig(src_vocab_size=14, tgt_vocab_size=14, emb_size=6, hidden_size=5,
                             dropout=0.0, generator_input="concat")
        rng = np.random.default_rng(316)
        model = Seq2SeqModel(config, init_rng=rng)
        pairs = []
        for n in (2, 5, 3):
            src = tuple(int(t) for t in rng.integers(4, 14, size=n + 1))
            tgt = tuple(int(t) for t in rng.integers(4, 14, size=n)) + (EOS,)
            pairs.append(ExamplePair(src, tgt, extract_bag(tgt)))
        (batch,) = make_batches(pairs, 3, 14, seed=0)
        assert not np.all(batch.target_mask > 0)
        for _, node in model.params.items():
            node.value[...] = rng.uniform(-1.0, 1.0, node.value.shape)

        def loss_fn(_params):
            forward = model.forward_teacher_forced(batch)
            word = word_loss(forward)
            bag = bag_loss(forward.bag_scores, batch.bag_indicator)
            return total_loss(word, bag, 0.5)

        report = finite_difference_check(loss_fn, model.params, step=1e-4, tolerance=1e-4)
        assert report.passed, report.format()

    @pytest.mark.parametrize("variant", ["paper"])
    def test_full_model_finite_differences(self, variant):
        """A1's model, batch, check point, step and tolerance."""
        config = ModelConfig(
            src_vocab_size=20, tgt_vocab_size=20, emb_size=8, hidden_size=8,
            enc_layers=1, dec_layers=1, dropout=0.0, generator_input="concat",
        )
        rng = np.random.default_rng(0)
        model = Seq2SeqModel(config, init_rng=rng)
        for _, node in model.params.items():
            node.value[...] = rng.uniform(-1.0, 1.0, node.value.shape)
        batch = _random_batch(rng, 2, 3, 4, 20, 20)

        def loss_fn(_params):
            forward = model.forward_teacher_forced(batch)
            l_word = word_loss(forward)
            l_bag = bag_loss(forward.bag_scores, batch.bag_indicator)
            return total_loss(l_word, l_bag, 1.0)

        report = finite_difference_check(loss_fn, model.params, step=1e-4, tolerance=1e-4)
        assert report.passed, report.format()
        assert {"attn.bilinear", "gen.weight", "gen.bias"} <= set(model.params.names())

    def test_gold_gradient_survives_a_gap_of_30_nats(self):
        scores = ParameterStore().create("s", np.array([[30.0, 0.0, 0.0]]))
        ad.backward(score_losses(scores, np.array([[1]]), np.ones((1, 1)))[0])
        assert scores.grad[0, 1] < -0.99

    @pytest.mark.parametrize("variant", ["paper"])
    def test_bag_gradient_survives_a_score_of_minus_40(self, variant):
        scores = ParameterStore().create("s", np.array([[-40.0, 0.0]]))
        ad.backward(bag_loss(scores, np.array([[1.0, 0.0]])))
        assert scores.grad[0, 0] < -0.99


class TestClipGradients:
    def _store_with_grads(self, grads):
        store = ParameterStore()
        for i, g in enumerate(grads):
            node = store.create(f"p{i}", np.zeros_like(g))
            node.grad = g.copy()
        return store

    def test_below_threshold_untouched(self):
        grads = [np.array([[0.3, 0.4]]), np.array([[1.0]])]
        store = self._store_with_grads(grads)
        factor = clip_gradients(store, max_norm=10.0)
        assert factor == 1.0
        for i, g in enumerate(grads):
            np.testing.assert_array_equal(store[f"p{i}"].grad, g)

    def test_above_threshold_rescaled_to_cap(self):
        rng = np.random.default_rng(15)
        grads = [rng.normal(size=(4, 3)) * 100, rng.normal(size=(2, 2)) * 100]
        store = self._store_with_grads(grads)
        before = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
        factor = clip_gradients(store, max_norm=10.0)
        np.testing.assert_allclose(factor, 10.0 / before, atol=1e-15)
        after = np.sqrt(
            sum(float(np.sum(n.grad * n.grad)) for _, n in store.items())
        )
        np.testing.assert_allclose(after, 10.0, atol=1e-9)
        np.testing.assert_allclose(
            store["p0"].grad, grads[0] * factor, rtol=0, atol=1e-15
        )

    def test_blocked_sum_spans_many_blocks(self):
        """A parameter several summation blocks long; its last block is
        partial, and a NaN in a later block still names that parameter."""
        rng = np.random.default_rng(19)
        grads = [rng.normal(size=(3, 2)), rng.normal(size=(300, 401)), rng.normal(size=(1, 5))]
        want = 10.0 / np.sqrt(sum(float(np.sum(g * g)) for g in grads))
        factor = clip_gradients(self._store_with_grads(grads), max_norm=10.0)
        np.testing.assert_allclose(factor, want, rtol=1e-13)
        grads[1][-1, -1] = np.nan
        store = self._store_with_grads(grads)
        with pytest.raises(NonFiniteGradientError) as caught:
            clip_gradients(store, max_norm=10.0)
        assert caught.value.parameter == "p1"
        assert np.isnan(store["p1"].grad[-1, -1]) and store["p0"].grad[0, 0] == grads[0][0, 0]

    def test_zero_gradients_are_a_no_op(self):
        store = self._store_with_grads([np.zeros((3, 3))])
        assert clip_gradients(store, max_norm=1.0) == 1.0
        assert np.all(np.isfinite(store["p0"].grad))

    def test_missing_gradient_stays_missing(self):
        store = self._store_with_grads([np.full((2, 2), 100.0)])
        store.create("unused", np.zeros((3, 3)))
        factor = clip_gradients(store, max_norm=1.0)
        np.testing.assert_allclose(store["p0"].grad, np.full((2, 2), 100.0 * factor))
        assert store["unused"]._grad is None

    def test_invalid_max_norm_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            clip_gradients(ParameterStore(), max_norm=0.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_norm_raises_before_scaling(self, bad):
        grads = [np.full((2, 2), 100.0), np.array([[1.0, bad]]), np.array([[np.nan]])]
        store = self._store_with_grads(grads)
        with pytest.raises(NonFiniteGradientError) as caught:
            clip_gradients(store, max_norm=1.0)
        assert caught.value.parameter == "p1"
        for i, g in enumerate(grads):
            np.testing.assert_array_equal(store[f"p{i}"].grad, g)


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        rng = np.random.default_rng(16)
        store = ParameterStore()
        node = store.create("w", rng.normal(size=(3, 3)))
        node.grad = rng.normal(size=(3, 3)) * 5.0
        before = node.value.copy()
        state = AdamState.for_store(store, lr=3e-4)
        adam_step(store, state)
        delta = before - node.value
        np.testing.assert_allclose(np.abs(delta), np.full((3, 3), 3e-4), atol=1e-6)
        np.testing.assert_array_equal(np.sign(delta), np.sign(node.grad))

    def test_quadratic_objective_strictly_decreases(self):
        store = ParameterStore()
        node = store.create("w", np.array([[2.0, -3.0]]))
        state = AdamState.for_store(store, lr=0.1)
        losses = []
        for _ in range(10):
            store.zero_gradients()
            loss = ad.sum_all(ad.mul(node, node))
            ad.backward(loss)
            losses.append(float(loss.value))
            adam_step(store, state)
        final = float(np.sum(node.value**2))
        assert all(b < a for a, b in zip(losses, losses[1:] + [final]))

    def test_zero_gradient_leaves_value_unchanged(self):
        store = ParameterStore()
        node = store.create("w", np.array([[1.5, -2.5]]))
        before = node.value.copy()
        state = AdamState.for_store(store)
        adam_step(store, state)
        np.testing.assert_array_equal(node.value, before)

    def test_moments_track_every_parameter(self):
        store = ParameterStore()
        store.create("a", np.zeros((2, 2)))
        store.create("b", np.zeros((1, 4)))
        state = AdamState.for_store(store)
        assert set(state.m) == {"a", "b"}
        assert state.v["b"].shape == (1, 4)
        assert state.step == 0

    def test_blocked_update_is_bit_identical_to_whole_array_formula(self):
        # Three blocks plus a remainder, a single element, exactly one block.
        rng = np.random.default_rng(17)
        store = ParameterStore()
        for name, shape in (("blocks", (3, 40000)), ("single", (1, 1)), ("one", (1, 1 << 15))):
            store.create(name, rng.normal(size=shape))
        state = AdamState.for_store(store, lr=1e-2)
        b1, b2, eps, lr = state.beta1, state.beta2, state.eps, state.lr
        expected = {
            name: (node.value.copy(), np.zeros(node.shape), np.zeros(node.shape))
            for name, node in store.items()
        }
        for step in range(1, 4):
            for name, node in store.items():
                node.grad = rng.normal(size=node.shape) * 10.0 ** rng.integers(-4, 3, node.shape)
                x, m, v = expected[name]
                m = b1 * m + (1.0 - b1) * node.grad
                v = b2 * v + (1.0 - b2) * (node.grad * node.grad)
                x = x - lr * (m / (1.0 - b1**step)) / (np.sqrt(v / (1.0 - b2**step)) + eps)
                expected[name] = (x, m, v)
            adam_step(store, state)
            for name, node in store.items():
                x, m, v = expected[name]
                assert np.array_equal(node.value, x), (step, name)
                assert np.array_equal(state.m[name], m), (step, name)
                assert np.array_equal(state.v[name], v), (step, name)

    def test_steps_are_counted(self):
        store = ParameterStore()
        store.create("w", np.ones((1, 1)))
        state = AdamState.for_store(store)
        adam_step(store, state)
        adam_step(store, state)
        assert state.step == 2
