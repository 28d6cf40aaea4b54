"""Engine tests: primitive backward rules against scalar oracles and
central finite differences, accumulation semantics, and shape policing."""

import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import every_column, score_losses

from bowseq import autodiff as ad
from bowseq.autodiff import (
    Node,
    ParameterStore,
    ShapeError,
    backward,
    constant,
    finite_difference_check,
    parameter,
)
from bowseq.data import EOS, ExamplePair, extract_bag, make_batches, pack_batch
from bowseq.model import ModelConfig, Seq2SeqModel
from bowseq.objectives import bag_loss, total_loss, word_loss


def bag_nll_reference(s, indicator, upstream):
    """The bag loss's value and its gradient for an upstream on the value,
    each operation in the order of the separate nodes that once computed
    it: scale(-1), softplus, mul by the indicator, sum_all, scale(1/B)."""

    def softplus(x):
        return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def sigmoid(x):
        e = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0, e) / (1.0 + e)

    factor = 1.0 / s.shape[0]
    value = (softplus(s * -1.0) * indicator).sum()
    g = np.zeros_like(s) + np.float64(upstream) * factor
    grad = ((g * indicator) * sigmoid(s * -1.0)) * -1.0
    return value * factor, grad


def dense_generator_oracle(x, w, b, targets, mask, indicator, bag_weight, span):
    """The dense bag that ``generator_losses`` once computed, one operation
    after another on plain arrays: the scores of chunks of ``span`` steps,
    a V-wide (B, V) fold of them in ascending steps, the dense ``bag_nll``
    gradient d_bag, and a backward pass over the chunks in reverse that
    spreads d_bag * mask into every column of each step's rows.  Returns
    the (B, V) bag and the gradients of x, w and b for the loss word +
    bag_weight * bag_nll."""
    batch, steps = targets.shape
    chunks = [(t, min(t + span, steps)) for t in range(0, steps, span)]
    gold, rows = targets.T.reshape(-1), np.arange(batch * span)
    top, total, bag = np.empty((len(x), 1)), np.empty((len(x), 1)), None
    for t0, t1 in chunks:
        s = (x[t0 * batch : t1 * batch] @ w + b).reshape(t1 - t0, batch, -1)
        for t in range(t0, t1):
            term = s[t - t0] * mask[:, t : t + 1]
            bag = term if bag is None else bag + term
        s = s.reshape((t1 - t0) * batch, -1)
        top[t0 * batch : t1 * batch] = s.max(axis=1, keepdims=True)
        total[t0 * batch : t1 * batch] = np.exp(s - top[t0 * batch : t1 * batch]).sum(
            axis=1, keepdims=True)
    d_bag = -((bag_weight * (1.0 / batch) * indicator) * ad.stable_sigmoid(bag * -1.0))
    d_x, d_w, d_b = np.empty_like(x), None, None
    for t0, t1 in reversed(chunks):
        at = slice(t0 * batch, t1 * batch)
        e = np.exp(x[at] @ w + b - top[at]) / total[at]
        e[rows[: len(e)], gold[at]] -= 1.0
        e *= mask.T.reshape(-1, 1)[at] * (1.0 / batch)
        for t in range(t0, t1):
            e[(t - t0) * batch : (t - t0 + 1) * batch] += d_bag * mask[:, t : t + 1]
        d_w = x[at].T @ e if d_w is None else d_w + x[at].T @ e
        d_b = e.sum(axis=0, keepdims=True) if d_b is None else d_b + e.sum(axis=0, keepdims=True)
        d_x[at] = e @ w.T
    return bag, (d_x, d_w, d_b)


def fd_gradient(f, x, step=1e-6):
    """Central finite differences of a scalar function over one array."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + step
        plus = f()
        flat[j] = orig - step
        minus = f()
        flat[j] = orig
        out[j] = (plus - minus) / (2.0 * step)
    return grad


class TestPrimitiveValues:
    def test_sigmoid_extreme_inputs_stay_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ad.stable_sigmoid(np.array([[-1000.0, 0.0, 1000.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.5, 1.0]], atol=1e-12)

    def test_embedding_rows_gathered(self):
        table = constant(np.arange(12.0).reshape(4, 3))
        out = ad.embedding_lookup(table, np.array([2, 0, 2]))
        np.testing.assert_array_equal(out.value, [[6, 7, 8], [0, 1, 2], [6, 7, 8]])

    def test_concat_then_slice_roundtrip(self):
        a, b = np.ones((2, 3)), np.full((2, 4), 2.0)
        joined = ad.concat_cols([constant(a), constant(b)])
        np.testing.assert_array_equal(joined.value[:, :3], a)
        np.testing.assert_array_equal(joined.value[:, 3:], b)

    def test_softplus_values_at_extremes(self):
        x = np.array([[0.0, 40.0, -40.0, 800.0, -800.0, np.inf, -np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ad.stable_softplus(x)[0]
        want = [math.log(2.0), 40.0, math.exp(-40.0), 800.0, 0.0, np.inf, 0.0]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    def test_fold_steps_folds_in_ascending_order(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 2, 4))  # T=3 steps of B=2 rows
        w = np.array([[1.0, 1.0, 0.0], [1.0, 0.5, 1.0]])
        want = (a[0] * w[:, :1] + a[1] * w[:, 1:2]) + a[2] * w[:, 2:3]
        np.testing.assert_array_equal(ad.fold_steps(a, w), want)

    def test_lstm_cell_pad_rows_carry_state_exactly(self):
        rng = np.random.default_rng(12)
        x = constant(rng.normal(size=(4, 3)))  # T=2, B=2, E=3, H=2
        w_in, bias = constant(rng.normal(size=(3, 8))), constant(rng.normal(size=(1, 8)))
        h, c = constant(rng.normal(size=(2, 2))), constant(rng.normal(size=(2, 2)))
        outputs, h_new, c_new = ad.lstm_scan(x, w_in, bias, h, c,
                                             constant(rng.normal(size=(2, 8))),
                                             np.array([[0.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_array_equal(outputs.value[[0, 2]], h.value[[0, 0]])
        np.testing.assert_array_equal(h_new.value[0], h.value[0])
        np.testing.assert_array_equal(c_new.value[0], c.value[0])
        assert not np.allclose(h_new.value[1], h.value[1])

    def test_lstm_scan_steps_match_single_step_scans(self):
        """Each step is computed the same way whatever T is: a scan over T
        steps gives the bits of T chained scans at T=1, forward and reverse,
        gradients included.  The projection's weight and bias sum their
        steps' gradients in another order, so those are only close."""
        rng = np.random.default_rng(19)
        x_steps = [parameter(rng.normal(size=(2, 5))) for _ in range(3)]  # B=2, E=5, H=3
        w_in, bias = parameter(rng.normal(size=(5, 12))), parameter(rng.normal(size=(1, 12)))
        h0, c0 = parameter(rng.normal(size=(2, 3))), parameter(rng.normal(size=(2, 3)))
        w_rec = parameter(rng.normal(size=(3, 12)))
        go, gh, gc = (rng.normal(size=s) for s in ((6, 3), (2, 3), (2, 3)))
        x = parameter(np.concatenate([p.value for p in x_steps]))
        leaves = x_steps + [x, w_in, bias, h0, c0, w_rec]

        def dot(n, g):
            return ad.sum_all(ad.mul(n, constant(g)))

        for reverse in (False, True):
            runs, sums = [], []
            for whole in (True, False):
                for p in leaves:
                    p.grad = None
                if whole:
                    outputs, h, c = ad.lstm_scan(x, w_in, bias, h0, c0, w_rec, reverse=reverse)
                    inputs, steps = [x], [outputs]
                else:
                    inputs, h, c, steps = x_steps, h0, c0, [None] * 3
                    for t in (2, 1, 0) if reverse else (0, 1, 2):
                        steps[t], h, c = ad.lstm_scan(x_steps[t], w_in, bias, h, c, w_rec)
                root = ad.add(dot(h, gh), dot(c, gc))
                for n, g in zip(steps, np.split(go, len(steps))):
                    root = ad.add(root, dot(n, g))
                backward(root)
                runs.append([np.concatenate([n.value for n in steps]),
                             np.concatenate([p.grad for p in inputs]),
                             h.value, c.value, h0.grad, c0.grad, w_rec.grad])
                sums.append([w_in.grad, bias.grad])
            for whole, chained in zip(*runs):
                assert np.array_equal(whole, chained)
            for whole, chained in zip(*sums):
                np.testing.assert_allclose(chained, whole, rtol=1e-13, atol=1e-13)

    def test_attention_rows_do_not_depend_on_step_count(self):
        """The contexts of one step at T=1 are the bits of that step's rows
        in a T=5 pass, and a masked position changes no context."""
        rng = np.random.default_rng(13)
        memory = rng.normal(size=(3 * 2, 4))                 # L=3, B=2
        bilinear = constant(rng.normal(size=(4, 4)))
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        queries = rng.normal(size=(5 * 2, 4))                # T=5
        context = ad.attention(constant(queries), bilinear, constant(memory), mask)
        for t in range(5):
            one = ad.attention(constant(queries[2 * t : 2 * t + 2]), bilinear, constant(memory),
                               mask)
            np.testing.assert_array_equal(one.value, context.value[2 * t : 2 * t + 2])
        moved = memory.copy()
        moved[2 * 2] += 1.0  # position 2 of sentence 0, which the mask closes
        changed = ad.attention(constant(queries), bilinear, constant(moved), mask).value
        np.testing.assert_array_equal(changed[0::2], context.value[0::2])

    def test_attention_fully_masked_row_rejected(self):
        with pytest.raises(ValueError, match="fully masked"):
            ad.attention(constant(np.ones((2, 3))), constant(np.eye(3)),
                         constant(np.ones((4, 3))), np.array([[1.0, 1.0], [0.0, 0.0]]))

class TestShapeErrors:
    def test_affine_bias_must_be_one_row(self):
        with pytest.raises(ShapeError, match="affine"):
            ad.affine(constant(np.ones((2, 3))), constant(np.ones((3, 4))),
                      constant(np.ones((2, 4))))

    def test_add_column_broadcast_rejected(self):
        with pytest.raises(ShapeError, match="add"):
            ad.add(constant(np.ones((3, 2))), constant(np.ones((3, 1))))

    def test_mul_shape_mismatch(self):
        with pytest.raises(ShapeError, match="mul"):
            ad.mul(constant(np.ones((2, 2))), constant(np.ones((2, 3))))

    @staticmethod
    def _projection(inputs=3, gates=8):
        return constant(np.ones((inputs, gates))), constant(np.ones((1, gates)))

    def test_lstm_cell_step_outside_inputs(self):
        with pytest.raises(ShapeError, match="lstm_scan"):  # 5 rows are not whole steps of B=2
            ad.lstm_scan(constant(np.ones((5, 3))), *self._projection(),
                         constant(np.ones((2, 2))), constant(np.ones((2, 2))),
                         constant(np.ones((2, 8))))

    @pytest.mark.parametrize("projection", [(4, 8), (3, 6)], ids=["input-width", "gate-width"])
    def test_lstm_scan_projection_must_fit_input_and_gates(self, projection):
        with pytest.raises(ShapeError, match="lstm_scan"):
            ad.lstm_scan(constant(np.ones((4, 3))), *self._projection(*projection),
                         constant(np.ones((2, 2))), constant(np.ones((2, 2))),
                         constant(np.ones((2, 8))))

    def test_lstm_scan_mask_must_be_batch_by_steps(self):
        with pytest.raises(ShapeError, match="lstm_scan"):
            ad.lstm_scan(constant(np.ones((4, 3))), *self._projection(),
                         constant(np.ones((2, 2))), constant(np.ones((2, 2))),
                         constant(np.ones((2, 8))), np.ones((2, 1)))

    def test_attention_memory_must_cover_every_position(self):
        with pytest.raises(ShapeError, match="attention"):
            ad.attention(constant(np.ones((2, 3))), constant(np.eye(3)),
                         constant(np.ones((5, 3))), np.ones((2, 3)))

    def test_dropout_mask_shape(self):
        with pytest.raises(ShapeError, match="dropout"):
            ad.dropout(constant(np.ones((2, 2))), np.ones((2, 3)))

    def test_error_names_offending_shapes(self):
        try:
            ad.affine(constant(np.ones((2, 3))), constant(np.ones((4, 5))),
                      constant(np.ones((1, 5))))
        except ShapeError as e:
            assert "(2, 3)" in str(e) and "(4, 5)" in str(e)
        else:
            pytest.fail("expected ShapeError")


class TestBackwardRules:
    """Each primitive's gradient against finite differences of its own value."""

    def _check(self, build, params, step=1e-6, tol=1e-7):
        for p in params:
            p.grad = None
        root = build()
        backward(root)
        for p in params:
            numeric = fd_gradient(lambda: float(build().value), p.value, step)
            np.testing.assert_allclose(p.grad, numeric, rtol=tol, atol=tol)

    def test_affine(self):
        rng = np.random.default_rng(17)
        x, w = parameter(rng.normal(size=(4, 3))), parameter(rng.normal(size=(3, 2)))
        bias = parameter(rng.normal(size=(1, 2)))

        def build():
            y = ad.affine(x, w, bias)
            return ad.sum_all(ad.mul(y, y))

        self._check(build, [x, w, bias])

    def test_mul_and_scale(self):
        rng = np.random.default_rng(3)
        a, b = parameter(rng.normal(size=(3, 3))), parameter(rng.normal(size=(3, 3)))
        self._check(lambda: ad.sum_all(ad.scale(ad.mul(a, b), -0.7)), [a, b])

    def test_sigmoid_log_chain(self):
        """``bag_nll``'s -log sigmoid(s) on bag words, counts included."""
        rng = np.random.default_rng(4)
        a = parameter(rng.uniform(-4.0, 4.0, size=(3, 4)))
        indicator = rng.integers(0, 3, size=(3, 4)).astype(np.float64)
        self._check(lambda: ad.scale(ad.bag_nll(a, indicator), 0.7), [a])

    def test_softplus(self):
        """``bag_nll``'s softplus(-s) = -log sigmoid(s) on a 0/1 bag, at
        scores of both signs on bag words."""
        a = parameter(np.array([[-3.5, 2.0, -0.7, 1.2], [0.4, -2.6, 3.1, -1.9]]))
        indicator = np.array([[1.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]])
        self._check(lambda: ad.scale(ad.bag_nll(a, indicator), 0.7), [a])

    @pytest.mark.parametrize("absent", [False])
    def test_bag_nll_matches_the_node_by_node_arithmetic(self, absent):
        """Value and gradient are the bits of the separate scale, softplus,
        mul and sum_all nodes that used to compute the bag loss, in
        their operation order, on random cases with scores up to 40 and
        1000 in magnitude."""
        rng = np.random.default_rng(36)
        for case in range(40):
            batch, vocab = int(rng.integers(1, 5)), int(rng.integers(1, 9))
            spread = (40.0, 1000.0)[case % 2]
            s = rng.uniform(-spread, spread, size=(batch, vocab))
            indicator = rng.integers(0, 3, size=(batch, vocab)).astype(np.float64)
            upstream = float(rng.uniform(0.1, 2.0))
            want_value, want_grad = bag_nll_reference(s, indicator, upstream)
            scores = parameter(s)
            node = ad.bag_nll(scores, indicator)
            backward(ad.scale(node, upstream))
            np.testing.assert_array_equal(node.value, want_value)
            np.testing.assert_array_equal(scores.grad, want_grad)

    def test_generator_losses_with_padding(self):
        """T=5 steps of B=2 rows; row t*B + b is step t of sentence b.  The
        word loss and an upstream on the bag against finite differences;
        masked steps neither cost nor give x a gradient."""
        rng = np.random.default_rng(32)
        x = parameter(rng.normal(size=(10, 3)))
        w = parameter(rng.normal(size=(3, 6)))
        bias = parameter(rng.normal(size=(1, 6)))
        targets = np.array([[1, 4, 0, 5, 2], [3, 3, 2, 0, 1]])
        mask = np.array([[1.0, 1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0, 0.0]])
        upstream = constant(rng.normal(size=(2, 6)))

        def build():
            word, bag = ad.generator_losses(x, w, bias, targets, mask, every_column(2, 6))
            return ad.add(ad.scale(word, 0.7), ad.sum_all(ad.mul(bag, upstream)))

        self._check(build, [x, w, bias])
        np.testing.assert_array_equal(x.grad[[5, 7, 8, 9]], 0.0)
        scores = x.value @ w.value + bias.value
        probs = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
        want = -sum(np.log(probs[t * 2 + b, targets[b, t]])
                    for b in range(2) for t in range(5) if mask[b, t]) / 2
        word, bag = ad.generator_losses(x, w, bias, targets, mask, every_column(2, 6))
        np.testing.assert_allclose(word.value, want, rtol=0, atol=1e-12)
        summed = sum(scores[2 * t : 2 * t + 2] * mask[:, t : t + 1] for t in range(5))
        np.testing.assert_allclose(bag.value, summed, rtol=0, atol=1e-12)

    def test_generator_losses_adopts_a_released_weight_gradient(self):
        """One chunk into a weight that holds no gradient allocates one (H, V)
        array, the gradient itself: no zero fill and no scratch copy."""
        hidden, vocab = 4, 200_000
        rng = np.random.default_rng(35)
        x = parameter(rng.normal(size=(1, hidden)))
        w = parameter(rng.normal(size=(hidden, vocab)) * 0.01)
        bias = parameter(np.zeros((1, vocab)))
        word, _ = ad.generator_losses(x, w, bias, np.array([[3]]), np.ones((1, 1)),
                                      np.zeros((1, 0), dtype=int))
        tracemalloc.start()
        try:
            backward(word)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w._grad is not None
        assert peak < 2 * hidden * vocab * 8

    def test_generator_losses_rejects_bad_targets(self):
        """Targets and bag columns alike: shapes, integer type, range."""
        x, w = constant(np.zeros((4, 2))), constant(np.zeros((2, 3)))
        bias = constant(np.zeros((1, 3)))
        targets, mask, columns = np.zeros((2, 2), dtype=int), np.ones((2, 2)), np.ones((2, 1), int)
        with pytest.raises(ShapeError, match="generator_losses"):
            ad.generator_losses(x, w, bias, np.zeros((2, 3), dtype=int), np.ones((2, 3)), columns)
        for bad in (np.ones((3, 1), int), np.ones(2, int)):
            with pytest.raises(ShapeError, match="generator_losses"):
                ad.generator_losses(x, w, bias, targets, mask, bad)
        with pytest.raises(IndexError, match="target index out of range"):
            ad.generator_losses(x, w, bias, np.full((2, 2), 3), mask, columns)
        for bad in (-1, 3):
            with pytest.raises(IndexError, match="bag column out of range"):
                ad.generator_losses(x, w, bias, targets, mask, np.full((2, 1), bad))
        with pytest.raises(ValueError, match="integers"):
            ad.generator_losses(x, w, bias, np.zeros((2, 2)), mask, columns)
        with pytest.raises(ValueError, match="integers"):
            ad.generator_losses(x, w, bias, targets, mask, np.ones((2, 1)))

    def test_generator_losses_bag_columns_match_the_dense_oracle(self):
        """Packed bag columns against ``dense_generator_oracle``, the V-wide
        fold and spread with ``bag_nll`` on the dense (B, V) indicator:
        x, weight and bias get the same gradients bit for bit, and the bag
        values equal the oracle's at the columns, PAD slots included.
        Padded targets of unequal lengths and bag sizes, one bag empty, over
        6 steps."""
        rng = np.random.default_rng(37)
        vocab, hidden = 40, 5
        pairs = [ExamplePair((4,), tgt + (EOS,), extract_bag(tgt))
                 for tgt in [(5, 9, 9, 30, 12), (), (7, 39), (20, 21, 22, 23, 24)]]
        batch = pack_batch(pairs, vocab)
        steps = batch.target.shape[1]
        dense = np.zeros((len(pairs), vocab))
        for i, pair in enumerate(pairs):
            dense[i, list(pair.bag)] = 1.0
        x0 = rng.normal(size=(steps * len(pairs), hidden))
        w0, b0 = rng.normal(size=(hidden, vocab)), rng.normal(size=(1, vocab))
        x, w, bias = parameter(x0), parameter(w0), parameter(b0)
        word, bag = ad.generator_losses(x, w, bias, batch.target, batch.target_mask,
                                        batch.bag_columns)
        backward(ad.add(word, ad.scale(ad.bag_nll(bag, batch.bag_indicator), 0.7)))
        want_bag, want_grads = dense_generator_oracle(x0, w0, b0, batch.target,
                                                      batch.target_mask, dense, 0.7, steps)
        assert batch.bag_columns.shape == (4, 5) and batch.bag_indicator.sum() == 11
        np.testing.assert_array_equal(
            bag.value, np.take_along_axis(want_bag, batch.bag_columns, axis=1))
        for got, want in zip((x.grad, w.grad, bias.grad), want_grads):
            np.testing.assert_array_equal(got, want)

    def test_embedding_scatter_adds_repeated_rows(self):
        table = parameter(np.random.default_rng(6).normal(size=(5, 3)))
        idx = np.array([1, 1, 4])
        def build():
            rows = ad.embedding_lookup(table, idx)
            return ad.sum_all(ad.mul(rows, rows))

        self._check(build, [table])
        backward(ad.sum_all(ad.embedding_lookup(table, idx)))

    def test_pick_and_concat_rows_cols(self):
        """Rows are stacked by gathering them from one table: rows 0-2 are a
        block a and rows 3-4 a block b, stacked as [a, b, a], [b, a, a] and
        [a, a, b]."""
        table = parameter(np.random.default_rng(7).normal(size=(5, 4)))
        aba, baa, aab = np.array([[0, 1, 2, 3, 4, 0, 1, 2], [3, 4, 0, 1, 2, 0, 1, 2],
                                  [0, 1, 2, 0, 1, 2, 3, 4]])
        picks = np.array([0, 2, 3, 1, 0, 3, 2, 1]).reshape(4, 2).T  # T=4 steps of B=2 rows

        def build():
            stacked = ad.embedding_lookup(table, aba)
            picked, _ = score_losses(stacked, picks, np.ones((2, 4)))
            joined = ad.concat_cols([stacked, ad.mul(stacked, stacked)])
            swapped = ad.concat_cols([ad.embedding_lookup(table, baa),
                                      ad.embedding_lookup(table, aab)])
            spread = ad.sum_all(ad.mul(joined, swapped))
            return ad.add(spread, picked)

        self._check(build, [table])

    def test_lstm_cell_two_steps_with_pad_rows(self):
        rng = np.random.default_rng(14)
        x = parameter(rng.normal(size=(2 * 3, 3)))  # T=2, B=3, E=3, H=2
        w_in, bias = parameter(rng.normal(size=(3, 8))), parameter(rng.normal(size=(1, 8)))
        h0 = parameter(rng.normal(size=(3, 2)))
        c0 = parameter(rng.normal(size=(3, 2)))
        w_rec = parameter(rng.normal(size=(2, 8)))
        mask = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        gh, gc = constant(rng.normal(size=(3, 2))), constant(rng.normal(size=(3, 2)))

        def build():
            _, h, c = ad.lstm_scan(x, w_in, bias, h0, c0, w_rec, mask)
            return ad.add(ad.sum_all(ad.mul(h, gh)), ad.sum_all(ad.mul(c, gc)))

        self._check(build, [x, w_in, bias, h0, c0, w_rec])

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("reads", ["all", "outputs", "h", "c"])
    def test_lstm_scan_with_trailing_padding(self, reverse, reads):
        """T=4 steps of B=3 rows with trailing PAD, walked in either
        direction, against finite differences.  An upstream sits on the
        outputs, h' and c', or on one of them alone, so that the rule of c'
        also runs when a child handing it a gradient is not in the graph."""
        rng = np.random.default_rng(35)
        x = parameter(rng.normal(size=(4 * 3, 3)))  # T=4, B=3, E=3, H=2
        w_in, bias = parameter(rng.normal(size=(3, 8))), parameter(rng.normal(size=(1, 8)))
        h0 = parameter(rng.normal(size=(3, 2)))
        c0 = parameter(rng.normal(size=(3, 2)))
        w_rec = parameter(rng.normal(size=(2, 8)))
        mask = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        upstream = [constant(rng.normal(size=s)) for s in ((12, 2), (3, 2), (3, 2))]

        def build():
            nodes = ad.lstm_scan(x, w_in, bias, h0, c0, w_rec, mask, reverse=reverse)
            parts = [ad.sum_all(ad.mul(n, g)) for n, g in zip(nodes, upstream)]
            if reads != "all":
                return parts[["outputs", "h", "c"].index(reads)]
            return ad.add(ad.add(parts[0], parts[1]), parts[2])

        self._check(build, [x, w_in, bias, h0, c0, w_rec])

    def test_attention_weights_and_context_with_masked_positions(self):
        """``attention`` computes the weights and the contexts in one node:
        the gradients of the queries, the bilinear matrix and the memory
        through both, with a masked position."""
        rng = np.random.default_rng(15)
        query = parameter(rng.normal(size=(3 * 2, 4)))   # T=3, B=2, H=4
        bilinear = parameter(rng.normal(size=(4, 4)))
        memory = parameter(rng.normal(size=(3 * 2, 4)))  # L=3
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        gc = constant(rng.normal(size=(6, 4)))
        self._check(lambda: ad.sum_all(ad.mul(ad.attention(query, bilinear, memory, mask), gc)),
                    [query, bilinear, memory])

    def test_attention_chunks_match_one_chunk(self, monkeypatch):
        """Chunking the forward's products moves no bit: the contexts and
        the gradients of the queries, the bilinear matrix and the memory are
        the same at one chunk of T=5 steps and at chunks of 1 and 2 steps."""
        rng = np.random.default_rng(16)
        batch, length, hidden, steps = 3, 4, 6, 5
        query = parameter(rng.normal(size=(steps * batch, hidden)))
        bilinear = parameter(rng.normal(size=(hidden, hidden)))
        memory = parameter(rng.normal(size=(length * batch, hidden)))
        mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        upstream = constant(rng.normal(size=(steps * batch, hidden)))

        def run(span):
            monkeypatch.setattr(ad, "_SCORE_BUDGET", span * batch * length * hidden)
            for p in (query, bilinear, memory):
                p.grad = None
            context = ad.attention(query, bilinear, memory, mask)
            backward(ad.sum_all(ad.mul(context, upstream)))
            return [context.value] + [p.grad for p in (query, bilinear, memory)]

        one = run(steps)
        for span in (1, 2):
            for whole, chunked in zip(one, run(span)):
                np.testing.assert_array_equal(chunked, whole)


class TestBackwardSemantics:
    def test_scaled_root_scales_gradients_linearly(self):
        a = parameter(np.array([[0.3, -0.2], [0.1, 0.7]]))
        indicator = np.array([[1.0, 0.0], [0.0, 1.0]])
        backward(ad.bag_nll(a, indicator))
        base = a.grad.copy()
        a.grad = None
        backward(ad.scale(ad.bag_nll(a, indicator), 3.5))
        np.testing.assert_allclose(a.grad, 3.5 * base, rtol=0, atol=1e-12)

    def test_two_roots_accumulate_into_shared_leaf(self):
        a = parameter(np.array([[1.0, -1.0]]))

        def r1():
            return ad.sum_all(ad.mul(a, a))

        def r2():
            return ad.bag_nll(a, np.array([[1.0, 1.0]]))

        backward(r1())
        g1 = a.grad.copy()
        a.grad = None
        backward(r2())
        g2 = a.grad.copy()
        a.grad = None
        backward(r1())
        backward(r2())
        np.testing.assert_allclose(a.grad, g1 + g2, atol=1e-15)

    def test_backward_refuses_a_used_graph(self):
        """A graph is backpropagated once.  A second pass over the same root,
        a root built on a node that was already backpropagated, and a retry
        after a rule raised mid-pass each raise before any rule runs, and
        leave every leaf gradient as it was."""
        rng = np.random.default_rng(38)
        a, b = parameter(rng.normal(size=(2, 2))), parameter(rng.normal(size=(2, 2)))

        def refused(root):
            before = [a.grad.copy(), b.grad.copy()]
            with pytest.raises(ValueError, match="already backpropagated"):
                backward(root)
            for leaf, grad in zip((a, b), before):
                np.testing.assert_array_equal(leaf.grad, grad)

        product = ad.mul(a, b)
        root = ad.sum_all(product)
        backward(root)
        refused(root)
        # The new root's own rules would reach a, so none of them may run.
        refused(ad.add(ad.sum_all(ad.mul(a, a)), ad.scale(ad.sum_all(product), 2.0)))

        a.grad, b.grad = None, np.zeros((2, 2))
        b.grad.flags.writeable = False
        root = ad.add(ad.sum_all(ad.mul(a, a)), ad.sum_all(ad.mul(b, b)))
        with pytest.raises(ValueError, match="read-only"):
            backward(root)
        refused(root)

    def test_backward_requires_scalar_root(self):
        a = parameter(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            backward(ad.scale(a, 2.0))

    def test_constants_never_collect_gradients(self):
        a, c = parameter(np.ones((2, 2))), constant(np.ones((2, 2)))
        backward(ad.sum_all(ad.mul(a, c)))
        np.testing.assert_array_equal(c.grad, np.zeros((2, 2)))

    def test_gradient_shape_always_matches_value(self):
        a = parameter(np.ones((3, 2)))
        out = ad.affine(a, constant(np.ones((2, 5))), constant(np.ones((1, 5))))
        for node in (a, out):
            assert node.grad.shape == node.value.shape

    def test_forward_determinism_same_inputs(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 3))  # T=2 steps and L=2 positions of B=2 rows
        mask = np.ones((2, 2))
        first = ad.attention(constant(x), constant(x[:3]), constant(x), mask).value
        second = ad.attention(constant(x), constant(x[:3]), constant(x), mask).value
        np.testing.assert_array_equal(first, second)


class TestGraphLifetime:
    @staticmethod
    def _small_model_batch():
        """A 2/2-layer concat model with dropout and a batch with padded rows."""
        config = ModelConfig(src_vocab_size=12, tgt_vocab_size=12, emb_size=4, hidden_size=5,
                             enc_layers=2, dec_layers=2, dropout=0.3,
                             generator_input="concat")
        rng = np.random.default_rng(3)
        model = Seq2SeqModel(config, init_rng=rng)
        pairs = []
        for n in (2, 4, 3):
            src = tuple(int(t) for t in rng.integers(4, 12, size=n))
            tgt = tuple(int(t) for t in rng.integers(4, 12, size=n + 1)) + (EOS,)
            pairs.append(ExamplePair(src, tgt, extract_bag(tgt)))
        (batch,) = make_batches(pairs, 3, 12, seed=0)
        return model, batch, rng

    def test_training_batch_graph_is_freed_without_the_cycle_collector(self):
        """Graphs are acyclic, so reference counting alone frees a training
        batch's graph, dropout and padded rows included."""
        model, batch, rng = self._small_model_batch()
        gc.collect()
        gc.disable()
        try:
            forward = model.forward_teacher_forced(batch, train=True, rng=rng)
            word = word_loss(forward)
            loss = total_loss(word, bag_loss(forward.bag_scores, batch.bag_indicator), 0.5)
            backward(loss)
            del forward, word, loss
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0

    def test_backward_keeps_leaf_gradients_only(self):
        """Every interior gradient and rule is dropped once the rule has run,
        the hand-overs of the LSTM scans and the generator included, while
        every parameter keeps its gradient."""
        model, batch, rng = self._small_model_batch()
        forward = model.forward_teacher_forced(batch, train=True, rng=rng)
        loss = total_loss(word_loss(forward), bag_loss(forward.bag_scores, batch.bag_indicator),
                          0.5)
        backward(loss)
        seen, stack, interior = {id(loss)}, [loss], 0
        while stack:
            node = stack.pop()
            if node.parents:
                interior += 1
                assert node._grad is None and node._backward is None, node
            for parent in node.parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        assert interior > 20
        for name, node in model.params.items():
            assert node._grad is not None and np.any(node._grad != 0.0), name

    def test_lstm_scan_frees_tz_after_its_backward_rule(self):
        """A layer keeps its (T*B, 4H) tz only until its backward rule has
        turned it into the slope.  With the scan's nodes alive and every
        leaf gradient allocated beforehand, the traced memory falls by at
        least tz's 4H floats per row and step across the first pass and the
        loss's release; the loss's product alone frees H, and a few hundred
        bytes of interpreter state come and go."""
        steps, batch, hidden = 20, 16, 128
        rng = np.random.default_rng(37)
        shapes = ((steps * batch, hidden), (hidden, 4 * hidden), (1, 4 * hidden),
                  (batch, hidden), (batch, hidden), (hidden, 4 * hidden))
        leaves = [parameter(rng.uniform(-0.1, 0.1, s)) for s in shapes]
        upstream = constant(rng.normal(size=(steps * batch, hidden)))

        def scan_loss():
            outputs, h, c = ad.lstm_scan(*leaves)
            return ad.sum_all(ad.mul(outputs, upstream)), (outputs, h, c)

        backward(scan_loss()[0])  # caches and worker threads start outside the trace
        tracemalloc.start()
        try:
            loss, nodes = scan_loss()
            before, _ = tracemalloc.get_traced_memory()
            backward(loss)
            del loss
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nodes[0].value.shape == (steps * batch, hidden)
        assert before - after >= 4 * hidden * 8 * steps * batch


class TestGraphStructure:
    @staticmethod
    def _node_count(root):
        """Nodes reachable from ``root`` through ``Node.parents``."""
        seen, stack = {id(root)}, [root]
        while stack:
            for parent in stack.pop().parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        return len(seen)

    @pytest.mark.parametrize("variant", ["paper"])
    def test_a4_shape_training_loss_is_36_nodes(self, variant):
        """A training loss of the A4 configuration (concat, 1/1 layers,
        E=H=64, B=32, no dropout) is 36 nodes:
        each LSTM layer and direction is three nodes over its input and
        parameters, attention is one node over (query, bilinear, memory)
        and the bag loss one node over the bag."""
        config = ModelConfig(src_vocab_size=24, tgt_vocab_size=24, emb_size=64, hidden_size=64,
                             enc_layers=1, dec_layers=1, dropout=0.0, generator_input="concat")
        rng = np.random.default_rng(7)
        model = Seq2SeqModel(config, init_rng=rng)
        pairs = []
        for n in rng.integers(5, 11, size=32):
            src = tuple(int(t) for t in rng.integers(4, 24, size=n))
            tgt = tuple(reversed(src)) + (EOS,)
            pairs.append(ExamplePair(src, tgt, extract_bag(tgt)))
        (batch,) = make_batches(pairs, 32, 24, seed=0)
        forward = model.forward_teacher_forced(batch, train=True, rng=rng)
        bag = bag_loss(forward.bag_scores, batch.bag_indicator)
        assert len(bag.parents) == 1 and bag.parents[0] is forward.bag_scores
        assert self._node_count(total_loss(word_loss(forward), bag, 0.1)) == 36

        encoded = model.encode(batch.source, batch.source_mask)
        query = constant(rng.normal(size=(batch.target.size, 64)))
        context = model.attend(query, encoded)
        assert [id(p) for p in context.parents] == [
            id(query), id(model.params["attn.bilinear"]), id(encoded.memory)]


class TestParameterStore:
    def test_insertion_order_preserved(self):
        store = ParameterStore()
        for name in ("w", "b", "u"):
            store.create(name, np.zeros((1, 1)))
        assert store.names() == ["w", "b", "u"]

    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.create("w", np.zeros((1, 1)))
        with pytest.raises(ValueError, match="duplicate"):
            store.create("w", np.ones((1, 1)))

    def test_zero_gradients_clears_all(self):
        store = ParameterStore()
        w = store.create("w", np.ones((2, 2)))
        backward(ad.sum_all(ad.mul(w, w)))
        assert np.any(w.grad != 0)
        store.zero_gradients()
        assert all(node._grad is None for _, node in store.items())
        np.testing.assert_array_equal(w.grad, np.zeros((2, 2)))

    def test_reading_a_missing_gradient_stores_nothing(self):
        """Before backward a gradient reads as a read-only zero view of the
        value's shape and size, so a walk that reads every node's gradient
        allocates none."""
        w = parameter(np.ones((3, 4)))
        g = w.grad
        assert w._grad is None and not g.flags.writeable
        assert g.shape == (3, 4) and g.nbytes == w.value.nbytes
        np.testing.assert_array_equal(g, 0.0)


class TestFiniteDifferenceHarness:
    def test_linear_loss_exact(self):
        store = ParameterStore()
        w = store.create("w", np.array([[1.0, -2.0, 0.5]]))
        x = constant(np.array([[3.0], [1.0], [-1.0]]))
        bias = constant(np.array([[0.5]]))
        report = finite_difference_check(
            lambda s: ad.sum_all(ad.affine(s["w"], x, bias)), store, step=1e-5, tolerance=1e-10
        )
        assert report.passed and report.max_rel_error < 1e-10

    def test_empty_store_passes_vacuously(self):
        report = finite_difference_check(
            lambda s: ad.sum_all(constant(np.ones((1, 1)))), ParameterStore()
        )
        assert report.passed and report.checks == []

    def test_composite_of_all_primitives(self):
        """Composite touching every primitive, step 1e-5, rel 1e-6."""
        rng = np.random.default_rng(1234)
        store = ParameterStore()
        store.create("table", rng.normal(0.0, 1.0, size=(6, 4)))
        store.create("w1", rng.normal(0.0, 0.3, size=(4, 8)))
        store.create("b1", rng.normal(0.0, 1.0, size=(1, 8)))
        store.create("w_rec", rng.normal(0.0, 1.0, size=(2, 8)))
        store.create("bilinear", rng.normal(0.0, 1.0, size=(2, 2)))
        store.create("w2", rng.normal(0.0, 1.0, size=(4, 5)))
        store.create("b2", rng.normal(0.0, 1.0, size=(1, 5)))
        store.create("w3", np.linspace(-1.0, 1.0, 25).reshape(5, 5))
        store.create("b3", np.linspace(-0.5, 0.5, 5).reshape(1, 5))
        idx = np.array([0, 3, 5, 1, 2, 2])   # T=3 steps of B=2 rows
        picks = np.array([[1, 3, 2], [0, 4, 0]])  # (B, T) gold columns
        steps = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        bag_words = np.array([[0.0, 1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0, 1.0]])
        drop = ad.make_dropout_mask(np.random.default_rng(99), (6, 4), 0.25)
        h0, c0 = constant(rng.normal(size=(2, 2))), constant(rng.normal(size=(2, 2)))

        def loss(s):
            x = ad.dropout(ad.embedding_lookup(s["table"], idx), drop)
            memory, _, _ = ad.lstm_scan(x, s["w1"], s["b1"], h0, c0, s["w_rec"], steps)
            context = ad.attention(memory, s["bilinear"], memory, steps)
            hidden = ad.concat_cols([memory, context])
            features = ad.affine(hidden, s["w2"], s["b2"])
            nll, bag = ad.generator_losses(features, s["w3"], s["b3"], picks, steps,
                                           every_column(2, 5))
            spread = ad.add(ad.bag_nll(bag, bag_words), ad.sum_all(ad.mul(bag, bag)))
            return ad.add(ad.add(nll, ad.scale(spread, 0.5)), constant(np.asarray(0.25)))

        report = finite_difference_check(loss, store, step=1e-5, tolerance=1e-6)
        assert report.passed, "\n" + report.format()
