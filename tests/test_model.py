"""Model tests: scalar-loop oracles for the LSTM cell and attention,
padding neutrality, the bag-probability reduction, and checkpoint I/O."""

import errno
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bowseq import autodiff as ad
from bowseq.autodiff import ParameterStore, constant, parameter
from bowseq.data import BOS, EOS, Batch
from bowseq.model import (
    LstmCell,
    ModelConfig,
    Seq2SeqModel,
    bow_probabilities,
    load_checkpoint,
    save_checkpoint,
)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def softmax(scores):
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def lstm_step_oracle(x, h, c, w_in, w_rec, bias):
    """Scalar-loop LSTM step; gate order [input, forget, cell, output]."""
    batch, hidden = h.shape
    h_new = np.zeros_like(h)
    c_new = np.zeros_like(c)
    for b in range(batch):
        z = np.zeros(4 * hidden)
        for j in range(4 * hidden):
            acc = bias[0, j]
            for k in range(x.shape[1]):
                acc += x[b, k] * w_in[k, j]
            for k in range(hidden):
                acc += h[b, k] * w_rec[k, j]
            z[j] = acc
        for j in range(hidden):
            i = sigmoid(z[j])
            f = sigmoid(z[hidden + j])
            g = np.tanh(z[2 * hidden + j])
            o = sigmoid(z[3 * hidden + j])
            c_new[b, j] = f * c[b, j] + i * g
            h_new[b, j] = o * np.tanh(c_new[b, j])
    return h_new, c_new


def attention_oracle(q, states, w):
    """Scalar-loop bilinear-tanh attention for one batch row set."""
    batch, hidden = q.shape
    length = len(states)
    weights = np.zeros((batch, length))
    context = np.zeros((batch, hidden))
    for b in range(batch):
        scores = []
        for i in range(length):
            e = 0.0
            for a in range(hidden):
                for d in range(hidden):
                    e += q[b, a] * w[a, d] * states[i][b, d]
            scores.append(np.tanh(e))
        exps = [np.exp(s - max(scores)) for s in scores]
        total = sum(exps)
        for i in range(length):
            weights[b, i] = exps[i] / total
            for d in range(hidden):
                context[b, d] += weights[b, i] * states[i][b, d]
    return weights, context


def attention_weights(model, query, encoded):
    """The (T*B, L) weights behind ``model.attend``: the attention kernel
    on the projected queries."""
    _, weights, _ = ad.attention_forward(query.value @ model.attn_bilinear.value,
                                         *ad.attention_layout(encoded.memory.value, encoded.mask))
    return weights.reshape(query.value.shape[0], -1)


def position(encoded, t):
    """Encoder states of source position t, one row per sentence."""
    batch = encoded.mask.shape[0]
    return encoded.memory.value[t * batch : (t + 1) * batch]


def start(model, source, mask=None):
    """``start_decoding`` of a 2-d source, every position real unless ``mask``."""
    source = np.asarray(source)
    return model.start_decoding(source, np.ones(source.shape) if mask is None else mask)


def tiny_model(seed=0, **overrides):
    defaults = dict(src_vocab_size=11, tgt_vocab_size=13, emb_size=5, hidden_size=6,
                    enc_layers=1, dec_layers=1, dropout=0.0)
    defaults.update(overrides)
    rng = np.random.default_rng(seed)
    return Seq2SeqModel(ModelConfig(**defaults), init_rng=rng), rng


def toy_batch(model, rng, batch_size=3, src_len=4, tgt_len=5):
    cfg = model.config
    source = rng.integers(4, cfg.src_vocab_size, size=(batch_size, src_len))
    content = rng.integers(4, cfg.tgt_vocab_size, size=(batch_size, tgt_len - 1))
    target = np.concatenate([content, np.full((batch_size, 1), EOS)], axis=1)
    indicator = np.zeros((batch_size, cfg.tgt_vocab_size))
    for i in range(batch_size):
        for w in set(int(t) for t in target[i] if t > EOS):
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


class TestLstmCell:
    def test_step_matches_scalar_oracle(self):
        rng = np.random.default_rng(21)
        store = ParameterStore()
        cell = LstmCell(store, "cell", 3, 4, lambda s: rng.uniform(-0.5, 0.5, s))
        x = rng.normal(size=(2, 3))
        h = rng.normal(size=(2, 4))
        c = rng.normal(size=(2, 4))
        _, got_h, got_c = cell.step(constant(x), constant(h), constant(c))
        want_h, want_c = lstm_step_oracle(
            x, h, c, cell.w_in.value, cell.w_rec.value, cell.bias.value
        )
        np.testing.assert_allclose(got_h.value, want_h, atol=1e-12)
        np.testing.assert_allclose(got_c.value, want_c, atol=1e-12)

    def test_forget_bias_starts_shifted(self):
        store = ParameterStore()
        cell = LstmCell(store, "cell", 2, 3, lambda s: np.zeros(s))
        bias = cell.bias.value[0]
        np.testing.assert_array_equal(bias[3:6], np.ones(3))
        np.testing.assert_array_equal(bias[:3], np.zeros(3))
        np.testing.assert_array_equal(bias[6:], np.zeros(6))

    def test_masked_step_keeps_previous_state(self):
        rng = np.random.default_rng(22)
        store = ParameterStore()
        cell = LstmCell(store, "cell", 2, 3, lambda s: rng.uniform(-0.5, 0.5, s))
        h = constant(rng.normal(size=(2, 3)))
        c = constant(rng.normal(size=(2, 3)))
        x = constant(rng.normal(size=(2, 2)))
        _, h_new, c_new = cell.step(x, h, c, np.array([[1.0], [0.0]]))
        np.testing.assert_array_equal(h_new.value[1], h.value[1])
        np.testing.assert_array_equal(c_new.value[1], c.value[1])
        assert not np.allclose(h_new.value[0], h.value[0])

    def test_step_keeps_under_seven_floats_per_hidden_unit_and_row_step(self):
        """A layer's forward keeps the tz, c and h of every step, 6H floats
        per row and step; with its nodes, it keeps under 7H.  The gates,
        tanh(c) and a separate projection would take 15H."""
        steps, batch, hidden = 20, 16, 128
        rng = np.random.default_rng(24)
        cell = LstmCell(ParameterStore(), "cell", hidden, hidden,
                        lambda s: rng.uniform(-0.1, 0.1, s))
        x = parameter(rng.normal(size=(steps * batch, hidden)))
        h, c = constant(np.zeros((batch, hidden))), constant(np.zeros((batch, hidden)))
        cell.step(x, h, c)  # caches and worker threads start outside the trace
        tracemalloc.start()
        try:
            nodes = cell.step(x, h, c)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nodes[0].shape == (steps * batch, hidden)
        assert kept <= 7 * hidden * 8 * steps * batch


class TestEncoder:
    def test_states_are_sum_of_directions(self):
        """Zeroing the backward weights leaves h_t equal to the forward output."""
        model, rng = tiny_model(seed=3)
        for name, node in model.params.items():
            if ".bwd." in name:
                node.value[...] = 0.0
        src = rng.integers(4, 11, size=(2, 4))
        full = model.encode(src)
        bwd_h, bwd_c = full.finals[0][1]
        np.testing.assert_array_equal(bwd_h.value, np.zeros((2, 6)))
        np.testing.assert_array_equal(bwd_c.value, np.zeros((2, 6)))

    def test_single_position_source(self):
        model, rng = tiny_model(seed=4)
        enc = model.encode(np.array([[7]]))
        assert enc.mask.shape[1] == 1
        (fh, _), (bh, _) = enc.finals[0]
        np.testing.assert_allclose(enc.memory.value, fh.value + bh.value, atol=1e-15)

    def test_padding_neutral_for_unpadded_rows(self):
        model, rng = tiny_model(seed=5)
        short = np.array([[4, 5, 6]])
        longer = np.array([[4, 5, 6, 0, 0]])
        mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
        solo = model.encode(short)
        padded = model.encode(longer, mask)
        for t in range(3):
            np.testing.assert_allclose(
                position(padded, t), position(solo, t), atol=1e-10
            )
        np.testing.assert_allclose(
            padded.finals[0][0][0].value, solo.finals[0][0][0].value, atol=1e-10
        )
        np.testing.assert_allclose(
            padded.finals[0][1][0].value, solo.finals[0][1][0].value, atol=1e-10
        )

    def test_batched_row_matches_unbatched(self):
        model, rng = tiny_model(seed=6)
        a = np.array([4, 5, 6, 7])
        b = np.array([8, 9])
        src = np.array([[4, 5, 6, 7], [8, 9, 0, 0]])
        mask = np.array([[1.0, 1, 1, 1], [1, 1, 0, 0]])
        both = model.encode(src, mask)
        solo = model.encode(b[None, :])
        for t in range(2):
            np.testing.assert_allclose(
                position(both, t)[1], position(solo, t)[0], atol=1e-10
            )

    def test_stacked_layers_consume_summed_outputs(self):
        model, rng = tiny_model(seed=7, enc_layers=2, dec_layers=2)
        enc = model.encode(np.array([[4, 5, 6]]))
        assert len(enc.finals) == 2
        assert position(enc, 0).shape == (1, 6)


class TestAttention:
    def test_matches_scalar_oracle(self):
        model, rng = tiny_model(seed=8)
        enc = model.encode(rng.integers(4, 11, size=(2, 3)))
        q = constant(rng.normal(size=(2, 6)))
        context = model.attend(q, enc)
        states = [position(enc, i) for i in range(enc.mask.shape[1])]
        want_w, want_c = attention_oracle(q.value, states, model.attn_bilinear.value)
        np.testing.assert_allclose(attention_weights(model, q, enc), want_w, atol=1e-10)
        np.testing.assert_allclose(context.value, want_c, atol=1e-10)

    def test_identical_states_give_uniform_weights(self):
        model, rng = tiny_model(seed=9)
        h = constant(rng.normal(size=(2, 6)))
        enc = model.encode(np.array([[4, 4, 4], [4, 4, 4]]))
        enc.memory = constant(np.vstack([h.value] * 3))
        q = constant(rng.normal(size=(2, 6)))
        np.testing.assert_allclose(attention_weights(model, q, enc), np.full((2, 3), 1 / 3),
                                   atol=1e-12)
        np.testing.assert_allclose(model.attend(q, enc).value, h.value, atol=1e-12)

    def test_context_is_convex_combination(self):
        model, rng = tiny_model(seed=10)
        enc = model.encode(rng.integers(4, 11, size=(2, 5)))
        q = constant(rng.normal(size=(2, 6)))
        w = attention_weights(model, q, enc)
        assert np.all(w >= 0) and np.all(w <= 1)
        np.testing.assert_allclose(w.sum(axis=1), [1.0, 1.0], atol=1e-12)
        recombined = sum(
            w[:, i : i + 1] * position(enc, i) for i in range(enc.mask.shape[1])
        )
        np.testing.assert_allclose(model.attend(q, enc).value, recombined, atol=1e-12)

    def test_masked_positions_get_zero_weight(self):
        model, rng = tiny_model(seed=11)
        mask = np.array([[1.0, 1.0, 0.0]])
        enc = model.encode(np.array([[4, 5, 0]]), mask)
        assert attention_weights(model, constant(rng.normal(size=(1, 6))), enc)[0, 2] == 0.0


class TestDecoder:
    def test_zero_generator_gives_uniform_words(self):
        model, rng = tiny_model(seed=12)
        model.gen_weight.value[...] = 0.0
        model.gen_bias.value[...] = 0.0
        memory, state = start(model, [[4, 5]])
        out = model.decode_step(np.array([BOS]), state, memory)
        np.testing.assert_allclose(softmax(out.scores), np.full((1, 13), 1 / 13), atol=1e-12)

    def test_large_bias_concentrates_mass(self):
        model, rng = tiny_model(seed=13)
        model.gen_bias.value[0, 7] = 50.0
        memory, state = start(model, [[4, 5]])
        out = model.decode_step(np.array([BOS]), state, memory)
        assert softmax(out.scores)[0, 7] > 0.999

    def test_state_advances_between_steps(self):
        model, rng = tiny_model(seed=14)
        memory, state = start(model, [[4, 5, 6]])
        out1 = model.decode_step(np.array([BOS]), state, memory)
        out2 = model.decode_step(np.array([4]), out1.state, memory)
        assert not np.allclose(out1.state.layers[0][0], out2.state.layers[0][0])

    def test_decode_step_leaves_its_inputs_alone(self):
        """Two steps from the same inputs give the same scores and states,
        and neither writes into the state, the encoder's attention memory or
        a parameter."""
        model, rng = tiny_model(seed=17, enc_layers=2, dec_layers=2, generator_input="concat")
        memory, state = start(model, [[4, 5, 6], [7, 8, 0]], np.array([[1.0, 1, 1], [1, 1, 0]]))
        prev = np.array([BOS, 5])

        def inputs():
            return ([a.copy() for layer in state.layers for a in layer]
                    + [a.copy() for a in memory]
                    + [node.value.copy() for _, node in model.params.items()])

        before = inputs()
        first = model.decode_step(prev, state, memory)
        second = model.decode_step(prev, state, memory)
        np.testing.assert_array_equal(first.scores, second.scores)
        for a, b in zip(first.state.layers, second.state.layers):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(before, inputs(), strict=True):
            np.testing.assert_array_equal(a, b)

    def test_out_of_range_previous_token_rejected(self):
        model, rng = tiny_model(seed=14)
        memory, state = start(model, [[4, 5, 6]])
        for prev in (-1, 13):
            with pytest.raises(IndexError, match="out of range"):
                model.decode_step(np.array([prev]), state, memory)

    def test_concat_variant_changes_generator_input_width(self):
        model, _ = tiny_model(seed=15, generator_input="concat")
        assert model.gen_weight.value.shape == (12, 13)

    @pytest.mark.parametrize("layers, generator_input, sources", [
        ((1, 1), "context", [[7]]),
        ((3, 2), "context", [[4, 5, 6, 7], [8, 9, 0, 0], [10, 0, 0, 0]]),
        ((3, 2), "concat", [[4], [5]]),
        ((2, 2), "concat", [[4, 5, 6], [7, 8, 0]]),
    ], ids=["1-1-one-position", "3-2-padded", "3-2-concat-one-position", "2-2-concat-padded"])
    def test_start_decoding_equals_the_graph_encoder(self, layers, generator_input, sources):
        """The array encoder's attention memory and first decoder state are
        the graph encoder's bits: the memory laid out for attention, and
        decoder layer j seeded from encoder layer enc_layers - dec_layers + j
        as the sum of its two directions' final states."""
        enc_layers, dec_layers = layers
        model, _ = tiny_model(seed=16, enc_layers=enc_layers, dec_layers=dec_layers,
                              generator_input=generator_input)
        source = np.array(sources)
        mask = (source > 0).astype(np.float64)
        memory, state = model.start_decoding(source, mask)
        enc = model.encode(source, mask)
        for got, want in zip(memory, ad.attention_layout(enc.memory.value, mask), strict=True):
            np.testing.assert_array_equal(got, want)
        seeds = enc.finals[enc_layers - dec_layers :]
        assert len(state.layers) == dec_layers
        for (h, c), ((fh, fc), (bh, bc)) in zip(state.layers, seeds, strict=True):
            np.testing.assert_array_equal(h, fh.value + bh.value)
            np.testing.assert_array_equal(c, fc.value + bc.value)

    def test_more_decoder_than_encoder_layers_rejected(self):
        with pytest.raises(ValueError, match="dec_layers"):
            ModelConfig(src_vocab_size=10, tgt_vocab_size=10, enc_layers=1, dec_layers=2)


class TestBagProbabilities:
    def test_sigmoid_of_summed_scores(self):
        rng = np.random.default_rng(17)
        scores = [constant(rng.normal(size=(2, 5))) for _ in range(3)]
        got = bow_probabilities(scores)
        want = 1.0 / (1.0 + np.exp(-(scores[0].value + scores[1].value + scores[2].value)))
        np.testing.assert_allclose(got.value, want, atol=1e-12)

    def test_permutation_of_labeled_scores_bit_identical(self):
        rng = np.random.default_rng(18)
        scores = [constant(rng.normal(size=(4, 7))) for _ in range(6)]
        base = bow_probabilities(scores, timesteps=range(6)).value
        perm = [5, 2, 0, 4, 1, 3]
        shuffled = bow_probabilities([scores[i] for i in perm], timesteps=perm)
        np.testing.assert_array_equal(shuffled.value, base)

    def test_single_step(self):
        s = constant(np.array([[0.0, 2.0]]))
        np.testing.assert_allclose(
            bow_probabilities([s]).value, [[0.5, 1 / (1 + np.exp(-2.0))]], atol=1e-15
        )

    def test_equals_the_sigmoid_of_the_bag_training_folds(self):
        """With every target step real, the per-step score rows of a
        teacher-forced pass give, at each bag's columns, the bits of the
        sigmoid of its bag."""
        model, rng = tiny_model(seed=19, generator_input="concat")
        batch = toy_batch(model, rng)
        forward = model.forward_teacher_forced(batch)
        rows = np.split(forward.scores.value, batch.target.shape[1])
        probs = bow_probabilities([constant(r) for r in rows]).value
        np.testing.assert_array_equal(np.take_along_axis(probs, batch.bag_columns, axis=1),
                                      ad.stable_sigmoid(forward.bag_scores.value))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bow_probabilities([])

    def test_duplicate_timesteps_rejected(self):
        a = constant(np.ones((1, 1)))
        with pytest.raises(ValueError, match="unique"):
            bow_probabilities([a, a], timesteps=[0, 0])


class TestForwardTeacherForced:
    def test_steps_match_manual_decode(self):
        """Decoding steps on arrays give the teacher-forced graph's scores
        bit for bit, for both generator inputs, one and two layers, and a
        batch with a padded source row."""
        for generator_input in ("context", "concat"):
            for layers in (1, 2):
                model, rng = tiny_model(seed=19, generator_input=generator_input,
                                        enc_layers=layers, dec_layers=layers)
                batch = toy_batch(model, rng, batch_size=3, src_len=3, tgt_len=4)
                batch.source[1, 2] = 0
                batch.source_lengths[1] = 2
                batch.source_mask[1, 2] = 0.0
                forward = model.forward_teacher_forced(batch)
                memory, state = model.start_decoding(batch.source, batch.source_mask)
                for t in range(4):
                    prev = np.full(3, BOS) if t == 0 else batch.target[:, t - 1]
                    out = model.decode_step(prev, state, memory)
                    state = out.state
                    np.testing.assert_array_equal(forward.scores.value[3 * t : 3 * t + 3],
                                                  out.scores)

    def test_bag_probs_only_cover_real_positions(self):
        model, rng = tiny_model(seed=20)
        batch = toy_batch(model, rng, batch_size=2, src_len=3, tgt_len=4)
        batch.target_mask[1, 2:] = 0.0
        forward = model.forward_teacher_forced(batch)
        summed = sum(forward.scores.value[2 * t + 1] * batch.target_mask[1, t] for t in range(4))
        np.testing.assert_allclose(
            sigmoid(forward.bag_scores.value[1]), sigmoid(summed[batch.bag_columns[1]]), atol=1e-12
        )

    def test_padded_row_probs_match_unbatched_prefix(self):
        model, rng = tiny_model(seed=23)
        full = toy_batch(model, rng, batch_size=1, src_len=3, tgt_len=3)
        padded = Batch(
            source=np.vstack([full.source, [[4, 9, 0]]]),
            source_lengths=np.array([3, 2]),
            source_mask=np.array([[1.0, 1, 1], [1, 1, 0]]),
            target=np.vstack([full.target, [[5, EOS, 0]]]),
            target_lengths=np.array([3, 2]),
            target_mask=np.array([[1.0, 1, 1], [1, 1, 0]]),
            bag_indicator=np.vstack([full.bag_indicator, np.zeros_like(full.bag_indicator)]),
            bag_columns=np.vstack([full.bag_columns, np.zeros_like(full.bag_columns)]),
        )
        solo = Batch(
            source=np.array([[4, 9]]), source_lengths=np.array([2]),
            source_mask=np.ones((1, 2)), target=np.array([[5, EOS]]),
            target_lengths=np.array([2]), target_mask=np.ones((1, 2)),
            bag_indicator=np.zeros((1, 13)),
        )
        batched = model.forward_teacher_forced(padded)
        alone = model.forward_teacher_forced(solo)
        for t in range(2):
            np.testing.assert_allclose(
                softmax(batched.scores.value[2 * t + 1 : 2 * t + 2]),
                softmax(alone.scores.value[t : t + 1]),
                atol=1e-10,
            )


class _DiskFullFile:
    """A binary file that takes ``budget`` bytes, then fails as a full disk does."""

    def __init__(self, file, budget: int) -> None:
        self.file, self.budget = file, budget

    def write(self, data) -> int:
        data = bytes(data)
        self.file.write(data[: self.budget])
        if len(data) > self.budget:
            self.budget = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(data)
        return len(data)

    def writelines(self, chunks) -> None:
        for chunk in chunks:
            self.write(chunk)

    def __getattr__(self, name):
        return getattr(self.file, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.file.close()


class TestCheckpoints:
    def test_roundtrip_bitwise_parameters(self, tmp_path):
        model, rng = tiny_model(seed=24, enc_layers=2, dec_layers=2)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for (name_a, a), (name_b, b) in zip(model.params.items(), loaded.params.items()):
            assert name_a == name_b
            np.testing.assert_array_equal(a.value, b.value)

    def test_roundtrip_forward_bit_identical(self, tmp_path):
        model, rng = tiny_model(seed=25)
        batch = toy_batch(model, rng)
        before = model.forward_teacher_forced(batch)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        after = loaded.forward_teacher_forced(batch)
        np.testing.assert_array_equal(before.scores.value, after.scores.value)
        np.testing.assert_array_equal(before.bag_scores.value, after.bag_scores.value)

    def test_save_deterministic_bytes(self, tmp_path):
        model, _ = tiny_model(seed=26)
        save_checkpoint(model, tmp_path / "a.ckpt")
        save_checkpoint(model, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        model, _ = tiny_model(seed=28)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        before = path.read_bytes()
        for _, node in model.params.items():
            node.value[...] += 1.0
        real_open = Path.open

        def open_on_full_disk(self, mode="r", *args, **kwargs):
            return _DiskFullFile(real_open(self, mode, *args, **kwargs), len(before) // 2)

        monkeypatch.setattr(Path, "open", open_on_full_disk)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(model, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        model, _ = tiny_model(seed=27)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)


class TestDeterminism:
    def test_same_seed_same_parameters(self):
        a, _ = tiny_model(seed=33)
        b, _ = tiny_model(seed=33)
        for (_, pa), (_, pb) in zip(a.params.items(), b.params.items()):
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_same_batch_same_forward(self):
        model, rng = tiny_model(seed=34)
        batch = toy_batch(model, rng)
        first = model.forward_teacher_forced(batch)
        second = model.forward_teacher_forced(batch)
        np.testing.assert_array_equal(first.bag_scores.value, second.bag_scores.value)

    def test_dropout_draws_follow_generator(self):
        model, _ = tiny_model(seed=35, dropout=0.5)
        batch_rng_a = np.random.default_rng(77)
        batch_rng_b = np.random.default_rng(77)
        src = np.array([[4, 5, 6]])
        enc_a = model.encode(src, train=True, rng=batch_rng_a)
        enc_b = model.encode(src, train=True, rng=batch_rng_b)
        for t in range(3):
            np.testing.assert_array_equal(position(enc_a, t), position(enc_b, t))

    def test_train_mode_without_rng_rejected(self):
        model, _ = tiny_model(seed=36, dropout=0.3)
        with pytest.raises(ValueError, match="RNG"):
            model.encode(np.array([[4, 5]]), train=True)
