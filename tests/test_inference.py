"""Decoding tests: exhaustive-enumeration oracle for beam search, greedy
equivalence at width 1, score recomputation, and input validation."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from bowseq import autodiff as ad
from bowseq.data import BOS, EOS
from bowseq.inference import (
    BeamConfig,
    Hypothesis,
    _log_probs,
    _search,
    beam_search,
    greedy_decode,
    greedy_decode_batch,
    normalized_score,
    score_sequence,
)
from bowseq.model import ModelConfig, Seq2SeqModel


def tiny_model(seed, tgt_vocab=5, src_vocab=9, hidden=8):
    cfg = ModelConfig(
        src_vocab_size=src_vocab, tgt_vocab_size=tgt_vocab, emb_size=6,
        hidden_size=hidden, enc_layers=1, dec_layers=1, dropout=0.0,
    )
    return Seq2SeqModel(cfg, init_rng=np.random.default_rng(seed))


def enumerate_ranked(model, source, max_length, length_exponent=1.0):
    """Score every emittable sequence by teacher forcing and rank them.

    The sequence space mirrors the decoder's: up to ``max_length - 1``
    non-EOS tokens followed by EOS, with EOS forced at the cap.
    """
    content = [t for t in range(model.config.tgt_vocab_size) if t != EOS]
    hyps = []

    def walk(prefix):
        seq = prefix + (EOS,)
        ll = score_sequence(model, source, seq)
        hyps.append(Hypothesis(seq, ll, True))
        if len(prefix) < max_length - 1:
            for tok in content:
                walk(prefix + (tok,))

    walk(())
    hyps.sort(key=lambda h: (-normalized_score(h, length_exponent), h.tokens))
    return hyps


class _ScriptedModel:
    """Decoder stub that emits a fixed peaked distribution per step.

    The decoder state holds each row's step index; after the script runs out
    the peak moves to EOS.  Exercises the search logic without real
    parameters.
    """

    def __init__(self, script, vocab=7, peak=0.9):
        self.config = SimpleNamespace(src_vocab_size=10, tgt_vocab_size=vocab)
        self.script = tuple(script)
        self.vocab = vocab
        self.peak = peak

    def start_decoding(self, src, mask):
        return None, _ScriptedState(np.zeros(len(src), dtype=np.int64))

    def distribution(self, step):
        tok = self.script[step] if step < len(self.script) else EOS
        dist = np.full(self.vocab, (1.0 - self.peak) / (self.vocab - 1))
        dist[tok] = self.peak
        return dist

    def decode_step(self, prev, state, memory):
        dists = np.stack([self.distribution(step) for step in state.steps])
        return SimpleNamespace(scores=np.log(dists), state=_ScriptedState(state.steps + 1))


class _ScriptedState:
    def __init__(self, steps):
        self.steps = steps

    def gather(self, rows):
        return _ScriptedState(self.steps[rows])


class TestExhaustiveAgreement:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_wide_beam_equals_enumeration(self, seed):
        model = tiny_model(seed)
        source = [4, 5, 6]
        max_length = 4
        config = BeamConfig(width=700, max_length=max_length)
        got = beam_search(model, source, config)
        want = enumerate_ranked(model, source, max_length)
        assert len(got) == len(want) == 1 + 4 + 16 + 64
        for g, w in zip(got, want):
            assert g.tokens == w.tokens
            np.testing.assert_allclose(g.log_likelihood, w.log_likelihood, atol=1e-9)

    def test_unnormalized_ranking_agrees_too(self):
        model = tiny_model(404)
        source = [7, 8]
        config = BeamConfig(width=700, max_length=3, length_exponent=0.0)
        got = beam_search(model, source, config)
        want = enumerate_ranked(model, source, 3, length_exponent=0.0)
        assert [g.tokens for g in got] == [w.tokens for w in want]

    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    def test_narrow_beams_never_beat_the_true_argmax(self, width):
        model = tiny_model(505)
        source = [4, 6]
        best = enumerate_ranked(model, source, 4)[0]
        found = beam_search(model, source, BeamConfig(width=width, max_length=4))[0]
        assert normalized_score(found) <= normalized_score(best) + 1e-12


class TestGreedyEquivalence:
    @pytest.mark.parametrize("seed", [11, 22, 33, 44])
    def test_width_one_beam_matches_greedy(self, seed):
        model = tiny_model(seed, tgt_vocab=8)
        source = [4, 5, 6, 7]
        beam = beam_search(model, source, BeamConfig(width=1, max_length=6))[0]
        greedy = greedy_decode(model, source, max_length=6)
        assert beam.tokens == greedy.tokens
        np.testing.assert_allclose(beam.log_likelihood, greedy.log_likelihood, atol=1e-12)

    def test_batch_greedy_matches_single(self):
        # A zero-initialised model is uniform everywhere, so it emits PAD until the cap.
        zero = Seq2SeqModel(tiny_model(55, tgt_vocab=8).config)
        sources = [[4, 5, 6], [7, 8], [4, 4, 4, 4]]
        for model in (tiny_model(55, tgt_vocab=8), zero):
            batched = greedy_decode_batch(model, sources)
            for src, got in zip(sources, batched):
                solo = greedy_decode(model, src)
                assert got == [t for t in solo.tokens if t != EOS]

    def test_batch_greedy_empty_input(self):
        assert greedy_decode_batch(tiny_model(56), []) == []


class TestBatchedSearch:
    def test_one_decoder_call_per_search_step(self):
        model = tiny_model(66)
        calls = []
        step = model.decode_step
        model.decode_step = lambda *args: calls.append(args) or step(*args)
        hyps = beam_search(model, [4, 5], BeamConfig(width=4, max_length=5))
        assert len(hyps) == 4
        assert len(calls) <= 5

    def test_decoding_steps_build_no_graph(self, monkeypatch):
        """A whole search, encoding included, constructs no autodiff node."""
        model = tiny_model(67)
        built = []
        init = ad.Node.__init__
        monkeypatch.setattr(ad.Node, "__init__", lambda node, *a, **k: built.append(node)
                            or init(node, *a, **k))
        hyps = beam_search(model, [4, 5, 6], BeamConfig(width=4, max_length=6))
        assert len(greedy_decode_batch(model, [[4, 5, 6], [7, 8]])) == 2
        assert len(hyps) == 4
        assert built == []
        model.encode(np.array([[4, 5, 6]]))
        assert built, "the counter sees the graph encoder's nodes"

    def test_greedy_batch_peak_stays_under_three_layer_directions(self):
        """Decoding holds no encoder state for a backward pass: the traced
        peak of greedy-decoding 64 sentences of 50 tokens stays under three
        layer-directions' tz, c and h, 6H floats per row and step, per
        sentence."""
        cfg = ModelConfig(src_vocab_size=500, tgt_vocab_size=500, emb_size=64,
                          hidden_size=64, enc_layers=3, dec_layers=2, dropout=0.0)
        rng = np.random.default_rng(69)
        model = Seq2SeqModel(cfg, init_rng=rng)
        sources = rng.integers(4, 500, size=(64, 50)).tolist()
        greedy_decode_batch(model, sources[:2], max_length=2)  # caches and threads start first
        tracemalloc.start()
        try:
            greedy_decode_batch(model, sources, max_length=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / len(sources) < 3 * 6 * 64 * 50 * 8

    def test_sentences_searched_together_match_one_at_a_time(self):
        # With this seed the sentences finish at different steps, so the search
        # steps carrier rows and forces EOS at the cap.
        model = tiny_model(68, tgt_vocab=7)
        sources = [[4, 5, 6], [7], [8, 4, 4, 5, 6]]
        config = BeamConfig(width=3, max_length=6)
        for src, got in zip(sources, _search(model, sources, config)):
            solo = beam_search(model, src, config)
            assert [h.tokens for h in got] == [h.tokens for h in solo]
            for g, w in zip(got, solo):
                np.testing.assert_allclose(g.log_likelihood, w.log_likelihood, atol=1e-12)


class TestScoreRecompute:
    def test_returned_likelihoods_are_reproducible(self):
        model = tiny_model(66)
        source = [4, 5]
        for hyp in beam_search(model, source, BeamConfig(width=4, max_length=5)):
            again = score_sequence(model, source, hyp.tokens)
            np.testing.assert_allclose(hyp.log_likelihood, again, atol=1e-9)


class TestLogProbs:
    def test_rows_are_normalised_log_softmax(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(-30.0, 30.0, size=(4, 9))
        kept = scores.copy()
        got = _log_probs(scores)
        want = scores - np.log(np.exp(scores).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.exp(got).sum(axis=1), np.ones(4), rtol=0, atol=1e-12)
        assert np.array_equal(scores, kept)

    def test_score_far_below_the_rest_is_read_exactly(self):
        """A token 800 nats behind every other one: its probability
        underflows, but its log-probability is still -800 - log(V - 1)."""
        model = tiny_model(57)
        model.gen_weight.value[...] = 0.0
        model.gen_bias.value[...] = 0.0
        model.gen_bias.value[0, 4] = -800.0
        got = score_sequence(model, [4, 5], [4])
        np.testing.assert_allclose(got, -800.0 - np.log(4), rtol=0, atol=1e-9)


class TestScriptedSearch:
    def test_greedy_follows_the_peaks(self):
        model = _ScriptedModel([5, 6, 4])
        hyp = greedy_decode(model, [1, 2, 3])
        assert hyp.tokens == (5, 6, 4, EOS)
        want = sum(np.log(0.9) for _ in range(4))
        np.testing.assert_allclose(hyp.log_likelihood, want, atol=1e-12)

    def test_beam_top_hypothesis_is_the_script(self):
        model = _ScriptedModel([4, 5, 6, 5])
        hyps = beam_search(model, [1, 2], BeamConfig(width=3))
        assert hyps[0].tokens == (4, 5, 6, 5, EOS)
        assert len(hyps) == 3
        assert all(h.finished for h in hyps)

    def test_cap_forces_eos_with_its_real_probability(self):
        model = _ScriptedModel([4, 5, 6, 5], peak=0.9)
        hyp = greedy_decode(model, [1, 2, 3], max_length=3)
        assert hyp.tokens == (4, 5, EOS)
        off_peak = 0.1 / 6
        want = 2 * np.log(0.9) + np.log(off_peak)
        np.testing.assert_allclose(hyp.log_likelihood, want, atol=1e-12)

    def test_default_cap_tracks_source_length(self):
        model = _ScriptedModel([4] * 100)
        hyp = greedy_decode(model, [1, 2, 3])
        assert hyp.length == 2 * 3 + 10
        assert hyp.tokens[-1] == EOS

    def test_all_beam_hypotheses_respect_the_cap(self):
        model = _ScriptedModel([4] * 100)
        hyps = beam_search(model, [1, 2], BeamConfig(width=5, max_length=6))
        assert all(h.length <= 6 and h.tokens[-1] == EOS for h in hyps)


class TestRankingProperties:
    def test_results_sorted_and_unique(self):
        model = tiny_model(77, tgt_vocab=7)
        config = BeamConfig(width=8, max_length=5)
        hyps = beam_search(model, [4, 5, 6], config)
        scores = [normalized_score(h) for h in hyps]
        assert scores == sorted(scores, reverse=True)
        assert len({h.tokens for h in hyps}) == len(hyps)

    def test_n_best_is_a_prefix_of_wider_request(self):
        model = tiny_model(88)
        narrow = beam_search(model, [4, 5], BeamConfig(width=700, max_length=3))
        assert narrow[:4] == beam_search(model, [4, 5], BeamConfig(width=700, max_length=3))[:4]


class TestNormalizedScore:
    def test_divides_by_length_power(self):
        hyp = Hypothesis(tokens=(4, 5, 6, EOS), log_likelihood=-8.0, finished=True)
        np.testing.assert_allclose(normalized_score(hyp), -2.0, atol=1e-15)
        np.testing.assert_allclose(
            normalized_score(hyp, length_exponent=2.0), -0.5, atol=1e-15
        )
        assert normalized_score(hyp, length_exponent=0.0) == -8.0
        odd = Hypothesis(tokens=(4, 5, EOS), log_likelihood=-0.1 - 0.2, finished=True)
        assert normalized_score(odd, length_exponent=0.0) == odd.log_likelihood

    def test_empty_hypothesis_rejected(self):
        empty = Hypothesis(tokens=(), log_likelihood=0.0, finished=False)
        with pytest.raises(ValueError, match="empty"):
            normalized_score(empty)


class TestValidation:
    def test_out_of_range_source_index(self):
        model = tiny_model(99)
        with pytest.raises(ValueError, match="out of range"):
            beam_search(model, [4, 99])
        with pytest.raises(ValueError, match="out of range"):
            greedy_decode(model, [-1])
        with pytest.raises(ValueError, match=r"out of range .*\(-3 vs 9\)"):
            greedy_decode(model, [-3, 5])
        with pytest.raises(ValueError, match="out of range"):
            greedy_decode_batch(model, [[4, 99]])

    def test_out_of_range_target_index(self):
        model = tiny_model(99)
        for tokens in ([-1], [4, -1], [4, 5], [5, 4], [99]):
            with pytest.raises(ValueError, match=r"target index out of range .*vs 5\)"):
                score_sequence(model, [4, 5], tokens)

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            beam_search(tiny_model(100), [])
        with pytest.raises(ValueError, match="non-empty"):
            greedy_decode_batch(tiny_model(100), [[4, 5], []])

    def test_bad_beam_config_rejected(self):
        with pytest.raises(ValueError, match="width"):
            BeamConfig(width=0)
        with pytest.raises(ValueError, match="max_length"):
            BeamConfig(max_length=0)
        with pytest.raises(ValueError, match="length_exponent"):
            BeamConfig(length_exponent=-1.0)
