"""Metric tests: an independent loop-based BLEU oracle, classic clipped-count
cases, brevity penalty arithmetic, and the bag overlap scores."""

import math
import random
from collections import Counter

import numpy as np
import pytest

from bowseq.metrics import (
    BagReport,
    BleuReport,
    bag_overlap,
    corpus_bleu,
    format_report,
)


def bleu_oracle(hypotheses, references):
    """Slow restatement of corpus BLEU-4 built directly from the definition."""
    matches = [0.0] * 4
    totals = [0.0] * 4
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    for hyp, ref in zip(hypotheses, references):
        for n in range(1, 5):
            grams = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
            ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            for gram, count in grams.items():
                matches[n - 1] += min(count, ref_grams.get(gram, 0))
                totals[n - 1] += count
    precisions = [m / t if t else 0.0 for m, t in zip(matches, totals)]
    if hyp_len == 0:
        return 0.0, precisions, 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    if any(p == 0.0 for p in precisions):
        return 0.0, precisions, bp
    geo = math.exp(sum(math.log(p) for p in precisions) / 4.0)
    return bp * geo * 100.0, precisions, bp


def random_corpus(rng, sentences, vocab, min_len=1, max_len=12):
    words = [f"w{i}" for i in range(vocab)]
    return [
        [rng.choice(words) for _ in range(rng.randint(min_len, max_len))]
        for _ in range(sentences)
    ]


class TestCorpusBleu:
    def test_identical_corpus_scores_hundred(self):
        corpus = [["the", "cat", "sat", "on", "the", "mat"], ["four", "five", "six", "seven"]]
        report = corpus_bleu(corpus, corpus)
        assert report.bleu == 100.0
        assert report.precisions == (1.0, 1.0, 1.0, 1.0)
        assert report.brevity_penalty == 1.0

    def test_disjoint_corpus_scores_zero(self):
        report = corpus_bleu([["a", "b", "c", "d", "e"]], [["v", "w", "x", "y", "z"]])
        assert report.bleu == 0.0
        assert report.precisions == (0.0, 0.0, 0.0, 0.0)

    def test_clipping_limits_repeated_unigrams(self):
        hyp = "the the the the the the the".split()
        ref = "the cat is on the mat".split()
        report = corpus_bleu([hyp], [ref])
        np.testing.assert_allclose(report.precisions[0], 2.0 / 7.0, atol=1e-9)
        assert report.bleu == 0.0

    def test_brevity_penalty_formula(self):
        hyp = [["a", "b", "c"]]
        ref = [["a", "b", "c", "d", "e", "f"]]
        report = corpus_bleu(hyp, ref)
        np.testing.assert_allclose(report.brevity_penalty, math.exp(1.0 - 6.0 / 3.0), atol=1e-12)
        assert report.hyp_length == 3
        assert report.ref_length == 6

    def test_no_penalty_for_long_hypotheses(self):
        report = corpus_bleu([["a", "b", "c", "d", "e"]], [["a", "b", "c", "d"]])
        assert report.brevity_penalty == 1.0

    def test_any_zero_precision_zeroes_the_score(self):
        hyp = [["a", "b", "c", "x"]]
        ref = [["a", "b", "z", "c"]]
        report = corpus_bleu(hyp, ref)
        assert report.precisions[0] > 0
        assert report.precisions[1] > 0
        assert report.precisions[3] == 0.0
        assert report.bleu == 0.0

    def test_pair_order_invariance_is_exact(self):
        rng = random.Random(71)
        hyps = random_corpus(rng, 30, vocab=12)
        refs = random_corpus(rng, 30, vocab=12)
        base = corpus_bleu(hyps, refs)
        order = list(range(30))
        rng.shuffle(order)
        shuffled = corpus_bleu([hyps[i] for i in order], [refs[i] for i in order])
        assert shuffled == base

    def test_matches_oracle_on_random_corpora(self):
        rng = random.Random(72)
        for case in range(30):
            size = rng.randint(1, 20)
            vocab = rng.choice([3, 6, 30])
            hyps = random_corpus(rng, size, vocab)
            refs = random_corpus(rng, size, vocab)
            if case % 3 == 0:
                refs = [
                    h[:] if rng.random() < 0.5 else r for h, r in zip(hyps, refs)
                ]
            report = corpus_bleu(hyps, refs)
            want_bleu, want_prec, want_bp = bleu_oracle(hyps, refs)
            np.testing.assert_allclose(report.bleu, want_bleu, atol=1e-9)
            np.testing.assert_allclose(report.precisions, want_prec, atol=1e-12)
            np.testing.assert_allclose(report.brevity_penalty, want_bp, atol=1e-12)

    def test_partial_overlap_worked_example(self):
        hyp = ["a", "b", "c", "d"]
        ref = ["a", "b", "c", "e"]
        report = corpus_bleu([hyp], [ref])
        np.testing.assert_allclose(report.precisions[0], 3.0 / 4.0, atol=1e-12)
        np.testing.assert_allclose(report.precisions[1], 2.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(report.precisions[2], 1.0 / 2.0, atol=1e-12)
        assert report.precisions[3] == 0.0
        assert report.bleu == 0.0

    def test_short_hypothesis_skips_missing_orders(self):
        report = corpus_bleu([["a", "b"]], [["a", "b"]])
        assert report.precisions[:2] == (1.0, 1.0)
        assert report.precisions[2:] == (0.0, 0.0)
        assert report.bleu == 0.0

    def test_empty_hypothesis_row_scores_zero(self):
        report = corpus_bleu([[]], [["a", "b"]])
        assert report.bleu == 0.0
        assert report.brevity_penalty == 0.0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            corpus_bleu([["a"]], [["a"], ["b"]])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            corpus_bleu([], [])


class TestBagOverlap:
    def test_hand_case(self):
        hyps = [["a", "b", "b", "c"]]
        refs = [["b", "c", "d"]]
        report = bag_overlap(hyps, refs)
        np.testing.assert_allclose(report.precision, 2.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(report.recall, 2.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(report.f1, 2.0 / 3.0, atol=1e-12)

    def test_micro_average_pools_counts(self):
        hyps = [["a"], ["x", "y", "z"]]
        refs = [["a"], ["x"]]
        report = bag_overlap(hyps, refs)
        np.testing.assert_allclose(report.precision, 2.0 / 4.0, atol=1e-12)
        np.testing.assert_allclose(report.recall, 2.0 / 2.0, atol=1e-12)
        np.testing.assert_allclose(report.f1, 2 * 0.5 * 1.0 / 1.5, atol=1e-12)

    def test_identical_sets_score_one(self):
        corpus = [["p", "q"], ["r"]]
        report = bag_overlap(corpus, [["q", "p"], ["r", "r"]])
        assert report == BagReport(1.0, 1.0, 1.0)

    def test_disjoint_sets_score_zero(self):
        report = bag_overlap([["a"]], [["b"]])
        assert report == BagReport(0.0, 0.0, 0.0)

    def test_empty_rows_do_not_divide_by_zero(self):
        report = bag_overlap([[]], [[]])
        assert report == BagReport(0.0, 0.0, 0.0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            bag_overlap([["a"]], [])


class TestFormatReport:
    def test_layout_and_rounding(self):
        bleu = BleuReport(
            bleu=42.4242, precisions=(0.9, 0.8, 0.7, 0.6),
            brevity_penalty=0.98765, hyp_length=10, ref_length=11,
        )
        bag = BagReport(precision=0.12345, recall=0.5, f1=0.19791)
        text = format_report(bleu, bag)
        assert text.splitlines() == [
            "bleu\t42.42",
            "bleu_bp\t0.9877",
            "bag_precision\t0.1235",
            "bag_recall\t0.5000",
            "bag_f1\t0.1979",
        ]
        assert text.endswith("\n")
