"""Corpus-level BLEU-4 and bag-of-words overlap scores.

BLEU is the standard corpus measure: modified n-gram precisions with
clipped counts aggregated over all sentence pairs, geometric mean over
orders 1-4, and a brevity penalty exp(1 - r/c) when the hypothesis corpus
is shorter than the reference.  Scores are case-sensitive, unsmoothed, and
reported on the 0-100 scale; if any precision is zero the corpus score is
exactly 0 while the per-order precisions are still reported.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

Tokens = Sequence[str]


@dataclass(frozen=True)
class BleuReport:
    bleu: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_length: int
    ref_length: int


@dataclass(frozen=True)
class BagReport:
    precision: float
    recall: float
    f1: float


def _ngrams(tokens: Tokens, order: int) -> Counter:
    return Counter(tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1))


def corpus_bleu(hypotheses: Sequence[Tokens], references: Sequence[Tokens]) -> BleuReport:
    if len(hypotheses) != len(references):
        raise ValueError(
            f"corpus size mismatch: {len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise ValueError("cannot score an empty corpus")

    matches = [0] * 4
    totals = [0] * 4
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            hyp_counts = _ngrams(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngrams(ref, n)
            totals[n - 1] += sum(hyp_counts.values())
            matches[n - 1] += sum(
                min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
            )

    precisions = tuple(m / t if t else 0.0 for m, t in zip(matches, totals))
    if hyp_len == 0:
        return BleuReport(0.0, precisions, 0.0, hyp_len, ref_len)
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    if any(p == 0.0 for p in precisions):
        bleu = 0.0
    else:
        bleu = brevity * math.exp(sum(math.log(p) for p in precisions) / 4.0) * 100.0
    return BleuReport(bleu, precisions, brevity, hyp_len, ref_len)


def bag_overlap(hypotheses: Sequence[Tokens], references: Sequence[Tokens]) -> BagReport:
    """Micro-averaged precision/recall/F1 over unique-token sets per sentence."""
    if len(hypotheses) != len(references):
        raise ValueError(
            f"corpus size mismatch: {len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise ValueError("cannot score an empty corpus")
    overlap = hyp_total = ref_total = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_set, ref_set = set(hyp), set(ref)
        overlap += len(hyp_set & ref_set)
        hyp_total += len(hyp_set)
        ref_total += len(ref_set)
    precision = overlap / hyp_total if hyp_total else 0.0
    recall = overlap / ref_total if ref_total else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return BagReport(precision, recall, f1)


def format_report(bleu: BleuReport, bag: BagReport) -> str:
    """Tab-separated name/value lines: BLEU to 2 decimals, bag scores to 4."""
    lines = [
        f"bleu\t{bleu.bleu:.2f}",
        f"bleu_bp\t{bleu.brevity_penalty:.4f}",
        f"bag_precision\t{bag.precision:.4f}",
        f"bag_recall\t{bag.recall:.4f}",
        f"bag_f1\t{bag.f1:.4f}",
    ]
    return "\n".join(lines) + "\n"
