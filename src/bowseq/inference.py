"""Decoding: one batched beam search, and step-by-step reference decoders.

Hypothesis scores are accumulated log-likelihoods of emitted tokens (EOS
included), read from the log-softmax of the decoder's scores, so no
probability is floored.  ``max_length`` caps the emitted token count
including EOS; a hypothesis that reaches the cap is force-terminated through
the decoder's real distribution so its score still equals the sum of its
step log probabilities.

Decoding builds no graph.  The search encodes B sentences once as a padded
batch and steps k*B decoder rows at a time, on arrays through the layers'
forward kernels: row j*B + b holds beam j of sentence b (rows past a
sentence's live beams are unread carriers), so attention reads the beam index
as its step index and never copies the encoder memory.  Each sentence keeps
its top ``width`` expansions by (-log-likelihood, tokens): ties break toward
the smaller token sequence.  Greedy batch decoding is width 1; the references
it is tested against, ``greedy_decode`` and ``score_sequence``, take one
hypothesis at a time and share the model's encoder and step, not the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import parallel
from .data import BOS, EOS, _pad_matrix
from .model import DecoderState, Seq2SeqModel


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[int, ...]
    log_likelihood: float
    finished: bool

    @property
    def length(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class BeamConfig:
    width: int = 10
    max_length: int | None = None     # defaults to 2 * source_length + 10
    length_exponent: float = 1.0      # 0 ranks by raw log-likelihood

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"beam width must be positive, got {self.width}")
        if self.max_length is not None and self.max_length < 1:
            raise ValueError(f"max_length must be positive, got {self.max_length}")
        if self.length_exponent < 0:
            raise ValueError(f"length_exponent must be non-negative, got {self.length_exponent}")


def normalized_score(hyp: Hypothesis, length_exponent: float = 1.0) -> float:
    if hyp.length == 0:
        raise ValueError("cannot score an empty hypothesis")
    return hyp.log_likelihood / (hyp.length ** length_exponent)


def _check_source(model: Seq2SeqModel, source: Sequence[int]) -> np.ndarray:
    src = np.asarray(list(source), dtype=np.int64)
    if src.ndim != 1 or src.size == 0:
        raise ValueError("source must be a non-empty token index sequence")
    _check_range("source", src, model.config.src_vocab_size)
    return src[None, :]


def _check_range(what: str, tokens: np.ndarray, vocab_size: int) -> None:
    bad = tokens[(tokens < 0) | (tokens >= vocab_size)]
    if bad.size:
        raise ValueError(
            f"{what} index out of range for model vocabulary ({int(bad[0])} vs {vocab_size})"
        )


def _log_probs(scores: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of (rows, V) scores in one (rows, V) buffer:
    each row minus its max, exponentiated and summed, then the scores minus
    (max + log of that sum), in parts of rows."""
    out = np.empty_like(scores)

    def rows(lo: int, hi: int) -> None:
        part, into = scores[lo:hi], out[lo:hi]
        top = part.max(axis=1, keepdims=True)
        np.subtract(part, top, out=into)
        np.exp(into, out=into)
        norm = np.log(into.sum(axis=1, keepdims=True))
        norm += top
        np.subtract(part, norm, out=into)

    parallel.each(rows, scores.shape[0], scores.size)
    return out


def _step_logprobs(model: Seq2SeqModel, prev: int, state, memory) -> tuple[np.ndarray, DecoderState]:
    out = model.decode_step(np.array([prev], dtype=np.int64), state, memory)
    return _log_probs(out.scores)[0], out.state


def _expansions(
    logp: np.ndarray, live: np.ndarray, at_cap: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, token, log-probability) of the expansions of the ``live`` rows
    of the log-probabilities ``logp``: EOS alone for a row ``at_cap``, else
    its ``width`` most probable tokens plus every token tied with the last of
    them, which the (-ll, tokens) sort then cuts back as a stable sort would.
    Nothing sorts the vocabulary.
    """
    k = min(width, logp.shape[1])
    if k == 1:
        rows, tokens = live, np.where(at_cap, EOS, logp.argmax(axis=1)[live])
    else:
        free, ends = live[~at_cap], live[at_cap]
        kept = logp[free]
        kth = np.partition(kept, -k, axis=1)[:, -k]
        at, tokens = np.divmod(np.flatnonzero(kept >= kth[:, None]), logp.shape[1])
        rows = np.concatenate([free[at], ends])
        tokens = np.concatenate([tokens, np.full(ends.size, EOS)])
    return rows, tokens, logp[rows, tokens]


def _search(
    model: Seq2SeqModel, sources: Sequence[Sequence[int]], config: BeamConfig
) -> list[list[Hypothesis]]:
    """Ranked finished hypotheses (best first) for each source sentence.  A
    sentence stops once ``width`` of them have finished or none is live."""
    src, lengths, mask = _pad_matrix([_check_source(model, source)[0] for source in sources])
    batch = len(lengths)
    caps = np.full(batch, config.max_length) if config.max_length else 2 * lengths + 10
    memory, state = model.start_decoding(src, mask)
    prev = np.full(batch, BOS)
    live = {b: ((), 0.0, b) for b in range(batch)}  # row -> (tokens, log-likelihood, parent row)
    finished: list[list[Hypothesis]] = [[] for _ in range(batch)]
    for step in range(caps.max()):
        out = model.decode_step(prev, state, memory)
        rows = np.fromiter(live, dtype=np.int64, count=len(live))
        at_cap = caps[rows % batch] == step + 1
        expanded = _expansions(_log_probs(out.scores), rows, at_cap, config.width)
        candidates: list[list] = [[] for _ in range(batch)]
        for row, tok, lp in zip(*(a.tolist() for a in expanded)):
            tokens, ll, _ = live[row]
            candidates[row % batch].append((-(ll + lp), tokens + (tok,), row))
        live = {}
        for b, ranked in enumerate(candidates):
            ranked.sort()
            beam = []
            for neg, seq, row in ranked[: config.width]:
                if seq[-1] == EOS:
                    finished[b].append(Hypothesis(seq, -neg, True))
                else:
                    beam.append((seq, -neg, row))
            if len(finished[b]) < config.width:
                for j, hyp in enumerate(beam):
                    live[j * batch + b] = hyp
        if not live:
            break
        index = np.arange((max(live) // batch + 1) * batch) % batch  # carriers copy slot 0
        prev = np.full(index.size, EOS)
        for new, (tokens, _, row) in live.items():
            index[new], prev[new] = row, tokens[-1]
        state = out.state.gather(index)

    def rank(h: Hypothesis) -> tuple:
        return (-normalized_score(h, config.length_exponent), h.tokens)

    return [sorted(hyps, key=rank)[: config.width] for hyps in finished]


def beam_search(
    model: Seq2SeqModel, source: Sequence[int], config: BeamConfig = BeamConfig()
) -> list[Hypothesis]:
    """Ranked finished hypotheses (best first) for one source sentence."""
    return _search(model, [source], config)[0]


def greedy_decode_batch(
    model: Seq2SeqModel, sources: Sequence[Sequence[int]], max_length: int | None = None
) -> list[list[int]]:
    """Greedy-decode many sentences in one padded batch: the search at
    width 1.  Returns the emitted tokens without the final EOS."""
    if not sources:
        return []
    config = BeamConfig(width=1, max_length=max_length)
    return [list(hyps[0].tokens[:-1]) for hyps in _search(model, sources, config)]


def greedy_decode(
    model: Seq2SeqModel, source: Sequence[int], max_length: int | None = None
) -> Hypothesis:
    """Step-wise argmax decoding; equivalent to beam search at width 1."""
    src = _check_source(model, source)
    memory, state = model.start_decoding(src, np.ones(src.shape))
    cap = max_length or 2 * src.shape[1] + 10
    tokens: list[int] = []
    ll = 0.0
    while True:
        prev = tokens[-1] if tokens else BOS
        logp, state = _step_logprobs(model, prev, state, memory)
        tok = EOS if len(tokens) == cap - 1 else int(np.argmax(logp))
        tokens.append(tok)
        ll += float(logp[tok])
        if tok == EOS:
            return Hypothesis(tuple(tokens), ll, True)


def score_sequence(model: Seq2SeqModel, source: Sequence[int], tokens: Sequence[int]) -> float:
    """Teacher-forced log-likelihood of an emitted token sequence."""
    src = _check_source(model, source)
    _check_range("target", np.asarray(list(tokens), dtype=np.int64), model.config.tgt_vocab_size)
    memory, state = model.start_decoding(src, np.ones(src.shape))
    total = 0.0
    prev = BOS
    for tok in tokens:
        logp, state = _step_logprobs(model, prev, state, memory)
        total += float(logp[tok])
        prev = tok
    return total
