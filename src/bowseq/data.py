"""Corpus handling: vocabularies, index encoding, batching, toy tasks.

Token indices 0-3 are reserved in every vocabulary: PAD=0, UNK=1, BOS=2,
EOS=3.  Corpus files are UTF-8 plain text, one sentence per line, tokens
separated by single spaces.  Vocabulary files list one token per line in
index order starting at index 4; the reserved entries are implicit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

PAD, UNK, BOS, EOS = 0, 1, 2, 3
RESERVED = ("<pad>", "<unk>", "<bos>", "<eos>")

#: Sentences longer than this many tokens are dropped at ingestion.
MAX_SENTENCE_LENGTH = 50

#: ``make_batches`` sorts by source length within chunks of this many batches.
SORT_CHUNK_BATCHES = 100


class Vocab:
    """Bidirectional token <-> index map with reserved specials at 0-3."""

    def __init__(self, tokens: Sequence[str]) -> None:
        self._itos: list[str] = list(RESERVED)
        self._stoi: dict[str, int] = {t: i for i, t in enumerate(RESERVED)}
        for tok in tokens:
            if tok in self._stoi:
                raise ValueError(f"duplicate or reserved token in vocabulary: {tok!r}")
            self._stoi[tok] = len(self._itos)
            self._itos.append(tok)

    def __len__(self) -> int:
        return len(self._itos)

    def index(self, token: str) -> int:
        return self._stoi.get(token, UNK)

    def token(self, index: int) -> str:
        return self._itos[index]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self._stoi.get(t, UNK) for t in tokens]

    def decode(self, indices: Iterable[int]) -> list[str]:
        return [t for t in (self._itos[i] for i in indices) if t not in RESERVED]

    def save(self, path: str | Path) -> None:
        Path(path).write_text("".join(t + "\n" for t in self._itos[4:]), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        return cls([ln for ln in read_lines(path) if ln != ""])


def build_vocab(corpus: Iterable[Sequence[str]], max_size: int = 50_000) -> Vocab:
    """Frequency-ranked vocabulary of at most ``max_size`` regular tokens.

    Ties in frequency break by first occurrence in the corpus.  Reserved
    specials do not count against ``max_size``.
    """
    if max_size < 0:
        raise ValueError(f"max_size must be non-negative, got {max_size}")
    counts: Counter[str] = Counter()
    first_seen: dict[str, int] = {}
    position = 0
    for sentence in corpus:
        for tok in sentence:
            counts[tok] += 1
            if tok not in first_seen:
                first_seen[tok] = position
            position += 1
    ranked = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))
    return Vocab(ranked[:max_size])


@dataclass(frozen=True)
class ExamplePair:
    """One aligned pair in index space.

    ``source`` and ``target`` carry no PAD; ``target`` ends with exactly one
    EOS.  ``bag`` is the sorted, deduplicated set of non-reserved target
    indices (Eq.-style bag-of-words label for the sentence).
    """

    source: tuple[int, ...]
    target: tuple[int, ...]
    bag: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.source or not self.target:
            raise ValueError("empty source or target")
        if self.target[-1] != EOS or EOS in self.target[:-1]:
            raise ValueError("target must end with exactly one EOS")
        if PAD in self.source or PAD in self.target:
            raise ValueError("PAD inside an example")


def extract_bag(target: Sequence[int]) -> tuple[int, ...]:
    """Bag label for a target index sequence: the sorted set of its
    regular (non-reserved) indices."""
    return tuple(sorted({t for t in target if t > EOS}))


def make_pair(
    src_tokens: Sequence[str],
    tgt_tokens: Sequence[str],
    src_vocab: Vocab,
    tgt_vocab: Vocab,
) -> ExamplePair:
    source = tuple(src_vocab.encode(src_tokens))
    target = tuple(tgt_vocab.encode(tgt_tokens)) + (EOS,)
    return ExamplePair(source, target, extract_bag(target))


@dataclass
class Batch:
    """Padded index matrices plus masks and bag indicators.

    ``source``/``target`` are (B, L)/(B, M) int64 with PAD=0 beyond each
    length.  Masks are float 0/1.  ``bag_indicator`` is (B, V_target) and
    0/1; row i is 1 at the words of pair i's bag.
    """

    source: np.ndarray
    source_lengths: np.ndarray
    source_mask: np.ndarray
    target: np.ndarray
    target_lengths: np.ndarray
    target_mask: np.ndarray
    bag_indicator: np.ndarray

    @property
    def size(self) -> int:
        return self.source.shape[0]


def _pad_matrix(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    width = int(lengths.max())
    mat = np.full((len(rows), width), PAD, dtype=np.int64)
    mask = np.zeros((len(rows), width), dtype=np.float64)
    for i, r in enumerate(rows):
        mat[i, : len(r)] = r
        mask[i, : len(r)] = 1.0
    return mat, lengths, mask


def pack_batch(pairs: Sequence[ExamplePair], tgt_vocab_size: int) -> Batch:
    if not pairs:
        raise ValueError("cannot pack an empty batch")
    src, src_len, src_mask = _pad_matrix([p.source for p in pairs])
    tgt, tgt_len, tgt_mask = _pad_matrix([p.target for p in pairs])
    indicator = np.zeros((len(pairs), tgt_vocab_size), dtype=np.float64)
    for i, p in enumerate(pairs):
        indicator[i, list(p.bag)] = 1.0
    return Batch(src, src_len, src_mask, tgt, tgt_len, tgt_mask, indicator)


def make_batches(
    pairs: Sequence[ExamplePair],
    batch_size: int,
    tgt_vocab_size: int,
    seed: int,
) -> list[Batch]:
    """Shuffle, then sort by source length within chunks, then cut batches.

    The chunk-local sort keeps padding low without freezing the epoch order;
    the shuffle is fully determined by ``seed``.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if not pairs:
        return []
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pairs))
    shuffled = [pairs[i] for i in order]
    chunk = batch_size * SORT_CHUNK_BATCHES
    arranged: list[ExamplePair] = []
    for lo in range(0, len(shuffled), chunk):
        arranged.extend(sorted(shuffled[lo : lo + chunk], key=lambda p: len(p.source)))
    return [
        pack_batch(arranged[lo : lo + batch_size], tgt_vocab_size)
        for lo in range(0, len(arranged), batch_size)
    ]


# ---------------------------------------------------------------------------
# corpus files
# ---------------------------------------------------------------------------


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file, split at newlines only; reading turns
    a carriage return, alone or before a newline, into a newline.
    ``str.splitlines`` would also split at U+2028, U+0085, form feeds and
    the like, and so shift the line pairing of a parallel corpus."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def read_corpus(path: str | Path) -> list[list[str]]:
    """One tokenized sentence per line; blank lines are dropped."""
    out = []
    for line in read_lines(path):
        toks = line.split()
        if toks:
            out.append(toks)
    return out


def write_corpus(path: str | Path, sentences: Iterable[Sequence[str]]) -> None:
    Path(path).write_text(
        "".join(" ".join(s) + "\n" for s in sentences), encoding="utf-8"
    )


def read_parallel(src_path: str | Path, tgt_path: str | Path) -> list[tuple[list[str], list[str]]]:
    """The tokenized line pairs of a parallel corpus, line by line.  A blank
    line is an empty list, so a blank line on one side never shifts the
    pairing of the lines after it."""
    src_lines = read_lines(src_path)
    tgt_lines = read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise ValueError(f"parallel corpus mismatch: {len(src_lines)} vs {len(tgt_lines)} lines")
    return [(s.split(), t.split()) for s, t in zip(src_lines, tgt_lines)]


def encode_pairs(
    lines: Iterable[tuple[Sequence[str], Sequence[str]]],
    src_vocab: Vocab,
    tgt_vocab: Vocab,
    max_length: int = MAX_SENTENCE_LENGTH,
) -> list[ExamplePair]:
    """Line pairs in index space, dropping those with a blank or over-length side."""
    return [
        make_pair(s, t, src_vocab, tgt_vocab)
        for s, t in lines
        if 0 < len(s) <= max_length and 0 < len(t) <= max_length
    ]


def load_pairs(
    src_path: str | Path,
    tgt_path: str | Path,
    src_vocab: Vocab,
    tgt_vocab: Vocab,
    max_length: int = MAX_SENTENCE_LENGTH,
) -> list[ExamplePair]:
    """Read a parallel corpus (``read_parallel``) into index space
    (``encode_pairs``), dropping pairs with a blank or over-length side."""
    return encode_pairs(read_parallel(src_path, tgt_path), src_vocab, tgt_vocab, max_length)


# ---------------------------------------------------------------------------
# toy tasks
# ---------------------------------------------------------------------------

_NUMBER_WORDS = (
    "one", "two", "three", "four", "five", "six", "seven", "eight", "nine",
    "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen",
    "seventeen", "eighteen", "nineteen", "twenty",
)

TOY_TASKS = ("copy", "reverse", "reverse-lexicon")


def toy_lexicon(alphabet_size: int) -> dict[str, str]:
    """Bijection from digit tokens "1".."K" onto number words."""
    words = list(_NUMBER_WORDS) + [f"word{i}" for i in range(21, alphabet_size + 1)]
    return {str(i + 1): words[i] for i in range(alphabet_size)}


@dataclass
class ToyTaskSpec:
    task: str = "reverse-lexicon"
    alphabet_size: int = 20
    min_length: int = 5
    max_length: int = 10
    pairs: int = 2000
    test_pairs: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.task not in TOY_TASKS:
            raise ValueError(f"unknown toy task {self.task!r}; choose from {TOY_TASKS}")
        if not (1 <= self.min_length <= self.max_length):
            raise ValueError("need 1 <= min_length <= max_length")
        if self.alphabet_size < 1 or self.pairs < 1 or self.test_pairs < 0:
            raise ValueError("alphabet_size and pairs must be positive")


def _toy_target(src: list[str], task: str, lexicon: dict[str, str]) -> list[str]:
    if task == "copy":
        return list(src)
    if task == "reverse":
        return list(reversed(src))
    return [lexicon[t] for t in reversed(src)]


def generate_toy_pairs(spec: ToyTaskSpec, count: int, rng: np.random.Generator):
    lexicon = toy_lexicon(spec.alphabet_size)
    srcs, tgts = [], []
    for _ in range(count):
        length = int(rng.integers(spec.min_length, spec.max_length + 1))
        src = [str(int(rng.integers(1, spec.alphabet_size + 1))) for _ in range(length)]
        srcs.append(src)
        tgts.append(_toy_target(src, spec.task, lexicon))
    return srcs, tgts


def generate_toy_corpus(spec: ToyTaskSpec, out_prefix: str | Path) -> dict[str, Path]:
    """Write ``<prefix>.src``/``.tgt`` and, if requested, ``.test`` splits."""
    prefix = Path(out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    train_src, train_tgt = generate_toy_pairs(spec, spec.pairs, rng)
    paths = {
        "train_src": Path(f"{prefix}.src"),
        "train_tgt": Path(f"{prefix}.tgt"),
    }
    write_corpus(paths["train_src"], train_src)
    write_corpus(paths["train_tgt"], train_tgt)
    if spec.test_pairs:
        test_src, test_tgt = generate_toy_pairs(spec, spec.test_pairs, rng)
        paths["test_src"] = Path(f"{prefix}.test.src")
        paths["test_tgt"] = Path(f"{prefix}.test.tgt")
        write_corpus(paths["test_src"], test_src)
        write_corpus(paths["test_tgt"], test_tgt)
    return paths
