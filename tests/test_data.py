"""Vocabulary, batching, and toy-corpus tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowseq.data import (
    BOS,
    EOS,
    PAD,
    UNK,
    ExamplePair,
    ToyTaskSpec,
    Vocab,
    build_vocab,
    extract_bag,
    generate_toy_corpus,
    load_pairs,
    make_batches,
    make_pair,
    pack_batch,
    read_corpus,
    read_parallel,
    toy_lexicon,
    write_corpus,
)

token_strategy = st.text(alphabet="abcdefg", min_size=1, max_size=4)


def regular(v: Vocab) -> list[str]:
    """The vocabulary's tokens after the reserved entries, in index order."""
    return v.decode(range(4, len(v)))


class TestVocab:
    def test_reserved_indices_fixed(self):
        v = Vocab(["cat", "dog"])
        assert (PAD, UNK, BOS, EOS) == (0, 1, 2, 3)
        assert v.index("cat") == 4 and v.index("dog") == 5
        assert v.token(0) == "<pad>" and v.token(3) == "<eos>"

    def test_unknown_token_maps_to_unk(self):
        v = Vocab(["cat"])
        assert v.index("unseen") == UNK
        assert v.encode(["cat", "unseen"]) == [4, UNK]

    def test_frequency_ranking(self):
        corpus = [["b", "a", "a"], ["a", "c", "b"]]
        v = build_vocab(corpus)
        assert regular(v) == ["a", "b", "c"]

    def test_tie_breaks_by_first_occurrence(self):
        # Equal counts: whichever token appears first in the corpus wins.
        assert regular(build_vocab([["b", "a", "b", "a"]])) == ["b", "a"]
        assert regular(build_vocab([["a", "b", "a", "b"]])) == ["a", "b"]

    def test_max_size_truncates_after_ranking(self):
        corpus = [["a"] * 5 + ["b"] * 3 + ["c"]]
        assert regular(build_vocab(corpus, max_size=2)) == ["a", "b"]

    def test_save_load_roundtrip(self, tmp_path):
        v = build_vocab([["x", "y", "x", "z"]])
        path = tmp_path / "v.vocab"
        v.save(path)
        loaded = Vocab.load(path)
        assert regular(loaded) == regular(v)
        assert len(loaded) == len(v)

    def test_duplicate_token_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocab(["tok", "tok"])

    @given(st.lists(token_strategy, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_roundtrip_known_tokens(self, tokens):
        v = build_vocab([tokens])
        assert v.decode(v.encode(tokens)) == tokens


class TestExamplePair:
    def test_target_requires_single_trailing_eos(self):
        with pytest.raises(ValueError, match="EOS"):
            ExamplePair((4,), (5, 6), (5, 6))
        with pytest.raises(ValueError, match="EOS"):
            ExamplePair((4,), (EOS, 5, EOS), (5,))

    def test_no_pad_inside(self):
        with pytest.raises(ValueError, match="PAD"):
            ExamplePair((4, PAD), (5, EOS), (5,))

    def test_make_pair_appends_eos_and_bag(self):
        sv, tv = Vocab(["s1", "s2"]), Vocab(["t1", "t2"])
        pair = make_pair(["s1"], ["t2", "t1", "t2"], sv, tv)
        assert pair.target[-1] == EOS
        assert pair.bag == (4, 5)


class TestExtractBag:
    def test_specials_removed_and_sorted(self):
        assert extract_bag((7, 4, EOS, 7, 5)) == (4, 5, 7)

    def test_repeated_word_appears_once(self):
        assert extract_bag((7, 4, 7, EOS)) == (4, 7)

    def test_all_special_target_gives_empty_bag(self):
        assert extract_bag((EOS,)) == ()

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=30),
           st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, seq, rnd):
        shuffled = list(seq)
        rnd.shuffle(shuffled)
        assert extract_bag(seq) == extract_bag(shuffled)


class TestBatching:
    def _pairs(self, lengths, vocab_size=10):
        rng = np.random.default_rng(0)
        pairs = []
        for n in lengths:
            src = tuple(int(x) for x in rng.integers(4, vocab_size, n))
            tgt = tuple(int(x) for x in rng.integers(4, vocab_size, n)) + (EOS,)
            pairs.append(ExamplePair(src, tgt, extract_bag(tgt)))
        return pairs

    def test_rows_decode_back_to_pairs(self):
        pairs = self._pairs([3, 5, 2])
        batch = pack_batch(pairs, 10)
        for i, pair in enumerate(pairs):
            row = batch.source[i]
            assert tuple(row[row != PAD]) == pair.source
            trow = batch.target[i]
            assert tuple(trow[: batch.target_lengths[i]]) == pair.target

    def test_masks_flag_real_positions(self):
        batch = pack_batch(self._pairs([2, 4]), 10)
        np.testing.assert_array_equal(batch.source_mask.sum(axis=1), [2, 4])
        np.testing.assert_array_equal(
            batch.target_mask.sum(axis=1), batch.target_lengths.astype(float)
        )

    def test_bag_indicator_counts(self):
        pairs = self._pairs([3])
        batch = pack_batch(pairs, 10)
        assert batch.bag_indicator.shape == (1, 10)
        assert batch.bag_indicator[0].sum() == len(pairs[0].bag)
        assert set(np.nonzero(batch.bag_indicator[0])[0]) == set(pairs[0].bag)

    def test_repeated_bag_word_packs_to_one(self):
        """The indicator is 0/1 even for a pair built with a repeated bag word."""
        batch = pack_batch([ExamplePair((4,), (5, 6, 5, EOS), (5, 5, 6))], 8)
        np.testing.assert_array_equal(batch.bag_indicator, [[0, 0, 0, 0, 0, 1, 1, 0]])

    def test_single_example_single_batch(self):
        batches = make_batches(self._pairs([4]), batch_size=8, tgt_vocab_size=10, seed=1)
        assert len(batches) == 1 and batches[0].size == 1

    def test_empty_corpus_no_batches(self):
        assert make_batches([], 4, 10, seed=0) == []

    def test_shuffle_deterministic_in_seed(self):
        # Equal lengths: the stable in-chunk sort preserves the shuffled order.
        pairs = self._pairs([5] * 12)
        a = make_batches(pairs, 3, 10, seed=7)
        b = make_batches(pairs, 3, 10, seed=7)
        c = make_batches(pairs, 3, 10, seed=8)
        flat = lambda bs: [tuple(row) for batch in bs for row in batch.source]
        assert flat(a) == flat(b)
        assert flat(a) != flat(c)

    def test_chunk_sorting_groups_similar_lengths(self):
        pairs = self._pairs(list(range(2, 42)))
        batches = make_batches(pairs, 4, 10, seed=0)
        for batch in batches:
            lengths = batch.source_mask.sum(axis=1)
            assert lengths.max() - lengths.min() <= 39  # sanity
            assert sorted(lengths.tolist()) == lengths.tolist()

    def test_every_pair_kept_exactly_once(self):
        pairs = self._pairs([3, 4, 5, 6, 7])
        batches = make_batches(pairs, 2, 10, seed=3)
        seen = sorted(
            tuple(row[row != PAD]) for batch in batches for row in batch.source
        )
        assert seen == sorted(p.source for p in pairs)


class TestCorpusFiles:
    def test_write_read_roundtrip(self, tmp_path):
        sentences = [["a", "b"], ["c"]]
        path = tmp_path / "c.txt"
        write_corpus(path, sentences)
        assert read_corpus(path) == sentences

    def test_load_pairs_drops_overlength(self, tmp_path):
        write_corpus(tmp_path / "s.txt", [["a"] * 3, ["a"] * 9])
        write_corpus(tmp_path / "t.txt", [["b"] * 3, ["b"] * 2])
        v = Vocab(["a", "b"])
        pairs = load_pairs(tmp_path / "s.txt", tmp_path / "t.txt", v, v, max_length=5)
        assert len(pairs) == 1 and len(pairs[0].source) == 3

    def test_load_pairs_mismatched_sides(self, tmp_path):
        write_corpus(tmp_path / "s.txt", [["a"], ["a"]])
        write_corpus(tmp_path / "t.txt", [["b"]])
        v = Vocab(["a", "b"])
        with pytest.raises(ValueError, match="mismatch"):
            load_pairs(tmp_path / "s.txt", tmp_path / "t.txt", v, v)

    def test_blank_lines_keep_the_sides_aligned(self, tmp_path):
        """Lines pair by position; a pair with a blank side is dropped and
        shifts no later pair."""
        (tmp_path / "s.txt").write_text("a\n\nb\nc\n", encoding="utf-8")
        (tmp_path / "t.txt").write_text("x\ny\n\nz\n", encoding="utf-8")
        v = Vocab(["a", "b", "c", "x", "y", "z"])
        pairs = load_pairs(tmp_path / "s.txt", tmp_path / "t.txt", v, v)
        assert [(v.decode(p.source), v.decode(p.target)) for p in pairs] == [
            (["a"], ["x"]), (["c"], ["z"])
        ]

    def test_only_newlines_end_a_line(self, tmp_path):
        """U+2028, U+0085 and the other characters ``str.splitlines`` breaks at
        stay inside their line, where they separate tokens, so no pair shifts."""
        (tmp_path / "s.txt").write_text("x y\u2028z\nw v\nq r\n", encoding="utf-8")
        (tmp_path / "t.txt").write_text("one two three\nfour five\nsix\x85seven\n",
                                        encoding="utf-8")
        assert read_parallel(tmp_path / "s.txt", tmp_path / "t.txt") == [
            (["x", "y", "z"], ["one", "two", "three"]),
            (["w", "v"], ["four", "five"]),
            (["q", "r"], ["six", "seven"]),
        ]


class TestToyTasks:
    def test_lexicon_is_a_bijection(self):
        lex = toy_lexicon(25)
        assert len(lex) == 25
        assert len(set(lex.values())) == 25
        assert lex["1"] == "one" and lex["20"] == "twenty" and lex["21"] == "word21"

    def test_reverse_lexicon_targets(self, tmp_path):
        spec = ToyTaskSpec(task="reverse-lexicon", alphabet_size=5, min_length=3,
                           max_length=6, pairs=40, test_pairs=10, seed=11)
        paths = generate_toy_corpus(spec, tmp_path / "toy")
        src = read_corpus(paths["train_src"])
        tgt = read_corpus(paths["train_tgt"])
        lex = toy_lexicon(5)
        assert len(src) == 40 and len(tgt) == 40
        for s, t in zip(src, tgt):
            assert [lex[tok] for tok in reversed(s)] == t

    def test_source_and_target_vocabularies_disjoint(self, tmp_path):
        spec = ToyTaskSpec(alphabet_size=8, min_length=2, max_length=4, pairs=30,
                           test_pairs=0, seed=0)
        paths = generate_toy_corpus(spec, tmp_path / "toy")
        src_tokens = {t for s in read_corpus(paths["train_src"]) for t in s}
        tgt_tokens = {t for s in read_corpus(paths["train_tgt"]) for t in s}
        assert src_tokens.isdisjoint(tgt_tokens)

    def test_test_split_written_and_sized(self, tmp_path):
        spec = ToyTaskSpec(pairs=12, test_pairs=5, min_length=2, max_length=3, seed=1)
        paths = generate_toy_corpus(spec, tmp_path / "toy")
        assert len(read_corpus(paths["test_src"])) == 5
        assert len(read_corpus(paths["test_tgt"])) == 5

    def test_lengths_respect_bounds(self, tmp_path):
        spec = ToyTaskSpec(min_length=4, max_length=7, pairs=60, test_pairs=0, seed=3)
        paths = generate_toy_corpus(spec, tmp_path / "toy")
        lengths = {len(s) for s in read_corpus(paths["train_src"])}
        assert lengths <= set(range(4, 8)) and lengths
        for s, t in zip(read_corpus(paths["train_src"]), read_corpus(paths["train_tgt"])):
            assert len(s) == len(t)

    def test_generation_deterministic_in_seed(self, tmp_path):
        spec = ToyTaskSpec(pairs=15, test_pairs=0, seed=42)
        a = generate_toy_corpus(spec, tmp_path / "a")
        b = generate_toy_corpus(spec, tmp_path / "b")
        assert a["train_src"].read_text() == b["train_src"].read_text()
        assert a["train_tgt"].read_text() == b["train_tgt"].read_text()

    def test_copy_task_copies(self, tmp_path):
        spec = ToyTaskSpec(task="copy", pairs=10, test_pairs=0, seed=2,
                           min_length=2, max_length=4)
        paths = generate_toy_corpus(spec, tmp_path / "toy")
        assert read_corpus(paths["train_src"]) == read_corpus(paths["train_tgt"])

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown toy task"):
            ToyTaskSpec(task="sort")
