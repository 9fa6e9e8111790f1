import dataclasses
import hashlib
import json
import math
import unicodedata
from collections import Counter

import numpy as np
import pytest

from qrag import tokenizer
from qrag.tokenizer import (
    WORD_END,
    TokenSeq,
    TokenizerModel,
    normalize,
    pretokenize,
    train_bpe,
)

# The six precomposed Gurmukhi nukta letters are Unicode composition
# exclusions: NFC rewrites them as base letter + U+0A3C.
NUKTA_DECOMPOSITIONS = {
    "ਲ਼": "ਲ਼",
    "ਸ਼": "ਸ਼",
    "ਖ਼": "ਖ਼",
    "ਗ਼": "ਗ਼",
    "ਜ਼": "ਜ਼",
    "ਫ਼": "ਫ਼",
}


class TestNormalize:
    def test_precomposed_khha_decomposes(self):
        assert normalize("ਖ਼") == "ਖ਼"

    @pytest.mark.parametrize("src,expected", sorted(NUKTA_DECOMPOSITIONS.items()))
    def test_nukta_letters(self, src, expected):
        assert normalize(src) == expected

    def test_gurmukhi_block_matches_unicode_reference(self):
        for cp in range(0x0A00, 0x0A80):
            ch = chr(cp)
            assert normalize(ch) == unicodedata.normalize("NFC", ch)

    def test_whitespace_collapse_and_trim(self):
        assert normalize("  a  b ") == "a b"
        assert normalize("a\t\n b") == "a b"

    def test_idempotent_on_random_strings(self):
        rng = np.random.default_rng(42)
        pool = list("ab ਸਤਿਨਾਮ\t\nਖ਼ .,!x")
        for _ in range(500):
            s = "".join(rng.choice(pool, size=rng.integers(0, 40)))
            once = normalize(s)
            assert normalize(once) == once


class TestPretokenize:
    def test_punctuation_split_keeps_marker_on_last_piece(self):
        assert pretokenize("ab, cd") == ["ab", ",</w>", "cd</w>"]

    def test_whole_word_gets_marker(self):
        assert pretokenize("ab") == ["ab</w>"]

    def test_combining_marks_stay_with_base(self):
        # U+0A3F is a vowel sign (Mc); it must not split from its consonant.
        assert pretokenize("ਸਿ.") == ["ਸਿ", ".</w>"]

    def test_split_gives_codepoint_symbols_marker_fused_into_the_last(self):
        assert tokenizer._split("a!!bc") == [["a"], ["!", "!"], ["b", "c</w>"]]
        assert tokenizer._split("!") == [["!</w>"]]


class TestTrainBpe:
    def test_first_merge_most_frequent_pair(self):
        # words {"ab" x2, "abc" x1}: with the marker fused into the final
        # codepoint, ("a","b</w>") occurs twice and ("a","b") once.
        model = train_bpe(["ab ab abc"], vocab_size=100)
        assert model.merges[0] == ("a", "b</w>")

    def test_repeated_word_merges_with_marker(self):
        model = train_bpe(["aa aa aa"], vocab_size=5)
        assert model.merges == [("a", "a</w>")]

    def test_zero_merge_budget_gives_codepoint_model(self):
        # initial symbols of "ab ab abc": a, b, b</w>, c</w> -> 4 + 2 specials
        model = train_bpe(["ab ab abc"], vocab_size=6)
        assert model.merges == []
        assert model.vocab_size() == 6

    def test_tie_breaks_lexicographically(self):
        # ("a","b</w>") and ("x","y</w>") both occur twice.
        model = train_bpe(["xy xy ab ab"], vocab_size=100)
        assert model.merges[0] == ("a", "b</w>")

    def test_pair_threshold_stops_merging(self):
        # No pair repeats: no merges, whatever the budget.
        model = train_bpe(["ab cd ef"], vocab_size=1000)
        assert model.merges == []

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            train_bpe(["", "   "], vocab_size=100)

    def test_vocab_size_too_small_rejected(self):
        with pytest.raises(ValueError, match="vocab_size too small"):
            train_bpe(["ab ab"], vocab_size=3)

    @pytest.mark.parametrize("vocab_size", [math.nan, 0, -5, True, 500.0, math.inf])
    def test_vocab_size_that_is_not_a_positive_int_rejected(self, vocab_size):
        with pytest.raises(ValueError, match="vocab_size must be an int >= 1"):
            train_bpe(["ab ab"], vocab_size=vocab_size)

    def test_ids_dense_and_merge_outputs_in_vocab(self, synth_tokenizer):
        model = synth_tokenizer
        assert sorted(model.vocab.values()) == list(range(model.vocab_size()))
        for left, right in model.merges:
            assert left + right in model.vocab

    def test_training_matches_the_pinned_model(self, synth_lines):
        # Pinned from a trainer that counted every pretokenized piece of
        # every line: counting whitespace tokens first must not change it.
        model = train_bpe(synth_lines[:80], vocab_size=3000)
        digest = hashlib.sha256(model.to_json().encode("utf-8")).hexdigest()
        assert digest == "155ee6da0aad5d0f6ad287c6bd58b1b2c9e4cd3fd034866647c614270c2d38b9"

    def test_training_splits_each_distinct_token_once(self, synth_lines, monkeypatch):
        calls: Counter[str] = Counter()
        split = tokenizer._split

        def counting_split(token):
            calls[token] += 1
            return split(token)

        monkeypatch.setattr(tokenizer, "_split", counting_split)
        train_bpe(synth_lines[:80], vocab_size=3000)
        tokens = {t for line in synth_lines[:80] for t in normalize(line).split()}
        assert set(calls) == tokens
        assert set(calls.values()) == {1}

    def test_training_is_deterministic(self, synth_lines):
        a = train_bpe(synth_lines[:100], vocab_size=2000)
        b = train_bpe(synth_lines[:100], vocab_size=2000)
        assert a.merges == b.merges
        assert a.vocab == b.vocab


def _hand_model():
    vocab = {"<unk>": 0, "<pad>": 1, "a": 2, "ab": 3, "b": 4, "c</w>": 5}
    return TokenizerModel(vocab=vocab, merges=[("a", "b")])


class TestEncode:
    def test_merge_application(self):
        seq = _hand_model().encode("abc")
        assert seq.surface == ["ab", "c</w>"]

    def test_empty_string(self):
        seq = _hand_model().encode("")
        assert len(seq) == 0

    def test_training_word_encodes_to_merged_form(self):
        model = train_bpe(["ਸਤ ਸਤ ਸਤ"], vocab_size=50)
        seq = model.encode("ਸਤ")
        assert seq.surface == ["ਸਤ</w>"]

    def test_out_of_vocab_maps_to_unk(self):
        model = train_bpe(["ab ab"], vocab_size=20)
        seq = model.encode("zzz")
        assert all(i == model.unk_id for i in seq.ids)

    def test_symbol_outside_the_vocab_gives_unk_id_and_surface(self):
        seq = _hand_model().encode("abz c")
        assert seq.ids == [3, 0, 5]
        assert seq.surface == ["ab", "<unk>", "c</w>"]

    def test_word_cache_holds_the_vocab_dicts_ids(self, synth_tokenizer, synth_lines):
        model = TokenizerModel(vocab=synth_tokenizer.vocab, merges=synth_tokenizer.merges)
        seq = model.encode(" ".join(synth_lines[:5]))
        assert seq.surface == synth_tokenizer.encode(" ".join(synth_lines[:5])).surface
        # The vocab's own int objects, not fresh ints or symbol strings.
        vocab_ints = {id(v) for v in model.vocab.values()}
        cached = [i for ids in model._word_cache.values() for i in ids]
        assert cached and all(id(i) in vocab_ints for i in cached)

    def test_deterministic(self, synth_tokenizer, synth_lines):
        a = synth_tokenizer.encode(synth_lines[0])
        b = synth_tokenizer.encode(synth_lines[0])
        assert a.ids == b.ids and a.surface == b.surface

    def test_merge_monotonicity(self, synth_lines):
        # Appending merges never increases the token count of any text.
        full = train_bpe(synth_lines[:80], vocab_size=3000)
        lengths = []
        for n_merges in (0, 5, 20, 100, len(full.merges)):
            truncated = _truncate_model(full, n_merges)
            lengths.append(sum(len(truncated.encode(line)) for line in synth_lines[:20]))
        assert all(a >= b for a, b in zip(lengths, lengths[1:]))

    def test_word_cache_is_bounded(self, synth_lines, monkeypatch):
        rng = np.random.default_rng(3)
        letters = [chr(c) for c in range(0x0A15, 0x0A39)]
        junk = [
            "".join(rng.choice(letters, size=int(rng.integers(3, 9))))
            for _ in range(2000)
        ]
        reference = train_bpe(synth_lines[:80], vocab_size=3000)
        expected = [reference.encode(w).ids for w in junk]
        monkeypatch.setattr(tokenizer, "WORD_CACHE_MAX", 50, raising=False)
        model = train_bpe(synth_lines[:80], vocab_size=3000)
        assert [model.encode(w).ids for w in junk] == expected
        assert len(model._word_cache) <= 50


def _reference_encode(model: TokenizerModel, text: str) -> TokenSeq:
    """The per-piece encoder the token-keyed one replaced, with no cache:
    a per-character run loop splits each whitespace token at punctuation
    boundaries, the last piece gets the marker, and each piece is split into
    codepoints (marker fused back into the last) and merged on its own."""

    def punct(ch: str) -> bool:
        return unicodedata.category(ch).startswith("P")

    ranks = {pair: i for i, pair in enumerate(model.merges)}
    by_id = {i: tok for tok, i in model.vocab.items()}
    ids: list[int] = []
    for token in normalize(text).split(" "):
        if not token:
            continue
        pieces: list[str] = []
        run = [token[0]]
        for prev, ch in zip(token, token[1:]):
            if punct(ch) != punct(prev):
                pieces.append("".join(run))
                run = [ch]
            else:
                run.append(ch)
        pieces.append("".join(run))
        for word in pieces[:-1] + [pieces[-1] + WORD_END]:
            if word.endswith(WORD_END):
                symbols = list(word[: -len(WORD_END)])
                symbols[-1] += WORD_END
            else:
                symbols = list(word)
            while len(symbols) > 1:
                pairs = [p for p in zip(symbols, symbols[1:]) if p in ranks]
                if not pairs:
                    break
                a, b = min(pairs, key=ranks.__getitem__)
                merged: list[str] = []
                i = 0
                while i < len(symbols):
                    if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == (a, b):
                        merged.append(a + b)
                        i += 2
                    else:
                        merged.append(symbols[i])
                        i += 1
                symbols = merged
            ids += [model.vocab.get(sym, model.unk_id) for sym in symbols]
    return TokenSeq(ids, [by_id[i] for i in ids])


REFERENCE_CASES = {
    "punct_run": "a!!b",
    "punct_edges": "ਸਤ!!ਨਾਮ ..ਸਤ ਨਾਮ.. ! ?? (ਸਤਿ)",
    "vowel_sign": "ਸਿ ਕਿ. ਿਸ \u0a3f",
    "nukta": "ਖ਼ਾਲਸਾ ਸ਼ਬਦ ਲ਼ ਗ਼ ਜ਼ ਫ਼ \u0a33 \u0a36 \u0a59 \u0a5e",
    "outside_vocab": "zzz ਸਤ€ ਙਞ \u00e9 q!q",
    "unicode_space": "ਸਤ\u00a0ਨਾਮ\u2028ਕਰ\u0085ਤਾ \u00a0 \u2028",
    "literal_marker": "a</w>b",
    "empty": "",
    "spaces": "   ",
    "unicode_spaces": "\u00a0\u2028\u0085",
}


@pytest.fixture(scope="module")
def boundary_model(synth_tokenizer):
    """The synthetic model plus a merge of every adjacent codepoint pair in
    the hard cases, across punctuation boundaries too, so an encoder that
    splits a token anywhere the reference does not merges differently."""
    vocab = dict(synth_tokenizer.vocab)
    merges = list(synth_tokenizer.merges)
    for text in REFERENCE_CASES.values():
        for token in normalize(text).split():
            symbols = list(token)
            symbols[-1] += WORD_END
            for pair in zip(symbols, symbols[1:]):
                if pair not in merges:
                    merges.append(pair)
                    vocab.setdefault(pair[0] + pair[1], len(vocab))
    return TokenizerModel(vocab=vocab, merges=merges)


class TestAgainstReferenceEncoder:
    @pytest.mark.parametrize("text", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
    @pytest.mark.parametrize("which", ["trained", "boundary"])
    def test_hard_cases(self, synth_tokenizer, boundary_model, which, text):
        base = synth_tokenizer if which == "trained" else boundary_model
        model = TokenizerModel(vocab=base.vocab, merges=base.merges)
        expected = _reference_encode(model, text)
        for _ in range(2):  # cold, then from the cache
            seq = model.encode(text)
            assert seq.ids == expected.ids and seq.surface == expected.surface

    def test_corpus_lines(self, synth_tokenizer, synth_lines):
        model = TokenizerModel(vocab=synth_tokenizer.vocab, merges=synth_tokenizer.merges)
        for line in synth_lines + [" ".join(synth_lines[:40])]:
            expected = _reference_encode(model, line)
            seq = model.encode(line)
            assert seq.ids == expected.ids and seq.surface == expected.surface


class TestWordCache:
    def test_keyed_on_the_whitespace_token(self):
        model = _hand_model()
        model.encode("abz c")
        assert model._word_cache == {"abz": [3, 0], "c": [5]}

    def test_cached_tokens_are_not_split_again(self, synth_tokenizer, synth_lines, monkeypatch):
        model = TokenizerModel(vocab=synth_tokenizer.vocab, merges=synth_tokenizer.merges)
        text = " ".join(synth_lines[:5])
        first = model.encode(text)
        calls: list[str] = []
        is_punct = tokenizer._is_punct
        monkeypatch.setattr(tokenizer, "_is_punct", lambda ch: calls.append(ch) or is_punct(ch))
        assert model.encode(text).ids == first.ids
        assert calls == []
        model.encode("ਙਞ!")  # a token not yet seen is split
        assert calls == ["ਙ", "ਞ", "!"]


def _truncate_model(model: TokenizerModel, n_merges: int) -> TokenizerModel:
    """Rebuild a model restricted to the first n merges of a trained one."""
    merges = model.merges[:n_merges]
    singles = sorted(
        s
        for s in model.vocab
        if s not in model.special_tokens and _is_initial(s, WORD_END)
    )
    vocab: dict[str, int] = {}
    for tok in model.special_tokens + singles:
        vocab[tok] = len(vocab)
    for left, right in merges:
        out = left + right
        if out not in vocab:
            vocab[out] = len(vocab)
    return TokenizerModel(vocab=vocab, merges=merges)


def _is_initial(symbol: str, marker: str) -> bool:
    stem = symbol[: -len(marker)] if symbol.endswith(marker) else symbol
    return len(stem) == 1


class TestDecode:
    def test_inverse_of_encode_example(self):
        model = _hand_model()
        assert model.decode(TokenSeq([3, 5], ["ab", "c</w>"])) == "abc"

    def test_empty_sequence(self):
        assert _hand_model().decode(TokenSeq([], [])) == ""

    def test_id_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            _hand_model().decode(TokenSeq([99], ["ab"]))

    def test_round_trip_on_corpus_lines(self, synth_tokenizer, synth_lines):
        for line in synth_lines[:100]:
            assert synth_tokenizer.decode(synth_tokenizer.encode(line)) == normalize(line)

    def test_round_trip_with_punctuation_and_literal_marker(self):
        model = train_bpe(["ab, xy . a</w>b ab"], vocab_size=200)
        for text in ["ab, xy", "a</w>b", ". ab ,"]:
            assert model.decode(model.encode(text)) == normalize(text)


class TestSerialization:
    def test_round_trip_preserves_encodings(self, synth_tokenizer, synth_lines, tmp_path):
        path = tmp_path / "tokenizer.json"
        synth_tokenizer.save(path)
        reloaded = TokenizerModel.load(path)
        for line in synth_lines[200:250]:
            a = synth_tokenizer.encode(line)
            b = reloaded.encode(line)
            assert a.ids == b.ids and a.surface == b.surface

    def test_wire_format_fields(self, synth_tokenizer, tmp_path):
        path = tmp_path / "tokenizer.json"
        synth_tokenizer.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["version"] == 1
        assert payload["normalization"] == "nfc_collapse"
        assert payload["word_end_marker"] == "</w>"
        assert isinstance(payload["vocab"], dict)
        assert all(len(pair) == 2 for pair in payload["merges"])
        assert payload["special"]["unk"] == synth_tokenizer.unk_id

    def test_unsupported_version_rejected(self):
        with pytest.raises(ValueError, match="unsupported version"):
            TokenizerModel.from_json('{"version": 99}')

    @pytest.mark.parametrize("key, value", [("normalization", "nfkc"), ("word_end_marker", "@@")])
    def test_other_normalization_or_marker_rejected(self, key, value):
        # A model always encodes and decodes with NFC collapsing and WORD_END,
        # so a file naming others is refused rather than read and not followed.
        payload = json.loads(train_bpe(["ab ab cd"], vocab_size=20).to_json())
        payload[key] = value
        with pytest.raises(ValueError, match=f"unsupported {key}"):
            TokenizerModel.from_json(json.dumps(payload))

    def test_only_vocab_and_merges_are_settable(self):
        settable = [f.name for f in dataclasses.fields(TokenizerModel) if f.init]
        assert settable == ["vocab", "merges"]

    def test_equality_ignores_the_caches(self):
        a = train_bpe(["ab ab cd"], vocab_size=20)
        b = TokenizerModel.from_json(a.to_json())
        assert a == b
        a.encode("ab")
        assert a == b
