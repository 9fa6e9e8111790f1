import dataclasses
import hashlib
import json
import math
import re
import sys
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qrag import synthetic, tokenizer
from qrag.tokenizer import (
    WORD_END,
    TokenizerModel,
    normalize,
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

    def test_every_whitespace_codepoint_is_collapsed_as_the_regex_did(self):
        # ``normalize`` splits with ``str.split``; before, it collapsed runs of
        # the regex ``\s+``. Both test ``str.isspace``, so they must agree on
        # every codepoint, alone and in mixed runs.
        spaces = [chr(cp) for cp in range(sys.maxunicode + 1) if chr(cp).isspace()]
        assert re.fullmatch(r"\s+", "".join(spaces))
        assert not re.search(r"\s", "".join(
            chr(cp) for cp in range(sys.maxunicode + 1) if not chr(cp).isspace()
        ))
        rng = np.random.default_rng(44)
        texts = [f"a{ch}ਸ" for ch in spaces] + [f"{ch}x{ch}{ch}y{ch}" for ch in spaces]
        pool = [*spaces, "a", "ਸਤਿ", "ਖ਼", ".", "\u0a3c"]
        texts += ["".join(rng.choice(pool, size=rng.integers(0, 30))) for _ in range(500)]
        model = _hand_model()
        for text in texts:
            want = re.sub(r"\s+", " ", unicodedata.normalize("NFC", text)).strip()
            assert normalize(text) == want, ascii(text)
            assert model.encode(text) == model.encode(want), ascii(text)

    def test_idempotent_on_random_strings(self):
        rng = np.random.default_rng(42)
        pool = list("ab ਸਤਿਨਾਮ\t\nਖ਼ .,!x")
        for _ in range(500):
            s = "".join(rng.choice(pool, size=rng.integers(0, 40)))
            once = normalize(s)
            assert normalize(once) == once


def _pieces(text):
    """Each whitespace token's BPE words, as ``_split`` gives them, joined."""
    return ["".join(word) for token in text.split() for word in tokenizer._split(token)]


class TestPretokenize:
    def test_punctuation_split_keeps_marker_on_last_piece(self):
        assert _pieces("ab, cd") == ["ab", ",</w>", "cd</w>"]

    def test_whole_word_gets_marker(self):
        assert _pieces("ab") == ["ab</w>"]

    def test_combining_marks_stay_with_base(self):
        # U+0A3F is a vowel sign (Mc); it must not split from its consonant.
        assert _pieces("ਸਿ.") == ["ਸਿ", ".</w>"]

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
        # initial symbols of "ab ab abc": both forms of a, b and c, though no
        # word ends in a -> 6 + 2 specials
        model = train_bpe(["ab ab abc"], vocab_size=8)
        assert model.merges == []
        assert model.vocab_size() == 8
        assert {"a", "a</w>"} <= set(model.vocab)

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
        # Pinned again when the base symbols became both forms of every
        # codepoint seen.
        model = train_bpe(synth_lines[:80], vocab_size=3000)
        digest = hashlib.sha256(model.to_json().encode("utf-8")).hexdigest()
        assert digest == "3e9be0ac2f226d44b6105705b43e8d160cff37ec9b94d02612fd83ea16a406ac"

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
        model = _hand_model()
        assert [model.tokens[i] for i in model.encode("abc")] == ["ab", "c</w>"]

    def test_empty_string(self):
        assert _hand_model().encode("") == []

    def test_training_word_encodes_to_merged_form(self):
        model = train_bpe(["ਸਤ ਸਤ ਸਤ"], vocab_size=50)
        assert [model.tokens[i] for i in model.encode("ਸਤ")] == ["ਸਤ</w>"]

    def test_out_of_vocab_maps_to_unk(self):
        model = train_bpe(["ab ab"], vocab_size=20)
        assert all(i == model.unk_id for i in model.encode("zzz"))

    def test_symbol_outside_the_vocab_gives_unk_id_and_surface(self):
        model = _hand_model()
        ids = model.encode("abz c")
        assert ids == [3, 0, 5]
        assert [model.tokens[i] for i in ids] == ["ab", "<unk>", "c</w>"]

    @settings(max_examples=300)
    @given(a=st.text(), b=st.text())
    def test_token_counts_add_across_a_space(self, small_engine, a, b):
        # format_context counts a context as the sum of what it joins.
        tok = small_engine[0].tokenizer
        assert tok.token_count(a + " " + b) == tok.token_count(a) + tok.token_count(b)

    def test_word_cache_holds_the_vocab_dicts_ids(self, synth_tokenizer, synth_lines):
        model = TokenizerModel(vocab=synth_tokenizer.vocab, merges=synth_tokenizer.merges)
        ids = model.encode(" ".join(synth_lines[:5]))
        assert ids == synth_tokenizer.encode(" ".join(synth_lines[:5]))
        # The vocab's own int objects, not fresh ints or symbol strings.
        vocab_ints = {id(v) for v in model.vocab.values()}
        cached = [i for ids in model._word_cache.values() for i in ids]
        assert cached and all(id(i) in vocab_ints for i in cached)

    def test_deterministic(self, synth_tokenizer, synth_lines):
        assert synth_tokenizer.encode(synth_lines[0]) == synth_tokenizer.encode(synth_lines[0])

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
        expected = [reference.encode(w) for w in junk]
        monkeypatch.setattr(tokenizer, "WORD_CACHE_MAX", 50, raising=False)
        model = train_bpe(synth_lines[:80], vocab_size=3000)
        assert [model.encode(w) for w in junk] == expected
        assert len(model._word_cache) <= 50


def _reference_encode(model: TokenizerModel, text: str) -> list[int]:
    """The per-piece encoder the token-keyed one replaced, with no cache:
    a per-character run loop splits each whitespace token at punctuation
    boundaries, the last piece gets the marker, and each piece is split into
    codepoints (marker fused back into the last) and merged on its own."""

    def punct(ch: str) -> bool:
        return unicodedata.category(ch).startswith("P")

    ranks = {pair: i for i, pair in enumerate(model.merges)}
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
    return ids


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
            assert model.encode(text) == expected

    def test_corpus_lines(self, synth_tokenizer, synth_lines):
        model = TokenizerModel(vocab=synth_tokenizer.vocab, merges=synth_tokenizer.merges)
        for line in synth_lines + [" ".join(synth_lines[:40])]:
            assert model.encode(line) == _reference_encode(model, line)


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
        assert model.encode(text) == first
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


@pytest.fixture(scope="module")
def lacking_a_form():
    """A model, and its training lines, of a corpus that ends no word with
    some of its codepoints: ਯ occurs 384 times, never last in a word."""
    lines = [r["text"] for r in synthetic.make_corpus(200, seed=5, lexicon_size=300)]
    assert not any(w.endswith("ਯ") for line in lines for w in line.split())
    return train_bpe(lines, vocab_size=400), lines


class TestDecode:
    def test_inverse_of_encode_example(self):
        model = _hand_model()
        assert model.decode([3, 5]) == "abc"

    def test_empty_sequence(self):
        assert _hand_model().decode([]) == ""

    def test_id_out_of_range(self):
        for ids, bad in (([99], 99), ([3, -1, 5], -1), ([3, 6], 6)):
            with pytest.raises(ValueError, match=f"token id out of range: {bad}$"):
                _hand_model().decode(ids)

    def test_equals_each_tokens_piece_joined(self, synth_tokenizer, synth_lines):
        # The rule the per-id table holds: a token's word-end marker is a space.
        def reference(model, ids):
            pieces = [model.tokens[i] for i in ids]
            return "".join(
                t[: -len(WORD_END)] + " " if t.endswith(WORD_END) else t for t in pieces
            ).strip()

        marker = train_bpe(["ab, xy . a</w>b a</w>b ab"], vocab_size=200)
        cases = [(synth_tokenizer, synth_tokenizer.encode(line)) for line in synth_lines[:50]]
        # Every id, the special tokens and any holding a literal marker too.
        cases += [(m, list(range(m.vocab_size()))) for m in (synth_tokenizer, marker)]
        for model, ids in cases:
            assert model.decode(ids) == reference(model, ids)

    def test_round_trip_on_corpus_lines(self, synth_tokenizer, synth_lines):
        for line in synth_lines[:100]:
            assert synth_tokenizer.decode(synth_tokenizer.encode(line)) == normalize(line)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_round_trip_over_codepoints_with_both_forms(self, lacking_a_form, data):
        # The contract holds for every codepoint seen in training, inside a
        # word and at its end, though the corpus ends no word with some of
        # them: training gives each both forms, c and c</w>.
        tok, lines = lacking_a_form
        seen = sorted(set("".join(lines).replace(" ", "")))
        text = data.draw(st.text(st.sampled_from(seen + [" ", "\t", "\n"])))
        assume(set(normalize(text)) <= {" ", *seen})
        assert tok.decode(tok.encode(text)) == normalize(text)

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
            assert synth_tokenizer.encode(line) == reloaded.encode(line)

    def test_wire_format_fields(self, synth_tokenizer, tmp_path):
        path = tmp_path / "tokenizer.json"
        synth_tokenizer.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["version"] == 1
        assert payload["normalization"] == "nfc_collapse"
        assert payload["word_end_marker"] == "</w>"
        assert isinstance(payload["vocab"], dict)
        assert all(len(pair) == 2 for pair in payload["merges"])
        # The special tokens are in the vocab; nothing else names their ids.
        assert set(payload) == {"version", "normalization", "word_end_marker", "vocab", "merges"}

    def test_a_file_that_names_the_special_ids_still_loads(self):
        model = train_bpe(["ab ab cd"], vocab_size=20)
        payload = json.loads(model.to_json())
        payload["special"] = {"unk": model.unk_id, "pad": model.vocab["<pad>"]}
        assert TokenizerModel.from_json(json.dumps(payload)) == model

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


def _payload(change):
    payload = json.loads(train_bpe(["ab ab cd"], vocab_size=20).to_json())
    change(payload)
    return payload


# Each JSON value that is not a model, and the refusal, which names the key.
SHAPE_FAULTS = {
    "a_list": ([], "^expected a JSON object, got list$"),
    "an_empty_object": ({}, "^unsupported version: None$"),
    "no_vocab": (_payload(lambda p: p.pop("vocab")), "^vocab must be an object of int ids$"),
    "no_merges": (
        _payload(lambda p: p.pop("merges")), "^merges must be a list of pairs of strings$"
    ),
    "a_vocab_list": (
        _payload(lambda p: p.update(vocab=["<unk>"])), "^vocab must be an object of int ids$"
    ),
    "a_float_id": (
        _payload(lambda p: p["vocab"].update(a=1.9)), "^vocab must be an object of int ids$"
    ),
    "a_bool_id": (
        _payload(lambda p: p["vocab"].update(a=True)), "^vocab must be an object of int ids$"
    ),
    "a_string_id": (
        _payload(lambda p: p["vocab"].update(a="1")), "^vocab must be an object of int ids$"
    ),
    "no_unk": (
        # The ids stay dense from 0: only the token is missing.
        _payload(lambda p: p["vocab"].update({"<unk?>": p["vocab"].pop("<unk>")})),
        "^vocab must hold <unk> and <pad>$",
    ),
    "no_pad": (
        # The ids stay dense from 0: only the token is missing.
        _payload(lambda p: p["vocab"].update({"<pad?>": p["vocab"].pop("<pad>")})),
        "^vocab must hold <unk> and <pad>$",
    ),
    "merges_an_object": (
        _payload(lambda p: p.update(merges={})), "^merges must be a list of pairs of strings$"
    ),
    "a_3_item_merge": (
        _payload(lambda p: p["merges"][0].append("c")),
        "^merges must be a list of pairs of strings$",
    ),
    "a_1_item_merge": (
        _payload(lambda p: p["merges"][0].pop()), "^merges must be a list of pairs of strings$"
    ),
    "a_merge_of_ints": (
        _payload(lambda p: p["merges"].append([1, 2])),
        "^merges must be a list of pairs of strings$",
    ),
    "a_merge_string": (
        _payload(lambda p: p["merges"].append("ab")),
        "^merges must be a list of pairs of strings$",
    ),
}


@pytest.mark.parametrize("fault", SHAPE_FAULTS, ids=list(SHAPE_FAULTS))
def test_json_that_is_not_a_model_is_refused_by_key(fault):
    payload, match = SHAPE_FAULTS[fault]
    with pytest.raises(ValueError, match=match):
        TokenizerModel.from_json(json.dumps(payload))
