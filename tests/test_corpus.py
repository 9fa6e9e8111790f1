import json
import math
import random
import re
import tracemalloc
import unicodedata

import numpy as np
import pytest

from qrag.corpus import (
    CHUNKS_FILE,
    ChunkTable,
    CleanDocument,
    CleaningConfig,
    RawDocument,
    chunk,
    clean_text,
    dedup_key,
    gurmukhi_fraction,
    ingest_jsonl,
    parse_chunks,
    preprocess,
    quality_check,
    save_chunks,
    token_type,
    Window,
)
from qrag.tokenizer import normalize, train_bpe

CFG = CleaningConfig()


def _write_jsonl(tmp_path, lines):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path


class TestIngest:
    def test_well_formed_lines_pass_through_in_order(self, tmp_path):
        path = _write_jsonl(
            tmp_path,
            [
                json.dumps({"id": "a", "text": "one"}).encode(),
                json.dumps({"id": "b", "text": "two", "source": "news"}).encode(),
                json.dumps({"id": "c", "text": "three", "metadata": {"k": "v"}}).encode(),
            ],
        )
        docs = list(ingest_jsonl(path))
        assert [d.doc_id for d in docs] == ["a", "b", "c"]
        assert docs[1].source == "news"
        assert docs[2].metadata == {"k": "v"}

    def test_malformed_line_skipped_and_counted(self, tmp_path):
        path = _write_jsonl(
            tmp_path,
            [
                json.dumps({"id": "a", "text": "one"}).encode(),
                b"{not json",
                json.dumps({"id": "c", "text": "three"}).encode(),
            ],
        )
        stats = {}
        docs = list(ingest_jsonl(path, stats))
        assert [d.doc_id for d in docs] == ["a", "c"]
        assert stats["malformed"] == 1
        assert stats["ingested"] == 2

    def test_missing_id_uses_line_index(self, tmp_path):
        lines = [json.dumps({"id": f"x{i}", "text": "t"}).encode() for i in range(5)]
        lines.append(json.dumps({"text": "anonymous"}).encode())
        path = _write_jsonl(tmp_path, lines)
        docs = list(ingest_jsonl(path))
        assert docs[-1].doc_id == "line-5"

    def test_invalid_utf8_line_skipped(self, tmp_path):
        path = _write_jsonl(
            tmp_path,
            [json.dumps({"id": "a", "text": "one"}).encode(), b'{"id":"b","text":"\xff\xfe"}'],
        )
        stats = {}
        docs = list(ingest_jsonl(path, stats))
        assert [d.doc_id for d in docs] == ["a"]
        assert stats["malformed"] == 1

    def test_json_nested_too_deep_is_malformed(self, tmp_path):
        # Deeper than the JSON decoder's recursion limit: a RecursionError
        # that failed the whole build before.
        nested = b'{"id": "b", "text": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        path = _write_jsonl(tmp_path, [json.dumps({"id": "a", "text": "one"}).encode(), nested])
        stats = {}
        assert [d.doc_id for d in ingest_jsonl(path, stats)] == ["a"]
        assert stats["malformed"] == 1

    def test_non_string_text_is_malformed(self, tmp_path):
        path = _write_jsonl(tmp_path, [json.dumps({"id": "a", "text": 7}).encode()])
        stats = {}
        assert list(ingest_jsonl(path, stats)) == []
        assert stats["malformed"] == 1


class TestCleanText:
    def test_markup_stripped(self):
        doc = clean_text(RawDocument("d", "<p>ਸਤਿ</p>"), CFG)
        assert doc.text == "ਸਤਿ"

    def test_already_clean_unchanged(self):
        doc = clean_text(RawDocument("d", "ਸਤਿ ਨਾਮ"), CFG)
        assert doc.text == "ਸਤਿ ਨਾਮ"

    def test_tab_runs_collapse(self):
        assert clean_text(RawDocument("d", "a\t\tb"), CFG).text == "a b"

    def test_entities_decoded(self):
        assert clean_text(RawDocument("d", "a &amp; b"), CFG).text == "a & b"

    def test_control_characters_removed(self):
        assert clean_text(RawDocument("d", "a\x00\x1fb"), CFG).text == "ab"

    def test_empty_after_cleaning_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            clean_text(RawDocument("d", "<div>\x00\t </div>"), CFG)

    @pytest.mark.parametrize(
        "nasty",
        ["&amp;amp;", "&lt;b&gt;x", "x &a<b>mp; y", "&#65;&#66;", "a<b>c</b>d &quot;q&quot;"],
    )
    def test_idempotent_on_adversarial_markup(self, nasty):
        once = clean_text(RawDocument("d", nasty), CFG).text
        assert clean_text(RawDocument("d", once), CFG).text == once

    def test_idempotent_on_random_text(self):
        rng = np.random.default_rng(7)
        pool = list("ab<>&;#x/ ਸਤ\tਖ਼.!&amp&lt")
        for _ in range(300):
            s = "".join(rng.choice(pool, size=rng.integers(1, 50)))
            try:
                once = clean_text(RawDocument("d", s), CFG).text
            except ValueError:
                continue
            assert clean_text(RawDocument("d", once), CFG).text == once


class TestGurmukhiFraction:
    def test_half(self):
        assert gurmukhi_fraction("ਸਤab") == 0.5

    def test_pure_ascii(self):
        assert gurmukhi_fraction("abcd") == 0.0

    def test_empty(self):
        assert gurmukhi_fraction("") == 0.0

    def test_bounded(self):
        assert 0.0 <= gurmukhi_fraction("ਸਤ ੧੨ ab !!") <= 1.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        chars = list("ਸਤਿਨਾਮab xy.!")
        for _ in range(100):
            s = "".join(rng.choice(chars, size=30))
            shuffled = "".join(rng.permutation(list(s)))
            assert gurmukhi_fraction(s) == gurmukhi_fraction(shuffled)

    def test_equals_the_per_character_count(self):
        rng = np.random.default_rng(4)
        chars = list("ਸਤਿਨਾਮਖ਼੧ab xy.!é\u0a3c")
        for _ in range(100):
            s = "".join(rng.choice(chars, size=int(rng.integers(1, 40))))
            marks = [unicodedata.category(ch)[0] in "LM" for ch in s]
            inside = [m and 0x0A00 <= ord(ch) <= 0x0A7F for m, ch in zip(marks, s)]
            expected = sum(inside) / sum(marks) if any(marks) else 0.0
            assert gurmukhi_fraction(s) == expected


class TestDedup:
    def test_identical_texts_same_digest(self):
        assert dedup_key("ਸਤਿ ਨਾਮ") == dedup_key("ਸਤਿ ਨਾਮ")
        assert len(dedup_key("x")) == 64

    def test_whitespace_variants_collide_after_cleaning(self):
        a = clean_text(RawDocument("a", "ਸਤਿ  ਨਾਮ"), CFG)
        b = clean_text(RawDocument("b", "ਸਤਿ \t ਨਾਮ"), CFG)
        assert a.dedup_digest == b.dedup_digest

    def test_one_codepoint_difference_distinct(self):
        assert dedup_key("ਸਤਿ") != dedup_key("ਸਤੀ")

    def test_streaming_pass_drops_duplicates(self):
        text = "ਸਤਿ ਨਾਮ ਕਰਤਾ ਪੁਰਖ ਨਿਰਭਉ ਨਿਰਵੈਰ ਅਕਾਲ ਮੂਰਤਿ ਅਜੂਨੀ ਸੈਭੰ"
        docs = [RawDocument("a", text), RawDocument("b", text), RawDocument("c", text + " ਗੁਰ")]
        stats = {}
        kept = list(preprocess(docs, CFG, stats))
        assert [d.doc_id for d in kept] == ["a", "c"]
        assert stats["deduped"] == 1
        digests = [d.dedup_digest for d in kept]
        assert len(digests) == len(set(digests))


class TestQualityCheck:
    def test_too_short(self):
        doc = CleanDocument("d", "ਸਤਿ ਨਾਮ ਹੈ", 1.0, "x")
        assert quality_check(doc, CFG) == "too_short"

    def test_too_much_punctuation(self):
        text = "!!!!! ?? !!! ??? !! ?? !!! ??? !! ??"
        doc = CleanDocument("d", text, 1.0, "x")
        assert quality_check(doc, CFG) == "punct"

    def test_language_filter(self):
        doc = CleanDocument("d", "the quick brown fox jumps over the lazy dog again", 0.0, "x")
        assert quality_check(doc, CFG) == "language"

    def test_clean_gurmukhi_doc_kept(self):
        text = " ".join(["ਸਤਿ", "ਨਾਮ", "ਕਰਤਾ", "ਪੁਰਖ", "ਨਿਰਭਉ"] * 10)
        doc = CleanDocument("d", text, 1.0, "x")
        assert quality_check(doc, CFG) is None


# Distinct words, each of which the unit token model holds as one token.
NUMBERS = [f"{i:03d}" for i in range(1000)]


@pytest.fixture(scope="module")
def unit_token_model():
    # Each number occurs twice, so it merges into a single token.
    return train_bpe([" ".join(NUMBERS)] * 2, vocab_size=1200)


def _doc_of_tokens(n, model):
    text = " ".join(NUMBERS[:n])
    doc = CleanDocument("doc", text, 1.0, dedup_key(text))
    assert len(model.encode(text)) == n
    return doc


def _spans(windows, doc, model):
    """Each window's (offset, length) among the document's ids: every id of
    the document is a distinct whole word, so a window's ids are its span
    and its first id gives the offset."""
    ids = model.encode(doc.text)
    return [(ids.index(int(w.ids[0])), len(w.ids)) for w in windows]


class TestChunk:
    def test_600_tokens_three_windows(self, unit_token_model):
        doc = _doc_of_tokens(600, unit_token_model)
        chunks = chunk(doc, CFG, unit_token_model)
        assert _spans(chunks, doc, unit_token_model) == [(0, 256), (192, 256), (384, 216)]
        assert [c.chunk_id for c in chunks] == ["doc#0", "doc#1", "doc#2"]

    def test_short_doc_single_window(self, unit_token_model):
        doc = _doc_of_tokens(100, unit_token_model)
        chunks = chunk(doc, CFG, unit_token_model)
        assert _spans(chunks, doc, unit_token_model) == [(0, 100)]

    def test_260_tokens_two_windows(self, unit_token_model):
        doc = _doc_of_tokens(260, unit_token_model)
        chunks = chunk(doc, CFG, unit_token_model)
        assert _spans(chunks, doc, unit_token_model) == [(0, 256), (192, 68)]

    def test_chunk_text_is_decode_of_span(self, unit_token_model):
        doc = _doc_of_tokens(300, unit_token_model)
        ids = unit_token_model.encode(doc.text)
        windows = chunk(doc, CFG, unit_token_model)
        table = ChunkTable.from_windows(windows, unit_token_model)
        spans = _spans(windows, doc, unit_token_model)
        texts = table.texts(range(len(table)))
        for row, (w, text, (offset, count)) in enumerate(zip(windows, texts, spans, strict=True)):
            span = ids[offset : offset + count]
            # A window of whole words: its terms are its own ids.
            assert w.ids.tolist() == span and table.token_counts[row] == count
            assert text == unit_token_model.decode(span)
        # The ids are held in the narrowest type.
        assert windows[0].ids.dtype == token_type(unit_token_model.vocab_size()) == np.uint16

    def test_a_window_that_splits_a_word_stores_the_terms_of_its_text(self):
        # No pair repeats, so every codepoint is a token: "ਕਾਖ" is ਕ ਾ ਖ</w>,
        # and windows of 2 ids split it and "ਗਘ". Each split piece is a word
        # of its own, ending in a symbol (ਾ</w>, ਗ</w>) that no corpus word
        # ends in: training holds both forms of every codepoint.
        tok = train_bpe(["ਕਾਖ ਗਘ"], vocab_size=20)
        text = "ਕਾਖ ਗਘ"
        windows = chunk(
            CleanDocument("d", text, 1.0, dedup_key(text)),
            CleaningConfig(min_tokens=1, chunk_size_tokens=2, chunk_overlap_tokens=0),
            tok,
        )
        assert [[tok.tokens[i] for i in w.ids] for w in windows] == [
            ["ਕ", "ਾ</w>"], ["ਖ</w>", "ਗ</w>"], ["ਘ</w>"]
        ]
        for w in windows:
            assert w.ids.tolist() == tok.encode(tok.decode(w.ids.tolist()))

    def test_spans_cover_document_with_fixed_overlap(self, unit_token_model):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(10, 900))
            doc = _doc_of_tokens(n, unit_token_model)
            spans = _spans(chunk(doc, CFG, unit_token_model), doc, unit_token_model)
            covered = set()
            for offset, count in spans:
                covered.update(range(offset, offset + count))
            assert covered == set(range(n))
            for (a, a_count), (b, _) in zip(spans, spans[1:]):
                assert (a + a_count) - b == CFG.chunk_overlap_tokens

    def test_chunk_ids_unique(self, unit_token_model):
        chunks = chunk(_doc_of_tokens(700, unit_token_model), CFG, unit_token_model)
        ids = [c.chunk_id for c in chunks]
        assert len(ids) == len(set(ids))


class TestConfigValidation:
    def test_overlap_must_be_smaller_than_size(self):
        with pytest.raises(ValueError):
            CleaningConfig(chunk_size_tokens=64, chunk_overlap_tokens=64)

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            CleaningConfig(min_gurmukhi_fraction=1.5)

    def test_negative_overlap_rejected(self):
        # Stride 12 over windows of 8 would leave tokens 8-11 in no chunk.
        with pytest.raises(ValueError, match="chunk_overlap_tokens must be >= 0"):
            CleaningConfig(chunk_size_tokens=8, chunk_overlap_tokens=-4)

    @pytest.mark.parametrize("min_tokens", [0, math.nan])
    def test_min_tokens_below_one_rejected(self, min_tokens):
        with pytest.raises(ValueError, match="min_tokens must be >= 1"):
            CleaningConfig(min_tokens=min_tokens)

    @pytest.mark.parametrize("ratio", [-0.1, 1.5, math.nan])
    def test_punct_ratio_outside_unit_interval_rejected(self, ratio):
        with pytest.raises(ValueError, match="max_punct_ratio must be in"):
            CleaningConfig(max_punct_ratio=ratio)


# The vocabulary size of ``store_model``: both forms of its 12 codepoints,
# two specials and the merges of the pairs that occur twice.
STORE_V = 30


@pytest.fixture(scope="module")
def store_model():
    tok = train_bpe(["ਸਤਿ ਨਾਮ ਹੈ ਜੀ 𝄞 ਕ ਸਤਿ ਨਾਮ"], vocab_size=40)
    assert tok.vocab_size() == STORE_V
    return tok


def _table(chunk_ids, tok, text="ਕ"):
    """A table of one window of ``text`` per chunk id, in the given order."""
    ids = np.array(tok.encode(text))
    return ChunkTable.from_windows([Window(cid, ids) for cid in chunk_ids], tok)


class TestChunkId:
    """A chunk id is its document's id, then "#" and the window's number."""

    @pytest.mark.parametrize(
        "chunk_id, doc_id", [("d#0", "d"), ("ਕ#12", "ਕ"), ("a#b#3", "a#b"), ("a b#0", "a b")]
    )
    def test_the_doc_id_is_the_chunk_id_before_its_last_hash(
        self, tmp_path, store_model, chunk_id, doc_id
    ):
        save_chunks(_table([chunk_id], store_model), tmp_path)
        loaded = parse_chunks((tmp_path / CHUNKS_FILE).read_bytes(), store_model)
        # Stored and loaded whole, a "#" in its doc id included: the window's
        # number follows the last one.
        assert loaded.chunk_ids == [chunk_id]
        assert chunk_id.rpartition("#")[0] == doc_id

    @pytest.mark.parametrize(
        "chunk_id", ["d", "d#", "#0", "d#x", "d#-1", "d#1.0", "d# 1", "d#0\n", "d#\u0661", ""]
    )
    def test_an_id_that_is_not_doc_id_hash_number_is_refused_by_name(
        self, tmp_path, store_model, chunk_id
    ):
        save_chunks(_table([chunk_id], store_model), tmp_path)
        match = f"^chunks.npy: ids must be chunk ids <doc id>#<n>, not {re.escape(repr(chunk_id))}$"
        with pytest.raises(ValueError, match=match):
            parse_chunks((tmp_path / CHUNKS_FILE).read_bytes(), store_model)


class TestChunkTable:
    """A table's chunk ids strictly increase: a row's number is its id's
    rank. Each row's text is decoded on first use and kept."""

    def test_increasing_ids_accepted(self, store_model):
        # Ordered as strings: "d#10" sorts before "d#2".
        ids = ["d#0", "d#1", "d#10", "d#2", "e#0"]
        table = _table(ids, store_model)
        assert table.chunk_ids == ids
        assert _table([], store_model).chunk_ids == []

    def test_decreasing_id_rejected(self, store_model):
        ids = ["d#0", "d#1", "d#2", "d#10"]
        with pytest.raises(
            ValueError, match="^chunk_id 'd#10' follows 'd#2': chunk ids must increase$"
        ):
            _table(ids, store_model)

    @pytest.mark.parametrize("ids", [["a", "a"], ["a", "b", "a"], ["a", "b", "c", "b"]])
    def test_repeated_id_rejected(self, store_model, ids):
        repeated = next(cid for cid in ids if ids.count(cid) > 1)
        with pytest.raises(ValueError, match=f"^chunk_id '{repeated}' is listed twice$"):
            _table(ids, store_model)

    def test_a_text_is_decoded_once_on_first_use(self, store_model):
        table = _store(store_model)
        assert table.text_slots == [None] * 4
        (first,) = table.texts([3])
        assert first == "𝄞 ਕ" and table.text_slots == [None, None, None, first]
        assert table.texts([3])[0] is first
        texts = table.texts([1, 3, 1])
        assert texts == ["ਹੈ ਜੀ", first, "ਹੈ ਜੀ"] and texts[0] is texts[2] and texts[1] is first
        assert table.texts(range(4)) == [text for _, text in STORE_ROWS]
        assert table.text_slots == [text for _, text in STORE_ROWS]
        # Each text is the tokenizer's decode of its row's ids.
        for row, text in enumerate(table.texts(range(len(table)))):
            assert text == store_model.decode(table.token_ids(row).tolist())


# The chunks of STORE: id, text.
STORE_ROWS = (
    ("d#0", "ਸਤਿ ਨਾਮ ਹੈ"),
    ("d#1", "ਹੈ ਜੀ"),
    ("e#0", ""),
    # A codepoint beyond U+FFFF: one vocab symbol like any other.
    ("ਕ#0", "𝄞 ਕ"),
)


def _store(tok):
    windows = [Window(cid, np.array(tok.encode(text))) for cid, text in STORE_ROWS]
    return ChunkTable.from_windows(windows, tok)


@pytest.fixture()
def store_arrays(tmp_path, store_model):
    save_chunks(_store(store_model), tmp_path)
    return _read_arrays(tmp_path)


def _read_arrays(tmp_path):
    with (tmp_path / "chunks.npy").open("rb") as fh:
        return [np.lib.format.read_array(fh) for _ in range(3)]


def _write_arrays(tmp_path, arrays):
    with (tmp_path / "chunks.npy").open("wb") as fh:
        for arr in arrays:
            np.lib.format.write_array(fh, arr, allow_pickle=True)


def _ids(value):
    return np.frombuffer(json.dumps(value).encode(), np.uint8)


def _with_token(arrays, at, value, dtype=None):
    """``arrays`` with token id ``at`` set to ``value``, in ``dtype``."""
    tokens = arrays[2].astype(dtype or arrays[2].dtype)
    tokens[at] = value
    return [*arrays[:2], tokens]


# Each fault: a change to the three arrays of the store, and what the refusal
# says.
STORE_FAULTS = {
    "too_few_arrays": (lambda a: a[:2], "EOF"),
    "object_array": (
        lambda a: [a[0].astype(object), *a[1:]], r"ids must be a 1-d uint8 array, got \|O of shape"
    ),
    "ids_not_uint8": (lambda a: [a[0].astype(np.int32), *a[1:]], "ids must be a 1-d uint8"),
    "token_ids_not_integer": (
        lambda a: [*a[:2], a[2].astype(float)], "token ids must be a 1-d integer array"
    ),
    "token_ids_2d": (
        lambda a: [*a[:2], a[2].reshape(-1, 1)], "token ids must be a 1-d integer array"
    ),
    "token_count_2d": (lambda a: [a[0], a[1].reshape(2, 2), a[2]], "token_count must be"),
    "short_token_count": (lambda a: [a[0], a[1][:3], a[2]], "ids has 4 entries for 3 chunks$"),
    "long_token_count": (
        lambda a: [a[0], np.append(a[1], 1), a[2]], "ids has 4 entries for 5 chunks$"
    ),
    "negative_token_count": (lambda a: [a[0], a[1] - 1, a[2]], "token_count must be >= 0$"),
    # Format 9 stored each chunk's token offset ahead of its count: read as
    # this format, its counts are the token ids, and its ids are left over.
    "token_offset_array_of_format_9": (
        lambda a: [a[0], np.zeros_like(a[1]), *a[1:]], "trailing bytes after the token ids array$"
    ),
    "counts_short_of_the_token_ids": (
        lambda a: [a[0], a[1] - [1, 0, 0, 0], a[2]],
        r"token_count adds up to (\d+), but there are (?!\1)\d+ token ids$",
    ),
    "counts_past_the_token_ids": (
        lambda a: [*a[:2], a[2][:-1]],
        r"token_count adds up to (\d+), but there are (?!\1)\d+ token ids$",
    ),
    # Decoded lazily, such an id would fail a retrieve long after the load.
    "an_id_of_the_vocabulary_size": (
        lambda a: _with_token(a, 1, STORE_V),
        f"token id {STORE_V} is outside the vocabulary of {STORE_V}$",
    ),
    "a_negative_id": (
        lambda a: _with_token(a, -1, -1, np.int16),
        f"token id -1 is outside the vocabulary of {STORE_V}$",
    ),
    "ids_bad_json": (lambda a: [np.frombuffer(b"[[", np.uint8), *a[1:]], "Expecting value"),
    "ids_bad_utf8": (lambda a: [np.frombuffer(b"\xff", np.uint8), *a[1:]], "'utf-8' codec"),
    # Deeper than the JSON decoder's recursion limit: a RecursionError before.
    "ids_nested_too_deep": (
        lambda a: [np.frombuffer(b"[" * 100_000 + b"]" * 100_000, np.uint8), *a[1:]],
        "ids: maximum recursion depth exceeded",
    ),
    "ids_an_object": (
        lambda a: [_ids({"d#0": "d"}), *a[1:]], "ids must be a JSON list of chunk ids$"
    ),
    "ids_a_string": (lambda a: [_ids("d#0"), *a[1:]], "ids must be a JSON list of chunk ids$"),
    # Format 6 stored a [chunk_id, doc_id] pair per chunk.
    "ids_the_pairs_of_format_6": (
        lambda a: [_ids([[cid, cid.rpartition("#")[0]] for cid, _ in STORE_ROWS]), *a[1:]],
        r"ids must be chunk ids <doc id>#<n>, not \['d#0', 'd'\]$",
    ),
    "ids_an_int_chunk_id": (
        lambda a: [_ids(["d#0", "d#1", "e#0", 1]), *a[1:]],
        "ids must be chunk ids <doc id>#<n>, not 1$",
    ),
    "ids_a_null_chunk_id": (
        lambda a: [_ids(["d#0", "d#1", "e#0", None]), *a[1:]],
        "ids must be chunk ids <doc id>#<n>, not None$",
    ),
    "ids_one_short": (
        lambda a: [_ids(["d#0", "d#1", "e#0"]), *a[1:]], "ids has 3 entries for 4 chunks$"
    ),
    "ids_a_repeated_chunk_id": (
        lambda a: [_ids(["a#0", "b#0", "a#0", "c#0"]), *a[1:]],
        "chunk_id 'a#0' is listed twice$",
    ),
    "ids_out_of_order": (
        lambda a: [_ids(["a#0", "c#0", "b#0", "d#0"]), *a[1:]],
        "chunk_id 'b#0' follows 'c#0': chunk ids must increase$",
    ),
}


class TestChunkPersistence:
    def test_store_round_trip(self, tmp_path, store_model):
        save_chunks(_store(store_model), tmp_path)
        loaded = parse_chunks((tmp_path / CHUNKS_FILE).read_bytes(), store_model)
        assert loaded == _store(store_model)
        assert list(zip(loaded.chunk_ids, loaded.texts(range(len(loaded))))) == list(STORE_ROWS)
        counts = [len(store_model.encode(text)) for _, text in STORE_ROWS]
        assert loaded.token_counts.tolist() == counts

    def test_empty_store_round_trip(self, tmp_path, store_model):
        save_chunks(_table([], store_model), tmp_path)
        loaded = parse_chunks((tmp_path / CHUNKS_FILE).read_bytes(), store_model)
        assert len(loaded) == 0 and loaded.chunk_ids == [] and len(loaded.tokens) == 0

    def test_ids_take_the_narrowest_unsigned_type(self, store_model, store_arrays):
        ids, token_count, tokens = store_arrays
        expected = [store_model.encode(text) for _, text in STORE_ROWS]
        assert token_count.tolist() == [len(e) for e in expected]
        assert tokens.tolist() == [i for e in expected for i in e]
        assert (tokens.dtype.str, token_count.dtype.str) == ("|u1", "<i4")
        assert json.loads(ids.tobytes()) == [cid for cid, _ in STORE_ROWS]
        # One byte a vocab id up to 256 ids, two up to 65,536.
        assert [token_type(v).str for v in (1, 256, 257, 65536, 65537)] == [
            "|u1", "|u1", "<u2", "<u2", "<u4"
        ]

    def test_load_holds_no_copy_of_the_text_bytes(self, tmp_path):
        # A load keeps no view of the bytes read and decodes no text: each
        # text slot stays empty until its text is asked for.
        rng = random.Random(0)
        letters = [chr(c) for c in range(0x0A15, 0x0A39)]
        words = [normalize("".join(rng.choices(letters, k=5))) for _ in range(2000)]
        texts = [" ".join(rng.choices(words, k=600)) for _ in range(400)]
        tok = train_bpe(texts, vocab_size=3000)
        windows = [Window(f"d{i:03d}#0", np.array(tok.encode(t))) for i, t in enumerate(texts)]
        save_chunks(ChunkTable.from_windows(windows, tok), tmp_path)
        data = (tmp_path / CHUNKS_FILE).read_bytes()
        tracemalloc.start()
        try:
            loaded = parse_chunks(data, tok)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.text_slots == [None] * len(texts)
        for arr in (loaded.token_counts, loaded.tokens):
            assert arr.base is None and arr.flags.owndata
        # The table holds its arrays, 2 bytes a token id and 8 a chunk
        # besides, the ids and the slots: no part of the file, and no text.
        tokens = loaded.tokens.nbytes
        assert tokens == 2 * sum(len(w.ids) for w in windows)
        assert held <= tokens + 64 * 1024 + 256 * len(texts)
        assert peak <= held + 64 * 1024
        assert loaded.texts(range(len(texts))) == texts

    @pytest.mark.parametrize("fault", STORE_FAULTS, ids=list(STORE_FAULTS))
    def test_each_fault_is_a_value_error_naming_the_file(
        self, tmp_path, store_model, store_arrays, fault
    ):
        change, match = STORE_FAULTS[fault]
        _write_arrays(tmp_path, change(store_arrays))
        with pytest.raises(ValueError, match=r"^chunks\.npy: .*" + match):
            parse_chunks((tmp_path / CHUNKS_FILE).read_bytes(), store_model)

    @pytest.mark.parametrize(
        "resize, match",
        [
            (lambda data: data + b"\0", "trailing bytes after the token ids array$"),
            (
                lambda data: data[:-3],
                r"the token ids array is cut short: (\d+) of (?!\1)\d+ bytes$",
            ),
            (lambda data: data[:150], r"the ids array is cut short: 22 of \d+ bytes$"),
        ],
        ids=["trailing", "cut_in_the_token_ids", "cut_in_the_ids"],
    )
    def test_trailing_or_missing_bytes_are_refused(self, tmp_path, store_model, resize, match):
        save_chunks(_store(store_model), tmp_path)
        path = tmp_path / "chunks.npy"
        path.write_bytes(resize(path.read_bytes()))
        with pytest.raises(ValueError, match=r"^chunks\.npy: " + match):
            parse_chunks((tmp_path / CHUNKS_FILE).read_bytes(), store_model)
