import dataclasses
import json
import math
import random
import sys
import tracemalloc
import unicodedata
from itertools import islice

import numpy as np
import pytest

from qrag.corpus import (
    GURMUKHI_PAGE,
    PAGE,
    UTF16,
    Chunk,
    ChunkTable,
    CleanDocument,
    CleaningConfig,
    RawDocument,
    chunk,
    clean_text,
    dedup_key,
    gurmukhi_fraction,
    ingest_jsonl,
    preprocess,
    load_chunks,
    quality_check,
    save_chunks,
    _strip_markup,
)
from qrag.tokenizer import train_bpe

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


@pytest.fixture(scope="module")
def unit_token_model():
    # "ਕਾ" repeats, so it merges into a single token per occurrence.
    return train_bpe(["ਕਾ " * 50], vocab_size=50)


def _doc_of_tokens(n, model):
    text = ("ਕਾ " * n).strip()
    doc = CleanDocument("doc", text, 1.0, dedup_key(text))
    assert len(model.encode(text)) == n
    return doc


class TestChunk:
    def test_600_tokens_three_windows(self, unit_token_model):
        chunks = chunk(_doc_of_tokens(600, unit_token_model), CFG, unit_token_model)
        assert [(c.token_offset, c.token_count) for c in chunks] == [
            (0, 256),
            (192, 256),
            (384, 216),
        ]
        assert [c.chunk_id for c in chunks] == ["doc#0", "doc#1", "doc#2"]

    def test_short_doc_single_window(self, unit_token_model):
        chunks = chunk(_doc_of_tokens(100, unit_token_model), CFG, unit_token_model)
        assert [(c.token_offset, c.token_count) for c in chunks] == [(0, 100)]

    def test_260_tokens_two_windows(self, unit_token_model):
        chunks = chunk(_doc_of_tokens(260, unit_token_model), CFG, unit_token_model)
        assert [(c.token_offset, c.token_count) for c in chunks] == [(0, 256), (192, 68)]

    def test_chunk_text_is_decode_of_span(self, unit_token_model):
        doc = _doc_of_tokens(300, unit_token_model)
        seq = unit_token_model.encode(doc.text)
        for c in chunk(doc, CFG, unit_token_model):
            span = seq.slice(c.token_offset, c.token_offset + c.token_count)
            assert c.text == unit_token_model.decode(span)

    def test_spans_cover_document_with_fixed_overlap(self, unit_token_model):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(10, 900))
            chunks = chunk(_doc_of_tokens(n, unit_token_model), CFG, unit_token_model)
            covered = set()
            for c in chunks:
                covered.update(range(c.token_offset, c.token_offset + c.token_count))
            assert covered == set(range(n))
            for a, b in zip(chunks, chunks[1:]):
                overlap = (a.token_offset + a.token_count) - b.token_offset
                assert overlap == CFG.chunk_overlap_tokens

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


class TestChunkRecord:
    def test_chunk_has_slots_and_stays_frozen(self):
        c = Chunk("d#0", "d", 0, 3, "ਸਤਿ ਨਾਮ ਹੈ")
        assert not hasattr(c, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.text = "x"


STORE = ChunkTable.from_chunks(
    [
        Chunk("d#0", "d", 0, 3, "ਸਤਿ ਨਾਮ ਹੈ"),
        Chunk("d#1", "d", 2, 2, "ਹੈ ਜੀ"),
        Chunk("e#0", "e", 0, 0, ""),
        # Outside the page: UTF-16-LE, where a codepoint beyond U+FFFF takes
        # two code units.
        Chunk("ਕ#0", "ਕ", 7, 1, "𝄞 ਕ"),
    ]
)


def _read_arrays(tmp_path):
    with (tmp_path / "chunks.npy").open("rb") as fh:
        return [np.lib.format.read_array(fh) for _ in range(6)]


def _store_arrays(tmp_path):
    save_chunks(STORE, tmp_path)
    return _read_arrays(tmp_path)


def _write_arrays(tmp_path, arrays):
    with (tmp_path / "chunks.npy").open("wb") as fh:
        for arr in arrays:
            np.lib.format.write_array(fh, arr, allow_pickle=True)


def _ids(value):
    return np.frombuffer(json.dumps(value).encode(), np.uint8)


def _texts(arrays, blob, encoding=UTF16):
    """``arrays`` with the text offsets and bytes replaced by ``blob``'s, all
    in the first chunk, and every text in ``encoding``."""
    ends = np.array([0, len(blob), len(blob), len(blob), len(blob)], "<i8")
    encodings = np.full(4, encoding, np.uint8)
    return [*arrays[:3], ends, encodings, np.frombuffer(blob, np.uint8)]


# Each fault: a change to the six arrays of STORE, and what the refusal says.
STORE_FAULTS = {
    "too_few_arrays": (lambda a: a[:4], "EOF"),
    "object_array": (lambda a: [a[0].astype(object), *a[1:]], "Object arrays cannot be"),
    "ids_not_uint8": (lambda a: [a[0].astype(np.int32), *a[1:]], "ids must be a 1-d uint8"),
    "texts_not_uint8": (lambda a: [*a[:5], a[5].astype("<u2")], "texts must be a 1-d uint8"),
    "float_text_offsets": (
        lambda a: [*a[:3], a[3].astype(float), *a[4:]], "text offsets must be a 1-d integer"
    ),
    "token_offset_2d": (lambda a: [a[0], a[1].reshape(2, 2), *a[2:]], "token_offset must be"),
    "short_token_offset": (lambda a: [a[0], a[1][:3], *a[2:]], "array lengths disagree"),
    "long_token_count": (
        lambda a: [*a[:2], np.append(a[2], 1), *a[3:]], "array lengths disagree"
    ),
    "short_text_offsets": (
        lambda a: [*a[:3], a[3][:4], a[4], a[5][:15]], "array lengths disagree"
    ),
    "negative_token_offset": (
        lambda a: [a[0], a[1] - 1, *a[2:]], "token_offset and token_count must be >= 0"
    ),
    "negative_token_count": (
        lambda a: [*a[:2], a[2] - 1, *a[3:]], "token_offset and token_count must be >= 0"
    ),
    "offsets_not_from_0": (
        lambda a: [*a[:3], a[3] + 2, *a[4:]], "text offsets must run from 0 to the text"
    ),
    "offsets_short_of_the_text": (
        lambda a: [*a[:5], a[5][:21]], "text offsets must run from 0 to the text"
    ),
    "decreasing_offsets": (
        lambda a: [*a[:3], a[3][[0, 2, 1, 3, 4]], *a[4:]], "text offsets must not decrease"
    ),
    # The last chunk, in UTF-16-LE, keeps 7 of its 8 bytes.
    "odd_offset": (
        lambda a: [*a[:3], a[3] + [0, 0, 0, 1, 0], *a[4:]],
        "chunk 'ਕ#0' has an odd byte count: a UTF-16 code unit is 2 bytes$",
    ),
    "odd_utf16_text": (lambda a: _texts(a, b"a\x00b"), "chunk 'd#0' has an odd byte count"),
    "lone_high_surrogate": (lambda a: _texts(a, b"\x00\xd8"), "'utf-16-le' codec can't"),
    "lone_low_surrogate": (lambda a: _texts(a, b"\x00\xdca\x00"), "'utf-16-le' codec can't"),
    "undefined_page_byte": (
        lambda a: _texts(a, b"\xa8\x05", PAGE),
        "'charmap' codec can't decode byte 0x05 in position 1",
    ),
    "encoding_2": (
        lambda a: [*a[:4], np.array([0, 0, 2, 1], np.uint8), a[5]],
        r"text encodings must be 0 \(the page\) or 1 \(UTF-16-LE\)$",
    ),
    "float_encodings": (
        lambda a: [*a[:4], a[4].astype(float), a[5]], "text encodings must be a 1-d integer"
    ),
    "short_encodings": (lambda a: [*a[:4], a[4][:3], a[5]], "and 3 text encodings$"),
    "long_encodings": (
        lambda a: [*a[:4], np.append(a[4], 0), a[5]], "and 5 text encodings$"
    ),
    "ids_bad_json": (lambda a: [np.frombuffer(b"[[", np.uint8), *a[1:]], "Expecting value"),
    "ids_bad_utf8": (lambda a: [np.frombuffer(b"\xff", np.uint8), *a[1:]], "'utf-8' codec"),
    "ids_an_object": (lambda a: [_ids({"d#0": "d"}), *a[1:]], "ids must be a JSON list"),
    "ids_a_short_pair": (lambda a: [_ids([["a", "d"]] * 3 + [["a"]]), *a[1:]], "ids must"),
    "ids_an_int_doc_id": (lambda a: [_ids([["a", "d"]] * 3 + [["a", 1]]), *a[1:]], "ids must"),
    "ids_a_null_chunk_id": (
        lambda a: [_ids([["a", "d"]] * 3 + [[None, "d"]]), *a[1:]], "ids must"
    ),
    "ids_a_string": (lambda a: [_ids([["a", "d"]] * 3 + ["ad"]), *a[1:]], "ids must"),
    "ids_a_triple": (lambda a: [_ids([["a", "d", "e"]] * 4), *a[1:]], "ids must"),
    "ids_a_repeated_chunk_id": (
        lambda a: [_ids([["a", "d"], ["b", "d"], ["a", "e"], ["c", "e"]]), *a[1:]],
        "chunk_id 'a' is listed twice$",
    ),
}


class TestGurmukhiPage:
    def test_the_page_is_pinned(self):
        # The page is part of the index format: an edit to it needs a new
        # engine.FORMAT_VERSION, and then a new table here.
        table = {0x00: 0x00, 0x01: 0x0964, 0x02: 0x0965, 0x03: 0x200C, 0x04: 0x200D}
        table.update((b, b) for b in (0x09, 0x0A, 0x0D, *range(0x20, 0x7F)))
        table.update((b, 0x0A00 + b - 0x80) for b in range(0x80, 0x100))
        assert [ord(ch) for ch in GURMUKHI_PAGE] == [table.get(b, 0xFFFE) for b in range(256)]

    def test_every_page_byte_round_trips_both_ways(self, tmp_path):
        defined = bytes(b for b, ch in enumerate(GURMUKHI_PAGE) if ch != "\ufffe")
        text = "".join(GURMUKHI_PAGE[b] for b in defined)
        assert len(defined) == 256 - 25
        save_chunks(ChunkTable.from_chunks([Chunk("p#0", "p", 0, 0, text)]), tmp_path)
        *_, ends, encodings, blob = _read_arrays(tmp_path)
        assert (ends.tolist(), encodings.tolist()) == ([0, len(defined)], [PAGE])
        assert blob.tobytes() == defined
        assert load_chunks(tmp_path)[0].text == text

    def test_only_controls_that_cleaning_strips_give_up_their_slots(self):
        # So no cleaned text has a character that lost its byte to the page.
        moved = [chr(b) for b in range(0x80) if GURMUKHI_PAGE[b] != chr(b)]
        assert len(moved) == 4 + 25
        assert all(_strip_markup(ch) == "" for ch in moved)

    def test_chunks_outside_the_page_fall_back_to_utf_16(self, tmp_path):
        chunks = [
            Chunk("a#0", "a", 0, 2, "ਸਤਿ ਨਾਮ। ੴ ੧੨੩॥"),
            Chunk("b#0", "b", 0, 1, "café ਕ"),  # a Latin-1 letter
            Chunk("c#0", "c", 0, 1, "ਹੈ\u200cਜੀ\u200d 42 ok\n"),
            Chunk("d#0", "d", 0, 1, "𝄞 ਕ"),  # an astral character
            Chunk("e#0", "e", 0, 1, "ਕ\x07ਖ"),  # a C0 control
            Chunk("f#0", "f", 0, 0, ""),
            Chunk("g#0", "g", 0, 1, "\ufffe"),  # the page's undefined marker
            Chunk("h#0", "h", 0, 1, "ਕ\x00ਖ"),
        ]
        save_chunks(ChunkTable.from_chunks(chunks), tmp_path)
        *_, ends, encodings, blob = _read_arrays(tmp_path)
        assert encodings.dtype == np.uint8
        assert encodings.tolist() == [PAGE, UTF16, PAGE, UTF16, UTF16, PAGE, UTF16, PAGE]
        sizes = np.diff(ends).tolist()
        assert sizes == [
            len(c.text) if e == PAGE else len(c.text.encode("utf-16-le"))
            for c, e in zip(chunks, encodings.tolist())
        ]
        assert list(load_chunks(tmp_path)) == chunks


class TestChunkPersistence:
    def test_store_round_trip(self, tmp_path):
        save_chunks(STORE, tmp_path)
        assert load_chunks(tmp_path) == STORE

    def test_empty_store_round_trip(self, tmp_path):
        save_chunks(ChunkTable.from_chunks([]), tmp_path)
        assert list(load_chunks(tmp_path)) == []

    def test_page_text_takes_one_byte_per_codepoint(self, tmp_path):
        ids, token_offset, token_count, ends, encodings, blob = _store_arrays(tmp_path)
        assert encodings.tolist() == [PAGE, PAGE, PAGE, UTF16]
        assert ends.tolist() == [0, 10, 15, 15, 23]
        assert [len(c.text) for c in STORE[:3]] == [10, 5, 0]
        assert blob.tobytes() == (
            bytes([0xB8, 0xA4, 0xBF, 0x20, 0xA8, 0xBE, 0xAE, 0x20, 0xB9, 0xC8])
            + bytes([0xB9, 0xC8, 0x20, 0x9C, 0xC0])
            + STORE[3].text.encode("utf-16-le")
        )
        assert (ends.dtype.str, token_offset.dtype.str, token_count.dtype.str) == (
            "<i8", "<i4", "<i4"
        )
        assert json.loads(ids.tobytes()) == [[c.chunk_id, c.doc_id] for c in STORE]

    def test_load_holds_no_copy_of_the_text_bytes(self, tmp_path):
        rng = random.Random(0)
        letters = [chr(c) for c in range(0x0A15, 0x0A39)]
        words = ("".join(rng.choices(letters, k=5)) for _ in range(400 * 600))
        chunks = [
            Chunk(f"d{i}#0", f"d{i}", 0, 600, " ".join(islice(words, 600)))
            for i in range(400)
        ]
        save_chunks(ChunkTable.from_chunks(chunks), tmp_path)
        size = (tmp_path / "chunks.npy").stat().st_size
        tracemalloc.start()
        try:
            loaded = load_chunks(tmp_path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert list(loaded) == chunks
        strings = sum(map(sys.getsizeof, loaded.texts))
        # The file is read once and its texts are decoded from views of it,
        # so besides the strings the load peaks at the file's bytes plus the
        # ids and offsets, about 450 bytes per chunk: a copy of the 2.9 MB of
        # text bytes would add as much again. Once loaded, the table holds
        # no part of the file.
        assert peak <= strings + size + 64 * 1024 + 1024 * len(chunks)
        assert held <= strings + 64 * 1024 + 256 * len(chunks)

    @pytest.mark.parametrize("fault", STORE_FAULTS, ids=list(STORE_FAULTS))
    def test_each_fault_is_a_value_error_naming_the_file(self, tmp_path, fault):
        change, match = STORE_FAULTS[fault]
        _write_arrays(tmp_path, change(_store_arrays(tmp_path)))
        with pytest.raises(ValueError, match=r"^chunks\.npy: .*" + match):
            load_chunks(tmp_path)

    @pytest.mark.parametrize(
        "resize, match",
        [
            (lambda data: data + b"\0", "trailing bytes after the text array$"),
            (lambda data: data[:-3], "the text array is cut short: 20 of 23 bytes$"),
            (lambda data: data[:150], r"the ids array is cut short: 22 of \d+ bytes$"),
        ],
        ids=["trailing", "cut_in_the_texts", "cut_in_the_ids"],
    )
    def test_trailing_or_missing_bytes_are_refused(self, tmp_path, resize, match):
        save_chunks(STORE, tmp_path)
        path = tmp_path / "chunks.npy"
        path.write_bytes(resize(path.read_bytes()))
        with pytest.raises(ValueError, match=r"^chunks\.npy: " + match):
            load_chunks(tmp_path)
