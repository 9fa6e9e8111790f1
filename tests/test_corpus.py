import dataclasses
import json
import math
import unicodedata

import numpy as np
import pytest

from qrag.corpus import (
    Chunk,
    CleanDocument,
    CleaningConfig,
    RawDocument,
    chunk,
    clean_text,
    dedup_key,
    gurmukhi_fraction,
    ingest_jsonl,
    preprocess,
    quality_check,
    read_chunks_jsonl,
    write_chunks_jsonl,
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


class TestChunkPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        chunks = [
            Chunk("d#0", "d", 0, 3, "ਸਤਿ ਨਾਮ ਹੈ"),
            Chunk("d#1", "d", 2, 2, "ਹੈ ਜੀ"),
        ]
        path = tmp_path / "chunks.jsonl"
        assert write_chunks_jsonl(chunks, path) == 2
        assert read_chunks_jsonl(path) == chunks
