import hashlib
import io
import json
import logging
import math
import os
import re
import shutil
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import index_file
from qrag import _npy, _records, lexical, quantum, semantic, synthetic
from qrag.corpus import CHUNK_ARRAYS, CleaningConfig, parse_chunks
from qrag.engine import (
    CONTEXT_DELIMITER,
    DIGEST_SIZE,
    EARLIER_FILES,
    INDEX_FILE,
    STATS_FILE,
    EngineConfig,
    RetrievalEngine,
    build_all,
    format_context,
    load_index,
    save_index,
)
from qrag.quantum import FUSION_MODES, fuse_rrf, interference_score, normalize_lexical
from qrag.semantic import VectorIndex
from qrag.synthetic import write_jsonl
from qrag.tokenizer import TokenizerModel, train_bpe


def _stored_chunks(index_dir, tok):
    """The chunk table that the chunk sections of ``index_dir`` hold."""
    data = b"".join(index_file.sections(index_dir)[a.name] for a in CHUNK_ARRAYS)
    return parse_chunks(_npy.read(io.BytesIO(data), CHUNK_ARRAYS, len(data), {}), tok)


class TestEngineConfig:
    def test_dict_round_trip(self):
        cfg = EngineConfig(vocab_size=1234)
        assert EngineConfig.from_dict(cfg.to_dict()) == cfg

    def test_partial_dict_uses_defaults(self):
        cfg = EngineConfig.from_dict({"bm25": {"k1": 2.0}})
        assert cfg.bm25.k1 == 2.0
        assert cfg.bm25.b == 0.75
        assert cfg.fusion.mode == "quantum_interference"

    def test_budget_must_cover_chunk_size(self):
        with pytest.raises(ValueError, match="context_budget_tokens"):
            EngineConfig(context_budget_tokens=100)
        with pytest.raises(ValueError, match="context_budget_tokens"):
            EngineConfig(context_budget_tokens=math.nan)

    def test_nan_fusion_weights_in_a_config_file_rejected(self):
        # json.loads takes the NaN literal, so a config file can carry one.
        raw = json.loads('{"fusion": {"w_semantic": NaN, "w_lexical": NaN}}')
        with pytest.raises(ValueError, match="w_semantic must be finite"):
            EngineConfig.from_dict(raw)

    @pytest.mark.parametrize("vocab_size", [math.nan, 0, -5, True, 500.0, math.inf])
    def test_vocab_size_that_is_not_a_positive_int_rejected(self, vocab_size):
        with pytest.raises(ValueError, match="vocab_size must be an int >= 1"):
            EngineConfig(vocab_size=vocab_size)

    def test_json_file_round_trip(self, tmp_path):
        cfg = EngineConfig(vocab_size=500)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        assert EngineConfig.from_json_file(path) == cfg


class TestBuildAll:
    def test_manifest_matches_chunks_file(self, small_engine):
        engine, bench, index_dir, _, _ = small_engine
        manifest = index_file.manifest(index_dir)
        stored = _stored_chunks(index_dir, engine.tokenizer)
        assert manifest["chunk_count"] == len(stored) == engine.chunk_count
        assert manifest == {
            "chunk_count": engine.chunk_count,
            "config": engine.config.to_dict(),
            "format_version": 12,
        }
        assert stored == engine.chunks

    def test_chunks_file_takes_one_byte_per_codepoint_of_text(self, small_engine):
        # Besides three 128-byte array headers and the ids, each chunk costs
        # 4 bytes (its token count), then 2 bytes per vocab id of a
        # vocabulary above 256: at most one byte per codepoint of its text.
        engine, _, index_dir, _, _ = small_engine
        chunks = engine.chunks
        ids = json.dumps(chunks.chunk_ids, ensure_ascii=False)
        fixed = 3 * 128 + len(ids.encode()) + 4 * len(chunks)
        found = index_file.sections(index_dir)
        size = sum(len(found[a.name]) for a in CHUNK_ARRAYS)
        assert size == fixed + 2 * int(chunks.token_counts.sum())
        assert size <= fixed + sum(map(len, chunks.texts(range(len(chunks)))))

    def test_double_build_byte_identical(self, small_engine, tmp_path):
        _, _, index_dir, corpus_path, cfg = small_engine
        build_all(corpus_path, cfg, tmp_path / "again")
        assert sorted(p.name for p in index_dir.iterdir()) == [INDEX_FILE, STATS_FILE]
        for name in (INDEX_FILE, STATS_FILE):
            assert (tmp_path / "again" / name).read_bytes() == (
                index_dir / name
            ).read_bytes(), name

    def test_each_chunk_is_encoded_once(self, small_engine, tmp_path, monkeypatch):
        _, _, _, corpus_path, cfg = small_engine
        encode = TokenizerModel.encode
        texts: list[str] = []

        def counted(model, text):
            texts.append(text)
            return encode(model, text)

        monkeypatch.setattr(TokenizerModel, "encode", counted)
        build_all(corpus_path, cfg, tmp_path / "counted")
        stats = json.loads((tmp_path / "counted" / "stats.json").read_text(encoding="utf-8"))
        kept = stats["ingested"] - stats["deduped"] - sum(stats["rejected_by_reason"].values())
        # Once per kept document (to chunk it), once per chunk (its terms
        # feed both legs) and once for the context delimiter.
        assert len(texts) == kept + stats["chunks"] + 1

    def test_all_docs_filtered_is_an_error(self, tmp_path):
        write_jsonl(
            [{"id": "a", "text": "english only text here"}], tmp_path / "c.jsonl"
        )
        with pytest.raises(RuntimeError, match="empty corpus"):
            build_all(tmp_path / "c.jsonl", EngineConfig(vocab_size=500), tmp_path / "i")

    def test_a_repeated_document_id_fails_ingest_naming_it(self, tmp_path):
        records = synthetic.make_corpus(20, seed=3)
        records[1]["id"] = records[0]["id"]
        synthetic.write_jsonl(records, tmp_path / "corpus.jsonl")
        match = r"^build stage 'ingest\+filter' failed: two kept documents have the id 'doc00000'$"
        with pytest.raises(RuntimeError, match=match):
            build_all(tmp_path / "corpus.jsonl", EngineConfig(vocab_size=300), tmp_path / "index")
        assert not (tmp_path / "index").exists()

    def test_a_repeated_record_is_dropped_as_a_duplicate(self, tmp_path):
        records = synthetic.make_corpus(20, seed=3)
        records[1] = records[0]
        synthetic.write_jsonl(records, tmp_path / "corpus.jsonl")
        build_all(tmp_path / "corpus.jsonl", EngineConfig(vocab_size=300), tmp_path / "index")
        stats = json.loads((tmp_path / "index" / "stats.json").read_text(encoding="utf-8"))
        assert stats["deduped"] == 1

    def test_stats_written(self, small_engine):
        _, _, index_dir, _, _ = small_engine
        stats = json.loads((index_dir / "stats.json").read_text(encoding="utf-8"))
        assert stats["chunks"] > 0
        assert "rejected_by_reason" in stats

    def test_stage_times_logged(self, small_engine, tmp_path, caplog):
        _, _, _, corpus_path, cfg = small_engine
        with caplog.at_level(logging.INFO, logger="qrag.engine"):
            build_all(corpus_path, cfg, tmp_path / "logged")
        logged = [
            r.getMessage() for r in caplog.records if r.getMessage().startswith("build stage")
        ]
        stages = ["ingest+filter", "train_bpe", "chunk", "lexical_index", "embed", "save"]
        assert [m.split()[2].rstrip(":") for m in logged] == stages
        assert all(m.endswith(" s") for m in logged)

    def test_stage_errors_carry_stage_name(self, small_engine, tmp_path, monkeypatch):
        _, _, _, corpus_path, cfg = small_engine

        def no_matrix(tokens, dim):
            raise ValueError("no token matrix")

        monkeypatch.setattr(semantic, "token_matrix", no_matrix)
        with pytest.raises(RuntimeError, match="^build stage 'embed' failed: no token matrix$"):
            build_all(corpus_path, cfg, tmp_path / "i")


def _scalar_lexical_norms(hits):
    """Min-max of the hits' positive BM25 scores in Python floats; 0 elsewhere."""
    pool = [h.sparse_raw for h in hits if h.sparse_raw > 0.0]

    def norm(s):
        if s <= 0.0:
            return 0.0
        lo, hi = min(pool), max(pool)
        return 1.0 if hi == lo else (s - lo) / (hi - lo)

    return {h.chunk_id: norm(h.sparse_raw) for h in hits}


def _embed_query(engine, text):
    return semantic.embed(engine.tokenizer.encode(text), engine.token_table)


def _by_score(engine, scored):
    """(row, score) pairs as (chunk id, score) pairs sorted by (-score, row)."""
    ids = engine.chunks.chunk_ids
    return [(ids[row], score) for row, score in sorted(scored, key=lambda rs: (-rs[1], rs[0]))]


def _bm25_ranking(engine, text):
    """The sparse leg's brute-force oracle: every row that holds a query term,
    ranked by ``bm25_score``."""
    index, p = engine.lexical_index, engine.config.bm25
    terms = engine.tokenizer.encode(text)
    scored = [(row, lexical.bm25_score(index, p, terms, row)) for row in range(engine.chunk_count)]
    return _by_score(engine, [(row, score) for row, score in scored if score > 0.0])


def _cosine_ranking(engine, text):
    """The dense leg's brute-force oracle: every row ranked by ``cosine``."""
    q_emb, cols = _embed_query(engine, text), engine.vector_index.cols
    return _by_score(
        engine, [(row, semantic.cosine(cols[:, row], q_emb)) for row in range(engine.chunk_count)]
    )


class TestRetrieve:
    def test_planted_term_wins_sparse_only(self, small_engine):
        engine, bench, *_ = small_engine
        for q in bench.queries:
            if q["kind"] != "lexical":
                continue
            resp = engine.retrieve(q["text"], mode="sparse_only")
            assert resp.hits[0].chunk_id == bench.targets[q["qid"]] + "#0"

    def test_chunk_text_query_self_matches_dense_only(self, small_engine):
        engine, *_ = small_engine
        chunks = engine.chunks
        resp = engine.retrieve(chunks.texts([17])[0], mode="dense_only")
        assert resp.hits[0].chunk_id == chunks.chunk_ids[17]
        assert resp.hits[0].dense_cos == pytest.approx(1.0, abs=1e-6)

    def test_sparse_only_equals_lexical_search(self, small_engine):
        engine, bench, *_ = small_engine
        for q in bench.queries[:8]:
            resp = engine.retrieve(q["text"], mode="sparse_only", k_final=10)
            want = _bm25_ranking(engine, q["text"])[:10]
            assert [(h.chunk_id, h.fused) for h in resp.hits] == want

    def test_dense_only_equals_search_exact(self, small_engine):
        engine, bench, *_ = small_engine
        for q in bench.queries[:8]:
            resp = engine.retrieve(q["text"], mode="dense_only", k_final=10)
            want = _cosine_ranking(engine, q["text"])[:10]
            assert [(h.chunk_id, h.fused) for h in resp.hits] == want

    def test_interference_scores_follow_formula(self, small_engine):
        engine, bench, *_ = small_engine
        cfgf = engine.config.fusion
        q = bench.queries[0]
        resp = engine.retrieve(q["text"], mode="quantum_interference", k_final=200)
        lex_norm = normalize_lexical(np.array([h.sparse_raw for h in resp.hits]))
        for h, l in zip(resp.hits, lex_norm, strict=True):
            expected = interference_score(
                h.quantum, float(l), cfgf.w_semantic, cfgf.w_lexical
            )
            assert h.fused == expected
        fused = [h.fused for h in resp.hits]
        assert fused == sorted(fused, reverse=True)

    @pytest.mark.parametrize("mode", FUSION_MODES)
    def test_fused_scores_match_scalar_kernels(self, small_engine, mode):
        # With k_final covering both legs every candidate is a hit, so each
        # hit's fused score can be recomputed from the hits' own component
        # scores with the scalar reference kernels, bit for bit.
        engine, bench, *_ = small_engine
        cfgf = engine.config.fusion
        ws, wl = cfgf.w_semantic, cfgf.w_lexical
        for q in bench.queries:
            hits = engine.retrieve(
                q["text"], mode=mode, k_final=cfgf.k_sparse + cfgf.k_dense
            ).hits
            assert [h.rank for h in hits] == list(range(1, len(hits) + 1))
            order = [(-h.fused, h.chunk_id) for h in hits]
            assert order == sorted(order)
            if mode in ("weighted_sum", "quantum_interference"):
                lex = _scalar_lexical_norms(hits)
            if mode == "rrf":
                sparse_list = sorted(
                    (h for h in hits if h.sparse_raw > 0.0),
                    key=lambda h: (-h.sparse_raw, h.chunk_id),
                )
                dense_list = sorted(hits, key=lambda h: (-h.dense_cos, h.chunk_id))
                rrf = fuse_rrf(
                    [[h.chunk_id for h in sparse_list], [h.chunk_id for h in dense_list]],
                    cfgf.rrf_k,
                )
            for h in hits:
                if mode == "sparse_only":
                    expected = h.sparse_raw
                elif mode == "dense_only":
                    expected = h.dense_cos
                elif mode == "rrf":
                    expected = rrf[h.chunk_id]
                elif mode == "weighted_sum":
                    expected = ws * ((h.dense_cos + 1.0) / 2.0) + wl * lex[h.chunk_id]
                elif mode == "fidelity_rerank":
                    expected = math.copysign(h.quantum * h.quantum, h.quantum)
                else:
                    expected = interference_score(h.quantum, lex[h.chunk_id], ws, wl)
                assert h.fused == expected, (q["qid"], h.chunk_id)

    def test_hits_come_from_leg_top_lists(self, small_engine):
        engine, bench, *_ = small_engine
        cfgf = engine.config.fusion
        for q in bench.queries[:6]:
            resp = engine.retrieve(q["text"], mode="rrf")
            sparse_ids = {cid for cid, _ in _bm25_ranking(engine, q["text"])[: cfgf.k_sparse]}
            dense_ids = {cid for cid, _ in _cosine_ranking(engine, q["text"])[: cfgf.k_dense]}
            for h in resp.hits:
                assert h.chunk_id in sparse_ids | dense_ids

    def test_component_scores_reported(self, small_engine):
        engine, bench, *_ = small_engine
        resp = engine.retrieve(bench.queries[0]["text"], mode="quantum_interference")
        top = resp.hits[0]
        assert top.sparse_raw is not None
        assert top.dense_cos is not None
        assert top.quantum is not None
        assert resp.timings["total"] > 0

    def test_empty_query_rejected(self, small_engine):
        engine, *_ = small_engine
        with pytest.raises(ValueError, match="empty query"):
            engine.retrieve("   ")

    @pytest.mark.parametrize("mode", FUSION_MODES)
    def test_a_query_of_unknown_codepoints_only_is_refused(self, small_engine, mode):
        # Its ids are all <unk>: no term to search for, as for an empty one.
        engine, *_ = small_engine
        assert set(engine.tokenizer.encode("hello world")) == {engine.tokenizer.unk_id}
        with pytest.raises(ValueError, match="^no query term is in the vocabulary$"):
            engine.retrieve("hello world", mode=mode)

    @pytest.mark.parametrize("mode", FUSION_MODES)
    def test_unknown_codepoints_leave_a_query_answered_as_without_them(
        self, small_engine, mode
    ):
        # "hello" encodes to <unk> ids alone; ਕ is a word of no chunk, the
        # other a word of the corpus.
        engine, bench, *_ = small_engine
        for query in ("ਕ", bench.records[0]["text"].split()[0]):
            alone, mixed = (engine.retrieve(q, mode=mode) for q in (query, query + " hello"))
            assert (mixed.hits, mixed.context) == (alone.hits, alone.context)
        assert alone.hits

    def test_fractional_k_final_rejected_by_name(self, small_engine):
        engine, bench, *_ = small_engine
        with pytest.raises(ValueError, match="k_final must be >= 1 and an int"):
            engine.retrieve(bench.queries[0]["text"], k_final=1.5)

    def test_deterministic_response(self, small_engine):
        engine, bench, *_ = small_engine
        text = bench.queries[3]["text"]
        a = engine.retrieve(text).to_json(include_timings=False)
        b = engine.retrieve(text).to_json(include_timings=False)
        assert a == b

    def test_context_within_budget(self, small_engine):
        engine, bench, *_ = small_engine
        for q in bench.queries[:10]:
            resp = engine.retrieve(q["text"])
            assert engine.tokenizer.token_count(resp.context) <= (
                engine.config.context_budget_tokens
            )

    @settings(max_examples=200)
    @given(data=st.data(), mode=st.sampled_from(FUSION_MODES), k=st.integers(1, 60))
    def test_any_query_answers_within_budget_or_is_refused(self, small_engine, data, mode, k):
        engine, bench, *_ = small_engine
        words = sorted({w for rec in bench.records for w in rec["text"].split()})
        query = data.draw(
            st.one_of(st.text(), st.lists(st.sampled_from(words), max_size=12).map(" ".join))
        )
        try:
            resp = engine.retrieve(query, mode=mode, k_final=k)
        except ValueError:
            return
        assert len(resp.hits) <= k
        budget = engine.config.context_budget_tokens
        assert engine.tokenizer.token_count(resp.context) <= budget

    def test_quantum_overlap_matches_amplitude_states(self, small_engine):
        engine, bench, *_ = small_engine
        for mode in ("fidelity_rerank", "quantum_interference"):
            for q in bench.queries[:6]:
                resp = engine.retrieve(q["text"], mode=mode, k_final=50)
                q_emb = _embed_query(engine, q["text"])
                q_state = quantum.amplitude_encode(q_emb)
                for h in resp.hits:
                    row = engine.chunks.chunk_ids.index(h.chunk_id)
                    d_state = quantum.amplitude_encode(engine.vector_index.cols[:, row])
                    assert h.quantum == pytest.approx(
                        quantum.overlap(q_state, d_state), abs=1e-12
                    )

    def test_retrieve_encodes_only_the_query(self, small_engine, monkeypatch):
        engine, bench, *_ = small_engine
        calls = {"encode": 0, "amplitude_encode": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            TokenizerModel, "encode", counting("encode", TokenizerModel.encode)
        )
        monkeypatch.setattr(
            quantum,
            "amplitude_encode",
            counting("amplitude_encode", quantum.amplitude_encode),
        )
        resp = engine.retrieve(bench.queries[0]["text"], mode="quantum_interference")
        assert resp.hits and resp.context
        # The one amplitude_encode is the query state's; no candidate state
        # is built.
        assert calls == {"encode": 1, "amplitude_encode": 1}


class TestRowSpace:
    """Row i of both indexes must be chunk i, so each holds one row per
    chunk; the engine refuses anything else."""

    def test_vector_index_of_another_row_count_rejected(self, small_engine):
        engine, *_ = small_engine
        n = engine.chunk_count
        short = VectorIndex(engine.vector_index.cols[:, 1:].T)
        with pytest.raises(ValueError, match=f"^vector index has {n - 1} rows for {n} chunks$"):
            RetrievalEngine(
                engine.chunks, engine.tokenizer, engine.lexical_index, short, engine.config
            )

    def test_lexical_index_of_another_row_count_rejected(self, small_engine):
        engine, *_ = small_engine
        tok, chunks, n = engine.tokenizer, engine.chunks, engine.chunk_count
        first = chunks.token_ids(0)
        longer = lexical.build_index(
            np.concatenate([chunks.tokens, first]),
            np.append(chunks.token_counts, len(first)),
            tok.vocab_size(),
        )
        with pytest.raises(ValueError, match=f"^lexical index has {n + 1} rows for {n} chunks$"):
            RetrievalEngine(chunks, tok, longer, engine.vector_index, engine.config)

    def test_lexical_index_of_another_vocabulary_rejected(self, small_engine):
        # Term j of the lexical index is vocab id j, so its term count is V.
        engine, *_ = small_engine
        tok, chunks = engine.tokenizer, engine.chunks
        other = lexical.build_index(chunks.tokens, chunks.token_counts, tok.vocab_size() + 1)
        with pytest.raises(ValueError, match="lexical index terms do not follow the vocab"):
            RetrievalEngine(chunks, tok, other, engine.vector_index, engine.config)


@pytest.fixture(scope="module")
def line_id_index(tmp_path_factory):
    """An index of a corpus whose lines carry no id, so document N is
    ``line-N`` and file order is not id order (``line-10`` sorts before
    ``line-2``), cut into 24-token chunks, so that some documents have 11 or
    more (``#10`` sorts before ``#2``)."""
    records = synthetic.make_corpus(40, seed=13, lexicon_size=60, words_per_doc=(150, 260))
    root = tmp_path_factory.mktemp("line_ids")
    write_jsonl([{"text": r["text"]} for r in records], root / "corpus.jsonl")
    cfg = EngineConfig(
        cleaning=CleaningConfig(chunk_size_tokens=24, chunk_overlap_tokens=8), vocab_size=2000
    )
    build_all(root / "corpus.jsonl", cfg, root / "index")
    return root / "index"


class TestChunkIdOrder:
    """Rows are in chunk-id order, so ranking ties break on the row."""

    def test_rows_follow_chunk_ids_after_build_and_load(self, line_id_index):
        loaded = load_index(line_id_index).chunks
        stored = _stored_chunks(line_id_index, loaded.tokenizer)
        for ids in (stored.chunk_ids, loaded.chunk_ids):
            assert all(a < b for a, b in zip(ids, ids[1:]))
        # Rows are not in file order: line-10 comes before line-2, and a
        # document's chunk 10 before its chunk 2.
        doc_ids = [cid.rpartition("#")[0] for cid in stored.chunk_ids]
        docs = list(dict.fromkeys(doc_ids))
        assert docs != sorted(docs, key=lambda d: int(d.split("-")[1]))
        assert max(doc_ids.count(d) for d in docs) >= 11

    def test_hits_tie_break_on_chunk_id_in_every_mode(self, line_id_index):
        engine = load_index(line_id_index)
        words = " ".join(engine.chunks.texts(range(30))).split()
        queries = [" ".join(words[i : i + 1 + i % 3]) for i in range(0, 90, 3)]
        ties = dict.fromkeys(FUSION_MODES, 0)
        for mode in FUSION_MODES:
            for text in queries:
                hits = engine.retrieve(text, mode=mode, k_final=40).hits
                order = [(-h.fused, h.chunk_id) for h in hits]
                assert order == sorted(order), (mode, text)
                ties[mode] += sum(a[0] == b[0] for a, b in zip(order, order[1:]))
        assert sum(ties.values()) > 0, ties


def _fifty_queries(engine, bench):
    """50 distinct queries: the planted ones, windows of chunk words, and
    words of codepoints the tokenizer never saw (its unk piece)."""
    queries = [q["text"] for q in bench.queries]
    words = " ".join(engine.chunks.texts(range(40))).split()
    queries += [" ".join(words[i : i + 5]) for i in range(0, 20 * 7, 7)]
    queries += [f"{w} qzx{i} ഷ" for i, w in enumerate(words[:6])]
    queries = list(dict.fromkeys(queries))[:50]
    assert len(queries) == 50
    return queries


def _answer(engine, queries, i):
    """Query ``i``'s response, in the fusion mode its position picks."""
    mode = FUSION_MODES[i % len(FUSION_MODES)]
    return engine.retrieve(queries[i], mode=mode).to_json(include_timings=False)


def _answers(engine, queries):
    return [_answer(engine, queries, i) for i in range(len(queries))]


@pytest.fixture(scope="module")
def dim16_index(small_engine, tmp_path_factory):
    """The small engine's corpus indexed again with 16-dim token vectors."""
    _, _, _, corpus_path, cfg = small_engine
    out = tmp_path_factory.mktemp("dim16") / "index"
    build_all(corpus_path, replace(cfg, embedder=semantic.EmbedderSpec(dim=16)), out)
    return out


def _state(engine):
    """Each numpy array reachable from ``engine``, by path, as its dtype,
    shape and digest, and one digest of every other value it reaches: all of
    the engine but its two bounded caches, the tokenizer's word cache, which
    ``WORD_CACHE_MAX`` bounds, and the chunk table's text slots, one per
    chunk."""
    arrays, values, seen = {}, hashlib.sha256(), set()

    def walk(path, obj):
        if isinstance(obj, np.ndarray):
            digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
            arrays[path] = (obj.dtype.str, obj.shape, digest)
        elif obj is None or isinstance(obj, (str, bytes, int, float, np.generic)):
            values.update(f"{path}={obj!r}\n".encode())
        elif id(obj) in seen or any(
            obj is cache for cache in (engine.tokenizer._word_cache, engine.chunks.text_slots)
        ):
            return
        else:
            seen.add(id(obj))
            if isinstance(obj, dict):
                items = obj.items()
            elif isinstance(obj, (list, tuple)):
                items = list(enumerate(obj))
            elif hasattr(obj, "__slots__"):
                items = [(name, getattr(obj, name)) for name in obj.__slots__]
            else:
                assert hasattr(obj, "__dict__") and not callable(obj), type(obj)
                items = vars(obj).items()
            values.update(f"{path}:{type(obj).__name__}:{len(items)}\n".encode())
            for key, value in items:
                values.update(f"{path}[{key!r}]\n".encode())
                walk(f"{path}[{key!r}]", value)

    walk("engine", engine)
    return arrays, values.hexdigest()


class TestTokenTables:
    """Each engine owns its dense-leg weights and no token vectors: an embed
    computes its own ids' vectors. The package keeps no state."""

    def test_table_covers_the_vocabulary_with_idf_weights(self, small_engine):
        _, _, index_dir, *_ = small_engine
        engine = load_index(index_dir)
        table = engine.token_table
        vocab = engine.tokenizer.vocab
        li = engine.lexical_index
        # An id's idf where a chunk holds it, 1.0 (not the idf of df 0) where
        # none does, and 0.0 for <unk> and <pad>, which stand for no text.
        want = [
            lexical.idf(li, i) if len(li.postings(i)[0]) else 1.0
            for i in range(len(vocab))
        ]
        want[vocab["<unk>"]] = want[vocab["<pad>"]] = 0.0
        assert table.weights.tolist() == want
        assert 1.0 in want and len(set(want)) > 3

    def test_a_loaded_engine_holds_no_token_vectors(self, small_engine):
        _, _, index_dir, *_ = small_engine
        engine = load_index(index_dir)
        v, dim = engine.tokenizer.vocab_size(), engine.config.embedder.dim
        shapes = {path: shape for path, (_, shape, _) in _state(engine)[0].items()}
        assert shapes["engine['token_table']['weights']"] == (v,)
        assert not [p for p, shape in shapes.items() if {v, dim} <= set(shape)]

    def test_retrieves_leave_a_loaded_engine_unchanged(self, small_engine):
        # Every array and value a retrieve could write, the two bounded
        # caches aside: no token vector is stored at query time.
        _, bench, index_dir, *_ = small_engine
        engine = load_index(index_dir)
        queries = _fifty_queries(small_engine[0], bench)
        before = _state(engine)
        paths = before[0].keys()
        for owner in ("chunks", "lexical_index", "vector_index", "token_table"):
            assert any(p.startswith(f"engine[{owner!r}]") for p in paths), owner
        assert any(p.startswith("engine['lexical_index']['_impacts']") for p in paths)
        cached = len(engine.tokenizer._word_cache)
        assert engine.chunks.text_slots == [None] * engine.chunk_count
        for i in range(200):
            engine.retrieve(queries[i % 50], mode=FUSION_MODES[i % len(FUSION_MODES)])
        assert _state(engine) == before
        assert len(engine.tokenizer._word_cache) > cached
        slots = engine.chunks.text_slots
        assert len(slots) == engine.chunk_count and slots.count(None) < len(slots)

    def test_a_query_embeds_a_chunk_as_the_build_did(self, small_engine):
        # The build takes token vectors from one matrix of the vocabulary's;
        # a query computes its own ids'. Both give the same bits.
        engine, *_ = small_engine
        tok, table = engine.tokenizer, engine.token_table
        n = min(200, engine.chunk_count)
        matrix = semantic.token_matrix(tok.tokens, engine.config.embedder.dim)
        terms = [tok.encode(text) for text in engine.chunks.texts(range(n))]
        built = [semantic.embed(ids, table, matrix) for ids in terms]
        queried = [semantic.embed(ids, table) for ids in terms]
        assert [v.tobytes() for v in queried] == [v.tobytes() for v in built]
        # And the stored vectors are those embeds, as the build rounds them.
        cols = engine.vector_index.cols[:, :n]
        assert VectorIndex.build(n, queried).cols.tobytes() == cols.copy().tobytes()

    def test_a_query_id_no_chunk_holds_weighs_1_and_has_no_postings(self, small_engine):
        # Fresh words' pieces and <unk> (a Malayalam letter): df = 0, so no
        # postings, and table weight 1.0, not the idf of df 0; <unk> weighs
        # 0.0.
        engine, bench, *_ = small_engine
        li, tok, table = engine.lexical_index, engine.tokenizer, engine.token_table
        corpus_words = {w for rec in bench.records for w in rec["text"].split()}
        rng = np.random.default_rng(3)
        fresh = [w for w in synthetic.gurmukhi_lexicon(rng, 20) if w not in corpus_words]
        ids = tok.encode(" ".join(fresh) + " ഷ")
        unheld = {i for i in ids if not len(li.postings(i)[0])}
        assert tok.unk_id in unheld and len(unheld) > 1
        for i in unheld - {tok.unk_id}:
            assert table.weights[i] == 1.0 != lexical.idf(li, i)
        assert table.weights[tok.unk_id] == 0.0

    def test_engines_of_two_dims_answer_as_each_does_alone(self, small_engine, dim16_index):
        _, bench, index_dir, *_ = small_engine
        queries = _fifty_queries(small_engine[0], bench)
        dirs = (index_dir, dim16_index)
        alone = [_answers(load_index(d), queries) for d in dirs]
        engines = [load_index(d) for d in dirs]
        assert [e.config.embedder.dim for e in engines] == [256, 16]
        together = [[], []]
        for i in range(len(queries)):
            for answers, engine in zip(together, engines):
                answers.append(_answer(engine, queries, i))
        assert together == alone
        assert alone[0] != alone[1]

    def test_threads_racing_on_row_fills_answer_as_a_sequential_run(self, small_engine):
        # The rows are the chunk table's text slots, which a fresh load
        # leaves empty and the first response to return a chunk fills.
        _, bench, index_dir, *_ = small_engine
        queries = _fifty_queries(small_engine[0], bench)
        expected = _answers(load_index(index_dir), queries)
        engine = load_index(index_dir)
        start = threading.Barrier(4, timeout=60)

        def run(t):
            order = [(i + 13 * t) % 50 for i in range(50)]
            start.wait()
            got = {i: _answer(engine, queries, i) for i in order}
            return [got[i] for i in range(50)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(run, t) for t in range(4)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 4
        chunks, tok = engine.chunks, engine.tokenizer
        slots = chunks.text_slots
        assert len(slots) == engine.chunk_count
        filled = [row for row, text in enumerate(slots) if text is not None]
        assert len(filled) > 50
        for row in filled:
            assert slots[row] == tok.decode(chunks.token_ids(row).tolist())

    def test_retrieves_leave_module_level_containers_unchanged(
        self, small_engine, dim16_index
    ):
        # A process-wide cache in any qrag module would grow here: the
        # queries carry pieces that no build embedded.
        def sizes():
            return {
                (name, key): len(value)
                for name, module in list(sys.modules.items())
                if name == "qrag" or name.startswith("qrag.")
                for key, value in vars(module).items()
                if not key.startswith("__") and type(value) in (dict, list, set)
            }

        _, bench, index_dir, *_ = small_engine
        queries = _fifty_queries(small_engine[0], bench)
        before = sizes()
        for d in (index_dir, dim16_index):
            engine = load_index(d)
            _answers(engine, queries + queries)
        assert sizes() == before


@pytest.fixture(scope="module")
def split_engine(tmp_path_factory):
    """An index of 24-token windows at stride 19 over a 300-document planted
    corpus with a vocabulary of 300: about half its windows split a word."""
    bench = synthetic.make_planted_benchmark(n_docs=300)
    root = tmp_path_factory.mktemp("split")
    synthetic.write_jsonl(bench.records, root / "corpus.jsonl")
    cfg = EngineConfig(
        cleaning=CleaningConfig(chunk_size_tokens=24, chunk_overlap_tokens=5), vocab_size=300
    )
    build_all(root / "corpus.jsonl", cfg, root / "index")
    return load_index(root / "index"), bench


class TestTokenCounts:
    """The counts ``format_context`` budgets with, pinned to the tokenizer."""

    def test_doc_len_is_token_count_of_chunk_text(self, small_engine):
        engine, *_ = small_engine
        tok = engine.tokenizer
        chunks = engine.chunks
        for row, text in enumerate(chunks.texts(range(len(chunks)))):
            assert engine.lexical_index.doc_len[row] == tok.token_count(text)
            assert chunks.token_counts[row] == engine.lexical_index.doc_len[row]

    def test_stored_terms_are_the_encode_of_each_text(self, split_engine):
        # One id sequence per chunk, the terms both legs index: its length is
        # the chunk's BM25 length and its context cost. A window that splits
        # a word stores the piece in it encoded as a word of its own.
        engine, bench = split_engine
        tok, chunks = engine.tokenizer, engine.chunks
        words = {w for rec in bench.records for w in rec["text"].split()}
        split = 0
        for row in range(len(chunks)):
            (text,), ids = chunks.texts([row]), chunks.token_ids(row).tolist()
            assert ids == tok.encode(text)
            assert chunks.token_counts[row] == len(ids) == engine.lexical_index.doc_len[row]
            split += not {text.split()[0], text.split()[-1]} <= words
        assert split > len(chunks) // 4

    def test_counts_add_up_across_the_delimiter(self, small_engine):
        engine, *_ = small_engine
        tok = engine.tokenizer
        sep = f"\n{CONTEXT_DELIMITER}\n"
        sep_cost = tok.token_count(CONTEXT_DELIMITER)
        pool = engine.chunks.texts(range(engine.chunk_count)) + ["", "  \n\t "]
        rng = np.random.default_rng(5)
        for _ in range(200):
            texts = [pool[int(i)] for i in rng.integers(len(pool), size=rng.integers(0, 8))]
            if texts and rng.random() < 0.3:
                texts[int(rng.integers(len(texts)))] = pool[int(rng.integers(-2, 0))]
            counts = [tok.token_count(t) for t in texts]
            expected = sum(counts) + sep_cost * max(len(texts) - 1, 0)
            assert tok.token_count(sep.join(texts)) == expected


@pytest.fixture(scope="module")
def context_model():
    return train_bpe(["ਕਾ " * 40, "ਖੀ " * 40], vocab_size=60)


def _text_of(n_tokens, word="ਕਾ"):
    return (word + " ") * n_tokens


def _context(texts, budget, tok):
    counts = [tok.token_count(t) for t in texts]
    return format_context(texts, counts, tok.token_count(CONTEXT_DELIMITER), budget, tok)


class TestFormatContext:
    def test_greedy_inclusion_under_budget(self, context_model):
        sep_cost = context_model.token_count("---")
        hits = [_text_of(400), _text_of(400), _text_of(400)]
        context = _context(hits, 1024, context_model)
        n = context_model.token_count(context)
        assert n == 800 + sep_cost
        assert context.count("---") == 1  # two chunks included

    def test_everything_fits(self, context_model):
        hits = [_text_of(100), _text_of(100)]
        context = _context(hits, 1024, context_model)
        assert context.count("---") == 1
        assert context_model.token_count(context) <= 1024

    def test_first_chunk_truncated_to_budget(self, context_model):
        context = _context([_text_of(2000)], 1024, context_model)
        assert context_model.token_count(context) == 1024
        assert context == _text_of(1024).strip()

    def test_empty_hits(self, context_model):
        assert _context([], 1024, context_model) == ""

    def test_budget_validated(self, context_model):
        with pytest.raises(ValueError):
            _context(["x"], 0, context_model)

    def test_fuzz_never_exceeds_budget(self, context_model):
        rng = np.random.default_rng(77)
        words = ["ਕਾ", "ਖੀ"]
        for _ in range(100):
            hits = [
                _text_of(int(rng.integers(1, 600)), words[int(rng.integers(2))])
                for _ in range(int(rng.integers(0, 8)))
            ]
            budget = int(rng.integers(1, 1500))
            context = _context(hits, budget, context_model)
            assert context_model.token_count(context) <= budget


def _earlier_index(index_dir, manifest):
    """A directory of format 11's files, ``manifest`` its ``manifest.json``."""
    index_dir.mkdir()
    for name in EARLIER_FILES[1:5] + (STATS_FILE,):
        (index_dir / name).write_bytes(b"")
    (index_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def _manifest_of(engine, version):
    """A manifest.json of ``version``, with the keys of format 11."""
    return {
        "format_version": version,
        "created_at": "2025-01-01T00:00:00+00:00",
        "chunk_count": engine.chunk_count,
        "config": engine.config.to_dict(),
        "files": dict.fromkeys(EARLIER_FILES[1:5], "0" * 64),
    }


def _answers_of(engine, queries):
    return [engine.retrieve(t).to_json(include_timings=False) for t in queries]


class TestPersistence:
    def test_save_load_responses_byte_identical(self, small_engine, tmp_path):
        engine, bench, *_ = small_engine
        queries = [q["text"] for q in bench.queries[:10]]
        before = [engine.retrieve(t).to_json(include_timings=False) for t in queries]
        save_index(engine, tmp_path / "copy")
        reloaded = load_index(tmp_path / "copy")
        after = [reloaded.retrieve(t).to_json(include_timings=False) for t in queries]
        assert before == after

    def test_load_computes_the_bm25_impacts(self, small_engine):
        engine, _, index_dir, *_ = small_engine
        reloaded = load_index(index_dir)
        params, _ = reloaded.lexical_index._impacts
        assert params == reloaded.config.bm25

    def test_repeated_chunk_id_rejected(self, small_engine, tmp_path):
        # Re-saved with chunk 1 carrying chunk 0's id, and a digest to match.
        engine, *_ = small_engine
        index_dir = tmp_path / "repeated"
        save_index(engine, index_dir)
        ids = list(engine.chunks.chunk_ids)
        ids[1] = ids[0]
        index_file.replace_sections(index_dir, {"ids": index_file.json_array(ids)})
        with pytest.raises(ValueError, match=f"^chunks: chunk_id '{ids[0]}' is listed twice$"):
            load_index(index_dir)

    def test_unsupported_version_rejected(self, small_engine, tmp_path):
        engine, *_ = small_engine
        save_index(engine, tmp_path / "v99")
        index_file.edit_manifest(tmp_path / "v99", lambda m: m.update(format_version=99))
        match = "^manifest: unsupported version: 99; rebuild the index$"
        with pytest.raises(ValueError, match=match):
            load_index(tmp_path / "v99")

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_lexical_offsets_that_do_not_fit_the_vocab_refused(
        self, small_engine, tmp_path, extra
    ):
        # Term j is vocab id j: the index holds one offset per vocab id and
        # one more. Drop the last, or add a term no chunk holds.
        engine, *_ = small_engine
        save_index(engine, tmp_path / "index")
        li, v = engine.lexical_index, engine.tokenizer.vocab_size()
        offsets = li.offsets[:-1] if extra < 0 else np.append(li.offsets, li.offsets[-1])
        index_file.replace_sections(tmp_path / "index", {"offsets": offsets})
        match = f"^lexical: offsets has {v + 1 + extra} entries for a vocabulary of {v} "
        with pytest.raises(ValueError, match=match):
            load_index(tmp_path / "index")

    def test_tampered_file_digest_mismatch(self, small_engine, tmp_path):
        engine, *_ = small_engine
        save_index(engine, tmp_path / "tampered")
        path = tmp_path / "tampered" / INDEX_FILE
        data = path.read_bytes()
        at = data.index(b'"merges"')  # in the tokenizer, which still parses
        path.write_bytes(data[:at] + b" " + data[at + 1 :])
        with pytest.raises(ValueError, match="^digest mismatch$"):
            load_index(tmp_path / "tampered")

    def test_missing_file_named(self, small_engine, tmp_path):
        engine, *_ = small_engine
        save_index(engine, tmp_path / "missing")
        (tmp_path / "missing" / INDEX_FILE).unlink()
        with pytest.raises(FileNotFoundError, match=f"missing file: .*{INDEX_FILE}$"):
            load_index(tmp_path / "missing")

    @pytest.mark.parametrize("name", ["tokenizer.json", "chunks.npy", "lexical.npy", "vectors.npy"])
    def test_manifest_must_list_every_index_file(self, small_engine, tmp_path, name):
        # Up to format 11 the manifest listed each file of the index. The one
        # file of format 12 holds every store in order, and a file without
        # one is refused by the store read in its place.
        engine, *_ = small_engine
        save_index(engine, tmp_path / "index")
        store, names = index_file.STORES[name]
        index_file.replace_sections(tmp_path / "index", dict.fromkeys(names, b""))
        with pytest.raises(ValueError, match=f"^{store}: "):
            load_index(tmp_path / "index")

    def test_manifest_unknown_file_rejected(self, small_engine, tmp_path):
        # Up to format 11 a manifest could list a file unknown to the format;
        # an array after the last store is refused.
        engine, *_ = small_engine
        save_index(engine, tmp_path / "extra")
        vectors = index_file.sections(tmp_path / "extra")["vectors"]
        extra = index_file.array_bytes(np.zeros(3, np.uint8))
        index_file.replace_sections(tmp_path / "extra", {"vectors": vectors + extra})
        with pytest.raises(ValueError, match="^vectors: trailing bytes after the vectors array$"):
            load_index(tmp_path / "extra")

    def test_missing_manifest_named(self, tmp_path):
        # The manifest is the first section of the index file.
        with pytest.raises(FileNotFoundError, match=f"missing file: .*{INDEX_FILE}$"):
            load_index(tmp_path)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[]", "manifest.json: expected a JSON object"),
            ("null", "manifest.json: expected a JSON object"),
            ('"v2"', "manifest.json: expected a JSON object"),
            ("{", "manifest.json: Expecting property name"),
        ],
    )
    def test_manifest_that_is_not_an_object_named(self, tmp_path, text, match):
        # A manifest.json and no index file: a directory of format 11 or
        # earlier, whose version the manifest states.
        (tmp_path / "bad").mkdir()
        (tmp_path / "bad" / "manifest.json").write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=match):
            load_index(tmp_path / "bad")

    @pytest.mark.parametrize("text", ["[]", "null", '"v2"', "{"])
    def test_a_manifest_section_that_is_not_an_object_is_named(
        self, small_engine, tmp_path, text
    ):
        engine, *_ = small_engine
        save_index(engine, tmp_path / "index")
        data = np.frombuffer(text.encode(), np.uint8)
        index_file.replace_sections(tmp_path / "index", {"manifest": data})
        with pytest.raises(ValueError, match="^manifest: (expected a JSON object|Expecting)"):
            load_index(tmp_path / "index")

    # Each version up to 11 kept its index as files beside a manifest.json.
    # Version 1 kept JSONL and raw binary files, version 2 the chunks in
    # chunks.jsonl; version 3 kept every chunk text in UTF-16-LE and the
    # postings rows as <i4; version 4 each term's string in lexical.npy;
    # version 5 the rows in build order; version 6 a doc id beside each
    # chunk id, and the tokenizer digest and the embedder twice in the
    # manifest; version 7 each chunk's text, where version 8 kept its vocab
    # ids; version 8 config.embedder.kind, version 9 each chunk's window ids
    # and token offset, version 10 config.fusion.signed_fidelity, and
    # version 11 the files of format 12's sections.
    @pytest.mark.parametrize("version", range(1, 12), ids=[f"v{v}" for v in range(1, 12)])
    def test_an_earlier_version_asks_for_a_rebuild(self, small_engine, tmp_path, version):
        engine, *_ = small_engine
        _earlier_index(tmp_path / "old", _manifest_of(engine, version))
        match = f"^manifest.json: unsupported version: {version}; rebuild the index$"
        with pytest.raises(ValueError, match=match):
            load_index(tmp_path / "old")

    def test_a_version_8_external_file_index_asks_for_a_rebuild(self, small_engine, tmp_path):
        # Version 8 could read the chunk vectors from a JSONL file named in
        # the config; such an index is refused like any other of version 8.
        engine, *_ = small_engine
        manifest = _manifest_of(engine, 8)
        manifest["config"]["embedder"].update(kind="external_file", path="v.jsonl")
        _earlier_index(tmp_path / "old", manifest)
        match = "^manifest.json: unsupported version: 8; rebuild the index$"
        with pytest.raises(ValueError, match=match):
            load_index(tmp_path / "old")

    def test_a_version_10_manifest_asks_for_a_rebuild(self, small_engine, tmp_path):
        # Its config names fusion.signed_fidelity, which this version refuses
        # as an unknown key; the version is checked first.
        engine, *_ = small_engine
        manifest = _manifest_of(engine, 10)
        manifest["config"]["fusion"]["signed_fidelity"] = True
        _earlier_index(tmp_path / "old", manifest)
        match = "^manifest.json: unsupported version: 10; rebuild the index$"
        with pytest.raises(ValueError, match=match):
            load_index(tmp_path / "old")

    def test_a_build_replaces_a_format_11_directory(self, small_engine, tmp_path):
        # Every file that an earlier format wrote goes; any other file stays.
        engine, bench, _, corpus_path, cfg = small_engine
        target = tmp_path / "old"
        _earlier_index(target, _manifest_of(engine, 11))
        for name in EARLIER_FILES[5:] + ("notes.txt",):
            (target / name).write_bytes(b"v1")
        build_all(corpus_path, cfg, target)
        assert sorted(p.name for p in target.iterdir()) == [INDEX_FILE, "notes.txt", STATS_FILE]
        queries = [q["text"] for q in bench.queries[:3]]
        assert _answers_of(load_index(target), queries) == _answers_of(engine, queries)


def _set_dim(dim):
    def edit(manifest):
        manifest["config"]["embedder"]["dim"] = dim

    return edit


# Each way a manifest can disagree with itself or with the sections after
# it, and the refusal, which names the field or the section.
MANIFEST_FAULTS = {
    "dim_below_the_vectors": (
        _set_dim(128),
        "^manifest config.embedder.dim is 128, but the vectors are 256-dim$",
    ),
    "chunk_count_below_the_chunks": (
        lambda m: m.update(chunk_count=5),
        "^chunks: token_count has {n} entries for 5 chunks$",
    ),
    "chunk_count_above_the_chunks": (
        lambda m: m.update(chunk_count=m["chunk_count"] + 1),
        "^chunks: token_count has {n} entries for {m} chunks$",
    ),
}


def _flip(offset):
    def change(data):
        return data[:offset] + bytes([data[offset] ^ 0xFF]) + data[offset + 1 :]

    return change


# Byte 8 is the header length of a store's first .npy array.
TAMPERS = {
    "header_byte": _flip(8),
    "data_byte": _flip(-1),
    "truncation": lambda data: data[:-1],
}


def _owner(arr):
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr


class TestLoad:
    """``load_index`` reads the index file once, hashes it on a worker
    thread and checks the manifest against the sections after it."""

    @pytest.mark.parametrize("fault", MANIFEST_FAULTS, ids=list(MANIFEST_FAULTS))
    def test_manifest_that_disagrees_is_refused_by_field(self, small_engine, tmp_path, fault):
        engine, *_ = small_engine
        save_index(engine, tmp_path / "index")
        edit, match = MANIFEST_FAULTS[fault]
        index_file.edit_manifest(tmp_path / "index", edit)
        n = engine.chunk_count
        with pytest.raises(ValueError, match=match.format(n=n, m=n + 1)):
            load_index(tmp_path / "index")

    @pytest.mark.parametrize("key", ["tokenizer_sha256", "embedder"])
    def test_a_field_of_format_6_is_an_unknown_key(self, small_engine, tmp_path, key):
        # Format 6 repeated the digest of tokenizer.json and config.embedder.
        engine, *_ = small_engine
        save_index(engine, tmp_path / "index")
        value = {"tokenizer_sha256": "0" * 64, "embedder": {"kind": "hash_projection"}}[key]
        index_file.edit_manifest(tmp_path / "index", lambda m: m.update({key: value}))
        with pytest.raises(ValueError, match=f"^manifest: unknown key: {key}$"):
            load_index(tmp_path / "index")

    def test_a_re_signed_chunk_id_without_a_number_is_refused_by_name(
        self, small_engine, tmp_path
    ):
        engine, *_ = small_engine
        save_index(engine, tmp_path / "index")
        chunks = engine.chunks
        bad = chunks.chunk_ids[0].rpartition("#")[0]  # still the first in order
        ids = [bad, *chunks.chunk_ids[1:]]
        index_file.replace_sections(tmp_path / "index", {"ids": index_file.json_array(ids)})
        match = f"^chunks: ids must be chunk ids <doc id>#<n>, not {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=match):
            load_index(tmp_path / "index")

    def test_a_re_signed_id_of_the_vocabulary_size_is_refused_by_the_load(
        self, small_engine, tmp_path
    ):
        # Texts are decoded when a response first returns them, so an id
        # outside the vocabulary must be refused here, not met by a retrieve.
        engine, *_ = small_engine
        save_index(engine, tmp_path / "index")
        v = engine.tokenizer.vocab_size()
        tokens = index_file.arrays(tmp_path / "index")["token ids"].copy()
        tokens[len(tokens) // 2] = v
        index_file.replace_sections(tmp_path / "index", {"token ids": tokens})
        with pytest.raises(
            ValueError, match=f"^chunks: token id {v} is outside the vocabulary of {v}$"
        ):
            load_index(tmp_path / "index")

    @pytest.mark.parametrize("name", ["manifest.json", "tokenizer.json"])
    def test_json_nested_too_deep_is_refused_by_file(self, small_engine, tmp_path, name):
        # Deeper than the JSON decoder's recursion limit: a RecursionError before.
        engine, *_ = small_engine
        save_index(engine, tmp_path / "index")
        store, (section,) = index_file.STORES[name]
        data = np.frombuffer(b"[" * 100_000 + b"]" * 100_000, np.uint8)
        index_file.replace_sections(tmp_path / "index", {section: data})
        with pytest.raises(ValueError, match=f"^{store}: maximum recursion depth exceeded"):
            load_index(tmp_path / "index")

    def test_a_dim_that_matches_the_vectors_loads(self, small_engine, tmp_path):
        engine, *_ = small_engine
        save_index(engine, tmp_path / "index")
        index_file.edit_manifest(tmp_path / "index", _set_dim(256))
        assert load_index(tmp_path / "index").config.embedder.dim == 256

    @pytest.mark.parametrize("tamper", TAMPERS, ids=list(TAMPERS))
    @pytest.mark.parametrize("name", index_file.STORES)
    def test_tampered_file_is_a_digest_mismatch(self, small_engine, tmp_path, name, tamper):
        # The store's bytes changed and the digest kept: reported ahead of
        # whatever error parsing the same bytes gives.
        engine, *_ = small_engine
        save_index(engine, tmp_path / "index")
        path = tmp_path / "index" / INDEX_FILE
        digest = path.read_bytes()[-DIGEST_SIZE:]
        found = index_file.sections(tmp_path / "index")
        first, *rest = index_file.STORES[name][1]
        store = b"".join(found[n] for n in (first, *rest))
        for n in rest:
            del found[n]
        found[first] = TAMPERS[tamper](store)
        path.write_bytes(b"".join(found.values()) + digest)
        with pytest.raises(ValueError, match="^digest mismatch$"):
            load_index(tmp_path / "index")

    def test_an_earlier_digest_mismatch_comes_before_a_later_parse_error(
        self, small_engine, tmp_path
    ):
        # The tokenizer's JSON cut short, which its parse refuses, and the
        # vectors cut short: neither is re-signed.
        engine, *_ = small_engine
        save_index(engine, tmp_path / "index")
        path = tmp_path / "index" / INDEX_FILE
        digest = path.read_bytes()[-DIGEST_SIZE:]
        found = index_file.sections(tmp_path / "index")
        found["tokenizer"] = found["tokenizer"][:-1] + b" "
        found["vectors"] = found["vectors"][:-1]
        path.write_bytes(b"".join(found.values()) + digest)
        with pytest.raises(ValueError, match="^digest mismatch$"):
            load_index(tmp_path / "index")

    def test_each_index_file_is_opened_once(self, small_engine, monkeypatch):
        import builtins

        _, _, index_dir, *_ = small_engine
        opened: list[str] = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened.append(Path(file).name)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        load_index(index_dir)
        assert opened == [INDEX_FILE]

    @pytest.mark.parametrize("outcome", ["loads", "digest_mismatch", "parse_error", "missing"])
    def test_no_thread_outlives_the_load(self, small_engine, tmp_path, outcome):
        engine, *_ = small_engine
        index_dir = tmp_path / "index"
        save_index(engine, index_dir)
        path = index_dir / INDEX_FILE
        if outcome == "digest_mismatch":
            path.write_bytes(path.read_bytes()[:-1])
        elif outcome == "parse_error":
            # A repeated chunk id, with the digest to match.
            ids = list(engine.chunks.chunk_ids)
            ids[1] = ids[0]
            index_file.replace_sections(index_dir, {"ids": index_file.json_array(ids)})
        elif outcome == "missing":
            path.unlink()
        before = threading.enumerate()
        try:
            load_index(index_dir)
        except (ValueError, FileNotFoundError):
            assert outcome != "loads"
        else:
            assert outcome == "loads"
        assert set(threading.enumerate()) <= set(before)

    def test_a_loaded_engine_holds_no_view_of_the_file_bytes(self, small_engine):
        engine, _, index_dir, *_ = small_engine
        loaded = load_index(index_dir)
        li, vi = loaded.lexical_index, loaded.vector_index
        for arr in (
            loaded.chunks.token_counts,
            loaded.chunks.tokens,
            li.doc_len,
            li.offsets,
            li.rows,
            li.tfs,
            vi.cols,
        ):
            assert isinstance(_owner(arr), np.ndarray)
        assert loaded.chunks == engine.chunks

    def test_a_loaded_engine_holds_each_array_once_at_its_stored_width(self, small_engine):
        _, _, index_dir, *_ = small_engine
        loaded = load_index(index_dir)
        li, vi = loaded.lexical_index, loaded.vector_index
        n, dim = loaded.chunk_count, loaded.config.embedder.dim
        # The float32 columns, as the index file stores them: no float64 copy.
        assert vi.cols.dtype == np.float32 and vi.cols.shape == (dim, n)
        assert vi.cols.flags.c_contiguous and vi.cols.nbytes == n * dim * 4
        # The rows in the narrowest unsigned type that holds n - 1.
        assert li.rows.dtype == np.min_scalar_type(n - 1)
        # The chunk lengths are the chunk table's counts, held once.
        assert li.doc_len is loaded.chunks.token_counts
        # Each posting's impact is held once: in its term's dense row, or
        # else in the sparse terms' postings.
        impacts, dense = li.impacts(loaded.config.bm25)
        spans = li._spans
        assert len(dense) == sum(slot >= 0 for _, _, slot, _ in spans) > 0
        assert len(impacts) == sum(hi - lo for lo, hi, slot, _ in spans if slot < 0) > 0
        assert len(impacts) < len(li.rows)

    def test_one_info_line_times_each_file_and_the_digest_wait(self, small_engine, caplog):
        _, _, index_dir, *_ = small_engine
        with caplog.at_level(logging.INFO, logger="qrag.engine"):
            load_index(index_dir)
        (line,) = [r.getMessage() for r in caplog.records]
        stores = "; ".join(rf"{store} \d+\.\d{{3}} s" for store, _ in index_file.STORES.values())
        assert re.fullmatch(
            rf"loaded index {re.escape(str(index_dir))}: {stores}; "
            r"impacts \d+\.\d{3} s; digest wait \d+\.\d{3} s",
            line,
        )


# The exit status of a child killed by ``_kill_at``.
KILLED = 9


class _Counted:
    """A file whose writes count as file operations of ``_kill_at``."""

    def __init__(self, fh, tick):
        self._fh, self._tick = fh, tick

    def write(self, data):
        self._tick()
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def _kill_at(step, action):
    """Run ``action`` in a forked child that ends with ``os._exit(KILLED)``
    at its ``step``-th file operation instead of doing it (never, for step
    0): a write to a file, an fsync, a rename or replace, or a delete.
    Return the child's exit status and its count of operations."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: it leaves only by os._exit
        status = 1
        try:
            os.close(read_end)
            count = 0

            def tick():
                nonlocal count
                count += 1
                if count == step:
                    os._exit(KILLED)

            def counted(op):
                def run(*args, **kwargs):
                    tick()
                    return op(*args, **kwargs)

                return run

            for name in ("fsync", "replace", "rename", "unlink", "rmdir"):
                setattr(os, name, counted(getattr(os, name)))
            real_open = io.open
            import builtins

            builtins.open = io.open = lambda *a, **k: _Counted(real_open(*a, **k), tick)
            action()
            status = 0
        finally:
            os.write(write_end, str(count).encode())
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as fh:
        count = int(fh.read() or 0)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status), count


@pytest.fixture(scope="module")
def two_indexes(tmp_path_factory):
    """Two small indexes of different corpora: (engine, directory) each."""
    root = tmp_path_factory.mktemp("two_indexes")
    cfg = EngineConfig(
        cleaning=CleaningConfig(chunk_size_tokens=64, chunk_overlap_tokens=16), vocab_size=300
    )
    built = []
    for seed in (1, 2):
        synthetic.write_jsonl(synthetic.make_corpus(30, seed=seed), root / f"c{seed}.jsonl")
        build_all(root / f"c{seed}.jsonl", cfg, root / f"index{seed}")
        built.append((load_index(root / f"index{seed}"), root / f"index{seed}"))
    return built


QUERIES = ("ਸਤਿ ਨਾਮ", "ਕਰਤਾ ਪੁਰਖ ਨਿਰਭਉ")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestAtomicSave:
    """``save_index`` replaces the index file only once the new one is whole."""

    def test_a_kill_at_each_file_operation_leaves_the_old_index_or_the_new(
        self, two_indexes, tmp_path
    ):
        (old, old_dir), (new, _) = two_indexes
        answers = {"old": _answers_of(old, QUERIES), "new": _answers_of(new, QUERIES)}
        target = tmp_path / "index"

        def save():
            save_index(new, target, {"chunks": new.chunk_count})

        shutil.copytree(old_dir, target)
        status, steps = _kill_at(0, save)
        assert status == 0 and steps > 20
        shutil.rmtree(target)
        seen = []
        for step in range(1, steps + 1):
            shutil.copytree(old_dir, target)
            assert _kill_at(step, save)[0] == KILLED, step
            loaded = _answers_of(load_index(target), QUERIES)
            assert loaded in answers.values(), step
            seen.append("old" if loaded == answers["old"] else "new")
            shutil.rmtree(target)
        # The old index until the new one takes its name, then the new one.
        olds = seen.count("old")
        assert 0 < olds < len(seen) and seen == ["old"] * olds + ["new"] * (len(seen) - olds)

    def test_crash_while_saving_keeps_previous_index(
        self, small_engine, tmp_path, monkeypatch
    ):
        engine, bench, *_ = small_engine
        target = tmp_path / "index"
        save_index(engine, target)
        before = {p.name: p.read_bytes() for p in target.iterdir()}
        queries = [q["text"] for q in bench.queries[:5]]
        responses = [engine.retrieve(t).to_json(include_timings=False) for t in queries]

        def failing_arrays(index):
            def rows():
                yield index.cols[:, :1].T
                raise OSError("disk full")

            return (_npy.Blocks("<f4", (len(index), index.dim), rows()),)

        monkeypatch.setattr(semantic, "index_arrays", failing_arrays)
        with pytest.raises(OSError, match="disk full"):
            save_index(engine, target)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index"]
        assert {p.name: p.read_bytes() for p in target.iterdir()} == before
        reloaded = load_index(target)
        assert [
            reloaded.retrieve(t).to_json(include_timings=False) for t in queries
        ] == responses

    def test_failed_stats_write_keeps_previous_index(
        self, small_engine, tmp_path, monkeypatch
    ):
        _, _, _, corpus_path, cfg = small_engine
        target = tmp_path / "index"
        build_all(corpus_path, cfg, target)
        before = {p.name: p.read_bytes() for p in target.iterdir()}
        assert STATS_FILE in before
        write_json = _records.write_json

        def failing_write_json(obj, path):
            if Path(path).name.startswith(f".{STATS_FILE}.tmp-"):
                raise OSError("disk full")
            write_json(obj, path)

        monkeypatch.setattr(_records, "write_json", failing_write_json)
        with pytest.raises(RuntimeError, match="disk full"):
            build_all(corpus_path, cfg, target)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index"]
        assert {p.name: p.read_bytes() for p in target.iterdir()} == before
        load_index(target)

    def test_resave_replaces_every_file(self, small_engine, tmp_path):
        engine, *_ = small_engine
        target = tmp_path / "index"
        save_index(engine, target)
        # Files an earlier format left behind are gone after the save.
        for stale in ("lexical.jsonl", "doclen.jsonl", "vectors.bin", "vectors.ids"):
            (target / stale).write_text("v1", encoding="utf-8")
        save_index(engine, target)
        assert sorted(p.name for p in target.iterdir()) == [INDEX_FILE]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index"]
        load_index(target)

    def test_a_save_without_stats_leaves_no_stats_file(self, small_engine, tmp_path):
        engine, _, index_dir, *_ = small_engine
        shutil.copytree(index_dir, tmp_path / "index")
        save_index(engine, tmp_path / "index")
        assert sorted(p.name for p in (tmp_path / "index").iterdir()) == [INDEX_FILE]

    def test_a_temp_file_of_a_killed_save_breaks_no_load_or_build(
        self, two_indexes, tmp_path
    ):
        (old, old_dir), (new, _) = two_indexes
        target = tmp_path / "index"
        shutil.copytree(old_dir, target)
        # Killed at its second write, the save leaves its temp file.
        assert _kill_at(2, lambda: save_index(new, target))[0] == KILLED
        (temp,) = [p.name for p in target.iterdir() if p.name.startswith(f".{INDEX_FILE}")]
        # A live process's temp file is kept: process 1 always runs.
        (target / f".{INDEX_FILE}.tmp-1").write_bytes(b"partial")
        assert _answers_of(load_index(target), QUERIES) == _answers_of(old, QUERIES)
        save_index(new, target)
        names = sorted(p.name for p in target.iterdir())
        assert names == [f".{INDEX_FILE}.tmp-1", INDEX_FILE] and temp not in names
        assert _answers_of(load_index(target), QUERIES) == _answers_of(new, QUERIES)
        # A save killed in a new directory leaves one to build into.
        fresh = tmp_path / "fresh"
        assert _kill_at(2, lambda: save_index(new, fresh))[0] == KILLED
        assert [p.name.rpartition("-")[0] for p in fresh.iterdir()] == [f".{INDEX_FILE}.tmp"]
        save_index(old, fresh)
        assert sorted(p.name for p in fresh.iterdir()) == [INDEX_FILE]

    def test_empty_directory_is_replaced(self, small_engine, tmp_path):
        engine, *_ = small_engine
        (tmp_path / "index").mkdir()
        save_index(engine, tmp_path / "index")
        load_index(tmp_path / "index")

    @pytest.mark.parametrize("kind", ["directory", "file"])
    def test_unrelated_target_refused_and_kept(self, small_engine, tmp_path, kind):
        engine, *_ = small_engine
        target = tmp_path / "home"
        if kind == "directory":
            target.mkdir()
            (target / "notes.txt").write_text("keep me", encoding="utf-8")
        else:
            target.write_text("keep me", encoding="utf-8")
        with pytest.raises(ValueError, match=f"refusing to replace .*home"):
            save_index(engine, target)
        kept = target / "notes.txt" if kind == "directory" else target
        assert kept.read_text(encoding="utf-8") == "keep me"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["home"]

    def test_build_refuses_unrelated_target_before_building(self, tmp_path, monkeypatch):
        (tmp_path / "home").mkdir()
        (tmp_path / "home" / "notes.txt").write_text("keep me", encoding="utf-8")
        monkeypatch.setattr(
            "qrag.engine.prepare", lambda *a: pytest.fail("built before refusing")
        )
        with pytest.raises(ValueError, match="refusing to replace"):
            build_all(tmp_path / "corpus.jsonl", EngineConfig(), tmp_path / "home")
