import hashlib
import json
import logging
import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qrag import _records, lexical, quantum, semantic
from qrag.corpus import load_chunks, save_chunks
from qrag.engine import (
    CONTEXT_DELIMITER,
    INDEX_FILES,
    EngineConfig,
    RetrievalEngine,
    build_all,
    format_context,
    load_index,
    save_index,
)
from qrag.lexical import InvertedIndex
from qrag.quantum import FUSION_MODES, fuse_rrf, interference_score, normalize_lexical
from qrag.semantic import VectorIndex
from qrag.synthetic import write_jsonl
from qrag.tokenizer import TokenizerModel, train_bpe


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
        manifest = json.loads((index_dir / "manifest.json").read_text(encoding="utf-8"))
        stored = load_chunks(index_dir)
        assert manifest["chunk_count"] == len(stored) == engine.chunk_count
        assert stored == engine.chunks

    def test_chunks_file_takes_one_byte_per_codepoint_of_text(self, small_engine):
        # Besides six 128-byte array headers, the ids and one more text
        # offset, each chunk costs 17 bytes (token offset and count, text
        # offset, encoding), then a byte per codepoint of its Gurmukhi text.
        engine, _, index_dir, _, _ = small_engine
        chunks = engine.chunks
        ids = json.dumps([[c.chunk_id, c.doc_id] for c in chunks], ensure_ascii=False)
        fixed = 6 * 128 + len(ids.encode()) + 8 + 17 * len(chunks)
        size = (index_dir / "chunks.npy").stat().st_size
        assert size <= fixed + sum(len(c.text) for c in chunks)

    def test_double_build_byte_identical(self, small_engine, tmp_path):
        _, _, index_dir, corpus_path, cfg = small_engine
        build_all(corpus_path, cfg, tmp_path / "again")
        for name in INDEX_FILES:
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

    def test_stage_errors_carry_stage_name(self, small_engine, tmp_path):
        _, _, _, corpus_path, cfg = small_engine
        from dataclasses import replace

        from qrag.semantic import EmbedderSpec

        broken = replace(
            cfg, embedder=EmbedderSpec(kind="external_file", path=str(tmp_path / "none.jsonl"))
        )
        with pytest.raises(RuntimeError, match="stage 'embed'"):
            build_all(corpus_path, broken, tmp_path / "i")


class TestExternalEmbeddings:
    @pytest.fixture()
    def external_engine(self, small_engine, tmp_path):
        # Reuse the hash-projection build to learn the chunk ids, then
        # rebuild against an external embedding file for those ids.
        engine, bench, _, corpus_path, cfg = small_engine
        from dataclasses import replace

        from qrag.semantic import EmbedderSpec

        ext_path = tmp_path / "external.jsonl"
        with ext_path.open("w", encoding="utf-8") as fh:
            for i, c in enumerate(engine.chunks):
                vec = engine.vector_index.cols[:, i]
                fh.write(
                    json.dumps({"id": c.chunk_id, "vector": [float(x) for x in vec]})
                    + "\n"
                )
        ext_cfg = replace(
            cfg, embedder=EmbedderSpec(kind="external_file", path=str(ext_path))
        )
        build_all(corpus_path, ext_cfg, tmp_path / "ext_index")
        return load_index(tmp_path / "ext_index"), bench

    def test_build_uses_external_vectors(self, external_engine, small_engine):
        ext, _ = external_engine
        base, *_ = small_engine
        assert ext.vector_index.ids == base.vector_index.ids
        assert ext.vector_index.dim == base.vector_index.dim

    def test_sparse_retrieval_still_works(self, external_engine):
        ext, bench = external_engine
        q = next(q for q in bench.queries if q["kind"] == "lexical")
        resp = ext.retrieve(q["text"], mode="sparse_only")
        assert resp.hits[0].chunk_id == bench.targets[q["qid"]] + "#0"

    def test_text_queries_cannot_use_dense_modes(self, external_engine):
        ext, bench = external_engine
        with pytest.raises(ValueError, match="hash_projection"):
            ext.retrieve(bench.queries[0]["text"], mode="dense_only")

    def test_supplied_query_vectors_search_directly(self, external_engine):
        # Callers with their own query embeddings bypass the text encoder
        # and search the vector index directly.
        ext, _ = external_engine
        target = ext.chunks[5].chunk_id
        results = semantic.search_exact(ext.vector_index, ext.vector_index.cols[:, 5], 1)
        assert results[0][0] == target


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
    return semantic.embed(engine.tokenizer.encode(text).ids, engine.token_table)


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
        chunk = engine.chunks[17]
        resp = engine.retrieve(chunk.text, mode="dense_only")
        assert resp.hits[0].chunk_id == chunk.chunk_id
        assert resp.hits[0].dense_cos == pytest.approx(1.0, abs=1e-6)

    def test_sparse_only_equals_lexical_search(self, small_engine):
        engine, bench, *_ = small_engine
        for q in bench.queries[:8]:
            resp = engine.retrieve(q["text"], mode="sparse_only", k_final=10)
            terms = engine.tokenizer.encode(q["text"]).surface
            direct = lexical.search(engine.lexical_index, engine.config.bm25, terms, 10)
            assert [(h.chunk_id, h.fused) for h in resp.hits] == direct

    def test_dense_only_equals_search_exact(self, small_engine):
        engine, bench, *_ = small_engine
        for q in bench.queries[:8]:
            resp = engine.retrieve(q["text"], mode="dense_only", k_final=10)
            q_emb = _embed_query(engine, q["text"])
            direct = semantic.search_exact(engine.vector_index, q_emb, 10)
            assert [(h.chunk_id, h.fused) for h in resp.hits] == direct

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
            sparse_ids = {
                cid
                for cid, _ in lexical.search(
                    engine.lexical_index,
                    engine.config.bm25,
                    engine.tokenizer.encode(q["text"]).surface,
                    cfgf.k_sparse,
                )
            }
            q_emb = _embed_query(engine, q["text"])
            dense_ids = {
                cid
                for cid, _ in semantic.search_exact(
                    engine.vector_index, q_emb, cfgf.k_dense
                )
            }
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

    def test_quantum_overlap_matches_amplitude_states(self, small_engine):
        engine, bench, *_ = small_engine
        for mode in ("fidelity_rerank", "quantum_interference"):
            for q in bench.queries[:6]:
                resp = engine.retrieve(q["text"], mode=mode, k_final=50)
                q_emb = _embed_query(engine, q["text"])
                q_state = quantum.amplitude_encode(q_emb)
                for h in resp.hits:
                    row = engine.vector_index.ids.index(h.chunk_id)
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
    """Row i of both indexes must be chunk i; the engine refuses anything else."""

    def test_vector_index_out_of_chunk_order_rejected(self, small_engine):
        engine, *_ = small_engine
        vi = engine.vector_index
        order = np.roll(np.arange(len(vi)), 1)
        permuted = VectorIndex([vi.ids[i] for i in order], vi.cols[:, order].T)
        with pytest.raises(ValueError, match="vector index"):
            RetrievalEngine(
                engine.chunks, engine.tokenizer, engine.lexical_index, permuted, engine.config
            )

    def test_lexical_index_out_of_chunk_order_rejected(self, small_engine):
        engine, *_ = small_engine
        li = engine.lexical_index
        ids = li.chunk_ids
        postings = {}
        for term in li.terms:
            rows, tfs = li.postings(term)
            postings[term] = [(ids[r], int(tf)) for r, tf in zip(rows.tolist(), tfs.tolist())]
        permuted = InvertedIndex.from_postings(
            dict(reversed(list(zip(ids, li.doc_len.tolist())))), postings
        )
        with pytest.raises(ValueError, match="lexical index"):
            RetrievalEngine(
                engine.chunks, engine.tokenizer, permuted, engine.vector_index, engine.config
            )


def _fifty_queries(engine, bench):
    """50 distinct queries: the planted ones, windows of chunk words, and
    words of codepoints the tokenizer never saw (its unk piece)."""
    queries = [q["text"] for q in bench.queries]
    words = " ".join(c.text for c in engine.chunks[:40]).split()
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


class TestTokenTables:
    """Each engine owns its token vectors; the package keeps no state."""

    def test_table_covers_the_vocabulary_with_idf_weights(self, small_engine):
        _, _, index_dir, *_ = small_engine
        engine = load_index(index_dir)
        table = engine.token_table
        vocab = engine.tokenizer.vocab
        assert table.rows.shape == (len(vocab), engine.config.embedder.dim)
        assert not table.filled.any()
        idf = lexical.idf_weights(engine.lexical_index)
        assert table.weights.tolist() == [idf.get(t, 1.0) for t in engine.tokenizer.tokens]
        _answers(engine, _fifty_queries(engine, small_engine[1]))
        assert 0 < table.filled.sum() <= len(vocab)

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
        # No row is marked filled before its vector is written.
        table = engine.token_table
        filled = np.flatnonzero(table.filled)
        tokens = [engine.tokenizer.tokens[i] for i in filled]
        assert table.rows[filled].tobytes() == semantic.token_vectors(tokens, 256).tobytes()

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


class TestTokenCounts:
    """The counts ``format_context`` budgets with, pinned to the tokenizer."""

    def test_doc_len_is_token_count_of_chunk_text(self, small_engine):
        engine, *_ = small_engine
        tok = engine.tokenizer
        for row, chunk in enumerate(engine.chunks):
            assert engine.lexical_index.doc_len[row] == tok.token_count(chunk.text)

    def test_counts_add_up_across_the_delimiter(self, small_engine):
        engine, *_ = small_engine
        tok = engine.tokenizer
        sep = f"\n{CONTEXT_DELIMITER}\n"
        sep_cost = tok.token_count(CONTEXT_DELIMITER)
        pool = [c.text for c in engine.chunks] + ["", "  \n\t "]
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
        assert reloaded.config.bm25 in reloaded.lexical_index._impacts

    def test_repeated_chunk_id_rejected(self, small_engine, tmp_path):
        # Re-saved with chunk 1 carrying chunk 0's id, and a digest to match.
        engine, *_ = small_engine
        index_dir = tmp_path / "repeated"
        save_index(engine, index_dir)
        chunks = load_chunks(index_dir)
        chunks.chunk_ids[1] = chunks.chunk_ids[0]
        save_chunks(chunks, index_dir)
        manifest_path = index_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["files"]["chunks.npy"] = hashlib.sha256(
            (index_dir / "chunks.npy").read_bytes()
        ).hexdigest()
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(
            ValueError, match=f"^chunks.npy: chunk_id '{chunks[0].chunk_id}' is listed twice$"
        ):
            load_index(index_dir)

    def test_unsupported_version_rejected(self, small_engine, tmp_path):
        engine, *_ = small_engine
        save_index(engine, tmp_path / "v99")
        manifest_path = tmp_path / "v99" / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported version"):
            load_index(tmp_path / "v99")

    def test_tampered_file_digest_mismatch(self, small_engine, tmp_path):
        engine, *_ = small_engine
        save_index(engine, tmp_path / "tampered")
        path = tmp_path / "tampered" / "tokenizer.json"
        path.write_text(path.read_text(encoding="utf-8") + " ", encoding="utf-8")
        with pytest.raises(ValueError, match="digest mismatch: tokenizer.json"):
            load_index(tmp_path / "tampered")

    def test_missing_file_named(self, small_engine, tmp_path):
        engine, *_ = small_engine
        save_index(engine, tmp_path / "missing")
        (tmp_path / "missing" / "vectors.npy").unlink()
        with pytest.raises(FileNotFoundError, match="vectors.npy"):
            load_index(tmp_path / "missing")

    @pytest.mark.parametrize("name", INDEX_FILES)
    def test_manifest_must_list_every_index_file(self, small_engine, tmp_path, name):
        engine, *_ = small_engine
        save_index(engine, tmp_path / "unlisted")
        manifest_path = tmp_path / "unlisted" / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        del manifest["files"][name]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match=f"manifest does not list: {name}"):
            load_index(tmp_path / "unlisted")

    def test_manifest_unknown_file_rejected(self, small_engine, tmp_path):
        engine, *_ = small_engine
        save_index(engine, tmp_path / "extra")
        manifest_path = tmp_path / "extra" / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["files"]["notes.txt"] = "00"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match="unknown file: notes.txt"):
            load_index(tmp_path / "extra")

    def test_missing_manifest_named(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest.json"):
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
    def test_manifest_that_is_not_an_object_named(self, small_engine, tmp_path, text, match):
        engine, *_ = small_engine
        save_index(engine, tmp_path / "bad")
        (tmp_path / "bad" / "manifest.json").write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=match):
            load_index(tmp_path / "bad")

    def test_version_1_asks_for_a_rebuild(self, small_engine, tmp_path):
        engine, *_ = small_engine
        save_index(engine, tmp_path / "v1")
        manifest_path = tmp_path / "v1" / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format_version"] = 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported version: 1; rebuild"):
            load_index(tmp_path / "v1")

    def test_version_2_asks_for_a_rebuild(self, small_engine, tmp_path):
        # Version 2 kept the chunks in chunks.jsonl, one JSON object a line.
        engine, *_ = small_engine
        save_index(engine, tmp_path / "v2")
        manifest_path = tmp_path / "v2" / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format_version"] = 2
        manifest["files"] = {
            ("chunks.jsonl" if name == "chunks.npy" else name): digest
            for name, digest in manifest["files"].items()
        }
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match="^unsupported version: 2; rebuild the index$"):
            load_index(tmp_path / "v2")

    def test_version_3_asks_for_a_rebuild(self, small_engine, tmp_path):
        # Version 3 kept every chunk text in UTF-16-LE and the postings rows
        # as <i4, under the file names of version 4.
        engine, *_ = small_engine
        save_index(engine, tmp_path / "v3")
        manifest_path = tmp_path / "v3" / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format_version"] = 3
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match="^unsupported version: 3; rebuild the index$"):
            load_index(tmp_path / "v3")


def _edit_manifest(index_dir, edit):
    path = index_dir / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")


def _set_dim(dim):
    def edit(manifest):
        manifest["config"]["embedder"]["dim"] = manifest["embedder"]["dim"] = dim

    return edit


# Each way a manifest can disagree with itself or with the files it lists,
# and the refusal, which names the field.
MANIFEST_FAULTS = {
    "dim_below_the_vectors": (
        _set_dim(128),
        "^manifest config.embedder.dim is 128, but vectors.npy holds 256-dim vectors$",
    ),
    "chunk_count_below_the_chunks": (
        lambda m: m.update(chunk_count=5),
        "^manifest chunk_count is 5, but chunks.npy holds {n} chunks$",
    ),
    "chunk_count_above_the_chunks": (
        lambda m: m.update(chunk_count=m["chunk_count"] + 1),
        "^manifest chunk_count is {m}, but chunks.npy holds {n} chunks$",
    ),
    "tokenizer_sha256_not_the_file_digest": (
        lambda m: m.update(tokenizer_sha256="0" * 64),
        "^manifest tokenizer_sha256 is not the digest of tokenizer.json$",
    ),
    "embedder_not_config_embedder": (
        lambda m: m["embedder"].update(dim=128),
        "^manifest embedder is not config.embedder$",
    ),
}


def _flip(offset):
    def change(data):
        return data[:offset] + bytes([data[offset] ^ 0xFF]) + data[offset + 1 :]

    return change


# Byte 8 is the header length of a .npy array, and a letter of tokenizer.json.
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
    """``load_index`` reads each file once, hashes it on a worker thread and
    checks the manifest against the files."""

    @pytest.mark.parametrize("fault", MANIFEST_FAULTS, ids=list(MANIFEST_FAULTS))
    def test_manifest_that_disagrees_is_refused_by_field(self, small_engine, tmp_path, fault):
        engine, *_ = small_engine
        save_index(engine, tmp_path / "index")
        edit, match = MANIFEST_FAULTS[fault]
        _edit_manifest(tmp_path / "index", edit)
        n = engine.chunk_count
        with pytest.raises(ValueError, match=match.format(n=n, m=n + 1)):
            load_index(tmp_path / "index")

    def test_a_dim_that_matches_the_vectors_loads(self, small_engine, tmp_path):
        engine, *_ = small_engine
        save_index(engine, tmp_path / "index")
        _edit_manifest(tmp_path / "index", _set_dim(256))
        assert load_index(tmp_path / "index").config.embedder.dim == 256

    @pytest.mark.parametrize("tamper", TAMPERS, ids=list(TAMPERS))
    @pytest.mark.parametrize("name", INDEX_FILES)
    def test_tampered_file_is_a_digest_mismatch(self, small_engine, tmp_path, name, tamper):
        # Reported ahead of whatever error parsing the same bytes gives.
        engine, *_ = small_engine
        save_index(engine, tmp_path / "index")
        path = tmp_path / "index" / name
        path.write_bytes(TAMPERS[tamper](path.read_bytes()))
        with pytest.raises(ValueError, match=f"^digest mismatch: {name}$"):
            load_index(tmp_path / "index")

    def test_an_earlier_digest_mismatch_comes_before_a_later_parse_error(
        self, small_engine, tmp_path
    ):
        engine, *_ = small_engine
        save_index(engine, tmp_path / "index")
        tok = tmp_path / "index" / "tokenizer.json"
        tok.write_bytes(tok.read_bytes() + b" ")
        vectors = tmp_path / "index" / "vectors.npy"
        vectors.write_bytes(vectors.read_bytes()[:-1])
        with pytest.raises(ValueError, match="^digest mismatch: tokenizer.json$"):
            load_index(tmp_path / "index")

    def test_each_index_file_is_opened_once(self, small_engine, monkeypatch):
        import builtins
        import io

        _, _, index_dir, *_ = small_engine
        opened: list[str] = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened.append(Path(file).name)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        load_index(index_dir)
        assert {name: opened.count(name) for name in INDEX_FILES} == dict.fromkeys(
            INDEX_FILES, 1
        )

    @pytest.mark.parametrize("outcome", ["loads", "digest_mismatch", "parse_error", "missing"])
    def test_no_thread_outlives_the_load(self, small_engine, tmp_path, outcome):
        engine, *_ = small_engine
        index_dir = tmp_path / "index"
        save_index(engine, index_dir)
        lexical_path = index_dir / "lexical.npy"
        if outcome == "digest_mismatch":
            lexical_path.write_bytes(lexical_path.read_bytes()[:-1])
        elif outcome == "parse_error":
            # A repeated chunk id, with the digest to match.
            chunks = load_chunks(index_dir)
            chunks.chunk_ids[1] = chunks.chunk_ids[0]
            save_chunks(chunks, index_dir)
            digest = hashlib.sha256((index_dir / "chunks.npy").read_bytes()).hexdigest()
            _edit_manifest(index_dir, lambda m: m["files"].update({"chunks.npy": digest}))
        elif outcome == "missing":
            lexical_path.unlink()
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
            loaded.chunks.token_offsets,
            loaded.chunks.token_counts,
            li.doc_len,
            li.offsets,
            li.rows,
            li.tfs,
            vi.cols,
        ):
            assert isinstance(_owner(arr), np.ndarray)
        assert loaded.chunks == engine.chunks

    def test_one_info_line_times_each_file_and_the_digest_wait(self, small_engine, caplog):
        _, _, index_dir, *_ = small_engine
        with caplog.at_level(logging.INFO, logger="qrag.engine"):
            load_index(index_dir)
        (line,) = [r.getMessage() for r in caplog.records]
        assert line.startswith(f"loaded index {index_dir}: ")
        for name in INDEX_FILES:
            assert re.search(rf"{re.escape(name)} read \d+\.\d{{3}} s parse \d+\.\d{{3}} s", line)
        assert re.search(r"; impacts \d+\.\d{3} s; digest wait \d+\.\d{3} s$", line)


class TestAtomicSave:
    """``save_index`` replaces a directory only once the new index is whole."""

    def test_crash_while_saving_keeps_previous_index(
        self, small_engine, tmp_path, monkeypatch
    ):
        engine, bench, *_ = small_engine
        target = tmp_path / "index"
        save_index(engine, target)
        before = {p.name: p.read_bytes() for p in target.iterdir()}
        queries = [q["text"] for q in bench.queries[:5]]
        responses = [engine.retrieve(t).to_json(include_timings=False) for t in queries]

        def failing_save(index, out_dir):
            (out_dir / semantic.VECTORS_FILE).write_bytes(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(semantic, "save", failing_save)
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
        assert "stats.json" in before
        write_json = _records.write_json

        def failing_write_json(obj, path):
            if Path(path).name == "stats.json":
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
        # Files an earlier format left behind are gone after the swap.
        for stale in ("lexical.jsonl", "doclen.jsonl", "vectors.bin", "vectors.ids"):
            (target / stale).write_text("v1", encoding="utf-8")
        save_index(engine, target)
        assert sorted(p.name for p in target.iterdir()) == sorted(
            INDEX_FILES + ("manifest.json",)
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index"]
        load_index(target)

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
