import json

import numpy as np
import pytest

from qrag import lexical, quantum, semantic
from qrag.engine import (
    CONTEXT_DELIMITER,
    INDEX_FILES,
    EngineConfig,
    build_all,
    format_context,
    load_index,
    save_index,
)
from qrag.quantum import interference_score, normalize_lexical
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

    def test_json_file_round_trip(self, tmp_path):
        cfg = EngineConfig(vocab_size=500)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        assert EngineConfig.from_json_file(path) == cfg


class TestBuildAll:
    def test_manifest_matches_chunks_file(self, small_engine):
        engine, bench, index_dir, _, _ = small_engine
        manifest = json.loads((index_dir / "manifest.json").read_text(encoding="utf-8"))
        n_lines = sum(
            1 for line in (index_dir / "chunks.jsonl").open(encoding="utf-8") if line.strip()
        )
        assert manifest["chunk_count"] == n_lines == engine.chunk_count

    def test_double_build_byte_identical(self, small_engine, tmp_path):
        _, _, index_dir, corpus_path, cfg = small_engine
        build_all(corpus_path, cfg, tmp_path / "again")
        for name in ("vectors.bin", "tokenizer.json"):
            assert (tmp_path / "again" / name).read_bytes() == (
                index_dir / name
            ).read_bytes()

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
            for c in engine.chunks:
                vec = engine.vector_index.row(c.chunk_id)
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
        results = semantic.search_exact(ext.vector_index, ext.vector_index.row(target), 1)
        assert results[0][0] == target


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
            direct = lexical.search(
                engine.lexical_index, engine.config.bm25, q["text"], 10, engine.tokenizer
            )
            assert [(h.chunk_id, h.fused) for h in resp.hits] == direct

    def test_dense_only_equals_search_exact(self, small_engine):
        engine, bench, *_ = small_engine
        for q in bench.queries[:8]:
            resp = engine.retrieve(q["text"], mode="dense_only", k_final=10)
            q_emb = engine.embed_text_tokens(engine.tokenizer.encode(q["text"]).surface)
            direct = semantic.search_exact(engine.vector_index, q_emb, 10)
            assert [(h.chunk_id, h.fused) for h in resp.hits] == direct

    def test_interference_scores_follow_formula(self, small_engine):
        engine, bench, *_ = small_engine
        cfgf = engine.config.fusion
        q = bench.queries[0]
        resp = engine.retrieve(q["text"], mode="quantum_interference", k_final=200)
        pool = {h.chunk_id: h.sparse_raw for h in resp.hits if h.sparse_raw > 0.0}
        lex_norm = normalize_lexical(pool)
        for h in resp.hits:
            expected = interference_score(
                h.quantum, lex_norm.get(h.chunk_id, 0.0), cfgf.w_semantic, cfgf.w_lexical
            )
            assert h.fused == pytest.approx(expected, abs=1e-12)
        fused = [h.fused for h in resp.hits]
        assert fused == sorted(fused, reverse=True)

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
                    q["text"],
                    cfgf.k_sparse,
                    engine.tokenizer,
                )
            }
            q_emb = engine.embed_text_tokens(engine.tokenizer.encode(q["text"]).surface)
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
                q_emb = engine.embed_text_tokens(
                    engine.tokenizer.encode(q["text"]).surface
                )
                q_state = quantum.amplitude_encode(q_emb)
                for h in resp.hits:
                    d_state = quantum.amplitude_encode(engine.vector_index.row(h.chunk_id))
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


class TestTokenCounts:
    """The counts ``format_context`` budgets with, pinned to the tokenizer."""

    def test_doc_len_is_token_count_of_chunk_text(self, small_engine):
        engine, *_ = small_engine
        tok = engine.tokenizer
        for chunk in engine.chunks:
            assert engine.lexical_index.doc_len[chunk.chunk_id] == (
                tok.token_count(chunk.text)
            )

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
        (tmp_path / "missing" / "vectors.bin").unlink()
        with pytest.raises(FileNotFoundError, match="vectors.bin"):
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
