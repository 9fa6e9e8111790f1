"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import math
import time
import unicodedata
from contextlib import contextmanager

import numpy as np
import pytest

from qrag import evalkit, lexical, quantum, semantic, synthetic
from qrag.corpus import ChunkTable, Window
from qrag.engine import (
    CONTEXT_DELIMITER,
    INDEX_FILES,
    STATS_FILE,
    EngineConfig,
    build_all,
    format_context,
    load_index,
    save_index,
)
from qrag.lexical import BM25Params, InvertedIndex
from qrag.tokenizer import normalize, train_bpe


@contextmanager
def criterion(name: str):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """1,000-chunk planted benchmark engine plus its build wall time."""
    bench = synthetic.make_planted_benchmark(
        n_docs=1000, n_lexical=50, n_semantic=50, seed=7
    )
    root = tmp_path_factory.mktemp("acceptance")
    corpus_path = root / "corpus.jsonl"
    synthetic.write_jsonl(bench.records, corpus_path)
    cfg = EngineConfig(vocab_size=8000)
    t0 = time.perf_counter()
    build_all(corpus_path, cfg, root / "index")
    build_seconds = time.perf_counter() - t0
    engine = load_index(root / "index")
    assert engine.chunk_count == 1000
    return engine, bench, root, corpus_path, cfg, build_seconds


def test_kernel_oracle():
    """fidelity(encode(a), encode(b)) == cosine(a, b)^2 within 1e-9, 1000 pairs, < 1 s."""
    with criterion("kernel-oracle"):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            dim = int(rng.integers(2, 257))
            a = rng.standard_normal(dim)
            b = rng.standard_normal(dim)
            fid = quantum.fidelity(quantum.amplitude_encode(a), quantum.amplitude_encode(b))
            worst = max(worst, abs(fid - semantic.cosine(a, b) ** 2))
        elapsed = time.perf_counter() - t0
        print(f"kernel oracle: worst |fid - cos^2| = {worst:.2e}, {elapsed:.3f}s")
        assert worst <= 1e-9
        assert elapsed < 1.0


def test_bm25_brute_force_oracle():
    """Indexed top-k equals brute-force bm25_score ranking bitwise on 20 corpora, < 5 s."""
    with criterion("bm25-oracle"):
        t0 = time.perf_counter()
        for trial in range(20):
            rng = np.random.default_rng(500 + trial)
            lexicon = synthetic.gurmukhi_lexicon(rng, 40)
            lines = [
                " ".join(lexicon[j] for j in rng.integers(0, len(lexicon), size=12))
                for _ in range(30)
            ]
            tok = train_bpe(lines, vocab_size=2000)
            n_chunks = int(rng.integers(20, 101))
            windows = []
            for i in range(n_chunks):
                words = [lexicon[j] for j in rng.integers(0, len(lexicon), size=rng.integers(4, 25))]
                windows.append(Window(f"c{i:03d}", np.array(tok.encode(" ".join(words)))))
            chunks = ChunkTable.from_windows(windows, tok)
            index = lexical.build_index(chunks.tokens, chunks.token_counts, tok.vocab_size())
            params = BM25Params()
            for _ in range(5):
                query = " ".join(lexicon[j] for j in rng.integers(0, len(lexicon), size=3))
                terms = tok.encode(query)
                # The path ``retrieve`` takes: every row's score, then the
                # top 10 of the touched rows.
                scores, touched = lexical.score_rows(index, params, terms)
                top = lexical.top_rows(scores, lexical.touched_rows(touched, 10), 10)
                got = [(row, float(scores[row])) for row in top]
                brute = sorted(
                    (
                        (row, lexical.bm25_score(index, params, terms, row))
                        for row in range(n_chunks)
                        if lexical.bm25_score(index, params, terms, row) > 0.0
                    ),
                    key=lambda kv: (-kv[1], kv[0]),
                )[:10]
                assert got == brute  # rows and bitwise-equal scores
        elapsed = time.perf_counter() - t0
        print(f"bm25 oracle: 20 corpora, {elapsed:.2f}s")
        assert elapsed < 5.0


def test_hand_value_suite():
    """Each anchor value reproduced within 1e-4, oracle recomputed in-test."""
    with criterion("hand-values"):
        # IDF: N=3, df=1; term 0 is in row 0 twice
        index = InvertedIndex(np.array([4, 4, 4]), np.array([0, 1]), np.array([0]), np.array([2]))
        assert index.avgdl == 4.0
        idf_oracle = math.log(1.0 + (3 - 1 + 0.5) / (1 + 0.5))
        got = lexical.idf(index, 0)
        assert abs(got - 0.98083) < 1e-4 and abs(got - idf_oracle) < 1e-12

        # BM25: tf=2, dl=avgdl=4, k1=1.2, b=0.75
        bm25_oracle = idf_oracle * (2 * (1.2 + 1)) / (2 + 1.2 * (1 - 0.75 + 0.75 * 4 / 4))
        got = lexical.bm25_score(index, BM25Params(k1=1.2, b=0.75), [0], 0)
        assert abs(got - 1.34864) < 1e-4 and abs(got - bm25_oracle) < 1e-12

        # RRF: rank 1 and rank 3 with k=60
        rrf_oracle = 1.0 / (60 + 1) + 1.0 / (60 + 3)
        got = quantum.fuse_rrf([["d"], ["x", "y", "d"]], rrf_k=60)["d"]
        assert abs(got - 0.0322657) < 1e-4 and abs(got - rrf_oracle) < 1e-12

        # Fidelity: [1,0] vs [0.6,0.8]
        fid_oracle = 0.6 ** 2
        got = quantum.fidelity(
            quantum.amplitude_encode(np.array([1.0, 0.0])),
            quantum.amplitude_encode(np.array([0.6, 0.8])),
        )
        assert abs(got - 0.36) < 1e-4 and abs(got - fid_oracle) < 1e-9

        # Interference: c=0.6, l=0.8, equal weights
        interference_oracle = (0.5 * 0.6 + 0.5 * 0.8) ** 2
        got = quantum.interference_score(0.6, 0.8, 0.5, 0.5)
        assert abs(got - 0.49) < 1e-4 and abs(got - interference_oracle) < 1e-12

        # ROUGE-L: ref "a b c d", hyp "a c d" -> LCS 3
        p, r = 3 / 3, 3 / 4
        rouge_oracle = 2 * p * r / (p + r)
        got = evalkit.rouge_l("a b c d", "a c d").f
        assert abs(got - 0.8571) < 1e-4 and abs(got - rouge_oracle) < 1e-12

        # nDCG: single rel=1 at position 2, k=3
        ndcg_oracle = (1 / math.log2(3)) / (1 / math.log2(2))
        got = evalkit.ndcg_at_k(["x", "r", "y"], {"r": 1}, 3)
        assert abs(got - 0.63093) < 1e-4 and abs(got - ndcg_oracle) < 1e-12

        # MRR: first relevant at ranks 1 and 4
        mrr_oracle = (1.0 + 1.0 / 4.0) / 2.0
        got = evalkit.mrr([["r"], ["a", "b", "c", "r"]], [{"r"}, {"r"}])
        assert abs(got - 0.625) < 1e-4 and abs(got - mrr_oracle) < 1e-12


def test_planted_retrieval_benchmark(planted):
    """Per-leg recall@10 >= 0.95 on matching query halves; hybrid macro >= 0.90; < 60 s."""
    with criterion("planted-retrieval"):
        engine, bench, *_rest, build_seconds = planted
        qrels = {qid: {doc + "#0": 1} for qid, doc in bench.targets.items()}
        lexical_qids = {q["qid"] for q in bench.queries if q["kind"] == "lexical"}
        semantic_qids = {q["qid"] for q in bench.queries if q["kind"] == "semantic"}

        t0 = time.perf_counter()
        macro = {}
        for mode in ("sparse_only", "dense_only", "rrf", "weighted_sum", "quantum_interference"):
            run = {
                q["qid"]: [h.chunk_id for h in engine.retrieve(q["text"], mode=mode).hits]
                for q in bench.queries
            }
            report = evalkit.evaluate_run(run, qrels, ks=[10])
            macro[mode] = report.macro["recall@10"]
            per = report.per_query
            if mode == "sparse_only":
                lex = sum(per[q]["recall@10"] for q in lexical_qids) / len(lexical_qids)
                print(f"sparse_only recall@10 on lexical half: {lex:.3f}")
                assert lex >= 0.95
            if mode == "dense_only":
                sem = sum(per[q]["recall@10"] for q in semantic_qids) / len(semantic_qids)
                print(f"dense_only recall@10 on semantic half: {sem:.3f}")
                assert sem >= 0.95
        query_seconds = time.perf_counter() - t0

        print(f"macro recall@10 by mode: { {m: round(v, 3) for m, v in macro.items()} }")
        print(
            "ablation report: quantum_interference="
            f"{macro['quantum_interference']:.3f} vs weighted_sum={macro['weighted_sum']:.3f}"
        )
        assert macro["rrf"] >= 0.90
        assert macro["quantum_interference"] >= 0.90
        total = build_seconds + query_seconds
        print(f"benchmark wall time: build {build_seconds:.1f}s + queries {query_seconds:.1f}s")
        assert total < 60.0


def test_tokenizer_round_trip_and_normalization():
    """decode(encode(x)) == normalize(x) on 1,000 covered lines; Gurmukhi NFC reference."""
    with criterion("tokenizer-round-trip"):
        records = synthetic.make_corpus(1000, seed=404, lexicon_size=900)
        rng = np.random.default_rng(404)
        decorations = ["।", ",", ".", "?", "ab12", "x-y", '"q"']
        lines = []
        for rec in records:
            words = rec["text"].split()
            for _ in range(int(rng.integers(0, 4))):
                words.insert(int(rng.integers(len(words))), str(rng.choice(decorations)))
            lines.append(" ".join(words))
        model = train_bpe(lines, vocab_size=10000)
        exact = sum(
            1 for line in lines if model.decode(model.encode(line)) == normalize(line)
        )
        print(f"round-trip exact: {exact}/1000")
        assert exact == 1000

        # Normalization agrees with the Unicode reference over U+0A00-0A7F,
        # including the six nukta composition exclusions.
        for cp in range(0x0A00, 0x0A80):
            ch = chr(cp)
            assert normalize(ch) == unicodedata.normalize("NFC", ch)
        expected_nukta = {
            "ਲ਼": "ਲ਼",
            "ਸ਼": "ਸ਼",
            "ਖ਼": "ਖ਼",
            "ਗ਼": "ਗ਼",
            "ਜ਼": "ਜ਼",
            "ਫ਼": "ਫ਼",
        }
        for src, dst in expected_nukta.items():
            assert normalize(src) == dst


def test_persistence_determinism(planted, tmp_path):
    """Save/load leaves 20 responses byte-identical; double-build matches bytes."""
    with criterion("persistence-determinism"):
        engine, bench, root, corpus_path, cfg, _ = planted
        queries = [q["text"] for q in bench.queries[:20]]
        before = [engine.retrieve(t).to_json(include_timings=False) for t in queries]
        save_index(engine, tmp_path / "resaved")
        reloaded = load_index(tmp_path / "resaved")
        after = [reloaded.retrieve(t).to_json(include_timings=False) for t in queries]
        assert before == after

        build_all(corpus_path, cfg, tmp_path / "rebuild")
        for name in INDEX_FILES + (STATS_FILE,):
            assert (tmp_path / "rebuild" / name).read_bytes() == (
                root / "index" / name
            ).read_bytes(), name


def test_context_budget_fuzz(planted):
    """500 random hit lists; assembled context always <= 1024 tokens."""
    with criterion("context-budget"):
        engine, *_ = planted
        tok = engine.tokenizer
        texts = engine.chunks.texts(range(engine.chunk_count))
        sep_cost = tok.token_count(CONTEXT_DELIMITER)
        rng = np.random.default_rng(99)
        worst = 0
        for _ in range(500):
            n = int(rng.integers(0, 12))
            hits = [texts[int(rng.integers(len(texts)))] for _ in range(n)]
            if n and rng.random() < 0.3:
                # oversized first hit exercises the truncation path
                hits[0] = " ".join(texts[int(rng.integers(len(texts)))] for _ in range(30))
            counts = [tok.token_count(t) for t in hits]
            context = format_context(hits, counts, sep_cost, 1024, tok)
            worst = max(worst, tok.token_count(context))
            assert tok.token_count(context) <= 1024
        print(f"context budget fuzz: max tokens {worst}/1024")


def test_performance_targets(tmp_path):
    """10,000-chunk build < 60 s; retrieve p50 < 50 ms and p99 < 250 ms."""
    with criterion("performance"):
        records = synthetic.make_corpus(
            10000, seed=11, lexicon_size=1500, words_per_doc=(90, 120)
        )
        synthetic.write_jsonl(records, tmp_path / "corpus.jsonl")
        cfg = EngineConfig(vocab_size=2500)
        t0 = time.perf_counter()
        manifest = build_all(tmp_path / "corpus.jsonl", cfg, tmp_path / "index")
        build_seconds = time.perf_counter() - t0
        print(f"build: {manifest.chunk_count} chunks in {build_seconds:.1f}s")
        assert manifest.chunk_count >= 10000
        assert build_seconds < 60.0

        engine = load_index(tmp_path / "index")
        assert engine.config.fusion.k_sparse == 50 and engine.config.fusion.k_dense == 50
        rng = np.random.default_rng(13)
        totals = []
        for _ in range(60):
            words = records[int(rng.integers(len(records)))]["text"].split()
            start = int(rng.integers(max(1, len(words) - 8)))
            query = " ".join(words[start : start + 6])
            resp = engine.retrieve(query, mode="quantum_interference", k_final=10)
            totals.append(resp.timings["total"])
        p50 = float(np.percentile(totals, 50))
        p99 = float(np.percentile(totals, 99))
        print(f"retrieve latency: p50={p50:.1f}ms p99={p99:.1f}ms over {len(totals)} queries")
        assert p50 < 50.0
        assert p99 < 250.0
