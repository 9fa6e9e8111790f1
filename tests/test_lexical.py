import json
import math
import tracemalloc

import numpy as np
import pytest

from qrag import synthetic
from qrag.corpus import Chunk
from qrag.lexical import (
    DOCLEN_FILE,
    LEXICAL_FILE,
    BM25Params,
    InvertedIndex,
    bm25_score,
    build_index,
    idf,
    idf_weights,
    load,
    save,
    score_rows,
    search,
)
from qrag.tokenizer import train_bpe


def _hand_index():
    """Three chunks of length 4; term "t" appears twice in c1 only."""
    doc_len = {"c1": 4, "c2": 4, "c3": 4}
    postings = {
        "t": [("c1", 2)],
        "u": [("c1", 1), ("c2", 1), ("c3", 1)],
        "v": [("c2", 1), ("c3", 2)],
    }
    return InvertedIndex(N=3, avgdl=4.0, doc_len=doc_len, postings=postings)


@pytest.fixture(scope="module")
def word_model():
    # Repeating words so each survives BPE as a single token.
    words = [f"w{i}" for i in range(30)]
    return train_bpe([" ".join(words)] * 3, vocab_size=500)


class TestBuildIndex:
    def test_equal_lengths_give_avgdl(self, word_model):
        chunks = [Chunk(f"c{i}", "d", 0, 4, "w1 w2 w3 w4") for i in range(3)]
        ix = build_index(chunks, word_model)
        assert ix.N == 3
        assert ix.avgdl == pytest.approx(ix.doc_len["c0"])

    def test_repeated_term_single_posting_with_tf(self, word_model):
        ix = build_index([Chunk("c0", "d", 0, 4, "w1 w1 w2 w3")], word_model)
        term = word_model.encode("w1").surface[0]
        assert ix.posting_list(term) == [("c0", 2)]

    def test_absent_term_has_no_postings(self, word_model):
        ix = build_index([Chunk("c0", "d", 0, 2, "w1 w2")], word_model)
        term = word_model.encode("w9").surface[0]
        assert term not in ix.terms
        assert ix.posting_list(term) == []

    def test_postings_sorted_by_chunk_id(self, word_model):
        chunks = [Chunk(f"c{i}", "d", 0, 2, "w1 w2") for i in (3, 1, 2)]
        ix = build_index(chunks, word_model)
        term = word_model.encode("w1").surface[0]
        assert [cid for cid, _ in ix.posting_list(term)] == ["c1", "c2", "c3"]

    def test_duplicate_chunk_id_rejected(self, word_model):
        chunks = [Chunk("c0", "d", 0, 2, "w1 w2"), Chunk("c0", "d", 0, 2, "w3 w4")]
        with pytest.raises(ValueError, match="duplicate"):
            build_index(chunks, word_model)

    def test_empty_chunk_list_rejected(self, word_model):
        with pytest.raises(ValueError, match="empty"):
            build_index([], word_model)

    def test_inconsistent_avgdl_rejected(self):
        with pytest.raises(ValueError, match="avgdl"):
            InvertedIndex(N=1, avgdl=99.0, doc_len={"c": 4}, postings={})

    def test_nonpositive_tf_rejected(self):
        with pytest.raises(ValueError, match="tf"):
            InvertedIndex(N=1, avgdl=4.0, doc_len={"c": 4}, postings={"t": [("c", 0)]})

    def test_posting_for_unknown_chunk_rejected(self):
        with pytest.raises(ValueError, match="term 't'.*chunk_id 'x'"):
            InvertedIndex(N=1, avgdl=4.0, doc_len={"c": 4}, postings={"t": [("x", 1)]})

    @pytest.mark.parametrize(
        "plist", [[("c", 1), ("c", 2)], [("c", 1), ("d", 1), ("c", 2)]]
    )
    def test_duplicate_posting_rejected(self, plist):
        # A chunk named twice would count twice in df, and df > N makes idf
        # negative.
        doc_len = {"c": 4, "d": 4}
        with pytest.raises(ValueError, match="term 't'.*chunk_id 'c' twice"):
            InvertedIndex(N=2, avgdl=4.0, doc_len=doc_len, postings={"t": plist})

    def test_postings_out_of_row_order_load(self):
        # Built postings are in chunk-id order, which need not be row order.
        doc_len = {"c10": 4, "c9": 4}
        ix = InvertedIndex(
            N=2, avgdl=4.0, doc_len=doc_len, postings={"t": [("c9", 1), ("c10", 2)]}
        )
        assert ix.posting_list("t") == [("c9", 1), ("c10", 2)]

    @pytest.mark.parametrize("tf", [0, -1, 1.5, 2.0, "2", True, None])
    def test_tf_that_is_not_a_positive_int_rejected(self, tf):
        with pytest.raises(ValueError, match="term 't'"):
            InvertedIndex(N=1, avgdl=4.0, doc_len={"c": 4}, postings={"t": [("c", tf)]})

    def test_term_with_no_postings_has_df_zero(self):
        ix = InvertedIndex(N=1, avgdl=4.0, doc_len={"c": 4}, postings={"t": []})
        assert ix.posting_list("t") == []
        assert idf(ix, "t") == idf(ix, "never-seen")


class TestIdf:
    def test_df_one_of_three(self):
        assert idf(_hand_index(), "t") == pytest.approx(math.log(8.0 / 3.0), abs=1e-12)

    def test_df_equals_n(self):
        assert idf(_hand_index(), "u") == pytest.approx(math.log(1 + 0.5 / 3.5), abs=1e-12)

    def test_unseen_term_df_zero_finite(self):
        ix = _hand_index()
        assert idf(ix, "zzz") == pytest.approx(math.log(1 + 3.5 / 0.5), abs=1e-12)

    def test_idf_weights_cover_every_term_bitwise(self):
        ix = _hand_index()
        weights = idf_weights(ix)
        assert list(weights) == ["t", "u", "v"]
        assert all(weights[t] == idf(ix, t) for t in weights)

    def test_always_positive(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 1000))
            df = int(rng.integers(0, n + 1))
            value = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            assert value > 0.0


class TestBm25Score:
    def test_hand_value(self):
        # idf(df=1, N=3) * (2 * 2.2) / (2 + 1.2 * (1 - 0.75 + 0.75 * 1))
        score = bm25_score(_hand_index(), BM25Params(), ["t"], "c1")
        assert score == pytest.approx(math.log(8.0 / 3.0) * 4.4 / 3.2, abs=1e-12)

    def test_no_matching_terms_scores_zero(self):
        assert bm25_score(_hand_index(), BM25Params(), ["t"], "c2") == 0.0

    def test_b_zero_removes_length_dependence(self):
        doc_len = {"c1": 2, "c2": 40}
        postings = {"t": [("c1", 1), ("c2", 1)]}
        ix = InvertedIndex(N=2, avgdl=21.0, doc_len=doc_len, postings=postings)
        p = BM25Params(k1=1.2, b=0.0)
        assert bm25_score(ix, p, ["t"], "c1") == bm25_score(ix, p, ["t"], "c2")

    def test_duplicate_query_terms_counted_once(self):
        ix = _hand_index()
        p = BM25Params()
        assert bm25_score(ix, p, ["t", "t", "t"], "c1") == bm25_score(ix, p, ["t"], "c1")

    def test_unknown_chunk_rejected(self):
        with pytest.raises(KeyError, match="unknown chunk_id"):
            bm25_score(_hand_index(), BM25Params(), ["t"], "nope")

    def test_tf_monotonicity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            tf = int(rng.integers(1, 20))
            dl = int(rng.integers(5, 100))
            other = int(rng.integers(5, 100))
            doc_len = {"c": dl, "d": other}
            avgdl = (dl + other) / 2
            prev = None
            for bump in range(4):
                ix = InvertedIndex(
                    N=2,
                    avgdl=avgdl,
                    doc_len=doc_len,
                    postings={"t": [("c", tf + bump)]},
                )
                score = bm25_score(ix, BM25Params(), ["t"], "c")
                if prev is not None:
                    assert score >= prev
                prev = score


def _random_corpus(rng, n_chunks, model, vocab):
    chunks = []
    for i in range(n_chunks):
        words = rng.choice(vocab, size=rng.integers(4, 30))
        chunks.append(Chunk(f"c{i:03d}", "d", 0, len(words), " ".join(words)))
    return chunks


class TestSearch:
    def test_unique_term_ranks_first(self, word_model):
        chunks = [
            Chunk("c0", "d", 0, 3, "w1 w2 w3"),
            Chunk("c1", "d", 0, 3, "w9 w2 w3"),
            Chunk("c2", "d", 0, 3, "w4 w5 w6"),
        ]
        ix = build_index(chunks, word_model)
        results = search(ix, BM25Params(), "w9", 3, word_model)
        assert results[0][0] == "c1"

    def test_matches_brute_force_exactly(self, word_model):
        vocab = np.array([f"w{i}" for i in range(30)])
        rng = np.random.default_rng(23)
        p = BM25Params()
        for trial in range(5):
            chunks = _random_corpus(rng, 60, word_model, vocab)
            ix = build_index(chunks, word_model)
            query = " ".join(rng.choice(vocab, size=4))
            terms = word_model.encode(query).surface
            got = search(ix, p, query, 10, word_model)
            brute = sorted(
                (
                    (c.chunk_id, bm25_score(ix, p, terms, c.chunk_id))
                    for c in chunks
                    if bm25_score(ix, p, terms, c.chunk_id) > 0.0
                ),
                key=lambda kv: (-kv[1], kv[0]),
            )[:10]
            assert got == brute  # ids and bitwise-equal scores

    def test_k_larger_than_candidates_returns_all(self, word_model):
        chunks = [Chunk("c0", "d", 0, 2, "w1 w2"), Chunk("c1", "d", 0, 2, "w3 w4")]
        ix = build_index(chunks, word_model)
        assert len(search(ix, BM25Params(), "w1", 50, word_model)) == 1

    def test_empty_query_returns_empty(self, word_model):
        ix = build_index([Chunk("c0", "d", 0, 2, "w1 w2")], word_model)
        assert search(ix, BM25Params(), "   ", 5, word_model) == []

    def test_prefix_property(self, word_model):
        vocab = np.array([f"w{i}" for i in range(30)])
        rng = np.random.default_rng(29)
        chunks = _random_corpus(rng, 40, word_model, vocab)
        ix = build_index(chunks, word_model)
        p = BM25Params()
        for k in (1, 3, 7):
            small = search(ix, p, "w1 w2 w3", k, word_model)
            bigger = search(ix, p, "w1 w2 w3", k + 1, word_model)
            assert bigger[:k] == small

    def test_scores_nonnegative(self, word_model):
        vocab = np.array([f"w{i}" for i in range(30)])
        rng = np.random.default_rng(31)
        chunks = _random_corpus(rng, 40, word_model, vocab)
        ix = build_index(chunks, word_model)
        for _ in range(10):
            query = " ".join(rng.choice(vocab, size=3))
            for _, score in search(ix, BM25Params(), query, 20, word_model):
                assert score >= 0.0


class TestPersistence:
    def test_round_trip_bitwise_scores(self, word_model, tmp_path):
        vocab = np.array([f"w{i}" for i in range(30)])
        rng = np.random.default_rng(37)
        chunks = _random_corpus(rng, 50, word_model, vocab)
        ix = build_index(chunks, word_model)
        save(ix, tmp_path)
        reloaded = load(tmp_path)
        assert reloaded.N == ix.N
        assert reloaded.avgdl == ix.avgdl
        assert reloaded.doc_len == ix.doc_len
        assert list(reloaded.terms) == list(ix.terms)
        assert all(reloaded.posting_list(t) == ix.posting_list(t) for t in ix.terms)
        p = BM25Params()
        for _ in range(10):
            query = " ".join(rng.choice(vocab, size=4))
            assert search(reloaded, p, query, 10, word_model) == search(
                ix, p, query, 10, word_model
            )

    def test_score_rows_matches_individual_scores(self, word_model):
        vocab = np.array([f"w{i}" for i in range(30)])
        rng = np.random.default_rng(41)
        chunks = _random_corpus(rng, 50, word_model, vocab)
        ix = build_index(chunks, word_model)
        p = BM25Params()
        terms = word_model.encode("w1 w5 w9").surface
        scores, touched = score_rows(ix, p, terms)
        assert touched.any()
        for i, cid in enumerate(ix.chunk_ids):
            assert scores[i] == bm25_score(ix, p, terms, cid)
            assert touched[i] == (scores[i] > 0.0)

    def test_load_then_save_is_byte_identical(self, word_model, tmp_path):
        vocab = np.array([f"w{i}" for i in range(30)])
        chunks = _random_corpus(np.random.default_rng(43), 50, word_model, vocab)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        save(build_index(chunks, word_model), tmp_path / "a")
        save(load(tmp_path / "a"), tmp_path / "b")
        for name in (LEXICAL_FILE, DOCLEN_FILE):
            assert (tmp_path / "b" / name).read_bytes() == (
                tmp_path / "a" / name
            ).read_bytes()

    def test_load_keeps_no_per_posting_objects(self, synth_tokenizer, tmp_path):
        records = synthetic.make_corpus(3000, seed=5, lexicon_size=400)
        chunks = [Chunk(r["id"] + "#0", r["id"], 0, 0, r["text"]) for r in records]
        save(build_index(chunks, synth_tokenizer), tmp_path)
        with (tmp_path / LEXICAL_FILE).open(encoding="utf-8") as fh:
            next(fh)
            n_postings = sum(len(json.loads(line)["postings"]) for line in fh)
        assert n_postings > 100_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ix = load(tmp_path)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert ix.N == 3000
        # Two 8-byte arrays per posting, plus per-chunk and per-term overhead;
        # a (cid, tf) tuple per posting alone costs more than this bound.
        assert retained / n_postings < 40


def _write_lexical_files(out_dir, postings):
    """One chunk "c" of length 4 and one term "t" with the given raw postings."""
    (out_dir / DOCLEN_FILE).write_text(
        json.dumps({"chunk_id": "c", "len": 4}) + "\n", encoding="utf-8"
    )
    (out_dir / LEXICAL_FILE).write_text(
        json.dumps({"N": 1, "avgdl": 4.0})
        + "\n"
        + json.dumps({"term": "t", "postings": postings})
        + "\n",
        encoding="utf-8",
    )


class TestLoadValidation:
    def test_valid_file_loads(self, tmp_path):
        _write_lexical_files(tmp_path, [["c", 3]])
        assert load(tmp_path).posting_list("t") == [("c", 3)]

    def test_posting_for_unknown_chunk_names_term_and_chunk(self, tmp_path):
        _write_lexical_files(tmp_path, [["x", 1]])
        with pytest.raises(ValueError, match="term 't'.*chunk_id 'x'"):
            load(tmp_path)

    @pytest.mark.parametrize("tf", [0, 1.5, "2", True])
    def test_tf_that_is_not_a_positive_int_names_term(self, tmp_path, tf):
        _write_lexical_files(tmp_path, [["c", tf]])
        with pytest.raises(ValueError, match="term 't'"):
            load(tmp_path)

    def test_duplicate_posting_names_term_and_chunk(self, tmp_path):
        _write_lexical_files(tmp_path, [["c", 1], ["c", 2]])
        with pytest.raises(ValueError, match="term 't'.*chunk_id 'c' twice"):
            load(tmp_path)
