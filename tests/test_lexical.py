import json
import math
import tracemalloc

import numpy as np
import pytest

from qrag import synthetic
from qrag.corpus import Chunk
from qrag.lexical import (
    IMPACT_BLOCK,
    IMPACT_CACHE_MAX,
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
    return InvertedIndex.from_postings(doc_len, postings)


def _reference_score_rows(index, p, query_terms):
    """The per-term BM25 formula ``score_rows`` computed before impacts:
    each term's scores from its tfs and the doc lengths, at query time."""
    scores = np.zeros(index.N, dtype=np.float64)
    touched = np.zeros(index.N, dtype=bool)
    norm = p.k1 * (1.0 - p.b + p.b * index.doc_len / index.avgdl)
    for term in dict.fromkeys(query_terms):
        rows, tf = index.postings(term)
        tf = tf.astype(np.float64)
        scores[rows] += idf(index, term) * (tf * (p.k1 + 1.0)) / (tf + norm[rows])
        touched[rows] = True
    return scores, touched


def _index(chunks, model):
    """``build_index`` over each chunk's BPE surface terms, as ``build_all``
    builds it."""
    return build_index(
        [c.chunk_id for c in chunks], [model.encode(c.text).surface for c in chunks]
    )


def _pairs(ix, term):
    """``term``'s (chunk_id, tf) pairs in stored (row) order."""
    rows, tfs = ix.postings(term)
    return [(ix.chunk_ids[r], int(tf)) for r, tf in zip(rows.tolist(), tfs.tolist())]


@pytest.fixture(scope="module")
def word_model():
    # Repeating words so each survives BPE as a single token.
    words = [f"w{i}" for i in range(30)]
    return train_bpe([" ".join(words)] * 3, vocab_size=500)


class TestBuildIndex:
    def test_equal_lengths_give_avgdl(self, word_model):
        chunks = [Chunk(f"c{i}", "d", 0, 4, "w1 w2 w3 w4") for i in range(3)]
        ix = _index(chunks, word_model)
        assert ix.N == 3
        assert ix.avgdl == pytest.approx(ix.doc_len[0])

    def test_repeated_term_single_posting_with_tf(self, word_model):
        ix = _index([Chunk("c0", "d", 0, 4, "w1 w1 w2 w3")], word_model)
        term = word_model.encode("w1").surface[0]
        assert _pairs(ix, term) == [("c0", 2)]

    def test_absent_term_has_no_postings(self, word_model):
        ix = _index([Chunk("c0", "d", 0, 2, "w1 w2")], word_model)
        term = word_model.encode("w9").surface[0]
        assert term not in ix.terms
        assert _pairs(ix, term) == []

    def test_postings_follow_row_order(self, word_model):
        chunks = [Chunk(f"c{i}", "d", 0, 2, "w1 w2") for i in (3, 1, 2)]
        ix = _index(chunks, word_model)
        term = word_model.encode("w1").surface[0]
        assert ix.postings(term)[0].tolist() == [0, 1, 2]
        assert [cid for cid, _ in _pairs(ix, term)] == ["c3", "c1", "c2"]

    def test_duplicate_chunk_id_rejected(self, word_model):
        chunks = [Chunk("c0", "d", 0, 2, "w1 w2"), Chunk("c0", "d", 0, 2, "w3 w4")]
        with pytest.raises(ValueError, match="duplicate"):
            _index(chunks, word_model)

    def test_empty_chunk_list_rejected(self, word_model):
        with pytest.raises(ValueError, match="empty"):
            build_index([], [])

    def test_fewer_term_lists_than_ids_rejected(self):
        with pytest.raises(ValueError):
            build_index(["c0", "c1"], [["w1"]])

    def test_avgdl_is_the_mean_doc_len(self):
        ix = InvertedIndex.from_postings({"c": 2, "d": 5}, {})
        assert ix.avgdl == 3.5
        assert ix.doc_len.tolist() == [2, 5]

    def test_no_chunks_rejected(self):
        with pytest.raises(ValueError, match="doc_len has 0 entries for 0 chunks"):
            InvertedIndex.from_postings({}, {})

    def test_nonpositive_tf_rejected(self):
        with pytest.raises(ValueError, match="tf"):
            InvertedIndex.from_postings({"c": 4}, {"t": [("c", 0)]})

    def test_posting_for_unknown_chunk_rejected(self):
        with pytest.raises(ValueError, match="term 't'.*chunk_id 'x'"):
            InvertedIndex.from_postings({"c": 4}, {"t": [("x", 1)]})

    @pytest.mark.parametrize(
        "plist", [[("c", 1), ("c", 2)], [("c", 1), ("d", 1), ("c", 2)]]
    )
    def test_duplicate_posting_rejected(self, plist):
        # A chunk named twice would count twice in df, and df > N makes idf
        # negative.
        doc_len = {"c": 4, "d": 4}
        with pytest.raises(ValueError, match="term 't'.*chunk_id 'c' twice"):
            InvertedIndex.from_postings(doc_len, {"t": plist})

    def test_postings_out_of_row_order_load(self):
        # Postings may be given in any order (here chunk-id order); they are
        # stored in row order.
        ix = InvertedIndex.from_postings(
            {"c10": 4, "c9": 4}, {"t": [("c9", 1), ("c10", 2)]}
        )
        assert _pairs(ix, "t") == [("c10", 2), ("c9", 1)]

    @pytest.mark.parametrize("tf", [0, -1, 1.5, 2.0, "2", True, None])
    def test_tf_that_is_not_a_positive_int_rejected(self, tf):
        with pytest.raises(ValueError, match="term 't'"):
            InvertedIndex.from_postings({"c": 4}, {"t": [("c", tf)]})

    def test_posting_on_a_chunk_of_length_0_rejected(self):
        # Its impact would divide by a norm built from avgdl, which is 0 when
        # every chunk is empty.
        with pytest.raises(ValueError, match="term 't' name chunk_id 'c' of length 0"):
            InvertedIndex.from_postings({"c": 0, "d": 4}, {"t": [("d", 1), ("c", 1)]})

    def test_chunks_of_length_0_without_postings_score_0(self):
        ix = InvertedIndex.from_postings({"c": 0, "d": 0}, {})
        assert ix.avgdl == 0.0
        scores, touched = score_rows(ix, BM25Params(), ["t"])
        assert scores.tolist() == [0.0, 0.0] and not touched.any()

    @pytest.mark.parametrize("k1", [-1.0, math.nan, math.inf])
    def test_k1_that_is_not_finite_and_nonnegative_rejected(self, k1):
        with pytest.raises(ValueError, match="k1 must be finite and >= 0"):
            BM25Params(k1=k1)

    def test_term_with_no_postings_has_df_zero(self):
        ix = InvertedIndex.from_postings({"c": 4}, {"t": []})
        assert _pairs(ix, "t") == []
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

    def test_kept_idfs_are_idf_bitwise(self, synth_tokenizer, tmp_path):
        records = synthetic.make_corpus(400, seed=7, lexicon_size=300)
        chunks = [Chunk(r["id"] + "#0", r["id"], 0, 0, r["text"]) for r in records]
        built = _index(chunks, synth_tokenizer)
        save(built, tmp_path)
        for ix in (built, load(tmp_path, built.chunk_ids)):
            dfs = {len(ix.postings(t)[0]) for t in ix.terms}
            assert len(dfs) > 20 and max(dfs) > ix.N / 2
            oracle = np.array([idf(ix, t) for t in ix.terms])
            assert np.array(ix.idfs).tobytes() == oracle.tobytes()

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
        ix = InvertedIndex.from_postings(doc_len, postings)
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
            prev = None
            for bump in range(4):
                ix = InvertedIndex.from_postings(doc_len, {"t": [("c", tf + bump)]})
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
        ix = _index(chunks, word_model)
        results = search(ix, BM25Params(), word_model.encode("w9").surface, 3)
        assert results[0][0] == "c1"

    def test_matches_brute_force_exactly(self, word_model):
        vocab = np.array([f"w{i}" for i in range(30)])
        rng = np.random.default_rng(23)
        p = BM25Params()
        for trial in range(5):
            chunks = _random_corpus(rng, 60, word_model, vocab)
            ix = _index(chunks, word_model)
            query = " ".join(rng.choice(vocab, size=4))
            terms = word_model.encode(query).surface
            got = search(ix, p, terms, 10)
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
        ix = _index(chunks, word_model)
        assert len(search(ix, BM25Params(), word_model.encode("w1").surface, 50)) == 1

    def test_empty_query_returns_empty(self, word_model):
        ix = _index([Chunk("c0", "d", 0, 2, "w1 w2")], word_model)
        assert search(ix, BM25Params(), word_model.encode("   ").surface, 5) == []

    def test_prefix_property(self, word_model):
        vocab = np.array([f"w{i}" for i in range(30)])
        rng = np.random.default_rng(29)
        chunks = _random_corpus(rng, 40, word_model, vocab)
        ix = _index(chunks, word_model)
        p = BM25Params()
        terms = word_model.encode("w1 w2 w3").surface
        for k in (1, 3, 7):
            small = search(ix, p, terms, k)
            bigger = search(ix, p, terms, k + 1)
            assert bigger[:k] == small

    def test_scores_nonnegative(self, word_model):
        vocab = np.array([f"w{i}" for i in range(30)])
        rng = np.random.default_rng(31)
        chunks = _random_corpus(rng, 40, word_model, vocab)
        ix = _index(chunks, word_model)
        for _ in range(10):
            terms = word_model.encode(" ".join(rng.choice(vocab, size=3))).surface
            for _, score in search(ix, BM25Params(), terms, 20):
                assert score >= 0.0


class TestImpacts:
    @pytest.mark.parametrize("k1", [0.0, 1.2, 2.0])
    @pytest.mark.parametrize("b", [0.0, 0.75, 1.0])
    def test_score_rows_matches_reference_bytes(self, word_model, tmp_path, k1, b):
        vocab = np.array([f"w{i}" for i in range(30)])
        rng = np.random.default_rng(47)
        chunks = _random_corpus(rng, 80, word_model, vocab)
        built = _index(chunks, word_model)
        save(built, tmp_path)
        reloaded = load(tmp_path, [c.chunk_id for c in chunks])
        p = BM25Params(k1=k1, b=b)
        for ix in (built, reloaded):
            for _ in range(20):
                words = list(rng.choice(vocab, size=int(rng.integers(1, 8))))
                # Repeated words, a word of unseen symbols and a raw term
                # that no chunk holds.
                text = " ".join(words + words[:2] + ["zz9"])
                terms = word_model.encode(text).surface + ["never-indexed"]
                scores, touched = score_rows(ix, p, terms)
                want_scores, want_touched = _reference_score_rows(ix, p, terms)
                assert scores.tobytes() == want_scores.tobytes()
                assert np.array_equal(touched, want_touched)
                assert touched.any()

    def test_each_impact_is_its_terms_bm25_score(self):
        ix = _hand_index()
        p = BM25Params(k1=1.5, b=0.5)
        impacts = ix.impacts(p)
        assert impacts.dtype == np.float64 and len(impacts) == len(ix.rows)
        for term in ix.terms:
            lo, hi = ix.offsets[ix.terms.index(term)], ix.offsets[ix.terms.index(term) + 1]
            for row, impact in zip(ix.rows[lo:hi].tolist(), impacts[lo:hi].tolist()):
                assert impact == bm25_score(ix, p, [term], ix.chunk_ids[row]) > 0.0

    def test_impacts_are_kept_per_params(self):
        ix = _hand_index()
        first = ix.impacts(BM25Params())
        assert ix.impacts(BM25Params(k1=1.2, b=0.75)) is first
        assert ix.impacts(BM25Params(k1=2.0)) is not first
        for i in range(2 * IMPACT_CACHE_MAX):
            ix.impacts(BM25Params(k1=float(i)))
        assert len(ix._impacts) <= IMPACT_CACHE_MAX

    def test_impacts_scratch_does_not_grow_with_the_index(self):
        rng = np.random.default_rng(53)
        n_terms = 64
        for n_rows in (3_000, 12_000):
            # Row-major nonzeros: rows increase within each term.
            term_of, rows = np.nonzero(rng.random((n_terms, n_rows)) < 0.5)
            ix = InvertedIndex(
                [f"c{i}" for i in range(n_rows)],
                rng.integers(1, 50, n_rows),
                [f"t{j}" for j in range(n_terms)],
                np.searchsorted(term_of, np.arange(n_terms + 1)),
                rows,
                rng.integers(1, 5, len(rows)),
            )
            assert len(rows) > 2 * IMPACT_BLOCK
            tracemalloc.start()
            try:
                impacts = ix.impacts(BM25Params())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # Beyond the result, a few IMPACT_BLOCK-long arrays.
            assert peak - impacts.nbytes <= 12 * 8 * IMPACT_BLOCK, n_rows


class TestPersistence:
    def test_round_trip_bitwise_scores(self, word_model, tmp_path):
        vocab = np.array([f"w{i}" for i in range(30)])
        rng = np.random.default_rng(37)
        chunks = _random_corpus(rng, 50, word_model, vocab)
        ix = _index(chunks, word_model)
        save(ix, tmp_path)
        reloaded = load(tmp_path, [c.chunk_id for c in chunks])
        assert reloaded.N == ix.N
        assert reloaded.avgdl == ix.avgdl
        assert reloaded.chunk_ids == ix.chunk_ids
        assert list(reloaded.terms) == list(ix.terms)
        for name in ("doc_len", "offsets", "rows", "tfs"):
            got, want = getattr(reloaded, name), getattr(ix, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        p = BM25Params()
        for _ in range(10):
            query = " ".join(rng.choice(vocab, size=4))
            terms = word_model.encode(query).surface
            assert search(reloaded, p, terms, 10) == search(ix, p, terms, 10)

    def test_score_rows_matches_individual_scores(self, word_model):
        vocab = np.array([f"w{i}" for i in range(30)])
        rng = np.random.default_rng(41)
        chunks = _random_corpus(rng, 50, word_model, vocab)
        ix = _index(chunks, word_model)
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
        save(_index(chunks, word_model), tmp_path / "a")
        save(load(tmp_path / "a", [c.chunk_id for c in chunks]), tmp_path / "b")
        assert (tmp_path / "b" / LEXICAL_FILE).read_bytes() == (
            tmp_path / "a" / LEXICAL_FILE
        ).read_bytes()

    @pytest.mark.parametrize("tf, width", [(1, "|u1"), (255, "|u1"), (256, "<u2")])
    def test_tfs_stored_in_the_narrowest_width(self, tmp_path, tf, width):
        save(InvertedIndex.from_postings({"c": tf}, {"t": [("c", tf)]}), tmp_path)
        with (tmp_path / LEXICAL_FILE).open("rb") as fh:
            arrays = [np.lib.format.read_array(fh) for _ in range(5)]
        assert [a.dtype.str for a in arrays] == ["<i4", "|u1", "<i8", "<i4", width]
        assert arrays[4].tolist() == [tf]
        reloaded = load(tmp_path, ["c"])
        assert _pairs(reloaded, "t") == [("c", tf)]
        # Held as stored: no wider copy of the rows or tfs is kept.
        assert (reloaded.rows.dtype.str, reloaded.tfs.dtype.str) == ("<i4", width)

    def test_load_keeps_no_per_posting_objects(self, synth_tokenizer, tmp_path):
        records = synthetic.make_corpus(3000, seed=5, lexicon_size=400)
        chunks = [Chunk(r["id"] + "#0", r["id"], 0, 0, r["text"]) for r in records]
        save(_index(chunks, synth_tokenizer), tmp_path)
        ids = [c.chunk_id for c in chunks]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ix = load(tmp_path, ids)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        n_postings = int(ix.offsets[-1])
        assert n_postings > 100_000
        assert ix.N == 3000
        # A row and a tf per posting, plus per-chunk and per-term overhead;
        # a (cid, tf) tuple per posting alone costs more than this bound.
        assert retained / n_postings < 40


def _write_lexical_file(out_dir, **arrays):
    """``lexical.npy`` for one chunk of length 4 and one term "t" with one
    posting of tf 3, with any of the five arrays replaced by keyword."""
    default = {
        "doc_len": np.array([4], dtype="<i4"),
        "terms": ["t"],
        "offsets": np.array([0, 1], dtype="<i8"),
        "rows": np.array([0], dtype="<i4"),
        "tfs": np.array([3], dtype=np.uint8),
    }
    default.update(arrays)
    if isinstance(default["terms"], list):
        terms = json.dumps(default["terms"]).encode("utf-8")
        default["terms"] = np.frombuffer(terms, dtype=np.uint8)
    with (out_dir / LEXICAL_FILE).open("wb") as fh:
        for arr in default.values():
            np.lib.format.write_array(fh, np.asarray(arr), allow_pickle=True)


class TestLoadValidation:
    def test_valid_file_loads(self, tmp_path):
        _write_lexical_file(tmp_path)
        assert _pairs(load(tmp_path, ["c"]), "t") == [("c", 3)]

    def test_posting_for_unknown_chunk_names_term_and_chunk(self, tmp_path):
        # Row 1 of a one-chunk index names no chunk.
        _write_lexical_file(tmp_path, rows=np.array([1], dtype="<i4"))
        with pytest.raises(ValueError, match="term 't' name a row outside 0..0"):
            load(tmp_path, ["c"])

    @pytest.mark.parametrize(
        "tf, match",
        [
            pytest.param(0, "term 't'", id="0"),
            pytest.param(1.5, "tfs must be a 1-d integer array", id="1.5"),
            pytest.param("2", "tfs must be a 1-d integer array", id="2"),
            pytest.param(True, "tfs must be a 1-d integer array", id="True"),
        ],
    )
    def test_tf_that_is_not_a_positive_int_names_term(self, tmp_path, tf, match):
        # A tf below 1 names its term; a tfs array of float, str or bool
        # dtype is refused as a whole, by name.
        _write_lexical_file(tmp_path, tfs=np.array([tf]))
        with pytest.raises(ValueError, match=match):
            load(tmp_path, ["c"])

    def test_duplicate_posting_names_term_and_chunk(self, tmp_path):
        _write_lexical_file(
            tmp_path,
            doc_len=np.array([4, 4], dtype="<i4"),
            offsets=np.array([0, 2], dtype="<i8"),
            rows=np.array([0, 0], dtype="<i4"),
            tfs=np.array([1, 2], dtype=np.uint8),
        )
        with pytest.raises(ValueError, match="term 't'.*chunk_id 'c' twice"):
            load(tmp_path, ["c", "d"])

    def test_rows_out_of_order_name_term(self, tmp_path):
        _write_lexical_file(
            tmp_path,
            doc_len=np.array([4, 4], dtype="<i4"),
            terms=["s", "t"],
            offsets=np.array([0, 1, 3], dtype="<i8"),
            rows=np.array([1, 1, 0], dtype="<i4"),
            tfs=np.array([1, 1, 1], dtype=np.uint8),
        )
        with pytest.raises(ValueError, match="term 't' are not in increasing row order"):
            load(tmp_path, ["c", "d"])

    def test_rows_may_restart_at_each_term(self, tmp_path):
        _write_lexical_file(
            tmp_path,
            doc_len=np.array([4, 4], dtype="<i4"),
            terms=["s", "t", "u"],
            offsets=np.array([0, 2, 2, 3], dtype="<i8"),
            rows=np.array([0, 1, 0], dtype="<i4"),
            tfs=np.array([1, 2, 3], dtype=np.uint8),
        )
        ix = load(tmp_path, ["c", "d"])
        assert [_pairs(ix, t) for t in "stu"] == [[("c", 1), ("d", 2)], [], [("c", 3)]]

    @pytest.mark.parametrize(
        "terms, offsets",
        [
            (["t"], [0, 2]),  # ends past the posting count
            (["t"], [0, 0]),  # ends before it
            (["t"], [1, 1]),  # does not start at 0
            (["t"], [0]),  # one entry short
            (["s", "t"], [0, 1, 0]),  # ends before the posting count
            (["s", "t", "u"], [0, 1, 0, 1]),  # decreases
        ],
    )
    def test_bad_offsets_rejected(self, tmp_path, terms, offsets):
        _write_lexical_file(tmp_path, terms=terms, offsets=np.array(offsets, dtype="<i8"))
        match = "offsets must (run from 0 to the posting count 1|not decrease)"
        with pytest.raises(ValueError, match=match):
            load(tmp_path, ["c"])

    def test_tfs_must_match_rows(self, tmp_path):
        _write_lexical_file(tmp_path, tfs=np.array([3, 3], dtype=np.uint8))
        with pytest.raises(ValueError, match="tfs must match rows"):
            load(tmp_path, ["c"])

    def test_wrong_doc_len_count_rejected(self, tmp_path):
        _write_lexical_file(tmp_path, doc_len=np.array([4, 4], dtype="<i4"))
        with pytest.raises(ValueError, match="doc_len has 2 entries for 1 chunks"):
            load(tmp_path, ["c"])

    def test_posting_on_a_chunk_of_length_0_names_term_and_chunk(self, tmp_path):
        _write_lexical_file(tmp_path, doc_len=np.array([0], dtype="<i4"))
        with pytest.raises(ValueError, match="term 't' name chunk_id 'c' of length 0"):
            load(tmp_path, ["c"])

    def test_negative_doc_len_rejected(self, tmp_path):
        _write_lexical_file(tmp_path, doc_len=np.array([-1], dtype="<i4"))
        with pytest.raises(ValueError, match="doc_len must be >= 0"):
            load(tmp_path, ["c"])

    @pytest.mark.parametrize("name", ["doc_len", "offsets", "rows", "tfs"])
    def test_non_integer_or_2d_array_named(self, tmp_path, name):
        good = {
            "doc_len": [4], "offsets": [0, 1], "rows": [0], "tfs": [3]
        }[name]
        for bad in (np.array(good, dtype=np.float64), np.array([good])):
            _write_lexical_file(tmp_path, **{name: bad})
            with pytest.raises(ValueError, match=f"{name} must be a 1-d integer array"):
                load(tmp_path, ["c"])

    def test_object_array_refused_without_unpickling(self, tmp_path):
        _write_lexical_file(tmp_path, terms=np.array(["t"], dtype=object))
        with pytest.raises(ValueError, match="lexical.npy: .*allow_pickle"):
            load(tmp_path, ["c"])

    @pytest.mark.parametrize(
        "terms, match",
        [
            (["t", "t"], "term 1 is not a string listed once: 't'"),
            ([1], "term 0 is not a string listed once: 1"),
            ({"t": 1}, "terms must be a JSON list"),
        ],
    )
    def test_bad_terms_rejected(self, tmp_path, terms, match):
        raw = np.frombuffer(json.dumps(terms).encode("utf-8"), dtype=np.uint8)
        offsets = np.array([0] * len(terms) + [1], dtype="<i8")
        _write_lexical_file(tmp_path, terms=raw, offsets=offsets)
        with pytest.raises(ValueError, match=match):
            load(tmp_path, ["c"])

    def test_truncated_or_padded_file_rejected(self, tmp_path):
        _write_lexical_file(tmp_path)
        path = tmp_path / LEXICAL_FILE
        whole = path.read_bytes()
        for damaged, match in ((whole[:-1], "lexical.npy"), (whole + b"\0", "trailing")):
            path.write_bytes(damaged)
            with pytest.raises(ValueError, match=match):
                load(tmp_path, ["c"])
