import ast
import io
import math
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qrag.lexical
from qrag import _npy, synthetic
from qrag.lexical import (
    DENSE_DF,
    IMPACT_BLOCK,
    LEXICAL_ARRAYS,
    BM25Params,
    InvertedIndex,
    bm25_score,
    build_index,
    idf,
    index_arrays,
    parse,
    score_rows,
    top_rows,
    touched_rows,
)
from qrag.quantum import FusionConfig, fuse_rrf, rank_candidates
from qrag.semantic import VectorIndex
from qrag.tokenizer import train_bpe

EMPTY = np.array([], dtype=np.int64)
# A file of the lexical arrays alone, as a test writes them.
LEXICAL_FILE = "lexical.npy"


def _hand_index():
    """Three chunks of length 4: term 0 is twice in row 0 only, term 1 once
    in each, term 2 once in row 1 and twice in row 2, and term 3 in none."""
    return InvertedIndex(
        np.array([4, 4, 4]),
        np.array([0, 1, 4, 6, 6]),
        np.array([0, 0, 1, 2, 1, 2]),
        np.array([2, 1, 1, 1, 1, 2]),
    )


def _mixed_index():
    """Eight chunks, so a term is frequent at df >= 2: terms 1 and 3 are,
    and terms 0 and 2 are scored sparsely."""
    return InvertedIndex(
        np.arange(3, 11),
        np.array([0, 1, 3, 4, 12]),
        np.array([1, 0, 5, 2, *range(8)]),
        np.array([1, 2, 1, 1, *(1 + i % 3 for i in range(8))]),
    )


def _terms(ix):
    """Every term id of ``ix``, held by a chunk or not."""
    return range(len(ix.offsets) - 1)


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


def _build(chunk_terms, term_count):
    """``build_index`` over the chunks of ``chunk_terms``, one sequence of
    term ids each, as a chunk table holds them: one array of every id, and
    each chunk's count."""
    counts = np.array(list(map(len, chunk_terms)), dtype="<i4")
    tokens = np.array([t for terms in chunk_terms for t in terms], dtype=np.int64)
    return build_index(tokens, counts, term_count)


def _index(chunks, model):
    """``build_index`` over the vocab ids of each (chunk id, text) pair's
    text, as ``build_all`` builds it."""
    return _build([model.encode(text) for _, text in chunks], model.vocab_size())


def _ranked(ix, p, terms, k):
    """The sparse leg's top ``k`` as ``retrieve`` ranks it, ``score_rows``
    then ``top_rows`` over ``touched_rows``: (row, score) pairs by score
    descending, then row."""
    scores, touched = score_rows(ix, p, terms)
    return [(row, float(scores[row])) for row in top_rows(scores, touched_rows(touched, k), k)]


def _save(index, out_dir):
    """Write the lexical arrays of ``index`` alone, as ``LEXICAL_FILE``."""
    with open(out_dir / LEXICAL_FILE, "wb") as fh:
        _npy.write(fh, index_arrays(index))


def _arrays(data, term_count):
    """The lexical arrays in ``data``, read as a load reads them for a
    vocabulary of ``term_count``."""
    return _npy.read(io.BytesIO(data), LEXICAL_ARRAYS, len(data), {"V": term_count})


def _reload(out_dir, doc_len, term_count):
    """``parse`` of the ``LEXICAL_FILE`` in ``out_dir``, of chunks of lengths
    ``doc_len``."""
    data = (out_dir / LEXICAL_FILE).read_bytes()
    return parse(_arrays(data, term_count), np.asarray(doc_len))


def _pairs(ix, term):
    """``term``'s (row, tf) pairs in stored (row) order."""
    rows, tfs = ix.postings(term)
    return list(zip(rows.tolist(), tfs.tolist()))


@pytest.fixture(scope="module")
def word_model():
    # Repeating words so each survives BPE as a single token.
    words = [f"w{i}" for i in range(30)]
    return train_bpe([" ".join(words)] * 3, vocab_size=500)


class TestBuildIndex:
    def test_equal_lengths_give_avgdl(self, word_model):
        chunks = [(f"c{i}", "w1 w2 w3 w4") for i in range(3)]
        ix = _index(chunks, word_model)
        assert ix.N == 3
        assert ix.avgdl == pytest.approx(ix.doc_len[0])

    def test_repeated_term_single_posting_with_tf(self, word_model):
        ix = _index([("c0", "w1 w1 w2 w3")], word_model)
        (term,) = word_model.encode("w1")
        assert _pairs(ix, term) == [(0, 2)]

    def test_absent_term_has_no_postings(self, word_model):
        ix = _index([("c0", "w1 w2")], word_model)
        (term,) = word_model.encode("w9")
        # Term j is vocab id j, held by a chunk or not.
        assert len(ix.offsets) == word_model.vocab_size() + 1
        assert _pairs(ix, term) == []

    def test_postings_follow_row_order(self, word_model):
        chunks = [(f"c{i}", "w1 w2") for i in range(3)]
        ix = _index(chunks, word_model)
        (term,) = word_model.encode("w1")
        assert ix.postings(term)[0].tolist() == [0, 1, 2]

    @pytest.mark.parametrize("term_count", [7, 200, 300, 70_000])
    def test_postings_equal_a_counter_oracle(self, term_count):
        # Ids in one byte, in two and in four, repeated within chunks, and
        # empty chunks.
        rng = np.random.default_rng(term_count)
        chunk_terms = [
            rng.integers(0, term_count, int(rng.integers(0, 40))).tolist() for _ in range(60)
        ]
        chunk_terms[3] = []
        ix = _build(chunk_terms, term_count)
        want: dict[int, list[tuple[int, int]]] = {}
        for row, terms in enumerate(chunk_terms):
            for term, tf in sorted(Counter(terms).items()):
                want.setdefault(term, []).append((row, tf))
        assert len(ix.offsets) == term_count + 1
        assert ix.doc_len.tolist() == list(map(len, chunk_terms))
        for term in range(term_count):
            assert _pairs(ix, term) == want.get(term, [])

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_term_id_outside_the_vocab_rejected(self, bad):
        with pytest.raises(ValueError, match=r"row 1 holds a term id outside 0\.\.4"):
            _build([[0, 4], [1, bad]], 5)

    def test_keys_wider_than_32_bits(self):
        # 70,000 terms over 70,000 chunks: term * N + row passes 2**32.
        n = v = 70_000
        chunk_terms = [[] for _ in range(n)]
        chunk_terms[5] = [v - 1]
        chunk_terms[-1] = [v - 1, 0, v - 1]
        ix = _build(chunk_terms, v)
        assert _pairs(ix, v - 1) == [(5, 1), (n - 1, 2)]
        assert _pairs(ix, 0) == [(n - 1, 1)]

    def test_empty_chunk_list_rejected(self, word_model):
        with pytest.raises(ValueError, match="empty"):
            _build([], 10)

    def test_avgdl_is_the_mean_doc_len(self):
        ix = InvertedIndex(np.array([2, 5]), np.array([0]), EMPTY, EMPTY)
        assert ix.avgdl == 3.5
        assert ix.doc_len.tolist() == [2, 5]

    def test_no_chunks_rejected(self):
        with pytest.raises(ValueError, match="doc_len has 0 entries: an index holds at least 1"):
            InvertedIndex(EMPTY, np.array([0]), EMPTY, EMPTY)

    def test_nonpositive_tf_rejected(self):
        with pytest.raises(ValueError, match="tf"):
            InvertedIndex(np.array([4]), np.array([0, 1]), np.array([0]), np.array([0]))

    def test_posting_for_unknown_chunk_rejected(self):
        with pytest.raises(ValueError, match=r"term 0 name a row outside 0\.\.0"):
            InvertedIndex(np.array([4]), np.array([0, 1]), np.array([1]), np.array([1]))

    @pytest.mark.parametrize(
        "plist", [[(0, 1), (0, 2)], [(0, 1), (0, 2), (1, 1)]]
    )
    def test_duplicate_posting_rejected(self, plist):
        # A chunk named twice would count twice in df, and df > N makes idf
        # negative.
        rows, tfs = map(np.array, zip(*plist))
        with pytest.raises(ValueError, match="^postings for term 0 name row 0 twice$"):
            InvertedIndex(np.array([4, 4]), np.array([0, len(rows)]), rows, tfs)

    def test_postings_out_of_row_order_load(self):
        # Each term's postings are stored in row order, whatever order the
        # chunk's term ids come in.
        ix = _build([[0, 0, 1, 1], [1, 1, 1, 0]], 2)
        assert _pairs(ix, 0) == [(0, 2), (1, 1)]

    @pytest.mark.parametrize("tf", [0, -1, 1.5, 2.0, "2", True, None])
    def test_tf_that_is_not_a_positive_int_rejected(self, tf):
        # A tf below 1 names its term; a tfs array of float, str, bool or
        # object dtype is refused as a whole, by name.
        with pytest.raises(ValueError, match="term 0|tfs must be a 1-d integer array"):
            InvertedIndex(np.array([4]), np.array([0, 1]), np.array([0]), np.array([tf]))

    def test_posting_on_a_chunk_of_length_0_rejected(self):
        # Its impact would divide by a norm built from avgdl, which is 0 when
        # every chunk is empty.
        with pytest.raises(ValueError, match="term 0 name row 0, a chunk of length 0"):
            InvertedIndex(np.array([0, 4]), np.array([0, 2]), np.array([0, 1]), np.array([1, 1]))

    def test_chunks_of_length_0_without_postings_score_0(self):
        ix = InvertedIndex(np.array([0, 0]), np.array([0, 0]), EMPTY, EMPTY)
        assert ix.avgdl == 0.0
        scores, touched = score_rows(ix, BM25Params(), [0])
        assert scores.tolist() == [0.0, 0.0] and not touched.any()

    @pytest.mark.parametrize("k1", [-1.0, math.nan, math.inf])
    def test_k1_that_is_not_finite_and_nonnegative_rejected(self, k1):
        with pytest.raises(ValueError, match="k1 must be finite and >= 0"):
            BM25Params(k1=k1)

    def test_term_with_no_postings_has_df_zero(self):
        ix = InvertedIndex(np.array([4]), np.array([0, 0, 0]), EMPTY, EMPTY)
        assert _pairs(ix, 0) == []
        assert idf(ix, 0) == idf(ix, 1)


class TestIdf:
    def test_df_one_of_three(self):
        assert idf(_hand_index(), 0) == pytest.approx(math.log(8.0 / 3.0), abs=1e-12)

    def test_df_equals_n(self):
        assert idf(_hand_index(), 1) == pytest.approx(math.log(1 + 0.5 / 3.5), abs=1e-12)

    def test_unseen_term_df_zero_finite(self):
        ix = _hand_index()
        assert idf(ix, 3) == pytest.approx(math.log(1 + 3.5 / 0.5), abs=1e-12)

    def test_idf_weights_cover_every_term_bitwise(self):
        # One weight per term id, held by a chunk or not (term 3).
        ix = _hand_index()
        assert ix.idfs.dtype == np.float64 and len(ix.idfs) == 4
        assert all(ix.idfs[t] == idf(ix, t) for t in _terms(ix))

    def test_kept_idfs_are_idf_bitwise(self, synth_tokenizer, tmp_path):
        records = synthetic.make_corpus(400, seed=7, lexicon_size=300)
        chunks = [(r["id"] + "#0", r["text"]) for r in records]
        built = _index(chunks, synth_tokenizer)
        _save(built, tmp_path)
        reloaded = _reload(tmp_path, built.doc_len, synth_tokenizer.vocab_size())
        for ix in (built, reloaded):
            dfs = {len(ix.postings(t)[0]) for t in _terms(ix)}
            assert len(dfs) > 20 and max(dfs) > ix.N / 2 and 0 in dfs
            oracle = np.array([idf(ix, t) for t in _terms(ix)])
            assert ix.idfs.tobytes() == oracle.tobytes()

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
        score = bm25_score(_hand_index(), BM25Params(), [0], 0)
        assert score == pytest.approx(math.log(8.0 / 3.0) * 4.4 / 3.2, abs=1e-12)

    def test_no_matching_terms_scores_zero(self):
        assert bm25_score(_hand_index(), BM25Params(), [0], 1) == 0.0

    def test_b_zero_removes_length_dependence(self):
        ix = InvertedIndex(np.array([2, 40]), np.array([0, 2]), np.array([0, 1]), np.array([1, 1]))
        p = BM25Params(k1=1.2, b=0.0)
        assert bm25_score(ix, p, [0], 0) == bm25_score(ix, p, [0], 1)

    def test_duplicate_query_terms_counted_once(self):
        ix = _hand_index()
        p = BM25Params()
        assert bm25_score(ix, p, [0, 0, 0], 0) == bm25_score(ix, p, [0], 0)

    def test_unknown_chunk_rejected(self):
        # A row past the chunks is refused, and a negative one is not read
        # from the end.
        for row in (-1, 3):
            with pytest.raises(IndexError, match=f"^row out of range: {row}$"):
                bm25_score(_hand_index(), BM25Params(), [0], row)

    def test_tf_monotonicity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            tf = int(rng.integers(1, 20))
            dl = int(rng.integers(5, 100))
            other = int(rng.integers(5, 100))
            prev = None
            for bump in range(4):
                ix = InvertedIndex(
                    np.array([dl, other]),
                    np.array([0, 1]),
                    np.array([0]),
                    np.array([tf + bump]),
                )
                score = bm25_score(ix, BM25Params(), [0], 0)
                if prev is not None:
                    assert score >= prev
                prev = score


def _random_corpus(rng, n_chunks, model, vocab):
    chunks = []
    for i in range(n_chunks):
        words = rng.choice(vocab, size=rng.integers(4, 30))
        chunks.append((f"c{i:03d}", " ".join(words)))
    return chunks


class TestSearch:
    """The search of the sparse leg: ``score_rows``, then ``top_rows`` over
    ``touched_rows``."""

    def test_unique_term_ranks_first(self, word_model):
        chunks = [
            ("c0", "w1 w2 w3"),
            ("c1", "w9 w2 w3"),
            ("c2", "w4 w5 w6"),
        ]
        ix = _index(chunks, word_model)
        results = _ranked(ix, BM25Params(), word_model.encode("w9"), 3)
        assert results[0][0] == 1

    def test_matches_brute_force_exactly(self, word_model):
        vocab = np.array([f"w{i}" for i in range(30)])
        rng = np.random.default_rng(23)
        p = BM25Params()
        for trial in range(5):
            chunks = _random_corpus(rng, 60, word_model, vocab)
            ix = _index(chunks, word_model)
            query = " ".join(rng.choice(vocab, size=4))
            terms = word_model.encode(query)
            got = _ranked(ix, p, terms, 10)
            brute = sorted(
                (
                    (row, bm25_score(ix, p, terms, row))
                    for row in range(len(chunks))
                    if bm25_score(ix, p, terms, row) > 0.0
                ),
                key=lambda kv: (-kv[1], kv[0]),
            )[:10]
            assert got == brute  # rows and bitwise-equal scores

    def test_k_larger_than_candidates_returns_all(self, word_model):
        chunks = [("c0", "w1 w2"), ("c1", "w3 w4")]
        ix = _index(chunks, word_model)
        assert len(_ranked(ix, BM25Params(), word_model.encode("w1"), 50)) == 1

    def test_prefix_property(self, word_model):
        vocab = np.array([f"w{i}" for i in range(30)])
        rng = np.random.default_rng(29)
        chunks = _random_corpus(rng, 40, word_model, vocab)
        ix = _index(chunks, word_model)
        p = BM25Params()
        terms = word_model.encode("w1 w2 w3")
        for k in (1, 3, 7):
            small = _ranked(ix, p, terms, k)
            bigger = _ranked(ix, p, terms, k + 1)
            assert bigger[:k] == small

    @pytest.mark.parametrize("bad", [-1, 4, 2**40])
    def test_id_outside_the_terms_rejected(self, bad):
        # Term j is vocab id j; an id past the vocabulary is refused, and a
        # negative one is not read from the end.
        ix, p = _hand_index(), BM25Params()
        calls = (
            lambda: bm25_score(ix, p, [bad, 0], 0),
            lambda: score_rows(ix, p, [bad]),
            lambda: ix.postings(bad),
            lambda: idf(ix, bad),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"^term id out of range: {bad}$"):
                call()

    def test_unheld_ids_have_no_postings(self, word_model):
        # A word of a fresh symbol is <unk>, and a word of known symbols
        # that no chunk holds is its own pieces: neither scores a chunk.
        ix = _index([("c0", "w1 w2")], word_model)
        fresh = word_model.encode("w9 ਙ")
        assert word_model.unk_id in fresh
        for term in fresh:
            assert _pairs(ix, term) == []
        scores, touched = score_rows(ix, BM25Params(), fresh)
        assert scores.tolist() == [0.0] and not touched.any()
        assert _ranked(ix, BM25Params(), fresh, 3) == []

    def test_scores_nonnegative(self, word_model):
        vocab = np.array([f"w{i}" for i in range(30)])
        rng = np.random.default_rng(31)
        chunks = _random_corpus(rng, 40, word_model, vocab)
        ix = _index(chunks, word_model)
        for _ in range(10):
            terms = word_model.encode(" ".join(rng.choice(vocab, size=3)))
            for _, score in _ranked(ix, BM25Params(), terms, 20):
                assert score >= 0.0


class TestImpacts:
    @pytest.mark.parametrize("k1", [0.0, 1.2, 2.0])
    @pytest.mark.parametrize("b", [0.0, 0.75, 1.0])
    def test_score_rows_matches_reference_bytes(self, word_model, tmp_path, k1, b):
        vocab = np.array([f"w{i}" for i in range(30)])
        rng = np.random.default_rng(47)
        chunks = _random_corpus(rng, 80, word_model, vocab)
        built = _index(chunks, word_model)
        _save(built, tmp_path)
        reloaded = _reload(tmp_path, built.doc_len, word_model.vocab_size())
        p = BM25Params(k1=k1, b=b)
        for ix in (built, reloaded):
            for _ in range(20):
                words = list(rng.choice(vocab, size=int(rng.integers(1, 8))))
                # Repeated words, a word of unseen symbols and a term that
                # no chunk holds.
                text = " ".join(words + words[:2] + ["zz9"])
                terms = word_model.encode(text) + [word_model.vocab["<pad>"]]
                scores, touched = score_rows(ix, p, terms)
                want_scores, want_touched = _reference_score_rows(ix, p, terms)
                assert scores.tobytes() == want_scores.tobytes()
                assert np.array_equal(touched, want_touched)
                assert touched.any()

    def test_each_impact_is_its_terms_bm25_score(self):
        p = BM25Params(k1=1.5, b=0.5)
        for ix in (_hand_index(), _mixed_index()):
            impacts, dense = ix.impacts(p)
            assert impacts.dtype == np.float64
            # Only the sparsely scored terms' impacts: a frequent term's are
            # in its dense row alone.
            sparse = [term for term in _terms(ix) if not _is_dense(ix, term)]
            assert len(impacts) == sum(len(ix.postings(term)[0]) for term in sparse)
            for term in _terms(ix):
                lo, hi, slot, at = ix._spans[term]
                rows = ix.rows[lo:hi].tolist()
                got = dense[slot, rows] if slot >= 0 else impacts[at : at + hi - lo]
                for row, impact in zip(rows, got.tolist()):
                    assert impact == bm25_score(ix, p, [term], row) > 0.0

    def test_dense_rows_spread_each_frequent_terms_impacts(self):
        ix = _mixed_index()
        p = BM25Params()
        impacts, dense = ix.impacts(p)
        assert dense.shape == (2, ix.N) and dense.dtype == np.float64
        assert len(impacts) == 2  # the postings of terms 0 and 2
        for row, term in zip(dense, [1, 3]):
            rows, _ = ix.postings(term)
            want = np.zeros(ix.N)
            want[rows] = [bm25_score(ix, p, [term], r) for r in rows]
            assert row.tobytes() == want.tobytes()

    def test_impacts_are_kept_per_params(self):
        # One entry, for the last params: equal params reuse it, and other
        # params compute and keep their own in its place.
        ix = _hand_index()
        first = ix.impacts(BM25Params())
        assert ix.impacts(BM25Params(k1=1.2, b=0.75)) is first
        assert ix._impacts == (BM25Params(), first)
        other = ix.impacts(BM25Params(k1=2.0))
        assert other is not first
        assert other.dense.tobytes() != first.dense.tobytes()
        assert ix._impacts[0] == BM25Params(k1=2.0) and ix._impacts[1] is other
        again = ix.impacts(BM25Params())
        assert again is not first and again.dense.tobytes() == first.dense.tobytes()

    def test_impacts_scratch_does_not_grow_with_the_index(self):
        rng = np.random.default_rng(53)
        n_terms = 64
        # Every odd term is in about half the chunks and has a dense row;
        # every even one is in about a tenth and is scored sparsely.
        density = np.where(np.arange(n_terms) % 2, 0.5, 0.1)[:, None]
        for n_rows in (4_000, 12_000):
            # Row-major nonzeros: rows increase within each term.
            term_of, rows = np.nonzero(rng.random((n_terms, n_rows)) < density)
            ix = InvertedIndex(
                rng.integers(1, 50, n_rows),
                np.searchsorted(term_of, np.arange(n_terms + 1)),
                rows,
                rng.integers(1, 5, len(rows)),
            )
            assert len(rows) > 2 * IMPACT_BLOCK
            tracemalloc.start()
            try:
                impacts, dense = ix.impacts(BM25Params())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # Those rows and the sparse terms' impacts are kept, the result.
            sparse_postings = np.count_nonzero(term_of % 2 == 0)
            assert dense.shape == (n_terms // 2, n_rows)
            assert impacts.shape == (sparse_postings,)
            assert dense.nbytes <= DENSE_DF * 8 * (len(rows) - sparse_postings)
            # Beyond the result, a few IMPACT_BLOCK-long arrays: no array as
            # long as the postings.
            assert peak - impacts.nbytes - dense.nbytes <= 12 * 8 * IMPACT_BLOCK, n_rows


def _assert_bm25_bytes(ix, p, terms):
    """``score_rows`` against ``bm25_score`` of every chunk, byte for byte."""
    scores, touched = score_rows(ix, p, terms)
    want = np.array([bm25_score(ix, p, terms, row) for row in range(ix.N)])
    assert scores.tobytes() == want.tobytes()
    assert np.array_equal(touched, want > 0.0)


def _random_index(rng, n_chunks, dfs):
    """An index whose term j is in ``dfs[j]`` random chunks, with random
    tfs, then a filler term (``len(dfs)``) in every other chunk, then a term
    (``len(dfs) + 1``) in none. Each chunk is one longer than its tfs add
    up to, so none has length 0."""
    term_rows = [np.sort(rng.choice(n_chunks, df, False)) for df in dfs]
    term_rows += [np.arange(0, n_chunks, 2), EMPTY]
    rows = np.concatenate(term_rows)
    tfs = rng.integers(1, 4, len(rows))
    doc_len = 1 + np.bincount(rows, weights=tfs, minlength=n_chunks).astype(np.int64)
    offsets = np.cumsum([0, *map(len, term_rows)])
    return InvertedIndex(doc_len, offsets, rows, tfs)


def _is_dense(ix, term):
    return ix._spans[term][2] >= 0


class TestDenseRows:
    """``score_rows`` with frequent terms scored from dense rows equals
    ``bm25_score`` bitwise, however the query mixes them."""

    @pytest.mark.parametrize("n_chunks", [40, 41, 43])
    def test_df_at_and_just_below_the_threshold(self, n_chunks):
        rng = np.random.default_rng(n_chunks)
        at = -(-n_chunks // DENSE_DF)  # the least df with df * DENSE_DF >= N
        ix = _random_index(rng, n_chunks, [at, at - 1, 1])
        assert _is_dense(ix, 0) and not _is_dense(ix, 1)
        assert not _is_dense(ix, 2)
        p = BM25Params(k1=1.3, b=0.6)
        for terms in ([0], [1], [1, 0, 2], [0, 1, 0, 3]):
            _assert_bm25_bytes(ix, p, terms)

    def test_every_term_frequent(self):
        rng = np.random.default_rng(5)
        n = 24
        ix = _random_index(rng, n, rng.integers(n // DENSE_DF, n + 1, 12))
        held = _terms(ix)[:-1]  # the last term is in no chunk
        assert all(_is_dense(ix, term) for term in held)
        assert ix.impacts(BM25Params()).dense.shape == (len(held), n)
        for _ in range(20):
            terms = list(rng.choice(held, int(rng.integers(1, 10))))
            _assert_bm25_bytes(ix, BM25Params(), terms)

    def test_no_term_frequent(self):
        rng = np.random.default_rng(6)
        n = 120
        ix = _random_index(rng, n, rng.integers(1, n // DENSE_DF, 15))
        dense_terms = [t for t in _terms(ix) if _is_dense(ix, t)]
        assert dense_terms == [15]  # the filler, in every other chunk
        terms = [t for t in _terms(ix) if t != 15]
        assert ix.impacts(BM25Params()).dense.shape == (1, n)
        for _ in range(20):
            _assert_bm25_bytes(ix, BM25Params(), list(rng.choice(terms, 6)))

    def test_queries_mixing_dense_sparse_repeated_and_unseen_terms(self):
        rng = np.random.default_rng(7)
        n = 60
        ix = _random_index(rng, n, [50, 2, 30, 5, 15, 1, 45, 9])
        unseen = 9  # in no chunk
        held = _terms(ix)[:unseen]
        dense = [t for t in held if _is_dense(ix, t)]
        sparse = [t for t in held if not _is_dense(ix, t)]
        assert len(dense) >= 3 and len(sparse) >= 3
        alternating = [t for pair in zip(dense, sparse) for t in pair]
        for terms in (
            alternating,
            alternating[::-1],
            dense + dense[:2] + sparse + sparse[:1],
            [unseen, *alternating, unseen],
            [unseen],
        ):
            for p in (BM25Params(), BM25Params(k1=0.0), BM25Params(k1=2.0, b=1.0)):
                _assert_bm25_bytes(ix, p, terms)

    def test_long_queries_with_words_in_no_chunk(self, small_engine):
        engine, bench, *_ = small_engine
        ix, p = engine.lexical_index, engine.config.bm25
        corpus_words = {w for rec in bench.records for w in rec["text"].split()}
        rng = np.random.default_rng(11)
        semantic = [q["text"] for q in bench.queries if q["kind"] == "semantic"]
        kinds = set()
        for text in semantic[:4]:
            words = text.split()
            fresh = [w for w in synthetic.gurmukhi_lexicon(rng, 8) if w not in corpus_words]
            for w in fresh:
                words.insert(int(rng.integers(len(words) + 1)), w)
            terms = engine.tokenizer.encode(" ".join(words))
            kinds.update(_is_dense(ix, t) if len(ix.postings(t)[0]) else None for t in terms)
            _assert_bm25_bytes(ix, p, terms)
        assert kinds == {True, False, None}


def _sorted_top(scores, rows, k):
    """``top_rows`` as a Python sort of the pool keyed on (-score, row)."""
    return [int(i) for i in sorted(rows, key=lambda i: (-scores[i], i))[:k]]


class TestTopRows:
    def test_matches_the_sorted_oracle(self):
        rng = np.random.default_rng(17)
        values = np.array([0.0, -0.0, 0.5, 1.0, np.nextafter(1.0, 2.0), 3.0, -2.0])
        for _ in range(300):
            n = int(rng.integers(1, 40))
            scores = rng.choice(values, n)
            rows = rng.permutation(n)[: int(rng.integers(0, n + 1))]
            for k in (1, 2, 5, len(rows), len(rows) + 3):
                if k >= 1:
                    assert top_rows(scores, rows, k) == _sorted_top(scores, rows, k)

    def test_every_row_path_matches_the_sorted_oracle(self):
        # ``rows`` of None partitions the scores themselves, with no gather.
        rng = np.random.default_rng(23)
        values = np.array([0.0, -0.0, 0.5, 1.0, np.nextafter(1.0, 2.0), 3.0, -2.0])
        for _ in range(300):
            n = int(rng.integers(1, 40))
            scores = rng.choice(values, n)
            for k in (1, 2, 5, n, n + 3):
                assert top_rows(scores, None, k) == _sorted_top(scores, range(n), k)

    def test_touched_rows_rank_as_the_touched_pool(self):
        # As from ``score_rows``: 0.0 exactly on the rows no term touched.
        rng = np.random.default_rng(29)
        pools = set()
        for _ in range(300):
            n = int(rng.integers(1, 40))
            scores = rng.choice([1.0, 2.0, 2.5, 4.0], n) * (rng.random(n) < rng.random())
            touched = scores > 0.0
            for k in (1, 2, 5, n, n + 3):
                pool = touched_rows(touched, k)
                pools.add(pool is None)
                want = _sorted_top(scores, np.flatnonzero(touched), k)
                assert top_rows(scores, pool, k) == want
        assert pools == {True, False}

    def test_negative_zero_ties_positive_zero(self):
        rows = np.array([1, 2, 0])
        for scores in ([0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]):
            scores = np.array(scores)
            assert top_rows(scores, rows, 3) == [0, 1, 2]
            assert top_rows(scores, rows, 1) == [0]

    def test_k_at_least_the_pool_returns_it_all_in_order(self):
        scores = np.array([1.0, 2.0, 1.0, 2.0])
        rows = np.array([3, 2, 1, 0])
        for k in (4, 9):
            assert top_rows(scores, rows, k) == [1, 3, 0, 2]

    def test_empty_pool(self):
        empty = np.flatnonzero(np.zeros(2, dtype=bool))
        assert top_rows(np.ones(2), empty, 5) == []

    def test_rrf_ranking_matches_the_sorted_oracle(self):
        # The candidates' rows are distinct but neither contiguous nor in
        # candidate order.
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            rows = rng.choice(1000, n, replace=False)
            sparse = rng.choice([0.0, 1.0, 2.0, 4.0], n)
            dense = rng.choice([-0.5, -0.0, 0.0, 0.25, 0.75], n)
            cfg = FusionConfig(mode="rrf", k_final=int(rng.integers(1, n + 3)))
            got = [(int(rows[i]), fused) for i, fused in rank_candidates(rows, sparse, dense, cfg)]
            sparse_of = dict(zip(rows.tolist(), sparse))
            dense_of = dict(zip(rows.tolist(), dense))
            lists = [
                _sorted_top(sparse_of, rows[sparse > 0], n),
                _sorted_top(dense_of, rows, n),
            ]
            fused = fuse_rrf(lists, cfg.rrf_k)
            want = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))[: cfg.k_final]
            assert got == want

    def test_search_exact_ranking_matches_the_sorted_oracle(self):
        rng = np.random.default_rng(23)
        basis = rng.normal(size=(4, 6))
        basis /= np.linalg.norm(basis, axis=1, keepdims=True)
        # Four distinct vectors over 30 rows: every score ties with others.
        ix = VectorIndex(basis[rng.integers(0, 4, 30)])
        for _ in range(10):
            q = rng.normal(size=6)
            scores = ix.scan(q)
            for k in (1, 7, 30, 40):
                # The dense leg's top k, as ``retrieve`` ranks the scan.
                assert top_rows(scores, None, k) == _sorted_top(scores, range(30), k)


def test_lexical_imports_only_numpy_and_the_stdlib():
    """``lexical`` stands alone: no index or tokenizer module, nothing beyond
    numpy, the standard library and ``qrag._npy``, the array file format."""
    tree = ast.parse(Path(qrag.lexical.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1 and node.module is None, f"import from {node.module!r}"
            assert [alias.name for alias in node.names] == ["_npy"]
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert imported - {"numpy"} <= set(sys.stdlib_module_names)


class TestPersistence:
    def test_round_trip_bitwise_scores(self, word_model, tmp_path):
        vocab = np.array([f"w{i}" for i in range(30)])
        rng = np.random.default_rng(37)
        chunks = _random_corpus(rng, 50, word_model, vocab)
        ix = _index(chunks, word_model)
        _save(ix, tmp_path)
        reloaded = _reload(tmp_path, ix.doc_len, word_model.vocab_size())
        assert reloaded.N == ix.N
        assert reloaded.avgdl == ix.avgdl
        for name in ("doc_len", "offsets", "rows", "tfs"):
            got, want = getattr(reloaded, name), getattr(ix, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        p = BM25Params()
        for _ in range(10):
            query = " ".join(rng.choice(vocab, size=4))
            terms = word_model.encode(query)
            assert _ranked(reloaded, p, terms, 10) == _ranked(ix, p, terms, 10)

    def test_score_rows_matches_individual_scores(self, word_model):
        vocab = np.array([f"w{i}" for i in range(30)])
        rng = np.random.default_rng(41)
        chunks = _random_corpus(rng, 50, word_model, vocab)
        ix = _index(chunks, word_model)
        p = BM25Params()
        terms = word_model.encode("w1 w5 w9")
        scores, touched = score_rows(ix, p, terms)
        assert touched.any()
        for i in range(ix.N):
            assert scores[i] == bm25_score(ix, p, terms, i)
            assert touched[i] == (scores[i] > 0.0)

    def test_load_then_save_is_byte_identical(self, word_model, tmp_path):
        vocab = np.array([f"w{i}" for i in range(30)])
        chunks = _random_corpus(np.random.default_rng(43), 50, word_model, vocab)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        built = _index(chunks, word_model)
        _save(built, tmp_path / "a")
        _save(_reload(tmp_path / "a", built.doc_len, word_model.vocab_size()), tmp_path / "b")
        assert (tmp_path / "b" / LEXICAL_FILE).read_bytes() == (
            tmp_path / "a" / LEXICAL_FILE
        ).read_bytes()

    @pytest.mark.parametrize("tf, width", [(1, "|u1"), (255, "|u1"), (256, "<u2")])
    def test_tfs_stored_in_the_narrowest_width(self, tmp_path, tf, width):
        one = np.array([0, 1])
        _save(InvertedIndex(np.array([tf]), one, one[:1], np.array([tf])), tmp_path)
        with (tmp_path / LEXICAL_FILE).open("rb") as fh:
            arrays = [np.lib.format.read_array(fh) for _ in range(3)]
        assert [a.dtype.str for a in arrays] == ["<i8", "|u1", width]
        assert arrays[2].tolist() == [tf]
        reloaded = _reload(tmp_path, [tf], 1)
        assert _pairs(reloaded, 0) == [(0, tf)]
        # The rows and the tfs are held as stored.
        assert (reloaded.rows.dtype.str, reloaded.tfs.dtype.str) == ("|u1", width)

    @pytest.mark.parametrize(
        "n, width",
        [(1, "|u1"), (256, "|u1"), (257, "<u2"), (65_536, "<u2"), (70_000, "<u4")],
    )
    def test_rows_stored_in_the_narrowest_width(self, tmp_path, n, width):
        # One term on the first and the last of n chunks.
        rows = np.unique(np.array([0, n - 1], dtype="<i4"))
        tfs = np.ones(len(rows), np.uint8)
        ix = InvertedIndex(np.ones(n, "<i4"), np.array([0, len(rows)]), rows, tfs)
        _save(ix, tmp_path)
        with (tmp_path / LEXICAL_FILE).open("rb") as fh:
            arrays = [np.lib.format.read_array(fh) for _ in range(3)]
        assert (arrays[1].dtype.str, arrays[1].tolist()) == (width, rows.tolist())
        reloaded = _reload(tmp_path, ix.doc_len, 1)
        # Held as stored, as the index built from <i4 rows holds them too.
        assert reloaded.rows.dtype.str == ix.rows.dtype.str == width
        assert np.array_equal(reloaded.rows, ix.rows)

    def test_scores_of_a_loaded_index_with_uint16_rows_match_bm25_score(
        self, word_model, tmp_path
    ):
        vocab = np.array([f"w{i}" for i in range(40)])
        rng = np.random.default_rng(47)
        chunks = _random_corpus(rng, 300, word_model, vocab)
        built = _index(chunks, word_model)
        _save(built, tmp_path)
        with (tmp_path / LEXICAL_FILE).open("rb") as fh:
            assert [np.lib.format.read_array(fh) for _ in range(3)][1].dtype.str == "<u2"
        ix = _reload(tmp_path, built.doc_len, word_model.vocab_size())
        p = BM25Params()
        for _ in range(5):
            terms = word_model.encode(" ".join(rng.choice(vocab, size=6)))
            scores, _ = score_rows(ix, p, terms)
            assert scores.tolist() == [bm25_score(ix, p, terms, row) for row in range(ix.N)]

    def test_load_keeps_no_per_posting_objects(self, synth_tokenizer, tmp_path):
        records = synthetic.make_corpus(3000, seed=5, lexicon_size=400)
        chunks = [(r["id"] + "#0", r["text"]) for r in records]
        built = _index(chunks, synth_tokenizer)
        _save(built, tmp_path)
        arrays = list(_arrays((tmp_path / LEXICAL_FILE).read_bytes(), synth_tokenizer.vocab_size()))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ix = parse(iter(arrays), built.doc_len)
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
    """``lexical.npy`` for one term, term 0, with one posting of tf 3, on
    chunk 0, with any of the three arrays replaced by keyword. A chunk's
    length is no part of the file: ``_reload`` takes them, [4] for one chunk
    of length 4."""
    default = {
        "offsets": np.array([0, 1], dtype="<i8"),
        "rows": np.array([0], dtype="<i4"),
        "tfs": np.array([3], dtype=np.uint8),
    }
    default.update(arrays)
    with (out_dir / LEXICAL_FILE).open("wb") as fh:
        for arr in default.values():
            np.lib.format.write_array(fh, np.asarray(arr), allow_pickle=True)


class TestLoadValidation:
    def test_valid_file_loads(self, tmp_path):
        _write_lexical_file(tmp_path)
        assert _pairs(_reload(tmp_path, [4], 1), 0) == [(0, 3)]

    def test_posting_for_unknown_chunk_names_term_and_chunk(self, tmp_path):
        # Row 1 of a one-chunk index names no chunk.
        _write_lexical_file(tmp_path, rows=np.array([1], dtype="<i4"))
        with pytest.raises(ValueError, match=r"^postings for term 0 name a row outside 0\.\.0$"):
            _reload(tmp_path, [4], 1)

    @pytest.mark.parametrize("dtype", ["<i8", "<u8"])
    def test_a_row_beyond_int32_is_refused_not_wrapped(self, tmp_path, dtype):
        # 2**32 would wrap to row 0 as <i4.
        _write_lexical_file(tmp_path, rows=np.array([2**32], dtype=dtype))
        with pytest.raises(ValueError, match=r"term 0 name a row outside 0\.\.0"):
            _reload(tmp_path, [4], 1)

    @pytest.mark.parametrize(
        "tf, match",
        [
            pytest.param(0, "term 0", id="0"),
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
            _reload(tmp_path, [4], 1)

    def test_duplicate_posting_names_term_and_chunk(self, tmp_path):
        _write_lexical_file(
            tmp_path,
            offsets=np.array([0, 2], dtype="<i8"),
            rows=np.array([0, 0], dtype="<i4"),
            tfs=np.array([1, 2], dtype=np.uint8),
        )
        with pytest.raises(ValueError, match="^postings for term 0 name row 0 twice$"):
            _reload(tmp_path, [4, 4], 1)

    def test_rows_out_of_order_name_term(self, tmp_path):
        _write_lexical_file(
            tmp_path,
            offsets=np.array([0, 1, 3], dtype="<i8"),
            rows=np.array([1, 1, 0], dtype="<i4"),
            tfs=np.array([1, 1, 1], dtype=np.uint8),
        )
        with pytest.raises(ValueError, match="term 1 are not in increasing row order"):
            _reload(tmp_path, [4, 4], 2)

    def test_rows_may_restart_at_each_term(self, tmp_path):
        _write_lexical_file(
            tmp_path,
            offsets=np.array([0, 2, 2, 3], dtype="<i8"),
            rows=np.array([0, 1, 0], dtype="<i4"),
            tfs=np.array([1, 2, 3], dtype=np.uint8),
        )
        ix = _reload(tmp_path, [4, 4], 3)
        assert [_pairs(ix, t) for t in range(3)] == [[(0, 1), (1, 2)], [], [(0, 3)]]

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
        # ``terms`` names the vocabulary the offsets are read for.
        _write_lexical_file(tmp_path, offsets=np.array(offsets, dtype="<i8"))
        match = (
            "offsets must (run from 0 to the posting count 1|not decrease)"
            "|offsets has 1 entries for a vocabulary of 1"
            "|rows has 1 entries for offsets ending at [02]"
        )
        with pytest.raises(ValueError, match=match):
            _reload(tmp_path, [4], len(terms))

    @pytest.mark.parametrize("term_count", [0, 2, 2500])
    def test_offsets_that_do_not_fit_the_vocab_rejected(self, tmp_path, term_count):
        # One offset per vocab id, and one more: term j is vocab id j.
        _write_lexical_file(tmp_path)
        match = (
            f"^offsets has 2 entries for a vocabulary of {term_count} "
            rf"\(vocab size \+ 1 = {term_count + 1}\)$"
        )
        with pytest.raises(ValueError, match=match):
            _reload(tmp_path, [4], term_count)

    def test_an_index_of_the_earlier_layout_rejected(self, tmp_path):
        # Up to format 9 the file began with the chunk lengths, and before
        # term j was vocab id j a terms array of JSON bytes came next: in
        # either layout the lengths are read as the offsets, and refused by
        # their count.
        terms = np.frombuffer(b'["t"]', dtype=np.uint8)
        for layout in (([4], [0, 1], [0], [3]), ([4], terms, [0, 1], [0], [3])):
            with (tmp_path / LEXICAL_FILE).open("wb") as fh:
                for arr in layout:
                    np.lib.format.write_array(fh, np.asarray(arr))
            match = (
                r"^offsets has 1 entries for a vocabulary of 1 \(vocab size \+ 1 = 2\)$"
            )
            with pytest.raises(ValueError, match=match):
                _reload(tmp_path, [4], 1)

    def test_tfs_must_match_rows(self, tmp_path):
        _write_lexical_file(tmp_path, tfs=np.array([3, 3], dtype=np.uint8))
        match = "^tfs has 2 entries for offsets ending at 1$"
        with pytest.raises(ValueError, match=match):
            _reload(tmp_path, [4], 1)

    def test_posting_on_a_chunk_of_length_0_names_term_and_chunk(self, tmp_path):
        _write_lexical_file(tmp_path)
        with pytest.raises(ValueError, match="term 0 name row 0, a chunk of length 0"):
            _reload(tmp_path, [0], 1)

    def test_negative_doc_len_rejected(self, tmp_path):
        _write_lexical_file(tmp_path)
        with pytest.raises(ValueError, match="doc_len must be >= 0"):
            _reload(tmp_path, [-1], 1)

    @pytest.mark.parametrize("name", ["doc_len", "offsets", "rows", "tfs"])
    def test_non_integer_or_2d_array_named(self, tmp_path, name):
        good = {
            "doc_len": [4], "offsets": [0, 1], "rows": [0], "tfs": [3]
        }[name]
        for bad in (np.array(good, dtype=np.float64), np.array([good])):
            # The chunk lengths come from the chunk table, not the file.
            _write_lexical_file(tmp_path, **({} if name == "doc_len" else {name: bad}))
            with pytest.raises(ValueError, match=f"{name} must be a 1-d integer array"):
                _reload(tmp_path, bad if name == "doc_len" else [4], 1)

    def test_object_array_refused_without_unpickling(self, tmp_path):
        _write_lexical_file(tmp_path, offsets=np.array([0, 1], dtype=object))
        match = r"^offsets must be a 1-d integer array, got \|O of shape \(2,\)$"
        with pytest.raises(ValueError, match=match):
            _reload(tmp_path, [4], 1)

    def test_truncated_or_padded_file_rejected(self, tmp_path):
        _write_lexical_file(tmp_path)
        path = tmp_path / LEXICAL_FILE
        whole = path.read_bytes()
        for damaged, match in ((whole[:-1], "cut short"), (whole + b"\0", "trailing")):
            path.write_bytes(damaged)
            with pytest.raises(ValueError, match=match):
                _reload(tmp_path, [4], 1)
