import math
import tracemalloc

import numpy as np
import pytest

from qrag import synthetic
from qrag.lexical import top_rows
from qrag.semantic import (
    ROW_BLOCK_ROWS,
    SCAN_BLOCK_ROWS,
    VECTORS_FILE,
    EmbedderSpec,
    TokenTable,
    VectorIndex,
    _column_dots,
    _fnv1a64,
    cosine,
    embed,
    parse,
    save,
    token_matrix,
    token_vectors,
)
from qrag.tokenizer import train_bpe

SPEC = EmbedderSpec(dim=256)

_MASK64 = (1 << 64) - 1


def _scalar_fnv1a64(data):
    """The reference FNV-1a: one step per byte, in Python ints."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def _scalar_token_vector(token, dim):
    """The reference: one SplitMix64 step per output, in Python ints."""
    state = _scalar_fnv1a64(token.encode("utf-8"))
    values = np.empty(dim, dtype=np.float64)
    for i in range(dim):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        values[i] = ((z ^ (z >> 31)) >> 11) * (2.0**-53) * 2.0 - 1.0
    values /= math.sqrt(float(np.dot(values, values)))
    return values


@pytest.fixture(scope="module")
def benchmark_vocab():
    """The 2,500 tokens of the benchmark corpus's tokenizer."""
    spec = dict(n_docs=10000, n_lexical=4000, n_semantic=4000, seed=0, lexicon_size=1500)
    bench = synthetic.make_planted_benchmark(**spec, words_per_doc=(90, 120))
    return train_bpe([r["text"] for r in bench.records], 2500).tokens


class TestFnv1a:
    """The array FNV-1a that seeds each token vector equals the byte loop."""

    def test_every_benchmark_vocab_token(self, benchmark_vocab):
        assert len(benchmark_vocab) == 2500
        hashes = _fnv1a64(benchmark_vocab)
        assert hashes.dtype == np.uint64
        assert hashes.tolist() == [_scalar_fnv1a64(t.encode("utf-8")) for t in benchmark_vocab]

    def test_multi_byte_tokens_of_1_to_45_bytes(self):
        # Codepoints of 1 (ASCII), 2 (Latin-1), 3 (Gurmukhi) and 4 (astral)
        # UTF-8 bytes, mixed, in tokens of every length from 1 to 45 bytes.
        rng = np.random.default_rng(11)
        alphabet = ["a", "~", "é", "ß", "ਕ", "ੴ", "\u200d", "𝄞", "😀"]
        tokens = []
        while len(tokens) < 2000:
            token = "".join(rng.choice(alphabet, size=rng.integers(1, 16)))
            if len(token.encode("utf-8")) <= 45:
                tokens.append(token)
        assert {len(t.encode("utf-8")) for t in tokens} == set(range(1, 46))
        for batch in (tokens, tokens[:1], tokens[::-1][:54], [], ["", "a", ""]):
            assert _fnv1a64(batch).tolist() == [_scalar_fnv1a64(t.encode()) for t in batch]


class TestTokenVector:
    def test_deterministic(self):
        a = token_vectors(["ਸਤਿ"], 256)[0]
        b = token_vectors(["ਸਤਿ"], 256)[0]
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        for token in ["a", "ਨਾਮ", "longer-token", ""]:
            v = token_vectors([token], 64)[0]
            assert abs(float(np.dot(v, v)) - 1.0) < 1e-9

    def test_distinct_tokens_nearly_orthogonal(self):
        # Aggregate report: for dim=256 the cosine of random unit vectors
        # concentrates near 0; eight-sigma outliers do not occur in 1000
        # seeded pairs.
        rng = np.random.default_rng(42)
        cosines = []
        for i in range(1000):
            a = token_vectors([f"tok-a-{i}"], 256)[0]
            b = token_vectors([f"tok-b-{i}"], 256)[0]
            cosines.append(abs(cosine(a, b)))
        cosines = np.array(cosines)
        print(f"|cos| over 1000 token pairs: mean={cosines.mean():.4f} max={cosines.max():.4f}")
        assert cosines.max() < 0.5

    def test_dim_validated(self):
        with pytest.raises(ValueError):
            token_vectors(["x"], 1)

    @pytest.mark.parametrize("dim", [*range(2, 10), 127, 128, 129, 256, 300, 512])
    def test_array_stream_equals_the_scalar_loop_bitwise(self, dim):
        tokens = ["", "ab", "ਸਤਿ", "𝄞", "<unk>", "ਨ" * 300]
        got = token_vectors(tokens, dim)
        for token, row in zip(tokens, got, strict=True):
            assert row.tobytes() == _scalar_token_vector(token, dim).tobytes(), token

    def test_pinned_values(self):
        # Taken from the scalar loop, so a drift shared by both
        # implementations fails here.
        assert [float(x).hex() for x in token_vectors(["ਸਤਿ"], 256)[0][:4]] == [
            "0x1.de7d5913efd9cp-7",
            "-0x1.39786363f4001p-7",
            "0x1.65edf21e97a20p-4",
            "0x1.5bec46d46e3bbp-4",
        ]


class TestEmbed:
    def test_single_token_equals_its_vector(self):
        v = embed([0], TokenTable(["ਸਤਿ"], [1.0], 256))
        assert np.array_equal(v, token_vectors(["ਸਤਿ"], 256)[0])

    def test_repeated_token_same_direction(self):
        table = TokenTable(["ਸਤਿ"], [1.0], 256)
        one = embed([0], table)
        two = embed([0, 0], table)
        assert np.allclose(one, two, atol=1e-12)

    def test_idf_weights_change_direction(self):
        unweighted = embed([0, 1], TokenTable(["a", "b"], [1.0, 1.0], 256))
        weighted = embed([0, 1], TokenTable(["a", "b"], [10.0, 0.1], 256))
        assert cosine(weighted, token_vectors(["a"], 256)[0]) > cosine(
            unweighted, token_vectors(["a"], 256)[0]
        )

    @pytest.mark.parametrize("weights", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]])
    def test_one_weight_per_token(self, weights):
        with pytest.raises(ValueError, match="weights for 2 tokens"):
            TokenTable(["a", "b"], weights, 8)

    def test_all_zero_weights_degenerate(self):
        with pytest.raises(ValueError, match="degenerate_embedding"):
            embed([0, 1], TokenTable(["a", "b"], [0.0, 0.0], 256))

    def test_empty_tokens_rejected(self):
        with pytest.raises(ValueError, match="empty token list"):
            embed([], TokenTable(["a"], [1.0], 256))

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_id_outside_the_table_rejected(self, bad):
        with pytest.raises(ValueError, match="token id out of range"):
            embed([0, bad], TokenTable(["a", "b"], [1.0, 1.0], 8))

    def test_dim_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            EmbedderSpec(dim=100)

    @pytest.mark.parametrize("dim", [256.0, "256", None, True])
    def test_dim_that_is_not_an_int_rejected(self, dim):
        with pytest.raises(ValueError, match="dim must be an int"):
            EmbedderSpec(dim=dim)

    def test_the_table_holds_its_weights_and_no_vectors(self):
        tokens = [f"t{i}" for i in range(10)]
        weights = [1.0, 1.0, 1.0, 2.5] + [1.0] * 6
        table = TokenTable(tokens, weights, 16)
        for start in range(0, 40, 4):
            embed([i % 10 for i in range(start, start + 7)], table)
        assert vars(table).keys() == {"tokens", "weights", "seeds", "dim"}
        assert table.tokens is tokens and table.dim == 16
        assert table.weights.shape == (10,) and table.weights.tolist() == weights
        # Each token hashed once, as the seed of its vector: 8 bytes a token.
        assert table.seeds.tolist() == [_scalar_fnv1a64(t.encode()) for t in tokens]

    def test_the_matrix_is_every_token_vector_block_by_block(self):
        # More tokens than a block, and a last block that is not full.
        tokens = [f"t{i}" for i in range(2 * ROW_BLOCK_ROWS + 37)]
        matrix = token_matrix(tokens, 16)
        assert matrix.shape == (len(tokens), 16) and matrix.dtype == np.float64
        assert matrix.tobytes() == token_vectors(tokens, 16).tobytes()

    def test_weights_are_count_times_idf_in_first_appearance_order(self):
        tokens = ["a", "b", "c"]
        v = embed([2, 0, 2, 1], TokenTable(tokens, [0.5, 1.0, 3.0], 32))
        vectors = token_vectors(["c", "a", "b"], 32)
        expected = np.array([2 * 3.0, 1 * 0.5, 1 * 1.0]) @ vectors
        assert v.tobytes() == (expected / math.sqrt(float(np.dot(expected, expected)))).tobytes()


class TestCosine:
    def test_identical(self):
        v = np.array([0.6, 0.8])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.6, 0.8])) == pytest.approx(
            0.6, abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            cosine(np.zeros(3), np.array([1.0, 0.0, 0.0]))

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            a = rng.standard_normal(16)
            b = rng.standard_normal(16)
            assert -1.0 <= cosine(a, b) <= 1.0


def _row_major_scan(ix, q):
    """The scan before the column-major kernel: per-row norms, and each row's
    dot product as ``(block * q).sum(axis=1)`` over a row-major matrix. The
    rows are cast to float64, as ``cosine`` casts them."""
    matrix = np.ascontiguousarray(ix.cols.T, dtype=np.float64)
    norms = np.array([math.sqrt(float(np.dot(r, r))) for r in matrix])
    qn = math.sqrt(float(np.dot(q, q)))
    scores = np.empty(len(matrix))
    for start in range(0, len(matrix), 1024):
        block = matrix[start : start + 1024]
        scores[start : start + len(block)] = (block * q).sum(axis=1)
    scores /= norms * qn
    return np.clip(scores, -1.0, 1.0, out=scores)


def _hand_vector_index():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]], dtype=np.float32)
    return VectorIndex(rows)


def _ranked(ix, q, k):
    """The dense leg's top ``k`` as ``retrieve`` ranks it, ``scan`` then
    ``top_rows``: (row, cosine) pairs by cosine descending, then row."""
    scores = ix.scan(q)
    return [(row, float(scores[row])) for row in top_rows(scores, None, k)]


class TestSearchExact:
    """The exact search of the dense leg: ``scan``, then ``top_rows``."""

    def test_hand_example(self):
        results = _ranked(_hand_vector_index(), np.array([1.0, 0.0]), 3)
        assert [row for row, _ in results] == [0, 2, 1]
        assert results[0][1] == pytest.approx(1.0, abs=1e-6)
        assert results[1][1] == pytest.approx(0.6, abs=1e-6)
        assert results[2][1] == pytest.approx(0.0, abs=1e-6)

    def test_indexed_row_self_match(self):
        ix = _hand_vector_index()
        results = _ranked(ix, ix.cols[:, 2], 1)
        assert results[0][0] == 2
        assert results[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_prefix_property(self):
        ix = _hand_vector_index()
        q = np.array([0.3, 0.7])
        assert _ranked(ix, q, 1) == _ranked(ix, q, 3)[:1]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            _hand_vector_index().scan(np.ones(3))

    def test_scan_bitwise_matches_pairwise_cosine(self):
        # Each branch of the pairwise sum (under 8 terms, up to 128, split)
        # and its edges; an empty index, one row, and below, at and across
        # the scan block size.
        rng = np.random.default_rng(17)
        dims = [*range(1, 10), 15, 16, 17, 127, 128, 129, 136, 255, 256, 257, 300, 512]
        for dim in dims:
            for n in (0, 1, 200, SCAN_BLOCK_ROWS, 2 * SCAN_BLOCK_ROWS + 7):
                if n:
                    vectors = rng.standard_normal((n, dim), dtype=np.float32)
                    ix = VectorIndex.build(n, vectors)
                    del vectors
                else:
                    ix = VectorIndex(np.zeros((0, dim), dtype=np.float32))
                q = rng.standard_normal(dim)
                scores = ix.scan(q)
                assert scores.shape == (n,)
                expected = np.array(
                    [
                        cosine(row, q)
                        for start in range(0, n, 1024)
                        for row in np.ascontiguousarray(ix.cols[:, start : start + 1024].T)
                    ],
                    dtype=np.float64,
                )
                assert scores.tobytes() == expected.tobytes(), (dim, n)

    @pytest.mark.parametrize("dim", [1, 7, 8, 9, 128, 129, 256, 300])
    def test_kernel_sums_negative_zeros_to_positive_zero(self, dim):
        cols = np.zeros((dim, 5))
        q = -np.ones(dim)
        got = _column_dots(cols, q, np.empty((8, 5)))
        expected = np.sum(cols[:, 0] * q)
        assert got.tobytes() == np.full(5, expected).tobytes()
        assert not np.signbit(expected)

    def test_scan_matches_row_major_reference(self, small_engine):
        engine, bench, *_ = small_engine
        ix = engine.vector_index
        for query in bench.queries:
            q = embed(engine.tokenizer.encode(query["text"]), engine.token_table)
            assert np.array_equal(ix.scan(q), _row_major_scan(ix, q))

    def test_ranking_matches_brute_force(self):
        rng = np.random.default_rng(19)
        vectors = [rng.standard_normal(16) for _ in range(100)]
        ix = VectorIndex.build(100, vectors)
        q = rng.standard_normal(16)
        got = _ranked(ix, q, 10)
        brute = sorted(
            ((i, cosine(ix.cols[:, i], q)) for i in range(100)),
            key=lambda kv: (-kv[1], kv[0]),
        )[:10]
        assert got == brute


class TestVectorIndexInvariants:
    def test_rows_unit_norm(self):
        rng = np.random.default_rng(21)
        ix = VectorIndex.build(2, [rng.standard_normal(8) * 9 for _ in range(2)])
        for row in ix.cols.T:
            assert abs(math.sqrt(float(np.dot(row, row))) - 1.0) < 1e-6

    def test_index_holds_one_float32_matrix(self):
        rng = np.random.default_rng(25)
        n, dim = 3000, 64
        vectors = rng.standard_normal((n, dim))
        tracemalloc.start()
        try:
            ix = VectorIndex.build(n, vectors)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ix) == n
        assert ix.cols.dtype == np.float32 and ix.cols.shape == (dim, n)
        assert ix.cols.flags.c_contiguous and ix.cols.nbytes == n * dim * 4
        # The (dim, N) columns and the N norms, plus a little slack.
        assert held <= 4 * dim * n + 8 * n + 64 * 1024

    def test_build_peak_is_a_row_block_beyond_the_index(self):
        rng = np.random.default_rng(31)
        n, dim = 8000, 64
        vectors = rng.standard_normal((n, dim))
        tracemalloc.start()
        try:
            ix = VectorIndex.build(n, vectors)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ix) == n
        # One float32 block of rows, its float64 cast for the norms and the
        # unit-norm check over N norms; a whole row-major matrix would add
        # 4 * dim * n.
        assert peak - held <= 12 * dim * ROW_BLOCK_ROWS + 3 * 8 * n + 64 * 1024 < 4 * dim * n

    def test_parse_peak_is_the_matrix_and_a_row_block(self, tmp_path):
        rng = np.random.default_rng(35)
        n, dim = 8000, 64
        ix = VectorIndex.build(n, rng.standard_normal((n, dim)))
        save(ix, tmp_path)
        data = (tmp_path / VECTORS_FILE).read_bytes()
        tracemalloc.start()
        try:
            parsed = parse(data, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parsed.cols.tobytes() == ix.cols.tobytes()
        # The float32 columns and the N norms that are kept, one float64 row
        # block of the norms and the unit-norm check over N norms.
        assert peak <= 4 * dim * n + 8 * n + 8 * dim * ROW_BLOCK_ROWS + 3 * 8 * n + 64 * 1024

    @pytest.mark.parametrize("n_vectors", [0, 1, 3])
    def test_vector_count_must_match_the_ids(self, n_vectors):
        vectors = np.random.default_rng(33).standard_normal((n_vectors, 4))
        with pytest.raises(ValueError, match=f"{n_vectors} vectors for 2 rows"):
            VectorIndex.build(2, vectors)

    def test_vectors_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match=r"vector 1 has shape \(1,\), expected \(4,\)"):
            VectorIndex.build(2, [np.ones(4), np.ones(1)])
        with pytest.raises(ValueError, match=r"vector 0 has shape \(1, 4\), expected \(4,\)"):
            VectorIndex.build(1, [np.ones((1, 4))])

    def test_scan_scratch_does_not_grow_with_the_index(self):
        rng = np.random.default_rng(27)
        dim = 136
        for n in (SCAN_BLOCK_ROWS, 2 * SCAN_BLOCK_ROWS + 5):
            ix = VectorIndex.build(n, rng.standard_normal((n, dim)))
            q = rng.standard_normal(dim)
            tracemalloc.start()
            try:
                scores = ix.scan(q)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # Beyond the N scores, a few (8, SCAN_BLOCK_ROWS) scratch arrays.
            assert peak - scores.nbytes <= 24 * 8 * SCAN_BLOCK_ROWS, n

    def test_non_unit_rows_rejected(self):
        with pytest.raises(ValueError, match="unit-norm"):
            VectorIndex(np.array([[3.0, 4.0]], dtype=np.float32))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_row_that_is_not_finite_is_not_unit_norm(self, value):
        # A NaN norm fails every comparison, so it is refused by one that
        # must hold, not let through by one that must fail.
        with pytest.raises(ValueError, match=r"rows not unit-norm: \[1\]"):
            VectorIndex(np.array([[0.6, 0.8], [value, 0.0]], dtype=np.float32))

    def test_degenerate_row_rejected(self):
        with pytest.raises(ValueError, match="degenerate_embedding"):
            VectorIndex.build(1, [np.zeros(4)])


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(23)
        ix = VectorIndex.build(20, [rng.standard_normal(16) for _ in range(20)])
        save(ix, tmp_path)
        reloaded = parse((tmp_path / VECTORS_FILE).read_bytes(), 20)
        assert len(reloaded) == len(ix) == 20
        assert reloaded.cols.dtype == ix.cols.dtype == np.float32
        assert np.array_equal(reloaded.cols, ix.cols)
        q = rng.standard_normal(16)
        assert _ranked(reloaded, q, 5) == _ranked(ix, q, 5)

    def test_save_writes_the_bytes_of_np_save_in_bounded_scratch(self, tmp_path):
        rng = np.random.default_rng(29)
        n, dim = 16 * ROW_BLOCK_ROWS + 3, 64
        ix = VectorIndex.build(n, rng.standard_normal((n, dim)))
        tracemalloc.start()
        try:
            save(ix, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        whole = np.ascontiguousarray(ix.cols.T, dtype="<f4")
        np.save(tmp_path / "whole.npy", whole)
        assert (tmp_path / VECTORS_FILE).read_bytes() == (tmp_path / "whole.npy").read_bytes()
        # A block of ROW_BLOCK_ROWS rows at a time: a sixteenth of the matrix,
        # which a whole copy would take.
        assert peak <= 2 * ROW_BLOCK_ROWS * dim * 4 + 64 * 1024 < whole.nbytes

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / VECTORS_FILE).write_bytes(b"NOTMAGIC" + b"\x00" * 12)
        with pytest.raises(ValueError, match=VECTORS_FILE):
            parse((tmp_path / VECTORS_FILE).read_bytes(), 1)

    @pytest.mark.parametrize(
        "matrix, match",
        [
            pytest.param(
                np.array([[1.0, 0.0]], dtype=np.float64),
                "vectors must be a 2-d <f4 array, got <f8 of shape \\(1, 2\\)$",
                id="float64",
            ),
            pytest.param(
                np.array([[1.0, 0.0]], dtype=">f4"),
                "vectors must be a 2-d <f4 array, got >f4 of shape \\(1, 2\\)$",
                id="big_endian_f4",
            ),
            pytest.param(
                np.array([1.0, 0.0], dtype="<f4"),
                "vectors must be a 2-d <f4 array, got <f4 of shape \\(2,\\)$",
                id="one_dimension",
            ),
            pytest.param(
                np.array([[1.0, 0.0], [0.0, 1.0]], dtype="<f4"),
                "vectors has 2 rows for 1 chunks",
                id="two_rows_for_one_chunk",
            ),
        ],
    )
    def test_wrong_dtype_or_shape_rejected(self, tmp_path, matrix, match):
        np.save(tmp_path / VECTORS_FILE, matrix)
        with pytest.raises(ValueError, match=f"{VECTORS_FILE}: {match}"):
            parse((tmp_path / VECTORS_FILE).read_bytes(), 1)

    def test_object_array_refused_without_unpickling(self, tmp_path):
        np.save(tmp_path / VECTORS_FILE, np.array([[1.0]], dtype=object), allow_pickle=True)
        match = rf"^{VECTORS_FILE}: vectors must be a 2-d <f4 array, got \|O of shape"
        with pytest.raises(ValueError, match=match):
            parse((tmp_path / VECTORS_FILE).read_bytes(), 1)
