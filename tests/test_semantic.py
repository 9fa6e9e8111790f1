import json
import math
import tracemalloc

import numpy as np
import pytest

from qrag.semantic import (
    SAVE_BLOCK_ROWS,
    SCAN_BLOCK_ROWS,
    VECTORS_FILE,
    EmbedderSpec,
    TokenTable,
    VectorIndex,
    _column_dots,
    _fnv1a64,
    cosine,
    embed,
    load,
    load_external_embeddings,
    save,
    search_exact,
    token_vector,
    token_vectors,
)

SPEC = EmbedderSpec(kind="hash_projection", dim=256)

_MASK64 = (1 << 64) - 1


def _scalar_token_vector(token, dim):
    """The reference: one SplitMix64 step per output, in Python ints."""
    state = _fnv1a64(token.encode("utf-8"))
    values = np.empty(dim, dtype=np.float64)
    for i in range(dim):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        values[i] = ((z ^ (z >> 31)) >> 11) * (2.0**-53) * 2.0 - 1.0
    values /= math.sqrt(float(np.dot(values, values)))
    return values


class TestTokenVector:
    def test_deterministic(self):
        a = token_vector("ਸਤਿ", 256)
        b = token_vector("ਸਤਿ", 256)
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        for token in ["a", "ਨਾਮ", "longer-token", ""]:
            v = token_vector(token, 64)
            assert abs(float(np.dot(v, v)) - 1.0) < 1e-9

    def test_distinct_tokens_nearly_orthogonal(self):
        # Aggregate report: for dim=256 the cosine of random unit vectors
        # concentrates near 0; eight-sigma outliers do not occur in 1000
        # seeded pairs.
        rng = np.random.default_rng(42)
        cosines = []
        for i in range(1000):
            a = token_vector(f"tok-a-{i}", 256)
            b = token_vector(f"tok-b-{i}", 256)
            cosines.append(abs(cosine(a, b)))
        cosines = np.array(cosines)
        print(f"|cos| over 1000 token pairs: mean={cosines.mean():.4f} max={cosines.max():.4f}")
        assert cosines.max() < 0.5

    def test_dim_validated(self):
        with pytest.raises(ValueError):
            token_vector("x", 1)

    @pytest.mark.parametrize("dim", [*range(2, 10), 127, 128, 129, 256, 300, 512])
    def test_array_stream_equals_the_scalar_loop_bitwise(self, dim):
        tokens = ["", "ab", "ਸਤਿ", "𝄞", "<unk>", "ਨ" * 300]
        got = token_vectors(tokens, dim)
        for token, row in zip(tokens, got, strict=True):
            assert row.tobytes() == _scalar_token_vector(token, dim).tobytes(), token

    def test_pinned_values(self):
        # Taken from the scalar loop, so a drift shared by both
        # implementations fails here.
        assert [float(x).hex() for x in token_vector("ਸਤਿ", 256)[:4]] == [
            "0x1.de7d5913efd9cp-7",
            "-0x1.39786363f4001p-7",
            "0x1.65edf21e97a20p-4",
            "0x1.5bec46d46e3bbp-4",
        ]


class TestEmbed:
    def test_single_token_equals_its_vector(self):
        v = embed([0], TokenTable(["ਸਤਿ"], {}, 256))
        assert np.array_equal(v, token_vector("ਸਤਿ", 256))

    def test_repeated_token_same_direction(self):
        table = TokenTable(["ਸਤਿ"], {}, 256)
        one = embed([0], table)
        two = embed([0, 0], table)
        assert np.allclose(one, two, atol=1e-12)

    def test_idf_weights_change_direction(self):
        unweighted = embed([0, 1], TokenTable(["a", "b"], {}, 256))
        weighted = embed([0, 1], TokenTable(["a", "b"], {"a": 10.0, "b": 0.1}, 256))
        assert cosine(weighted, token_vector("a", 256)) > cosine(
            unweighted, token_vector("a", 256)
        )

    def test_all_zero_weights_degenerate(self):
        with pytest.raises(ValueError, match="degenerate_embedding"):
            embed([0, 1], TokenTable(["a", "b"], {"a": 0.0, "b": 0.0}, 256))

    def test_empty_tokens_rejected(self):
        with pytest.raises(ValueError, match="empty token list"):
            embed([], TokenTable(["a"], {}, 256))

    def test_external_spec_cannot_embed_text(self):
        # An engine over an external_file embedder has no token table.
        with pytest.raises(ValueError, match="hash_projection"):
            embed([0], None)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_id_outside_the_table_rejected(self, bad):
        with pytest.raises(ValueError, match="token id out of range"):
            embed([0, bad], TokenTable(["a", "b"], {}, 8))

    def test_dim_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            EmbedderSpec(kind="hash_projection", dim=100)

    @pytest.mark.parametrize("dim", [256.0, "256", None, True])
    def test_dim_that_is_not_an_int_rejected(self, dim):
        with pytest.raises(ValueError, match="dim must be an int"):
            EmbedderSpec(dim=dim)

    def test_rows_fill_on_first_use_and_never_pass_the_vocabulary(self):
        tokens = [f"t{i}" for i in range(10)]
        table = TokenTable(tokens, {"t3": 2.5}, 16)
        assert table.rows.shape == (10, 16) and not table.filled.any()
        embed([3, 1, 3], table)
        assert np.flatnonzero(table.filled).tolist() == [1, 3]
        for start in range(0, 40, 4):
            embed([i % 10 for i in range(start, start + 7)], table)
        assert table.filled.sum() == len(tokens) == len(table.rows)
        assert table.rows.tobytes() == token_vectors(tokens, 16).tobytes()
        assert table.weights.tolist() == [1.0, 1.0, 1.0, 2.5] + [1.0] * 6

    def test_weights_are_count_times_idf_in_first_appearance_order(self):
        tokens = ["a", "b", "c"]
        idf = {"a": 0.5, "c": 3.0}
        v = embed([2, 0, 2, 1], TokenTable(tokens, idf, 32))
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
    dot product as ``(block * q).sum(axis=1)`` over a row-major matrix."""
    matrix = np.ascontiguousarray(ix.cols.T)
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
    return VectorIndex(["d1", "d2", "d3"], rows)


class TestSearchExact:
    def test_hand_example(self):
        results = search_exact(_hand_vector_index(), np.array([1.0, 0.0]), 3)
        assert [cid for cid, _ in results] == ["d1", "d3", "d2"]
        assert results[0][1] == pytest.approx(1.0, abs=1e-6)
        assert results[1][1] == pytest.approx(0.6, abs=1e-6)
        assert results[2][1] == pytest.approx(0.0, abs=1e-6)

    def test_indexed_row_self_match(self):
        ix = _hand_vector_index()
        results = search_exact(ix, ix.cols[:, 2], 1)
        assert results[0][0] == "d3"
        assert results[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_prefix_property(self):
        ix = _hand_vector_index()
        q = np.array([0.3, 0.7])
        assert search_exact(ix, q, 1) == search_exact(ix, q, 3)[:1]

    def test_empty_index_rejected(self):
        ix = VectorIndex([], np.zeros((0, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="empty index"):
            search_exact(ix, np.ones(4), 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            search_exact(_hand_vector_index(), np.ones(3), 1)

    def test_scan_bitwise_matches_pairwise_cosine(self):
        # Each branch of the pairwise sum (under 8 terms, up to 128, split)
        # and its edges; an empty index, one row, and below, at and across
        # the scan block size.
        rng = np.random.default_rng(17)
        dims = [*range(1, 10), 15, 16, 17, 127, 128, 129, 136, 255, 256, 257, 300, 512]
        for dim in dims:
            for n in (0, 1, 200, SCAN_BLOCK_ROWS, 2 * SCAN_BLOCK_ROWS + 7):
                ids = [f"c{i:04d}" for i in range(n)]
                if n:
                    vectors = rng.standard_normal((n, dim), dtype=np.float32)
                    ix = VectorIndex.build(ids, vectors)
                    del vectors
                else:
                    ix = VectorIndex([], np.zeros((0, dim), dtype=np.float32))
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
            q = embed(engine.tokenizer.encode(query["text"]).ids, engine.token_table)
            assert np.array_equal(ix.scan(q), _row_major_scan(ix, q))

    def test_ranking_matches_brute_force(self):
        rng = np.random.default_rng(19)
        vectors = [rng.standard_normal(16) for _ in range(100)]
        ids = [f"c{i:03d}" for i in range(100)]
        ix = VectorIndex.build(ids, vectors)
        q = rng.standard_normal(16)
        got = search_exact(ix, q, 10)
        brute = sorted(
            ((cid, cosine(ix.cols[:, i], q)) for i, cid in enumerate(ids)),
            key=lambda kv: (-kv[1], kv[0]),
        )[:10]
        assert got == brute


class TestVectorIndexInvariants:
    def test_rows_unit_norm(self):
        rng = np.random.default_rng(21)
        ix = VectorIndex.build(["a", "b"], [rng.standard_normal(8) * 9 for _ in range(2)])
        for row in ix.cols.T:
            assert abs(math.sqrt(float(np.dot(row, row))) - 1.0) < 1e-6

    def test_index_holds_one_float64_matrix(self):
        rng = np.random.default_rng(25)
        n, dim = 3000, 64
        vectors = rng.standard_normal((n, dim))
        ids = [f"c{i}" for i in range(n)]
        tracemalloc.start()
        try:
            ix = VectorIndex.build(ids, vectors)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ix) == n
        # The (dim, N) columns and the N norms, plus a little slack.
        assert held <= 8 * dim * n + 8 * n + 64 * 1024

    def test_build_peak_is_one_float32_matrix_beyond_the_index(self):
        rng = np.random.default_rng(31)
        n, dim = 8000, 64
        vectors = rng.standard_normal((n, dim))
        ids = [f"c{i}" for i in range(n)]
        tracemalloc.start()
        try:
            ix = VectorIndex.build(ids, vectors)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ix) == n
        # The float32 rows the index is made from, one 256-row float64 block
        # of the conversion and the unit-norm check over N norms; a list of
        # rows and its stack cost twice the rows.
        assert peak - held <= 4 * dim * n + 8 * dim * 256 + 3 * 8 * n + 64 * 1024

    @pytest.mark.parametrize("n_vectors", [0, 1, 3])
    def test_vector_count_must_match_the_ids(self, n_vectors):
        vectors = np.random.default_rng(33).standard_normal((n_vectors, 4))
        with pytest.raises(ValueError, match=f"{n_vectors} vectors for 2 ids"):
            VectorIndex.build(["a", "b"], vectors)

    def test_vectors_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match=r"vector 1 has shape \(1,\), expected \(4,\)"):
            VectorIndex.build(["a", "b"], [np.ones(4), np.ones(1)])
        with pytest.raises(ValueError, match=r"vector 0 has shape \(1, 4\), expected \(4,\)"):
            VectorIndex.build(["a"], [np.ones((1, 4))])

    def test_scan_scratch_does_not_grow_with_the_index(self):
        rng = np.random.default_rng(27)
        dim = 136
        for n in (SCAN_BLOCK_ROWS, 2 * SCAN_BLOCK_ROWS + 5):
            ix = VectorIndex.build([f"c{i}" for i in range(n)], rng.standard_normal((n, dim)))
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
            VectorIndex(["a"], np.array([[3.0, 4.0]], dtype=np.float32))

    def test_degenerate_row_rejected(self):
        with pytest.raises(ValueError, match="degenerate_embedding"):
            VectorIndex.build(["a"], [np.zeros(4)])


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(23)
        ix = VectorIndex.build(
            [f"c{i}" for i in range(20)], [rng.standard_normal(16) for _ in range(20)]
        )
        save(ix, tmp_path)
        reloaded = load(tmp_path, ix.ids)
        assert reloaded.ids == ix.ids
        assert np.array_equal(reloaded.cols, ix.cols)
        q = rng.standard_normal(16)
        assert search_exact(reloaded, q, 5) == search_exact(ix, q, 5)

    def test_save_writes_the_bytes_of_np_save_in_bounded_scratch(self, tmp_path):
        rng = np.random.default_rng(29)
        n, dim = 16 * SAVE_BLOCK_ROWS + 3, 64
        ix = VectorIndex.build([f"c{i}" for i in range(n)], rng.standard_normal((n, dim)))
        tracemalloc.start()
        try:
            save(ix, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        whole = np.ascontiguousarray(ix.cols.T, dtype="<f4")
        np.save(tmp_path / "whole.npy", whole)
        assert (tmp_path / VECTORS_FILE).read_bytes() == (tmp_path / "whole.npy").read_bytes()
        # A block of SAVE_BLOCK_ROWS rows at a time: a sixteenth of the matrix,
        # which a whole copy would take.
        assert peak <= 2 * SAVE_BLOCK_ROWS * dim * 4 + 64 * 1024 < whole.nbytes

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / VECTORS_FILE).write_bytes(b"NOTMAGIC" + b"\x00" * 12)
        with pytest.raises(ValueError, match=VECTORS_FILE):
            load(tmp_path, ["a"])

    @pytest.mark.parametrize(
        "matrix, match",
        [
            (np.array([[1.0, 0.0]], dtype=np.float64), "expected a <f4 matrix, got <f8"),
            (np.array([[1.0, 0.0]], dtype=">f4"), "expected a <f4 matrix, got >f4"),
            (np.array([1.0, 0.0], dtype="<f4"), "ids must match matrix rows"),
            (np.array([[1.0, 0.0], [0.0, 1.0]], dtype="<f4"), "ids must match matrix rows"),
        ],
    )
    def test_wrong_dtype_or_shape_rejected(self, tmp_path, matrix, match):
        np.save(tmp_path / VECTORS_FILE, matrix)
        with pytest.raises(ValueError, match=f"{VECTORS_FILE}: {match}"):
            load(tmp_path, ["a"])

    def test_object_array_refused_without_unpickling(self, tmp_path):
        np.save(tmp_path / VECTORS_FILE, np.array([[1.0]], dtype=object), allow_pickle=True)
        with pytest.raises(ValueError, match=f"{VECTORS_FILE}: .*allow_pickle"):
            load(tmp_path, ["a"])


class TestLoadExternal:
    def _write(self, tmp_path, rows):
        path = tmp_path / "ext.jsonl"
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
        )
        return path

    def test_happy_path(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                {"id": "a", "vector": [1.0, 0.0, 0.0, 0.0]},
                {"id": "b", "vector": [0.0, 1.0, 0.0, 0.0]},
            ],
        )
        ix = load_external_embeddings(path, ["a", "b"])
        assert len(ix) == 2
        assert ix.dim == 4

    def test_rows_normalized_on_load(self, tmp_path):
        path = self._write(tmp_path, [{"id": "a", "vector": [3.0, 4.0, 0.0, 0.0]}])
        ix = load_external_embeddings(path, ["a"])
        assert np.allclose(ix.cols[:, 0], [0.6, 0.8, 0.0, 0.0], atol=1e-7)

    def test_missing_id_named(self, tmp_path):
        path = self._write(tmp_path, [{"id": "a", "vector": [1.0, 0.0]}])
        with pytest.raises(ValueError, match="missing embedding for id: b"):
            load_external_embeddings(path, ["a", "b"])

    def test_inconsistent_dim_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            [{"id": "a", "vector": [1.0, 0.0]}, {"id": "b", "vector": [1.0, 0.0, 0.0]}],
        )
        with pytest.raises(ValueError, match="inconsistent dim"):
            load_external_embeddings(path, ["a", "b"])

    def test_non_finite_rejected(self, tmp_path):
        path = self._write(tmp_path, [{"id": "a", "vector": [1.0, float("nan")]}])
        with pytest.raises(ValueError, match="non-finite"):
            load_external_embeddings(path, ["a"])
