import json
import math

import numpy as np
import pytest

from qrag.semantic import (
    SCAN_BLOCK_ROWS,
    EmbedderSpec,
    VectorIndex,
    cosine,
    embed,
    load,
    load_external_embeddings,
    save,
    search_exact,
    token_vector,
)

SPEC = EmbedderSpec(kind="hash_projection", dim=256)


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


class TestEmbed:
    def test_single_token_equals_its_vector(self):
        v = embed(["ਸਤਿ"], SPEC)
        assert np.array_equal(v, token_vector("ਸਤਿ", 256))

    def test_repeated_token_same_direction(self):
        one = embed(["ਸਤਿ"], SPEC)
        two = embed(["ਸਤਿ", "ਸਤਿ"], SPEC)
        assert np.allclose(one, two, atol=1e-12)

    def test_idf_weights_change_direction(self):
        tokens = ["a", "b"]
        unweighted = embed(tokens, SPEC)
        weighted = embed(tokens, SPEC, idf_weights={"a": 10.0, "b": 0.1})
        assert cosine(weighted, token_vector("a", 256)) > cosine(
            unweighted, token_vector("a", 256)
        )

    def test_all_zero_weights_degenerate(self):
        with pytest.raises(ValueError, match="degenerate_embedding"):
            embed(["a", "b"], SPEC, idf_weights={"a": 0.0, "b": 0.0})

    def test_empty_tokens_rejected(self):
        with pytest.raises(ValueError, match="empty token list"):
            embed([], SPEC)

    def test_external_spec_cannot_embed_text(self):
        spec = EmbedderSpec(kind="external_file", path="vectors.jsonl")
        with pytest.raises(ValueError, match="hash_projection"):
            embed(["a"], spec)

    def test_dim_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            EmbedderSpec(kind="hash_projection", dim=100)


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
        results = search_exact(ix, ix.row("d3"), 1)
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
        rng = np.random.default_rng(17)
        # Below, at and across the scan block size, and an empty index.
        for n in (200, SCAN_BLOCK_ROWS, 2 * SCAN_BLOCK_ROWS + 7, 0):
            ids = [f"c{i:04d}" for i in range(n)]
            if n:
                ix = VectorIndex.build(ids, [rng.standard_normal(32) for _ in ids])
            else:
                ix = VectorIndex([], np.zeros((0, 32), dtype=np.float32))
            q = rng.standard_normal(32)
            scores = ix.scan(q)
            assert scores.shape == (n,)
            for i in range(len(ix)):
                assert scores[i] == cosine(ix._m64[i], q)

    def test_ranking_matches_brute_force(self):
        rng = np.random.default_rng(19)
        vectors = [rng.standard_normal(16) for _ in range(100)]
        ids = [f"c{i:03d}" for i in range(100)]
        ix = VectorIndex.build(ids, vectors)
        q = rng.standard_normal(16)
        got = search_exact(ix, q, 10)
        brute = sorted(
            ((cid, cosine(ix.row(cid), q)) for cid in ids),
            key=lambda kv: (-kv[1], kv[0]),
        )[:10]
        assert got == brute


class TestVectorIndexInvariants:
    def test_rows_unit_norm(self):
        rng = np.random.default_rng(21)
        ix = VectorIndex.build(["a", "b"], [rng.standard_normal(8) * 9 for _ in range(2)])
        for row in ix._m64:
            assert abs(math.sqrt(float(np.dot(row, row))) - 1.0) < 1e-6

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
        reloaded = load(tmp_path)
        assert reloaded.ids == ix.ids
        assert np.array_equal(reloaded.matrix, ix.matrix)
        q = rng.standard_normal(16)
        assert search_exact(reloaded, q, 5) == search_exact(ix, q, 5)

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "vectors.bin").write_bytes(b"NOTMAGIC" + b"\x00" * 12)
        (tmp_path / "vectors.ids").write_text("a\n")
        with pytest.raises(ValueError, match="magic"):
            load(tmp_path)


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
        assert np.allclose(ix.row("a"), [0.6, 0.8, 0.0, 0.0], atol=1e-7)

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
