import math

import numpy as np
import pytest

from qrag.engine import EngineConfig
from qrag.quantum import (
    AmplitudeState,
    FusionConfig,
    amplitude_encode,
    fidelity,
    fuse_rrf,
    interference_score,
    normalize_lexical,
    overlap,
    rank_candidates,
    signed_fidelity,
)
from qrag.semantic import cosine


class TestAmplitudeEncode:
    def test_two_dim_normalization(self):
        state = amplitude_encode(np.array([3.0, 4.0]))
        assert state.num_qubits == 1
        assert np.allclose(state.amplitudes, [0.6, 0.8], atol=1e-15)

    def test_padding_to_power_of_two(self):
        state = amplitude_encode(np.array([1.0, 1.0, 1.0]))
        assert state.num_qubits == 2
        expected = [1 / math.sqrt(3)] * 3 + [0.0]
        assert np.allclose(state.amplitudes, expected, atol=1e-15)

    def test_exact_unit_power_of_two_unchanged(self):
        values = np.array([0.5, 0.5, 0.5, 0.5])
        state = amplitude_encode(values)
        assert np.array_equal(state.amplitudes, values)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="degenerate_embedding"):
            amplitude_encode(np.zeros(4))

    def test_states_normalized(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            v = rng.standard_normal(int(rng.integers(2, 70)))
            amps = amplitude_encode(v).amplitudes
            assert abs(float(np.dot(amps, amps)) - 1.0) <= 1e-9

    def test_state_invariants_enforced(self):
        with pytest.raises(ValueError, match="not normalized"):
            AmplitudeState(num_qubits=1, amplitudes=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="amplitudes"):
            AmplitudeState(num_qubits=2, amplitudes=np.array([1.0, 0.0]))


class TestFidelity:
    def test_self_fidelity_is_one(self):
        s = amplitude_encode(np.array([0.3, -0.9, 0.1]))
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        a = amplitude_encode(np.array([1.0, 0.0]))
        b = amplitude_encode(np.array([0.0, 1.0]))
        assert fidelity(a, b) == 0.0

    def test_hand_value(self):
        a = amplitude_encode(np.array([1.0, 0.0]))
        b = amplitude_encode(np.array([0.6, 0.8]))
        assert overlap(a, b) == pytest.approx(0.6, abs=1e-12)
        assert fidelity(a, b) == pytest.approx(0.36, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = amplitude_encode(rng.standard_normal(8))
            b = amplitude_encode(rng.standard_normal(8))
            assert fidelity(a, b) == fidelity(b, a)
            assert 0.0 <= fidelity(a, b) <= 1.0

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(16)
        s = amplitude_encode(v)
        neg = amplitude_encode(-v)
        assert fidelity(s, neg) == pytest.approx(1.0, abs=1e-12)
        assert signed_fidelity(s, neg) == pytest.approx(-1.0, abs=1e-12)

    def test_qubit_mismatch_rejected(self):
        a = amplitude_encode(np.array([1.0, 0.0]))
        b = amplitude_encode(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="qubit count mismatch"):
            fidelity(a, b)

    def test_equals_squared_cosine_of_embeddings(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            dim = int(rng.integers(2, 80))
            a = rng.standard_normal(dim)
            b = rng.standard_normal(dim)
            fid = fidelity(amplitude_encode(a), amplitude_encode(b))
            assert fid == pytest.approx(cosine(a, b) ** 2, abs=1e-9)


class TestNormalizeLexical:
    def test_endpoints(self):
        assert normalize_lexical(np.array([2.0, 4.0])).tolist() == [0.0, 1.0]

    def test_degenerate_range(self):
        assert normalize_lexical(np.array([3.0, 3.0])).tolist() == [1.0, 1.0]

    def test_single_candidate(self):
        assert normalize_lexical(np.array([5.0])).tolist() == [1.0]

    def test_empty(self):
        assert normalize_lexical(np.array([])).tolist() == []

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(8)
        raw = rng.uniform(0, 50, size=30)
        for v in normalize_lexical(raw):
            assert 0.0 <= v <= 1.0

    def test_non_positive_scores_map_to_zero(self):
        # The pool is the positive scores only: 3.0 is its min and its max.
        got = normalize_lexical(np.array([0.0, -1.5, 3.0, 3.0]))
        assert got.tolist() == [0.0, 0.0, 1.0, 1.0]
        got = normalize_lexical(np.array([0.0, 2.0, -1.0, 4.0]))
        assert got.tolist() == [0.0, 0.0, 0.0, 1.0]


class TestInterferenceScore:
    def test_hand_value_with_cross_term(self):
        got = interference_score(0.6, 0.8, 0.5, 0.5)
        assert got == pytest.approx(0.49, abs=1e-12)
        # decomposition: direct terms + interference cross term
        direct = (0.5 * 0.6) ** 2 + (0.5 * 0.8) ** 2
        cross = 2 * 0.5 * 0.5 * 0.6 * 0.8
        assert got == pytest.approx(direct + cross, abs=1e-12)

    def test_reduces_to_fidelity_without_lexical_weight(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            c = float(rng.uniform(-1, 1))
            l = float(rng.uniform(0, 1))
            assert interference_score(c, l, 1.0, 0.0) == c * c

    def test_full_destructive_interference(self):
        assert interference_score(-1.0, 1.0, 0.5, 0.5) == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            c = float(rng.uniform(-1, 1))
            l = float(rng.uniform(0, 1))
            w = float(rng.uniform(0, 1))
            assert 0.0 <= interference_score(c, l, w, 1.0 - w) <= 1.0

    def test_weight_constraint_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            interference_score(0.5, 0.5, 0.7, 0.7)
        with pytest.raises(ValueError, match=">= 0"):
            interference_score(0.5, 0.5, 1.5, -0.5)
        with pytest.raises(ValueError, match=">= 0"):
            interference_score(0.5, 0.5, math.nan, math.nan)


class TestFuseRrf:
    def test_hand_value(self):
        fused = fuse_rrf([["d"], ["x", "y", "d"]], rrf_k=60)
        assert fused["d"] == pytest.approx(1 / 61 + 1 / 63, abs=1e-12)

    def test_single_list_single_term(self):
        assert fuse_rrf([["d"]], rrf_k=60)["d"] == pytest.approx(1 / 61, abs=1e-12)

    def test_mirrored_ranks_tie(self):
        fused = fuse_rrf([["a", "b"], ["b", "a"]], rrf_k=60)
        assert fused["a"] == fused["b"]

    def test_rank_improvement_never_decreases_score(self):
        rng = np.random.default_rng(12)
        ids = [f"c{i}" for i in range(20)]
        for _ in range(100):
            lists = [list(rng.permutation(ids)) for _ in range(2)]
            target = ids[int(rng.integers(len(ids)))]
            before = fuse_rrf(lists, 60)[target]
            which = int(rng.integers(2))
            pos = lists[which].index(target)
            if pos == 0:
                continue
            lists[which].insert(pos - 1, lists[which].pop(pos))
            after = fuse_rrf(lists, 60)[target]
            assert after >= before

    def test_rrf_k_validated(self):
        with pytest.raises(ValueError):
            fuse_rrf([["a"]], rrf_k=0)


IDS = ["a", "b", "c"]
SPARSE = np.array([2.0, 5.0, 0.0])
DENSE = np.array([0.9, 0.1, 0.7])


def _rank(cfg, ids=IDS, sparse=SPARSE, dense=DENSE):
    """``rank_candidates`` as (id, fused) pairs, each candidate at the row an
    index in chunk-id order gives it: its id's rank among the ids."""
    rows = np.argsort(np.argsort(ids))
    ranked = rank_candidates(rows, sparse, dense, cfg)
    return [(ids[i], fused) for i, fused in ranked]


class TestRankCandidates:
    def test_sparse_only_orders_by_bm25(self):
        ranked = _rank(FusionConfig(mode="sparse_only"))
        assert [cid for cid, _ in ranked] == ["b", "a", "c"]

    def test_dense_only_orders_by_cosine(self):
        ranked = _rank(FusionConfig(mode="dense_only"))
        assert [cid for cid, _ in ranked] == ["a", "c", "b"]

    def test_weighted_sum_with_zero_lexical_matches_dense_order(self):
        cfg = FusionConfig(mode="weighted_sum", w_semantic=1.0, w_lexical=0.0)
        ranked = _rank(cfg)
        dense = _rank(FusionConfig(mode="dense_only"))
        assert [cid for cid, _ in ranked] == [cid for cid, _ in dense]

    def test_equal_scores_tie_break_on_chunk_id(self):
        ranked = _rank(
            FusionConfig(mode="dense_only"),
            ids=["z", "a"],
            sparse=None,
            dense=np.array([0.5, 0.5]),
        )
        assert [cid for cid, _ in ranked] == ["a", "z"]

    def test_quantum_interference_matches_hand_formula(self):
        cfg = FusionConfig(mode="quantum_interference", w_semantic=0.5, w_lexical=0.5)
        ranked = _rank(cfg)
        lexical_norm = normalize_lexical(SPARSE)
        expected = {
            cid: interference_score(float(DENSE[i]), float(lexical_norm[i]), 0.5, 0.5)
            for i, cid in enumerate(IDS)
        }
        for cid, fused in ranked:
            assert fused == expected[cid]
        assert [cid for cid, _ in ranked] == sorted(
            expected, key=lambda cid: (-expected[cid], cid)
        )

    def test_fidelity_rerank_signed_vs_unsigned(self):
        # Unsigned, the anti-correlated "neg" (0.81) would rank above "pos"
        # (0.64); the signed fidelity ranks it below.
        ids, dense = ["pos", "neg"], np.array([0.8, -0.9])
        signed = _rank(
            FusionConfig(mode="fidelity_rerank"), ids=ids, sparse=None, dense=dense
        )
        assert [cid for cid, _ in signed] == ["pos", "neg"]
        assert signed[0][1] == pytest.approx(0.64)
        assert signed[1][1] == pytest.approx(-0.81)

    def test_rrf_mode_reconstructs_leg_lists(self):
        # sparse list: b (5.0) then a (2.0); c excluded (score 0 means no
        # query term). dense list: a, c, b.
        ranked = _rank(FusionConfig(mode="rrf", k_final=3))
        expected = {
            "a": 1 / 62 + 1 / 61,
            "b": 1 / 61 + 1 / 63,
            "c": 1 / 62,
        }
        for cid, fused in ranked:
            assert fused == pytest.approx(expected[cid], abs=1e-12)

    def test_truncates_to_k_final(self):
        ranked = _rank(FusionConfig(mode="dense_only", k_final=2))
        assert len(ranked) == 2

    def test_missing_required_score_rejected(self):
        with pytest.raises(ValueError, match="dense"):
            rank_candidates(np.arange(1), np.array([1.0]), None, FusionConfig(mode="dense_only"))

    def test_deterministic(self):
        cfg = FusionConfig(mode="quantum_interference")
        assert _rank(cfg) == _rank(cfg)


class TestFusionConfig:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FusionConfig(w_semantic=0.5, w_lexical=0.4)

    @pytest.mark.parametrize("name", ["w_semantic", "w_lexical"])
    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_weight_that_is_not_finite_and_nonnegative_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
            FusionConfig(**{name: bad})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            FusionConfig(mode="psychic")

    def test_k_values_positive(self):
        with pytest.raises(ValueError):
            FusionConfig(k_final=0)
        for name in ("rrf_k", "k_sparse", "k_dense", "k_final"):
            with pytest.raises(ValueError, match=f"{name} must be >= 1"):
                FusionConfig(**{name: math.nan})

    @pytest.mark.parametrize("name", ["rrf_k", "k_sparse", "k_dense", "k_final"])
    @pytest.mark.parametrize("bad", [1.5, 10.0, True, "10", None])
    def test_k_value_that_is_not_an_int_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be >= 1 and an int"):
            FusionConfig(**{name: bad})

    def test_dict_round_trip(self):
        cfg = FusionConfig(mode="rrf", w_semantic=0.7, w_lexical=0.3, k_final=5)
        engine_cfg = EngineConfig(fusion=cfg)
        assert EngineConfig.from_dict(engine_cfg.to_dict()).fusion == cfg
