"""Dataclass <-> JSON conversion of every persisted or served record."""

import json
from dataclasses import dataclass

import pytest

import index_file
from qrag import _records
from qrag.corpus import CleaningConfig
from qrag.engine import (
    EngineConfig,
    IndexManifest,
    RetrievalResponse,
    ScoredHit,
    load_index,
    save_index,
)
from qrag.evalkit import MetricReport
from qrag.lexical import BM25Params
from qrag.quantum import FusionConfig
from qrag.semantic import EmbedderSpec

DEFAULT_CONFIG_JSON = (
    '{"bm25": {"b": 0.75, "k1": 1.2}, "cleaning": {"chunk_overlap_tokens": 64, '
    '"chunk_size_tokens": 256, "max_punct_ratio": 0.5, "min_gurmukhi_fraction": 0.5, '
    '"min_tokens": 10}, "context_budget_tokens": 1024, "embedder": {"dim": 256}, '
    '"fusion": {"k_dense": 50, "k_final": 10, '
    '"k_sparse": 50, "mode": "quantum_interference", "rrf_k": 60, '
    '"w_lexical": 0.4, "w_semantic": 0.6}, '
    '"vocab_size": 32000}'
)


def _dumps(d):
    return json.dumps(d, ensure_ascii=False, sort_keys=True)


class TestGoldenBytes:
    def test_default_config(self):
        assert _dumps(EngineConfig().to_dict()) == DEFAULT_CONFIG_JSON

    def test_hit_leaves_out_absent_scores(self):
        hit = ScoredHit(chunk_id="c", text="t", rank=1, fused=0.5, dense_cos=0.25)
        assert _dumps(hit.to_dict()) == (
            '{"chunk_id": "c", "dense_cos": 0.25, "fused": 0.5, "rank": 1, "text": "t"}'
        )


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "d, key",
        [
            ({"vocab_sise": 10}, "vocab_sise"),
            ({"cleaning": {"min_tokenz": 3}}, "cleaning.min_tokenz"),
            ({"bm25": {"k2": 1.0}}, "bm25.k2"),
            ({"embedder": {"dims": 64}}, "embedder.dims"),
            ({"fusion": {"mdoe": "rrf"}}, "fusion.mdoe"),
            ({"embedder": {"kind": "hash_projection"}}, "embedder.kind"),
            ({"embedder": {"path": "v.jsonl"}}, "embedder.path"),
            ({"fusion": {"signed_fidelity": True}}, "fusion.signed_fidelity"),
        ],
    )
    def test_engine_config_names_the_dotted_key(self, d, key):
        with pytest.raises(ValueError, match=f"unknown key: {key}$"):
            EngineConfig.from_dict(d)

    def test_fusion_config(self):
        with pytest.raises(ValueError, match="^unknown key: fusion.mdoe$"):
            EngineConfig.from_dict({"fusion": {"mode": "rrf", "mdoe": "rrf"}})

    def test_embedder_spec(self):
        with pytest.raises(ValueError, match="^unknown key: embedder.dims$"):
            EngineConfig.from_dict({"embedder": {"dim": 64, "dims": 64}})

    def test_manifest_top_level(self, manifest_dict):
        manifest_dict["extra"] = 1
        with pytest.raises(ValueError, match="unknown key: extra"):
            IndexManifest.from_dict(manifest_dict)

    def test_manifest_config_echo(self, manifest_dict):
        manifest_dict["config"]["fusion"]["mdoe"] = "rrf"
        with pytest.raises(ValueError, match="unknown key: config.fusion.mdoe"):
            IndexManifest.from_dict(manifest_dict)

    def test_manifest_missing_key(self, manifest_dict):
        del manifest_dict["chunk_count"]
        with pytest.raises(ValueError, match="missing key: chunk_count"):
            IndexManifest.from_dict(manifest_dict)

    def test_load_index_rejects_unknown_manifest_key(self, small_engine, tmp_path):
        engine, *_ = small_engine
        save_index(engine, tmp_path)
        index_file.edit_manifest(tmp_path, lambda m: m["config"]["bm25"].update(k3=1.0))
        with pytest.raises(ValueError, match="^manifest: unknown key: config.bm25.k3$"):
            load_index(tmp_path)


class TestWrongTypes:
    @pytest.mark.parametrize(
        "d, message",
        [
            ({"vocab_size": True}, "vocab_size: expected int, got bool"),
            ({"vocab_size": 8000.0}, "vocab_size: expected int, got float"),
            ({"bm25": {"k1": "2"}}, "bm25.k1: expected float, got str"),
            ({"bm25": {"b": False}}, "bm25.b: expected float, got bool"),
            ({"fusion": {"k_final": True}}, "fusion.k_final: expected int, got bool"),
            ({"fusion": {"mode": None}}, "fusion.mode: expected str, got NoneType"),
            ({"embedder": {"dim": "256"}}, "embedder.dim: expected int, got str"),
            ({"cleaning": []}, "cleaning: expected dict, got list"),
        ],
    )
    def test_engine_config_names_the_dotted_key(self, d, message):
        with pytest.raises(ValueError, match=message):
            EngineConfig.from_dict(d)

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ValueError, match="EngineConfig: expected dict, got list"):
            EngineConfig.from_dict([])

    def test_int_is_accepted_for_a_float(self):
        cfg = EngineConfig.from_dict({"bm25": {"k1": 2}})
        assert cfg.bm25 == BM25Params(k1=2.0)

    def test_optional_field_accepts_null(self):
        hit = {"chunk_id": "c", "text": "t", "rank": 1, "fused": 0.5, "dense_cos": None}
        assert _records.from_dict(ScoredHit, hit) == ScoredHit("c", "t", 1, 0.5)

    def test_list_items_are_named_by_index(self):
        d = {"per_query": {}, "macro": {}, "evaluated": 0, "skipped_no_relevant": ["a", 2]}
        with pytest.raises(ValueError, match=r"skipped_no_relevant\[1\]: expected str, got int"):
            _records.from_dict(MetricReport, d)


@dataclass(frozen=True)
class _Row:
    """A flat record of str and int fields."""

    chunk_id: str
    token_count: int
    text: str


@pytest.fixture()
def manifest_dict():
    cfg = EngineConfig(vocab_size=500, fusion=FusionConfig(mode="rrf", k_final=3))
    return IndexManifest(format_version=1, chunk_count=2, config=cfg).to_dict()


class TestRoundTrips:
    def test_engine_config(self):
        cfg = EngineConfig(
            cleaning=CleaningConfig(min_tokens=3, chunk_size_tokens=128),
            bm25=BM25Params(k1=1.5, b=0.5),
            embedder=EmbedderSpec(dim=64),
            fusion=FusionConfig(mode="rrf", w_semantic=0.3, w_lexical=0.7),
            vocab_size=1234,
            context_budget_tokens=512,
        )
        assert EngineConfig.from_dict(json.loads(_dumps(cfg.to_dict()))) == cfg

    def test_fusion_config(self):
        cfg = EngineConfig(fusion=FusionConfig(mode="weighted_sum", k_dense=7))
        d = cfg.to_dict()
        assert d["fusion"]["mode"] == "weighted_sum" and d["fusion"]["k_dense"] == 7
        assert EngineConfig.from_dict(d) == cfg

    def test_embedder_spec(self):
        cfg = EngineConfig(embedder=EmbedderSpec(dim=64))
        d = cfg.to_dict()
        assert d["embedder"] == {"dim": 64}
        assert EngineConfig.from_dict(d) == cfg

    def test_manifest(self, manifest_dict):
        manifest = IndexManifest.from_dict(json.loads(_dumps(manifest_dict)))
        assert manifest.config.fusion.mode == "rrf"
        assert manifest.to_dict() == manifest_dict

    def test_response(self):
        response = RetrievalResponse(
            query="q",
            mode="rrf",
            hits=[
                ScoredHit("a", "ta", 1, 0.5, sparse_raw=2.0, dense_cos=0.1, quantum=0.2),
                ScoredHit("b", "tb", 2, 0.25),
            ],
            context="ta",
            timings={"total": 1.5},
        )
        d = json.loads(response.to_json())
        assert _records.from_dict(RetrievalResponse, d) == response
        assert "timings" not in response.to_dict(include_timings=False)

    def test_metric_report(self):
        report = MetricReport(
            per_query={"q1": {"mrr": 1.0}}, macro={"mrr": 1.0}, evaluated=1
        )
        d = json.loads(_dumps(report.to_dict()))
        assert _records.from_dict(MetricReport, d) == report

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"extra": 1}, "unknown key: extra"),
            ({"token_count": "1"}, "token_count: expected int, got str"),
            ({"token_count": True}, "token_count: expected int, got bool"),
            ({"token_count": 1.0}, "token_count: expected int, got float"),
            ({"text": None}, "text: expected str, got NoneType"),
            ({"chunk_id": ["d#0"]}, "chunk_id: expected str, got list"),
        ],
    )
    def test_chunk_row_fault_is_named(self, change, match):
        good = {"chunk_id": "d#0", "token_count": 1, "text": "t"}
        assert _records.from_dict(_Row, good) == _Row("d#0", 1, "t")
        with pytest.raises(ValueError, match=f"^{match}$"):
            _records.from_dict(_Row, {**good, **change})

    @pytest.mark.parametrize(
        "last, match", [({}, "missing key: text"), ({"txet": "t"}, "unknown key: txet")]
    )
    def test_chunk_row_missing_key_is_named(self, last, match):
        row = {"chunk_id": "d#0", "token_count": 1, **last}
        with pytest.raises(ValueError, match=f"^{match}$"):
            _records.from_dict(_Row, row)

    def test_chunk_row_with_unknown_key_is_rejected(self):
        row = {"chunk_id": "d#0", "token_count": 1}
        row.update(text="t", extra=1)
        with pytest.raises(ValueError, match="unknown key: extra"):
            _records.from_dict(_Row, row)
