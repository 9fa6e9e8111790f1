"""The benchmark's trace points (``perfbench/spans.py``) still name live
``qrag`` functions, and each counter reads what its function takes and
returns. A trace point whose function is renamed away, or a counter whose
function's signature changed, would otherwise go silently missing from every
traced run."""

import sys
from pathlib import Path

from qrag import engine as engine_mod
from qrag import synthetic
from qrag.quantum import FUSION_MODES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

# Named by spans.py but deleted from qrag: the dense leg ranks with
# lexical.top_rows. A repair of the benchmark drops it.
KNOWN_MISSING = {"semantic.top_k"}


def test_every_trace_point_is_installed_and_every_counter_runs(tmp_path):
    bench = synthetic.make_planted_benchmark(n_docs=60, n_lexical=3, n_semantic=3, seed=5)
    synthetic.write_jsonl(bench.records, tmp_path / "corpus.jsonl")
    cfg = engine_mod.EngineConfig(vocab_size=600)
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        assert set(rec.missing) <= KNOWN_MISSING
        rec.active = True
        # A counter that raises fails the traced call itself.
        engine_mod.build_all(tmp_path / "corpus.jsonl", cfg, tmp_path / "index")
        engine = engine_mod.load_index(tmp_path / "index")
        for mode in FUSION_MODES:
            engine.retrieve(bench.queries[0]["text"], mode=mode)
    finally:
        rec.active = False
        undo()
    counted: dict[str, list[dict]] = {}
    for span in rec.spans:
        if span.counts is not None:
            counted.setdefault(span.name, []).append(span.counts)
    with_counters = {
        f"{layer}.{name}" for layer, name, count in spans.TRACE_POINTS if count is not None
    }
    assert set(counted) == with_counters - set(rec.missing)
    n = engine.chunk_count
    assert all(c["chars"] > 0 for c in counted["tokenizer.TokenizerModel.encode"])
    assert all(0 < c["rows_touched"] <= n for c in counted["lexical.score_rows"])
    assert all(c["rows"] == n for c in counted["semantic.VectorIndex.scan"])
    assert all(
        c["candidates"] >= c["hits"] > 0 for c in counted["quantum.rank_candidates"]
    )
    traced = {span.name for span in rec.spans}
    for name in ("lexical.build_index", "lexical.top_rows", "semantic.embed",
                 "tokenizer.TokenizerModel.decode", "tokenizer.TokenizerModel.token_count"):
        assert name in traced
