"""
The full hybrid engine
======================

Builds every index from a raw JSONL corpus in a temp directory, runs one
query under each fusion mode, prints the per-hit component scores that make
ablations readable, and round-trips the whole engine through save/load.
"""

import tempfile
from pathlib import Path

from qrag.engine import EngineConfig, build_all, load_index, save_index
from qrag.synthetic import make_planted_benchmark, write_jsonl

bench = make_planted_benchmark(n_docs=250, n_lexical=10, n_semantic=10, seed=21)

with tempfile.TemporaryDirectory() as td:
    td = Path(td)
    write_jsonl(bench.records, td / "corpus.jsonl")

    cfg = EngineConfig(vocab_size=8000)
    manifest = build_all(td / "corpus.jsonl", cfg, td / "index")
    files = sorted(p.name for p in (td / "index").iterdir())
    print(f"built {manifest.chunk_count} chunks (format {manifest.format_version}); files: {files}")

    engine = load_index(td / "index")

    query = bench.queries[0]["text"]
    target = bench.targets[bench.queries[0]["qid"]] + "#0"
    print(f"\nquery: {query!r} (planted target: {target})")

    for mode in ("sparse_only", "dense_only", "rrf", "weighted_sum", "quantum_interference"):
        resp = engine.retrieve(query, mode=mode, k_final=3)
        print(f"\n[{mode}]  total={resp.timings['total']:.1f} ms")
        for h in resp.hits:
            parts = [f"fused={h.fused:.4f}"]
            if h.sparse_raw is not None:
                parts.append(f"bm25={h.sparse_raw:.3f}")
            if h.dense_cos is not None:
                parts.append(f"cos={h.dense_cos:.3f}")
            if h.quantum is not None:
                parts.append(f"overlap={h.quantum:.3f}")
            marker = " <- target" if h.chunk_id == target else ""
            print(f"  #{h.rank} {h.chunk_id:12s} {'  '.join(parts)}{marker}")

    resp = engine.retrieve(query)
    print(f"\ncontext ({engine.tokenizer.token_count(resp.context)} tokens, budget "
          f"{engine.config.context_budget_tokens}):")
    print(" ", resp.context[:100].replace("\n", " | "), "...")

    # save/load round trip is byte-exact on the response JSON
    save_index(engine, td / "copy")
    again = load_index(td / "copy")
    same = (
        again.retrieve(query).to_json(include_timings=False)
        == engine.retrieve(query).to_json(include_timings=False)
    )
    print("\nsave -> load -> retrieve is byte-identical:", same)
