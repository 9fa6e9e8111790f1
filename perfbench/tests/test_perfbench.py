"""Tests of the benchmark itself: its statistics, its span arithmetic, its
seeded inputs, and a toy-scale run of every workload.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import loadgen
import run as bench
import spans
import stats
import workloads
from qrag import synthetic

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

TOY = workloads.Scale(
    n_docs=400,
    n_lexical=150,
    n_semantic=150,
    lexicon_size=300,
    words_per_doc=(30, 50),
    vocab_size=600,
    serve_rate=40.0,
)


# -- the percentile rule ------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.min_samples_for(90) == 100
    assert stats.min_samples_for(99) == 1000
    assert stats.samples_beyond(100, 90) == 10
    with pytest.raises(ValueError):
        stats.percentile(list(range(99)), 90)
    assert stats.percentile(list(range(100)), 90) == 89
    assert stats.percentile([3.0], 50) == 3.0


def test_median_averages_the_middle_pair():
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert stats.median([5.0, 1.0, 3.0]) == 3.0


# -- self-time arithmetic -------------------------------------------------------


def _span(sid, start, end, parent=0, rid=None):
    return spans.Span(sid, "engine.x", start, end, parent, rid or sid, None)


def test_self_time_subtracts_the_union_of_children():
    trace = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1, rid=1),
        _span(3, 3.0, 6.0, parent=1, rid=1),  # overlaps span 2 by one second
        _span(4, 2.0, 3.0, parent=2, rid=1),
        _span(5, 9.0, 12.0, parent=1, rid=1),  # runs past its parent's end
    ]
    own = spans.self_times(trace)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)
    assert spans.covered([(1, 4), (3, 6), (8, 9)], 0, 10) == pytest.approx(6.0)


def test_recorded_self_times_add_up_to_the_operation():
    rec = spans.Recorder()

    def leaf():
        time.sleep(0.002)

    def produce():
        for _ in range(3):
            time.sleep(0.001)
            yield 1

    leaf_t = rec.wrap("tokenizer.leaf", leaf)
    produce_t = rec.wrap("corpus.produce", produce)

    def root():
        for _ in produce_t():
            leaf_t()  # the consumer's time is not the generator's

    root_t = rec.wrap("engine.build_all", root)
    rec.active = True
    root_t()
    rec.active = False
    assert spans.self_sum_error(rec.spans) < 1e-9
    by_name = {}
    own = spans.self_times(rec.spans)
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(own[s.sid])
    assert len(by_name["corpus.produce"]) == 4  # three items and the final stop
    assert sum(by_name["corpus.produce"]) < sum(by_name["tokenizer.leaf"])
    assert {s.rid for s in rec.spans} == {min(s.sid for s in rec.spans)}
    figures = spans.layer_metrics(rec.spans)
    assert figures["corpus.self_s"] + figures["tokenizer.self_s"] + figures[
        "engine.self_s"
    ] == pytest.approx(figures["trace.op_s"])


def test_a_removed_function_is_an_absent_span():
    rec = spans.Recorder()
    points = (("lexical", "no_such_function", None), ("nosuchlayer", "f", None))
    undo = spans.install(rec, points)
    undo()
    assert rec.missing == ["lexical.no_such_function", "nosuchlayer.f"]
    assert spans.layer_metrics([])["semantic.scan_s"] == 0.0


# -- seeded inputs ------------------------------------------------------------------


@pytest.fixture(scope="module")
def planted_inputs():
    bench_ = synthetic.make_planted_benchmark(
        n_docs=120, n_lexical=40, n_semantic=40, seed=3, lexicon_size=200
    )
    by_kind = {"lexical": [], "semantic": []}
    for q in bench_.queries:
        by_kind[q["kind"]].append((q["qid"], q["text"]))
    words = sorted({w for r in bench_.records for w in r["text"].split()})
    return workloads.Planted(None, None, by_kind["lexical"], by_kind["semantic"], {}, words)


def _inputs(planted, seed):
    rng = lambda purpose: np.random.default_rng([seed, purpose])  # noqa: E731
    return (
        workloads.short_queries(planted, rng(1)),
        workloads.long_queries(planted, rng(1)),
        loadgen.poisson_schedule(rng(4), 8.0, 50),
        loadgen.zipf_draws(rng(3), 40, 50),
    )


def test_same_seed_same_inputs(planted_inputs):
    assert _inputs(planted_inputs, 5) == _inputs(planted_inputs, 5)
    assert _inputs(planted_inputs, 5) != _inputs(planted_inputs, 6)


def test_long_queries_carry_fresh_words(planted_inputs):
    corpus_words = set(planted_inputs.words)
    seen = set()
    for qid, text in workloads.long_queries(planted_inputs, np.random.default_rng(1)):
        words = text.split()
        fresh = [w for w in words if w not in corpus_words]
        assert fresh and not seen.intersection(fresh)
        assert 0.05 <= len(fresh) / len(words) <= 0.2
        seen.update(fresh)


def test_zipf_draws_repeat_popular_queries():
    draws = loadgen.zipf_draws(np.random.default_rng(0), 100, 500)
    assert len(set(draws)) < len(draws)


# -- toy-scale smoke run ----------------------------------------------------------------


def _run(tmp_path, workload, trace):
    args = argparse.Namespace(workload=workload, seed=1, seconds=1, trace=trace)
    return bench.run_one(args, scale=TOY, work_dir=tmp_path)


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_workload_smoke(tmp_path_factory, workload):
    work = tmp_path_factory.getbasetemp() / "smoke"
    work.mkdir(exist_ok=True)
    record, result = _run(work, workload, 0)
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert set(metrics) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())
    assert metrics["recall_at_10"]["value"] >= workloads.HYBRID_FLOOR
    assert not list(work.glob(".bench_build/run-*"))


def test_traced_runs_report_layers(tmp_path_factory):
    work = tmp_path_factory.getbasetemp() / "smoke"
    work.mkdir(exist_ok=True)
    _, short = _run(work, "query_short", 1)
    _, long_ = _run(work, "query_long", 1)
    for result in (short, long_):
        assert result["correct"]
        assert set(result["metrics"]) == set(bench.PER_LAYER)
    short, long_ = (
        {k: v["value"] for k, v in r["metrics"].items()} for r in (short, long_)
    )
    assert short["semantic.scan_s"] > 0 and short["quantum.amplitude_encode_calls"] > 0
    assert long_["semantic.self_s"] == 0 and long_["quantum.score_s"] == 0
    assert long_["lexical.score_s"] > 0 and long_["tokenizer.encode_calls"] > 0
    layers = sum(short[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers == pytest.approx(short["trace.op_s"], rel=1e-6)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
