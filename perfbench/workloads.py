"""The four workloads, their inputs and their output checks.

All workloads share one planted corpus: ``synthetic.make_planted_benchmark``
over 10,000 documents, built with ``EngineConfig(vocab_size=2500)``. It is
generated and built once per checkout and program source, and kept under
``.bench_build/``; that preparation is not measured. The run's ``--seed``
draws everything a workload sends: which planted queries, in what order,
the fresh words added to long queries, Zipf popularity and the Poisson
arrival schedule.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

import loadgen
import spans
import stats
from qrag import engine as engine_mod
from qrag import evalkit, synthetic

HERE = Path(__file__).resolve().parent
# Recall floors of the acceptance suite: a single leg on its matching query
# half, and the hybrid modes over all queries.
LEG_FLOOR = 0.95
HYBRID_FLOOR = 0.90
CORPUS_SEED = 0
SETUP_REPEATS = 3
WARMUP = 10
# p90 with at least 10 samples beyond it needs 100 samples.
MIN_SAMPLES = 110
CONTEXT_CHECKS = 100
EQUALITY_CHECKS = 20
VERIFY_SEMANTIC = 40


@dataclass(frozen=True)
class Scale:
    """Corpus size and the sizes that follow from it (tests run a toy one)."""

    n_docs: int = 10000
    n_lexical: int = 4000
    n_semantic: int = 4000
    lexicon_size: int = 1500
    words_per_doc: tuple[int, int] = (90, 120)
    vocab_size: int = 2500
    serve_rate: float = 8.0

    def corpus_spec(self) -> dict:
        return {
            "n_docs": self.n_docs,
            "n_lexical": self.n_lexical,
            "n_semantic": self.n_semantic,
            "seed": CORPUS_SEED,
            "lexicon_size": self.lexicon_size,
            "words_per_doc": self.words_per_doc,
        }


FULL = Scale()


@dataclass
class Planted:
    corpus_path: Path
    index_dir: Path
    lexical: list[tuple[str, str]]  # (qid, text)
    semantic: list[tuple[str, str]]
    targets: dict[str, str]  # qid -> relevant chunk id
    words: list[str]  # every word of the corpus


@dataclass
class Answer:
    """One operation's outcome, reduced to what the checks need."""

    qid: str
    query: str
    latency_s: float
    body: dict | None
    error: str = ""
    traced: bool = False


@dataclass
class Run:
    scale: Scale
    seed: int
    seconds: float
    src_root: Path
    work_dir: Path
    recorder: spans.Recorder | None = None
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def build_dir(self) -> Path:
        return self.work_dir / ".bench_build"

    @property
    def scratch(self) -> Path:
        return self.build_dir / f"run-{os.getpid()}"

    def rng(self, purpose: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, purpose])

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation or check; a false ``ok`` fails it."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    @contextmanager
    def untraced(self):
        """Detach the recorder inside the block: nothing there is traced."""
        recorder, self.recorder = self.recorder, None
        try:
            yield
        finally:
            self.recorder = recorder

    @contextmanager
    def tracing(self):
        """Record spans inside the block (a no-op on an untraced run)."""
        if self.recorder is not None:
            self.recorder.active = True
        try:
            yield
        finally:
            if self.recorder is not None:
                self.recorder.active = False


# -- the shared corpus ----------------------------------------------------------


def engine_config(scale: Scale) -> engine_mod.EngineConfig:
    return engine_mod.EngineConfig(vocab_size=scale.vocab_size)


def _cache_key(scale: Scale, src_root: Path) -> str:
    h = hashlib.sha256(json.dumps(scale.corpus_spec()).encode())
    h.update(str(scale.vocab_size).encode())
    for path in sorted((src_root / "src" / "qrag").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def prepare(run: Run) -> Planted:
    """The planted corpus and its built index, made once and then reused.

    A missing one is built in a child process, so that the peak memory of
    this process stays the workload's own.
    """
    scale = run.scale
    target = run.build_dir / f"planted-{_cache_key(scale, run.src_root)}"
    if not (target / "planted.json").exists():
        argv = [sys.executable, str(HERE / "workloads.py"), json.dumps(asdict(scale)), str(target)]
        subprocess.run(argv, env=child_env(run), check=True)
    data = json.loads((target / "planted.json").read_text())
    by_kind: dict[str, list[tuple[str, str]]] = {"lexical": [], "semantic": []}
    for q in data["queries"]:
        by_kind[q["kind"]].append((q["qid"], q["text"]))
    return Planted(
        corpus_path=target / "corpus.jsonl",
        index_dir=target / "index",
        lexical=by_kind["lexical"],
        semantic=by_kind["semantic"],
        targets={qid: doc + "#0" for qid, doc in data["targets"].items()},
        words=data["words"],
    )


def build_planted(scale: Scale, target: Path) -> None:
    """Generate the corpus, build its index and write the query set."""
    tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    bench = synthetic.make_planted_benchmark(**scale.corpus_spec())
    synthetic.write_jsonl(bench.records, tmp / "corpus.jsonl")
    engine_mod.build_all(tmp / "corpus.jsonl", engine_config(scale), tmp / "index")
    words = sorted({w for rec in bench.records for w in rec["text"].split()})
    payload = {"queries": bench.queries, "targets": bench.targets, "words": words}
    (tmp / "planted.json").write_text(json.dumps(payload, ensure_ascii=False))
    try:
        os.replace(tmp, target)
    except OSError:  # another run finished first
        shutil.rmtree(tmp, ignore_errors=True)


def child_env(run: Run) -> dict:
    """Environment for a child that imports ``qrag`` and the benchmark."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(run.src_root / "src"), str(HERE)]))


# -- inputs drawn from the seed -------------------------------------------------


def short_queries(planted: Planted, rng: np.random.Generator) -> list[tuple[str, str]]:
    """Every planted lexical query once, in seeded order."""
    return [planted.lexical[i] for i in rng.permutation(len(planted.lexical))]


def long_queries(planted: Planted, rng: np.random.Generator) -> list[tuple[str, str]]:
    """Every planted semantic query once, in seeded order, with about one
    word in ten a fresh word that occurs nowhere in the corpus or earlier."""
    taken = set(planted.words)
    out = []
    for i in rng.permutation(len(planted.semantic)):
        qid, text = planted.semantic[i]
        words = text.split()
        n_fresh = max(1, round(len(words) / 9))
        fresh: list[str] = []
        while len(fresh) < n_fresh:
            for w in synthetic.gurmukhi_lexicon(rng, n_fresh - len(fresh)):
                if w not in taken:
                    taken.add(w)
                    fresh.append(w)
        for w in fresh:
            words.insert(int(rng.integers(len(words) + 1)), w)
        out.append((qid, " ".join(words)))
    return out


# -- shared steps -------------------------------------------------------------------


def timed_loads(run: Run, index_dir: Path) -> tuple[engine_mod.RetrievalEngine, float]:
    """Load the index ``setup_repeats`` times; return the last engine and the
    median load time."""
    times = []
    engine = None
    for _ in range(SETUP_REPEATS):
        engine = None
        gc.collect()
        with run.tracing():
            t0 = time.perf_counter()
            engine = engine_mod.load_index(index_dir)
            times.append(time.perf_counter() - t0)
    return engine, stats.median(times)


def ask_all(
    run: Run,
    engine: engine_mod.RetrievalEngine,
    items: Sequence[tuple[str, str]],
    mode: str,
    until: Callable[[int, float], bool],
) -> tuple[list[Answer], float]:
    """Closed loop, one caller: send ``items`` in order until ``until(n, t)``;
    return the answers and the loop's wall time.

    On a traced run every other query is traced, so the untraced half
    measures what tracing costs.
    """
    answers: list[Answer] = []
    t0 = time.perf_counter()
    last = t0
    for i, (qid, text) in enumerate(items):
        if until(len(answers), last - t0):
            break
        traced = run.recorder is not None and i % 2 == 0
        if run.recorder is not None:
            run.recorder.active = traced
        start = time.perf_counter()
        try:
            body = engine.retrieve(text, mode=mode).to_dict(include_timings=False)
            error = ""
        except Exception as exc:  # a failed operation, counted below
            body, error = None, f"{type(exc).__name__}: {exc}"
        last = time.perf_counter()
        answers.append(Answer(qid, text, last - start, body, error, traced))
    if run.recorder is not None:
        run.recorder.active = False
    return answers, last - t0


def check_answers(
    run: Run,
    answers: Sequence[Answer],
    targets: dict[str, str],
    tokenizer,
    floor: float,
    label: str,
) -> float:
    """Check every answer, a seeded sample of contexts, and the recall floor;
    return recall@10."""
    config = engine_config(run.scale)
    k = config.fusion.k_final
    budget = config.context_budget_tokens
    sample = set(_sample(run.rng(90), len(answers), CONTEXT_CHECKS))
    ratios = []
    ranking: dict[str, list[str]] = {}
    for i, a in enumerate(answers):
        problem = a.error or ("" if a.body is not None else "no response")
        if not problem:
            hits = a.body["hits"]
            ranking[f"r{i}"] = [h["chunk_id"] for h in hits]
            if len(hits) > k:
                problem = f"{len(hits)} hits for k={k}"
            elif [h["rank"] for h in hits] != list(range(1, len(hits) + 1)):
                problem = "ranks are not 1..n"
            elif i in sample:
                tokens = tokenizer.token_count(a.body["context"])
                ratios.append(tokens / budget)
                if tokens > budget:
                    problem = f"context has {tokens} tokens, budget {budget}"
        run.check(not problem, f"{label} {a.qid}: {problem}")
    qrels = {f"r{i}": {targets[a.qid]: 1} for i, a in enumerate(answers)}
    with run.tracing():
        report = evalkit.evaluate_run(ranking, qrels, ks=[10]) if ranking else None
    recall = report.macro["recall@10"] * len(ranking) / len(answers) if report else 0.0
    run.check(recall >= floor, f"{label}: recall@10 {recall:.3f} below floor {floor}")
    if ratios:
        run.layer["engine.context_tokens_per_budget"] = sum(ratios) / len(ratios)
    return recall


def index_figures(run: Run, index_dir: Path, corpus_path: Path) -> None:
    sizes = {p.name: p.stat().st_size for p in index_dir.iterdir() if p.is_file()}
    run.end_to_end["index_bytes_per_input_byte"] = sum(sizes.values()) / corpus_path.stat().st_size
    for name in spans.INDEX_FILES:
        run.layer[f"engine.index_bytes.{name}"] = float(sizes.get(name, 0))


def latency_figures(run: Run, latencies_s: Sequence[float]) -> None:
    ms = [x * 1000.0 for x in latencies_s]
    run.notes["latency_samples"] = len(ms)
    run.notes["latency_p50_ms"] = stats.median(ms)
    run.end_to_end["latency_p90_ms"] = stats.percentile(ms, stats.TAIL_PERCENTILE)


def trace_figures(run: Run, trace: Sequence[spans.Span], overhead_ratio: float | None) -> None:
    """Per-layer figures from ``trace``; the self times of each operation's
    spans must add up to the operation's duration."""
    ops, _, _ = spans.split_operations(trace)
    error = spans.self_sum_error(ops)
    run.check(error < 1e-6, f"self times miss their operation by {error:.3g} s")
    figures = spans.layer_metrics(trace)
    if overhead_ratio is None:
        op_s = figures["trace.op_s"]
        extra = figures["trace.spans_per_op"] * spans.span_cost_s()
        overhead_ratio = op_s / (op_s - extra) if op_s > extra else 0.0
    figures["trace.overhead_ratio"] = overhead_ratio
    run.layer.update(figures)


def _sample(rng: np.random.Generator, n: int, k: int) -> list[int]:
    """``min(k, n)`` distinct indices below ``n``."""
    return rng.choice(n, size=min(k, n), replace=False).tolist()


def send_all(n: int, t: float) -> bool:
    return False


def until_done(seconds: float) -> Callable[[int, float], bool]:
    """Stop after ``seconds`` once ``MIN_SAMPLES`` are in; never past 3x."""
    return lambda n, t: (t >= seconds and n >= MIN_SAMPLES) or t >= 3 * seconds


def finish_in_process(run: Run, answers: Sequence[Answer], wall_s: float) -> None:
    run.end_to_end["peak_rss_mb"] = loadgen.read_peak_rss_mb()
    if run.recorder is None:
        latency_figures(run, [a.latency_s for a in answers])
        run.notes["throughput_per_s"] = len(answers) / wall_s
        return
    traced = [a.latency_s for a in answers if a.traced]
    untraced = [a.latency_s for a in answers if not a.traced]
    trace_figures(run, run.recorder.spans, stats.median(traced) / stats.median(untraced))


# -- workloads ----------------------------------------------------------------------


def build(run: Run) -> None:
    """``build_all`` over the planted corpus, then ``load_index`` of the result."""
    planted = prepare(run)
    run.scratch.mkdir(parents=True, exist_ok=True)
    out = run.scratch / "index"
    with run.tracing():
        t0 = time.perf_counter()
        manifest = engine_mod.build_all(planted.corpus_path, engine_config(run.scale), out)
        build_s = time.perf_counter() - t0
    run.check(manifest.chunk_count >= run.scale.n_docs, f"only {manifest.chunk_count} chunks")
    run.check(*same_index(out, planted.index_dir))
    engine, setup_s = timed_loads(run, out)
    run.end_to_end["setup_s"] = setup_s
    run.notes["build_s"] = build_s
    index_figures(run, out, planted.corpus_path)

    # The new index must answer planted queries: each leg on its own half.
    # The lexical leg runs for half the run's seconds and gives the latency;
    # the build itself is the bulk of the run.
    lex = short_queries(planted, run.rng(6))
    sem = planted.semantic
    sem = [sem[i] for i in _sample(run.rng(7), len(sem), VERIFY_SEMANTIC)]
    with run.untraced():
        lex_answers, _ = ask_all(run, engine, lex, "sparse_only", until_done(run.seconds / 2))
        sem_answers, _ = ask_all(run, engine, sem, "dense_only", send_all)
    recalls = [
        check_answers(run, answers, planted.targets, engine.tokenizer, LEG_FLOOR, mode)
        for answers, mode in ((lex_answers, "sparse_only"), (sem_answers, "dense_only"))
    ]
    run.end_to_end["recall_at_10"] = (
        recalls[0] * len(lex_answers) + recalls[1] * len(sem_answers)
    ) / (len(lex_answers) + len(sem_answers))
    latency_figures(run, [a.latency_s for a in lex_answers])
    run.end_to_end["peak_rss_mb"] = loadgen.read_peak_rss_mb()
    if run.recorder is not None:
        trace_figures(run, run.recorder.spans, None)


def same_index(a: Path, b: Path) -> tuple[bool, str]:
    """Two builds of one corpus must write byte-identical files; the manifest
    differs only in its timestamp, so it is compared by its file digests."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return False, f"index file sets differ: {names_a} vs {names_b}"
    for name in names_a:
        if name == "manifest.json":
            digests = [json.loads((d / name).read_text())["files"] for d in (a, b)]
            if digests[0] != digests[1]:
                return False, "manifest digests differ between two builds"
        elif (a / name).read_bytes() != (b / name).read_bytes():
            return False, f"{name} differs between two builds"
    return True, ""


def _query_workload(run: Run, mode: str, pick: Callable, floor: float) -> None:
    planted = prepare(run)
    engine, setup_s = timed_loads(run, planted.index_dir)
    run.end_to_end["setup_s"] = setup_s
    index_figures(run, planted.index_dir, planted.corpus_path)
    items = pick(planted, run.rng(1))
    warm, items = items[-WARMUP :], items[: -WARMUP]
    with run.untraced():
        ask_all(run, engine, warm, mode, send_all)
    answers, wall = ask_all(run, engine, items, mode, until_done(run.seconds))
    run.end_to_end["recall_at_10"] = check_answers(
        run, answers, planted.targets, engine.tokenizer, floor, mode
    )
    finish_in_process(run, answers, wall)


def query_short(run: Run) -> None:
    """Planted lexical queries through the service's default hybrid mode."""
    _query_workload(run, "quantum_interference", short_queries, HYBRID_FLOOR)


def query_long(run: Run) -> None:
    """Planted semantic queries with fresh words, lexical leg only."""
    _query_workload(run, "sparse_only", long_queries, HYBRID_FLOOR)


def serve(run: Run) -> None:
    """``qrag serve`` in a child process: an open loop, then a closed loop."""
    planted = prepare(run)
    run.scratch.mkdir(parents=True, exist_ok=True)
    local = engine_mod.load_index(planted.index_dir)
    index_figures(run, planted.index_dir, planted.corpus_path)
    conns = loadgen.connection_count()
    run.notes["connections"] = conns
    lex = planted.lexical

    def exchanges(purpose: int, n: int) -> list[loadgen.Exchange]:
        draws = loadgen.zipf_draws(run.rng(purpose), len(lex), n)
        return [loadgen.Exchange(i, lex[d][1]) for i, d in enumerate(draws)]

    # The open loop feeds per-layer figures only, so it runs on traced runs.
    open_ex = []
    if run.recorder is not None:
        rate = run.scale.serve_rate
        open_ex = exchanges(3, max(MIN_SAMPLES, math.ceil(rate * run.seconds)))
        for ex, due in zip(open_ex, loadgen.poisson_schedule(run.rng(4), rate, len(open_ex))):
            ex.due = due
    closed_ex = exchanges(5, 20_000)
    trace_out = run.scratch / "child_spans.jsonl"
    setups = []
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = _server(run, planted.index_dir, trace_out if run.recorder else None)
            server.start()
            setups.append(server.setup_s)
        for ex in exchanges(8, WARMUP):
            loadgen.search(server.port, ex)
        if open_ex:
            loadgen.open_loop(server.port, open_ex, conns)
        start = time.perf_counter()
        closed = loadgen.closed_loop(
            server.port, closed_ex, conns, run.seconds, MIN_SAMPLES
        )
        run.end_to_end["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    run.end_to_end["setup_s"] = stats.median(setups)
    run.notes["throughput_per_s"] = len(closed) / (max(ex.done for ex in closed) - start)
    latency_figures(run, [ex.latency_s for ex in closed])

    served = open_ex + closed
    qid_of = {text: qid for qid, text in lex}
    answers = [
        Answer(qid_of[ex.query], ex.query, ex.latency_s, ex.body if ex.status == 200 else None,
               ex.error or (f"HTTP {ex.status}" if ex.status != 200 else ""))
        for ex in served
    ]
    run.end_to_end["recall_at_10"] = check_answers(
        run, answers, planted.targets, local.tokenizer, HYBRID_FLOOR, "serve"
    )
    # A sample of served responses must equal the in-process response.
    for ex in (served[i] for i in _sample(run.rng(9), len(served), EQUALITY_CHECKS)):
        if ex.body is not None:
            response = local.retrieve(ex.query).to_dict(include_timings=False)
            expected = json.loads(json.dumps(response))
            got = {key: value for key, value in ex.body.items() if key != "timings"}
            run.check(got == expected, f"served response differs from in-process: {ex.query!r}")

    timed = [ex for ex in closed if ex.body and "timings" in ex.body]
    engine_ms = [ex.body["timings"]["total"] for ex in timed]
    run.layer["service.engine_p50_ms"] = stats.median(engine_ms)
    run.layer["service.overhead_p50_ms"] = stats.median(
        [ex.latency_s * 1000.0 - ms for ex, ms in zip(timed, engine_ms)]
    )
    if run.recorder is not None:
        open_ms = [ex.latency_from_due_s * 1000.0 for ex in open_ex]
        run.layer["loadgen.open_p50_ms"] = stats.median(open_ms)
        run.layer["loadgen.open_p90_ms"] = stats.percentile(open_ms, stats.TAIL_PERCENTILE)
        run.layer["loadgen.lateness_p90_ms"] = stats.percentile(
            [(ex.dispatched - ex.due) * 1000.0 for ex in open_ex], stats.TAIL_PERCENTILE
        )
        child = [spans.Span(**json.loads(line)) for line in trace_out.read_text().splitlines()]
        trace_figures(run, child, None)


def _server(run: Run, index_dir: Path, trace_out: Path | None) -> loadgen.ServerProcess:
    """``qrag serve`` on a free port; through the tracing launcher if asked."""
    port = loadgen.free_port()
    cli = ["serve", "--index", str(index_dir), "--addr", f"{loadgen.HOST}:{port}"]
    if trace_out is None:
        argv = [sys.executable, "-m", "qrag.cli", *cli]
    else:
        argv = [sys.executable, str(HERE / "serve_child.py"), str(trace_out), *cli]
    return loadgen.ServerProcess(argv, child_env(run), port, run.scratch / "server.log")


WORKLOADS: dict[str, Callable[[Run], None]] = {
    "build": build,
    "query_short": query_short,
    "query_long": query_long,
    "serve": serve,
}


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    spec["words_per_doc"] = tuple(spec["words_per_doc"])
    build_planted(Scale(**spec), Path(sys.argv[2]))
