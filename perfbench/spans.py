"""Span recorder for the traced run.

The benchmark wraps the public functions and methods at each layer boundary
of the ``qrag`` package (``TRACE_POINTS``) and records one span per call:
name, start, end, parent span and request id. Spans of one operation (a
build, a query, an HTTP request) share the request id of the operation's
root span. Spans stay in memory until the run writes them out.

A layer's self time is its span's duration minus the part of that interval
its child spans cover. Generator functions (``corpus.ingest_jsonl`` and
``corpus.preprocess``) get one span per ``next()`` call, so they are charged
for their iteration time and not for the consumer's.

A trace point whose function no longer exists is listed in ``missing`` and
shows up as an absent span; installing never fails because of it.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import stats

PACKAGE = "qrag"
LAYERS = ("corpus", "tokenizer", "lexical", "semantic", "quantum", "engine", "service", "evalkit")
# Files of a persisted index, each reported as engine.index_bytes.<file>.
INDEX_FILES = (
    "manifest.json",
    "chunks.jsonl",
    "tokenizer.json",
    "lexical.jsonl",
    "doclen.jsonl",
    "vectors.bin",
    "vectors.ids",
    "stats.json",
)

# Roots of one operation per workload kind, and of the set-up (index load).
OP_ROOTS = ("engine.build_all", "engine.RetrievalEngine.retrieve", "service.SearchHandler.do_POST")
LOAD_ROOT = "engine.load_index"


def _count_chars(args, kwargs, result):
    return {"chars": len(args[1])}


def _count_rows(args, kwargs, result):
    return {"rows": len(args[0])}


def _count_touched(args, kwargs, result):
    return {"rows_touched": int(result[1].sum())}


def _count_candidates(args, kwargs, result):
    return {"candidates": len(args[0]), "hits": len(result)}


# (layer, qualified name inside the layer's module, counter or None)
TRACE_POINTS: tuple[tuple[str, str, Callable | None], ...] = (
    ("corpus", "ingest_jsonl", None),
    ("corpus", "preprocess", None),
    ("corpus", "chunk", None),
    ("tokenizer", "train_bpe", None),
    ("tokenizer", "TokenizerModel.encode", _count_chars),
    ("tokenizer", "TokenizerModel.decode", None),
    ("tokenizer", "TokenizerModel.token_count", None),
    ("lexical", "build_index", None),
    ("lexical", "score_rows", _count_touched),
    ("lexical", "top_rows", None),
    ("semantic", "embed", None),
    ("semantic", "VectorIndex.build", None),
    ("semantic", "VectorIndex.scan", _count_rows),
    ("semantic", "top_k", None),
    ("quantum", "amplitude_encode", None),
    ("quantum", "overlap", None),
    ("quantum", "normalize_lexical", None),
    ("quantum", "rank_candidates", _count_candidates),
    ("engine", "build_all", None),
    ("engine", "save_index", None),
    ("engine", "load_index", None),
    ("engine", "RetrievalEngine.retrieve", None),
    ("engine", "format_context", None),
    ("service", "SearchHandler.do_POST", None),
    ("evalkit", "evaluate_run", None),
)


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int  # 0 for a root span
    rid: int  # sid of the root span of the operation
    counts: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Collects spans from any number of threads while ``active`` is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        rec = self

        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            stack = rec._stack()
            sid = next(rec._ids)
            parent, rid = stack[-1] if stack else (0, sid)
            stack.append((sid, rid))
            result = counts = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if count is not None and result is not None:
                    counts = count(args, kwargs, result)
                rec.spans.append(Span(sid, name, start, end, parent, rid, counts))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        step = self.wrap(name, next)

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                yield item

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def write(self, path: Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def install(rec: Recorder, points=TRACE_POINTS) -> Callable[[], None]:
    """Wrap every trace point in the loaded ``qrag`` modules; return an undo."""
    undo: list[tuple[object, str, object]] = []
    for layer, qualname, count in points:
        name = f"{layer}.{qualname}"
        try:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            rec.missing.append(name)
            continue
        *owner_path, attr = qualname.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
        raw = owner.__dict__.get(attr) if owner is not None else None
        if raw is None:
            rec.missing.append(name)
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(rec.wrap(name, raw.__func__, count))
        else:
            wrapped = rec.wrap(name, raw, count)
        undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        if owner is module:
            # Modules that imported the function by name call their own copy.
            for mod_name, other in list(sys.modules.items()):
                if mod_name.startswith(PACKAGE) and other is not module:
                    if getattr(other, attr, None) is raw:
                        undo.append((other, attr, raw))
                        setattr(other, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return uninstall


# -- analysis -----------------------------------------------------------------


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: s.duration - covered(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


def self_sum_error(spans: Sequence[Span]) -> float:
    """Largest gap, over operations, between an operation's root duration
    and the sum of the self times of all its spans (0 when they agree)."""
    own = self_times(spans)
    per_rid: dict[int, float] = defaultdict(float)
    for s in spans:
        per_rid[s.rid] += own[s.sid]
    roots = [s for s in spans if s.parent == 0]
    return max((abs(per_rid[r.sid] - r.duration) for r in roots), default=0.0)


def split_operations(spans: Sequence[Span]) -> tuple[list[Span], list[Span], list[Span]]:
    """Partition spans into (operation spans, operation roots, load roots)."""
    op_rids = {s.sid for s in spans if s.parent == 0 and s.name in OP_ROOTS}
    ops = [s for s in spans if s.rid in op_rids]
    roots = [s for s in ops if s.parent == 0]
    loads = [s for s in spans if s.parent == 0 and s.name == LOAD_ROOT]
    return ops, roots, loads


def layer_metrics(spans: Sequence[Span]) -> dict[str, float]:
    """Per-operation layer figures from the spans of one traced run.

    Times are seconds of self time per operation (per build, query or
    request), unless the name says otherwise; counts are per operation.
    Absent spans give 0.
    """
    ops, roots, loads = split_operations(spans)
    n = max(1, len(roots))
    own = self_times(ops)
    self_by_name: dict[str, float] = defaultdict(float)
    incl_by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    for s in ops:
        self_by_name[s.name] += own[s.sid]
        incl_by_name[s.name] += s.duration
        calls[s.name] += 1
        self_by_layer[s.layer] += own[s.sid]
        for key, value in (s.counts or {}).items():
            counts[f"{s.name}:{key}"] += value
    # evalkit scores a whole run, outside any single operation.
    for s in spans:
        if s.parent == 0 and s.name == "evalkit.evaluate_run":
            self_by_name[s.name] += s.duration

    def per_op(*names: str) -> float:
        return sum(self_by_name[x] for x in names) / n

    hits = counts["quantum.rank_candidates:hits"]
    out = {
        "corpus.ingest_filter_s": per_op("corpus.ingest_jsonl", "corpus.preprocess"),
        "corpus.chunk_s": per_op("corpus.chunk"),
        "tokenizer.train_s": per_op("tokenizer.train_bpe"),
        "lexical.build_s": per_op("lexical.build_index"),
        "semantic.embed_s": per_op("semantic.embed", "semantic.VectorIndex.build"),
        "engine.save_s": per_op("engine.save_index"),
        "tokenizer.encode_s": per_op("tokenizer.TokenizerModel.encode"),
        "tokenizer.encode_calls": calls["tokenizer.TokenizerModel.encode"] / n,
        "tokenizer.encoded_chars": counts["tokenizer.TokenizerModel.encode:chars"] / n,
        "semantic.scan_s": per_op("semantic.VectorIndex.scan", "semantic.top_k"),
        "semantic.rows_scanned": counts["semantic.VectorIndex.scan:rows"] / n,
        "quantum.score_s": per_op("quantum.amplitude_encode", "quantum.overlap"),
        "quantum.amplitude_encode_calls": calls["quantum.amplitude_encode"] / n,
        "quantum.rank_s": per_op("quantum.rank_candidates", "quantum.normalize_lexical"),
        "lexical.score_s": per_op("lexical.score_rows", "lexical.top_rows"),
        "lexical.rows_touched": counts["lexical.score_rows:rows_touched"] / n,
        "engine.context_s": incl_by_name["engine.format_context"] / n,
        "engine.retrieve_self_s": per_op("engine.RetrievalEngine.retrieve"),
        "engine.candidates_per_hit": counts["quantum.rank_candidates:candidates"] / hits
        if hits
        else 0.0,
        "evalkit.evaluate_s": per_op("evalkit.evaluate_run"),
        "engine.load_s": stats.median([s.duration for s in loads]) if loads else 0.0,
        "trace.op_s": sum(r.duration for r in roots) / n,
        "trace.spans_per_op": len(ops) / n,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer] / n
    return out


def span_cost_s(samples: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""
    rec = Recorder()

    def noop():
        return None

    traced = rec.wrap("calibration.noop", noop)
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        traced()
    return max(0.0, (time.perf_counter() - t0 - plain) / samples)
