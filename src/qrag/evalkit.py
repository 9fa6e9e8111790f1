"""Retrieval metrics (recall@k, MRR, nDCG@k), ROUGE-L text overlap, and a
batch evaluation runner over query/qrels files.

Relevance is graded in nDCG and binarized at >= 1 for recall and MRR.
Queries whose relevance set is empty are excluded from macro averages and
reported separately.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from . import _records
from .tokenizer import normalize

QrelSet = dict[str, dict[str, int]]


def recall_at_k(ranked: Sequence[str], relevant: set[str], k: int) -> float:
    """|top-k intersect relevant| / |relevant| (0.0 when relevant is empty)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        return 0.0
    return len(set(ranked[:k]) & relevant) / len(relevant)


def reciprocal_rank(ranked: Sequence[str], relevant: set[str]) -> float:
    """1 / rank of the first relevant result, 0.0 if none retrieved."""
    for position, cid in enumerate(ranked, start=1):
        if cid in relevant:
            return 1.0 / position
    return 0.0


def mrr(ranked_lists: Sequence[Sequence[str]], relevants: Sequence[set[str]]) -> float:
    """Mean reciprocal rank over queries with a non-empty relevant set."""
    pairs = [(r, rel) for r, rel in zip(ranked_lists, relevants) if rel]
    if not pairs:
        raise ValueError("no evaluable queries")
    return sum(reciprocal_rank(r, rel) for r, rel in pairs) / len(pairs)


def ndcg_at_k(ranked: Sequence[str], rels: Mapping[str, int], k: int) -> float:
    """DCG@k / ideal DCG@k with rel_i / log2(i + 1) gains; 0 when the ideal is 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    dcg = 0.0
    for position, cid in enumerate(ranked[:k], start=1):
        rel = rels.get(cid, 0)
        if rel:
            dcg += rel / math.log2(position + 1)
    ideal = 0.0
    for position, rel in enumerate(sorted(rels.values(), reverse=True)[:k], start=1):
        if rel:
            ideal += rel / math.log2(position + 1)
    return dcg / ideal if ideal > 0 else 0.0


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f: float


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    # Two-row dynamic program over token sequences.
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(reference: str, hypothesis: str) -> RougeScore:
    """ROUGE-L over whitespace tokens after normalization.

    P = LCS/|hyp|, R = LCS/|ref|, F = harmonic mean (beta = 1); all zeros
    when either side is empty.
    """
    ref = normalize(reference).split()
    hyp = normalize(hypothesis).split()
    if not ref or not hyp:
        return RougeScore(0.0, 0.0, 0.0)
    lcs = _lcs_length(ref, hyp)
    precision = lcs / len(hyp)
    recall = lcs / len(ref)
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return RougeScore(precision, recall, f)


@dataclass
class MetricReport:
    """Per-query and macro-averaged retrieval metrics."""

    per_query: dict[str, dict[str, float]]
    macro: dict[str, float]
    evaluated: int
    skipped_no_relevant: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return _records.to_dict(self)


def evaluate_run(
    run: Mapping[str, Sequence[str]], qrels: QrelSet, ks: Sequence[int]
) -> MetricReport:
    """Compose the unit metrics per query and macro-average them.

    Every run qid must appear in qrels (extra qrels entries are ignored);
    queries with no relevant documents are skipped and listed.
    """
    if not run:
        raise ValueError("no queries")
    per_query: dict[str, dict[str, float]] = {}
    skipped: list[str] = []
    for qid, ranked in run.items():
        if qid not in qrels:
            raise KeyError(f"qid missing from qrels: {qid}")
        rels = qrels[qid]
        relevant = {cid for cid, r in rels.items() if r >= 1}
        if not relevant:
            skipped.append(qid)
            continue
        metrics: dict[str, float] = {}
        for k in ks:
            metrics[f"recall@{k}"] = recall_at_k(ranked, relevant, k)
            metrics[f"ndcg@{k}"] = ndcg_at_k(ranked, rels, k)
        metrics["mrr"] = reciprocal_rank(ranked, relevant)
        per_query[qid] = metrics
    if not per_query:
        raise ValueError("no evaluable queries")
    names = list(next(iter(per_query.values())).keys())
    macro = {
        name: sum(m[name] for m in per_query.values()) / len(per_query)
        for name in names
    }
    return MetricReport(
        per_query=per_query,
        macro=macro,
        evaluated=len(per_query),
        skipped_no_relevant=skipped,
    )


# -- file formats -------------------------------------------------------------


def load_queries(path: str | Path) -> list[tuple[str, str]]:
    """queries.jsonl: {"qid": str, "text": str} per line."""
    return [(str(obj["qid"]), obj["text"]) for obj in _records.read_jsonl(path)]


def load_qrels(path: str | Path) -> QrelSet:
    """qrels.jsonl: {"qid": str, "chunk_id": str, "rel": int} per line."""
    qrels: QrelSet = {}
    for obj in _records.read_jsonl(path):
        qrels.setdefault(str(obj["qid"]), {})[str(obj["chunk_id"])] = int(obj["rel"])
    return qrels


def load_run(path: str | Path) -> dict[str, list[str]]:
    """run.jsonl: {"qid": str, "ranking": [chunk_id, ...]} per line."""
    return {str(obj["qid"]): list(obj["ranking"]) for obj in _records.read_jsonl(path)}


def write_run(run: Mapping[str, Sequence[str]], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for qid, ranking in run.items():
            fh.write(
                json.dumps({"qid": qid, "ranking": list(ranking)}, ensure_ascii=False)
                + "\n"
            )


def write_report(report: MetricReport, path: str | Path) -> None:
    _records.write_json(report.to_dict(), path)
