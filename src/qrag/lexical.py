"""BM25 sparse retrieval over an inverted index of BPE subword terms.

The index shares its tokenizer with the dense leg, so both retrieval legs
score the same term space. Scoring uses the +1-inside-log IDF variant,
which keeps every term weight strictly positive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, KeysView, Mapping, Sequence, TextIO

import numpy as np

from .corpus import Chunk
from .tokenizer import TokenizerModel

LEXICAL_FILE = "lexical.jsonl"
DOCLEN_FILE = "doclen.jsonl"


@dataclass(frozen=True)
class BM25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ValueError("k1 must be >= 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


class InvertedIndex:
    """Term -> posting arrays plus the length statistics BM25 needs.

    Each term's postings are held as two arrays: the rows of its chunks (in
    ``chunk_ids`` order) and their term frequencies as float64, in the order
    given, which is chunk-id order for a built index. No per-posting Python
    object is kept. Immutable once built; searches are reentrant and safe
    concurrently.
    """

    def __init__(
        self,
        N: int,
        avgdl: float,
        doc_len: dict[str, int],
        postings: Mapping[str, Sequence] | Iterable[tuple[str, Sequence]],
    ) -> None:
        """``postings`` gives each term's ``(chunk_id, tf)`` pairs, as a
        mapping or as an iterable of ``(term, pairs)``. An iterable is
        consumed one term at a time, so only one term's decoded postings
        need be alive at once.
        """
        if N != len(doc_len):
            raise ValueError(f"N={N} does not match {len(doc_len)} doc_len entries")
        # Doc lengths are ints, so the float64 mean is exact and must match.
        if doc_len and abs(avgdl - sum(doc_len.values()) / len(doc_len)) > 1e-9:
            raise ValueError("avgdl inconsistent with doc_len")
        self.N = N
        self.avgdl = avgdl
        self.doc_len = doc_len
        # Chunk rows follow doc_len insertion order, which is the build input
        # order.
        self._cids = list(doc_len.keys())
        self._row_of = {cid: i for i, cid in enumerate(self._cids)}
        self._dl = np.array([doc_len[cid] for cid in self._cids], dtype=np.float64)
        self._term_rows: dict[str, np.ndarray] = {}
        self._term_tfs: dict[str, np.ndarray] = {}
        if isinstance(postings, Mapping):
            postings = postings.items()
        for term, plist in postings:
            self._term_rows[term], self._term_tfs[term] = self._posting_arrays(
                term, plist
            )

    def _posting_arrays(
        self, term: str, plist: Sequence[Sequence]
    ) -> tuple[np.ndarray, np.ndarray]:
        """One term's ``(chunk_id, tf)`` pairs as checked row and tf arrays.

        The loops run in C (map/fromiter), which keeps loading the index
        cheap; a tf must be an int >= 1, so ``1.5``, ``"2"`` and ``true``
        from a file are refused rather than coerced, and a chunk may appear
        only once, since a repeat would push df past N and idf below 0.
        """
        try:
            rows = np.fromiter(
                map(self._row_of.__getitem__, map(itemgetter(0), plist)),
                dtype=np.intp,
                count=len(plist),
            )
        except KeyError as exc:
            raise ValueError(
                f"posting for term {term!r} names unknown chunk_id {exc.args[0]!r}"
            ) from None
        # Rows usually increase already; only lists out of row order (chunk-id
        # order differs from input order) pay for a sort.
        if not (rows[1:] > rows[:-1]).all():
            ordered = np.sort(rows)
            repeated = ordered[1:][ordered[1:] == ordered[:-1]]
            if len(repeated):
                raise ValueError(
                    f"postings for term {term!r} name chunk_id "
                    f"{self._cids[repeated[0]]!r} twice"
                )
        tf_list = list(map(itemgetter(1), plist))
        if set(map(type, tf_list)) <= {int}:
            tfs = np.fromiter(tf_list, dtype=np.float64, count=len(tf_list))
            if not (tfs < 1).any():
                return rows, tfs
        raise ValueError(f"tf in postings for term {term!r} must be an int >= 1")

    @property
    def chunk_ids(self) -> list[str]:
        return self._cids

    @property
    def terms(self) -> KeysView[str]:
        """Every indexed term, in index order."""
        return self._term_rows.keys()

    def posting_list(self, term: str) -> list[tuple[str, int]]:
        """``term``'s ``(chunk_id, tf)`` pairs in stored order; [] if unseen."""
        rows = self._term_rows.get(term)
        if rows is None:
            return []
        cids = map(self._cids.__getitem__, rows.tolist())
        return list(zip(cids, self._term_tfs[term].astype(np.int64).tolist()))

    def row_index(self, chunk_id: str) -> int:
        return self._row_of[chunk_id]

    def length_norm(self, p: BM25Params) -> np.ndarray:
        """Per-chunk k1 * (1 - b + b * dl / avgdl), the BM25 denominator term."""
        return p.k1 * (1.0 - p.b + p.b * self._dl / self.avgdl)


def build_index(chunks: Sequence[Chunk], tok: TokenizerModel) -> InvertedIndex:
    """Index the BPE surface tokens of each chunk.

    Postings are sorted by chunk id; term frequency counts every occurrence
    within a chunk.
    """
    if not chunks:
        raise ValueError("empty chunk list")
    doc_len: dict[str, int] = {}
    tf_maps: dict[str, dict[str, int]] = {}
    for c in chunks:
        if c.chunk_id in doc_len:
            raise ValueError(f"duplicate chunk_id: {c.chunk_id}")
        terms = tok.encode(c.text).surface
        doc_len[c.chunk_id] = len(terms)
        counts: dict[str, int] = {}
        for t in terms:
            counts[t] = counts.get(t, 0) + 1
        for t, tf in counts.items():
            tf_maps.setdefault(t, {})[c.chunk_id] = tf
    postings = ((term, sorted(tf_maps[term].items())) for term in sorted(tf_maps))
    avgdl = sum(doc_len.values()) / len(doc_len)
    return InvertedIndex(N=len(doc_len), avgdl=avgdl, doc_len=doc_len, postings=postings)


def idf(index: InvertedIndex, term: str) -> float:
    """ln(1 + (N - df + 0.5) / (df + 0.5)); finite and positive for df <= N."""
    df = len(index._term_rows.get(term, ()))
    return math.log(1.0 + (index.N - df + 0.5) / (df + 0.5))


def idf_weights(index: InvertedIndex) -> dict[str, float]:
    """``idf`` of every indexed term: the dense leg's term weights."""
    return {term: idf(index, term) for term in index.terms}


def _tf_in_chunk(index: InvertedIndex, term: str, chunk_id: str) -> int:
    rows = index._term_rows.get(term)
    if rows is None:
        return 0
    hit = np.flatnonzero(rows == index.row_index(chunk_id))
    return int(index._term_tfs[term][hit[0]]) if len(hit) else 0


def _dedup_terms(query_terms: Iterable[str]) -> list[str]:
    # Set-of-terms semantics, preserving first-appearance order so that the
    # floating-point accumulation order is identical everywhere.
    return list(dict.fromkeys(query_terms))


def bm25_score(
    index: InvertedIndex, p: BM25Params, query_terms: Sequence[str], chunk_id: str
) -> float:
    """BM25 score of one chunk for a set of query terms.

    score = sum over distinct terms of
    idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)).
    """
    if chunk_id not in index.doc_len:
        raise KeyError(f"unknown chunk_id: {chunk_id}")
    dl = float(index.doc_len[chunk_id])
    norm = p.k1 * (1.0 - p.b + p.b * dl / index.avgdl)
    score = 0.0
    for term in _dedup_terms(query_terms):
        tf = _tf_in_chunk(index, term, chunk_id)
        if tf == 0:
            continue
        score += idf(index, term) * (tf * (p.k1 + 1.0)) / (tf + norm)
    return score


def score_rows(
    index: InvertedIndex, p: BM25Params, query_terms: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row BM25 scores and a touched mask (True iff a query term hit).

    Term-at-a-time accumulation over posting lists; per-chunk addition order
    matches ``bm25_score``, so the two produce bitwise-identical scores.
    """
    terms = _dedup_terms(query_terms)
    scores = np.zeros(index.N, dtype=np.float64)
    touched = np.zeros(index.N, dtype=bool)
    norm = index.length_norm(p)
    for term in terms:
        rows = index._term_rows.get(term)
        if rows is None:
            continue
        tf = index._term_tfs[term]
        scores[rows] += idf(index, term) * (tf * (p.k1 + 1.0)) / (tf + norm[rows])
        touched[rows] = True
    return scores, touched


def top_rows(
    ids: Sequence[str], scores: np.ndarray, rows: np.ndarray, k: int
) -> list[int]:
    """Exact top-k of ``rows`` by (score descending, id ascending).

    A partition pass narrows the pool to everything at or above the k-th
    largest score before the exact tie-breaking sort, so selection cost is
    O(n) instead of O(n log n) for large n.
    """
    if len(rows) > k:
        vals = scores[rows]
        kth = np.partition(vals, len(vals) - k)[len(vals) - k]
        rows = rows[vals >= kth]
    return sorted(rows, key=lambda i: (-scores[i], ids[i]))[:k]


def search(
    index: InvertedIndex,
    p: BM25Params,
    query: str,
    k: int,
    tok: TokenizerModel,
) -> list[tuple[str, float]]:
    """BM25 top-k for a raw query string (empty after tokenization -> [])."""
    if k < 1:
        raise ValueError("k must be >= 1")
    terms = tok.encode(query).surface
    if not terms:
        return []
    scores, touched = score_rows(index, p, terms)
    best = top_rows(index._cids, scores, np.nonzero(touched)[0], k)
    return [(index._cids[i], float(scores[i])) for i in best]


# -- persistence -------------------------------------------------------------


def save(index: InvertedIndex, out_dir: str | Path) -> None:
    out = Path(out_dir)
    with (out / LEXICAL_FILE).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"N": index.N, "avgdl": index.avgdl}) + "\n")
        for term in sorted(index.terms):
            # json writes each (chunk_id, tf) tuple as a [chunk_id, tf] array.
            fh.write(
                json.dumps(
                    {"term": term, "postings": index.posting_list(term)},
                    ensure_ascii=False,
                )
                + "\n"
            )
    with (out / DOCLEN_FILE).open("w", encoding="utf-8") as fh:
        for cid, dl in index.doc_len.items():
            fh.write(json.dumps({"chunk_id": cid, "len": dl}, ensure_ascii=False) + "\n")


def _read_postings(fh: TextIO) -> Iterator[tuple[str, list[list]]]:
    for line in fh:
        if line.strip():
            obj = json.loads(line)
            yield obj["term"], obj["postings"]


def load(in_dir: str | Path) -> InvertedIndex:
    """Read an index written by ``save``, converting one term at a time."""
    src = Path(in_dir)
    doc_len: dict[str, int] = {}
    with (src / DOCLEN_FILE).open("r", encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            doc_len[obj["chunk_id"]] = int(obj["len"])
    with (src / LEXICAL_FILE).open("r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        return InvertedIndex(
            N=int(header["N"]),
            avgdl=float(header["avgdl"]),
            doc_len=doc_len,
            postings=_read_postings(fh),
        )
