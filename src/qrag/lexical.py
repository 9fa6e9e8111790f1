"""BM25 sparse retrieval over an inverted index of BPE subword terms.

The engine tokenizes; this module indexes and searches the terms it is
given, the same vocab ids the dense leg embeds, so both retrieval legs
score the same term space: term j is vocab id j. Scoring uses the
+1-inside-log IDF variant, which keeps every term weight strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _npy

LEXICAL_FILE = "lexical.npy"
# The arrays of ``lexical.npy``, in file order: term j's postings are
# positions offsets[j] to offsets[j + 1] of the rows and of the tfs. The
# chunks' lengths are not stored here: they are the chunk table's counts.
LEXICAL_ARRAYS = (
    _npy.Array("offsets", "integer", 1, "V + 1"),
    _npy.Array("rows", "integer", 1, "the last offset"),
    _npy.Array("tfs", "integer", 1, "the last offset"),
)

# Postings per block of ``InvertedIndex.impacts``: its scratch is a few
# arrays of this length (256 KiB each in float64), whatever the index size.
IMPACT_BLOCK = 1 << 15
# A term in at least 1 / DENSE_DF of the chunks is scored from a dense row
# of N impacts. On 2 vCPUs with numpy 2.4, ``np.add.at`` costs about 4 ns a
# scattered posting and a contiguous row add about 1 ns a row, so at df >= N/4
# the row is the cheaper of the two; N/8 was no faster on the benchmark
# queries and held three times the rows.
DENSE_DF = 4


@dataclass(frozen=True)
class BM25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        if not 0 <= self.k1 < math.inf:
            raise ValueError("k1 must be finite and >= 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


class Impacts(NamedTuple):
    """The term scores under one ``BM25Params``, kept by
    ``InvertedIndex.impacts`` with those params in one tuple, so that no
    thread sees one array without the other."""

    postings: np.ndarray  # one float64 per posting of a sparsely scored term
    dense: np.ndarray  # (dense term count, N) float64: a row per frequent term


class InvertedIndex:
    """BM25 postings as shared arrays, addressed by row and by term: row i
    is chunk i, of length ``doc_len[i]`` (an engine's chunk table's token
    counts, which ``save`` does not write), and term j is vocab id j, for
    each of the ``len(offsets) - 1`` ids of the vocabulary, held by a chunk
    or not.

    Term j's postings are ``rows[offsets[j]:offsets[j + 1]]``, strictly
    increasing, with their term frequencies at the same positions of
    ``tfs``. Both are held in the narrowest unsigned type, the rows in the
    one that holds N - 1, as ``save`` writes them. For the last
    ``BM25Params`` it scored under, the index also keeps the ``impacts``: one
    dense float64 row of N impacts for each term in at least 1 /
    ``DENSE_DF`` of the chunks (at most ``DENSE_DF`` times the bytes of those
    terms' posting impacts), and one float64 per posting of every other
    term. No per-posting Python object is kept, only a (start, end, dense
    row, impacts start) tuple and an idf (``idfs[j]``) per term. The
    postings are immutable once built; searches are reentrant and safe
    concurrently.
    """

    def __init__(
        self, doc_len: np.ndarray, offsets: np.ndarray, rows: np.ndarray, tfs: np.ndarray
    ) -> None:
        """Check the arrays once; each refusal is a ``ValueError`` naming the
        array or the term at fault."""
        for name, arr in (
            ("doc_len", doc_len), ("offsets", offsets), ("rows", rows), ("tfs", tfs)
        ):
            if arr.ndim != 1 or arr.dtype.kind not in "iu":
                raise ValueError(f"{name} must be a 1-d integer array")
        self.N = len(doc_len)
        if not self.N:
            raise ValueError("doc_len has 0 entries: an index holds at least 1 chunk")
        if (doc_len < 0).any():
            raise ValueError("doc_len must be >= 0")
        n = len(rows)
        if not len(offsets) or offsets[0] != 0 or offsets[-1] != n:
            raise ValueError(f"offsets must run from 0 to the posting count {n}")
        if (offsets[1:] < offsets[:-1]).any() or len(tfs) != n:
            raise ValueError("offsets must not decrease, and tfs must match rows")
        self.offsets = offsets.astype("<i8", copy=False)
        df = np.diff(self.offsets)
        # Each term's postings, its dense row (-1 for a term scored sparsely)
        # and where its impacts start among the sparse terms' ``postings``.
        frequent = df * DENSE_DF >= self.N
        self._slots = np.where(frequent, np.cumsum(frequent) - 1, -1)
        sparse_df = np.where(frequent, 0, df)
        self._sparse_postings = int(sparse_df.sum())
        self._spans = list(
            zip(
                self.offsets[:-1].tolist(),
                self.offsets[1:].tolist(),
                self._slots.tolist(),
                (np.cumsum(sparse_df) - sparse_df).tolist(),
            )
        )
        # A repeated row would push df past N and idf below 0; increasing rows
        # also let a chunk's tf be found by bisection.
        stalls = np.zeros(n, dtype=bool)
        stalls[1:] = rows[1:] <= rows[:-1]
        stalls[self.offsets[:-1][self.offsets[:-1] < n]] = False  # term starts
        # A posting on a chunk of length 0 is refused too, so every impact is
        # finite and positive (an index of such chunks has avgdl 0).
        empty = np.take(doc_len == 0, rows, mode="clip")
        for bad, fault in (
            ((rows < 0) | (rows >= self.N), f"name a row outside 0..{self.N - 1}"),
            (tfs < 1, "have a tf below 1"),
            (stalls, "are not in increasing row order"),
            (empty, "name a chunk of length 0"),
        ):
            if bad.any():
                p = int(np.argmax(bad))
                term = int(np.searchsorted(self.offsets, p, "right")) - 1
                if bad is stalls and rows[p] == rows[p - 1]:
                    fault = f"name row {rows[p]} twice"
                elif bad is empty:
                    fault = f"name row {rows[p]}, a chunk of length 0"
                raise ValueError(f"postings for term {term} {fault}")
        self.doc_len = doc_len.astype("<i4", copy=False)
        self.rows = rows.astype(_row_type(self.N), copy=False)
        width = np.min_scalar_type(int(tfs.max(initial=1))).newbyteorder("<")
        self.tfs = tfs.astype(width, copy=False)
        # The same Python division as a mean over ints, so scores keep their bits.
        self.avgdl = int(self.doc_len.sum(dtype=np.int64)) / self.N
        # Each term's idf, in term order: ``idf``'s scalar expression, so every
        # weight keeps its bits (np.log and np.log1p may differ in the last).
        self.idfs = np.array(
            [math.log(1.0 + (self.N - d + 0.5) / (d + 0.5)) for d in df.tolist()],
            dtype=np.float64,
        )
        self._impacts: tuple[BM25Params, Impacts] | None = None

    def postings(self, term: int) -> tuple[np.ndarray, np.ndarray]:
        """``term``'s chunk rows (increasing) and tfs, as views into the shared
        arrays; both empty for a term no chunk holds."""
        (term,) = _distinct(self, (term,))
        lo, hi, _, _ = self._spans[term]
        return self.rows[lo:hi], self.tfs[lo:hi]

    def impacts(self, p: BM25Params) -> Impacts:
        """Each posting's whole BM25 term score under ``p``: ``bm25_score``'s
        term expression, with its operands in its order. ``dense`` holds a
        frequent term's scores spread over one row of N, in term order, with
        0.0 where the term is absent; ``postings`` holds every other term's,
        in ``rows`` order, so term ``t``'s are ``postings[at:at + hi - lo]``
        for its ``_spans[t]`` of ``(lo, hi, -1, at)``.

        Computed in blocks of ``IMPACT_BLOCK`` postings written straight to
        where they are kept, and kept on the index until it scores under
        other params: an engine scores under one.
        """
        kept = self._impacts
        if kept is not None and kept[0] == p:
            return kept[1]
        n = len(self.rows)
        sparse = np.empty(self._sparse_postings, dtype=np.float64)
        dense = np.zeros((int(np.count_nonzero(self._slots >= 0)), self.N), dtype=np.float64)
        at = 0
        for start in range(0, n, IMPACT_BLOCK):
            end = min(start + IMPACT_BLOCK, n)
            # The terms whose postings meet [start, end), and how many each
            # has there.
            first = int(np.searchsorted(self.offsets, start, "right")) - 1
            last = int(np.searchsorted(self.offsets, end, "left"))
            counts = np.diff(np.clip(self.offsets[first : last + 1], start, end))
            weights = np.repeat(self.idfs[first:last], counts)
            tf = self.tfs[start:end].astype(np.float64)
            norm = p.k1 * (1.0 - p.b + p.b * self.doc_len[self.rows[start:end]] / self.avgdl)
            scores = weights * (tf * (p.k1 + 1.0)) / (tf + norm)
            slots = self._slots[first:last]
            kept = scores[np.repeat(slots < 0, counts)]
            sparse[at : at + len(kept)] = kept
            at += len(kept)
            for j in np.flatnonzero(slots >= 0) + first:
                lo = max(int(self.offsets[j]), start)
                hi = min(int(self.offsets[j + 1]), end)
                dense[self._slots[j], self.rows[lo:hi]] = scores[lo - start : hi - start]
        # One assignment, so no thread sees the params of one pair with the
        # arrays of another; threads racing here compute equal pairs.
        found = Impacts(sparse, dense)
        self._impacts = (p, found)
        return found


def _row_type(n: int) -> np.dtype:
    """The narrowest unsigned type that holds every row of ``n`` chunks."""
    return np.min_scalar_type(max(n - 1, 0)).newbyteorder("<")


def build_index(tokens: np.ndarray, counts: np.ndarray, term_count: int) -> InvertedIndex:
    """Index the chunks whose term ids are ``tokens``, one chunk after
    another: row i holds the next ``counts[i]`` ids, and is that long, and
    term j is id j of ``term_count``.

    Each id becomes one key, ``term * N + row``, in the narrowest unsigned
    type that holds ``term_count * N``. One ``np.unique``, a sort and a
    run-length count, orders the distinct keys by term, and each term's by
    row: each is a posting, and its count the tf.
    """
    n = len(counts)
    if not n:
        raise ValueError("empty chunk list")
    bad = (tokens < 0) | (tokens >= term_count)
    if bad.any():
        row = int(np.searchsorted(np.cumsum(counts), np.argmax(bad), "right"))
        raise ValueError(f"row {row} holds a term id outside 0..{term_count - 1}")
    key_type = np.min_scalar_type(max(term_count, 1) * n)
    keys = tokens.astype(key_type) * n + np.repeat(np.arange(n, dtype=key_type), counts)
    keys, tfs = np.unique(keys, return_counts=True)
    terms, rows = np.divmod(keys, n)
    offsets = np.zeros(term_count + 1, dtype="<i8")
    np.cumsum(np.bincount(terms, minlength=term_count), out=offsets[1:])
    return InvertedIndex(counts, offsets, rows, tfs)


def idf(index: InvertedIndex, term: int) -> float:
    """ln(1 + (N - df + 0.5) / (df + 0.5)); finite and positive for df <= N.

    The reference for ``InvertedIndex.idfs``, which holds it for every term."""
    df = len(index.postings(term)[0])
    return math.log(1.0 + (index.N - df + 0.5) / (df + 0.5))


def _tf_in_chunk(index: InvertedIndex, term: int, row: int) -> int:
    rows, tfs = index.postings(term)
    i = int(np.searchsorted(rows, row))
    return int(tfs[i]) if i < len(rows) and rows[i] == row else 0


def _distinct(index: InvertedIndex, terms: Iterable[int]) -> list[int]:
    """The distinct term ids, in first-appearance order: set-of-terms
    semantics, in one floating-point accumulation order everywhere. An id
    that is not a term of the index is a ``ValueError``."""
    distinct = list(dict.fromkeys(terms))
    count = len(index._spans)
    if distinct and not (0 <= min(distinct) and max(distinct) < count):
        bad = next(t for t in distinct if not 0 <= t < count)
        raise ValueError(f"term id out of range: {bad}")
    return distinct


def bm25_score(
    index: InvertedIndex, p: BM25Params, query_terms: Sequence[int], row: int
) -> float:
    """BM25 score of the chunk at ``row`` for a set of query terms.

    score = sum over distinct terms of
    idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)).
    """
    if not 0 <= row < index.N:
        raise IndexError(f"row out of range: {row}")
    dl = float(index.doc_len[row])
    norm = p.k1 * (1.0 - p.b + p.b * dl / index.avgdl)
    score = 0.0
    for term in _distinct(index, query_terms):
        tf = _tf_in_chunk(index, term, row)
        if tf == 0:
            continue
        score += idf(index, term) * (tf * (p.k1 + 1.0)) / (tf + norm)
    return score


def score_rows(
    index: InvertedIndex, p: BM25Params, query_terms: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row BM25 scores and a touched mask (True iff a query term hit).

    Each distinct term, in first-appearance order, adds its impacts
    (``index.impacts(p)``) into every row: a frequent term adds its dense row
    to all N scores, any other term scatter-adds its postings into their
    rows. So every row's additions happen in ``bm25_score``'s order and the
    two agree bitwise: a row the frequent term misses gains +0.0, which
    leaves a score that is never -0.0 unchanged. Every impact is finite and
    positive, so a row is touched exactly when its score is above 0.
    """
    impacts, dense = index.impacts(p)
    scores = np.zeros(index.N, dtype=np.float64)
    spans = index._spans
    for term in _distinct(index, query_terms):
        lo, hi, slot, at = spans[term]
        if slot >= 0:
            scores += dense[slot]
        else:
            np.add.at(scores, index.rows[lo:hi], impacts[at : at + hi - lo])
    return scores, scores > 0.0


def top_rows(scores: np.ndarray, rows: np.ndarray | None, k: int) -> list[int]:
    """Exact top-k of ``rows`` by (score descending, row ascending): rows
    are in chunk-id order, so ties go to the lower chunk id. ``rows`` of
    None stands for every row, whose scores are partitioned as they are,
    with no gather.

    A partition pass narrows the pool to everything at or above the k-th
    largest score, then one ``np.lexsort`` on (-score, row) orders it, so
    no Python sort key is built per row.
    """
    vals = scores if rows is None else scores[rows]
    if len(vals) > k:
        kth = np.partition(vals, len(vals) - k)[len(vals) - k]
        pool = vals >= kth
        rows = np.flatnonzero(pool) if rows is None else rows[pool]
    elif rows is None:
        rows = np.arange(len(vals))
    return rows[np.lexsort((rows, -scores[rows]))[:k]].tolist()


def touched_rows(touched: np.ndarray, k: int) -> np.ndarray | None:
    """The rows of a ``score_rows`` result that ``top_rows`` should rank for
    its top k: the touched ones, or None (every row) when at least k and
    most rows are touched. Then the k-th largest score is above 0, so no
    untouched row, scored 0.0, reaches the pool, and partitioning all the
    scores costs less than gathering the touched ones."""
    count = int(np.count_nonzero(touched))
    if count >= k and 2 * count > len(touched):
        return None
    return np.flatnonzero(touched)


# -- persistence -------------------------------------------------------------


def save(index: InvertedIndex, out_dir: str | Path) -> None:
    """Write ``LEXICAL_ARRAYS``, each as the index holds it: the rows in the
    narrowest unsigned type that holds N - 1 (``uint16`` up to 65,536
    chunks), the tfs in the narrowest unsigned type that holds the largest."""
    arrays = (index.offsets, index.rows, index.tfs)
    _npy.write(Path(out_dir) / LEXICAL_FILE, arrays)


def parse(data: bytes, doc_len: np.ndarray, term_count: int) -> InvertedIndex:
    """The index in ``data``, the bytes of a ``lexical.npy``, of chunks of
    lengths ``doc_len``, the chunk table's ``token_counts``; term j is vocab
    id j of ``term_count``, so ``offsets`` must hold ``term_count + 1``
    entries. The index keeps no view of ``data``."""
    try:
        arrays = _npy.read(data, LEXICAL_ARRAYS, V=term_count)
        return InvertedIndex(doc_len, *(arr.copy() for arr in arrays))
    except ValueError as exc:
        raise ValueError(f"{LEXICAL_FILE}: {exc}") from None
