"""BM25 sparse retrieval over an inverted index of BPE subword terms.

The engine tokenizes; this module indexes and searches the terms it is
given, the same terms the dense leg embeds, so both retrieval legs score
the same term space. Scoring uses the +1-inside-log IDF variant,
which keeps every term weight strictly positive.
"""

from __future__ import annotations

import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

LEXICAL_FILE = "lexical.npy"
# The arrays of ``lexical.npy``, in file order.
LEXICAL_ARRAYS = ("doc_len", "terms", "offsets", "rows", "tfs")

# Postings per block of ``InvertedIndex.impacts``: its scratch is a few
# arrays of this length (256 KiB each in float64), whatever the index size.
IMPACT_BLOCK = 1 << 15
# Params whose impacts an index keeps; impacts for one more clear them.
IMPACT_CACHE_MAX = 4
# A term in at least 1 / DENSE_DF of the chunks is scored from a dense row
# of N impacts. On 2 vCPUs with numpy 2.4, ``np.add.at`` costs about 4 ns a
# scattered posting and a contiguous row add about 1 ns a row, so at df >= N/4
# the row is the cheaper of the two; N/8 was no faster on the benchmark
# queries and held three times the rows.
DENSE_DF = 4
_UNSEEN = (0, 0, -1)  # the ``InvertedIndex._span`` of a term no chunk holds


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
    ``InvertedIndex.impacts`` as one cache entry, so that no thread sees one
    array without the other."""

    postings: np.ndarray  # one float64 per posting, at its position in ``rows``
    dense: np.ndarray  # (dense term count, N) float64: a row per frequent term


class InvertedIndex:
    """BM25 postings as shared arrays, addressed by row: row i is chunk_ids[i].

    Term j's postings are ``rows[offsets[j]:offsets[j + 1]]``, strictly
    increasing, with their term frequencies at the same positions of
    ``tfs``. The rows are held as ``<i4``, however narrow ``save`` wrote
    them, and the tfs as written, in the narrowest unsigned type. For each
    ``BM25Params`` a query has used, the index also keeps its ``impacts``:
    one float64 per posting, and one dense float64 row of N impacts for each
    term in at least 1 / ``DENSE_DF`` of the chunks (at most ``DENSE_DF``
    times the bytes of those terms' posting impacts). No per-posting Python
    object is kept, only a (start, end, dense row) triple and an idf
    (``idfs[j]``) per term, and ``id_rank``, each chunk id's rank in
    ascending id order. The postings are immutable once built; searches are
    reentrant and safe concurrently.
    """

    def __init__(
        self,
        chunk_ids: Sequence[str],
        doc_len: np.ndarray,
        terms: Sequence[str],
        offsets: np.ndarray,
        rows: np.ndarray,
        tfs: np.ndarray,
    ) -> None:
        """Check the arrays once; each refusal is a ``ValueError`` naming the
        array or the term at fault."""
        for name, arr in (
            ("doc_len", doc_len), ("offsets", offsets), ("rows", rows), ("tfs", tfs)
        ):
            if arr.ndim != 1 or arr.dtype.kind not in "iu":
                raise ValueError(f"{name} must be a 1-d integer array")
        # Rows that fit losslessly (as ``save`` writes them) are widened before
        # the checks, while the heap is small. Made after the checks' freed
        # temporaries, the copy landed in glibc's heap above them and left a
        # loaded server about 1 MiB larger. Wider rows are checked first, so
        # none wraps into range.
        if np.can_cast(rows.dtype, "<i4"):
            rows = rows.astype("<i4", copy=False)
        self.chunk_ids = list(chunk_ids)
        self.N = len(self.chunk_ids)
        if len(doc_len) != self.N or not self.N:
            raise ValueError(f"doc_len has {len(doc_len)} entries for {self.N} chunks (N >= 1)")
        if (doc_len < 0).any():
            raise ValueError("doc_len must be >= 0")
        self.terms = list(terms)
        n = len(rows)
        if len(offsets) != len(self.terms) + 1 or offsets[0] != 0 or offsets[-1] != n:
            raise ValueError(f"offsets must run from 0 to the posting count {n}")
        if (offsets[1:] < offsets[:-1]).any() or len(tfs) != n:
            raise ValueError("offsets must not decrease, and tfs must match rows")
        self.offsets = offsets.astype("<i8", copy=False)
        bounds = self.offsets.tolist()
        # Each term's postings and its dense row, -1 for a term scored sparsely.
        self._span: dict[str, tuple[int, int, int]] = {}
        dense = 0
        for j, term in enumerate(self.terms):
            if not isinstance(term, str) or term in self._span:
                raise ValueError(f"term {j} is not a string listed once: {term!r}")
            lo, hi = bounds[j], bounds[j + 1]
            frequent = (hi - lo) * DENSE_DF >= self.N
            self._span[term] = (lo, hi, dense if frequent else -1)
            dense += frequent
        # A repeated row would push df past N and idf below 0; increasing rows
        # also let a chunk's tf be found by bisection.
        stalls = np.zeros(n, dtype=bool)
        stalls[1:] = rows[1:] <= rows[:-1]
        stalls[self.offsets[:-1][self.offsets[:-1] < n]] = False  # term starts
        # A posting on a chunk of length 0 is refused too, so every impact is
        # finite and positive (an index of such chunks has avgdl 0).
        empty = np.take(doc_len, rows, mode="clip") == 0
        for bad, fault in (
            ((rows < 0) | (rows >= self.N), f"name a row outside 0..{self.N - 1}"),
            (tfs < 1, "have a tf below 1"),
            (stalls, "are not in increasing row order"),
            (empty, "name a chunk of length 0"),
        ):
            if bad.any():
                p = int(np.argmax(bad))
                term = self.terms[int(np.searchsorted(self.offsets, p, "right")) - 1]
                if bad is stalls and rows[p] == rows[p - 1]:
                    fault = f"name chunk_id {self.chunk_ids[rows[p]]!r} twice"
                elif bad is empty:
                    fault = f"name chunk_id {self.chunk_ids[rows[p]]!r} of length 0"
                raise ValueError(f"postings for term {term!r} {fault}")
        self.doc_len = doc_len.astype("<i4", copy=False)
        self.rows = rows.astype("<i4", copy=False)
        width = np.min_scalar_type(int(tfs.max(initial=1))).newbyteorder("<")
        self.tfs = tfs.astype(width, copy=False)
        # The same Python division as a mean over ints, so scores keep their bits.
        self.avgdl = int(self.doc_len.sum(dtype=np.int64)) / self.N
        # Each term's idf, in term order: ``idf``'s scalar expression, so every
        # weight keeps its bits (np.log and np.log1p may differ in the last).
        self.idfs = [
            math.log(1.0 + (self.N - df + 0.5) / (df + 0.5))
            for df in np.diff(self.offsets).tolist()
        ]
        self.id_rank = id_ranks(self.chunk_ids)
        self._impacts: dict[BM25Params, Impacts] = {}

    @classmethod
    def from_postings(
        cls,
        doc_len: Mapping[str, int],
        postings: Mapping[str, Sequence[tuple[str, int]]],
    ) -> "InvertedIndex":
        """An index from ``{chunk_id: length}`` in row order and each term's
        ``(chunk_id, tf)`` pairs, in any order. An unknown chunk id is
        refused, and so is a tf that is not an ``int`` (``1.5``, ``"2"`` and
        ``True`` are not coerced)."""
        row_of = {cid: i for i, cid in enumerate(doc_len)}
        offsets = np.cumsum([0, *map(len, postings.values())])
        rows = np.empty(offsets[-1], dtype="<i4")
        tfs = np.empty(offsets[-1], dtype=np.int32)  # a tf is at most a chunk's length
        for (term, plist), lo, hi in zip(postings.items(), offsets[:-1], offsets[1:]):
            try:
                term_rows = np.fromiter(
                    map(row_of.__getitem__, map(itemgetter(0), plist)), np.intp, hi - lo
                )
            except KeyError as exc:
                raise ValueError(
                    f"postings for term {term!r} name unknown chunk_id {exc.args[0]!r}"
                ) from None
            term_tfs = list(map(itemgetter(1), plist))
            if not set(map(type, term_tfs)) <= {int}:
                raise ValueError(f"postings for term {term!r} have a tf that is not an int")
            order = np.argsort(term_rows, kind="stable")
            rows[lo:hi] = term_rows[order]
            tfs[lo:hi] = np.array(term_tfs)[order]
        lengths = np.array(list(doc_len.values()), dtype=np.int64)
        return cls(list(doc_len), lengths, list(postings), offsets, rows, tfs)

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """``term``'s chunk rows (increasing) and tfs, as views into the shared
        arrays; both empty for an unseen term."""
        lo, hi, _ = self._span.get(term, _UNSEEN)
        return self.rows[lo:hi], self.tfs[lo:hi]

    def impacts(self, p: BM25Params) -> Impacts:
        """Each posting's whole BM25 term score under ``p``: ``bm25_score``'s
        term expression, with its operands in its order. ``postings`` holds
        one float64 per posting at its position in ``rows``; ``dense`` holds
        the same values spread over one row of N per frequent term, in term
        order, with 0.0 where the term is absent.

        Computed once per params, in blocks of ``IMPACT_BLOCK`` postings,
        and kept on the index for up to ``IMPACT_CACHE_MAX`` params.
        """
        found = self._impacts.get(p)
        if found is not None:
            return found
        n = len(self.rows)
        impacts = np.empty(n, dtype=np.float64)
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
            impacts[start:end] = weights * (tf * (p.k1 + 1.0)) / (tf + norm)
        spans = [(lo, hi) for lo, hi, slot in self._span.values() if slot >= 0]
        dense = np.zeros((len(spans), self.N), dtype=np.float64)
        for row, (lo, hi) in zip(dense, spans):
            for start in range(lo, hi, IMPACT_BLOCK):
                end = min(start + IMPACT_BLOCK, hi)
                row[self.rows[start:end]] = impacts[start:end]
        # Threads racing here compute equal pairs, and either may be kept.
        found = Impacts(impacts, dense)
        cache = self._impacts
        if len(cache) >= IMPACT_CACHE_MAX:
            cache = self._impacts = {}
        cache[p] = found
        return found


def build_index(
    chunk_ids: Sequence[str], chunk_terms: Iterable[Sequence[str]]
) -> InvertedIndex:
    """Index each chunk's terms: row i is ``chunk_ids[i]``, whose terms are
    the i-th list of ``chunk_terms`` (a count mismatch is a ``ValueError``).

    Terms are sorted; term frequency counts every occurrence within a chunk.
    """
    if not chunk_ids:
        raise ValueError("empty chunk list")
    doc_len: dict[str, int] = {}
    tf_maps: dict[str, dict[str, int]] = {}
    for cid, terms in zip(chunk_ids, chunk_terms, strict=True):
        if cid in doc_len:
            raise ValueError(f"duplicate chunk_id: {cid}")
        doc_len[cid] = len(terms)
        for t, tf in Counter(terms).items():
            tf_maps.setdefault(t, {})[cid] = tf
    # Views, not copies: the pairs are already held once in tf_maps.
    postings = {term: tf_maps[term].items() for term in sorted(tf_maps)}
    return InvertedIndex.from_postings(doc_len, postings)


def idf(index: InvertedIndex, term: str) -> float:
    """ln(1 + (N - df + 0.5) / (df + 0.5)); finite and positive for df <= N.

    The reference for ``InvertedIndex.idfs``, which holds it for every term."""
    df = len(index.postings(term)[0])
    return math.log(1.0 + (index.N - df + 0.5) / (df + 0.5))


def idf_weights(index: InvertedIndex) -> dict[str, float]:
    """``idf`` of every indexed term: the dense leg's term weights."""
    return dict(zip(index.terms, index.idfs))


def _tf_in_chunk(index: InvertedIndex, term: str, row: int) -> int:
    rows, tfs = index.postings(term)
    i = int(np.searchsorted(rows, row))
    return int(tfs[i]) if i < len(rows) and rows[i] == row else 0


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
    try:
        row = index.chunk_ids.index(chunk_id)
    except ValueError:
        raise KeyError(f"unknown chunk_id: {chunk_id}") from None
    dl = float(index.doc_len[row])
    norm = p.k1 * (1.0 - p.b + p.b * dl / index.avgdl)
    score = 0.0
    for term in _dedup_terms(query_terms):
        tf = _tf_in_chunk(index, term, row)
        if tf == 0:
            continue
        score += idf(index, term) * (tf * (p.k1 + 1.0)) / (tf + norm)
    return score


def score_rows(
    index: InvertedIndex, p: BM25Params, query_terms: Sequence[str]
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
    for term in _dedup_terms(query_terms):
        lo, hi, slot = index._span.get(term, _UNSEEN)
        if slot >= 0:
            scores += dense[slot]
        else:
            np.add.at(scores, index.rows[lo:hi], impacts[lo:hi])
    return scores, scores > 0.0


def id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Each id's position among the ids sorted ascending: integer keys that
    order rows as their ids do."""
    ranks = np.empty(len(ids), dtype=np.intp)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def top_rows(
    rank: np.ndarray, scores: np.ndarray, rows: np.ndarray, k: int
) -> list[int]:
    """Exact top-k of ``rows`` by (score descending, id ascending), where
    ``rank[i]`` orders row i's id among the ids (``id_ranks``).

    A partition pass narrows the pool to everything at or above the k-th
    largest score, then one ``np.lexsort`` on (-score, rank) orders it, so
    no Python sort key is built per row.
    """
    if len(rows) > k:
        vals = scores[rows]
        kth = np.partition(vals, len(vals) - k)[len(vals) - k]
        rows = rows[vals >= kth]
    return rows[np.lexsort((rank[rows], -scores[rows]))[:k]].tolist()


def search(
    index: InvertedIndex, p: BM25Params, terms: Sequence[str], k: int
) -> list[tuple[str, float]]:
    """BM25 top-k for a query's terms (no terms -> [])."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not terms:
        return []
    scores, touched = score_rows(index, p, terms)
    best = top_rows(index.id_rank, scores, np.flatnonzero(touched), k)
    return [(index.chunk_ids[i], float(scores[i])) for i in best]


# -- persistence -------------------------------------------------------------


def save(index: InvertedIndex, out_dir: str | Path) -> None:
    """Write the doc lengths, the terms (UTF-8 JSON bytes), the offsets, the
    rows and the tfs as consecutive ``.npy`` arrays of one file. The rows are
    written in the narrowest unsigned type that holds N - 1 (``uint16`` up to
    65,536 chunks), and load widens them back to ``<i4``; the other arrays
    are written as the index holds them, the tfs in the narrowest unsigned
    type that holds the largest."""
    terms = np.frombuffer(json.dumps(index.terms, ensure_ascii=False).encode(), np.uint8)
    rows = index.rows.astype(np.min_scalar_type(index.N - 1).newbyteorder("<"))
    with (Path(out_dir) / LEXICAL_FILE).open("wb") as fh:
        for arr in (index.doc_len, terms, index.offsets, rows, index.tfs):
            np.lib.format.write_array(fh, arr, allow_pickle=False)


def npy_arrays(data: bytes, names: Sequence[str]) -> list[np.ndarray]:
    """The consecutive ``.npy`` arrays (format 1.0) that fill ``data``, one
    per name, as read-only views of ``data``: nothing is copied, so a caller
    copies what it keeps. Every array file of an index is read with it.
    Object arrays are refused without unpickling; each refusal is a
    ``ValueError``, naming the array that is cut short or followed by bytes.
    """
    stream = io.BytesIO(data)  # shares the bytes object until written to
    arrays = []
    for name in names:
        if np.lib.format.read_magic(stream) != (1, 0):
            raise ValueError(f"{name} must be an array of .npy format 1.0")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(stream)
        if dtype.hasobject:
            raise ValueError("Object arrays cannot be loaded when allow_pickle=False")
        if min(shape, default=0) < 0:
            raise ValueError(f"{name} has a negative dimension: {shape}")
        start, count = stream.tell(), math.prod(shape)
        size, left = count * dtype.itemsize, len(data) - start
        if left < size:
            raise ValueError(f"the {name} array is cut short: {left} of {size} bytes")
        arr = np.frombuffer(data, dtype, count, start)
        arrays.append(arr.reshape(shape[::-1]).T if fortran_order else arr.reshape(shape))
        stream.seek(start + size)
    if stream.tell() < len(data):
        raise ValueError(f"trailing bytes after the {names[-1]} array")
    return arrays


def load(in_dir: str | Path, chunk_ids: Sequence[str]) -> InvertedIndex:
    """Read an index written by ``save``; row i is ``chunk_ids[i]``."""
    return parse((Path(in_dir) / LEXICAL_FILE).read_bytes(), chunk_ids)


def parse(data: bytes, chunk_ids: Sequence[str]) -> InvertedIndex:
    """The index in ``data``, the bytes of a ``lexical.npy``; row i is
    ``chunk_ids[i]``. The index keeps no view of ``data``."""
    try:
        doc_len, terms, offsets, rows, tfs = npy_arrays(data, LEXICAL_ARRAYS)
        if terms.dtype != np.uint8 or terms.ndim != 1:
            raise ValueError("terms must be a 1-d uint8 array")
        term_list = json.loads(str(terms.data, "utf-8"))
        if not isinstance(term_list, list):
            raise ValueError("terms must be a JSON list")
    except ValueError as exc:
        raise ValueError(f"{LEXICAL_FILE}: {exc}") from None
    # The rows are widened to <i4 from the narrower type ``save`` writes, so
    # only the other three arrays need a copy to hold no view of ``data``.
    return InvertedIndex(chunk_ids, doc_len.copy(), term_list, offsets.copy(), rows, tfs.copy())
