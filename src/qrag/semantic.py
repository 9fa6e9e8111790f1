"""Dense retrieval leg: deterministic hash-projection embeddings and an
exact-scan vector index.

The built-in embedder maps each vocabulary token to a pseudo-random unit
vector seeded by an FNV-1a hash of its bytes, then L2-normalizes the
IDF-weighted bag-of-tokens sum. A ``TokenTable`` holds one vocabulary's
vectors and weights, keyed by vocab id, and each engine owns its own: the
module keeps no state. It is fully deterministic across platforms, which
makes the whole retrieval stack testable without any ML dependency;
externally computed embeddings can be loaded from JSONL instead.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _records
from .lexical import id_ranks, top_rows

VECTORS_FILE = "vectors.npy"

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Most chunks per block of ``VectorIndex.scan``. Its scratch arrays are a
# few ``(8, SCAN_BLOCK_ROWS)`` float64 arrays (512 KiB each), whatever the
# index size or the dim.
SCAN_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class EmbedderSpec:
    """Which embedder to use: the built-in hash projection or an external file."""

    kind: str = "hash_projection"
    dim: int = 256
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("hash_projection", "external_file"):
            raise ValueError(f"unknown embedder kind: {self.kind}")
        if type(self.dim) is not int:  # a bool is an int: refused too
            raise ValueError(f"dim must be an int, got {self.dim!r}")
        if self.kind == "hash_projection":
            if self.dim < 2 or self.dim & (self.dim - 1):
                raise ValueError("hash_projection dim must be a power of two >= 2")
        elif not self.path:
            raise ValueError("external_file embedder requires a path")

    def to_dict(self) -> dict:
        return _records.to_dict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "EmbedderSpec":
        return _records.from_dict(cls, d)


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def token_vectors(tokens: Sequence[str], dim: int) -> np.ndarray:
    """Deterministic unit vectors, one row per token.

    The FNV-1a hash of a token's UTF-8 bytes seeds a SplitMix64 stream;
    each output maps to uniform [-1, 1) via its top 53 bits. SplitMix64 is
    counter-based, so output ``i`` mixes ``seed + i * gamma``, and every
    stream is one ``uint64`` array expression whose products wrap mod 2^64.
    Identical on every platform.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    seeds = np.array([_fnv1a64(t.encode("utf-8")) for t in tokens], dtype=np.uint64)
    z = seeds[:, None] + np.arange(1, dim + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    values = ((z ^ (z >> 31)) >> 11).astype(np.float64) * 2.0**-53 * 2.0 - 1.0
    # One BLAS dot per row, the kernel of ``np.dot(v, v)`` for one vector.
    values /= np.sqrt(np.matmul(values[:, None, :], values[:, :, None]))[:, 0]
    return values


def token_vector(token: str, dim: int) -> np.ndarray:
    """The unit vector of one token: its row of ``token_vectors``."""
    return token_vectors([token], dim)[0]


class TokenTable:
    """One vocabulary's token vectors and dense-leg weights, by vocab id.

    Row ``i`` of ``rows`` is ``token_vector(tokens[i], dim)``, computed the
    first time an embed needs it, so memory grows with the ids embedded and
    never past the vocabulary. ``weights[i]`` is the token's idf, or 1.0 for
    a token that ``idf`` does not hold. Safe under concurrent use: a row is
    written before it is marked filled, and threads racing on one row write
    the same bytes.
    """

    def __init__(self, tokens: Sequence[str], idf: Mapping[str, float], dim: int) -> None:
        self.tokens = tokens
        self.weights = np.array([idf.get(t, 1.0) for t in tokens], dtype=np.float64)
        self.rows = np.zeros((len(tokens), dim), dtype=np.float64)
        self.filled = np.zeros(len(tokens), dtype=bool)


def embed(ids: Sequence[int], table: TokenTable | None) -> np.ndarray:
    """L2-normalized sum of the ids' token vectors, each weighted by its
    count times its table weight, in first-appearance order.

    ``table`` is None for an engine without a text encoder. Raises
    ``ValueError("degenerate_embedding")`` when the weighted sum vanishes
    (all-zero weights or antipodal cancellation).
    """
    if table is None:
        raise ValueError(
            "external_file embedder has no text encoder; use hash_projection "
            "or supply query vectors directly"
        )
    if not ids:
        raise ValueError("empty token list")
    counts = Counter(ids)
    order = np.fromiter(counts, dtype=np.intp, count=len(counts))
    if order.min() < 0 or order.max() >= len(table.tokens):
        raise ValueError("token id out of range")
    missing = order[~table.filled[order]]
    if len(missing):
        new = [table.tokens[i] for i in missing]
        table.rows[missing] = token_vectors(new, table.rows.shape[1])
        table.filled[missing] = True
    weights = np.fromiter(counts.values(), dtype=np.float64, count=len(order))
    vec = (weights * table.weights[order]) @ table.rows[order]
    norm = math.sqrt(float(np.dot(vec, vec)))
    if norm < 1e-12:
        raise ValueError("degenerate_embedding")
    return vec / norm


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) / (|a| |b|), clamped to [-1, 1] against rounding.

    The cross term is the pairwise sum ``np.sum(a * b)``, whose order of
    additions ``VectorIndex.scan`` repeats for each row, so the two agree
    bitwise; a BLAS dot product can differ from it in the last bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    if na == 0.0 or nb == 0.0:
        raise ValueError("zero vector")
    return min(1.0, max(-1.0, float(np.sum(a * b)) / (na * nb)))


class VectorIndex:
    """Exact-scan index over L2-normalized chunk embeddings.

    The embeddings are held once, as the C-contiguous float64 ``(dim, N)``
    matrix ``cols``: row ``d`` is embedding dimension ``d`` across all
    chunks. Its values are float32 numbers, the precision persistence
    stores, so a freshly built index and a reloaded one score identically.
    """

    def __init__(self, ids: list[str], matrix: np.ndarray) -> None:
        """``matrix`` holds one embedding per row, in the order of ``ids``;
        it is rounded to float32 as ``save`` would store it."""
        if matrix.ndim != 2 or len(ids) != matrix.shape[0]:
            raise ValueError("ids must match matrix rows")
        self.ids = ids
        self.dim = int(matrix.shape[1])
        self.cols = np.empty((self.dim, len(ids)), dtype=np.float64)
        self._norms = np.empty(len(ids), dtype=np.float64)
        for start in range(0, len(ids), 256):
            b = np.asarray(matrix[start : start + 256], dtype=np.float32).astype(np.float64)
            # One BLAS dot per row: the kernel ``cosine`` takes a norm with,
            # so the two agree bitwise.
            dots = np.matmul(b[:, None, :], b[:, :, None])[:, 0, 0]
            self._norms[start : start + len(b)] = np.sqrt(dots)
            self.cols[:, start : start + len(b)] = b.T
        bad = np.flatnonzero(np.abs(self._norms - 1.0) > 1e-6)
        if len(bad):
            raise ValueError(f"rows not unit-norm: {bad[:5].tolist()}")

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Each id's rank in ascending id order, computed at first use: the
        engine ranks on the BM25 index's, so a load does not pay for it."""
        return id_ranks(self.ids)

    @classmethod
    def build(cls, ids: list[str], vectors: Iterable[np.ndarray]) -> "VectorIndex":
        """An index of ``vectors``, one per id in order, each L2-normalised
        into its row of one float32 matrix sized from ``len(ids)``."""
        matrix: np.ndarray | None = None
        count = 0
        for v in vectors:
            v = np.asarray(v, dtype=np.float64)
            if matrix is None:
                matrix = np.empty((len(ids), v.size), dtype=np.float32)
            if v.shape != matrix.shape[1:]:
                raise ValueError(
                    f"vector {count} has shape {v.shape}, expected {matrix.shape[1:]}"
                )
            norm = math.sqrt(float(np.dot(v, v)))
            if norm < 1e-12:
                raise ValueError("degenerate_embedding")
            if count < len(ids):
                matrix[count] = v / norm
            count += 1
        if matrix is None or count != len(ids):
            raise ValueError(f"{count} vectors for {len(ids)} ids")
        return cls(ids, matrix)

    def scan(self, q: np.ndarray) -> np.ndarray:
        """Cosine of the query against every row (brute force, exact).

        The chunks are split into blocks of equal width, at most
        ``SCAN_BLOCK_ROWS``; a narrow last block would cost more per chunk.
        Each block is scored by ``_column_dots``, which adds each chunk's
        products in the order of ``np.sum(row * q)``, so each score is
        bitwise-identical to ``cosine(row, q)``.
        """
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"dimension mismatch: {q.shape} vs ({self.dim},)")
        qn = math.sqrt(float(np.dot(q, q)))
        if qn == 0.0:
            raise ValueError("zero vector")
        n = len(self.ids)
        scores = np.empty(n, dtype=np.float64)
        blocks = -(-n // SCAN_BLOCK_ROWS)
        width = -(-n // blocks) if blocks else 1
        buf = np.empty((8, width), dtype=np.float64)
        for start in range(0, n, width):
            end = min(start + width, n)
            scores[start:end] = _column_dots(self.cols[:, start:end], q, buf[:, : end - start])
            scores[start:end] /= self._norms[start:end] * qn
        return np.clip(scores, -1.0, 1.0, out=scores)


def _column_dots(cols: np.ndarray, q: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """``np.sum(cols[:, j] * q)`` for every column ``j``, bit for bit.

    numpy's reduce adds its pairwise sum of the products to the identity
    0.0, which turns a sum of -0.0 into +0.0. ``buf`` is an ``(8, B)``
    scratch array for ``B`` columns.
    """
    res = _pairwise(cols, q, buf)
    res += 0.0
    return res


def _pairwise(cols: np.ndarray, q: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """numpy's ``pairwise_sum`` (``_core/src/umath/loops_utils.h.src``) of
    ``cols[i] * q[i]`` along axis 0, for all columns at once."""
    n = len(q)
    if n < 8:
        res = np.zeros(cols.shape[1], dtype=np.float64)
        for i in range(n):
            res += cols[i] * q[i]
        return res
    if n <= 128:
        # Eight accumulators over steps of eight terms, combined as a tree,
        # then the remainder added in order.
        r = cols[:8] * q[:8, None]
        tail = n - n % 8
        for i in range(8, tail, 8):
            np.multiply(cols[i : i + 8], q[i : i + 8, None], out=buf)
            r += buf
        np.add(r[0::2], r[1::2], out=r[0::2])
        np.add(r[0::4], r[2::4], out=r[0::4])
        res = r[0] + r[4]
        for i in range(tail, n):
            res += cols[i] * q[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise(cols[:half], q[:half], buf) + _pairwise(cols[half:], q[half:], buf)


def search_exact(index: VectorIndex, q: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Full-scan top-k by cosine descending, ties broken by chunk id ascending."""
    if len(index) == 0:
        raise ValueError("empty index")
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = index.scan(q)
    best = top_rows(index.id_rank, scores, np.arange(len(index)), k)
    return [(index.ids[i], float(scores[i])) for i in best]


# -- persistence -------------------------------------------------------------


def save(index: VectorIndex, out_dir: str | Path) -> None:
    np.save(Path(out_dir) / VECTORS_FILE, np.ascontiguousarray(index.cols.T, dtype="<f4"))


def load(in_dir: str | Path, ids: Sequence[str]) -> VectorIndex:
    """Read a matrix written by ``save``; row i is ``ids[i]``."""
    try:
        matrix = np.load(Path(in_dir) / VECTORS_FILE, allow_pickle=False)
        if matrix.dtype != np.dtype("<f4"):
            raise ValueError(f"expected a <f4 matrix, got {matrix.dtype.str}")
        return VectorIndex(list(ids), matrix)
    except ValueError as exc:
        raise ValueError(f"{VECTORS_FILE}: {exc}") from None


def load_external_embeddings(path: str | Path, ids: Sequence[str]) -> VectorIndex:
    """Build a VectorIndex from JSONL rows {"id": str, "vector": [float, ...]}.

    Every expected id must be present; rows are L2-normalized on load.
    """
    by_id: dict[str, np.ndarray] = {}
    dim: int | None = None
    for obj in _records.read_jsonl(path):
        vec = np.asarray(obj["vector"], dtype=np.float64)
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"non-finite vector for id: {obj['id']}")
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise ValueError(
                f"inconsistent dim for id {obj['id']}: {vec.shape[0]} != {dim}"
            )
        by_id[str(obj["id"])] = vec
    missing = [cid for cid in ids if cid not in by_id]
    if missing:
        raise ValueError(f"missing embedding for id: {missing[0]}")
    return VectorIndex.build(list(ids), (by_id[cid] for cid in ids))
