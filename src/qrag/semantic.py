"""Dense retrieval leg: deterministic hash-projection embeddings and an
exact-scan vector index.

The built-in embedder maps each token to a pseudo-random unit vector seeded
by an FNV-1a hash of its bytes, then L2-normalizes the (optionally
IDF-weighted) bag-of-tokens sum. It is fully deterministic across platforms,
which makes the whole retrieval stack testable without any ML dependency;
externally computed embeddings can be loaded from JSONL instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _records
from .lexical import top_rows

VECTORS_FILE = "vectors.npy"

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_token_cache: dict[tuple[str, int], np.ndarray] = {}

# Rows per block of ``VectorIndex.scan``: the float64 product of one block
# with a 256-dim query is 2 MiB, whatever the index size.
SCAN_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class EmbedderSpec:
    """Which embedder to use: the built-in hash projection or an external file."""

    kind: str = "hash_projection"
    dim: int = 256
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("hash_projection", "external_file"):
            raise ValueError(f"unknown embedder kind: {self.kind}")
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


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


def token_vector(token: str, dim: int) -> np.ndarray:
    """Deterministic unit vector for a token.

    The FNV-1a hash of the token's UTF-8 bytes seeds a SplitMix64 stream;
    each output maps to uniform [-1, 1) via its top 53 bits. Identical on
    every platform.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    cached = _token_cache.get((token, dim))
    if cached is not None:
        return cached
    state = _fnv1a64(token.encode("utf-8"))
    values = np.empty(dim, dtype=np.float64)
    for i in range(dim):
        word, state = _splitmix64(state)
        values[i] = (word >> 11) * (2.0 ** -53) * 2.0 - 1.0
    values /= math.sqrt(float(np.dot(values, values)))
    values.flags.writeable = False
    if len(_token_cache) < 500_000:
        _token_cache[(token, dim)] = values
    return values


def embed(
    tokens: Sequence[str],
    spec: EmbedderSpec,
    idf_weights: Mapping[str, float] | None = None,
) -> np.ndarray:
    """L2-normalized weighted sum of token vectors (weight = IDF when given).

    Raises ``ValueError("degenerate_embedding")`` when the weighted sum
    vanishes (all-zero weights or antipodal cancellation).
    """
    if spec.kind != "hash_projection":
        raise ValueError(
            "external_file embedder has no text encoder; use hash_projection "
            "or supply query vectors directly"
        )
    if not tokens:
        raise ValueError("empty token list")
    counts: dict[str, int] = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    mat = np.stack([token_vector(t, spec.dim) for t in counts])
    weights = np.array(
        [
            counts[t] * (idf_weights.get(t, 1.0) if idf_weights is not None else 1.0)
            for t in counts
        ],
        dtype=np.float64,
    )
    vec = weights @ mat
    norm = math.sqrt(float(np.dot(vec, vec)))
    if norm < 1e-12:
        raise ValueError("degenerate_embedding")
    return vec / norm


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) / (|a| |b|), clamped to [-1, 1] against rounding.

    The cross term is the pairwise sum ``np.sum(a * b)``, the kernel that
    ``VectorIndex.scan`` applies to each row, so the two agree bitwise; a
    BLAS dot product can differ from it in the last bit.
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

    The canonical representation is the float32 matrix that persistence
    stores, so a freshly built index and a reloaded one score identically;
    scoring upcasts to float64 once at construction.
    """

    def __init__(self, ids: list[str], matrix: np.ndarray) -> None:
        if matrix.ndim != 2 or len(ids) != matrix.shape[0]:
            raise ValueError("ids must match matrix rows")
        self.ids = ids
        self.matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        self.dim = int(matrix.shape[1])
        self._m64 = self.matrix.astype(np.float64)
        self._norms = np.array(
            [math.sqrt(float(np.dot(r, r))) for r in self._m64], dtype=np.float64
        )
        bad = [i for i, n in enumerate(self._norms) if abs(n - 1.0) > 1e-6]
        if bad:
            raise ValueError(f"rows not unit-norm: {bad[:5]}")

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def build(cls, ids: list[str], vectors: Iterable[np.ndarray]) -> "VectorIndex":
        rows = []
        for v in vectors:
            v = np.asarray(v, dtype=np.float64)
            norm = math.sqrt(float(np.dot(v, v)))
            if norm < 1e-12:
                raise ValueError("degenerate_embedding")
            rows.append(v / norm)
        return cls(ids, np.stack(rows).astype(np.float32))

    def row(self, chunk_id: str) -> np.ndarray:
        return self._m64[self.ids.index(chunk_id)]

    def scan(self, q: np.ndarray) -> np.ndarray:
        """Cosine of the query against every row (brute force, exact).

        Each row's dot product is the pairwise sum ``(row * q).sum()``, taken
        over blocks of ``SCAN_BLOCK_ROWS`` rows to bound the temporary, so
        each score is bitwise-identical to ``cosine(row, q)``.
        """
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"dimension mismatch: {q.shape} vs ({self.dim},)")
        qn = math.sqrt(float(np.dot(q, q)))
        if qn == 0.0:
            raise ValueError("zero vector")
        scores = np.empty(len(self.ids), dtype=np.float64)
        for start in range(0, len(self.ids), SCAN_BLOCK_ROWS):
            block = self._m64[start : start + SCAN_BLOCK_ROWS]
            scores[start : start + len(block)] = (block * q).sum(axis=1)
        scores /= self._norms * qn
        return np.clip(scores, -1.0, 1.0, out=scores)


def search_exact(index: VectorIndex, q: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Full-scan top-k by cosine descending, ties broken by chunk id ascending."""
    if len(index) == 0:
        raise ValueError("empty index")
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = index.scan(q)
    best = top_rows(index.ids, scores, np.arange(len(index)), k)
    return [(index.ids[i], float(scores[i])) for i in best]


# -- persistence -------------------------------------------------------------


def save(index: VectorIndex, out_dir: str | Path) -> None:
    np.save(Path(out_dir) / VECTORS_FILE, index.matrix.astype("<f4", copy=False))


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
