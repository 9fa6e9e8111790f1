"""Dense retrieval leg: deterministic hash-projection embeddings and an
exact-scan vector index.

The embedder maps each vocabulary token to a pseudo-random unit vector
seeded by an FNV-1a hash of its bytes, then L2-normalizes the IDF-weighted
bag-of-tokens sum. A ``TokenTable`` holds one vocabulary's weights and
seeds, keyed by vocab id, and no vectors: an embed computes the vectors of
its own ids, and the module keeps no state. It is fully deterministic across
platforms, which makes the whole retrieval stack testable without any ML
dependency.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _npy

VECTORS_FILE = "vectors.npy"
VECTOR_ARRAYS = (_npy.Array("vectors", "<f4", 2, "N"),)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Most chunks per block of ``VectorIndex.scan``. Its scratch arrays are a
# few ``(8, SCAN_BLOCK_ROWS)`` float64 arrays (512 KiB each), whatever the
# index size or the dim: the float32 columns are cast to float64 eight
# dimensions at a time, into one of them.
SCAN_BLOCK_ROWS = 8192
# Rows per block that an index converts between row order and its columns
# (filling them in ``build`` and ``__init__``, writing them in ``save``):
# its scratch, 512 KiB of float64 at dim 256, whatever the index size.
ROW_BLOCK_ROWS = 256


@dataclass(frozen=True)
class EmbedderSpec:
    """The hash-projection embedder's width: the dim of every vector."""

    dim: int = 256

    def __post_init__(self) -> None:
        if type(self.dim) is not int:  # a bool is an int: refused too
            raise ValueError(f"dim must be an int, got {self.dim!r}")
        if self.dim < 2 or self.dim & (self.dim - 1):
            raise ValueError("hash_projection dim must be a power of two >= 2")


def _fnv1a64(tokens: Sequence[str]) -> np.ndarray:
    """The 64-bit FNV-1a hash of each token's UTF-8 bytes, as ``uint64``.

    The tokens' bytes, longest first, are the columns of a zero-padded
    ``(width, n)`` matrix, and each byte position is one xor and one
    multiply over the tokens that reach it, a prefix of the columns.
    ``uint64`` products wrap mod 2^64, as FNV-1a's do.
    """
    data = [t.encode("utf-8") for t in tokens]
    lengths = np.fromiter(map(len, data), dtype=np.intp, count=len(data))
    order = np.argsort(-lengths, kind="stable")
    width = max(int(lengths.max(initial=0)), 1)
    matrix = np.array([data[i] for i in order], dtype=f"S{width}").view(np.uint8)
    rows = matrix.reshape(len(data), width).T.astype(np.uint64)
    reach = np.count_nonzero(lengths[:, None] > np.arange(width), axis=0)
    h = np.full(len(data), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for row, count in zip(rows, reach.tolist()):
        part = h[:count]
        np.bitwise_xor(part, row[:count], out=part)
        np.multiply(part, prime, out=part)
    hashes = np.empty_like(h)
    hashes[order] = h
    return hashes


def token_vectors(tokens: Sequence[str], dim: int) -> np.ndarray:
    """Deterministic unit vectors, one row per token: ``seed_vectors`` of
    the FNV-1a hash of each token's UTF-8 bytes."""
    return seed_vectors(_fnv1a64(tokens), dim)


def seed_vectors(seeds: np.ndarray, dim: int) -> np.ndarray:
    """One unit vector per ``uint64`` seed, which seeds a SplitMix64 stream;
    each output maps to uniform [-1, 1) via its top 53 bits. SplitMix64 is
    counter-based, so output ``i`` mixes ``seed + i * gamma``, and every
    stream is one ``uint64`` array expression whose products wrap mod 2^64.
    Identical on every platform.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    z = seeds[:, None] + np.arange(1, dim + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    values = ((z ^ (z >> 31)) >> 11).astype(np.float64) * 2.0**-53 * 2.0 - 1.0
    # One BLAS dot per row, the kernel of ``np.dot(v, v)`` for one vector.
    values /= np.sqrt(np.matmul(values[:, None, :], values[:, :, None]))[:, 0]
    return values


def token_matrix(tokens: Sequence[str], dim: int) -> np.ndarray:
    """``token_vectors(tokens, dim)``, computed ``ROW_BLOCK_ROWS`` tokens at
    a time, so that its scratch stays a few blocks whatever the vocabulary.
    Each row is the same bits either way."""
    matrix = np.empty((len(tokens), dim), dtype=np.float64)
    for start in range(0, len(tokens), ROW_BLOCK_ROWS):
        matrix[start : start + ROW_BLOCK_ROWS] = token_vectors(
            tokens[start : start + ROW_BLOCK_ROWS], dim
        )
    return matrix


class TokenTable:
    """One vocabulary's dense-leg weights by vocab id, the seeds of its token
    vectors, and their dim: ``weights[i]`` is id ``i``'s weight, one float64
    per token, and ``seeds[i]`` the FNV-1a hash of its token, one ``uint64``,
    hashed once here so that no embed hashes. It holds no vectors, so it
    never grows, and it is never written after it is made."""

    def __init__(self, tokens: Sequence[str], weights: np.ndarray, dim: int) -> None:
        self.tokens = tokens
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.shape != (len(tokens),):
            raise ValueError(f"{len(self.weights)} weights for {len(tokens)} tokens")
        self.seeds = _fnv1a64(tokens)
        self.dim = dim


def embed(ids: Sequence[int], table: TokenTable, matrix: np.ndarray | None = None) -> np.ndarray:
    """L2-normalized sum of the ids' token vectors, each weighted by its
    count times its table weight, in first-appearance order.

    The vectors of the distinct ids are computed here from their seeds,
    unless ``matrix``, ``token_matrix`` of the table's tokens, is given to
    take them from: a caller that embeds every chunk of a corpus computes it
    once. Both give the same bits. Raises
    ``ValueError("degenerate_embedding")`` when the weighted sum vanishes
    (all-zero weights or antipodal cancellation).
    """
    if not ids:
        raise ValueError("empty token list")
    counts = Counter(ids)
    order = np.fromiter(counts, dtype=np.intp, count=len(counts))
    if order.min() < 0 or order.max() >= len(table.tokens):
        raise ValueError("token id out of range")
    if matrix is None:
        vectors = seed_vectors(table.seeds[order], table.dim)
    else:
        vectors = matrix[order]
    weights = np.fromiter(counts.values(), dtype=np.float64, count=len(order))
    vec = (weights * table.weights[order]) @ vectors
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
    """Exact-scan index over L2-normalized chunk embeddings, one per row:
    row i is chunk i.

    The embeddings are held once, at the width ``save`` stores them, as the
    C-contiguous float32 ``(dim, N)`` matrix ``cols``: row ``d`` is
    embedding dimension ``d`` across all chunks. So a freshly built index
    and a reloaded one score identically. Each chunk's norm is kept as a
    float64 beside it.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        """``matrix`` holds one embedding per row; it is rounded to float32
        as ``save`` would store it."""
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got {matrix.ndim} dimensions")
        n = matrix.shape[0]
        blocks = (matrix[start : start + ROW_BLOCK_ROWS] for start in range(0, n, ROW_BLOCK_ROWS))
        self._fill(n, matrix.shape[1], blocks)

    def _fill(self, n: int, dim: int, blocks: Iterable[np.ndarray]) -> None:
        """Hold the rows of ``blocks``, consecutive row blocks of the
        ``(n, dim)`` matrix, rounded to float32; refuse a row that is not
        unit-norm."""
        self.dim = int(dim)
        self.cols = np.empty((self.dim, n), dtype=np.float32)
        self._norms = np.empty(n, dtype=np.float64)
        start = 0
        for block in blocks:
            rows = np.asarray(block, dtype=np.float32)
            self.cols[:, start : start + len(rows)] = rows.T
            b = rows.astype(np.float64, order="C")
            # One BLAS dot per float64 row: the kernel ``cosine`` takes a norm
            # with, so the two agree bitwise.
            dots = np.matmul(b[:, None, :], b[:, :, None])[:, 0, 0]
            self._norms[start : start + len(rows)] = np.sqrt(dots)
            start += len(rows)
        bad = np.flatnonzero(~(np.abs(self._norms - 1.0) <= 1e-6))  # NaN too
        if len(bad):
            raise ValueError(f"rows not unit-norm: {bad[:5].tolist()}")

    def __len__(self) -> int:
        return self.cols.shape[1]

    @classmethod
    def build(cls, n: int, vectors: Iterable[np.ndarray]) -> "VectorIndex":
        """An index of ``n`` rows, the ``vectors`` in order, each
        L2-normalised into a float32 block of ``ROW_BLOCK_ROWS`` rows that
        fills its part of the columns, so no whole row-major matrix is made."""
        vectors = iter(vectors)
        first = next(vectors, None)
        if first is None:
            raise ValueError(f"0 vectors for {n} rows")
        dim = np.asarray(first).size
        index = cls.__new__(cls)
        index._fill(n, dim, _unit_blocks(chain([first], vectors), n, dim))
        return index

    def scan(self, q: np.ndarray) -> np.ndarray:
        """Cosine of the query against every row (brute force, exact).

        The chunks are split into blocks of equal width, at most
        ``SCAN_BLOCK_ROWS``; a narrow last block would cost more per chunk.
        Each block is scored by ``_column_dots``, which casts the float32
        columns to float64 eight dimensions at a time and adds each chunk's
        products in the order of ``np.sum(row * q)``, so each score is
        bitwise-identical to ``cosine(row, q)``.
        """
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"dimension mismatch: {q.shape} vs ({self.dim},)")
        qn = math.sqrt(float(np.dot(q, q)))
        if qn == 0.0:
            raise ValueError("zero vector")
        n = len(self)
        scores = np.empty(n, dtype=np.float64)
        blocks = -(-n // SCAN_BLOCK_ROWS)
        width = -(-n // blocks) if blocks else 1
        buf = np.empty((8, width), dtype=np.float64)
        for start in range(0, n, width):
            end = min(start + width, n)
            scores[start:end] = _column_dots(self.cols[:, start:end], q, buf[:, : end - start])
            scores[start:end] /= self._norms[start:end] * qn
        return np.clip(scores, -1.0, 1.0, out=scores)


def _unit_blocks(vectors: Iterable[np.ndarray], n: int, dim: int) -> Iterator[np.ndarray]:
    """Each of ``n`` vectors of shape ``(dim,)`` divided by its norm, as
    consecutive float32 blocks of at most ``ROW_BLOCK_ROWS`` rows. Every
    block is the same buffer, so a caller copies it before the next."""
    block = np.empty((ROW_BLOCK_ROWS, dim), dtype=np.float32)
    count = 0
    for v in vectors:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (dim,):
            raise ValueError(f"vector {count} has shape {v.shape}, expected {(dim,)}")
        norm = math.sqrt(float(np.dot(v, v)))
        if norm < 1e-12:
            raise ValueError("degenerate_embedding")
        if count < n:
            block[count % ROW_BLOCK_ROWS] = v / norm
            if count % ROW_BLOCK_ROWS == ROW_BLOCK_ROWS - 1:
                yield block
        count += 1
    if count != n:
        raise ValueError(f"{count} vectors for {n} rows")
    if n % ROW_BLOCK_ROWS:
        yield block[: n % ROW_BLOCK_ROWS]


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
    ``float64(cols[i]) * q[i]`` along axis 0, for all columns at once.

    Up to eight rows of ``cols`` at a time are cast into ``buf`` and
    multiplied there in place: each product is ``cosine``'s, of the float64
    row, and a mixed-dtype multiply would be several times slower.
    """
    n = len(q)
    if n < 8:
        res = np.zeros(cols.shape[1], dtype=np.float64)
        _add_rows(res, cols, q, buf)
        return res
    if n <= 128:
        # Eight accumulators over steps of eight terms, combined as a tree,
        # then the remainder added in order.
        r = np.empty_like(buf)
        np.copyto(r, cols[:8])
        r *= q[:8, None]
        tail = n - n % 8
        for i in range(8, tail, 8):
            np.copyto(buf, cols[i : i + 8])
            buf *= q[i : i + 8, None]
            r += buf
        np.add(r[0::2], r[1::2], out=r[0::2])
        np.add(r[0::4], r[2::4], out=r[0::4])
        res = r[0] + r[4]
        _add_rows(res, cols[tail:], q[tail:], buf)
        return res
    half = n // 2
    half -= half % 8
    return _pairwise(cols[:half], q[:half], buf) + _pairwise(cols[half:], q[half:], buf)


def _add_rows(res: np.ndarray, cols: np.ndarray, q: np.ndarray, buf: np.ndarray) -> None:
    """Add ``float64(cols[i]) * q[i]`` to ``res`` for each of the fewer than
    eight rows of ``cols``, in order."""
    m = len(q)
    np.copyto(buf[:m], cols)
    buf[:m] *= q[:, None]
    for i in range(m):
        res += buf[i]


# -- persistence -------------------------------------------------------------


def save(index: VectorIndex, out_dir: str | Path) -> None:
    """Write ``vectors.npy``, the ``<f4`` ``(N, dim)`` matrix of
    ``VECTOR_ARRAYS``: its rows, transposed from ``cols`` ``ROW_BLOCK_ROWS``
    at a time, so no whole copy of the matrix is made. The bytes are those of
    ``np.save`` of the whole matrix."""
    n = len(index)
    rows = (index.cols[:, i : i + ROW_BLOCK_ROWS].T for i in range(0, n, ROW_BLOCK_ROWS))
    _npy.write(Path(out_dir) / VECTORS_FILE, [_npy.Blocks("<f4", (n, index.dim), rows)])


def parse(data: bytes, n: int) -> VectorIndex:
    """The index of the matrix in ``data``, the bytes of a ``vectors.npy``
    of ``n`` chunks. The index keeps no view of ``data``."""
    try:
        (matrix,) = _npy.read(data, VECTOR_ARRAYS, N=n)
        return VectorIndex(matrix)
    except ValueError as exc:
        raise ValueError(f"{VECTORS_FILE}: {exc}") from None
