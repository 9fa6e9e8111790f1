"""Quantum-inspired scoring on classical hardware: amplitude-encoded state
vectors, the state-fidelity kernel, interference scoring, and the fusion
strategies that combine the sparse, dense, and quantum signals.

A unit embedding becomes the amplitude vector of a simulated n-qubit state,
so the fidelity kernel |<a|b>|^2 equals the squared cosine of the underlying
embeddings. The interference score superposes the semantic inner product c
and the normalized lexical amplitude l as (w_s*c + w_l*l)^2; its cross term
2*w_s*w_l*c*l is constructive when the two signals agree in sign and
destructive when they conflict.

All functions here are pure and safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

FUSION_MODES = (
    "sparse_only",
    "dense_only",
    "rrf",
    "weighted_sum",
    "fidelity_rerank",
    "quantum_interference",
)


@dataclass(frozen=True, eq=False)
class AmplitudeState:
    """A real-amplitude state over 2^num_qubits basis states, unit L2 norm."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.float64)
        object.__setattr__(self, "amplitudes", amps)
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes, got {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.dot(amps, amps))
        if abs(norm_sq - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: sum of squares = {norm_sq!r}")


def amplitude_encode(values: np.ndarray) -> AmplitudeState:
    """Zero-pad to the next power of two and L2-normalize.

    Raises ``ValueError("degenerate_embedding")`` for (near-)zero input.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("expected a non-empty 1-d vector")
    norm = math.sqrt(float(np.dot(values, values)))
    if norm < 1e-12:
        raise ValueError("degenerate_embedding")
    num_qubits = max(1, (values.size - 1).bit_length())
    padded = np.zeros(1 << num_qubits, dtype=np.float64)
    padded[: values.size] = values
    return AmplitudeState(num_qubits=num_qubits, amplitudes=padded / norm)


def overlap(a: AmplitudeState, b: AmplitudeState) -> float:
    """Signed inner product <a|b> of two states."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"qubit count mismatch: {a.num_qubits} != {b.num_qubits}")
    return float(np.dot(a.amplitudes, b.amplitudes))


def fidelity(a: AmplitudeState, b: AmplitudeState) -> float:
    """State fidelity <a|b>^2, clamped to [0, 1].

    Symmetric, equals 1 on identical states, and is invariant under a global
    sign flip of either state.
    """
    ip = overlap(a, b)
    return min(1.0, max(0.0, ip * ip))


def signed_fidelity(a: AmplitudeState, b: AmplitudeState) -> float:
    """sign(<a|b>) * <a|b>^2: fidelity magnitude, but anti-correlated states
    rank below orthogonal ones instead of alongside identical ones."""
    ip = overlap(a, b)
    return min(1.0, max(-1.0, math.copysign(ip * ip, ip)))


def normalize_lexical(raw_scores: np.ndarray) -> np.ndarray:
    """Min-max normalize a per-query pool of lexical scores onto [0, 1].

    The positive scores are the pool; a score that is not positive (no query
    term in the chunk) maps to 0. A degenerate pool (max == min, including a
    single positive score) maps every positive score to 1.0, preserving ties.
    """
    raw = np.asarray(raw_scores, dtype=np.float64)
    out = np.zeros(raw.shape, dtype=np.float64)
    pool = raw > 0.0
    if pool.any():
        values = raw[pool]
        lo, hi = values.min(), values.max()
        out[pool] = 1.0 if hi == lo else (values - lo) / (hi - lo)
    return out


def interference_score(
    c: float, l: float, w_semantic: float, w_lexical: float
) -> float:
    """Squared superposed amplitude (w_s*c + w_l*l)^2 in [0, 1].

    With ``w_lexical == 0`` this reduces exactly to the fidelity c^2.
    """
    # Written so that NaN, for which every comparison is False, fails.
    if not (0 <= w_semantic and 0 <= w_lexical and abs(w_semantic + w_lexical - 1.0) <= 1e-9):
        raise ValueError("weights must be >= 0 and sum to 1")
    amp = w_semantic * c + w_lexical * l
    return amp * amp


def fuse_rrf(
    rank_lists: Sequence[Sequence[str]], rrf_k: int = 60
) -> dict[str, float]:
    """Reciprocal rank fusion: sum over lists of 1 / (rrf_k + rank), 1-based.

    Ids absent from a list simply contribute nothing for it.
    """
    if rrf_k < 1:
        raise ValueError("rrf_k must be >= 1")
    fused: dict[str, float] = {}
    for ranked in rank_lists:
        for position, cid in enumerate(ranked, start=1):
            fused[cid] = fused.get(cid, 0.0) + 1.0 / (rrf_k + position)
    return fused


@dataclass(frozen=True)
class FusionConfig:
    mode: str = "quantum_interference"
    w_semantic: float = 0.6
    w_lexical: float = 0.4
    rrf_k: int = 60
    k_sparse: int = 50
    k_dense: int = 50
    k_final: int = 10

    def __post_init__(self) -> None:
        if self.mode not in FUSION_MODES:
            raise ValueError(f"unknown mode: {self.mode}")
        for name in ("w_semantic", "w_lexical"):
            # Written so that NaN, for which every comparison is False, fails.
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if abs(self.w_semantic + self.w_lexical - 1.0) > 1e-9:
            raise ValueError("w_semantic + w_lexical must equal 1")
        for name in ("rrf_k", "k_sparse", "k_dense", "k_final"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:  # a bool is an int: refused too
                raise ValueError(f"{name} must be >= 1 and an int, got {value!r}")


def rank_candidates(
    rows: np.ndarray,
    sparse: np.ndarray | None,
    dense: np.ndarray | None,
    cfg: FusionConfig,
) -> list[tuple[int, float]]:
    """Fuse the candidates' scores under the configured mode and rank them.

    ``rows`` holds the candidates' distinct rows, which order them as their
    chunk ids do. ``sparse`` and ``dense`` hold each candidate's BM25 score
    and cosine, in the same order, or are None when that leg did not run; a
    mode that needs an absent leg raises ``ValueError`` naming it. In the
    quantum modes the cosine is the signed state overlap <psi_q|psi_d>,
    which it equals for amplitude-encoded unit vectors. Each mode's fused
    score is one array expression that rounds exactly as the scalar kernels
    above do.

    Returns the top ``k_final`` as ``(candidate position, fused)`` pairs,
    sorted by fused score descending, ties broken by row ascending. For rrf,
    the two rank lists are rebuilt from the candidates: the sparse list holds
    those with a positive BM25 score (a chunk scores > 0 iff it contains a
    query term), the dense list every candidate.
    """
    mode = cfg.mode
    if sparse is None and mode not in ("dense_only", "fidelity_rerank"):
        raise ValueError(f"mode {mode} requires sparse scores")
    if dense is None and mode != "sparse_only":
        raise ValueError(f"mode {mode} requires dense scores")
    if mode == "sparse_only":
        fused = sparse
    elif mode == "dense_only":
        fused = dense
    elif mode == "weighted_sum":
        lex = normalize_lexical(sparse)
        fused = cfg.w_semantic * ((dense + 1.0) / 2.0) + cfg.w_lexical * lex
    elif mode == "rrf":
        fused = np.zeros(len(rows), dtype=np.float64)
        for scores, pool in (
            (sparse, np.flatnonzero(sparse > 0.0)),
            (dense, np.arange(len(rows))),
        ):
            ranked = pool[np.lexsort((rows[pool], -scores[pool]))]
            fused[ranked] += 1.0 / (cfg.rrf_k + np.arange(1, len(ranked) + 1))
    elif mode == "fidelity_rerank":
        fused = np.copysign(dense * dense, dense)
    else:  # quantum_interference
        lex = normalize_lexical(sparse)
        amp = cfg.w_semantic * dense + cfg.w_lexical * lex
        fused = amp * amp
    best = np.lexsort((rows, -fused))[: cfg.k_final]
    return [(int(i), float(fused[i])) for i in best]
