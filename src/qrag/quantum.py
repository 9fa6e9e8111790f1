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
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import _records

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


def normalize_lexical(raw_scores: Mapping[str, float]) -> dict[str, float]:
    """Min-max normalize a per-query pool of lexical scores onto [0, 1].

    A degenerate pool (max == min, including a single candidate) maps every
    value to 1.0, preserving ties.
    """
    if not raw_scores:
        return {}
    values = raw_scores.values()
    lo, hi = min(values), max(values)
    if hi == lo:
        return {cid: 1.0 for cid in raw_scores}
    span = hi - lo
    return {cid: (s - lo) / span for cid, s in raw_scores.items()}


def interference_score(
    c: float, l: float, w_semantic: float, w_lexical: float
) -> float:
    """Squared superposed amplitude (w_s*c + w_l*l)^2 in [0, 1].

    With ``w_lexical == 0`` this reduces exactly to the fidelity c^2.
    """
    if w_semantic < 0 or w_lexical < 0 or abs(w_semantic + w_lexical - 1.0) > 1e-9:
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
    signed_fidelity: bool = True

    def __post_init__(self) -> None:
        if self.mode not in FUSION_MODES:
            raise ValueError(f"unknown mode: {self.mode}")
        if self.w_semantic < 0 or self.w_lexical < 0:
            raise ValueError("fusion weights must be >= 0")
        if abs(self.w_semantic + self.w_lexical - 1.0) > 1e-9:
            raise ValueError("w_semantic + w_lexical must equal 1")
        for name in ("rrf_k", "k_sparse", "k_dense", "k_final"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def to_dict(self) -> dict:
        return _records.to_dict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "FusionConfig":
        return _records.from_dict(cls, d)


@dataclass
class CandidateScore:
    """Per-candidate component scores feeding fusion.

    ``quantum`` holds the signed state overlap <psi_q|psi_d> when a quantum
    mode ranks the candidates (the engine reads it off the dense cosine,
    which it equals for amplitude-encoded unit vectors); ``fused`` is filled
    by ``rank_candidates``.
    """

    chunk_id: str
    sparse_raw: float | None = None
    dense_cos: float | None = None
    lexical_norm: float = 0.0
    quantum: float | None = None
    fused: float = 0.0


def _require_any(cands: Sequence[CandidateScore], attr: str, mode: str) -> None:
    if cands and all(getattr(c, attr) is None for c in cands):
        raise ValueError(f"mode {mode} requires {attr}, absent for every candidate")


def rank_candidates(
    cands: Sequence[CandidateScore], cfg: FusionConfig
) -> list[CandidateScore]:
    """Fuse per-candidate scores under the configured mode and rank.

    Returns the top ``k_final`` candidates sorted by fused score descending,
    ties broken by chunk id ascending; single-leg modes rank only the
    candidates carrying that leg's score. For rrf, the two rank lists are
    reconstructed from the candidate pool: the sparse list holds candidates
    with a positive BM25 score (a chunk scores > 0 iff it contains a query
    term), the dense list all candidates with a cosine.
    """
    mode = cfg.mode
    if mode == "sparse_only":
        _require_any(cands, "sparse_raw", mode)
        pool = [replace(c, fused=c.sparse_raw) for c in cands if c.sparse_raw is not None]
    elif mode == "dense_only":
        _require_any(cands, "dense_cos", mode)
        pool = [replace(c, fused=c.dense_cos) for c in cands if c.dense_cos is not None]
    elif mode == "weighted_sum":
        _require_any(cands, "dense_cos", mode)
        pool = [
            replace(
                c,
                fused=cfg.w_semantic
                * ((c.dense_cos + 1.0) / 2.0 if c.dense_cos is not None else 0.0)
                + cfg.w_lexical * c.lexical_norm,
            )
            for c in cands
        ]
    elif mode == "rrf":
        sparse_ids = [
            c.chunk_id
            for c in sorted(
                (c for c in cands if c.sparse_raw is not None and c.sparse_raw > 0.0),
                key=lambda c: (-c.sparse_raw, c.chunk_id),
            )
        ]
        dense_ids = [
            c.chunk_id
            for c in sorted(
                (c for c in cands if c.dense_cos is not None),
                key=lambda c: (-c.dense_cos, c.chunk_id),
            )
        ]
        if cands and not sparse_ids and not dense_ids:
            raise ValueError("mode rrf requires sparse or dense scores")
        fused = fuse_rrf([sparse_ids, dense_ids], cfg.rrf_k)
        pool = [replace(c, fused=fused.get(c.chunk_id, 0.0)) for c in cands]
    elif mode == "fidelity_rerank":
        _require_any(cands, "quantum", mode)
        pool = []
        for c in cands:
            if c.quantum is None:
                continue
            ip = c.quantum
            sq = ip * ip
            pool.append(replace(c, fused=math.copysign(sq, ip) if cfg.signed_fidelity else sq))
    elif mode == "quantum_interference":
        _require_any(cands, "quantum", mode)
        pool = [
            replace(
                c,
                fused=interference_score(
                    c.quantum, c.lexical_norm, cfg.w_semantic, cfg.w_lexical
                ),
            )
            for c in cands
            if c.quantum is not None
        ]
    else:  # pragma: no cover - guarded by FusionConfig
        raise ValueError(f"unknown mode: {mode}")

    pool.sort(key=lambda c: (-c.fused, c.chunk_id))
    return pool[: cfg.k_final]
