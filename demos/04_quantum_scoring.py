"""
Quantum-inspired scoring
========================

Amplitude encoding turns unit embeddings into simulated n-qubit state
vectors; the fidelity kernel <a|b>^2 then equals the squared cosine of the
underlying embeddings. The interference score superposes the semantic inner
product with a normalized lexical amplitude before squaring, so agreeing
signals reinforce (constructive) and conflicting ones cancel (destructive).
"""

import numpy as np

from qrag.quantum import (
    FusionConfig,
    amplitude_encode,
    fidelity,
    fuse_rrf,
    interference_score,
    normalize_lexical,
    rank_candidates,
    signed_fidelity,
)
from qrag.semantic import cosine

# -- amplitude encoding ---------------------------------------------------------

state = amplitude_encode(np.array([3.0, 4.0]))
print("encode [3, 4] ->", state.amplitudes, f"({state.num_qubits} qubit)")
state3 = amplitude_encode(np.array([1.0, 1.0, 1.0]))
print("encode [1, 1, 1] ->", np.round(state3.amplitudes, 4), f"({state3.num_qubits} qubits)")

# -- fidelity kernel == squared cosine -------------------------------------------

rng = np.random.default_rng(0)
a, b = rng.standard_normal(16), rng.standard_normal(16)
fid = fidelity(amplitude_encode(a), amplitude_encode(b))
print(f"\nfidelity={fid:.6f}  cosine^2={cosine(a, b) ** 2:.6f}")

anti = amplitude_encode(-a)
print("global sign flip: fidelity", fidelity(amplitude_encode(a), anti), end="")
print(", signed", signed_fidelity(amplitude_encode(a), anti))

# -- interference: constructive vs destructive ------------------------------------

print("\ninterference (w_semantic = w_lexical = 0.5):")
for c, l in [(0.6, 0.8), (0.6, 0.0), (-0.6, 0.8), (-1.0, 1.0)]:
    score = interference_score(c, l, 0.5, 0.5)
    cross = 2 * 0.5 * 0.5 * c * l
    kind = "constructive" if cross > 0 else "destructive" if cross < 0 else "none"
    print(f"  c={c:+.1f} l={l:.1f} -> {score:.4f}  (cross term {cross:+.3f}, {kind})")

# -- fusion modes over one candidate pool -----------------------------------------

# One entry per candidate, in the same order: its id, its row, its BM25 score
# and its cosine. An index holds its chunks in id order, so the candidates,
# listed in id order here, have increasing rows, on which equal fused scores
# break their ties. doc-c holds no query term, so its BM25 score is 0 and its
# lexical amplitude is 0; the positive scores are min-max normalized onto
# [0, 1].
ids = ["doc-a", "doc-b", "doc-c"]
rows = np.array([0, 1, 2])
sparse = np.array([7.1, 2.4, 0.0])
dense = np.array([0.35, 0.80, 0.62])
print("\nlexical amplitudes:", dict(zip(ids, normalize_lexical(sparse).tolist())))
print("ranking the same pool under each fusion mode:")
for mode in ("sparse_only", "dense_only", "rrf", "weighted_sum", "fidelity_rerank", "quantum_interference"):
    ranked = rank_candidates(rows, sparse, dense, FusionConfig(mode=mode))
    order = ", ".join(f"{ids[i]}({fused:.3f})" for i, fused in ranked)
    print(f"  {mode:21s}: {order}")

print("\nreciprocal rank fusion of two lists:")
fused = fuse_rrf([["doc-a", "doc-b"], ["doc-b", "doc-c", "doc-a"]], rrf_k=60)
for cid, score in sorted(fused.items(), key=lambda kv: -kv[1]):
    print(f"  {cid}: {score:.5f}")
