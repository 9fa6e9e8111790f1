"""qrag: hybrid sparse/dense retrieval with quantum-inspired re-scoring.

The pipeline: a cleaning/chunking corpus stage feeds a trainable BPE
tokenizer; chunks are indexed both in a BM25 inverted index and an
exact-scan vector index; candidates from the two legs are re-scored with
amplitude/fidelity/interference kernels and fused into the final ranking.
"""

from .corpus import (
    CleanDocument,
    CleaningConfig,
    RawDocument,
    chunk,
    clean_text,
    dedup_key,
    gurmukhi_fraction,
    ingest_jsonl,
    quality_check,
)
from .engine import (
    EngineConfig,
    IndexManifest,
    RetrievalEngine,
    RetrievalResponse,
    ScoredHit,
    build_all,
    format_context,
    load_index,
    save_index,
)
from .evalkit import (
    MetricReport,
    evaluate_run,
    mrr,
    ndcg_at_k,
    recall_at_k,
    rouge_l,
)
from .lexical import BM25Params, InvertedIndex, bm25_score, build_index, idf
from .quantum import (
    AmplitudeState,
    FusionConfig,
    amplitude_encode,
    fidelity,
    fuse_rrf,
    interference_score,
    normalize_lexical,
    rank_candidates,
    signed_fidelity,
)
from .semantic import (
    EmbedderSpec,
    TokenTable,
    VectorIndex,
    cosine,
    embed,
    token_vectors,
)
from .tokenizer import TokenizerModel, normalize, train_bpe

__version__ = "0.1.0"
