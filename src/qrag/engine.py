"""Orchestration: build every index from a raw corpus, run the hybrid
retrieve pipeline, assemble generation context under the token budget, and
persist/load the whole engine.

Candidate generation is union-of-legs then re-score, all on row numbers:
row i of the lexical and of the vector index is chunk i. The two legs each
nominate their top-k rows, the union's scores are gathered as arrays, and
the configured fusion mode ranks them. Single-leg modes bypass the other
leg entirely, so their rankings are identical to the underlying index
searches.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import shutil
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import _records
from . import corpus as corpus_mod
from . import lexical, quantum, semantic
from .corpus import Chunk, ChunkTable, CleaningConfig
from .lexical import BM25Params, InvertedIndex
from .quantum import FusionConfig
from .semantic import EmbedderSpec, VectorIndex
from .tokenizer import TokenizerModel, train_bpe

logger = logging.getLogger(__name__)

FORMAT_VERSION = 4
MANIFEST_FILE = "manifest.json"
TOKENIZER_FILE = "tokenizer.json"
STATS_FILE = "stats.json"
CONTEXT_DELIMITER = "---"
# Every file of an index but the manifest, which lists each one's digest.
# Chunk ids are stored only in the chunks file; the others address chunks by row.
INDEX_FILES = (
    corpus_mod.CHUNKS_FILE, TOKENIZER_FILE, lexical.LEXICAL_FILE, semantic.VECTORS_FILE
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
        # A bool is an int and NaN fails every comparison: both are refused.
        if type(self.vocab_size) is not int or not 1 <= self.vocab_size < math.inf:
            raise ValueError(f"vocab_size must be an int >= 1, got {self.vocab_size!r}")
        if not self.cleaning.chunk_size_tokens <= self.context_budget_tokens < math.inf:
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
        chunks: ChunkTable,
        tokenizer: TokenizerModel,
        lexical_index: InvertedIndex,
        vector_index: VectorIndex,
        config: EngineConfig,
    ) -> None:
        self.chunks = chunks
        # Row i of both indexes is chunks[i], so retrieve works on rows alone.
        for name, ids in (
            ("lexical", lexical_index.chunk_ids),
            ("vector", vector_index.ids),
        ):
            if ids != chunks.chunk_ids:
                raise ValueError(f"{name} index ids do not follow the chunk order")
        self.tokenizer = tokenizer
        self.lexical_index = lexical_index
        self.vector_index = vector_index
        self.config = config
        # The dense leg's token vectors, one row per vocab id; an engine
        # whose chunk vectors come from a file has no text encoder.
        self.token_table = None
        if config.embedder.kind == "hash_projection":
            idf = lexical.idf_weights(lexical_index)
            self.token_table = semantic.TokenTable(tokenizer.tokens, idf, config.embedder.dim)
        self._sep_cost = tokenizer.token_count(CONTEXT_DELIMITER)

    @property
    def chunk_count(self) -> int:
        return len(self.chunks)

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
        seq = self.tokenizer.encode(query)
        terms = seq.surface
        timings["tokenize"] = (time.perf_counter() - t0) * 1000.0
        if not terms:
            raise ValueError("empty query")

        use_sparse = cfg.mode != "dense_only"
        use_dense = cfg.mode != "sparse_only"

        rank = self.lexical_index.id_rank
        nominated: list[int] = []
        if use_sparse:
            t0 = time.perf_counter()
            lex_vector, touched = lexical.score_rows(
                self.lexical_index, self.config.bm25, terms
            )
            nominated += lexical.top_rows(
                rank, lex_vector, np.flatnonzero(touched), cfg.k_sparse
            )
            timings["lexical"] = (time.perf_counter() - t0) * 1000.0

        if use_dense:
            t0 = time.perf_counter()
            q_emb = semantic.embed(seq.ids, self.token_table)
            dense_scores = self.vector_index.scan(q_emb)
            nominated += lexical.top_rows(
                rank, dense_scores, np.arange(len(rank)), cfg.k_dense
            )
            timings["dense"] = (time.perf_counter() - t0) * 1000.0

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
        rows = list(dict.fromkeys(nominated))
        sparse = lex_vector[rows] if use_sparse else None
        dense = dense_scores[rows] if use_dense else None
        ranked = quantum.rank_candidates(rank[rows], sparse, dense, cfg)
        ids, texts = self.chunks.chunk_ids, self.chunks.texts
        hits = [
            ScoredHit(
                chunk_id=ids[rows[i]],
                text=texts[rows[i]],
                rank=position,
                fused=fused,
                sparse_raw=None if sparse is None else float(sparse[i]),
                dense_cos=None if dense is None else float(dense[i]),
                quantum=float(dense[i]) if quantum_modes else None,
            )
            for position, (i, fused) in enumerate(ranked, start=1)
        ]
        timings["fusion"] = (time.perf_counter() - t0) * 1000.0

        t0 = time.perf_counter()
        context = format_context(
            [h.text for h in hits],
            self.lexical_index.doc_len[[rows[i] for i, _ in ranked]].tolist(),
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
    """Run one build stage: name it in any error and log its wall seconds.

    The seconds are logged, not written to ``stats.json``: two builds of one
    corpus must write byte-identical index directories.
    """
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"build stage '{name}' failed: {exc}") from exc
    logger.info("build stage %s: %.3f s", name, time.perf_counter() - t0)


def prepare(
    corpus_path: str | Path, cfg: EngineConfig, stats: dict
) -> tuple[TokenizerModel, ChunkTable]:
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
    return tok, ChunkTable.from_chunks(chunks)


def build_all(
    corpus_path: str | Path, cfg: EngineConfig, out_dir: str | Path
) -> IndexManifest:
    """Run ``prepare``, then encode each chunk once and build the lexical
    index and the vectors from its terms, then persist everything.

    Deterministic: rebuilding from identical inputs writes byte-identical
    index files (the manifest timestamp aside).
    """
    out = Path(out_dir)
    _check_replaceable(out)
    stats: dict = {}
    tok, chunks = prepare(corpus_path, cfg, stats)
    ids = chunks.chunk_ids

    with _stage("lexical_index"):
        # Only each chunk's ids are kept; its terms are looked up from them.
        chunk_ids = deque(tok.encode(text).ids for text in chunks.texts)
        lex_index = lexical.build_index(
            ids, (list(map(tok.tokens.__getitem__, i)) for i in chunk_ids)
        )

    with _stage("embed"):
        if cfg.embedder.kind == "external_file":
            chunk_ids.clear()
            vec_index = semantic.load_external_embeddings(cfg.embedder.path, ids)
        else:
            table = semantic.TokenTable(
                tok.tokens, lexical.idf_weights(lex_index), cfg.embedder.dim
            )
            # popleft drops each chunk's ids once they are embedded.
            vectors = (semantic.embed(chunk_ids.popleft(), table) for _ in ids)
            vec_index = VectorIndex.build(ids, vectors)
            # Freed before the engine below makes its own, so that the two
            # tables are never held at once.
            del table, vectors

    engine = RetrievalEngine(chunks, tok, lex_index, vec_index, cfg)
    with _stage("save"):
        manifest = save_index(engine, out, stats)
    logger.info("built index: %d chunks (%s)", len(chunks), out)
    return manifest


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _check_replaceable(out: Path) -> None:
    """Refuse a target that is not absent, empty or an index, so that no save
    deletes unrelated files."""
    if out.exists() and not (out / MANIFEST_FILE).is_file():
        if not out.is_dir() or any(out.iterdir()):
            raise ValueError(f"refusing to replace {out}: not an empty directory or an index")


def save_index(
    engine: RetrievalEngine, out_dir: str | Path, stats: dict | None = None
) -> IndexManifest:
    """Persist all engine state, and ``stats`` as ``stats.json`` when given;
    the manifest carries per-file digests.

    The files are written into a sibling temp directory that then takes the
    place of ``out_dir``, so a failure part-way leaves any previous index
    whole, and no file of an earlier format is left behind.
    """
    out = Path(os.path.abspath(out_dir))
    _check_replaceable(out)
    tmp = out.with_name(f".{out.name}.tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        corpus_mod.save_chunks(engine.chunks, tmp)
        engine.tokenizer.save(tmp / TOKENIZER_FILE)
        lexical.save(engine.lexical_index, tmp)
        semantic.save(engine.vector_index, tmp)
        files = {name: _sha256_file(tmp / name) for name in INDEX_FILES}
        manifest = IndexManifest(
            format_version=FORMAT_VERSION,
            created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            chunk_count=engine.chunk_count,
            tokenizer_sha256=files[TOKENIZER_FILE],
            embedder=engine.config.embedder,
            config=engine.config,
            files=files,
        )
        _records.write_json(manifest.to_dict(), tmp / MANIFEST_FILE)
        if stats is not None:
            _records.write_json(stats, tmp / STATS_FILE)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    old = out.with_name(f".{out.name}.old-{os.getpid()}")
    if out.exists():
        out.rename(old)
    tmp.rename(out)
    shutil.rmtree(old, ignore_errors=True)
    return manifest


def _read_manifest(src: Path) -> IndexManifest:
    """The manifest of the index at ``src``, once its format version, its
    file list and the fields that repeat one another are found to agree."""
    manifest_path = src / MANIFEST_FILE
    if not manifest_path.exists():
        raise FileNotFoundError(f"missing file: {manifest_path}")
    try:
        raw = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{MANIFEST_FILE}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{MANIFEST_FILE}: expected a JSON object")
    # Check the version first: another version may have other keys.
    if raw.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported version: {raw.get('format_version')}; rebuild the index"
        )
    manifest = IndexManifest.from_dict(raw)
    unknown = sorted(set(manifest.files) - set(INDEX_FILES))
    if unknown:
        raise ValueError(f"manifest lists an unknown file: {unknown[0]}")
    for name in INDEX_FILES:
        if name not in manifest.files:
            raise ValueError(f"manifest does not list: {name}")
    if manifest.tokenizer_sha256 != manifest.files[TOKENIZER_FILE]:
        raise ValueError(f"manifest tokenizer_sha256 is not the digest of {TOKENIZER_FILE}")
    if manifest.embedder != manifest.config.embedder:
        raise ValueError("manifest embedder is not config.embedder")
    return manifest


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_digests(manifest: IndexManifest, digests: Mapping[str, Future]) -> None:
    """Wait for each digest, in read order; refuse the first that differs
    from the manifest's."""
    for name, digest in digests.items():
        if digest.result() != manifest.files[name]:
            raise ValueError(f"digest mismatch: {name}")


def load_index(in_dir: str | Path) -> RetrievalEngine:
    """Load a persisted engine, verifying the format version, that the
    manifest lists exactly ``INDEX_FILES`` and agrees with itself and with
    the files, and each file's digest.

    Each file is read once, in ``INDEX_FILES`` order, and parsed from the
    bytes read while one worker thread hashes the same bytes (``hashlib``
    releases the GIL), so the digests cover exactly what was parsed. A
    digest mismatch is reported ahead of any parse error. The worker does
    nothing but hash, and it is joined before the load returns or raises.
    Logs one INFO line with each file's read and parse seconds, the
    impacts' seconds and the wait for the digests.
    """
    src = Path(in_dir)
    manifest = _read_manifest(src)
    config = manifest.config
    seconds: dict[str, tuple[float, float]] = {}
    digests: dict[str, Future] = {}
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="qrag-digest") as hasher:

        def load(name: str, parse: Callable[[bytes], Any]) -> Any:
            path = src / name
            t0 = time.perf_counter()
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                raise FileNotFoundError(f"missing file: {path}") from None
            digests[name] = hasher.submit(_sha256, data)
            t1 = time.perf_counter()
            parsed = parse(data)
            seconds[name] = (t1 - t0, time.perf_counter() - t1)
            return parsed

        try:
            chunks = load(corpus_mod.CHUNKS_FILE, corpus_mod.parse_chunks)
            if len(chunks) != manifest.chunk_count:
                raise ValueError(
                    f"manifest chunk_count is {manifest.chunk_count}, but "
                    f"{corpus_mod.CHUNKS_FILE} holds {len(chunks)} chunks"
                )
            ids = chunks.chunk_ids
            tok = load(TOKENIZER_FILE, lambda data: TokenizerModel.from_json(data.decode("utf-8")))
            lex_index = load(lexical.LEXICAL_FILE, lambda data: lexical.parse(data, ids))
            vec_index = load(semantic.VECTORS_FILE, lambda data: semantic.parse(data, ids))
            if config.embedder.kind == "hash_projection" and vec_index.dim != config.embedder.dim:
                raise ValueError(
                    f"manifest config.embedder.dim is {config.embedder.dim}, but "
                    f"{semantic.VECTORS_FILE} holds {vec_index.dim}-dim vectors"
                )
            # Paid here rather than by the first query; build_all, which never
            # queries, does not pay for them.
            t0 = time.perf_counter()
            lex_index.impacts(config.bm25)
            impacts_s = time.perf_counter() - t0
        except Exception:
            _check_digests(manifest, digests)
            raise
        t0 = time.perf_counter()
        _check_digests(manifest, digests)
        wait_s = time.perf_counter() - t0
    logger.info(
        "loaded index %s: %s; impacts %.3f s; digest wait %.3f s",
        src,
        "; ".join(f"{name} read {r:.3f} s parse {p:.3f} s" for name, (r, p) in seconds.items()),
        impacts_s,
        wait_s,
    )
    return RetrievalEngine(chunks, tok, lex_index, vec_index, config)
