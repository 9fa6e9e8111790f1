"""Orchestration: build every index from a raw corpus, run the hybrid
retrieve pipeline, assemble generation context under the token budget, and
persist/load the whole engine.

Candidate generation is union-of-legs then re-score, all on row numbers:
row i of the chunk table, of the lexical and of the vector index is chunk
i, and rows are in chunk-id order, so a row number is its chunk's id rank
and ties between equal scores go to the lower row. Only the chunk table
holds the ids; a hit's row is mapped to its id last. The two legs each
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
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import _npy, _records
from . import corpus as corpus_mod
from . import lexical, quantum, semantic
from .corpus import ChunkTable, CleaningConfig
from .lexical import BM25Params, InvertedIndex
from .quantum import FusionConfig
from .semantic import EmbedderSpec, VectorIndex
from .tokenizer import TokenizerModel, train_bpe

logger = logging.getLogger(__name__)

FORMAT_VERSION = 12
INDEX_FILE = "index.npy"
STATS_FILE = "stats.json"
CONTEXT_DELIMITER = "---"
# The sections of an index file, in file order: the manifest's and the
# tokenizer's JSON as UTF-8, then each store's arrays; the chunks are vocab
# ids of the tokenizer, and only they hold the chunk ids, which the other
# stores address by row. The SHA-256 of every byte before it ends the file.
INDEX_ARRAYS = (
    _npy.Array("manifest", "uint8", 1, None),
    _npy.Array("tokenizer", "uint8", 1, None),
    *corpus_mod.CHUNK_ARRAYS,
    *lexical.LEXICAL_ARRAYS,
    *semantic.VECTOR_ARRAYS,
)
DIGEST_SIZE = hashlib.sha256().digest_size
# The files of formats up to 11 but ``stats.json``, format 11's first; a save
# deletes them, and a directory with a ``manifest.json`` is an index.
EARLIER_FILES = (
    "manifest.json", "tokenizer.json", "chunks.npy", "lexical.npy", "vectors.npy",
    "chunks.jsonl", "lexical.jsonl", "doclen.jsonl", "vectors.bin", "vectors.ids",
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
    """The first section of an index file."""

    format_version: int
    chunk_count: int
    config: EngineConfig

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
    ids = tok.encode(text)
    k = min(budget, len(ids))
    # Re-encoding a decoded mid-word prefix can change the token count, so
    # back off until the decoded prefix fits.
    while k > 0:
        candidate = tok.decode(ids[:k])
        if tok.token_count(candidate) <= budget:
            return candidate
        k -= 1
    return ""


class RetrievalEngine:
    """A shareable retrieval engine over built indexes. A retrieve writes
    into it only two bounded caches: the tokenizer's word cache
    (``WORD_CACHE_MAX`` tokens) and the chunk table's text slots, one per
    chunk, each filled with its chunk's decoded text when a response first
    returns it."""

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
        for name, rows in (("lexical", lexical_index.N), ("vector", len(vector_index))):
            if rows != len(chunks):
                raise ValueError(f"{name} index has {rows} rows for {len(chunks)} chunks")
        # Term j of the lexical index is vocab id j.
        if len(lexical_index.offsets) != tokenizer.vocab_size() + 1:
            raise ValueError("lexical index terms do not follow the vocabulary")
        self.tokenizer = tokenizer
        self.lexical_index = lexical_index
        self.vector_index = vector_index
        self.config = config
        # The dense leg's weight of each vocab id; a query's token vectors are
        # computed by each embed.
        self.token_table = _token_table(tokenizer, lexical_index, config.embedder.dim)
        self._sep_cost = tokenizer.token_count(CONTEXT_DELIMITER)

    @property
    def chunk_count(self) -> int:
        return len(self.chunks)

    def retrieve(
        self,
        query: str,
        mode: str | None = None,
        k_final: int | None = None,
    ) -> RetrievalResponse:
        """Run the hybrid pipeline for one query: its ``<unk>`` ids dropped,
        none left is a ``ValueError``.

        Every hit carries all component scores that were computed for it, so
        ablations can be read off a single response.
        """
        cfg = self.config.fusion
        if mode is not None:
            cfg = replace(cfg, mode=mode)
        if k_final is not None:
            cfg = replace(cfg, k_final=k_final)

        timings: dict[str, float] = {}
        t_start = time.perf_counter()

        t0 = time.perf_counter()
        ids = self.tokenizer.encode(query)
        # <unk> stands for no text a chunk holds: it may not steer a leg.
        terms = [t for t in ids if t != self.tokenizer.unk_id]
        timings["tokenize"] = (time.perf_counter() - t0) * 1000.0
        if not terms:
            raise ValueError("no query term is in the vocabulary" if ids else "empty query")

        use_sparse = cfg.mode != "dense_only"
        use_dense = cfg.mode != "sparse_only"

        nominated: list[int] = []
        if use_sparse:
            t0 = time.perf_counter()
            lex_vector, touched = lexical.score_rows(
                self.lexical_index, self.config.bm25, terms
            )
            nominated += lexical.top_rows(
                lex_vector, lexical.touched_rows(touched, cfg.k_sparse), cfg.k_sparse
            )
            timings["lexical"] = (time.perf_counter() - t0) * 1000.0

        if use_dense:
            t0 = time.perf_counter()
            q_emb = semantic.embed(terms, self.token_table)
            dense_scores = self.vector_index.scan(q_emb)
            nominated += lexical.top_rows(dense_scores, None, cfg.k_dense)
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
        rows = np.fromiter(dict.fromkeys(nominated), dtype=np.intp)
        sparse = lex_vector[rows] if use_sparse else None
        dense = dense_scores[rows] if use_dense else None
        ranked = quantum.rank_candidates(rows, sparse, dense, cfg)
        hit_rows = rows[[i for i, _ in ranked]].tolist()
        ids, texts = self.chunks.chunk_ids, self.chunks.texts(hit_rows)
        hits = [
            ScoredHit(
                chunk_id=ids[row],
                text=text,
                rank=position,
                fused=fused,
                sparse_raw=None if sparse is None else float(sparse[i]),
                dense_cos=None if dense is None else float(dense[i]),
                quantum=float(dense[i]) if quantum_modes else None,
            )
            for position, (row, text, (i, fused)) in enumerate(
                zip(hit_rows, texts, ranked), start=1
            )
        ]
        timings["fusion"] = (time.perf_counter() - t0) * 1000.0

        t0 = time.perf_counter()
        context = format_context(
            [h.text for h in hits],
            self.chunks.token_counts[hit_rows].tolist(),
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
    counting what each step kept and dropped in ``stats``. The chunks come
    back in chunk-id order, the row order of every index."""
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
        windows = [w for doc in docs for w in corpus_mod.chunk(doc, cfg.cleaning, tok)]
        stats["chunks"] = len(windows)
        if not windows:
            raise ValueError("empty corpus after chunking")
        windows.sort(key=attrgetter("chunk_id"))
        table = ChunkTable.from_windows(windows, tok)
    return tok, table


def _token_table(tok: TokenizerModel, index: InvertedIndex, dim: int) -> semantic.TokenTable:
    """The dense leg's weights: each vocab id's is its idf where a chunk
    holds it, 1.0 where none does, and 0.0 for ``<unk>`` and ``<pad>``,
    which stand for no text."""
    weights = np.where(np.diff(index.offsets) > 0, index.idfs, 1.0)
    weights[[tok.vocab[t] for t in tok.special_tokens]] = 0.0
    return semantic.TokenTable(tok.tokens, weights, dim)


def build_all(
    corpus_path: str | Path, cfg: EngineConfig, out_dir: str | Path
) -> IndexManifest:
    """Run ``prepare``, then build the lexical index and the vectors from
    the chunk table's stored terms, each chunk's vocab ids, then persist
    everything.

    Deterministic: rebuilding from identical inputs writes byte-identical
    files.
    """
    out = Path(out_dir)
    _check_replaceable(out)
    stats: dict = {}
    tok, chunks = prepare(corpus_path, cfg, stats)

    with _stage("lexical_index"):
        lex_index = lexical.build_index(chunks.tokens, chunks.token_counts, tok.vocab_size())

    with _stage("embed"):
        n = len(chunks)
        table = _token_table(tok, lex_index, cfg.embedder.dim)
        # Every token's vector, computed once for all the chunks' embeds and
        # freed with the stage: the engine holds none.
        matrix = semantic.token_matrix(tok.tokens, cfg.embedder.dim)
        vectors = (
            semantic.embed(chunks.token_ids(row).tolist(), table, matrix) for row in range(n)
        )
        vec_index = VectorIndex.build(n, vectors)
        del matrix, vectors

    engine = RetrievalEngine(chunks, tok, lex_index, vec_index, cfg)
    with _stage("save"):
        manifest = save_index(engine, out, stats)
    logger.info("built index: %d chunks (%s)", len(chunks), out)
    return manifest


def _check_replaceable(out: Path) -> None:
    """Refuse a target that is not absent, or a directory that holds an index
    of any format or nothing but temp files of a save, so that no save
    overwrites or deletes unrelated files."""
    if not out.exists():
        return
    names = set(os.listdir(out)) if out.is_dir() else None
    temps = (f".{INDEX_FILE}", f".{STATS_FILE}")
    if names is None or (
        not names & {INDEX_FILE, EARLIER_FILES[0]}
        and not all(name.rpartition(".tmp-")[0] in temps for name in names)
    ):
        raise ValueError(f"refusing to replace {out}: not an empty directory or an index")


def _dead(pid: str) -> bool:
    """Whether no process has the id ``pid``, a decimal number."""
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return True
    except (ValueError, OSError):  # not a number, or another user's process
        pass
    return False


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _replace(path: Path, write: Callable[[Path], object]) -> None:
    """Make ``path`` the file that ``write(tmp)`` writes to a temp file of
    this process beside it, fsynced, by one ``os.replace``, then fsync the
    directory: ``path`` is the old file or the whole new one at every
    instant. First delete each temp file of ``path`` a dead process left."""
    for stale in path.parent.glob(f".{path.name}.tmp-*"):
        if _dead(stale.name.rpartition("-")[2]):
            stale.unlink(missing_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        write(tmp)
        _fsync(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync(path.parent)


def _write_index(path: Path, manifest: IndexManifest, engine: RetrievalEngine) -> None:
    """Write the sections of ``INDEX_ARRAYS``, then their SHA-256, to ``path``."""
    text = json.dumps(manifest.to_dict(), ensure_ascii=False, sort_keys=True)
    arrays = (
        np.frombuffer(text.encode(), np.uint8),
        np.frombuffer(engine.tokenizer.to_json().encode(), np.uint8),
        *corpus_mod.chunk_arrays(engine.chunks),
        *lexical.index_arrays(engine.lexical_index),
        *semantic.index_arrays(engine.vector_index),
    )
    with open(path, "w+b") as fh:
        _npy.write(fh, arrays)
        fh.seek(0)
        sha256 = hashlib.sha256()
        while block := fh.read(1 << 20):
            sha256.update(block)
        fh.write(sha256.digest())


def save_index(
    engine: RetrievalEngine, out_dir: str | Path, stats: dict | None = None
) -> IndexManifest:
    """Persist all engine state as the file ``INDEX_FILE`` in the directory
    ``out_dir``, then ``stats`` as ``stats.json`` beside it (or delete that
    without ``stats``), each by ``_replace``, so an exception or a crash at
    any point leaves a whole index there, the old or the new; then delete
    ``EARLIER_FILES`` there."""
    out = Path(out_dir)
    _check_replaceable(out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = IndexManifest(FORMAT_VERSION, engine.chunk_count, engine.config)
    _replace(out / INDEX_FILE, lambda tmp: _write_index(tmp, manifest, engine))
    if stats is None:
        (out / STATS_FILE).unlink(missing_ok=True)
    else:
        _replace(out / STATS_FILE, lambda tmp: _records.write_json(stats, tmp))
    for name in EARLIER_FILES:
        (out / name).unlink(missing_ok=True)
    return manifest


def _manifest(data: bytes) -> IndexManifest:
    """The manifest in the JSON ``data``, once its format version is found
    to be this format's: another version may have other keys."""
    raw = json.loads(data)
    if not isinstance(raw, dict):
        raise ValueError("expected a JSON object")
    if raw.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported version: {raw.get('format_version')}; rebuild the index")
    return IndexManifest.from_dict(raw)


def _named(name: str, parse: Callable[[], Any]) -> Any:
    """``parse()``, each refusal a ``ValueError`` that starts with ``name``."""
    try:
        return parse()
    except (ValueError, RecursionError) as exc:  # the latter: JSON nested too deep
        raise ValueError(f"{name}: {exc}") from None


def load_index(in_dir: str | Path) -> RetrievalEngine:
    """Load the engine persisted in the directory ``in_dir``, checking the
    format version first. The index file is read once, a section at a time,
    and each store parsed once read, while one worker thread hashes the same
    bytes in file order, so the digest covers exactly the bytes parsed; a
    digest mismatch is reported ahead of any parse error. A directory of
    format 11 or earlier is refused by its ``manifest.json``'s version. Logs
    one INFO line of each store's seconds, the impacts' and the digest wait.
    """
    src = Path(in_dir)
    path, earlier = src / INDEX_FILE, src / EARLIER_FILES[0]
    if not path.exists() and earlier.is_file():
        _named(earlier.name, lambda: _manifest(earlier.read_bytes()))
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise FileNotFoundError(f"missing file: {path}") from None
    seconds: dict[str, float] = {}
    with fh, ThreadPoolExecutor(max_workers=1, thread_name_prefix="qrag-digest") as hasher:
        end = max(os.fstat(fh.fileno()).st_size - DIGEST_SIZE, 0)
        sha256 = hashlib.sha256()

        def hash_later(data: bytes) -> None:
            hasher.submit(sha256.update, data)

        def check_digest() -> None:  # hashing what the parse left unread first
            while fh.tell() < end and (block := fh.read(min(end - fh.tell(), 1 << 20))):
                hash_later(block)
            fh.seek(end)
            if fh.read() != hasher.submit(sha256.digest).result():
                raise ValueError("digest mismatch")

        sizes: dict[str, int] = {}
        arrays = _npy.read(fh, INDEX_ARRAYS, end, sizes, hash_later)

        def parse(store: str, parser: Callable[[], Any]) -> Any:
            t0 = time.perf_counter()
            parsed = _named(store, parser)
            seconds[store] = time.perf_counter() - t0
            return parsed

        try:
            manifest = parse("manifest", lambda: _manifest(next(arrays).tobytes()))
            config = manifest.config
            sizes["N"] = manifest.chunk_count
            tok = parse(
                "tokenizer", lambda: TokenizerModel.from_json(str(next(arrays).data, "utf-8"))
            )
            sizes["V"] = tok.vocab_size()
            chunks = parse("chunks", lambda: corpus_mod.parse_chunks(arrays, tok))
            lex_index = parse("lexical", lambda: lexical.parse(arrays, chunks.token_counts))
            vec_index = parse("vectors", lambda: semantic.parse(arrays))
            arrays.close()  # the generator holds the last array's bytes
            if vec_index.dim != config.embedder.dim:
                raise ValueError(
                    f"manifest config.embedder.dim is {config.embedder.dim}, but "
                    f"the vectors are {vec_index.dim}-dim"
                )
            # Paid here rather than by the first query; build_all, which never
            # queries, does not pay for them.
            t0 = time.perf_counter()
            lex_index.impacts(config.bm25)
            impacts_s = time.perf_counter() - t0
        except Exception:
            check_digest()
            raise
        t0 = time.perf_counter()
        check_digest()
        wait_s = time.perf_counter() - t0
    logger.info(
        "loaded index %s: %s; impacts %.3f s; digest wait %.3f s",
        src,
        "; ".join(f"{store} {s:.3f} s" for store, s in seconds.items()),
        impacts_s,
        wait_s,
    )
    return RetrievalEngine(chunks, tok, lex_index, vec_index, config)
