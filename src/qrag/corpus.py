"""Corpus ingestion and the cleaning pipeline: markup stripping, dedup,
language and quality filtering, and token-window chunking.

Every stage is a pure function over a single document, so the pipeline can be
parallelized per document; only the duplicate-detection pass holds shared
state (the set of digests already seen).
"""

from __future__ import annotations

import hashlib
import html
import json
import logging
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from . import _records
from .tokenizer import TokenizerModel, normalize

logger = logging.getLogger(__name__)

_TAG_RE = re.compile(r"<[^>]*>")
# Cc controls minus the whitespace ones, which must survive long enough to
# collapse into single spaces ("a\t\tb" -> "a b", not "ab").
_CTRL_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f]")

GURMUKHI_LO = 0x0A00
GURMUKHI_HI = 0x0A7F


@dataclass(frozen=True)
class RawDocument:
    """An as-ingested document before any cleaning."""

    doc_id: str
    text: str
    source: str = ""
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")


@dataclass(frozen=True)
class CleanDocument:
    """A cleaned document: markup-free, normalized, with dedup digest."""

    doc_id: str
    text: str
    gurmukhi_fraction: float
    dedup_digest: str


@dataclass(frozen=True)
class Chunk:
    """A retrievable passage: a token window over a cleaned document."""

    chunk_id: str
    doc_id: str
    token_offset: int
    token_count: int
    text: str


@dataclass(frozen=True)
class CleaningConfig:
    min_gurmukhi_fraction: float = 0.5
    min_tokens: int = 10
    max_punct_ratio: float = 0.5
    chunk_size_tokens: int = 256
    chunk_overlap_tokens: int = 64

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_gurmukhi_fraction <= 1.0:
            raise ValueError("min_gurmukhi_fraction must be in [0, 1]")
        if self.chunk_overlap_tokens >= self.chunk_size_tokens:
            raise ValueError("chunk_overlap_tokens must be < chunk_size_tokens")
        if self.min_tokens < 1:
            raise ValueError("min_tokens must be >= 1")


def ingest_jsonl(path: str | Path, stats: dict | None = None) -> Iterator[RawDocument]:
    """Yield documents from a JSONL file in file order.

    Each line is an object with ``text`` plus optional ``id``, ``source`` and
    ``metadata``; a missing id becomes ``line-{n}`` from the 0-based line
    index. Malformed or non-UTF-8 lines are skipped and counted in
    ``stats["malformed"]``.
    """
    if stats is not None:
        stats.setdefault("ingested", 0)
        stats.setdefault("malformed", 0)
    path = Path(path)
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw.decode("utf-8"))
                if not isinstance(obj, dict):
                    raise ValueError("line is not a JSON object")
                text = obj["text"]
                if not isinstance(text, str):
                    raise ValueError("text is not a string")
            except (UnicodeDecodeError, ValueError, KeyError) as exc:
                logger.debug("skipping line %d of %s: %s", lineno, path, exc)
                if stats is not None:
                    stats["malformed"] += 1
                continue
            doc_id = obj.get("id")
            doc_id = str(doc_id) if doc_id not in (None, "") else f"line-{lineno}"
            metadata = obj.get("metadata") or {}
            if not isinstance(metadata, dict):
                metadata = {}
            if stats is not None:
                stats["ingested"] += 1
            yield RawDocument(
                doc_id=doc_id,
                text=text,
                source=str(obj.get("source", "")),
                metadata={str(k): str(v) for k, v in metadata.items()},
            )


def _strip_markup(text: str) -> str:
    # Iterate to a fixpoint so the result contains no decodable entities,
    # strippable tags, or control characters; this makes clean_text
    # idempotent even on adversarial inputs like "&amp;amp;" or "&lt;b&gt;".
    prev = None
    while prev != text:
        prev = text
        text = _CTRL_RE.sub("", text)
        text = html.unescape(text)
        text = _TAG_RE.sub(" ", text)
    return text


def clean_text(raw: RawDocument, cfg: CleaningConfig) -> CleanDocument:
    """Strip markup and control characters, normalize, digest.

    Raises ``ValueError("empty")`` when nothing survives cleaning.
    """
    text = normalize(_strip_markup(raw.text))
    if not text:
        raise ValueError("empty")
    return CleanDocument(
        doc_id=raw.doc_id,
        text=text,
        gurmukhi_fraction=gurmukhi_fraction(text),
        dedup_digest=dedup_key(text),
    )


def gurmukhi_fraction(text: str) -> float:
    """Fraction of letter/combining-mark codepoints in the Gurmukhi block.

    Returns 0.0 when the text contains no letters or combining marks.
    """
    letters = 0
    gurmukhi = 0
    for ch in text:
        cat = unicodedata.category(ch)
        if cat[0] in ("L", "M"):
            letters += 1
            if GURMUKHI_LO <= ord(ch) <= GURMUKHI_HI:
                gurmukhi += 1
    return gurmukhi / letters if letters else 0.0


def dedup_key(text: str) -> str:
    """SHA-256 hex digest of the UTF-8 bytes of (already cleaned) text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quality_check(doc: CleanDocument, cfg: CleaningConfig) -> str | None:
    """Return None to keep the document, or a rejection reason.

    Reasons: "too_short" (fewer whitespace tokens than ``min_tokens``),
    "punct" (punctuation ratio above ``max_punct_ratio``), "language"
    (Gurmukhi fraction below ``min_gurmukhi_fraction``).
    """
    if len(doc.text.split()) < cfg.min_tokens:
        return "too_short"
    punct = sum(1 for ch in doc.text if unicodedata.category(ch).startswith("P"))
    if punct / len(doc.text) > cfg.max_punct_ratio:
        return "punct"
    if doc.gurmukhi_fraction < cfg.min_gurmukhi_fraction:
        return "language"
    return None


def preprocess(
    docs: Iterable[RawDocument], cfg: CleaningConfig, stats: dict | None = None
) -> Iterator[CleanDocument]:
    """Run clean -> dedup -> quality over a document stream.

    Rejections are counted per reason in ``stats["rejected_by_reason"]`` and
    dropped duplicates in ``stats["deduped"]``; nothing is dropped silently.
    """
    if stats is None:
        stats = {}
    rejected = stats.setdefault("rejected_by_reason", {})
    stats.setdefault("deduped", 0)
    seen: set[str] = set()
    for raw in docs:
        try:
            doc = clean_text(raw, cfg)
        except ValueError:
            rejected["empty"] = rejected.get("empty", 0) + 1
            continue
        if doc.dedup_digest in seen:
            stats["deduped"] += 1
            continue
        seen.add(doc.dedup_digest)
        reason = quality_check(doc, cfg)
        if reason is not None:
            rejected[reason] = rejected.get(reason, 0) + 1
            continue
        yield doc


def chunk(doc: CleanDocument, cfg: CleaningConfig, tok: TokenizerModel) -> list[Chunk]:
    """Slide a token window of ``chunk_size_tokens`` with stride
    ``chunk_size_tokens - chunk_overlap_tokens`` over the document.

    The final partial window is emitted only when it holds at least
    ``min_tokens`` tokens; chunk text is the decode of its token span.
    """
    seq = tok.encode(doc.text)
    n = len(seq)
    if n == 0:
        return []
    stride = cfg.chunk_size_tokens - cfg.chunk_overlap_tokens
    chunks: list[Chunk] = []
    offset = 0
    index = 0
    while True:
        end = min(offset + cfg.chunk_size_tokens, n)
        count = end - offset
        if offset == 0 or count >= cfg.min_tokens:
            chunks.append(
                Chunk(
                    chunk_id=f"{doc.doc_id}#{index}",
                    doc_id=doc.doc_id,
                    token_offset=offset,
                    token_count=count,
                    text=tok.decode(seq.slice(offset, end)),
                )
            )
            index += 1
        if end >= n:
            break
        offset += stride
    return chunks


# -- persistence -------------------------------------------------------------


def write_chunks_jsonl(chunks: Iterable[Chunk], path: str | Path) -> int:
    n = 0
    with Path(path).open("w", encoding="utf-8") as fh:
        for c in chunks:
            record = _records.to_dict(c)
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
            n += 1
    return n


def read_chunks_jsonl(path: str | Path) -> list[Chunk]:
    return [_records.from_dict(Chunk, obj) for obj in _records.read_jsonl(path)]
