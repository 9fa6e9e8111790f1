"""Corpus ingestion and the cleaning pipeline: markup stripping, dedup,
language and quality filtering, and token-window chunking.

Every stage is a pure function over a single document, so the pipeline can be
parallelized per document; only the duplicate-detection pass holds shared
state (the set of digests already seen).
"""

from __future__ import annotations

import codecs
import hashlib
import html
import json
import logging
import math
import operator
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _npy
from .tokenizer import TokenizerModel, _is_punct, normalize

logger = logging.getLogger(__name__)

_TAG_RE = re.compile(r"<[^>]*>")
# Cc controls minus the whitespace ones, which must survive long enough to
# collapse into single spaces ("a\t\tb" -> "a b", not "ab").
_CTRL_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f]")

GURMUKHI_LO = 0x0A00
GURMUKHI_HI = 0x0A7F

CHUNKS_FILE = "chunks.npy"

# The one-byte code page of the chunk texts in ``chunks.npy``; editing it
# changes the index format. Bytes 0x80-0xFF are the Gurmukhi block
# U+0A00-U+0A7F. Bytes 0x00-0x7F are ASCII, except the C0 controls that
# cleaning strips (``_CTRL_RE``): four of their slots carry the danda, the
# double danda, ZWNJ and ZWJ, and the rest are undefined (U+FFFE), so a
# decode of one is refused. NUL stays defined because the stdlib builds its
# fast encoding map only when byte 0 is U+0000.
_PAGE_SLOTS = {0x01: "\u0964", 0x02: "\u0965", 0x03: "\u200c", 0x04: "\u200d"}
GURMUKHI_PAGE = "".join(
    _PAGE_SLOTS.get(b, "\ufffe" if b and _CTRL_RE.match(chr(b)) else chr(b))
    for b in range(0x80)
) + "".join(map(chr, range(GURMUKHI_LO, GURMUKHI_HI + 1)))
_PAGE_MAP = codecs.charmap_build(GURMUKHI_PAGE)
# A chunk id: a non-empty doc id, which may hold "#", then "#" and a number.
_CHUNK_ID = re.compile(r".+#[0-9]+", re.DOTALL)
# Each chunk's text encoding in ``chunks.npy``: the page, or UTF-16-LE for a
# text with a character outside it.
PAGE, UTF16 = 0, 1


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


@dataclass(frozen=True, slots=True)
class Chunk:
    """A retrievable passage: a token window over a cleaned document. Its id
    is ``<doc_id>#<n>``, for the document's n-th window."""

    chunk_id: str
    token_offset: int
    token_count: int
    text: str

    @property
    def doc_id(self) -> str:
        return self.chunk_id.rpartition("#")[0]


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
        if not 0.0 <= self.max_punct_ratio <= 1.0:
            raise ValueError("max_punct_ratio must be in [0, 1]")
        # A negative overlap would stride past the window and skip tokens.
        if not 0 <= self.chunk_overlap_tokens < self.chunk_size_tokens:
            raise ValueError("chunk_overlap_tokens must be >= 0 and < chunk_size_tokens")
        if not 1 <= self.min_tokens < math.inf:
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
            # RecursionError: JSON nested deeper than the decoder's limit.
            except (UnicodeDecodeError, ValueError, KeyError, RecursionError) as exc:
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
    for ch, n in Counter(text).items():
        if unicodedata.category(ch)[0] in ("L", "M"):
            letters += n
            if GURMUKHI_LO <= ord(ch) <= GURMUKHI_HI:
                gurmukhi += n
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
    punct = sum(n for ch, n in Counter(doc.text).items() if _is_punct(ch))
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
    A kept document with the id of an earlier kept one is a ``ValueError``
    naming the id, since the two would give the same chunk ids.
    """
    if stats is None:
        stats = {}
    rejected = stats.setdefault("rejected_by_reason", {})
    stats.setdefault("deduped", 0)
    seen: set[str] = set()
    kept: set[str] = set()
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
        if doc.doc_id in kept:
            raise ValueError(f"two kept documents have the id {doc.doc_id!r}")
        kept.add(doc.doc_id)
        yield doc


def chunk(doc: CleanDocument, cfg: CleaningConfig, tok: TokenizerModel) -> list[Chunk]:
    """Slide a token window of ``chunk_size_tokens`` with stride
    ``chunk_size_tokens - chunk_overlap_tokens`` over the document.

    The final partial window is emitted only when it holds at least
    ``min_tokens`` tokens; chunk text is the decode of its token span.
    """
    ids = tok.encode(doc.text)
    n = len(ids)
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
                    token_offset=offset,
                    token_count=count,
                    text=tok.decode(ids[offset:end]),
                )
            )
            index += 1
        if end >= n:
            break
        offset += stride
    return chunks


# -- persistence -------------------------------------------------------------

# The arrays of ``chunks.npy``, in file order (see ``save_chunks``).
CHUNK_ARRAYS = (
    _npy.Array("ids", "uint8", 1, None),
    _npy.Array("token_offset", "integer", 1, "N"),
    _npy.Array("token_count", "integer", 1, "N"),
    _npy.Array("text offsets", "integer", 1, "N + 1"),
    _npy.Array("text encodings", "integer", 1, "N"),
    _npy.Array("text", "uint8", 1, "the last offset"),
)


@dataclass(eq=False, repr=False, slots=True)
class ChunkTable(Sequence[Chunk]):
    """Chunks held as columns: row i of each is chunk i. This is how a chunk
    store is saved and loaded, and how an engine keeps its chunks, with no
    object per chunk; indexing makes a ``Chunk`` (a slice, a ``ChunkTable``).

    The chunk ids strictly increase, so a row's number is its id's rank, and
    an index that addresses chunks by row orders them as their ids do. The
    table is the only holder of the ids.
    """

    chunk_ids: list[str]
    token_offsets: np.ndarray
    token_counts: np.ndarray
    texts: list[str]

    def __post_init__(self) -> None:
        ids = self.chunk_ids
        if not all(map(operator.lt, ids, ids[1:])):
            i = next(i for i in range(1, len(ids)) if ids[i - 1] >= ids[i])
            if ids[i] in ids[:i]:
                raise ValueError(f"chunk_id {ids[i]!r} is listed twice")
            raise ValueError(
                f"chunk_id {ids[i]!r} follows {ids[i - 1]!r}: chunk ids must increase"
            )

    @classmethod
    def from_chunks(cls, chunks: Iterable[Chunk]) -> "ChunkTable":
        chunks = list(chunks)
        return cls(
            [c.chunk_id for c in chunks],
            np.array([c.token_offset for c in chunks], dtype="<i4"),
            np.array([c.token_count for c in chunks], dtype="<i4"),
            [c.text for c in chunks],
        )

    def __len__(self) -> int:
        return len(self.chunk_ids)

    def __getitem__(self, i):
        row = (self.chunk_ids[i], self.token_offsets[i], self.token_counts[i], self.texts[i])
        if isinstance(i, slice):
            return ChunkTable(*row)
        chunk_id, offset, count, text = row
        return Chunk(chunk_id, int(offset), int(count), text)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChunkTable):
            return NotImplemented
        return (
            self.chunk_ids == other.chunk_ids
            and np.array_equal(self.token_offsets, other.token_offsets)
            and np.array_equal(self.token_counts, other.token_counts)
            and self.texts == other.texts
        )


def save_chunks(chunks: ChunkTable, out_dir: str | Path) -> None:
    """Write ``CHUNK_ARRAYS``: the chunk ids as the UTF-8 bytes of a JSON
    list, the token offsets and counts (``<i4``), the N + 1 offsets of each
    text's bytes in the last array (``<i8``), each text's encoding (``PAGE``
    or ``UTF16``) and every text's bytes.

    A text is stored in ``GURMUKHI_PAGE``, one byte per codepoint, when the
    page holds each of its characters, and in UTF-16-LE otherwise. Chunks
    are at least half Gurmukhi, which takes 2 bytes a codepoint in UTF-16
    and 3 in UTF-8.
    """
    ids = json.dumps(chunks.chunk_ids, ensure_ascii=False)
    encodings: list[int] = []
    texts: list[bytes] = []
    for text in chunks.texts:
        try:
            texts.append(codecs.charmap_encode(text, "strict", _PAGE_MAP)[0])
            encodings.append(PAGE)
        except UnicodeEncodeError:
            texts.append(text.encode("utf-16-le"))
            encodings.append(UTF16)
    arrays = (
        np.frombuffer(ids.encode(), np.uint8),
        np.asarray(chunks.token_offsets, dtype="<i4"),
        np.asarray(chunks.token_counts, dtype="<i4"),
        np.cumsum([0, *map(len, texts)], dtype="<i8"),
        np.array(encodings, dtype=np.uint8),
        np.frombuffer(b"".join(texts), np.uint8),
    )
    _npy.write(Path(out_dir) / CHUNKS_FILE, arrays)


def parse_chunks(data: bytes) -> ChunkTable:
    """The chunks in ``data``, the bytes of a ``chunks.npy``; each refusal is
    a ``ValueError`` naming ``chunks.npy``, a byte the page leaves undefined
    and invalid UTF-16-LE included.

    Every text is decoded here, from a view of the text array in ``data``,
    and the table keeps no view of ``data``. Freeing ``data`` (6.6 MB on the
    benchmark index) raises glibc's mmap threshold to its size, so the BM25
    arrays loaded next, and their scratch, come from the heap, whose freed
    space stays resident: a loaded ``serve`` child peaks 3-4 MiB higher
    than when each text was read on its own. Reading each file into an
    anonymous mapping instead avoided that, but paid about 10 ms of page
    faults on every load.
    """
    try:
        ids, token_offset, token_count, ends, encodings, text = _npy.read(data, CHUNK_ARRAYS)
        chunk_ids = _check_arrays(ids, token_offset, token_count, ends, encodings)
        view = text.data
        bounds = ends.tolist()
        texts = [
            _decode(view[lo:hi], encoding)
            for lo, hi, encoding in zip(bounds, bounds[1:], encodings.tolist())
        ]
        return ChunkTable(chunk_ids, token_offset.copy(), token_count.copy(), texts)
    except ValueError as exc:
        raise ValueError(f"{CHUNKS_FILE}: {exc}") from None


def _decode(data: memoryview, encoding: int) -> str:
    if encoding == UTF16:
        return str(data, "utf-16-le")
    return codecs.charmap_decode(data, "strict", GURMUKHI_PAGE)[0]


def _check_arrays(
    ids: np.ndarray,
    token_offset: np.ndarray,
    token_count: np.ndarray,
    ends: np.ndarray,
    encodings: np.ndarray,
) -> list[str]:
    """The chunk ids, once the arrays, which agree with ``CHUNK_ARRAYS``, are
    found to mean chunks."""
    try:
        chunk_ids = json.loads(str(ids.data, "utf-8"))
    except RecursionError as exc:  # JSON nested too deep
        raise ValueError(f"ids: {exc}") from None
    if type(chunk_ids) is not list:
        raise ValueError("ids must be a JSON list of chunk ids")
    for cid in chunk_ids:
        if type(cid) is not str or not _CHUNK_ID.fullmatch(cid):
            raise ValueError(f"ids must be chunk ids <doc id>#<n>, not {cid!r}")
    if len(chunk_ids) != len(token_offset):
        raise ValueError(f"ids has {len(chunk_ids)} entries for {len(token_offset)} chunks")
    if (token_offset < 0).any() or (token_count < 0).any():
        raise ValueError("token_offset and token_count must be >= 0")
    if ends[0] != 0 or (ends[1:] < ends[:-1]).any():
        raise ValueError("text offsets must not decrease, and the first must be 0")
    if not np.isin(encodings, (PAGE, UTF16)).all():
        raise ValueError(f"text encodings must be {PAGE} (the page) or {UTF16} (UTF-16-LE)")
    odd = (np.diff(ends) % 2 == 1) & (encodings == UTF16)
    if odd.any():
        cid = chunk_ids[int(np.argmax(odd))]
        raise ValueError(f"chunk {cid!r} has an odd byte count: a UTF-16 code unit is 2 bytes")
    return chunk_ids
