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
import math
import operator
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

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

# A chunk id: a non-empty doc id, which may hold "#", then "#" and a number.
_CHUNK_ID = re.compile(r".+#[0-9]+", re.DOTALL)


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


class Window(NamedTuple):
    """One token window of a document: its chunk id and its terms, the
    vocab ids of ``encode`` of its text."""

    chunk_id: str
    ids: np.ndarray


def token_type(vocab_size: int) -> np.dtype:
    """The narrowest unsigned type that holds every id of a vocabulary."""
    return np.min_scalar_type(max(vocab_size - 1, 0)).newbyteorder("<")


def chunk(doc: CleanDocument, cfg: CleaningConfig, tok: TokenizerModel) -> list[Window]:
    """Slide a token window of ``chunk_size_tokens`` with stride
    ``chunk_size_tokens - chunk_overlap_tokens`` over the document's ids,
    which are encoded once.

    The final partial window is emitted only when it holds at least
    ``min_tokens`` tokens. A chunk's ids, held in ``token_type``, are its
    terms, ``encode`` of the decode of its window: a word that the window
    splits is encoded anew from the piece in it.
    """
    ids = tok.encode(doc.text)
    n = len(ids)
    if n == 0:
        return []
    dtype = token_type(tok.vocab_size())
    stride = cfg.chunk_size_tokens - cfg.chunk_overlap_tokens
    windows: list[Window] = []
    offset = 0
    while True:
        end = min(offset + cfg.chunk_size_tokens, n)
        if offset == 0 or end - offset >= cfg.min_tokens:
            terms = tok.encode(tok.decode(ids[offset:end]))
            windows.append(Window(f"{doc.doc_id}#{len(windows)}", np.array(terms, dtype)))
        if end >= n:
            break
        offset += stride
    return windows


# -- persistence -------------------------------------------------------------

# The chunk arrays of an index file, in file order (see ``chunk_arrays``).
CHUNK_ARRAYS = (
    _npy.Array("ids", "uint8", 1, None),
    _npy.Array("token_count", "integer", 1, "N"),
    _npy.Array("token ids", "integer", 1, None),
)


@dataclass(eq=False, repr=False, slots=True)
class ChunkTable:
    """Chunks held as columns: row i of each is chunk i. This is how a build
    makes its chunks, how they are saved and loaded, and how an engine keeps
    them, with no object per chunk.

    A chunk id is ``<doc_id>#<n>``, for its document's n-th window. The ids
    strictly increase, so a row's number is its id's rank, and an index that
    addresses chunks by row orders them as their ids do. The table is the
    only holder of the ids.

    A chunk is stored as its terms, the vocab ids that both retrieval legs
    index: row i's are ``token_counts[i]`` ids of ``tokens``, from
    ``bounds[i]`` to ``bounds[i + 1]``, and its text is their
    ``tokenizer.decode``, whose ``encode`` they are. So ``token_counts[i]``,
    the length of the stored terms, is also row i's BM25 length and its cost
    in a context's token budget. ``texts`` decodes each row on first use and
    keeps the string in its slot of ``text_slots``, one per chunk, so a
    table decodes no text until asked, and a row once, unless threads race
    on it: each then stores an equal string.
    """

    chunk_ids: list[str]
    token_counts: np.ndarray
    tokens: np.ndarray
    tokenizer: TokenizerModel
    bounds: np.ndarray = field(init=False)
    text_slots: list[str | None] = field(init=False)
    # Each vocab id's decoded piece, ``tokenizer.pieces`` as an array.
    pieces: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        """Refuse ids that do not increase, a negative count, counts that
        do not add up to the ids, and an id outside the vocabulary, each a
        ``ValueError``."""
        ids = self.chunk_ids
        if not all(map(operator.lt, ids, ids[1:])):
            i = next(i for i in range(1, len(ids)) if ids[i - 1] >= ids[i])
            if ids[i] in ids[:i]:
                raise ValueError(f"chunk_id {ids[i]!r} is listed twice")
            raise ValueError(
                f"chunk_id {ids[i]!r} follows {ids[i - 1]!r}: chunk ids must increase"
            )
        counts = self.token_counts.astype(np.int64)
        if (counts < 0).any():
            raise ValueError("token_count must be >= 0")
        self.bounds = np.concatenate(([0], np.cumsum(counts)))
        if self.bounds[-1] != len(self.tokens):
            raise ValueError(
                f"token_count adds up to {self.bounds[-1]}, but there are "
                f"{len(self.tokens)} token ids"
            )
        v = self.tokenizer.vocab_size()
        if len(self.tokens) and not (0 <= self.tokens.min() and self.tokens.max() < v):
            bad = self.tokens[(self.tokens < 0) | (self.tokens >= v)][0]
            raise ValueError(f"token id {bad} is outside the vocabulary of {v}")
        self.text_slots = [None] * len(ids)
        self.pieces = np.array(self.tokenizer.pieces, dtype=object)

    @classmethod
    def from_windows(cls, windows: Sequence[Window], tok: TokenizerModel) -> "ChunkTable":
        """The table of ``windows``, in their order, over ``tok``'s ids."""
        dtype = token_type(tok.vocab_size())
        tokens = np.concatenate([np.zeros(0, dtype), *(w.ids for w in windows)])
        return cls(
            [w.chunk_id for w in windows],
            np.array([len(w.ids) for w in windows], dtype="<i4"),
            tokens.astype(dtype, copy=False),
            tok,
        )

    def token_ids(self, row: int) -> np.ndarray:
        """Row ``row``'s vocab ids, a view of ``tokens``; 0 <= row < N."""
        return self.tokens[self.bounds[row] : self.bounds[row + 1]]

    def texts(self, rows: Iterable[int]) -> list[str]:
        """The texts of ``rows``, each 0 <= row < N. A row not decoded yet is
        decoded, ``tokenizer.decode`` of its ids as one join of their pieces,
        and kept, so later calls return the same string."""
        slots = self.text_slots
        out = []
        for row in rows:
            text = slots[row]
            if text is None:
                text = slots[row] = "".join(self.pieces[self.token_ids(row)].tolist()).strip()
            out.append(text)
        return out

    def __len__(self) -> int:
        return len(self.chunk_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChunkTable):
            return NotImplemented
        return (
            self.chunk_ids == other.chunk_ids
            and np.array_equal(self.token_counts, other.token_counts)
            and np.array_equal(self.tokens, other.tokens)
            and self.tokenizer == other.tokenizer
        )


def chunk_arrays(chunks: ChunkTable) -> tuple[np.ndarray, ...]:
    """The arrays of ``CHUNK_ARRAYS``: the chunk ids as the UTF-8 bytes of a
    JSON list, the token counts (``<i4``), and every chunk's vocab ids, one
    chunk after another, in ``token_type``."""
    ids = json.dumps(chunks.chunk_ids, ensure_ascii=False)
    return (
        np.frombuffer(ids.encode(), np.uint8),
        np.asarray(chunks.token_counts, dtype="<i4"),
        np.asarray(chunks.tokens, dtype=token_type(chunks.tokenizer.vocab_size())),
    )


def parse_chunks(arrays: Iterator[np.ndarray], tok: TokenizerModel) -> ChunkTable:
    """The chunks of the next ``CHUNK_ARRAYS`` of ``arrays`` (as
    ``_npy.read`` yields them), of ``tok``'s vocab ids; each refusal is a
    ``ValueError``, an id outside the vocabulary included. The table holds
    copies of the arrays, no view of the bytes read, and no text is decoded
    here."""
    ids, token_count, tokens = islice(arrays, len(CHUNK_ARRAYS))
    chunk_ids = _chunk_ids(ids, len(token_count))
    return ChunkTable(chunk_ids, token_count.copy(), tokens.copy(), tok)


def _chunk_ids(ids: np.ndarray, n: int) -> list[str]:
    """The ``n`` chunk ids that the ``ids`` array holds as JSON."""
    try:
        chunk_ids = json.loads(str(ids.data, "utf-8"))
    except RecursionError as exc:  # JSON nested too deep
        raise ValueError(f"ids: {exc}") from None
    if type(chunk_ids) is not list:
        raise ValueError("ids must be a JSON list of chunk ids")
    for cid in chunk_ids:
        if type(cid) is not str or not _CHUNK_ID.fullmatch(cid):
            raise ValueError(f"ids must be chunk ids <doc id>#<n>, not {cid!r}")
    if len(chunk_ids) != n:
        raise ValueError(f"ids has {len(chunk_ids)} entries for {n} chunks")
    return chunk_ids
