"""Unicode normalization and a trainable byte-pair-encoding subword tokenizer.

The tokenizer is script-agnostic but tuned for Gurmukhi text: normalization
uses canonical composition (NFC), which, via the Unicode composition
exclusions, rewrites the precomposed nukta letters (U+0A33, U+0A36, U+0A59,
U+0A5A, U+0A5B, U+0A5E) as base letter + U+0A3C, and combining marks always
stay attached to their base during pre-tokenization.
"""

from __future__ import annotations

import heapq
import json
import math
import unicodedata
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path
from typing import Iterable

NORMALIZATION = "nfc_collapse"
WORD_END = "</w>"
UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"

_WS_RE = re.compile(r"\s+")

# Whitespace tokens kept in a model's word cache, about 1.5 MiB of entries
# (tracemalloc, 8,192 synthetic Gurmukhi tokens of 2.8 ids each). Past it, a
# new token (a query's never-seen word, say) is encoded without being
# cached, so a long-running server's memory does not grow with the queries
# it has seen.
WORD_CACHE_MAX = 8192


def normalize(text: str) -> str:
    """NFC-normalize, collapse whitespace runs to single spaces, and trim.

    Idempotent: ``normalize(normalize(x)) == normalize(x)``.
    """
    return _WS_RE.sub(" ", unicodedata.normalize("NFC", text)).strip()


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _split(token: str) -> list[list[str]]:
    """The codepoint symbols of a whitespace token's BPE words.

    The token splits at punctuation class boundaries, and only its last
    codepoint carries the word-end marker, so decoding restores the original
    spacing exactly (a punctuation split does not reinsert a space).
    """
    words = [list(run) for _, run in groupby(token, _is_punct)]
    words[-1][-1] += WORD_END
    return words


def pretokenize(text: str) -> list[str]:
    """Split normalized text into BPE words: each whitespace token's runs of
    punctuation and non-punctuation, the last one marked with ``WORD_END``."""
    return ["".join(word) for token in normalize(text).split() for word in _split(token)]


def _merge_occurrences(symbols: list[str], pair: tuple[str, str]) -> list[str]:
    """Replace all non-overlapping occurrences of a pair, left to right."""
    a, b = pair
    out: list[str] = []
    i = 0
    while i < len(symbols):
        if i < len(symbols) - 1 and symbols[i] == a and symbols[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


@dataclass
class TokenSeq:
    """A token sequence: parallel lists of vocabulary ids and surface strings."""

    ids: list[int]
    surface: list[str]

    def __post_init__(self) -> None:
        if len(self.ids) != len(self.surface):
            raise ValueError("ids and surface must have equal length")

    def __len__(self) -> int:
        return len(self.ids)

    def slice(self, start: int, stop: int) -> "TokenSeq":
        return TokenSeq(self.ids[start:stop], self.surface[start:stop])


@dataclass
class TokenizerModel:
    """A trained BPE model: vocabulary and ordered merges. Normalization
    (``NORMALIZATION``), the word-end marker and the special tokens are
    this module's constants.

    ``encode`` splits each whitespace token and applies its merges once: the
    word cache maps the token to the ids of all its pieces, so a token seen
    before costs one dict lookup.

    The model is immutable after training; ``encode``/``decode`` are pure and
    safe under concurrent use (the word cache is append-only and bounded by
    ``WORD_CACHE_MAX``; threads racing on the last slots may overshoot it by
    one token each).
    """

    vocab: dict[str, int]
    merges: list[tuple[str, str]]
    # Caches derived from the two fields above: no part of a model's value.
    _ranks: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)
    _tokens: list[str] = field(init=False, repr=False, compare=False)
    _word_cache: dict[str, list[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}
        ids = sorted(self.vocab.values())
        if ids != list(range(len(ids))):
            raise ValueError("vocabulary ids must be dense from 0")
        self._tokens = sorted(self.vocab, key=self.vocab.__getitem__)  # by id

    @property
    def special_tokens(self) -> list[str]:
        return [UNK_TOKEN, PAD_TOKEN]

    @property
    def unk_id(self) -> int:
        return self.vocab[UNK_TOKEN]

    def vocab_size(self) -> int:
        return len(self.vocab)

    # -- encoding ----------------------------------------------------------

    def _encode_token(self, token: str) -> list[int]:
        """The vocab ids of a whitespace token's pieces, unk for a symbol
        outside the vocab. A cached list holds the vocab dict's own int
        objects, not fresh symbol strings."""
        cached = self._word_cache.get(token)
        if cached is not None:
            return cached
        unk = self.unk_id
        ids: list[int] = []
        for symbols in _split(token):
            while len(symbols) > 1:
                best = min(
                    (pair for pair in zip(symbols, symbols[1:]) if pair in self._ranks),
                    key=self._ranks.__getitem__,
                    default=None,
                )
                if best is None:
                    break
                symbols = _merge_occurrences(symbols, best)
            ids += [self.vocab.get(sym, unk) for sym in symbols]
        if len(self._word_cache) < WORD_CACHE_MAX:
            self._word_cache[token] = ids
        return ids

    def encode(self, text: str) -> TokenSeq:
        """Tokenize text, applying merges in training order per word.

        Residual symbols absent from the vocabulary map to the unk token.
        Deterministic: identical (model, text) always yields the same sequence.
        """
        ids: list[int] = []
        for token in normalize(text).split():
            ids += self._encode_token(token)
        return TokenSeq(ids, list(map(self._tokens.__getitem__, ids)))

    def decode(self, seq: TokenSeq) -> str:
        """Invert ``encode``: word-end markers become spaces, then trim.

        For text whose codepoints all occur in the training data,
        ``decode(encode(text)) == normalize(text)``.
        """
        n = len(self.vocab)
        for tok_id in seq.ids:
            if not 0 <= tok_id < n:
                raise ValueError(f"token id out of range: {tok_id}")
        parts = [
            s[: -len(WORD_END)] + " " if s.endswith(WORD_END) else s for s in seq.surface
        ]
        return "".join(parts).strip()

    def token_count(self, text: str) -> int:
        return len(self.encode(text).ids)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "normalization": NORMALIZATION,
            "word_end_marker": WORD_END,
            "vocab": self.vocab,
            "merges": [list(pair) for pair in self.merges],
            "special": {"unk": self.vocab[UNK_TOKEN], "pad": self.vocab[PAD_TOKEN]},
        }
        return json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ":"))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def from_json(cls, text: str) -> "TokenizerModel":
        payload = json.loads(text)
        version = payload.get("version")
        if version != 1:
            raise ValueError(f"unsupported version: {version}")
        for key, fixed in (("normalization", NORMALIZATION), ("word_end_marker", WORD_END)):
            if payload.get(key) != fixed:
                raise ValueError(f"unsupported {key}: {payload.get(key)!r} (only {fixed!r})")
        return cls(
            vocab={str(k): int(v) for k, v in payload["vocab"].items()},
            merges=[(pair[0], pair[1]) for pair in payload["merges"]],
        )

    @classmethod
    def load(cls, path: str | Path) -> "TokenizerModel":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def train_bpe(corpus: Iterable[str], vocab_size: int) -> TokenizerModel:
    """Train a BPE model by iterative most-frequent-pair merging.

    Whitespace tokens are counted first, and each distinct one is split once
    into words of codepoint symbols, the word-end marker fused to the final
    codepoint. The most frequent adjacent pair is merged until
    ``vocab_size`` is reached or no pair occurs at least twice; ties between
    equal counts break lexicographically on the pair, so training is
    deterministic across platforms and runs.
    """
    if type(vocab_size) is not int or not 1 <= vocab_size < math.inf:
        raise ValueError(f"vocab_size must be an int >= 1, got {vocab_size!r}")
    token_freqs: Counter[str] = Counter()
    for line in corpus:
        token_freqs.update(normalize(line).split())
    if not token_freqs:
        raise ValueError("empty corpus")

    word_freqs: Counter[tuple[str, ...]] = Counter()
    for token, f in token_freqs.items():
        for symbols in _split(token):
            word_freqs[tuple(symbols)] += f
    symbol_lists = [list(w) for w in word_freqs]
    freqs = list(word_freqs.values())

    initial_symbols = sorted({s for syms in symbol_lists for s in syms})
    specials = [UNK_TOKEN, PAD_TOKEN]
    if vocab_size < len(initial_symbols) + len(specials):
        raise ValueError(
            f"vocab_size too small: need at least {len(initial_symbols) + len(specials)}"
        )

    vocab: dict[str, int] = {}
    for tok in specials + initial_symbols:
        vocab[tok] = len(vocab)

    # Pair statistics with incremental updates; the heap holds lazy
    # (-count, pair) snapshots and stale entries are discarded on pop.
    pair_counts: dict[tuple[str, str], int] = {}
    pair_words: dict[tuple[str, str], set[int]] = {}
    heap: list[tuple[int, tuple[str, str]]] = []

    def bump(pair: tuple[str, str], delta: int, wi: int) -> None:
        count = pair_counts.get(pair, 0) + delta
        if count <= 0:
            pair_counts.pop(pair, None)
            return
        pair_counts[pair] = count
        if delta > 0:
            pair_words.setdefault(pair, set()).add(wi)
        heapq.heappush(heap, (-count, pair))

    for wi, syms in enumerate(symbol_lists):
        f = freqs[wi]
        for pair in zip(syms, syms[1:]):
            bump(pair, f, wi)

    merges: list[tuple[str, str]] = []
    budget = vocab_size - len(vocab)
    while budget > 0 and heap:
        neg_count, pair = heapq.heappop(heap)
        count = pair_counts.get(pair)
        if count is None or count != -neg_count:
            continue  # stale snapshot
        if count < 2:
            break
        merges.append(pair)
        merged = pair[0] + pair[1]
        if merged not in vocab:
            vocab[merged] = len(vocab)
        budget -= 1
        for wi in sorted(pair_words.get(pair, ())):
            old = symbol_lists[wi]
            if pair not in zip(old, old[1:]):
                continue
            f = freqs[wi]
            for p in zip(old, old[1:]):
                bump(p, -f, wi)
            new = _merge_occurrences(old, pair)
            symbol_lists[wi] = new
            for p in zip(new, new[1:]):
                bump(p, f, wi)
        pair_counts.pop(pair, None)
        pair_words.pop(pair, None)

    return TokenizerModel(vocab=vocab, merges=merges)
