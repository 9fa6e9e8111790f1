"""
Corpus cleaning pipeline
========================

Walks a handful of noisy documents through the full preprocessing chain:
markup stripping, Unicode normalization, exact dedup, quality filtering,
and token-window chunking.
"""

from qrag.corpus import (
    CleaningConfig,
    RawDocument,
    chunk,
    clean_text,
    gurmukhi_fraction,
    preprocess,
)
from qrag.tokenizer import train_bpe

cfg = CleaningConfig(min_tokens=5)

# -- single-document cleaning -------------------------------------------------

noisy = RawDocument(
    doc_id="news-1",
    text="<p>ਪੰਜਾਬ ਵਿੱਚ \t ਅੱਜ &amp; ਕੱਲ ਮੀਂਹ ਪੈਣ ਦੀ ਸੰਭਾਵਨਾ ਹੈ।</p>\x00",
    source="news",
)
doc = clean_text(noisy, cfg)
print("cleaned text:   ", doc.text)
print("gurmukhi_fraction:", round(doc.gurmukhi_fraction, 3))
print("dedup digest:   ", doc.dedup_digest[:16], "...")

print("\nlanguage filter on mixed text:")
for sample in ["ਸਤਿ ਨਾਮ ਵਾਹਿਗੁਰੂ", "ਸਤਿ nam vahiguru", "pure latin text"]:
    print(f"  {sample!r:40s} -> {gurmukhi_fraction(sample):.2f}")

# -- streaming pipeline with dedup and quality rejection ----------------------

docs = [
    RawDocument("a", "ਇਹ ਪਹਿਲਾ ਚੰਗਾ ਦਸਤਾਵੇਜ਼ ਹੈ ਜੀ ਹਾਂ ਇਹ ਹੈ"),
    RawDocument("b", "ਇਹ ਪਹਿਲਾ   ਚੰਗਾ ਦਸਤਾਵੇਜ਼ ਹੈ ਜੀ ਹਾਂ ਇਹ ਹੈ"),  # dup after cleanup
    RawDocument("c", "ਛੋਟਾ"),  # too short
    RawDocument("d", "this one is english and gets dropped by language id here"),
    RawDocument("e", "ਦੂਜਾ ਵੱਖਰਾ ਦਸਤਾਵੇਜ਼ ਇੱਥੇ ਮੌਜੂਦ ਹੈ ਠੀਕ ਹੈ ਜੀ"),
]
stats = {}
kept = list(preprocess(docs, cfg, stats))
print("\nkept:", [d.doc_id for d in kept])
print("stats:", stats)

# -- chunking a long document -------------------------------------------------

long_text = " ".join(["ਵਾਕ ਨੰਬਰ ਇੱਕ ਦੋ ਤਿੰਨ ਚਾਰ ਪੰਜ"] * 80)
tok = train_bpe([long_text], vocab_size=500)
long_doc = clean_text(RawDocument("long", long_text), cfg)
pieces = chunk(long_doc, cfg, tok)
print(f"\n{len(tok.encode(long_doc.text))} tokens -> {len(pieces)} chunks:")
# Each chunk stores its terms, encode of its text: the ids both retrieval
# legs index, whose count is its BM25 length and its context cost.
for c in pieces:
    text = tok.decode(c.ids.tolist())
    assert tok.encode(text) == c.ids.tolist()
    print(f"  {c.chunk_id}: {len(c.ids)} terms, text {text[:24]!r}...")
