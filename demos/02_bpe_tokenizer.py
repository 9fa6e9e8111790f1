"""
BPE tokenizer training
======================

Trains a byte-pair-encoding model on a toy corpus, shows how merges grow
subword units out of codepoints, and demonstrates the exact round-trip
decode(encode(x)) == normalize(x).
"""

from qrag.synthetic import make_corpus
from qrag.tokenizer import TokenizerModel, normalize, train_bpe

lines = [rec["text"] for rec in make_corpus(80, seed=1, lexicon_size=60)]

# -- watch the vocabulary grow -----------------------------------------------

for vocab_size in (120, 160, 200, 400):
    model = train_bpe(lines, vocab_size=vocab_size)
    n_tokens = sum(len(model.encode(line)) for line in lines[:20])
    print(
        f"vocab_size={vocab_size:4d}: {len(model.merges):3d} merges, "
        f"{n_tokens} tokens over 20 lines"
    )

model = train_bpe(lines, vocab_size=400)
print("\nfirst merges:", model.merges[:6])

# -- encoding ------------------------------------------------------------------

# A term is its vocab id; ``model.tokens[i]`` is id i's string.
sample = lines[0].split()[0]
ids = model.encode(sample)
print(f"\nencode({sample!r}):")
print("  ids:    ", ids)
print("  tokens: ", [model.tokens[i] for i in ids])
print("  decode: ", model.decode(ids))

# -- normalization and round-trip ----------------------------------------------

print("\nGurmukhi nukta letters decompose under NFC:")
print("  U+0A59 ->", [hex(ord(c)) for c in normalize("ਖ਼")])

probe = "  " + lines[3] + "   " + lines[4]
print("\nround-trip on a messy (but covered) line:")
print("  normalize:", normalize(probe)[:60], "...")
print("  exact round-trip:", model.decode(model.encode(probe)) == normalize(probe))

# Codepoints never seen in training fall back to the unk token, so only
# covered text round-trips exactly.
oov = model.encode("ਅਜਨਬੀ xyz")
print("  out-of-vocab tokens:", [model.tokens[i] for i in oov[:8]])

# -- serialization ---------------------------------------------------------------

text = model.to_json()
reloaded = TokenizerModel.from_json(text)
same = all(reloaded.encode(line) == model.encode(line) for line in lines[:20])
print(f"\nserialized to {len(text):,} chars of JSON; reloaded model encodes identically:", same)
