"""
Sparse and dense retrieval legs
===============================

Encodes each chunk once and builds the BM25 inverted index from its terms
and the exact-scan vector index from its vocab ids, then contrasts what
each leg is good at: exact term matches versus bag-of-subwords similarity.
"""

import numpy as np

from qrag import lexical, semantic
from qrag.corpus import Chunk
from qrag.lexical import BM25Params
from qrag.semantic import EmbedderSpec, VectorIndex
from qrag.synthetic import make_corpus
from qrag.tokenizer import train_bpe

records = make_corpus(50, seed=9, lexicon_size=120, words_per_doc=(10, 18))
lines = [r["text"] for r in records]
tok = train_bpe(lines, vocab_size=2000)
seqs = [tok.encode(r["text"]) for r in records]
chunks = [
    Chunk(r["id"] + "#0", r["id"], 0, len(seq), r["text"])
    for r, seq in zip(records, seqs)
]

# -- BM25 ----------------------------------------------------------------------

index = lexical.build_index([c.chunk_id for c in chunks], [s.surface for s in seqs])
params = BM25Params()
print(f"inverted index: N={index.N}, avgdl={index.avgdl:.1f}, {len(index.terms)} terms")

query = " ".join(lines[7].split()[:3])
print(f"\nBM25 search for {query!r}:")
for cid, score in lexical.search(index, params, tok.encode(query).surface, 3):
    print(f"  {cid}: {score:.4f}")

rare_term = lines[7].split()[0]
print(f"idf({rare_term!r} tokens):")
for t in tok.encode(rare_term).surface:
    print(f"  {t!r}: {lexical.idf(index, t):.4f}")

# -- dense leg -------------------------------------------------------------------

# One row of token vectors per vocab id, filled as embeds first need them,
# and each id's idf as its weight.
spec = EmbedderSpec(kind="hash_projection", dim=256)
table = semantic.TokenTable(tok.tokens, lexical.idf_weights(index), spec.dim)
vectors = [semantic.embed(seq.ids, table) for seq in seqs]
vindex = VectorIndex.build([c.chunk_id for c in chunks], vectors)

# A paraphrase-like query: most of the words of doc 7, shuffled.
words = lines[7].split()
rng = np.random.default_rng(0)
paraphrase = " ".join(rng.permutation(words)[: int(0.7 * len(words))])
q = semantic.embed(tok.encode(paraphrase).ids, table)
print(f"\ndense search for a shuffled subset of doc 7's words:")
for cid, score in semantic.search_exact(vindex, q, 3):
    print(f"  {cid}: cosine={score:.4f}")

print(f"\ntoken table: {table.filled.sum()} of {len(table.tokens)} rows filled")
print("\nexact self-match:")
q_self = semantic.embed(tok.encode(lines[7]).ids, table)
print(" ", semantic.search_exact(vindex, q_self, 1)[0])
