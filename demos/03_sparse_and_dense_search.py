"""
Sparse and dense retrieval legs
===============================

Encodes each chunk once into a chunk table and builds both the BM25
inverted index and the exact-scan vector index from the table's vocab ids,
the one term space of both legs, then contrasts what each leg is good at: exact term matches versus
bag-of-subwords similarity. Each leg is searched with the calls the
engine's retrieve makes: BM25 scores every row (``score_rows``) and ranks
the touched ones (``touched_rows``, ``top_rows``); the dense leg scans every
row (``scan``) and ranks them all (``top_rows``). Both indexes address a
chunk by its row, and the chunks are listed in chunk-id order, so each
returned row maps to its chunk's id.
"""

import numpy as np

from qrag import lexical, semantic
from qrag.corpus import ChunkTable, Window
from qrag.lexical import BM25Params
from qrag.semantic import EmbedderSpec, VectorIndex
from qrag.synthetic import make_corpus
from qrag.tokenizer import train_bpe

records = make_corpus(50, seed=9, lexicon_size=120, words_per_doc=(10, 18))
lines = [r["text"] for r in records]
tok = train_bpe(lines, vocab_size=2000)
# One chunk per record: its id and its terms, encode of its text.
chunks = ChunkTable.from_windows(
    [Window(r["id"] + "#0", np.array(tok.encode(r["text"]))) for r in records], tok
)
# Row i of both indexes is chunk i of the table, in chunk-id order, as the
# engine keeps them; only the table holds the ids.
assert chunks.chunk_ids == sorted(chunks.chunk_ids)

# -- BM25 ----------------------------------------------------------------------

# Term j of the index is vocab id j, held by a chunk or not; row i's length
# is the table's token count of chunk i.
index = lexical.build_index(chunks.tokens, chunks.token_counts, tok.vocab_size())
params = BM25Params()
held = int(np.count_nonzero(np.diff(index.offsets)))
print(f"inverted index: N={index.N}, avgdl={index.avgdl:.1f}, "
      f"{held} of {tok.vocab_size()} vocab ids held")

query = " ".join(lines[7].split()[:3])
print(f"\nBM25 search for {query!r}:")
scores, touched = lexical.score_rows(index, params, tok.encode(query))
print(f"  {int(touched.sum())} of {index.N} rows hold a query term")
for row in lexical.top_rows(scores, lexical.touched_rows(touched, 3), 3):
    print(f"  row {row} = {chunks.chunk_ids[row]}: {scores[row]:.4f}")

rare_term = lines[7].split()[0]
print(f"idf({rare_term!r} tokens):")
for t in tok.encode(rare_term):
    print(f"  {tok.tokens[t]!r} (id {t}): {lexical.idf(index, t):.4f}")

# -- dense leg -------------------------------------------------------------------

# Each vocab id's weight: its idf where a chunk holds it, 1.0 where none
# does (the engine also gives <unk> and <pad> 0.0, as no text stands for them).
# The table holds no vectors: embedding every chunk takes them from one
# matrix of the whole vocabulary's, computed once and then dropped, and a
# query's embed computes the vectors of its own ids.
spec = EmbedderSpec(dim=256)
weights = np.where(np.diff(index.offsets) > 0, index.idfs, 1.0)
table = semantic.TokenTable(tok.tokens, weights, spec.dim)
matrix = semantic.token_matrix(tok.tokens, spec.dim)
vectors = [
    semantic.embed(chunks.token_ids(row).tolist(), table, matrix) for row in range(len(chunks))
]
vindex = VectorIndex.build(len(chunks), vectors)
print(f"\ntoken matrix for the build: {matrix.shape[0]} x {matrix.shape[1]} float64, "
      f"{matrix.nbytes / 2**20:.2f} MiB, dropped once every chunk is embedded")
del matrix

# A paraphrase-like query: most of the words of doc 7, shuffled.
words = lines[7].split()
rng = np.random.default_rng(0)
paraphrase = " ".join(rng.permutation(words)[: int(0.7 * len(words))])
q = semantic.embed(tok.encode(paraphrase), table)
print(f"\ndense search for a shuffled subset of doc 7's words:")
cosines = vindex.scan(q)
for row in lexical.top_rows(cosines, None, 3):
    print(f"  row {row} = {chunks.chunk_ids[row]}: cosine={cosines[row]:.4f}")

print("\nexact self-match:")
q_self = semantic.embed(tok.encode(lines[7]), table)
cosines = vindex.scan(q_self)
(row,) = lexical.top_rows(cosines, None, 1)
print(f"  row {row} = {chunks.chunk_ids[row]}: cosine={cosines[row]:.4f}")
# A query's own vectors are the matrix's rows, bit for bit.
assert np.array_equal(q_self, vectors[7])
print(f"token table: {len(table.weights)} weights, no vectors")
