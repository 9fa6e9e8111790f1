import pytest
from hypothesis import settings

from qrag import synthetic
from qrag.engine import EngineConfig, build_all, load_index
from qrag.tokenizer import train_bpe

# Property tests draw the same examples on every run, so a failure is
# reproducible, and are not timed per example on a loaded host.
settings.register_profile("qrag", derandomize=True, deadline=None)
settings.load_profile("qrag")


@pytest.fixture(scope="session")
def synth_lines():
    """Deterministic synthetic Gurmukhi corpus lines."""
    return [rec["text"] for rec in synthetic.make_corpus(300, seed=101, lexicon_size=400)]


@pytest.fixture(scope="session")
def synth_tokenizer(synth_lines):
    return train_bpe(synth_lines, vocab_size=6000)


@pytest.fixture(scope="session")
def small_engine(tmp_path_factory):
    """A compact built-and-loaded engine over a planted corpus."""
    bench = synthetic.make_planted_benchmark(
        n_docs=200, n_lexical=12, n_semantic=12, seed=31
    )
    root = tmp_path_factory.mktemp("small_engine")
    corpus_path = root / "corpus.jsonl"
    synthetic.write_jsonl(bench.records, corpus_path)
    cfg = EngineConfig(vocab_size=8000)
    build_all(corpus_path, cfg, root / "index")
    engine = load_index(root / "index")
    return engine, bench, root / "index", corpus_path, cfg
