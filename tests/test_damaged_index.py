"""A damaged index whose digest still vouches for it fails cleanly.

The digest catches damage on disk, but ``load_index`` parses each store
before the digest is known, and a writer bug makes a file whose digest
matches. So each parser must refuse bad bytes by itself. The sweep damages
one store of a small index file at a time, re-signs the file so that the
parser is reached, and loads it: every refusal is a ``ValueError`` that
starts with the store's name, parsing no damaged store peaks above a
bound, and every retrieve on a damaged index that still loads answers or
raises ``ValueError``.
"""

import io
import json
import math
import random
import shutil
import tracemalloc

import numpy as np
import pytest

import index_file
from qrag import _npy, lexical, semantic, synthetic
from qrag import engine as engine_mod
from qrag.cli import main
from qrag.corpus import CleaningConfig, parse_chunks
from qrag.engine import INDEX_ARRAYS, EngineConfig, build_all, load_index
from qrag.tokenizer import TokenizerModel

# Body bytes flipped and offsets truncated at, per store.
BODY_FLIPS = 48
TRUNCATIONS = 24
# The largest traced peak of parsing a damaged store, as a multiple of the
# undamaged store's size, plus a constant: the parses of the undamaged
# stores peak at 3 to 26 times their size, and at 0.01 to 0.36 MB.
PEAK_PER_BYTE, PEAK_BASE = 4, 256 * 1024
QUERIES = ("ਸਤਿ ਨਾਮ", "ਕਰਤਾ ਪੁਰਖ ਨਿਰਭਉ")
MODES = ("sparse_only", "quantum_interference")


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("damaged")
    synthetic.write_jsonl(synthetic.make_corpus(30, seed=1), root / "corpus.jsonl")
    cfg = EngineConfig(
        cleaning=CleaningConfig(chunk_size_tokens=64, chunk_overlap_tokens=16), vocab_size=300
    )
    build_all(root / "corpus.jsonl", cfg, root / "index")
    return root / "index"


def _header_offsets(data, start):
    """Every byte offset of the ``.npy`` headers (magic, version, length and
    dict) of the consecutive arrays in ``data``, which start at ``start`` of
    the file."""
    stream = io.BytesIO(data)
    offsets = []
    while stream.tell() < len(data):
        at = stream.tell()
        np.lib.format.read_magic(stream)
        shape, _, dtype = np.lib.format.read_array_header_1_0(stream)
        offsets.extend(range(start + at, start + stream.tell()))
        stream.seek(stream.tell() + math.prod(shape) * dtype.itemsize)
    return offsets


def _flip(data, at):
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1 :]


def _cases(name, data, start, stop):
    """(label, damaged bytes) of the sections before the digest, ``data``,
    for every header byte of the store from ``start`` to ``stop``, a seeded
    sample of its other bytes flipped, and the file cut at seeded offsets
    inside it."""
    rng = random.Random(f"{name}:7")
    header = _header_offsets(data[start:stop], start)
    body = sorted(set(range(start, stop)) - set(header))
    for at in header:
        yield f"header byte {at}", _flip(data, at)
    for at in sorted(rng.sample(body, min(BODY_FLIPS, len(body)))):
        yield f"body byte {at}", _flip(data, at)
    for at in sorted(rng.sample(range(start, stop), TRUNCATIONS)):
        yield f"cut at {at}", data[:at]


def _parsers(index_dir):
    """Each store's parser, as the load runs it on the arrays that
    ``_npy.read`` yields, given the sizes, the chunk lengths and the
    tokenizer of the undamaged index; and those sizes."""
    engine = load_index(index_dir)
    parsers = {
        "manifest": lambda arrays: engine_mod._manifest(next(arrays).tobytes()),
        "tokenizer": lambda arrays: TokenizerModel.from_json(str(next(arrays).data, "utf-8")),
        "chunks": lambda arrays: parse_chunks(arrays, engine.tokenizer),
        "lexical": lambda arrays: lexical.parse(arrays, engine.chunks.token_counts),
        "vectors": semantic.parse,
    }
    return parsers, {"N": engine.chunk_count, "V": engine.tokenizer.vocab_size()}


def _parse_peak(parse, data, start, schema, sizes):
    """The traced peak of parsing the store whose arrays, the first of
    ``schema``, start at byte ``start`` of ``data``. Only the parse reads the
    damaged bytes, and tracing whole loads would take four times as long."""
    stream = io.BytesIO(data)
    stream.seek(start)
    arrays = _npy.read(stream, schema, len(data), dict(sizes))
    tracemalloc.start()
    try:
        parse(arrays)
    except (ValueError, RecursionError):
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def _outcome(index_dir, store):
    """None when the damaged index is refused by a ``ValueError`` naming
    ``store``, or loads and answers each retrieve or refuses it with a
    ``ValueError``; else what went wrong."""
    try:
        engine = load_index(index_dir)
    except ValueError as exc:
        if not str(exc).startswith(f"{store}: "):
            return f"refused without naming {store}: {exc!r}"
        return None
    except Exception as exc:  # noqa: BLE001 - any other error is the fault
        return f"{type(exc).__name__}: {exc}"
    for query in QUERIES:
        for mode in MODES:
            try:
                engine.retrieve(query, mode=mode)
            except ValueError:
                pass
            except Exception as exc:  # noqa: BLE001
                return f"loaded, then {mode} raised {type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("name", index_file.STORES)
def test_every_damaged_file_fails_cleanly(pristine, tmp_path, name):
    index_dir = tmp_path / "index"
    shutil.copytree(pristine, index_dir)
    store, names = index_file.STORES[name]
    found = index_file.sections(pristine)
    data = b"".join(found.values())
    before = list(found)[: list(found).index(names[0])]
    start = sum(len(found[n]) for n in before)
    stop = start + sum(len(found[n]) for n in names)
    schema = INDEX_ARRAYS[[a.name for a in INDEX_ARRAYS].index(names[0]) :]
    parsers, sizes = _parsers(pristine)
    faults = []
    for label, damaged in _cases(name, data, start, stop):
        index_file.write_signed(index_dir, damaged)
        fault = _outcome(index_dir, store)
        peak = _parse_peak(parsers[store], damaged, start, schema, sizes)
        if peak > PEAK_PER_BYTE * (stop - start) + PEAK_BASE:
            fault = f"parsing peaked at {peak} bytes"
        if fault is not None:
            faults.append(f"{label}: {fault}")
    assert not faults, f"{len(faults)} cases of {store}:\n" + "\n".join(faults[:20])


# Valid JSON in the wrong shape, which no flipped or cut byte makes, from the
# undamaged payload.
TOKENIZER_SHAPES = {
    "a_list": lambda p: [],
    "an_empty_object": lambda p: {},
    "no_merges": lambda p: {key: value for key, value in p.items() if key != "merges"},
    "a_float_id": lambda p: {**p, "vocab": {**p["vocab"], "<pad>": 1.0}},
    "a_3_item_merge": lambda p: {**p, "merges": [[*p["merges"][0], "x"], *p["merges"][1:]]},
    # The ids stay dense from 0: only the token is missing.
    "no_unk": lambda p: {
        **p, "vocab": {("<unk?>" if t == "<unk>" else t): i for t, i in p["vocab"].items()}
    },
}


@pytest.mark.parametrize("shape", TOKENIZER_SHAPES, ids=list(TOKENIZER_SHAPES))
def test_a_tokenizer_of_the_wrong_shape_fails_cleanly(pristine, tmp_path, capsys, shape):
    index_dir = tmp_path / "index"
    shutil.copytree(pristine, index_dir)
    tokenizer = index_file.arrays(pristine)["tokenizer"]
    payload = TOKENIZER_SHAPES[shape](json.loads(tokenizer.tobytes()))
    index_file.replace_sections(index_dir, {"tokenizer": index_file.json_array(payload)})
    with pytest.raises(ValueError, match="^tokenizer: "):
        load_index(index_dir)
    capsys.readouterr()
    assert main(["query", QUERIES[0], "--index", str(index_dir)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: tokenizer: ")
