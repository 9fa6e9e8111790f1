"""A damaged index whose manifest still vouches for it fails cleanly.

The digests catch damage on disk, but ``load_index`` parses each file before
its digest is known, and a writer bug makes a file whose digest matches. So
each parser must refuse bad bytes by itself. The sweep damages one file of a
small index at a time, re-signs the manifest so that the parser is reached,
and loads it: every refusal is a ``ValueError`` that starts with the file's
name, parsing no damaged file peaks above a bound, and every retrieve on a
damaged index that still loads answers or raises ``ValueError``.
"""

import hashlib
import io
import json
import math
import random
import shutil
import tracemalloc

import numpy as np
import pytest

from qrag import lexical, semantic, synthetic
from qrag.cli import main
from qrag.corpus import CHUNKS_FILE, CleaningConfig, parse_chunks
from qrag.engine import (
    INDEX_FILES,
    MANIFEST_FILE,
    TOKENIZER_FILE,
    EngineConfig,
    build_all,
    load_index,
)
from qrag.lexical import LEXICAL_FILE
from qrag.semantic import VECTORS_FILE
from qrag.tokenizer import TokenizerModel

# Body bytes flipped and offsets truncated at, per file.
BODY_FLIPS = 48
TRUNCATIONS = 24
# The largest traced peak of parsing a damaged file, as a multiple of the
# undamaged file's size, plus a constant: the parses of the undamaged files
# peak at 1.5 to 16 times their size, and at 0.06 to 0.27 MB.
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


def _header_offsets(data):
    """Every byte offset of the ``.npy`` headers (magic, version, length and
    dict) of the consecutive arrays in ``data``."""
    stream = io.BytesIO(data)
    offsets = []
    while stream.tell() < len(data):
        start = stream.tell()
        np.lib.format.read_magic(stream)
        shape, _, dtype = np.lib.format.read_array_header_1_0(stream)
        offsets.extend(range(start, stream.tell()))
        stream.seek(stream.tell() + math.prod(shape) * dtype.itemsize)
    return offsets


def _flip(data, at):
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1 :]


def _cases(name, data):
    """(label, damaged bytes) for every header byte of an ``.npy`` file (a
    JSON file has none), a seeded sample of the other bytes flipped, and
    truncations at seeded offsets."""
    rng = random.Random(f"{name}:7")
    header = _header_offsets(data) if name.endswith(".npy") else []
    body = sorted(set(range(len(data))) - set(header))
    for at in header:
        yield f"header byte {at}", _flip(data, at)
    for at in sorted(rng.sample(body, min(BODY_FLIPS, len(body)))):
        yield f"body byte {at}", _flip(data, at)
    for at in sorted(rng.sample(range(len(data)), TRUNCATIONS)):
        yield f"cut at {at}", data[:at]


def _re_sign(index_dir, name, data):
    """Write ``data`` as ``name`` and give the manifest its digest."""
    (index_dir / name).write_bytes(data)
    manifest = json.loads((index_dir / MANIFEST_FILE).read_text(encoding="utf-8"))
    digest = hashlib.sha256(data).hexdigest()
    manifest["files"][name] = digest
    (index_dir / MANIFEST_FILE).write_text(json.dumps(manifest), encoding="utf-8")


def _parsers(index_dir):
    """Each file's parser, given the chunk count, the chunk lengths, the
    vocab size and the tokenizer of the undamaged index."""
    engine = load_index(index_dir)
    n, v = engine.chunk_count, engine.tokenizer.vocab_size()
    return {
        CHUNKS_FILE: lambda data: parse_chunks(data, engine.tokenizer),
        TOKENIZER_FILE: lambda data: TokenizerModel.from_json(data.decode("utf-8")),
        LEXICAL_FILE: lambda data: lexical.parse(data, engine.chunks.token_counts, v),
        VECTORS_FILE: lambda data: semantic.parse(data, n),
    }


def _parse_peak(parse, data):
    """The traced peak of parsing ``data`` alone. Only the parse reads the
    damaged bytes, and tracing whole loads would take four times as long."""
    tracemalloc.start()
    try:
        parse(data)
    except ValueError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def _outcome(index_dir, name):
    """None when the damaged index is refused by a ``ValueError`` naming
    ``name``, or loads and answers each retrieve or refuses it with a
    ``ValueError``; else what went wrong."""
    try:
        engine = load_index(index_dir)
    except ValueError as exc:
        if not str(exc).startswith(f"{name}: "):
            return f"refused without naming {name}: {exc!r}"
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


@pytest.mark.parametrize("name", INDEX_FILES)
def test_every_damaged_file_fails_cleanly(pristine, tmp_path, name):
    index_dir = tmp_path / "index"
    shutil.copytree(pristine, index_dir)
    parse = _parsers(pristine)[name]
    data = (pristine / name).read_bytes()
    faults = []
    for label, damaged in _cases(name, data):
        _re_sign(index_dir, name, damaged)
        fault = _outcome(index_dir, name)
        peak = _parse_peak(parse, damaged)
        if peak > PEAK_PER_BYTE * len(data) + PEAK_BASE:
            fault = f"parsing peaked at {peak} bytes"
        if fault is not None:
            faults.append(f"{label}: {fault}")
    assert not faults, f"{len(faults)} cases of {name}:\n" + "\n".join(faults[:20])


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
    payload = TOKENIZER_SHAPES[shape](json.loads((pristine / TOKENIZER_FILE).read_bytes()))
    _re_sign(index_dir, TOKENIZER_FILE, json.dumps(payload).encode())
    with pytest.raises(ValueError, match=f"^{TOKENIZER_FILE}: "):
        load_index(index_dir)
    capsys.readouterr()
    assert main(["query", QUERIES[0], "--index", str(index_dir)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {TOKENIZER_FILE}: ")
