"""Take an index file apart into its sections and put it back together,
re-signed, so that a test can change one section and still reach its
parser."""

import hashlib
import io
import json
import math

import numpy as np

from qrag.corpus import CHUNK_ARRAYS
from qrag.engine import DIGEST_SIZE, INDEX_ARRAYS, INDEX_FILE
from qrag.lexical import LEXICAL_ARRAYS
from qrag.semantic import VECTOR_ARRAYS

# Each store of an index file, named as its refusals start, with its
# sections in file order; keyed by the file that held the store through
# format 11, which names the store in test ids.
STORES = {
    "manifest.json": ("manifest", ("manifest",)),
    "tokenizer.json": ("tokenizer", ("tokenizer",)),
    "chunks.npy": ("chunks", tuple(a.name for a in CHUNK_ARRAYS)),
    "lexical.npy": ("lexical", tuple(a.name for a in LEXICAL_ARRAYS)),
    "vectors.npy": ("vectors", tuple(a.name for a in VECTOR_ARRAYS)),
}


def sections(index_dir):
    """The bytes of each section of the index file in ``index_dir`` (its
    ``.npy`` header and data), by array name, in file order."""
    data = (index_dir / INDEX_FILE).read_bytes()[:-DIGEST_SIZE]
    stream, found = io.BytesIO(data), {}
    for spec in INDEX_ARRAYS:
        start = stream.tell()
        np.lib.format.read_magic(stream)
        shape, _, dtype = np.lib.format.read_array_header_1_0(stream)
        stream.seek(stream.tell() + math.prod(shape) * dtype.itemsize)
        found[spec.name] = data[start : stream.tell()]
    assert stream.tell() == len(data)
    return found


def arrays(index_dir):
    """The arrays of the index file in ``index_dir``, by name, in file order."""
    return {
        name: np.lib.format.read_array(io.BytesIO(raw))
        for name, raw in sections(index_dir).items()
    }


def array_bytes(arr):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, allow_pickle=True)
    return buf.getvalue()


def write_signed(index_dir, data):
    """Write ``data`` and its SHA-256 as the index file in ``index_dir``."""
    (index_dir / INDEX_FILE).write_bytes(data + hashlib.sha256(data).digest())


def replace_sections(index_dir, changes):
    """Re-sign the index file with the sections named in ``changes`` given
    its bytes (an ``np.ndarray`` is written as ``np.save`` would)."""
    found = sections(index_dir)
    for name, value in changes.items():
        found[name] = array_bytes(value) if isinstance(value, np.ndarray) else value
    write_signed(index_dir, b"".join(found.values()))


def json_array(value):
    return np.frombuffer(json.dumps(value).encode(), np.uint8)


def manifest(index_dir):
    return json.loads(arrays(index_dir)["manifest"].tobytes())


def edit_manifest(index_dir, edit):
    """Re-sign the index file with its manifest as ``edit`` leaves it."""
    changed = manifest(index_dir)
    edit(changed)
    replace_sections(index_dir, {"manifest": json_array(changed)})
