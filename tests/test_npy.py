"""The ``.npy`` format has one home, ``qrag._npy``: its reader and its
writer serve the three array stores, each store's file holds the bytes that
numpy writes, and a damaged header is a ``ValueError`` naming the array."""

import ast
import io
from pathlib import Path

import numpy as np
import pytest

import qrag
from qrag import _npy
from qrag.corpus import CHUNK_ARRAYS, CHUNKS_FILE, ChunkTable, Window, save_chunks
from qrag.lexical import LEXICAL_ARRAYS, LEXICAL_FILE, build_index
from qrag.lexical import save as save_lexical
from qrag.semantic import ROW_BLOCK_ROWS, VECTOR_ARRAYS, VECTORS_FILE, VectorIndex
from qrag.semantic import save as save_vectors
from qrag.tokenizer import TokenizerModel

SRC = Path(qrag.__file__).parent


def _format_uses(tree):
    """What in ``tree`` knows the ``.npy`` format: numpy's format module or
    its load and save, the magic string, or a function named for it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "format":
            if isinstance(node.value, ast.Attribute) and node.value.attr == "lib":
                found.add("np.lib.format")
        elif isinstance(node, ast.Attribute) and node.attr in ("load", "save", "fromfile"):
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                found.add(f"np.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.lib"):
            found.add(node.module)
        elif isinstance(node, ast.Constant) and isinstance(node.value, bytes):
            if b"NUMPY" in node.value:
                found.add("the magic string")
        elif isinstance(node, ast.FunctionDef) and "npy" in node.name.lower():
            found.add(f"def {node.name}")
    return found


def test_only_the_npy_module_knows_the_format():
    uses = {
        path.name: _format_uses(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }
    assert uses.pop("_npy.py") == {"np.lib.format"}
    assert {name: found for name, found in uses.items() if found} == {}


def _chunks(n):
    # A vocabulary of 300 ids, so they are stored as uint16; every third
    # chunk holds no id.
    tok = TokenizerModel({f"t{i}": i for i in range(300)}, [])
    ids = np.random.default_rng(n).integers(0, 300, 4 * n)
    windows = [Window(f"d{i:04d}#0", ids[4 * i : 4 * i + i % 3]) for i in range(n)]
    return ChunkTable.from_windows(windows, tok)


def _numpy_bytes(arrays):
    buf = io.BytesIO()
    for arr in arrays:
        np.lib.format.write_array(buf, arr, allow_pickle=False)
    return buf.getvalue()


def _numpy_arrays(data, count):
    stream = io.BytesIO(data)
    return [np.lib.format.read_array(stream, allow_pickle=False) for _ in range(count)]


# Each store: its file, its schema, and how to save a store of n rows.
STORES = {
    "chunks": (CHUNKS_FILE, CHUNK_ARRAYS, lambda n, out: save_chunks(_chunks(n), out)),
    "lexical": (
        LEXICAL_FILE,
        LEXICAL_ARRAYS,
        lambda n, out: save_lexical(
            build_index(np.random.default_rng(n).integers(0, 50, 7 * n), np.full(n, 7), 50), out
        ),
    ),
    "vectors": (
        VECTORS_FILE,
        VECTOR_ARRAYS,
        lambda n, out: save_vectors(
            VectorIndex.build(n, np.random.default_rng(n).standard_normal((n, 24))), out
        ),
    ),
}


@pytest.mark.parametrize("n", [1, ROW_BLOCK_ROWS, 2 * ROW_BLOCK_ROWS + 3])
@pytest.mark.parametrize("store", STORES)
def test_each_store_writes_the_bytes_of_numpy_and_reads_them_back(tmp_path, store, n):
    name, schema, save = STORES[store]
    save(n, tmp_path)
    data = (tmp_path / name).read_bytes()
    expected = _numpy_arrays(data, len(schema))
    assert data == _numpy_bytes(expected)
    arrays = _npy.read(data, schema)
    for arr, want in zip(arrays, expected, strict=True):
        assert arr.dtype == want.dtype and np.array_equal(arr, want)
        # A read-only view of the bytes read: nothing is copied.
        assert not arr.flags.writeable and _owner(arr) is data


def _owner(arr):
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr


SCHEMA = (_npy.Array("counts", "integer", 1, "N"),)


def _with_header(header):
    """A file of one array of three ``<i8``, whose header dict is ``header``."""
    text = header.encode("latin1") + b"\n"
    return b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text + bytes(24)


GOOD = "{'descr': '<i8', 'fortran_order': False, 'shape': (3,), }"


def test_a_hand_made_header_reads():
    assert _npy.read(_with_header(GOOD), SCHEMA, N=3)[0].tolist() == [0, 0, 0]


# Headers that numpy's parse refuses: the unclosed one in its legacy-header
# filter, with tokenize.TokenError, the unhashable key with a TypeError and
# the rest with a ValueError.
DAMAGED_HEADERS = {
    "unclosed": GOOD[:-3],
    "a_list": "[1, 2]",
    "a_wrong_key": GOOD.replace("'descr'", "'dtype'"),
    "an_extra_key": GOOD.replace("}", "'x': 1}"),
    "float_shape": GOOD.replace("(3,)", "(3.0,)"),
    "int_order": GOOD.replace("False", "0"),
    "bad_descr": GOOD.replace("<i8", "<q9"),
    "a_list_key": "{[]: 1}",
}


@pytest.mark.parametrize("header", DAMAGED_HEADERS.values(), ids=list(DAMAGED_HEADERS))
def test_each_damaged_header_is_a_value_error_naming_the_array(header):
    with pytest.raises(ValueError, match="^the counts array has a damaged header: "):
        _npy.read(_with_header(header), SCHEMA, N=3)


@pytest.mark.parametrize(
    "shape, dtype, match",
    [
        ("(3,)", "<f8", "got <f8 of shape"),
        ("(3,)", "|O", r"got \|O of shape"),
        ("(3, 1)", "<i8", r"got <i8 of shape \(3, 1\)$"),
        ("(-3,)", "<i8", r"got <i8 of shape \(-3,\)$"),
        ("(True,)", "<i8", r"got <i8 of shape \(True,\)$"),
    ],
    ids=["float", "object", "2_d", "negative", "bool"],
)
def test_a_header_off_the_schema_is_refused_by_name(shape, dtype, match):
    header = GOOD.replace("(3,)", shape).replace("<i8", dtype)
    with pytest.raises(ValueError, match="^counts must be a 1-d integer array, " + match):
        _npy.read(_with_header(header), SCHEMA, N=3)


@pytest.mark.parametrize(
    "data, match",
    [
        (b"", r"^the counts array has a damaged header: EOF"),
        (_with_header(GOOD)[:9], r"^the counts array has a damaged header: EOF"),
        (_with_header(GOOD)[:60], r"^the counts array has a damaged header: EOF"),
        (_with_header(GOOD)[:-1], r"^the counts array is cut short: 23 of 24 bytes$"),
        (_with_header(GOOD) + b"\0", r"^trailing bytes after the counts array$"),
        (b"\x93NUMPY\x02\x00" + _with_header(GOOD)[8:], r"damaged header: not \.npy format 1\.0$"),
    ],
    ids=["empty", "cut_in_the_preamble", "cut_in_the_dict", "cut_in_the_data", "trailing", "v2"],
)
def test_a_file_cut_short_padded_or_of_another_version_is_refused(data, match):
    with pytest.raises(ValueError, match=match):
        _npy.read(data, SCHEMA, N=3)


def test_a_size_not_given_is_set_by_the_first_array_it_rules():
    schema = (*SCHEMA, _npy.Array("ends", "integer", 1, "N + 1"))
    data = _numpy_bytes([np.arange(3), np.arange(4)])
    assert [len(a) for a in _npy.read(data, schema)] == [3, 4]
    with pytest.raises(ValueError, match=r"^ends has 4 entries for 2 chunks \(N \+ 1 = 3\)$"):
        _npy.read(_numpy_bytes([np.arange(2), np.arange(4)]), schema)
