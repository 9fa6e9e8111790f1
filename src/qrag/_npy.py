"""The one reader and the one writer of the ``.npy`` arrays of an index.

Each array store (``chunks.npy``, ``lexical.npy``, ``vectors.npy``) is a
file of consecutive ``.npy`` arrays of format 1.0, which the store declares
as a schema: one ``Array`` per array, in file order. ``read`` checks every
array against it, so a store checks only what its arrays mean. No other
module knows the format.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class Array(NamedTuple):
    """One array of a file. ``dtype`` is "integer" (any signed or unsigned
    width) or the one dtype allowed. ``length`` rules the first dimension:
    one of ``RULES``, "the last offset" (of the last "+ 1" array before it),
    or None for any length."""

    name: str
    dtype: str
    ndim: int
    length: str | None


# Each length rule: the size it reads (N, the chunk count, or V, the vocab
# size), what it adds to it, and how a refusal says what the length is for.
RULES = {
    "N": ("N", 0, "{} chunks"),
    "N + 1": ("N", 1, "{} chunks (N + 1 = {})"),
    "V + 1": ("V", 1, "a vocabulary of {} (vocab size + 1 = {})"),
}


class Blocks(NamedTuple):
    """An array that ``write`` writes one block of rows at a time."""

    dtype: str
    shape: tuple[int, ...]
    blocks: Iterable[np.ndarray]


def read(data: bytes, schema: Sequence[Array], **sizes: int) -> list[np.ndarray]:
    """The arrays of ``schema`` that fill ``data``, as read-only views of
    it: nothing is copied, so a caller copies what it keeps. ``sizes`` holds
    "N" and "V" where known; one not given is set by the first array whose
    rule names it. Each refusal is a ``ValueError`` naming the array: a
    damaged header, a dtype, shape or length off the schema (so an object
    array is refused without unpickling), an array cut short, or bytes after
    the last.
    """
    stream = io.BytesIO(data)  # shares the bytes object until written to
    arrays: list[np.ndarray] = []
    offsets = ("", 0)  # the name and the last entry of the last "+ 1" array
    for spec in schema:
        # numpy's header parse lets tokenize.TokenError, SyntaxError and
        # TypeError out besides ValueError, and each of them means damage.
        try:
            if np.lib.format.read_magic(stream) != (1, 0):
                raise ValueError("not .npy format 1.0")
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(stream)
        except Exception as exc:
            raise ValueError(f"the {spec.name} array has a damaged header: {exc}") from None
        kind_ok = dtype.kind in "iu" if spec.dtype == "integer" else dtype == spec.dtype
        dims_ok = all(type(d) is int and d >= 0 for d in shape)
        if len(shape) != spec.ndim or not kind_ok or not dims_ok:
            raise ValueError(
                f"{spec.name} must be a {spec.ndim}-d {spec.dtype} array, "
                f"got {dtype.str} of shape {shape}"
            )
        if spec.length == "the last offset":
            want, what = offsets[1], f"{offsets[0]} ending at {offsets[1]}"
        elif spec.length is not None:
            key, plus, words = RULES[spec.length]
            want = sizes.setdefault(key, shape[0] - plus) + plus
            what = words.format(sizes[key], want)
        if spec.length is not None and shape[0] != want:
            unit = "rows" if spec.ndim > 1 else "entries"
            raise ValueError(f"{spec.name} has {shape[0]} {unit} for {what}")
        start, count = stream.tell(), math.prod(shape)
        size, left = count * dtype.itemsize, len(data) - start
        if left < size:
            raise ValueError(f"the {spec.name} array is cut short: {left} of {size} bytes")
        arr = np.frombuffer(data, dtype, count, start)
        arrays.append(arr.reshape(shape[::-1]).T if fortran_order else arr.reshape(shape))
        if spec.length in ("N + 1", "V + 1"):  # an offsets array
            offsets = (spec.name, int(arr[-1]))
        stream.seek(start + size)
    if stream.tell() < len(data):
        raise ValueError(f"trailing bytes after the {schema[-1].name} array")
    return arrays


def write(path: str | Path, arrays: Iterable[np.ndarray | Blocks]) -> None:
    """Write ``arrays`` to ``path`` one after another, each as the bytes of
    ``np.lib.format.write_array`` of it in C order; a ``Blocks`` as those of
    the whole array it stands for."""
    with open(path, "wb") as fh:
        for arr in arrays:
            if isinstance(arr, np.ndarray):
                arr = Blocks(arr.dtype, arr.shape, (arr,))
            descr = np.lib.format.dtype_to_descr(np.dtype(arr.dtype))
            header = {"descr": descr, "fortran_order": False, "shape": arr.shape}
            np.lib.format.write_array_header_1_0(fh, header)
            for block in arr.blocks:
                fh.write(np.ascontiguousarray(block, dtype=arr.dtype))
