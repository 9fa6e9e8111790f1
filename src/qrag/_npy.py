"""The one reader and the one writer of the ``.npy`` arrays of an index.

An index file is consecutive ``.npy`` arrays of format 1.0, which the index
declares as a schema: one ``Array`` per array, in file order, each store's
arrays among them. ``read`` checks every array against it, so a store
checks only what its arrays mean. No other module knows the format.
"""

from __future__ import annotations

import io
import math
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

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


def read(
    fh: BinaryIO,
    schema: Sequence[Array],
    end: int,
    sizes: dict[str, int],
    on_read: Callable[[bytes], object] | None = None,
) -> Iterator[np.ndarray]:
    """The arrays of ``schema``, read from ``fh`` one at a time and no
    further than byte ``end``, each a read-only view of the bytes read for
    it. ``on_read`` is given every bytes object read, in file order, before
    it is checked. ``sizes`` holds "N" and "V" where known, and a caller may
    add one between two arrays; one not given is set by the first array
    whose rule names it. Each refusal is a ``ValueError`` naming the array:
    a damaged header, a dtype, shape or length off the schema (so an object
    array is refused without unpickling), an array cut short, or bytes
    after the last before ``end``.
    """
    offsets = ("", 0)  # the name and the last entry of the last "+ 1" array

    def take(n: int) -> bytes:
        data = fh.read(max(0, min(n, end - fh.tell())))
        if on_read is not None:
            on_read(data)
        return data

    for spec in schema:
        head = take(10)  # the magic string, the version and the header length
        if head[6:8] == b"\x01\x00" and len(head) == 10:
            head += take(int.from_bytes(head[8:], "little"))
        stream = io.BytesIO(head)
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
        count = math.prod(shape)
        size, left = count * dtype.itemsize, end - fh.tell()
        if left < size:
            raise ValueError(f"the {spec.name} array is cut short: {left} of {size} bytes")
        arr = np.frombuffer(take(size), dtype, count)
        arr = arr.reshape(shape[::-1]).T if fortran_order else arr.reshape(shape)
        if spec.length in ("N + 1", "V + 1"):  # an offsets array
            offsets = (spec.name, int(arr[-1]))
        if spec is schema[-1] and fh.tell() < end:
            raise ValueError(f"trailing bytes after the {spec.name} array")
        yield arr


def write(fh: BinaryIO, arrays: Iterable[np.ndarray | Blocks]) -> None:
    """Write ``arrays`` to ``fh`` one after another, each as the bytes of
    ``np.lib.format.write_array`` of it in C order; a ``Blocks`` as those of
    the whole array it stands for."""
    for arr in arrays:
        if isinstance(arr, np.ndarray):
            arr = Blocks(arr.dtype, arr.shape, (arr,))
        descr = np.lib.format.dtype_to_descr(np.dtype(arr.dtype))
        header = {"descr": descr, "fortran_order": False, "shape": arr.shape}
        np.lib.format.write_array_header_1_0(fh, header)
        for block in arr.blocks:
            fh.write(np.ascontiguousarray(block, dtype=arr.dtype))
