"""Conversion between dataclass records and JSON-ready dicts, so that each
record's fields are written down once: in its dataclass; and the two JSON
file forms the package persists, indented JSON and JSON lines.

``to_dict`` walks the fields without copying (unlike ``dataclasses.asdict``),
recurses into nested records and leaves out ``None`` values. In ``from_dict``
a missing key takes the field's default; an unknown key, a missing required
key or a value of the wrong type raises ``ValueError`` naming the dotted key
(``fusion.mdoe``). An int is taken, unchanged, for a float, but a bool is not
taken for an int.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from functools import cache
from pathlib import Path
from typing import Any, Iterator, Mapping

# Exact value types taken as is for each scalar annotation (bool is not int).
_SCALARS = {str: {str}, int: {int}, float: {int, float}, bool: {bool}}
_UNIONS = (typing.Union, types.UnionType)


@cache
def _schema(cls: type) -> tuple[dict[str, tuple[Any, frozenset, bool]], frozenset]:
    """Per field name: (annotation, types taken as is, holds records); and the
    names of the fields without a default."""
    hints = typing.get_type_hints(cls)
    fields, required = {}, set()
    for f in dataclasses.fields(cls):
        tp = base = hints[f.name]
        if typing.get_origin(tp) in _UNIONS:  # X | None
            base = typing.get_args(tp)[0]
        exact = _SCALARS.get(base, set()) | ({type(None)} if base is not tp else set())
        item = (typing.get_args(base) or (base,))[0]
        fields[f.name] = (tp, frozenset(exact), dataclasses.is_dataclass(item))
        if f.default is f.default_factory is dataclasses.MISSING:
            required.add(f.name)
    return fields, frozenset(required)


def to_dict(record: Any) -> dict:
    out = {}
    for name, (_, _, nested) in _schema(type(record))[0].items():
        value = getattr(record, name)
        if value is None:
            continue
        if nested:
            value = list(map(to_dict, value)) if type(value) is list else to_dict(value)
        out[name] = value
    return out


def from_dict(cls: type, d: Any, key: str = "") -> Any:
    """Build ``cls`` from the JSON object ``d`` found at the dotted ``key``."""
    fields, required = _schema(cls)
    if not isinstance(d, Mapping):
        raise ValueError(_mismatch(key or cls.__name__, dict, d))
    kwargs = {}
    for name, value in d.items():
        spec = fields.get(name)
        if spec is None:
            raise ValueError(f"unknown key: {_join(key, name)}")
        tp, exact, _ = spec
        kwargs[name] = value if type(value) in exact else _load(tp, value, _join(key, name))
    if len(kwargs) < len(fields):
        missing = required - kwargs.keys()
        if missing:
            raise ValueError(f"missing key: {_join(key, min(missing))}")
    return cls(**kwargs)


def _load(tp: Any, value: Any, key: str) -> Any:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in _UNIONS:
        return None if value is None else _load(args[0], value, key)
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, value, key)
    if origin is list and isinstance(value, list):
        return [_load(args[0], v, f"{key}[{i}]") for i, v in enumerate(value)]
    if origin is dict and isinstance(value, dict):
        return {k: _load(args[1], v, f"{key}.{k}") for k, v in value.items()}
    if type(value) in _SCALARS.get(tp, ()):
        return value
    raise ValueError(_mismatch(key, origin or tp, value))


def _join(key: str, name: str) -> str:
    return f"{key}.{name}" if key else name


def _mismatch(key: str, expected: type, value: Any) -> str:
    return f"{key}: expected {expected.__name__}, got {type(value).__name__}"


def write_json(obj: Any, path: str | Path) -> None:
    text = json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_jsonl(path: str | Path) -> Iterator[Any]:
    """The JSON value on each non-blank line of ``path``."""
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)
