"""The README's account of the index files stays in step with the code."""

from pathlib import Path

import pytest

import index_file
from qrag.engine import EARLIER_FILES, FORMAT_VERSION, INDEX_ARRAYS, INDEX_FILE, STATS_FILE

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else len(text)]


# The files of format 11, which the section names as what a save replaces.
FORMAT_11_FILES = EARLIER_FILES[:5]


@pytest.mark.parametrize("name", (INDEX_FILE, STATS_FILE) + FORMAT_11_FILES)
def test_index_layout_names_every_file(name):
    assert f"`{name}`" in _section("Index layout")


@pytest.mark.parametrize(
    "name", ["lexical.jsonl", "doclen.jsonl", "vectors.bin", "vectors.ids"]
)
def test_index_layout_names_no_version_1_file(name):
    assert name not in _section("Index layout")


def test_index_layout_states_the_format_version():
    assert f"format version {FORMAT_VERSION}:" in _section("Index layout")


def _table_rows(section: str) -> list[tuple[str, ...]]:
    """The body rows of the section's one table, each cell without its
    backticks; a blank store cell repeats the one above."""
    rows, store = [], ""
    for line in section.splitlines():
        if not line.startswith("| ") or line.startswith("| store "):
            continue
        cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        store = cells[0] or store
        rows.append((store, *cells[1:]))
    return rows


def test_index_layout_table_is_the_array_schemas():
    store_of = {name: store for store, names in index_file.STORES.values() for name in names}
    expected = [
        (store_of[a.name], a.name, a.dtype, str(a.ndim), a.length or "any")
        for a in INDEX_ARRAYS
    ]
    assert _table_rows(_section("Index layout")) == expected
