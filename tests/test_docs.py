"""The README's account of the index files stays in step with the code."""

from pathlib import Path

import pytest

from qrag.corpus import CHUNK_ARRAYS, CHUNKS_FILE
from qrag.engine import FORMAT_VERSION, INDEX_FILES, MANIFEST_FILE, STATS_FILE
from qrag.lexical import LEXICAL_ARRAYS, LEXICAL_FILE
from qrag.semantic import VECTOR_ARRAYS, VECTORS_FILE

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else len(text)]


@pytest.mark.parametrize("name", INDEX_FILES + (MANIFEST_FILE, STATS_FILE))
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
    backticks; a blank file cell repeats the one above."""
    rows, file = [], ""
    for line in section.splitlines():
        if not line.startswith("| ") or line.startswith("| file "):
            continue
        cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        file = cells[0] or file
        rows.append((file, *cells[1:]))
    return rows


def test_index_layout_table_is_the_array_schemas():
    schemas = (
        (CHUNKS_FILE, CHUNK_ARRAYS),
        (LEXICAL_FILE, LEXICAL_ARRAYS),
        (VECTORS_FILE, VECTOR_ARRAYS),
    )
    expected = [
        (file, a.name, a.dtype, str(a.ndim), a.length or "any")
        for file, schema in schemas
        for a in schema
    ]
    assert _table_rows(_section("Index layout")) == expected
