"""The README's account of the index files stays in step with the code."""

from pathlib import Path

import pytest

from qrag.engine import FORMAT_VERSION, INDEX_FILES, MANIFEST_FILE, STATS_FILE

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
