"""``qrag`` runs on numpy and the standard library alone. Other packages
(scipy, orjson) may be installed where the tests run, so an import of one of
them would pass every other test and fail only where the declared
dependencies are all there is."""

import ast
import sys
from pathlib import Path

import pytest

import qrag

SRC = Path(qrag.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qrag"}


def _foreign(tree: ast.AST) -> set[str]:
    """The top-level packages that ``tree`` imports, anywhere in it, outside
    ``ALLOWED``; a relative import is of ``qrag`` itself."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names - ALLOWED


def test_the_check_names_a_foreign_import():
    source = "import json, scipy.sparse\nfrom orjson import dumps\nfrom . import _npy\n"
    source += "def f():\n    import numpy.linalg\n    from hypothesis import given\n"
    assert _foreign(ast.parse(source)) == {"scipy", "orjson", "hypothesis"}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_each_module_imports_only_numpy_qrag_and_the_stdlib(module):
    assert _foreign(ast.parse((SRC / module).read_text(encoding="utf-8"))) == set()
