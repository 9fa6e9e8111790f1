"""``qrag`` runs on numpy and the standard library alone. Other packages
(scipy, orjson) may be installed where the tests run, so an import of one of
them would pass every other test and fail only where the declared
dependencies are all there is. And the leaf modules, the two retrieval legs
and the fusion kernel, import no ``qrag`` module beyond the ones named in
``LEAVES``."""

import ast
import sys
from pathlib import Path

import pytest

import qrag

SRC = Path(qrag.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qrag"}
# Each leaf module and the ``qrag`` modules it imports.
LEAVES = {"lexical.py": {"_npy"}, "semantic.py": {"_npy"}, "quantum.py": set()}


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


def _qrag_modules(tree: ast.AST) -> set[str]:
    """The ``qrag`` modules that ``tree`` imports, anywhere in it, by a
    relative import (``from . import m``, ``from .m import x``) or an absolute
    one (``import qrag.m``, ``from qrag.m import x``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("qrag.")
            )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "qrag":
                    continue
                module = module.partition(".")[2]
            if module:
                names.add(module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_the_check_names_each_qrag_import():
    source = "import numpy, qrag.corpus\nfrom . import _npy, _records\n"
    source += "from .lexical import top_rows\n"
    source += "def f():\n    from qrag.engine import load_index\n    from qrag import tokenizer\n"
    assert _qrag_modules(ast.parse(source)) == {
        "corpus", "_npy", "_records", "lexical", "engine", "tokenizer"
    }


@pytest.mark.parametrize("module", sorted(LEAVES))
def test_each_leaf_imports_only_its_qrag_modules(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert _qrag_modules(tree) == LEAVES[module]
