"""The library stays stdlib-only: every import in ``src/progexplore/``
names a standard-library module or the package itself, so it runs on a
bare interpreter with nothing installed."""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src"
                  / "progexplore").glob("*.py"))


def foreign_imports(tree):
    """``(module, line)`` for each import in ``tree`` whose top-level
    module is neither in the standard library nor the package; a relative
    import reads the package itself."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["progexplore" if node.level else node.module]
        else:
            continue
        found.extend((name.split(".")[0], node.lineno) for name in names)
    return [(name, line) for name, line in found
            if name != "progexplore" and name not in sys.stdlib_module_names]


def test_sources_found():
    assert any(p.name == "graph.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert foreign_imports(tree) == [], f"{path.name}: non-stdlib imports"


def test_a_third_party_import_is_flagged():
    tree = ast.parse("import json\nfrom numpy import array\n"
                     "from . import graph\nimport progexplore.graph\n")
    assert foreign_imports(tree) == [("numpy", 2)]
