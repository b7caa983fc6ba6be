"""Every name a library module imports at module level is used in it.  A
refactor that moves a call away leaves no dead import behind; the package
``__init__`` re-exports names and is exempt.  The benchmark tracer patches
names where they are used, so this agrees with ``test_tracer_targets``."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    p for p in (Path(__file__).resolve().parent.parent / "src"
                / "progexplore").glob("*.py")
    if p.name != "__init__.py")


def imported_names(tree):
    """The names the module-level imports of ``tree`` bind, by line."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def test_sources_found():
    assert any(p.name == "graph.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_has_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [(name, line) for name, line in imported_names(tree)
              if name not in used]
    assert unused == [], f"{path.name}: unused imports {unused}"
