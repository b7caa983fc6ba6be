"""Runtime checks in the library raise documented errors; ``assert``
vanishes under ``python -O`` and is never one of them."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    (Path(__file__).resolve().parent.parent / "src" / "progexplore")
    .glob("*.py"))


def test_sources_found():
    assert any(p.name == "profiles.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_has_no_assert(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"
