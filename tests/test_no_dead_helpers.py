"""Every private module-level function or class of the library is named
somewhere in the library outside its own definition.  A refactor that
moves the last call away deletes the helper instead of leaving it behind
for the tests alone: references from tests do not count.

Only a reference that can reach the helper counts: a name in the helper's
own module, a ``from .mod import _helper`` in another module, or a
``mod._helper`` attribute where ``mod`` is bound by ``from . import mod``.
A method or local of the same name elsewhere does not keep it alive."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src"
                  / "progexplore").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def helpers(tree):
    return [node.name for node in tree.body
            if isinstance(node, DEFINITIONS) and node.name.startswith("_")
            and not node.name.startswith("__")]


def module_aliases(tree):
    """{local name: module stem} for each ``from . import mod [as q]``."""
    return {alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module is None
            for alias in node.names}


def references(module, tree):
    """(target module, name, owner) for each reference in ``tree`` that
    can reach a module-level name of the target; ``owner`` is the
    module-level definition of ``module`` the reference sits in, or None."""
    aliases = module_aliases(tree)
    for top in tree.body:
        owner = top.name if isinstance(top, DEFINITIONS) else None
        for sub in ast.walk(top):
            if isinstance(sub, ast.Name):
                yield module, sub.id, owner
            elif (isinstance(sub, ast.Attribute)
                  and isinstance(sub.value, ast.Name)
                  and sub.value.id in aliases):
                yield aliases[sub.value.id], sub.attr, owner
            elif (isinstance(sub, ast.ImportFrom) and sub.level == 1
                  and sub.module is not None):
                for alias in sub.names:
                    yield sub.module, alias.name, owner


def dead_helpers(sources):
    """{module: [helper named nowhere it can be reached from]} for
    ``sources``, a {module stem: source text} map of one package."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = {(target, name)
            for module, tree in trees.items()
            for target, name, owner in references(module, tree)
            if not (target == module and owner == name)}
    return {module: [h for h in helpers(tree) if (module, h) not in used]
            for module, tree in trees.items()}


DEAD = dead_helpers({p.stem: p.read_text(encoding="utf-8")
                     for p in SOURCES})


def test_sources_found():
    assert any(p.name == "cli.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_helper_has_a_library_caller(path):
    assert DEAD[path.stem] == [], (
        f"{path.name}: helpers named nowhere else {DEAD[path.stem]}")


def test_a_same_named_attribute_or_local_elsewhere_does_not_count():
    dead = dead_helpers({
        "a": "def _judge():\n    pass\n\n"
             "def _rec(n):\n    return _rec(n - 1)\n\n"
             "def _kept():\n    pass\n\n"
             "def _via_module():\n    pass\n",
        "b": "from .a import _kept\nfrom . import a as mod\n\n"
             "def f(ib, _rec):\n"
             "    return ib._judge(), _rec, _kept(), mod._via_module()\n",
    })
    assert dead == {"a": ["_judge", "_rec"], "b": []}
