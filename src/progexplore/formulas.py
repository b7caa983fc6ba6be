"""Distance-formula ASTs, concrete builders, evaluation, and JSON round-trip.

A distance formula is a boolean combination of atoms ``delta_q(x_i, y_j)``
meaning "dist(x_i, y_j) <= q".  Evaluation only needs the pairwise
candidate/witness distance matrix, capped at any value >= the formula radius.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

from .errors import InputError, ParseError, read_json

# parse_formula's deepest tree, root at depth 1 (build_eta's trees are 5 deep)
MAX_FORMULA_DEPTH = 200


@dataclass(frozen=True)
class Atom:
    q: int  # distance threshold
    x: int  # candidate variable index
    y: int  # witness variable index


@dataclass(frozen=True)
class And:
    children: tuple


@dataclass(frozen=True)
class Or:
    children: tuple


@dataclass(frozen=True)
class Not:
    child: "Node"


Node = Union[Atom, And, Or, Not]


def walk(node):
    """Every node of the tree under ``node``, ``node`` itself first."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, Not):
            stack.append(cur.child)
        elif not isinstance(cur, Atom):
            stack.extend(cur.children)


@dataclass(frozen=True)
class DistanceFormula:
    c: int  # number of candidate variables
    d: int  # number of witness variables
    root: Node

    def __post_init__(self):
        if self.c < 1 or self.d < 1:
            raise InputError("formula needs at least one variable per side")
        radius, size, positive = 0, 0, True
        for node in walk(self.root):
            if isinstance(node, Not):
                positive = False
            elif isinstance(node, Atom):
                if node.q < 0:
                    raise InputError(f"negative threshold {node.q}")
                if not (0 <= node.x < self.c):
                    raise InputError(f"candidate index {node.x} out of range")
                if not (0 <= node.y < self.d):
                    raise InputError(f"witness index {node.y} out of range")
                radius = max(radius, node.q)
                size += 1
        if not size:
            raise InputError("formula needs at least one atom")
        # derived once; plain attributes, so not compared, hashed or shown
        object.__setattr__(self, "_radius", radius)
        object.__setattr__(self, "_size", size)
        object.__setattr__(self, "_positive", positive)

    def radius(self) -> int:
        return self._radius

    def size(self) -> int:
        return self._size

    def is_positive(self) -> bool:
        return self._positive


def build_delta(k: int, r: int) -> DistanceFormula:
    """Domination check: some of the k candidates is within distance r of y."""
    if k < 1:
        raise InputError("need k >= 1 (an empty disjunction is just False)")
    if r < 0:
        raise InputError("need r >= 0")
    atoms = tuple(Atom(r, i, 0) for i in range(k))
    root = atoms[0] if k == 1 else Or(atoms)
    return DistanceFormula(k, 1, root)


def build_eta(k: int, r: int) -> DistanceFormula:
    """Independence check: every candidate pair has dist(x_i,y)+dist(x_j,y) > r.

    Encoded as a conjunction over i < j of NOT OR_{a=0..r}
    (delta_a(x_i, y) AND delta_{r-a}(x_j, y)).
    """
    if k < 2:
        raise InputError("need k >= 2")
    if r < 1:
        raise InputError("need r >= 1")
    clauses = []
    for i in range(k):
        for j in range(i + 1, k):
            close = Or(tuple(
                And((Atom(a, i, 0), Atom(r - a, j, 0)))
                for a in range(r + 1)
            ))
            clauses.append(Not(close))
    root = clauses[0] if len(clauses) == 1 else And(tuple(clauses))
    return DistanceFormula(k, 1, root)


@dataclass(frozen=True)
class DistanceMatrix:
    """c x d matrix of capped candidate/witness distances."""

    cap: int
    rows: tuple  # rows[i][j] in {0..cap} or INF


def evaluate(f: DistanceFormula, m: DistanceMatrix) -> bool:
    if m.cap < f.radius():
        raise InputError(
            f"matrix cap {m.cap} below formula radius {f.radius()}")
    if len(m.rows) != f.c or any(len(row) != f.d for row in m.rows):
        raise InputError("matrix shape does not match formula arity")
    return holds(f.root, m.rows)


def holds(node, rows) -> bool:
    """Truth of ``node`` where ``rows[x][y]`` is the capped distance from
    candidate variable x to witness variable y; unchecked (see evaluate)."""
    if isinstance(node, Atom):
        return rows[node.x][node.y] <= node.q
    if isinstance(node, Not):
        return not holds(node.child, rows)
    if isinstance(node, And):
        return all(holds(ch, rows) for ch in node.children)
    return any(holds(ch, rows) for ch in node.children)


# --- JSON round trip -------------------------------------------------------
# Schema: {"c": int, "d": int, "node": NODE} where NODE is one of
#   {"atom": {"q": int, "x": int, "y": int}}
#   {"and": [NODE, ...]} / {"or": [NODE, ...]} / {"not": NODE}


def _node_to_json(node):
    if isinstance(node, Atom):
        return {"atom": {"q": node.q, "x": node.x, "y": node.y}}
    if isinstance(node, And):
        return {"and": [_node_to_json(ch) for ch in node.children]}
    if isinstance(node, Or):
        return {"or": [_node_to_json(ch) for ch in node.children]}
    return {"not": _node_to_json(node.child)}


def serialize_formula(f: DistanceFormula) -> str:
    return json.dumps({"c": f.c, "d": f.d, "node": _node_to_json(f.root)})


def _require_int(value, pointer, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError("expected an integer", pointer=pointer)
    if minimum is not None and value < minimum:
        raise ParseError(f"value must be >= {minimum}", pointer=pointer)
    return value


def _node_from_json(obj, pointer, depth=1):
    if depth > MAX_FORMULA_DEPTH:
        raise ParseError(f"formula nested deeper than {MAX_FORMULA_DEPTH} "
                         "levels", pointer=pointer)
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ParseError("node must be a single-key object", pointer=pointer)
    (kind, payload), = obj.items()
    if kind == "atom":
        if not isinstance(payload, dict) or set(payload) != {"q", "x", "y"}:
            raise ParseError("atom needs exactly the keys q, x, y",
                             pointer=f"{pointer}/atom")
        return Atom(
            _require_int(payload["q"], f"{pointer}/atom/q", 0),
            _require_int(payload["x"], f"{pointer}/atom/x", 0),
            _require_int(payload["y"], f"{pointer}/atom/y", 0),
        )
    if kind in ("and", "or"):
        if not isinstance(payload, list) or not payload:
            raise ParseError(f"'{kind}' needs a nonempty list",
                             pointer=f"{pointer}/{kind}")
        children = tuple(
            _node_from_json(ch, f"{pointer}/{kind}/{i}", depth + 1)
            for i, ch in enumerate(payload)
        )
        return And(children) if kind == "and" else Or(children)
    if kind == "not":
        return Not(_node_from_json(payload, f"{pointer}/not", depth + 1))
    raise ParseError(f"unknown node kind '{kind}'", pointer=pointer)


def parse_formula(text: str) -> DistanceFormula:
    obj = read_json(text)
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object", pointer="")
    for key in ("c", "d", "node"):
        if key not in obj:
            raise ParseError(f"missing key '{key}'", pointer="")
    c = _require_int(obj["c"], "/c", 1)
    d = _require_int(obj["d"], "/d", 1)
    root = _node_from_json(obj["node"], "/node")
    try:
        return DistanceFormula(c, d, root)
    except InputError as exc:
        raise ParseError(str(exc), pointer="/node") from exc
