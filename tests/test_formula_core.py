"""The formula tree is walked and evaluated only in ``formulas``: the derived
radius/size/positivity match a recursive reference, equality and hashing see
only (c, d, root), and the candidate oracle's per-variable covering search
answers exactly as the generic product search does."""
import dataclasses
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progexplore import (And, Atom, DistanceFormula, Graph, ImplicitBipartite,
                         InputError, Not, Or, candidate_oracle, parse_formula,
                         serialize_formula)
from progexplore.oracles import _single_variable_children


# --- derived values against a recursive reference ------------------------------

def ref_atoms(node):
    if isinstance(node, Atom):
        return [node]
    if isinstance(node, Not):
        return ref_atoms(node.child)
    return [a for ch in node.children for a in ref_atoms(ch)]


def ref_has_not(node):
    if isinstance(node, Atom):
        return False
    if isinstance(node, Not):
        return True
    return any(ref_has_not(ch) for ch in node.children)


@st.composite
def formulas(draw):
    c, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    atoms = st.builds(Atom, st.integers(0, 5), st.integers(0, c - 1),
                      st.integers(0, d - 1))
    tree = st.recursive(atoms, lambda sub: st.one_of(
        st.builds(Not, sub),
        st.lists(sub, min_size=1, max_size=3).map(lambda ch: And(tuple(ch))),
        st.lists(sub, min_size=1, max_size=3).map(lambda ch: Or(tuple(ch))),
    ), max_leaves=12)
    return DistanceFormula(c, d, draw(tree))


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_derived_values_match_recursive_reference(f):
    atoms = ref_atoms(f.root)
    assert f.radius() == max(a.q for a in atoms)
    assert f.size() == len(atoms)
    assert f.is_positive() == (not ref_has_not(f.root))


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_equality_hash_and_repr_see_only_the_fields(f):
    again = parse_formula(serialize_formula(f))
    assert again == f and hash(again) == hash(f)
    twin = DistanceFormula(f.c, f.d, f.root)
    assert twin == f and hash(twin) == hash(f)
    assert repr(f) == f"DistanceFormula(c={f.c}, d={f.d}, root={f.root!r})"
    assert [fl.name for fl in dataclasses.fields(f)] == ["c", "d", "root"]


def test_formula_without_atoms_is_rejected():
    with pytest.raises(InputError, match="at least one atom"):
        DistanceFormula(1, 1, And(()))


# --- covering search against the product search -----------------------------

def random_child(rng, x, d, depth):
    """A subformula mentioning only candidate variable x."""
    roll = rng.random()
    if depth == 0 or roll < 0.5:
        return Atom(rng.randint(0, 3), x, rng.randrange(d))
    if roll < 0.75:
        return Not(random_child(rng, x, d, depth - 1))
    return And(tuple(random_child(rng, x, d, depth - 1)
                     for _ in range(rng.randint(1, 3))))


def random_case(rng):
    n = rng.randint(1, 6)
    g = Graph.from_edges(
        n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])
    c, d = rng.randint(1, 3), rng.randint(1, 2)
    # every candidate variable gets a child, so the covering search applies
    xs = list(range(c)) + [rng.randrange(c) for _ in range(rng.randint(0, 3))]
    rng.shuffle(xs)
    children = tuple(random_child(rng, x, d, 2) for x in xs)
    B = [tuple(rng.randrange(n) for _ in range(d))
         for _ in range(rng.randint(0, 3))]
    return g, DistanceFormula(c, d, Or(children)), B


@pytest.mark.parametrize("seed", range(20))
def test_covering_search_matches_product_search(seed):
    rng = random.Random(seed)
    for _ in range(20):
        g, f, B = random_case(rng)
        wrapped = DistanceFormula(f.c, f.d, And((f.root,)))
        by_var = _single_variable_children(f)
        assert by_var is not None and all(by_var)
        assert _single_variable_children(wrapped) is None
        assert (candidate_oracle(ImplicitBipartite(g, f), B)
                == candidate_oracle(ImplicitBipartite(g, wrapped), B))
