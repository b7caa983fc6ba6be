"""Distance-r profiles on a pivot set and deduplicated profile tables."""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

from .errors import InputError
from .graph import Graph, INF, ball_distances, bfs_capped


@dataclass(frozen=True)
class DistanceProfile:
    """Capped distance vector of a vertex over a sorted pivot set."""

    radius: int
    values: tuple  # entries in {0..radius} or INF, aligned with sorted pivot


@dataclass(frozen=True)
class ProfileEntry:
    profile: DistanceProfile
    representative: int
    count: int


@dataclass(frozen=True)
class ProfileIndex:
    """Vertex id -> profile-table entry index, stored only for the vertices
    inside some pivot ball.  Every other vertex has the all-INF profile,
    entry ``far``."""

    n: int
    near: dict  # vertex -> entry index, for the union of the pivot balls
    far: int | None  # entry of the all-INF profile; None when it is empty

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, v: int):
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for n={self.n}")
        return self.near.get(v, self.far)


@dataclass(frozen=True)
class ProfileTable:
    """Deduplicated profiles of all vertices on a pivot set.

    Entry order is first-occurrence scanning vertices in increasing id, so
    representatives are the lowest-id realizers and results are deterministic.
    """

    pivot: tuple[int, ...]
    radius: int
    entries: tuple[ProfileEntry, ...]
    vertex_to_profile: ProfileIndex  # vertex -> entry index


def profile_of_vertex(g: Graph, pivot, r: int, v: int) -> DistanceProfile:
    """profile of v on the pivot set: capped distance to each pivot vertex."""
    pivot = sorted(set(pivot))
    if not (0 <= v < g.n):
        raise InputError(f"invalid vertex {v}")
    if not pivot:
        return DistanceProfile(r, ())
    dist = bfs_capped(g, v, r)
    return DistanceProfile(r, tuple(dist[s] for s in pivot))


def build_profile_table(g: Graph, pivot, r: int) -> ProfileTable:
    """The profile classes of a :class:`ProfileRefiner` that absorbs the
    whole pivot set at once, in increasing representative order.

    Only the vertices inside some pivot ball are profiled one by one; the
    rest of the graph shares the all-INF profile and enters as one "far"
    class, represented by its lowest id.  The cost is the pivot balls, not
    n.
    """
    pivot = tuple(sorted(set(pivot)))
    for s in pivot:
        if not (0 <= s < g.n):
            raise InputError(f"invalid pivot vertex {s}")
    parts = ProfileRefiner(g, r)
    for s in pivot:
        parts.add(s)
    order = parts.order()
    pos = {k: i for i, k in enumerate(order)}
    entries = tuple(
        ProfileEntry(DistanceProfile(r, parts.row(parts.rep[k], pivot)),
                     parts.rep[k],
                     len(parts.members[k]) if k else parts.far_count)
        for k in order)
    near = {v: pos[k] for v, k in parts.class_of.items()}
    return ProfileTable(pivot, r, entries,
                        ProfileIndex(g.n, near, pos.get(0)))


def first_of_each_class(n: int, near, key):
    """Lazily yield ``(v, key(v))`` for the lowest-id vertex ``v`` of each
    distinct key, in increasing ``v``: the classes of a profile table in
    table order, without building the table.

    ``near`` is a sorted list of distinct vertex ids outside which every
    vertex shares one key (the union of the pivot balls); of the vertices
    outside it only the lowest id is scanned.
    """
    far = next((i for i, v in enumerate(near) if i != v), len(near))
    seen = set()
    for v in chain(range(min(far + 1, n)), near[far:]):
        k = key(v)
        if k not in seen:
            seen.add(k)
            yield v, k


class ProfileRefiner:
    """The profile classes of all vertices on a pivot set that grows one
    vertex at a time, by partition refinement.

    Keeps one capped ball per pivot vertex and the class id of each vertex
    inside some ball.  Every other vertex has the all-INF profile and sits
    in the implicit far class 0, represented by the lowest id outside every
    ball.  A new pivot vertex costs one capped BFS and splits only the
    classes its ball meets.  A split class keeps its id for one part and
    the other parts get the next ids, so a caller can carry per-class data
    from parent to child.
    """

    def __init__(self, g: Graph, r: int):
        self.g, self.r = g, r
        self.balls = {}  # pivot vertex -> {vertex within r: distance}
        self.class_of = {}  # vertex inside some ball -> class id
        self.members = [None]  # class id -> set of members; None: far class
        self.rep = [0]  # class id -> lowest member
        self.far_count = g.n

    def add(self, s: int):
        """Refine by the capped distance to ``s``; return a (parent, child)
        pair of class ids per class created, in increasing child id."""
        if s in self.balls:
            return []
        ball = self.balls[s] = ball_distances(self.g, (s,), self.r)
        parts = {}  # (class id, distance to s) -> vertices
        for v, d in ball.items():
            parts.setdefault((self.class_of.get(v, 0), d), []).append(v)
        splits = []
        for (k, _), vs in parts.items():
            members = self.members[k]
            if k == 0:
                self.far_count -= len(vs)
            elif len(vs) == len(members):  # what is left of k keeps its id
                continue
            else:
                members.difference_update(vs)
                if self.rep[k] not in members:
                    self.rep[k] = min(members)
            child = len(self.rep)
            self.members.append(set(vs))
            self.rep.append(min(vs))
            for v in vs:
                self.class_of[v] = child
            splits.append((k, child))
        if self.far_count:  # the far representative only moves up
            while self.rep[0] in self.class_of:
                self.rep[0] += 1
        return splits

    def row(self, v: int, pivots):
        """The capped distance from ``v`` to each of ``pivots`` (absorbed
        vertices), INF beyond the radius."""
        return tuple([self.balls[s].get(v, INF) for s in pivots])

    def order(self):
        """The nonempty class ids in increasing representative order."""
        ids = sorted(range(len(self.rep)), key=self.rep.__getitem__)
        return ids if self.far_count else [k for k in ids if k]


@dataclass(frozen=True)
class ComplexityMeasurement:
    count: int
    exact: bool  # exact maximum vs sampled lower bound


def _realized_count(g: Graph, pivot, r: int) -> int:
    return len(build_profile_table(g, pivot, r).entries)


def measure_profile_complexity(
    g: Graph, r: int, m: int, trials: int = 1000, seed: int = 0,
    enumeration_budget: int = 100_000,
) -> ComplexityMeasurement:
    """Max number of realized distance-r profiles over pivot sets of size <= m.

    Exhaustive when C(n, m) fits the budget, otherwise a sampled lower
    bound over ``trials`` random pivot sets.  Adding pivot vertices never
    merges profiles, so only size-m pivot sets need to be inspected.
    """
    if m > g.n:
        raise InputError(f"pivot size {m} exceeds vertex count {g.n}")
    if m < 0:
        raise InputError("pivot size must be >= 0")
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if m == 0 or g.n == 0:
        return ComplexityMeasurement(1 if g.n else 0, True)
    if comb(g.n, m) <= enumeration_budget:
        best = max(_realized_count(g, pivot, r)
                   for pivot in combinations(range(g.n), m))
        return ComplexityMeasurement(best, True)
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        pivot = sorted(rng.sample(range(g.n), m))
        best = max(best, _realized_count(g, pivot, r))
    return ComplexityMeasurement(best, False)
