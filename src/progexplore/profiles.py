"""Distance-r profiles on a pivot set and deduplicated profile tables."""
from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import InputError
from .graph import Graph, INF, bfs_capped, bfs_reach


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
    inside some pivot ball.  Every other vertex of the table's domain has
    the all-INF profile, entry ``far``; a vertex outside ``allowed`` has no
    entry (None)."""

    n: int
    near: dict  # vertex -> entry index, for the union of the pivot balls
    far: int | None  # entry of the all-INF profile; None when it is empty
    allowed: frozenset | None

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, v: int):
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for n={self.n}")
        idx = self.near.get(v)
        if idx is None and (self.allowed is None or v in self.allowed):
            return self.far
        return idx


@dataclass(frozen=True)
class ProfileTable:
    """Deduplicated profiles of all vertices on a pivot set.

    Entry order is first-occurrence scanning vertices in increasing id, so
    representatives are the lowest-id realizers and results are deterministic.
    """

    pivot: tuple[int, ...]
    radius: int
    entries: tuple[ProfileEntry, ...]
    vertex_to_profile: ProfileIndex  # vertex -> entry index (None if excluded)


def profile_of_vertex(g: Graph, pivot, r: int, v: int) -> DistanceProfile:
    """profile of v on the pivot set: capped distance to each pivot vertex."""
    pivot = sorted(set(pivot))
    if not (0 <= v < g.n):
        raise InputError(f"invalid vertex {v}")
    if not pivot:
        return DistanceProfile(r, ())
    dist = bfs_capped(g, v, r)
    return DistanceProfile(r, tuple(dist[s] for s in pivot))


def profile_of_set(g: Graph, pivot, r: int, members) -> DistanceProfile:
    """Pointwise minimum of member profiles (INF is the top element)."""
    members = sorted(set(members))
    if not members:
        raise InputError("profile of the empty set is ambiguous; refusing")
    profiles = [profile_of_vertex(g, pivot, r, u) for u in members]
    values = tuple(min(p.values[i] for p in profiles)
                   for i in range(len(profiles[0].values)))
    return DistanceProfile(r, values)


def build_profile_table(g: Graph, pivot, r: int, allowed=None) -> ProfileTable:
    """One capped BFS per pivot vertex, then deduplication by profile value.

    ``allowed`` restricts both the BFS arena and the set of profiled
    vertices (used by the pre-core recursion); default is the whole graph.

    Only the vertices inside some pivot ball are profiled one by one; the
    rest of the domain shares the all-INF profile and enters as one "far"
    class, represented by its lowest id.  The cost is the pivot balls (plus
    allocating one distance list per pivot), not the domain size.
    """
    pivot = tuple(sorted(set(pivot)))
    for s in pivot:
        if not (0 <= s < g.n):
            raise InputError(f"invalid pivot vertex {s}")
    if allowed is not None:
        allowed = frozenset(allowed)
        if not all(0 <= v < g.n for v in allowed):
            raise InputError("allowed set has a vertex out of range")
    dists = []
    union = set()
    for s in pivot:
        dist, reached = bfs_reach(g, s, r, allowed=allowed)
        dists.append(dist)
        union.update(reached)
    vertices = sorted(union)
    far_count = (g.n if allowed is None else len(allowed)) - len(vertices)
    far_rep = None
    if far_count:
        if allowed is None:  # the first gap in 0, 1, 2, ...
            far_rep = next((i for i, v in enumerate(vertices) if i != v),
                           len(vertices))
        else:
            far_rep = min(allowed - union)
        insort(vertices, far_rep)
    seen = {}
    entries = []
    counts = []
    near = {}
    for v in vertices:
        key = tuple(d[v] for d in dists)  # all-INF exactly for far_rep
        idx = seen.get(key)
        if idx is None:
            idx = len(entries)
            seen[key] = idx
            entries.append(ProfileEntry(DistanceProfile(r, key), v, 0))
            counts.append(0)
        counts[idx] += far_count if v == far_rep else 1
        near[v] = idx
    far = None if far_rep is None else near.pop(far_rep)
    entries = tuple(
        ProfileEntry(e.profile, e.representative, c)
        for e, c in zip(entries, counts)
    )
    return ProfileTable(pivot, r, entries,
                        ProfileIndex(g.n, near, far, allowed))


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
