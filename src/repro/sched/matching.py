"""Maximum bipartite matching — the validation "coupling" (paper §10).

The initiator receives, from each ACS site, the list of logical processors
it can endorse, and must decide whether some assignment covers *all*
logical processors: "it computes a maximum coupling (classical problem in
graph theory solved in polynomial time)". We implement Hopcroft–Karp
(O(E·sqrt(V))) and keep an exhaustive-search reference for the property
tests.

Left vertices = logical processors (must all be matched), right vertices =
candidate sites. Determinism: adjacency is iterated in sorted order, so the
same endorsements always yield the same permutation.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Set

INF = float("inf")


def hopcroft_karp(
    adjacency: Mapping[Hashable, Sequence[Hashable]],
) -> Dict[Hashable, Hashable]:
    """Maximum matching of the bipartite graph ``left -> iterable(right)``.

    Returns ``{left: right}`` for matched left vertices. Unmatched left
    vertices are absent. Right vertices may appear in at most one pair.
    """
    # Normalise and sort for determinism.
    lefts = sorted(adjacency, key=repr)
    adj: Dict[Hashable, List[Hashable]] = {
        u: sorted(set(adjacency[u]), key=repr) for u in lefts
    }
    match_l: Dict[Hashable, Hashable] = {}
    match_r: Dict[Hashable, Hashable] = {}
    dist: Dict[Hashable, float] = {}

    def bfs() -> bool:
        q: deque = deque()
        for u in lefts:
            if u not in match_l:
                dist[u] = 0.0
                q.append(u)
            else:
                dist[u] = INF
        reachable_free = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = match_r.get(v)
                if w is None:
                    reachable_free = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return reachable_free

    while bfs():
        for u in lefts:
            if u not in match_l:
                _augment(u, adj, match_l, match_r, dist)
    return match_l


def _augment(
    u: Hashable,
    adj: Mapping[Hashable, Sequence[Hashable]],
    match_l: Dict[Hashable, Hashable],
    match_r: Dict[Hashable, Hashable],
    dist: Dict[Hashable, float],
) -> bool:
    """Hopcroft–Karp's layered augmenting search from the free left vertex
    ``u``: flips the first shortest augmenting path found, in adjacency
    order, and marks dead ends with ``INF``.

    Module-level on purpose: a nested recursive function holds a closure
    cell that points back at itself, and that cycle would keep every
    call's ``adj`` / ``match_*`` / ``dist`` alive until the next cyclic
    collection (the batch loop runs with the collector paused).
    """
    for v in adj[u]:
        w = match_r.get(v)
        if w is None or (dist.get(w) == dist[u] + 1 and _augment(w, adj, match_l, match_r, dist)):
            match_l[u] = v
            match_r[v] = u
            return True
    dist[u] = INF
    return False


def maximum_matching_bruteforce(
    adjacency: Mapping[Hashable, Sequence[Hashable]],
) -> int:
    """Size of the maximum matching by exhaustive augmenting search.

    Exponential in the worst case — test oracle only (|left| <= ~10).
    """
    lefts = sorted(adjacency, key=repr)

    def best(i: int, used: Set[Hashable]) -> int:
        if i == len(lefts):
            return 0
        u = lefts[i]
        # Option 1: leave u unmatched.
        result = best(i + 1, used)
        # Option 2: match u to any free neighbour.
        for v in adjacency[u]:
            if v not in used:
                used.add(v)
                result = max(result, 1 + best(i + 1, used))
                used.remove(v)
        return result

    return best(0, set())


def perfect_left_matching(
    adjacency: Mapping[Hashable, Sequence[Hashable]],
) -> Optional[Dict[Hashable, Hashable]]:
    """Matching covering *every* left vertex, or ``None``.

    This is exactly the §10 acceptance rule: "if a subset of size |U| of
    the maximum coupling is found, it gives a permutation of the sites".
    """
    m = hopcroft_karp(adjacency)
    return m if len(m) == len(adjacency) else None
