"""Brute-force reference implementations used only by the test suite.

Each oracle takes the dumbest correct route: full path enumeration, full
row scans, all-pairs segment tests, every vertex against every segment,
exhaustive next-pointer assignment.
They share no code with the library so a bug cannot hide on both sides.
"""

from __future__ import annotations

import random

from pathdraw import DiGraph


def longest_ending_at_bruteforce(g: DiGraph) -> dict[int, int]:
    """Longest path ending at each vertex by enumerating every path."""
    best = {v: 0 for v in range(g.vertex_count)}

    def extend(path: list[int]) -> None:
        tail = path[-1]
        best[tail] = max(best[tail], len(path) - 1)
        for w in g.successors(tail):
            extend(path + [w])

    for start in range(g.vertex_count):
        extend([start])
    return best


def max_overlap_depth(spans: list[tuple[int, int]]) -> int:
    """Maximum number of closed intervals covering any single row."""
    if not spans:
        return 0
    lo = min(s for s, _ in spans)
    hi = max(f for _, f in spans)
    return max(
        sum(1 for s, f in spans if s <= row <= f) for row in range(lo, hi + 1)
    )


def _orient(ox, oy, ax, ay, bx, by) -> int:
    val = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
    return (val > 0) - (val < 0)


def _proper(p1, q1, p2, q2) -> bool:
    d1 = _orient(*p2, *q2, *p1)
    d2 = _orient(*p2, *q2, *q1)
    d3 = _orient(*p1, *q1, *p2)
    d4 = _orient(*p1, *q1, *q2)
    return d1 * d2 < 0 and d3 * d4 < 0


def crossing_pairs_bruteforce(routes: dict) -> set:
    """All-pairs segment scan; returns the set of crossing edge pairs."""
    segs = []
    for e, route in sorted(routes.items()):
        for i in range(len(route) - 1):
            if route[i] != route[i + 1]:
                segs.append((e, route[i], route[i + 1]))
    crossed = set()
    for i in range(len(segs)):
        e1, p1, q1 = segs[i]
        for j in range(i + 1, len(segs)):
            e2, p2, q2 = segs[j]
            if e1 == e2:
                continue
            pair = (e1, e2) if e1 < e2 else (e2, e1)
            if pair in crossed:
                continue
            if _proper(p1, q1, p2, q2):
                crossed.add(pair)
    return crossed


def vertex_touches_bruteforce(positions: dict, routes: dict) -> int:
    """Every vertex tested against every segment of every other edge's route.

    Counts (edge, vertex) pairs where the vertex's grid point lies on the
    closed segment, the vertex being neither endpoint of the edge.
    """
    touches = 0
    for (u, w), route in routes.items():
        for v, (px, py) in positions.items():
            if v == u or v == w:
                continue
            for (ax, ay), (bx, by) in zip(route, route[1:]):
                if (ax, ay) == (bx, by):
                    continue
                if (
                    _orient(ax, ay, bx, by, px, py) == 0
                    and min(ax, bx) <= px <= max(ax, bx)
                    and min(ay, by) <= py <= max(ay, by)
                ):
                    touches += 1
                    break
    return touches


def segment_count(routes: dict) -> int:
    return sum(
        1
        for route in routes.values()
        for i in range(len(route) - 1)
        if route[i] != route[i + 1]
    )


def min_cover_bruteforce(g: DiGraph) -> int:
    """Exhaustive enumeration of all vertex-disjoint path covers.

    A cover is exactly an assignment of at most one successor per vertex
    with every vertex claimed by at most one predecessor; the cover size is
    n minus the number of assigned links. Feasible only for small graphs.
    """
    n = g.vertex_count
    best = [n]
    taken = [False] * n

    def assign(v: int, links: int) -> None:
        if v == n:
            best[0] = min(best[0], n - links)
            return
        assign(v + 1, links)  # v ends its path
        for w in g.successors(v):
            if not taken[w]:
                taken[w] = True
                assign(v + 1, links + 1)
                taken[w] = False

    assign(0, 0)
    return best[0]


def max_matching_bruteforce(edges: list[tuple[int, int]]) -> int:
    """Maximum matching of a bipartite edge list by subset enumeration."""
    best = 0
    m = len(edges)
    for mask in range(1 << m):
        chosen = [edges[i] for i in range(m) if mask >> i & 1]
        lefts = [u for u, _ in chosen]
        rights = [v for _, v in chosen]
        if len(set(lefts)) == len(lefts) and len(set(rights)) == len(rights):
            best = max(best, len(chosen))
    return best


def random_digraph(n: int, m: int, rng: random.Random) -> DiGraph:
    """Random simple digraph, cycles allowed; for cycle-removal tests."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = rng.sample(pairs, min(m, len(pairs)))
    return DiGraph.build(n, sorted(chosen))


def ladder_dag(k: int) -> DiGraph:
    """A DAG whose last free vertex needs an augmenting path of length ~k.

    Right vertices b_1..b_{k+1} have ids 0..k, left vertices a_1..a_k ids
    k+1..2k and a_0 id 2k+1. Edges: a_0->b_1, a_i->b_i and a_i->b_{i+1}.
    Matching in id order pairs every a_i with b_i first, so a_0 can only be
    matched by shifting all of them along. The minimum cover has k+1 paths.
    """
    edges = [(2 * k + 1, 0)]
    for i in range(1, k + 1):
        edges += [(k + i, i - 1), (k + i, i)]
    return DiGraph.build(2 * k + 2, sorted(edges))
