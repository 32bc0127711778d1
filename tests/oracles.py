"""Brute-force reference implementations used only by the test suite.

Each oracle takes the dumbest correct route: full path enumeration, full
row scans, all-pairs segment tests, every vertex against every segment,
exhaustive next-pointer assignment, every member pair of every lane pair.
They share no code with the library so a bug cannot hide on both sides.
"""

from __future__ import annotations

import random
from itertools import permutations

from pathdraw import DiGraph, PathDecomposition


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


def lane_pair_crossings_bruteforce(nearer, farther) -> int:
    """Member pairs where the farther bundle's connectors pierce the nearer's legs."""
    count = 0
    for lo_a, hi_a in nearer.member_spans:
        for lo_b, hi_b in farther.member_spans:
            if lo_a < lo_b < hi_a or lo_a < hi_b < hi_a:
                count += 1
    return count


def reorder_lanes_bruteforce(lanes) -> tuple[list[list[int]], tuple[int, ...]]:
    """All-pairs lane-pair cost matrix and the lane order chosen from it.

    ``cost[i][j]`` sums the bundle-pair crossings when lane i sits nearer
    than lane j. Stacks of up to 6 lanes try every permutation; larger ones
    hill-climb by adjacent swaps, re-scoring the whole order each time.
    Ties keep the incumbent.
    """
    count = len(lanes)
    cost = [
        [
            sum(lane_pair_crossings_bruteforce(a, b) for a in lanes[i] for b in lanes[j])
            if i != j
            else 0
            for j in range(count)
        ]
        for i in range(count)
    ]

    def cost_of(order) -> int:
        return sum(
            cost[order[i]][order[j]] for i in range(count) for j in range(i + 1, count)
        )

    best = tuple(range(count))
    if count <= 1:
        return cost, best
    if count <= 6:
        best_cost = cost_of(best)
        for perm in permutations(range(count)):
            c = cost_of(perm)
            if c < best_cost:
                best, best_cost = perm, c
        return cost, best
    order = list(best)
    current = cost_of(order)
    improved = True
    while improved:
        improved = False
        for i in range(count - 1):
            order[i], order[i + 1] = order[i + 1], order[i]
            swapped = cost_of(order)
            if swapped < current:
                current = swapped
                improved = True
            else:
                order[i], order[i + 1] = order[i + 1], order[i]
    return cost, tuple(order)


def chains_dag(k: int, length: int, seed: int) -> tuple[DiGraph, PathDecomposition]:
    """k chains of ``length`` vertices, transitive-heavy, with the chains as paths.

    Each vertex has a skip edge to each of the next 2..6 vertices of its
    chain with probability 0.4 and one cross edge to a vertex 1..4
    positions further down another chain. Vertex ids are shuffled.
    """
    rng = random.Random(seed)
    ids = list(range(k * length))
    rng.shuffle(ids)
    chains = [ids[c * length : (c + 1) * length] for c in range(k)]
    edges = set()
    for c, chain in enumerate(chains):
        for j, v in enumerate(chain):
            if j + 1 < length:
                edges.add((v, chain[j + 1]))
            for s in range(2, 7):
                if j + s < length and rng.random() < 0.4:
                    edges.add((v, chain[j + s]))
            target = j + rng.randint(1, 4)
            if k > 1 and target < length:
                other = rng.randrange(k - 1)
                other += other >= c
                edges.add((v, chains[other][target]))
    g = DiGraph.build(k * length, sorted(edges))
    return g, PathDecomposition(tuple(tuple(chain) for chain in chains))
