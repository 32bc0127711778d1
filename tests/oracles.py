"""Brute-force reference implementations used only by the test suite.

Each oracle takes the dumbest correct route: full path enumeration, full
row scans, all-pairs segment tests, every vertex against every segment,
exhaustive next-pointer assignment, every member pair of every lane pair.
They share no code with the library so a bug cannot hide on both sides.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from itertools import permutations
from operator import attrgetter
from typing import NamedTuple

from pathdraw import DiGraph, PathDecomposition
from pathdraw.bundling import BundleInterval, LanePacking


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


def bends_for_distance(dy: int) -> int:
    """The paper's bend count for a cross edge of vertical distance dy >= 1."""
    if dy == 1:
        return 0
    if dy == 2:
        return 1
    return 2


class CrossRoute(NamedTuple):
    edge: tuple[int, int]
    bends: int
    polyline: tuple
    lane: int | None


def cross_routes_of(drawing) -> list[CrossRoute]:
    """The cross edges' routes in route order, read off ``drawing.layout``.

    Every point between the endpoints is a bend, and the lane is the column
    of the first bend (``None`` for a straight 2-point route).
    """
    lay = drawing.layout
    return [
        CrossRoute(e, len(poly) - 2, poly, poly[1][0] if len(poly) > 2 else None)
        for e, poly in lay.routes.items()
        if lay.category[e] == "cross"
    ]


def bundle_ids(drawing) -> dict[tuple[int, int], int]:
    """Edge -> id of the bundle record that lists it as a member."""
    return {e: b.id for b in drawing.bundles for e in b.members}


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


def many_lane_dag(n: int) -> tuple[DiGraph, PathDecomposition]:
    """One path 0..n-1 with skip edges i -> i + n//2: n/2 lanes in one stack.

    Every skip edge is transitive and bundled alone, and all n - n//2 of
    their intervals contain row n//2, so the path's stack needs that many
    lanes.
    """
    half = n // 2
    edges = [(i, i + 1) for i in range(n - 1)]
    if half >= 2:
        edges += [(i, i + half) for i in range(n - half)]
    return DiGraph.build(n, sorted(edges)), PathDecomposition((tuple(range(n)),))


# Earlier forms of rewritten hot loops. The library's versions avoid
# per-edge temporaries, lane scans and repeated heap entries; these keep
# the plain form, one step per edge, and must give equal results.


def adjacency_reference(vertex_count: int, edges) -> tuple[tuple, tuple]:
    """Successor and predecessor tuples, each vertex's list sorted on its own."""
    succ: list[list[int]] = [[] for _ in range(vertex_count)]
    pred: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in edges:
        succ[u].append(v)
        pred[v].append(u)
    return tuple(tuple(sorted(s)) for s in succ), tuple(tuple(sorted(p)) for p in pred)


def remove_cycles_reference(g: DiGraph) -> tuple[tuple, tuple, tuple, frozenset]:
    """Back edges of a DFS with (vertex, index) frames, then flip and dedupe.

    Returns the DAG's edges, its successor and predecessor tuples and the
    reversed set. A flipped edge that meets an edge already kept, its
    reverse from a 2-cycle, is dropped, so each DAG edge keeps the position
    of its first occurrence in the input order.
    """
    n = g.vertex_count
    succ, _ = adjacency_reference(n, g.edges)
    state = [0] * n  # 0 white, 1 gray, 2 black
    back: set[tuple[int, int]] = set()
    for root in range(n):
        if state[root]:
            continue
        stack = [(root, 0)]
        state[root] = 1
        while stack:
            v, i = stack[-1]
            if i < len(succ[v]):
                stack[-1] = (v, i + 1)
                w = succ[v][i]
                if state[w] == 1:
                    back.add((v, w))
                elif state[w] == 0:
                    state[w] = 1
                    stack.append((w, 0))
            else:
                state[v] = 2
                stack.pop()
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for u, v in g.edges:
        e = (v, u) if (u, v) in back else (u, v)
        if e not in seen:
            seen.add(e)
            edges.append(e)
    return (tuple(edges), *adjacency_reference(n, edges), frozenset(back))


def gap_occupants_reference(rows, path_of, cross_edges, bundle_incoming: bool) -> dict:
    """Per-gap occupants as (start_row, finish_row, target, members).

    A shared trunk is an occupant with two or more members; a lone edge's
    occupant has one.
    """
    by_target: dict[int, list[tuple[int, int]]] = {}
    singles: list[tuple[int, int]] = []
    for u, v in sorted(cross_edges):
        if abs(rows[v] - rows[u]) < 2:
            continue
        if bundle_incoming:
            by_target.setdefault(v, []).append((u, v))
        else:
            singles.append((u, v))
    occupants: dict[int, list[tuple]] = {}
    for v in sorted(by_target):
        edges = by_target[v]
        if len(edges) >= 2:
            spans = [rows[u] for u, _ in edges] + [rows[v]]
            occupants.setdefault(path_of[v], []).append(
                (min(spans), max(spans), v, tuple(edges))
            )
        else:
            singles.extend(edges)
    for u, v in sorted(singles):
        lo, hi = sorted((rows[u], rows[v]))
        span = (lo, lo) if hi - lo == 2 else (lo, hi)
        occupants.setdefault(path_of[v], []).append((span[0], span[1], v, ((u, v),)))
    return occupants


_SVG_STYLE = """\
    polyline { fill: none; stroke-width: 2; }
    .path-edge { stroke: #d62728; }
    .transitive-edge { stroke: #1f77b4; }
    .cross-edge { stroke: #7f7f7f; }
    circle { fill: #222222; }"""

_SVG_CLASS = {"path": "path-edge", "transitive": "transitive-edge", "cross": "cross-edge"}


def render_svg_reference(layout, pitch: int = 24) -> str:
    """SVG text with every coordinate formatted where it is written."""

    def px(grid: int) -> int:
        return (grid + 1) * pitch

    points = [p for r in layout.routes.values() for p in r]
    max_x = max([x for x in layout.x.values()] + [p[0] for p in points], default=0)
    max_y = max([y for y in layout.y.values()] + [p[1] for p in points], default=0)
    width, height = px(max_x + 1), px(max_y + 1)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "  <style>",
        _SVG_STYLE,
        "  </style>",
        '  <g class="edges">',
    ]
    for (u, v), route in sorted(layout.routes.items()):
        if len(route) < 2:
            continue
        points = " ".join(f"{px(x)},{px(y)}" for x, y in route)
        cls = _SVG_CLASS[layout.category[(u, v)]]
        lines.append(
            f'    <polyline class="{cls}" points="{points}"><title>{u}-{v}</title></polyline>'
        )
    lines.append("  </g>")
    lines.append('  <g class="vertices">')
    for v in sorted(layout.x):
        cx, cy = px(layout.x[v]), px(layout.y[v])
        lines.append(f'    <circle cx="{cx}" cy="{cy}" r="6"><title>{v}</title></circle>')
    lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def uniform_dag_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """m distinct edges u < v of a seeded uniform random DAG, sorted."""
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < min(m, n * (n - 1) // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def cyclic_digraph_edges(
    n: int, m: int, seed: int, twin_frac: float = 0.2
) -> list[tuple[int, int]]:
    """A seeded random digraph with cycles and 2-cycles, edges in shuffled order.

    About ``twin_frac`` of the edges also get their reverse, so cycle
    removal meets 2-cycles, where a flipped edge merges with its twin.
    """
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        edges.add((u, v))
        if rng.random() < twin_frac:
            edges.add((v, u))
    out = sorted(edges)
    rng.shuffle(out)
    return out


def pack_intervals_first_fit(intervals) -> LanePacking:
    """Intervals by (start, finish), each on the first lane it fits, lanes scanned in order."""
    lanes: list[list] = []
    last_finish: list[int] = []
    for iv in sorted(intervals, key=attrgetter("start_row", "finish_row")):
        for li in range(len(lanes)):
            if iv.start_row > last_finish[li]:
                lanes[li].append(iv)
                last_finish[li] = iv.finish_row
                break
        else:
            lanes.append([iv])
            last_finish.append(iv.finish_row)
    return LanePacking(tuple(map(tuple, lanes)))


def transitive_bundles_reference(d: PathDecomposition, classification, rows):
    """Greedy bundle extraction that re-pushes both degrees of every touched vertex."""
    out = []
    path_of = {v: pi for pi, path in enumerate(d.paths) for v in path}
    for pi, path in enumerate(d.paths):
        remaining = [
            (u, v)
            for u, v in classification.transitive_edges
            if path_of.get(u) == pi and path_of.get(v) == pi
        ]
        if not remaining:
            continue
        indeg: dict[int, set] = {v: set() for v in path}
        outdeg: dict[int, set] = {v: set() for v in path}
        for u, v in remaining:
            outdeg[u].add((u, v))
            indeg[v].add((u, v))
        heap = [(-len(indeg[v]), v, 0) for v in path if indeg[v]]
        heap += [(-len(outdeg[v]), v, 1) for v in path if outdeg[v]]
        heapify(heap)
        while heap:
            neg, v, which = heappop(heap)
            edges = indeg[v] if which == 0 else outdeg[v]
            if not edges or -neg != len(edges):
                continue
            members = tuple(sorted(edges))
            member_rows = [rows[u] for e in members for u in e]
            out.append(
                BundleInterval(
                    path_index=pi,
                    anchor=v,
                    members=members,
                    start_row=min(member_rows),
                    finish_row=max(member_rows),
                    member_spans=tuple(
                        (min(rows[a], rows[b]), max(rows[a], rows[b])) for a, b in members
                    ),
                )
            )
            for u, w in members:
                outdeg[u].discard((u, w))
                indeg[w].discard((u, w))
            for u in {u for e in members for u in e}:
                if indeg[u]:
                    heappush(heap, (-len(indeg[u]), u, 0))
                if outdeg[u]:
                    heappush(heap, (-len(outdeg[u]), u, 1))
    return out
