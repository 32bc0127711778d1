"""Brute-force reference implementations used only by the test suite.

Each oracle takes the dumbest correct route: full path enumeration, full
row scans, all-pairs segment tests, every vertex against every segment,
exhaustive next-pointer assignment, every member pair of every lane pair.
They share no code with the library so a bug cannot hide on both sides.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, bisect_right, insort
from collections import deque
from heapq import heapify, heappop, heappush
from itertools import permutations
from math import gcd
from operator import attrgetter
from typing import NamedTuple

from pathdraw import DiGraph, PathDecomposition, __version__
from pathdraw.bundling import BundleInterval, LanePacking
from pathdraw.layout import Layout


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


def longest_path_ending_at(g: DiGraph) -> dict[int, int]:
    """Longest path ending at each vertex, by dynamic programming.

    The fast reference for large graphs, where enumerating every path is
    too slow. Vertices are visited in an order of its own: any vertex whose
    predecessors all have a value is next. The maximum over all vertices is
    the longest-path length of the whole DAG, the optimal compacted height.
    """
    preds: list[list[int]] = [[] for _ in range(g.vertex_count)]
    succs: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        preds[v].append(u)
        succs[u].append(v)
    waiting = [len(p) for p in preds]
    ready = [v for v in range(g.vertex_count) if not waiting[v]]
    value: dict[int, int] = {}
    while ready:
        v = ready.pop()
        value[v] = max((value[u] + 1 for u in preds[v]), default=0)
        for w in succs[v]:
            waiting[w] -= 1
            if not waiting[w]:
                ready.append(w)
    return value


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


def arbitrary_layout(rng: random.Random) -> Layout:
    """Random integer polylines between random vertex positions.

    Routes step horizontally, vertically, in place, or to any point of a
    box around the origin, so negative coordinates, diagonals of every
    slope and length, T-junctions, collinear overlaps and repeated
    crossings between one pair of routes all occur. A few routes are empty
    or a single point. Vertices may share a grid point.
    """
    n = rng.randint(2, 10)
    r = rng.choice((3, 6, 12))
    pos = {v: (rng.randint(-r, r), rng.randint(-r, r)) for v in range(n)}
    routes = {}
    for _ in range(rng.randint(1, 12)):
        u, w = rng.sample(range(n), 2)
        pts = [pos[u]]
        for _ in range(rng.randint(0, 4)):
            x, y = pts[-1]
            step = rng.random()
            if step < 0.3:
                pts.append((rng.randint(-r, r), y))
            elif step < 0.6:
                pts.append((x, rng.randint(-r, r)))
            elif step < 0.7:
                pts.append((x, y))
            else:
                pts.append((rng.randint(-r, r), rng.randint(-r, r)))
        pts.append(pos[w])
        kind = rng.random()
        routes[(u, w)] = () if kind < 0.05 else tuple(pts[:1] if kind < 0.08 else pts)
    return Layout(
        x={v: p[0] for v, p in pos.items()},
        y={v: p[1] for v, p in pos.items()},
        routes=routes,
        category={e: "cross" for e in routes},
        column_meta={},
        paths=tuple((v,) for v in pos),
    )


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


def stack_crossings_bruteforce(lanes) -> int:
    """Trunk/connector crossings of a side stack in its given lane order."""
    return sum(
        lane_pair_crossings_bruteforce(a, b)
        for i, nearer in enumerate(lanes)
        for farther in lanes[i + 1 :]
        for a in nearer
        for b in farther
    )


def _order_cost(cost, order) -> int:
    """Crossings of a lane order: every lane against each lane farther out."""
    count = len(order)
    return sum(cost[order[i]][order[j]] for i in range(count) for j in range(i + 1, count))


def reorder_lanes_bruteforce(lanes) -> tuple[list[list[int]], tuple[int, ...]]:
    """All-pairs lane-pair cost matrix and the lane order chosen from it.

    ``cost[i][j]`` sums the bundle-pair crossings when lane i sits nearer
    than lane j. Stacks of up to 6 lanes try every permutation, re-scoring
    the whole order each time, and ties keep the incumbent. Larger ones
    insert the lanes in packing order into ``bisect.insort``, lane i ranking
    below lane j when ``cost[i][j] < cost[j][i]``, after one probe of the
    far end: a lane that does not rank below it goes last.
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
    best = tuple(range(count))
    if count <= 1:
        return cost, best
    if count <= 6:
        best_cost = _order_cost(cost, best)
        for perm in permutations(range(count)):
            c = _order_cost(cost, perm)
            if c < best_cost:
                best, best_cost = perm, c
        return cost, best

    class Lane(int):
        def __lt__(self, other):
            return cost[self][other] < cost[other][self]

    order = [Lane(0)]
    for i in map(Lane, range(1, count)):
        if i < order[-1]:
            insort(order, i, 0, len(order) - 1)
        else:
            order.append(i)
    return cost, tuple(map(int, order))


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


def nested_span_dag(n: int) -> tuple[DiGraph, PathDecomposition]:
    """One path 0..n-1 with skip edges i -> n-1-i for i < n/2 - 1: nested lanes.

    Every skip edge is transitive and bundled alone, and each span holds
    all the later ones, so the path's stack packs them widest first, one
    lane each. Every lane pair costs one crossing in that order and none
    reversed.
    """
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(i, n - 1 - i) for i in range(n // 2 - 1)]
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


def remove_cycles_reference(g: DiGraph) -> tuple[tuple, tuple, frozenset]:
    """Back edges of a DFS with (vertex, index) frames, then flip and dedupe.

    Returns the DAG's edges, its successor tuples and the reversed set. A
    flipped edge that meets an edge already kept, its reverse from a
    2-cycle, is dropped, so each DAG edge keeps the position of its first
    occurrence in the input order.
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
    return tuple(edges), adjacency_reference(n, edges)[0], frozenset(back)


def hopcroft_karp_reference(n: int, adj: list[tuple[int, ...]]) -> list[int]:
    """Maximum matching on the split bipartite graph; returns match_left.

    The form with an index per stacked vertex and slices of the adjacency
    tuples that the successor-iterator search in decomposition.py replaced.

    Left copy u is the out-side of vertex u, right copy v the in-side;
    one bipartite edge per graph edge. Augmenting paths are explored in
    ascending id order so the matching is deterministic.
    """
    INF = n + 1
    match_left = [-1] * n
    match_right = [-1] * n
    dist = [INF] * n

    def bfs() -> bool:
        queue = deque()
        for u in range(n):
            if match_left[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_right[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    nxt = [0] * n  # for each vertex on the stack, the adj index being tried

    def augment(root: int) -> bool:
        # layered depth-first search on an explicit stack, so a long
        # augmenting path cannot exhaust the interpreter's recursion limit
        stack = [root]
        nxt[root] = 0
        u = root
        while True:
            layer = dist[u] + 1
            i = nxt[u]
            for v in adj[u][i:] if i else adj[u]:
                w = match_right[v]
                if w == -1:
                    nxt[u] = i
                    for x in stack:  # each vertex on the path takes its tried edge
                        v = adj[x][nxt[x]]
                        match_left[x] = v
                        match_right[v] = x
                    return True
                if dist[w] == layer:
                    nxt[u] = i
                    nxt[w] = 0
                    stack.append(w)
                    u = w
                    break
                i += 1
            else:
                dist[u] = INF
                stack.pop()
                if not stack:
                    return False
                u = stack[-1]
                nxt[u] += 1

    while bfs():
        for u in range(n):
            if match_left[u] == -1 and adj[u]:  # no out-edge: nothing to match
                augment(u)
    return match_left


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


def render_svg_reference(layout) -> str:
    """SVG text with every coordinate formatted where it is written."""

    def px(grid: int) -> int:
        return (grid + 1) * 24

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


def render_json_reference(
    layout,
    metrics,
    bundles=(),
    seed: int | None = None,
    toggles: dict[str, bool] | None = None,
) -> str:
    """The layout document built as a dict and pretty-printed by ``json.dumps``."""
    id_of = {e: b.id for b in bundles for e in b.members}
    order: dict[int, tuple[int, int]] = {}
    for pi, path in enumerate(layout.paths):
        for j, v in enumerate(path):
            order[v] = (pi, j)
    vertices = [
        {
            "id": v,
            "x": layout.x[v],
            "y": layout.y[v],
            "path": order[v][0],
            "order_in_path": order[v][1],
        }
        for v in sorted(layout.x)
    ]
    edges = []
    for (u, v), route in sorted(layout.routes.items()):
        entry: dict = {
            "u": u,
            "v": v,
            "category": layout.category[(u, v)],
            "route": [[px, py] for px, py in route],
        }
        if (u, v) in id_of:
            entry["bundle_id"] = id_of[(u, v)]
        edges.append(entry)
    bundle_objs = [
        {
            "id": b.id,
            "kind": b.kind,
            "anchor_or_target": b.anchor_or_target,
            "lane": b.lane,
            "span": list(b.span),
        }
        for b in bundles
    ]
    doc = {
        "vertices": vertices,
        "edges": edges,
        "bundles": bundle_objs,
        "metrics": {
            "crossings": metrics.crossings,
            "bends": metrics.bends,
            "width": metrics.width,
            "height": metrics.height,
            "area": metrics.area,
        },
        "meta": {
            "seed": seed,
            "toggles": toggles or {},
            "version": __version__,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# generate_random_dag before it drew pair indices: it listed every forward
# pair while there were at most this many, or while m was at least a third
# of them, and drew the rest by rejection
GENERATOR_ENUMERATE_LIMIT = 200_000


def generate_random_dag_reference(n: int, avg_degree: float, seed: int) -> DiGraph:
    """The two-path generator: ``rng.sample`` on the listed pairs, else rejection."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    max_edges = n * (n - 1) // 2
    m = round(min(n * avg_degree, max_edges))
    if max_edges <= GENERATOR_ENUMERATE_LIMIT or 3 * m >= max_edges:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = rng.sample(pairs, m)
    else:
        chosen = set()
        while len(chosen) < m:
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i == j:
                continue
            if i > j:
                i, j = j, i
            chosen.add((i, j))
    return DiGraph.build(n, ((perm[i], perm[j]) for i, j in chosen))


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


def reorder_lanes_climb_reference(lanes) -> tuple[int, ...]:
    """The lane order before large stacks were ordered by binary insertion.

    Stacks of up to 6 lanes take the exhaustive order of
    ``reorder_lanes_bruteforce``. Larger ones hill-climb from the packing
    order by adjacent swaps, re-scoring the whole order each time, until a
    pass takes none; ties keep the incumbent.
    """
    cost, order = reorder_lanes_bruteforce(lanes)
    if len(lanes) <= 6:
        return order
    order = list(range(len(lanes)))
    current = _order_cost(cost, order)
    improved = True
    while improved:
        improved = False
        for i in range(len(order) - 1):
            order[i], order[i + 1] = order[i + 1], order[i]
            swapped = _order_cost(cost, order)
            if swapped < current:
                current = swapped
                improved = True
            else:
                order[i], order[i + 1] = order[i + 1], order[i]
    return tuple(order)


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


def _segments(route) -> list:
    return [(a, b) for a, b in zip(route, route[1:]) if a != b]


def count_crossings_reference(layout) -> int:
    """The row sweep that reports each crossing segment pair as a route-pair tuple.

    Same definition and row sweep as ``pathdraw.metrics.count_crossings``,
    one loop step and one tuple per crossing found: horizontals and
    diagonals test every vertical of their column range one at a time, each
    diagonal walks the horizontals on its interior rows, and a meeting on a
    slab's boundary row is decided by the orientation test ``_proper``.
    """
    horizontals: dict[int, list[tuple[int, int, int]]] = {}  # row -> (x0, x1, route)
    v_start: dict[int, list[tuple[int, int, int, int]]] = {}  # y0 -> (x, route, y0, y1)
    v_end: dict[int, list[tuple[int, int, int, int]]] = {}  # y1 -> same
    diagonals: list[tuple[int, tuple, tuple]] = []  # (route, upper end, lower end)
    d_start: dict[int, list[int]] = {}  # row -> diagonal indices
    d_end: dict[int, list[int]] = {}
    for rid, route in enumerate(layout.routes.values()):
        for a, b in _segments(route):
            if (a[1], a[0]) > (b[1], b[0]):
                a, b = b, a
            if a[1] == b[1]:
                horizontals.setdefault(a[1], []).append((a[0], b[0], rid))
            elif a[0] == b[0]:
                item = (a[0], rid, a[1], b[1])
                v_start.setdefault(a[1], []).append(item)
                v_end.setdefault(b[1], []).append(item)
            else:
                d_start.setdefault(a[1], []).append(len(diagonals))
                d_end.setdefault(b[1], []).append(len(diagonals))
                diagonals.append((rid, a, b))
    for hs in horizontals.values():
        hs.sort()
    h_rows = sorted(horizontals)

    pairs: set[tuple[int, int]] = set()
    rows = sorted(
        horizontals.keys() | v_start.keys() | v_end.keys() | d_start.keys() | d_end.keys()
    )
    verticals: list[tuple[int, int, int, int]] = []  # sorted by column
    active: set[int] = set()  # diagonals spanning the slab below the row
    for i, row in enumerate(rows):
        for item in v_end.get(row, ()):
            del verticals[bisect_left(verticals, item)]
        # here verticals holds exactly those with y0 < row < y1
        for x0, x1, rh in horizontals.get(row, ()):
            lo = bisect_left(verticals, (x0 + 1,))
            hi = bisect_left(verticals, (x1,))
            for _, rv, _, _ in verticals[lo:hi]:
                if rv != rh:
                    pairs.add((rh, rv) if rh < rv else (rv, rh))
        for item in v_start.get(row, ()):
            insort(verticals, item)
        for k in d_end.get(row, ()):
            active.remove(k)
        for k in d_start.get(row, ()):
            active.add(k)
            _diagonal_meets_horizontals_reference(diagonals[k], h_rows, horizontals, pairs)
        if not active:
            continue
        # slab (row, below): every vertical and diagonal left active covers it
        below = rows[i + 1]
        pieces = []
        for k in active:
            rd, a, b = diagonals[k]
            dy = b[1] - a[1]
            dx = b[0] - a[0]
            # dy times the diagonal's x at the slab's top and bottom rows
            top = a[0] * dy + (row - a[1]) * dx
            bottom = a[0] * dy + (below - a[1]) * dx
            left, right = min(top, bottom), max(top, bottom)
            lo = bisect_left(verticals, (-(-left // dy),))
            hi = bisect_left(verticals, (right // dy + 1,))
            for x, rv, y0, y1 in verticals[lo:hi]:
                # strictly inside the piece, the crossing is strictly inside the slab
                if rv != rd and (
                    left < x * dy < right or _proper(a, b, (x, y0), (x, y1))
                ):
                    pairs.add((rd, rv) if rd < rv else (rv, rd))
            pieces.append((left // dy, -(-right // dy), rd, a, b, top, bottom, dy))
        pieces.sort()
        for j, (_, right_j, rj, aj, bj, top_j, bottom_j, dy_j) in enumerate(pieces):
            for left_k, _, rk, ak, bk, top_k, bottom_k, dy_k in pieces[j + 1 :]:
                if left_k > right_j:
                    break
                if rj == rk:
                    continue
                # the signs of their x difference at the slab's top and bottom
                # rows: strictly opposite means a crossing strictly inside
                order = (top_j * dy_k - top_k * dy_j) * (bottom_j * dy_k - bottom_k * dy_j)
                if order < 0 or (order == 0 and _proper(aj, bj, ak, bk)):
                    pairs.add((rj, rk) if rj < rk else (rk, rj))
    return len(pairs)


def _diagonal_meets_horizontals_reference(diagonal, h_rows, horizontals, pairs) -> None:
    """Record the horizontals a diagonal crosses on its interior rows."""
    rd, a, b = diagonal
    dy = b[1] - a[1]
    dx = b[0] - a[0]
    for row in h_rows[bisect_right(h_rows, a[1]) : bisect_left(h_rows, b[1])]:
        at = a[0] * dy + (row - a[1]) * dx  # dy times the diagonal's x on this row
        hs = horizontals[row]
        for x0, x1, rh in hs[: bisect_left(hs, (-(-at // dy),))]:
            if x0 * dy < at < x1 * dy and rh != rd:
                pairs.add((rh, rd) if rh < rd else (rd, rh))


def count_vertex_touches_reference(layout) -> int:
    """Vertex touches looked up in per-line sorted (coordinate, vertex) tuples.

    Same lookups as ``pathdraw.metrics.count_vertex_touches``; each vertex
    found on a horizontal or vertical is unpacked from its tuple one at a
    time.
    """
    at: dict[tuple, list[int]] = {}
    by_column: dict[int, list[tuple[int, int]]] = {}  # x -> sorted (y, vertex)
    by_row: dict[int, list[tuple[int, int]]] = {}  # y -> sorted (x, vertex)
    for v, x in layout.x.items():
        y = layout.y[v]
        at.setdefault((x, y), []).append(v)
        by_column.setdefault(x, []).append((y, v))
        by_row.setdefault(y, []).append((x, v))
    for line in (*by_column.values(), *by_row.values()):
        line.sort()
    touches = 0
    for (u, w), route in layout.routes.items():
        hit: set[int] = set()
        for a, b in _segments(route):
            if a[0] == b[0] or a[1] == b[1]:
                line, axis = (by_column.get(a[0]), 1) if a[0] == b[0] else (by_row.get(a[1]), 0)
                if line:
                    lo, hi = sorted((a[axis], b[axis]))
                    hit.update(
                        v for _, v in line[bisect_left(line, (lo,)) : bisect_left(line, (hi + 1,))]
                    )
            else:
                dx = b[0] - a[0]
                dy = b[1] - a[1]
                steps = gcd(dx, dy)
                sx, sy = dx // steps, dy // steps
                for k in range(steps + 1):
                    hit.update(at.get((a[0] + k * sx, a[1] + k * sy), ()))
        hit.discard(u)
        hit.discard(w)
        touches += len(hit)
    return touches
