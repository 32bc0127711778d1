"""Bundling of transitive edges into side-lane trunks.

Each bundle groups the current transitive in- or out-edges of one vertex
(the anchor) and is represented by a vertical interval on a lane beside the
path's spine. Bundles are extracted greedily by maximum transitive degree,
packed into the minimum number of lanes by a first-fit scan over intervals
sorted by start row, and optionally permuted afterwards to shed crossings
between trunks and connectors.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heapify, heappush, heappop
from itertools import permutations

from .decomposition import EdgeClassification, PathDecomposition
from .graph import DiGraph

INCOMING, OUTGOING = "incoming", "outgoing"
LEFT, RIGHT = "left", "right"


@dataclass(frozen=True)
class BundleInterval:
    path_index: int
    anchor: int
    direction: str
    members: tuple[tuple[int, int], ...]
    start_row: int
    finish_row: int
    side: str
    lane: int = -1
    # row span of each member's trunk leg, parallel to members
    member_spans: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class LanePacking:
    lanes: tuple[tuple, ...]

    @property
    def lane_count(self) -> int:
        return len(self.lanes)

    def occupants(self) -> list:
        return [iv for lane in self.lanes for iv in lane]


def transitive_bundles(
    g: DiGraph,
    d: PathDecomposition,
    classification: EdgeClassification,
    rows: dict[int, int] | list[int],
) -> list[BundleInterval]:
    """Greedy per-path extraction of transitive-edge bundles.

    Repeatedly pick the vertex with the highest remaining transitive
    indegree or outdegree (ties: lower vertex id, then incoming before
    outgoing), bundle those edges into one interval, drop them, and update
    degrees. ``rows`` is the compacted vertical placement. Intervals of the
    rightmost path go on its right side; all others go left. The
    transitive edges are bucketed by path in one pass and a lazy-deletion
    max-heap picks the anchors, which keeps this O(n + t log t) for t
    transitive edges.
    """
    out: list[BundleInterval] = []
    last = d.path_count - 1
    path_of: dict[int, int] = {}
    for pi, path in enumerate(d.paths):
        for v in path:
            path_of[v] = pi
    # one pass sorts the transitive edges into per-path buckets
    buckets: list[list[tuple[int, int]]] = [[] for _ in d.paths]
    for u, v in classification.transitive_edges:
        pi = path_of.get(u)
        if pi is not None and path_of.get(v) == pi:
            buckets[pi].append((u, v))
    for pi, path in enumerate(d.paths):
        remaining = buckets[pi]
        if not remaining:
            continue
        indeg: dict[int, set[tuple[int, int]]] = {v: set() for v in path}
        outdeg: dict[int, set[tuple[int, int]]] = {v: set() for v in path}
        for u, v in remaining:
            outdeg[u].add((u, v))
            indeg[v].add((u, v))
        # heap key: (-degree, vertex, 0 incoming / 1 outgoing)
        heap = []
        for v in path:
            if indeg[v]:
                heap.append((-len(indeg[v]), v, 0))
            if outdeg[v]:
                heap.append((-len(outdeg[v]), v, 1))
        heapify(heap)
        side = RIGHT if pi == last else LEFT
        while heap:
            neg, v, which = heappop(heap)
            edges = indeg[v] if which == 0 else outdeg[v]
            if not edges or -neg != len(edges):
                continue  # stale heap entry
            members = tuple(sorted(edges))
            member_rows = [rows[u] for e in members for u in e]
            spans = tuple(
                (min(rows[a], rows[b]), max(rows[a], rows[b])) for a, b in members
            )
            out.append(
                BundleInterval(
                    path_index=pi,
                    anchor=v,
                    direction=INCOMING if which == 0 else OUTGOING,
                    members=members,
                    start_row=min(member_rows),
                    finish_row=max(member_rows),
                    side=side,
                    member_spans=spans,
                )
            )
            for u, w in members:
                outdeg[u].discard((u, w))
                indeg[w].discard((u, w))
            touched = {u for e in members for u in e}
            for u in touched:
                if indeg[u]:
                    heappush(heap, (-len(indeg[u]), u, 0))
                if outdeg[u]:
                    heappush(heap, (-len(outdeg[u]), u, 1))
    return out


def pack_intervals(intervals) -> LanePacking:
    """First-fit interval partitioning into the optimum number of lanes.

    Intervals are scanned in ascending start-row order and each goes on the
    first lane (nearest the spine) where it fits. Closed-interval overlap:
    sharing even one row is a conflict. The lane count equals the maximum
    number of intervals covering any single row.
    """
    ordered = sorted(
        enumerate(intervals), key=lambda t: (t[1].start_row, t[1].finish_row, t[0])
    )
    lanes: list[list] = []
    last_finish: list[int] = []
    for _, iv in ordered:
        for li in range(len(lanes)):
            if iv.start_row > last_finish[li]:
                lanes[li].append(iv)
                last_finish[li] = iv.finish_row
                break
        else:
            lanes.append([iv])
            last_finish.append(iv.finish_row)
    return LanePacking(tuple(tuple(lane) for lane in lanes))


def _crossings(nearer_spans, farther) -> int:
    """Span pairs where a farther span has an end strictly inside a nearer one.

    ``farther`` holds the farther lane's sorted ``lo`` values, the ``hi`` of
    each span in that order, and its sorted ``hi`` values. For each nearer
    span (lo_a, hi_a), bisect counts the farther spans with ``lo`` inside
    and those with ``hi`` inside. A span with both ends inside is counted
    twice, so it is taken off once; all such spans lie in the ``lo`` slice,
    and every span there is a crossing, so walking the slice costs no more
    than the crossings found.
    """
    los, his_by_lo, his = farther
    count = 0
    for lo_a, hi_a in nearer_spans:
        if hi_a - lo_a < 2:
            continue  # rows are integers: none lies strictly inside
        first = bisect_right(los, lo_a)
        stop = bisect_left(los, hi_a, first)
        count += stop - first + bisect_left(his, hi_a) - bisect_right(his, lo_a)
        for hi_b in his_by_lo[first:stop]:
            if lo_a < hi_b < hi_a:
                count -= 1
    return count


def lane_pair_costs(lanes: tuple[tuple, ...]) -> list[list[int]]:
    """``cost[i][j]``: trunk/connector crossings when lane i sits nearer than j.

    A connector of the farther lane crosses a trunk leg of the nearer lane
    when it leaves its spine on a row strictly inside that leg's span; one
    member pair counts once even when both of its ends do. With M member
    spans in L lanes and X crossing pairs this is O(L M log M + X).
    """
    spans = [sorted(span for iv in lane for span in iv.member_spans) for lane in lanes]
    ends = [
        ([lo for lo, _ in s], [hi for _, hi in s], sorted(hi for _, hi in s)) for s in spans
    ]
    count = len(lanes)
    return [
        [_crossings(spans[i], ends[j]) if i != j else 0 for j in range(count)]
        for i in range(count)
    ]


def stack_crossings(lanes: tuple[tuple, ...]) -> int:
    """Trunk/connector crossings within one side stack, by lane order."""
    cost = lane_pair_costs(lanes)
    return sum(cost[i][j] for i in range(len(lanes)) for j in range(i + 1, len(lanes)))


_EXHAUSTIVE_LIMIT = 6


def reorder_lanes(packing: LanePacking) -> LanePacking:
    """Permute lanes to reduce trunk/connector crossings.

    Exhaustive over all permutations for small stacks, adjacent-swap hill
    climbing otherwise. The result never has more crossings than the input,
    and ties keep the incumbent order. Swapping adjacent lanes a and b
    changes only their own pair's term, so a swap is taken exactly when
    ``pair_cost[b][a] < pair_cost[a][b]``. The climb ends: each accepted
    swap strictly lowers the order's cost, a non-negative integer.
    """
    lanes = packing.lanes
    count = len(lanes)
    if count <= 1:
        return packing
    pair_cost = lane_pair_costs(lanes)
    if count <= _EXHAUSTIVE_LIMIT:

        def cost_of(order: tuple[int, ...]) -> int:
            return sum(
                pair_cost[order[i]][order[j]]
                for i in range(count)
                for j in range(i + 1, count)
            )

        best = tuple(range(count))
        best_cost = cost_of(best)
        for perm in permutations(range(count)):
            c = cost_of(perm)
            if c < best_cost:
                best, best_cost = perm, c
        return LanePacking(tuple(lanes[i] for i in best))
    order = list(range(count))
    improved = True
    while improved:
        improved = False
        for i in range(count - 1):
            a, b = order[i], order[i + 1]
            if pair_cost[b][a] < pair_cost[a][b]:
                order[i], order[i + 1] = b, a
                improved = True
    return LanePacking(tuple(lanes[i] for i in order))


def with_lane_indices(packing: LanePacking) -> list[BundleInterval]:
    """Copies of the packed intervals with their lane index filled in."""
    return [
        BundleInterval(
            path_index=iv.path_index,
            anchor=iv.anchor,
            direction=iv.direction,
            members=iv.members,
            start_row=iv.start_row,
            finish_row=iv.finish_row,
            side=iv.side,
            lane=li,
            member_spans=iv.member_spans,
        )
        for li, lane in enumerate(packing.lanes)
        for iv in lane
    ]
