"""Bundling of transitive edges into side-lane trunks.

Each bundle groups the current transitive in- or out-edges of one vertex
(the anchor) and is represented by a vertical interval on a lane beside the
path's spine. Bundles are extracted greedily by maximum transitive degree,
packed into the minimum number of lanes by greedy interval partitioning
(intervals by start row, each on the lowest-numbered free lane), and
optionally permuted afterwards to shed crossings between trunks and
connectors.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from heapq import heapify, heappush, heappop
from itertools import combinations, permutations
from operator import attrgetter
from typing import NamedTuple

from .decomposition import EdgeClassification, PathDecomposition


class BundleInterval(NamedTuple):
    path_index: int
    anchor: int
    members: tuple[tuple[int, int], ...]
    start_row: int
    finish_row: int
    # row span of each member's trunk leg, parallel to members. The
    # benchmark's bundling.lanes counter (perfbench/spans.py, _lanes) tells
    # transitive packings from gap packings by this attribute, so
    # GapOccupant must not gain it.
    member_spans: tuple[tuple[int, int], ...] = ()


class LanePacking(NamedTuple):
    lanes: tuple[tuple, ...]

    @property
    def lane_count(self) -> int:
        return len(self.lanes)


def transitive_bundles(
    d: PathDecomposition,
    classification: EdgeClassification,
    rows: dict[int, int] | list[int],
) -> list[BundleInterval]:
    """Greedy per-path extraction of transitive-edge bundles.

    Repeatedly pick the vertex with the highest remaining transitive
    indegree or outdegree (ties: lower vertex id, then incoming before
    outgoing), bundle those edges into one interval, drop them, and update
    degrees. ``rows`` is the compacted vertical placement, one row per
    vertex. Intervals come out path by path, in path order. The
    transitive edges are bucketed by path in one pass and a lazy-deletion
    max-heap picks the anchors. Only the endpoints of a path's transitive
    edges get in- and out-edge sets, and the heap starts with one entry per
    set. An extraction empties the anchor's set and takes each member out
    of one set of its other endpoint, and only that set's new degree is
    pushed, so every non-empty set keeps an entry with its current key and
    the heap sees one push per transitive edge: O(k + t log t) for k paths
    and t transitive edges, reading the path index of ``classification``.
    """
    out: list[BundleInterval] = []
    path_of = classification.path_of
    # both ends of a transitive edge are on one path
    buckets: list[list[tuple[int, int]]] = [[] for _ in d.paths]
    for e in classification.transitive_edges:
        buckets[path_of[e[0]]].append(e)
    for pi, remaining in enumerate(buckets):
        if not remaining:
            continue
        # sets only for endpoints of transitive edges, none empty at first
        indeg: defaultdict[int, set[tuple[int, int]]] = defaultdict(set)
        outdeg: defaultdict[int, set[tuple[int, int]]] = defaultdict(set)
        for e in remaining:
            outdeg[e[0]].add(e)
            indeg[e[1]].add(e)
        # heap key: (-degree, vertex, 0 incoming / 1 outgoing); keys of live
        # entries are unique, so the pop order does not depend on the seeding
        heap = [(-len(edges), v, 0) for v, edges in indeg.items()]
        heap += [(-len(edges), v, 1) for v, edges in outdeg.items()]
        heapify(heap)
        while heap:
            neg, v, which = heappop(heap)
            edges = indeg[v] if which == 0 else outdeg[v]
            if -neg != len(edges):
                continue  # stale heap entry
            members = tuple(sorted(edges))
            edges.clear()
            # each member leaves one set of its other endpoint: the outgoing
            # set of a source for an incoming anchor, and vice versa
            other, flip = (outdeg, 1) if which == 0 else (indeg, 0)
            row = start = finish = rows[v]
            spans = []
            for e in members:
                u = e[which]
                r = rows[u]
                if r < start:
                    start = r
                elif r > finish:
                    finish = r
                spans.append((r, row) if r < row else (row, r))
                left = other[u]
                left.discard(e)
                if left:
                    heappush(heap, (-len(left), u, flip))
            out.append(BundleInterval(pi, v, members, start, finish, tuple(spans)))
    return out


def pack_intervals(intervals) -> LanePacking:
    """Greedy interval partitioning into the optimum number of lanes.

    Intervals are taken in ascending start-row order and each goes on the
    lowest-numbered lane (nearest the spine) where it fits. Closed-interval
    overlap: sharing even one row is a conflict. The lane count equals the
    maximum number of intervals covering any single row. A heap of busy
    ``(finish_row, lane)`` pairs releases lanes into a min-heap of free lane
    numbers once their last interval ends above the current start; starts
    only grow, so a released lane stays free until it is reused. N intervals
    in L lanes cost O(N log N) for the sort and O(N log L) for the packing.
    """
    # the sort is stable, so ties keep their input order
    ordered = sorted(intervals, key=attrgetter("start_row", "finish_row"))
    lanes: list[list] = []
    busy: list[tuple[int, int]] = []
    free: list[int] = []
    for iv in ordered:
        while busy and busy[0][0] < iv.start_row:
            heappush(free, heappop(busy)[1])
        if free:
            li = heappop(free)
            lanes[li].append(iv)
        else:
            li = len(lanes)
            lanes.append([iv])
        heappush(busy, (iv.finish_row, li))
    return LanePacking(tuple(map(tuple, lanes)))


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


def _sorted_spans(lanes: tuple[tuple, ...]) -> tuple[list, list]:
    """Each lane's member spans sorted, and the end lists ``_crossings`` reads."""
    spans = [sorted(span for iv in lane for span in iv.member_spans) for lane in lanes]
    ends = [
        ([lo for lo, _ in s], [hi for _, hi in s], sorted(hi for _, hi in s)) for s in spans
    ]
    return spans, ends


def lane_pair_costs(lanes: tuple[tuple, ...]) -> list[list[int]]:
    """``cost[i][j]``: trunk/connector crossings when lane i sits nearer than j.

    A connector of the farther lane crosses a trunk leg of the nearer lane
    when it leaves its spine on a row strictly inside that leg's span; one
    member pair counts once even when both of its ends do. With M member
    spans in L lanes and X crossing pairs this is O(L M log M + X).
    """
    spans, ends = _sorted_spans(lanes)
    count = len(lanes)
    return [
        [_crossings(spans[i], ends[j]) if i != j else 0 for j in range(count)]
        for i in range(count)
    ]


_EXHAUSTIVE_LIMIT = 6


def reorder_lanes(packing: LanePacking) -> LanePacking:
    """Permute lanes to reduce trunk/connector crossings.

    Stacks of up to ``_EXHAUSTIVE_LIMIT`` lanes try every order and keep
    the first of least cost, the identity when it ties. Larger stacks take
    the lanes in packing order and insert each into the order built so far.
    Swapping adjacent lanes a and b changes only their own pair's term, so
    lane i goes nearer than lane j when ``cost(i, j) < cost(j, i)``, and a
    tie places i after j. A lane is first compared with the far end of the
    order, then bisected into the rest; both lanes it lands between are
    ones it was compared with, so in the result no adjacent swap lowers the
    crossings. A packing order that already is such a local minimum comes
    back unchanged, each lane staying behind the far end. The rule is not
    transitive, so the order is no global optimum and may cross more than
    the packing order did.

    With M member spans that costs O(M log M) to sort the spans, then at
    most ceil(log2 L) + 1 comparisons per lane, each two bisect passes
    over one lane pair, and no pair is compared twice: O(L log L) pair
    costs. The inserts shift at most L list slots each, in one memmove.
    """
    lanes = packing.lanes
    count = len(lanes)
    if count <= 1:
        return packing
    if count <= _EXHAUSTIVE_LIMIT:
        pair_cost = lane_pair_costs(lanes)
        # min keeps the first order of least cost, and the identity comes first
        best = min(
            permutations(range(count)),
            key=lambda order: sum(pair_cost[a][b] for a, b in combinations(order, 2)),
        )
        return LanePacking(tuple(lanes[i] for i in best))
    spans, ends = _sorted_spans(lanes)

    def nearer(i: int, j: int) -> bool:
        return _crossings(spans[i], ends[j]) < _crossings(spans[j], ends[i])

    order = [0]
    for i in range(1, count):
        lo, hi = 0, len(order) - 1
        if not nearer(i, order[hi]):
            lo = hi = hi + 1  # the far end first: a lane not nearer goes last
        while lo < hi:
            mid = (lo + hi) // 2
            if nearer(i, order[mid]):
                hi = mid
            else:
                lo = mid + 1
        order.insert(lo, i)
    return LanePacking(tuple(lanes[i] for i in order))
