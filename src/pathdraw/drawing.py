"""Final grid assembly: lane columns, route polylines, bundle records.

One pass lays out the whole drawing on a dense integer grid, left to right.
A stack of lanes, whether the cross-edge lanes of a gap or the transitive
lanes of a path, is placed by one routine: it numbers the lanes outward
from the spine and records the column of every member edge. Per path come
its gap (the lanes of cross edges into that path), its transitive stack
unless it is the last path, and its spine; the last path's stack sits
right of its spine. Every route is read off the edge -> column map. A gap
occupant with two or more members is a shared trunk and gets a bundle
record; a lone edge's occupant gets none.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

from .bundling import BundleInterval, LanePacking, pack_intervals, reorder_lanes, transitive_bundles
from .decomposition import PathDecomposition, classify_edges
from .graph import DiGraph, topo_sort
from .layout import (
    COL_CROSS,
    COL_LANE_LEFT,
    COL_LANE_RIGHT,
    COL_SPINE,
    CROSS,
    TRANSITIVE,
    Layout,
    Point,
)
from .routing import GapOccupant, gap_occupants


class BundleRecord(NamedTuple):
    id: int
    kind: str  # "transitive" | "cross"
    anchor_or_target: int
    lane: int  # final grid column of the trunk
    span: tuple[int, int]
    members: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Drawing:
    layout: Layout
    bundles: tuple[BundleRecord, ...]


def draw(
    g: DiGraph,
    d: PathDecomposition,
    t: dict[int, int] | None = None,
    *,
    compact_rows: bool = True,
    bundle_transitive_edges: bool = True,
    bundle_cross_incoming: bool = True,
    reorder: bool = True,
) -> Drawing:
    """Produce the complete drawing for a DAG and decomposition.

    Rows are compacted: a source sits on row 0 and every other vertex one
    row below its lowest predecessor, so its row is the length of the
    longest path ending at it, whatever ranks are given. ``t`` is read
    only when ``compact_rows`` is off: each vertex's row is then its rank
    in ``t``, or in the ranks ``topo_sort`` keeps on g when ``t`` is None.
    Disabling ``bundle_transitive_edges`` hides transitive edges entirely
    (empty routes, no lanes); disabling ``bundle_cross_incoming`` keeps
    every cross edge on its own lane occupancy. Raises DecompositionError
    unless the paths of ``d`` partition the vertices of ``g``.
    """
    n = g.vertex_count
    path_of = d.path_of(n)
    cls = classify_edges(g, d)
    # dense ids let the hot loops run on lists instead of dicts
    y: list[int] = [0] * n
    if compact_rows:
        # row = 1 + the largest predecessor row; the dict topo_sort keeps
        # on g lists the vertices in rank order, predecessors first
        for v in topo_sort(g):
            best = -1
            for u in g.predecessors(v):
                if y[u] > best:
                    best = y[u]
            y[v] = best + 1
    else:
        for v, r in (topo_sort(g) if t is None else t).items():
            y[v] = r
    k = d.path_count

    # one stack per path with transitive edges: the last path's on its
    # right, every other path's on its left
    trans_packings: dict[int, LanePacking] = {}
    if bundle_transitive_edges:
        for pi, stack in groupby(transitive_bundles(d, cls, y), attrgetter("path_index")):
            packing = pack_intervals(stack)
            trans_packings[pi] = reorder_lanes(packing) if reorder else packing

    category = cls.category  # edge -> kind, in (u, v) order
    cross_edges = [e for e, kind in category.items() if kind == CROSS]
    cross_packings = {
        gap: pack_intervals(occupants)
        for gap, occupants in gap_occupants(y, path_of, cross_edges, bundle_cross_incoming).items()
    }

    # Dense column grid, left to right: one tag per column, and the column
    # of every edge that rides a lane.
    tags: list[str] = []
    lane_of: dict[tuple[int, int], int] = {}

    def place(
        packing: LanePacking, tag: str, leftward: bool
    ) -> list[tuple[int, BundleInterval | GapOccupant]]:
        """Append one stack's columns and return its (column, interval) pairs.

        Lanes are numbered outward from the spine: lane li sits li columns
        left of the lane beside the spine for a gap or left stack, li
        columns right of it for the right stack. Pairs come lane by lane,
        each lane's intervals in start-row order.
        """
        base = len(tags)
        count = packing.lane_count
        tags.extend([tag] * count)
        placed = []
        for li, lane in enumerate(packing.lanes):
            column = base + count - 1 - li if leftward else base + li
            for item in lane:
                for e in item.members:
                    lane_of[e] = column
                placed.append((column, item))
        return placed

    # per path: cross lanes, its transitive stack unless it is the last
    # path, its spine; the last path's stack then goes right of its spine
    stacks: list[tuple[int, BundleInterval]] = []
    trunks: list[tuple[int, GapOccupant]] = []
    spine_x: list[int] = [0] * k
    for i in range(k):
        if i in cross_packings:
            placed = place(cross_packings[i], COL_CROSS, True)
            trunks += [(column, occ) for column, occ in placed if len(occ.members) > 1]
        if i in trans_packings and i < k - 1:
            stacks += place(trans_packings[i], COL_LANE_LEFT, True)
        spine_x[i] = len(tags)
        tags.append(COL_SPINE)
    if k - 1 in trans_packings:
        stacks += place(trans_packings[k - 1], COL_LANE_RIGHT, False)
    # Transitive records come out ordered by (path, lane, row); cross
    # records, one per shared trunk, by target, since a target has one trunk.
    trunks.sort(key=lambda placed: placed[1].target)
    bundles = [("transitive", iv.anchor, column, iv) for column, iv in stacks]
    bundles += [("cross", occ.target, column, occ) for column, occ in trunks]
    records = tuple(
        BundleRecord(i, kind, anchor, column, (item.start_row, item.finish_row), item.members)
        for i, (kind, anchor, column, item) in enumerate(bundles)
    )

    x = [spine_x[pi] for pi in path_of]
    position: list[Point] = list(zip(x, y))
    routes: dict[tuple[int, int], tuple[Point, ...]] = {}
    for e, kind in category.items():
        u, v = e
        lane = lane_of.get(e)
        if lane is None:
            # path edges and one-row cross edges run straight; transitive
            # edges have no lane only when they are hidden
            routes[e] = () if kind == TRANSITIVE else (position[u], position[v])
        elif kind == CROSS and y[v] - y[u] == 2:
            routes[e] = (position[u], (lane, y[u]), position[v])
        else:
            routes[e] = (position[u], (lane, y[u]), (lane, y[v]), position[v])

    final = Layout(
        x=dict(enumerate(x)),
        y=dict(enumerate(y)),
        routes=routes,
        category=category,
        column_meta=dict(enumerate(tags)),
        paths=d.paths,
    )
    return Drawing(layout=final, bundles=records)
