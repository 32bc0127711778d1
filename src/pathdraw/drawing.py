"""Final grid assembly: lane columns, route polylines, bundle records.

One pass lays out the whole drawing: spines get their paths' vertices,
transitive bundle stacks sit beside their spines (left everywhere, right of
the last spine), cross-edge lanes fill the gap immediately left of each
target spine, and every column is re-indexed onto a dense integer grid.
Gaps are ordered left-to-right as cross lanes, then the next spine's
transitive lanes, then the spine itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundling import (
    LEFT,
    RIGHT,
    BundleInterval,
    LanePacking,
    pack_intervals,
    reorder_lanes,
    transitive_bundles,
)
from .decomposition import PathDecomposition, classify_edges
from .graph import DiGraph, TopoOrder, topo_sort
from .layout import (
    COL_CROSS,
    COL_LANE_LEFT,
    COL_LANE_RIGHT,
    COL_SPINE,
    CROSS,
    PATH,
    TRANSITIVE,
    Layout,
    Point,
)
from .routing import BUNDLE, gap_occupants


@dataclass(frozen=True)
class BundleRecord:
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
    t: TopoOrder | None = None,
    *,
    compact_rows: bool = True,
    bundle_transitive_edges: bool = True,
    bundle_cross_incoming: bool = True,
    reorder: bool = True,
) -> Drawing:
    """Produce the complete drawing for a DAG and decomposition.

    Rows come from the topological ranks, compacted unless ``compact_rows``
    is off, in which case each vertex keeps its rank as its row. Disabling
    ``bundle_transitive_edges`` hides transitive edges entirely (empty
    routes, no lanes); disabling ``bundle_cross_incoming`` keeps every cross
    edge on its own lane occupancy.
    """
    if t is None:
        t = topo_sort(g)
    cls = classify_edges(g, d)
    n = g.vertex_count
    # dense ids let the hot loops run on lists instead of dicts
    y: list[int] = [0] * n
    if compact_rows:
        # one row above the highest predecessor, visiting in rank order
        order = [0] * n
        for v, r in t.rank.items():
            order[r] = v
        for v in order:
            best = -1
            for u in g.predecessors(v):
                if y[u] > best:
                    best = y[u]
            y[v] = best + 1
    else:
        for v, r in t.rank.items():
            y[v] = r
    k = d.path_count
    path_of: list[int] = [0] * n
    for pi, path in enumerate(d.paths):
        for v in path:
            path_of[v] = pi

    trans_packings: dict[tuple[int, str], LanePacking] = {}
    if bundle_transitive_edges:
        groups: dict[tuple[int, str], list[BundleInterval]] = {}
        for iv in transitive_bundles(g, d, cls, y):
            groups.setdefault((iv.path_index, iv.side), []).append(iv)
        for key in sorted(groups):
            packing = pack_intervals(groups[key])
            if reorder:
                packing = reorder_lanes(packing)
            trans_packings[key] = packing

    # one sort serves the occupant grouping and the route loop below
    edges = sorted(g.edges)
    cross_set = cls.cross_edges
    cross_packings: dict[int, LanePacking] = {}
    for gap, occupants in sorted(
        gap_occupants(
            y, path_of, [e for e in edges if e in cross_set], bundle_cross_incoming
        ).items()
    ):
        cross_packings[gap] = pack_intervals(occupants)

    # Dense column grid, left to right. Lanes are numbered outward from
    # their spine: lane li of a gap or left stack sits li columns left of the
    # lane beside the spine, lane li of the right stack li columns right.
    spine_x: list[int] = [0] * k
    trans_lane_end: dict[tuple[int, str], int] = {}
    column_meta: dict[int, str] = {}
    cross_edge_lane: dict[tuple[int, int], int] = {}
    # one (target, lane column, span, members) per shared trunk
    cross_trunks: list[tuple] = []
    col = 0
    for i in range(k):
        cp = cross_packings.get(i)
        if cp is not None:
            for c in range(col, col + cp.lane_count):
                column_meta[c] = COL_CROSS
            col += cp.lane_count
            for li, lane_items in enumerate(cp.lanes):
                lx = col - 1 - li
                for occ in lane_items:
                    for e in occ.members:
                        cross_edge_lane[e] = lx
                    if occ.kind == BUNDLE:
                        span = (occ.start_row, occ.finish_row)
                        cross_trunks.append((occ.target, lx, span, occ.members))
        tp = trans_packings.get((i, LEFT))
        if tp is not None:
            for c in range(col, col + tp.lane_count):
                column_meta[c] = COL_LANE_LEFT
            col += tp.lane_count
            trans_lane_end[(i, LEFT)] = col - 1
        spine_x[i] = col
        column_meta[col] = COL_SPINE
        col += 1
    tp = trans_packings.get((k - 1, RIGHT)) if k else None
    if tp is not None:
        trans_lane_end[(k - 1, RIGHT)] = col
        for c in range(col, col + tp.lane_count):
            column_meta[c] = COL_LANE_RIGHT

    x: list[int] = [0] * n
    for pi, path in enumerate(d.paths):
        sx = spine_x[pi]
        for v in path:
            x[v] = sx

    # trans_packings is keyed in column order and each packing lists its
    # intervals lane by lane, in start-row order (a lane's intervals are
    # disjoint), so the records come out ordered by (path, side, lane, row)
    member_lane: dict[tuple[int, int], int] = {}
    records: list[BundleRecord] = []
    for (pi, side), packing in sorted(trans_packings.items()):
        end = trans_lane_end[(pi, side)]
        step = 1 if side == RIGHT else -1
        for li, lane in enumerate(packing.lanes):
            lx = end + step * li
            for iv in lane:
                span = (iv.start_row, iv.finish_row)
                records.append(
                    BundleRecord(len(records), "transitive", iv.anchor, lx, span, iv.members)
                )
                for e in iv.members:
                    member_lane[e] = lx
    # a target has at most one trunk, so the tuples sort by target alone
    for v, lx, span, members in sorted(cross_trunks):
        records.append(BundleRecord(len(records), "cross", v, lx, span, members))

    position: list[Point] = list(zip(x, y))
    routes: dict[tuple[int, int], tuple[Point, ...]] = {}
    category: dict[tuple[int, int], str] = {}
    path_set = cls.path_edges
    for e in edges:
        u, v = e
        if e in path_set:
            category[e] = PATH
            routes[e] = (position[u], position[v])
        elif e in cross_set:
            category[e] = CROSS
            # one bend per point between the endpoints
            dy = y[v] - y[u]
            if dy == 1:
                routes[e] = (position[u], position[v])
            else:
                lane = cross_edge_lane[e]
                if dy == 2:
                    routes[e] = (position[u], (lane, y[u]), position[v])
                else:
                    routes[e] = (position[u], (lane, y[u]), (lane, y[v]), position[v])
        else:
            category[e] = TRANSITIVE
            if bundle_transitive_edges:
                lx = member_lane[e]
                routes[e] = (position[u], (lx, y[u]), (lx, y[v]), position[v])
            else:
                routes[e] = ()

    final = Layout(
        x=dict(enumerate(x)),
        y=dict(enumerate(y)),
        routes=routes,
        category=category,
        column_meta=column_meta,
        paths=d.paths,
    )
    return Drawing(layout=final, bundles=tuple(records))
