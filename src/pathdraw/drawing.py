"""The drawing engine: ``draw`` classifies the edges, then runs five
sub-stages in order, each a function here that takes its inputs as
arguments and returns its product."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

from .bundling import LanePacking, pack_intervals, reorder_lanes, transitive_bundles
from .decomposition import EdgeClassification, PathDecomposition, classify_edges
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

    Rows come from ``place_rows``; ``t`` is not read, and stays only for
    callers that pass ranks positionally. Without ``bundle_transitive_edges``
    transitive edges are hidden (empty routes, no lanes); without
    ``bundle_cross_incoming`` every cross edge has a lane occupancy of its
    own. Raises DecompositionError unless the paths of ``d`` partition g.
    """
    path_of = d.path_of(g.vertex_count)
    cls = classify_edges(g, d)
    y = place_rows(g, compact_rows)
    stacks = transitive_stacks(d, cls, y, reorder) if bundle_transitive_edges else {}
    gaps = gap_stacks(cls, y, path_of, bundle_cross_incoming)
    tags, x, lane_of, records = column_grid(path_of, d.path_count, gaps, stacks)
    final = Layout(
        x=dict(enumerate(x)),
        y=dict(enumerate(y)),
        routes=route_edges(cls.category, x, y, lane_of),
        category=cls.category,
        column_meta=dict(enumerate(tags)),
        paths=d.paths,
    )
    return Drawing(layout=final, bundles=records)


def place_rows(g: DiGraph, compact: bool) -> list[int]:
    """Rows by dense id. Compacted, a source sits on row 0 and every other
    vertex one row below its lowest predecessor, so its row is the longest
    path ending at it; otherwise a vertex's row is its rank in ``topo_sort``.
    Compacted rows are pushed along the successors in rank order, so a
    vertex's row is final once every predecessor has pushed it."""
    ranks = topo_sort(g)  # kept on g; lists the vertices predecessors first
    if not compact:
        return [ranks[v] for v in range(g.vertex_count)]
    y = [0] * g.vertex_count  # dense ids let the hot loop index a list, not a dict
    succ = g._succ
    for v in ranks:
        below = y[v] + 1
        for w in succ[v]:
            if y[w] < below:
                y[w] = below
    return y


def transitive_stacks(
    d: PathDecomposition, cls: EdgeClassification, y: list[int], reorder: bool
) -> dict[int, LanePacking]:
    """Path index -> the packed lanes of its transitive bundles, reordered if ``reorder``."""
    bundles = groupby(transitive_bundles(d, cls, y), attrgetter("path_index"))
    packed = {pi: pack_intervals(stack) for pi, stack in bundles}
    return {pi: reorder_lanes(p) for pi, p in packed.items()} if reorder else packed


def gap_stacks(
    cls: EdgeClassification, y: list[int], path_of: list[int], bundle_cross_incoming: bool
) -> dict[int, LanePacking]:
    """Gap index -> the packed lanes of its occupants, for every gap with any."""
    occupants = gap_occupants(y, path_of, cls.cross_edges, bundle_cross_incoming)
    return {gap: pack_intervals(items) for gap, items in occupants.items()}


def column_grid(
    path_of: list[int], k: int, gaps: dict[int, LanePacking], stacks: dict[int, LanePacking]
) -> tuple[list[str], list[int], dict[tuple[int, int], int], tuple[BundleRecord, ...]]:
    """Lay the k paths' stacks and spines out left to right. Returns one tag
    per column, each vertex's column (its path's spine), each laned edge's
    column and the bundle records: transitive ones by (path, lane, row), then
    one per shared trunk (a gap occupant with two or more members; a lone
    edge's gets none) by target, since a target has one trunk."""
    tags: list[str] = []
    lane_of: dict[tuple[int, int], int] = {}
    records: list[BundleRecord] = []
    trunks: list[tuple[int, GapOccupant]] = []  # recorded after every transitive bundle

    def place(packing: LanePacking, tag: str, leftward: bool) -> None:
        """Append one stack's columns. Lanes are numbered outward from the
        spine: lane li sits li columns left of the lane beside the spine for
        a gap or left stack, li columns right of it for the right stack."""
        base = len(tags)
        count = packing.lane_count
        tags.extend([tag] * count)
        for li, lane in enumerate(packing.lanes):
            column = base + count - 1 - li if leftward else base + li
            for item in lane:
                for e in item.members:
                    lane_of[e] = column
                if tag == COL_CROSS:
                    if len(item.members) > 1:
                        trunks.append((column, item))
                    continue
                span = (item.start_row, item.finish_row)
                records.append(
                    BundleRecord(len(records), TRANSITIVE, item.anchor, column, span, item.members)
                )

    # per path: cross lanes, its transitive stack unless it is the last
    # path, its spine; the last path's stack then goes right of its spine
    spine_x = [0] * k
    for i in range(k):
        if i in gaps:
            place(gaps[i], COL_CROSS, True)
        if i in stacks and i < k - 1:
            place(stacks[i], COL_LANE_LEFT, True)
        spine_x[i] = len(tags)
        tags.append(COL_SPINE)
    if k - 1 in stacks:
        place(stacks[k - 1], COL_LANE_RIGHT, False)
    trunks.sort(key=lambda placed: placed[1].target)
    for column, occ in trunks:
        span = (occ.start_row, occ.finish_row)
        records.append(BundleRecord(len(records), CROSS, occ.target, column, span, occ.members))
    return tags, [spine_x[pi] for pi in path_of], lane_of, tuple(records)


def route_edges(
    category: dict[tuple[int, int], str], x: list[int], y: list[int], lane_of: dict
) -> dict[tuple[int, int], tuple[Point, ...]]:
    """Each edge's polyline, in ``category`` order, read off its column."""
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
    return routes
