"""The finished drawing's value types, its grid lines and its compaction self-check.

Coordinates are integer grid cells. Row 0 is the top of the rendered output
and every edge runs from a lower to a higher row. ``draw`` places the rows:
without compaction each vertex sits at the row of its topological rank
(height n-1); with it each vertex's row is 1 + the largest row of its
predecessors and sources are on row 0, which brings the height down to the
longest-path length exactly. ``assert_properties`` checks a compacted layout
and raises ``InvariantError``, naming the vertices, when a property fails.
``grid_lines`` lists the columns and rows in use, for metrics and the SVG.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .graph import DiGraph

Point = tuple[int, int]

# Edge categories and column tags used across the drawing pipeline.
PATH, TRANSITIVE, CROSS = "path", "transitive", "cross"
COL_SPINE = "path-spine"
COL_LANE_LEFT = "bundle-lane-left"
COL_LANE_RIGHT = "bundle-lane-right"
COL_CROSS = "cross-lane"


@dataclass(frozen=True)
class Layout:
    x: dict[int, int]
    y: dict[int, int]
    routes: dict[tuple[int, int], tuple[Point, ...]]
    category: dict[tuple[int, int], str]  # the edge -> kind map of classify_edges
    # no renderer or metric reads this; it stays while the benchmark's
    # drawing.columns counter (perfbench/spans.py, _columns) counts its entries
    column_meta: dict[int, str]
    paths: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MetricsReport:
    crossings: int
    bends: int
    width: int
    height: int
    area: int


def grid_lines(layout: Layout) -> tuple[set[int], set[int]]:
    """The distinct columns and rows of vertices and route points, in C-level passes."""
    points = layout.routes.values()
    columns = set(layout.x.values())
    columns.update(map(itemgetter(0), chain.from_iterable(points)))
    rows = set(layout.y.values())
    rows.update(map(itemgetter(1), chain.from_iterable(points)))
    return columns, rows


class InvariantError(Exception):
    """A drawing self-check failed; indicates an internal bug."""


def assert_properties(g: DiGraph, layout: Layout) -> None:
    """Self-check for a compacted layout; raises ``InvariantError`` naming the vertices.

    Property 1: vertices of one path occupy distinct rows. Property 2:
    every vertex off row 0 has an incoming edge from exactly one row above.
    Property 2 reads the successor tuples only, and its error names the
    smallest vertex that fails it.
    """
    for path in layout.paths:
        seen: dict[int, int] = {}
        for v in path:
            row = layout.y[v]
            if row in seen:
                raise InvariantError(
                    f"internal invariant violated: vertices {seen[row]} and {v} "
                    "of one path share a row"
                )
            seen[row] = v
    y = layout.y
    fed = [False] * g.vertex_count
    for u, out in enumerate(g._succ):
        below = y[u] + 1
        for w in out:
            if y[w] == below:
                fed[w] = True
    for v in range(g.vertex_count):
        if not fed[v] and y[v] != 0:
            raise InvariantError(
                f"internal invariant violated: vertex {v} has no predecessor one row above"
            )
