"""The finished drawing's value types and its compaction self-check.

Coordinates are integer grid cells. Row 0 is the top of the rendered output
and every edge runs from a lower to a higher row. ``draw`` places the rows:
without compaction each vertex sits at the row of its topological rank
(height n-1); with it each vertex's row is 1 + the largest row of its
predecessors and sources are on row 0, which brings the height down to the
longest-path length exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    category: dict[tuple[int, int], str]
    column_meta: dict[int, str]
    paths: tuple[tuple[int, ...], ...]

    def spine_of(self, path_index: int) -> int:
        """Column currently holding the given path's vertices."""
        return self.x[self.paths[path_index][0]]


@dataclass(frozen=True)
class MetricsReport:
    crossings: int
    bends: int
    width: int
    height: int
    area: int


@dataclass(frozen=True)
class PropertyViolation:
    kind: str
    detail: tuple[int, int]

    def __str__(self) -> str:
        if self.kind == "distinct-rows":
            u, v = self.detail
            return f"vertices {u} and {v} of one path share a row"
        v, _ = self.detail
        return f"vertex {v} has no predecessor one row above"


def assert_properties(g: DiGraph, layout: Layout) -> PropertyViolation | None:
    """Self-check for a compacted layout; None means both properties hold.

    Property 1: vertices of one path occupy distinct rows. Property 2:
    every vertex off row 0 has an incoming edge from exactly one row above.
    """
    for path in layout.paths:
        seen: dict[int, int] = {}
        for v in path:
            row = layout.y[v]
            if row in seen:
                return PropertyViolation("distinct-rows", (seen[row], v))
            seen[row] = v
    for v in range(g.vertex_count):
        if layout.y[v] == 0:
            continue
        if not any(layout.y[u] == layout.y[v] - 1 for u in g.predecessors(v)):
            return PropertyViolation("predecessor-row", (v, layout.y[v]))
    return None
