#!/usr/bin/env python3
"""Walkthrough: draw a small DAG whose vertices are grouped into two paths.

Builds the graph in memory, validates the decomposition, runs the full
drawing (compaction, transitive bundling, cross routing), prints the grid
as ASCII, and writes quickstart.svg / quickstart.json next to this script.
"""

from pathlib import Path

from pathdraw import (
    DiGraph,
    PathDecomposition,
    classify_edges,
    draw,
    measure,
    render_json,
    render_svg,
    validate_decomposition,
)

# Two user-defined paths: 0-1-2-3-4 and 5-6-7. The extra edges become one
# transitive bundle (out of vertex 0) and three cross edges.
g = DiGraph.build(
    8,
    [
        (0, 1), (1, 2), (2, 3), (3, 4),      # spine of path A
        (5, 6), (6, 7),                      # spine of path B
        (0, 2), (0, 3),                      # transitive, same path
        (5, 2), (5, 4), (6, 4),              # cross edges into path A
    ],
)
d = PathDecomposition(((0, 1, 2, 3, 4), (5, 6, 7)))

report = validate_decomposition(g, d)
print("decomposition valid:", report.ok)

cls = classify_edges(g, d)
print(f"path edges: {sorted(cls.path_edges)}")
print(f"transitive: {sorted(cls.transitive_edges)}")
print(f"cross:      {sorted(cls.cross_edges)}")

drawing = draw(g, d)
lay = drawing.layout

print("\nvertex grid (column x, row y):")
for v in sorted(lay.x):
    print(f"  vertex {v}: ({lay.x[v]}, {lay.y[v]})")

print("\nbundles:")
for b in drawing.bundles:
    print(f"  #{b.id} {b.kind} at column {b.lane}, rows {b.span}, "
          f"{len(b.members)} member edges")

# quick ASCII impression of the grid: vertices by id, lanes as '|'
width = max(lay.x.values()) + 1
height = max(lay.y.values()) + 1
grid = [["." for _ in range(width)] for _ in range(height)]
spines = set(lay.x.values())
for col in range(width):
    if col not in spines:
        for row in range(height):
            grid[row][col] = " "
for b in drawing.bundles:
    for row in range(b.span[0], b.span[1] + 1):
        grid[row][b.lane] = "|"
for v in sorted(lay.x):
    grid[lay.y[v]][lay.x[v]] = str(v)
print("\n" + "\n".join(" ".join(row) for row in grid))

metrics = measure(lay)
print(f"\nmetrics: {metrics}")

here = Path(__file__).parent
(here / "quickstart.svg").write_text(render_svg(lay), encoding="utf-8")
(here / "quickstart.json").write_text(
    render_json(lay, metrics, bundles=drawing.bundles),
    encoding="utf-8",
)
print("wrote quickstart.svg and quickstart.json")
