#!/usr/bin/env python3
"""Walkthrough: what compaction and each bundling stage contribute.

Runs the same graph through the drawing with stages toggled one at a time
and compares heights, lane columns, and metrics. Shows that hiding the
transitive edges never moves a vertex: rows and spine order are identical
with and without them, so toggling the category is visually stable.
"""

from pathdraw import (
    count_bends,
    draw,
    generate_random_dag,
    measure,
    min_path_cover,
)

g = generate_random_dag(40, avg_degree=2.6, seed=3)
cover = min_path_cover(g)
print(f"graph: n={g.vertex_count} m={g.edge_count}, cover k={cover.path_count}")

uncompacted = draw(g, cover, compact_rows=False)
compacted = draw(g, cover)
print(f"\nheight without compaction: {max(uncompacted.layout.y.values())} (rows = topological ranks)")
print(f"height with compaction:    {max(compacted.layout.y.values())} (= longest path length)")

full = compacted
plain_cross = draw(g, cover, bundle_cross_incoming=False)
no_transitive = draw(g, cover, bundle_transitive_edges=False)
no_reorder = draw(g, cover, reorder=False)

for name, drawing in [
    ("everything on", full),
    ("cross bundling off", plain_cross),
    ("transitive hidden", no_transitive),
    ("lane reorder off", no_reorder),
]:
    m = measure(drawing.layout)
    lanes = m.width - len(cover.paths)  # every column that is not a spine
    print(f"  {name:20s} width {m.width:3d} crossings {m.crossings:4d} "
          f"bends {m.bends:3d} lane columns {lanes}")

print(f"\ntransitive bundles: {sum(1 for b in full.bundles if b.kind == 'transitive')}")
print(f"cross bundles:      {sum(1 for b in full.bundles if b.kind == 'cross')}")
print(f"bends, bundled vs unbundled cross: "
      f"{count_bends(full.layout)} <= {count_bends(plain_cross.layout)}")

same_rows = full.layout.y == no_transitive.layout.y
k = len(cover.paths)
# a path's spine is the column of its vertices, here of its first one
order_full = sorted(range(k), key=lambda i: full.layout.x[cover.paths[i][0]])
order_bare = sorted(range(k), key=lambda i: no_transitive.layout.x[cover.paths[i][0]])
same_order = order_full == order_bare
print(f"\nhiding transitive edges: rows unchanged? {same_rows}; "
      f"spine order unchanged? {same_order}")
