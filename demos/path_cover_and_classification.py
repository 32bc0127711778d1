#!/usr/bin/env python3
"""Walkthrough: automatic minimum path cover and what it does to the edges.

Generates a reproducible random DAG, computes the smallest set of
vertex-disjoint paths covering it, and shows how the edge classification
(and with it the drawing) follows from the chosen decomposition.
"""

from pathdraw import (
    classify_edges,
    draw,
    generate_random_dag,
    measure,
    min_path_cover,
    validate_decomposition,
)

g = generate_random_dag(30, avg_degree=1.8, seed=12)
print(f"random DAG: {g.vertex_count} vertices, {g.edge_count} edges")

cover = min_path_cover(g)
print(f"minimum path cover: {cover.path_count} paths")
for i, path in enumerate(cover.paths):
    print(f"  path {i}: {' -> '.join(map(str, path))}")
assert validate_decomposition(g, cover).ok

cls = classify_edges(g, cover)
on_path = [e for e, kind in cls.category.items() if kind == "path"]
print(
    f"\nclassification: {len(on_path)} path, "
    f"{len(cls.transitive_edges)} transitive, {len(cls.cross_edges)} cross"
)

drawing = draw(g, cover)
report = measure(drawing.layout)
print(f"drawing metrics: {report}")

# fewer paths means more vertical alignment; singletons mean isolated or
# awkward vertices. Try different seeds or degrees to see the cover change.
singletons = sum(1 for p in cover.paths if len(p) == 1)
print(f"singleton paths: {singletons}")
longest = max(cover.paths, key=len)
print(f"longest path in the cover: {' -> '.join(map(str, longest))}")
