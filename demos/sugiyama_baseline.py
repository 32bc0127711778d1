#!/usr/bin/env python3
"""Walkthrough: the Path Based Framework (PBF) against a Sugiyama baseline.

The paper compares the two frameworks on area, bends, crossings and
execution time. This demo draws each input both ways and prints one table.

PBF is ``run_pipeline_full(g)``: cycle removal, a minimum path cover,
``draw`` and the self-check. The baseline is the layered method of
Sugiyama, Tagawa & Toda (1981), written here outside the package:

- cycles are broken by ``remove_cycles``, as in PBF;
- the layers are PBF's compacted rows, ``place_rows(dag, True)``, so both
  drawings have the same height;
- an edge that spans several rows gets one dummy vertex on each row
  between its ends, so every segment joins two adjacent layers;
- ``SWEEPS`` barycenter sweeps, alternately down and up, sort each layer
  by the mean position of its neighbours on the layer just placed. A
  vertex with no such neighbour keeps its position, and ties keep the
  current order. Barycenters are compared exactly, as integers over the
  layer's common denominator;
- the order with the fewest bilayer crossings seen is kept, and a vertex's
  column is its position in its layer.

Both layouts are scored with ``pathdraw.measure`` and
``count_vertex_touches``. The time column is one wall-clock run of each
framework, from the input graph to a finished layout; scoring stays
outside it. Each framework gets its own copy of the graph, so neither
reuses the ranks that the other's topological sort kept on it. The inputs
are three ``report`` graphs (``generate_random_dag(300, 1.6, s)``,
s = 1..3) and one ``chains`` graph, 20 chains of 200 vertices with skip
and cross edges, from the generator below. Everything but the time column
is deterministic.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_right, insort
from math import lcm

from pathdraw import DiGraph, generate_random_dag, measure, remove_cycles, run_pipeline_full
from pathdraw.drawing import place_rows
from pathdraw.layout import CROSS, Layout
from pathdraw.metrics import count_vertex_touches

SWEEPS = 12


def chains_graph(k: int, length: int, seed: int) -> DiGraph:
    """k chains of ``length`` vertices, with skip edges and cross edges.

    Each vertex has an edge to the next vertex of its chain, a skip edge to
    each of the 2nd..6th next with probability 0.4, and one cross edge to a
    vertex 1..4 positions further down another chain. Vertex ids are
    shuffled.
    """
    rng = random.Random(seed)
    ids = list(range(k * length))
    rng.shuffle(ids)
    chains = [ids[c * length : (c + 1) * length] for c in range(k)]
    edges = set()
    for c, chain in enumerate(chains):
        for j, v in enumerate(chain):
            if j + 1 < length:
                edges.add((v, chain[j + 1]))
            for s in range(2, 7):
                if j + s < length and rng.random() < 0.4:
                    edges.add((v, chain[j + s]))
            target = j + rng.randint(1, 4)
            if k > 1 and target < length:
                other = rng.randrange(k - 1)
                edges.add((v, chains[other + (other >= c)][target]))
    return DiGraph.build(k * length, edges)


def bilayer_crossings(layers: list[list[int]], down: list[list[int]], pos: list[int]) -> int:
    """Crossing segment pairs between adjacent layers, summed over the layers.

    The segments between two layers, sorted by their upper end, cross in
    pairs whose lower ends are out of order.
    """
    total = 0
    for layer in layers:
        seen: list[int] = []
        for _, lower in sorted((pos[a], pos[b]) for a in layer for b in down[a]):
            total += len(seen) - bisect_right(seen, lower)
            insort(seen, lower)
    return total


def barycenter_order(
    layers: list[list[int]], up: list[list[int]], down: list[list[int]], pos: list[int]
) -> None:
    """Reorder ``layers`` in place by ``SWEEPS`` barycenter sweeps, keeping
    the order with the fewest bilayer crossings, and set ``pos`` to match."""
    best = [layer[:] for layer in layers]
    fewest = bilayer_crossings(layers, down, pos)
    for sweep in range(SWEEPS):
        if sweep % 2 == 0:
            order, placed = range(1, len(layers)), up
        else:
            order, placed = range(len(layers) - 2, -1, -1), down
        for r in order:
            layer = layers[r]
            sums = [sum(pos[u] for u in placed[v]) for v in layer]
            counts = [len(placed[v]) for v in layer]
            common = lcm(*filter(None, counts))
            key = {
                v: (s * (common // c) if c else pos[v] * common, pos[v])
                for v, s, c in zip(layer, sums, counts)
            }
            layer.sort(key=key.__getitem__)
            for i, v in enumerate(layer):
                pos[v] = i
        crossings = bilayer_crossings(layers, down, pos)
        if crossings < fewest:
            best, fewest = [layer[:] for layer in layers], crossings
    layers[:] = best
    for layer in layers:
        for i, v in enumerate(layer):
            pos[v] = i


def sugiyama_layout(g: DiGraph) -> Layout:
    """The baseline drawing of ``g``: every DAG edge is a route through its dummies."""
    dag = remove_cycles(g).dag
    rows = place_rows(dag, True)
    row_of = list(rows)  # node -> row; dummies are numbered from n on
    up: list[list[int]] = [[] for _ in rows]
    down: list[list[int]] = [[] for _ in rows]
    chains = {}
    for u, w in dag.edges:
        nodes = [u]
        for r in range(rows[u] + 1, rows[w]):
            nodes.append(len(row_of))
            row_of.append(r)
            up.append([])
            down.append([])
        nodes.append(w)
        for a, b in zip(nodes, nodes[1:]):
            down[a].append(b)
            up[b].append(a)
        chains[(u, w)] = nodes
    layers: list[list[int]] = [[] for _ in range(max(rows, default=-1) + 1)]
    pos = [0] * len(row_of)
    for v, r in enumerate(row_of):
        pos[v] = len(layers[r])
        layers[r].append(v)
    barycenter_order(layers, up, down, pos)
    routes = {e: tuple((pos[v], row_of[v]) for v in nodes) for e, nodes in chains.items()}
    return Layout(
        x={v: pos[v] for v in range(dag.vertex_count)},
        y=dict(enumerate(rows)),
        routes=routes,
        category=dict.fromkeys(routes, CROSS),
        column_meta={},
        paths=tuple((v,) for v in range(dag.vertex_count)),
    )


def main() -> None:
    inputs = [
        (f"report n=300 seed {s}", lambda s=s: generate_random_dag(300, 1.6, s)) for s in (1, 2, 3)
    ]
    inputs.append(("chains 20x200 seed 1", lambda: chains_graph(20, 200, 1)))
    frameworks = [
        ("PBF", lambda g: run_pipeline_full(g).drawing.layout),
        ("Sugiyama", sugiyama_layout),
    ]
    print("| input | framework | width | area | bends | crossings | touches | time ms |")
    print("|---|---|--:|--:|--:|--:|--:|--:|")
    for name, make in inputs:
        for framework, fn in frameworks:
            g = make()
            start = time.perf_counter()
            layout = fn(g)
            ms = (time.perf_counter() - start) * 1000.0
            m = measure(layout)
            touches = count_vertex_touches(layout)
            print(
                f"| {name} | {framework} | {m.width} | {m.area} | {m.bends} | "
                f"{m.crossings} | {touches} | {ms:.1f} |"
            )


if __name__ == "__main__":
    main()
