"""Seeded random DAG generation for tests and benchmarks.

``avg_degree`` means edges per node: a graph gets m = round(n * avg_degree)
edges (capped at the n-choose-2 maximum). A hidden random vertex
permutation fixes a topological order and edges are sampled uniformly,
without replacement, among the forward pairs of that order: one
``random.sample`` draws m indices into the pairs listed row by row, and
each index is decoded into its pair. Identical (n, avg_degree, seed)
always yields an identical edge list.
"""

from __future__ import annotations

import math
import random

from .graph import DiGraph, GraphError


def generate_random_dag(n: int, avg_degree: float, seed: int) -> DiGraph:
    if n < 1:
        raise GraphError(f"generator needs n >= 1, got {n}")
    if not (math.isfinite(avg_degree) and avg_degree >= 0):
        raise GraphError(f"generator needs a finite degree >= 0, got {avg_degree}")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    max_edges = n * (n - 1) // 2
    # n * avg_degree may overflow to inf; capping first keeps round() finite
    m = round(min(n * avg_degree, max_edges))
    edges = []
    # position k of the row-by-row listing is index r = max_edges - 1 - k,
    # counted back from the last pair; the last t rows hold t(t + 1)/2 pairs
    for r in rng.sample(range(max_edges - 1, -1, -1), m):
        t = (math.isqrt(8 * r + 1) + 1) // 2
        edges.append((perm[n - 1 - t], perm[n - 1 - r + t * (t - 1) // 2]))
    return DiGraph.build(n, edges)
