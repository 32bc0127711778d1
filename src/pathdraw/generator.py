"""Seeded random DAG generation for tests and benchmarks.

``avg_degree`` means edges per node: a graph gets m = round(n * avg_degree)
edges (capped at the n-choose-2 maximum). A hidden random vertex
permutation fixes a topological order and edges are sampled uniformly,
without replacement, among the forward pairs of that order. Identical
(n, avg_degree, seed) always yields an identical edge list.
"""

from __future__ import annotations

import math
import random

from .graph import DiGraph, GraphError

_ENUMERATE_LIMIT = 200_000


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
    if max_edges <= _ENUMERATE_LIMIT or 3 * m >= max_edges:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = rng.sample(pairs, m)
    else:
        # sparse case: rejection sampling terminates fast
        chosen = set()
        while len(chosen) < m:
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i == j:
                continue
            if i > j:
                i, j = j, i
            chosen.add((i, j))
    return DiGraph.build(n, ((perm[i], perm[j]) for i, j in chosen))
