"""Seeded input generators, one per workload family.

The generators use nothing from ``pathdraw``, so a change to the program
cannot change the benchmark's inputs. Each takes the workload seed, returns
the vertex count, the edge list and (for families that supply one) the path
list, and ``write_inputs`` turns them into the edge-list and path-list files
the program reads. The same (family, seed, index) always gives the same
bytes; ``digest`` fingerprints a whole input pool so two runs can be shown
to use identical inputs.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

Edge = tuple[int, int]


def seeded_rng(family: str, seed: int, index: int) -> random.Random:
    # str seeds hash through sha512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{family}:{seed}:{index}")


def uniform_dag(n: int, per_vertex: float, rng: random.Random) -> tuple[int, list[Edge]]:
    """Uniform random DAG: distinct forward pairs of a hidden vertex order."""
    order = list(range(n))
    rng.shuffle(order)
    m = round(n * per_vertex)
    picked: set[Edge] = set()
    while len(picked) < m:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            picked.add((order[min(i, j)], order[max(i, j)]))
    return n, sorted(picked)


def chains(
    k: int,
    length: int,
    rng: random.Random,
    skip_p: float = 0.4,
    max_skip: int = 6,
    cross_reach: int = 4,
) -> tuple[int, list[Edge], list[list[int]]]:
    """k chains of ``length`` vertices with skip edges and cross edges.

    Each vertex gets a skip edge to each of the next 2..max_skip vertices of
    its chain with probability ``skip_p`` (transitive edges once the chains
    are the decomposition) and one cross edge to a vertex 1..cross_reach
    positions further down another chain. Edges only go to later positions,
    so the graph is a DAG and the chains are a valid decomposition.
    """
    n = k * length
    ids = list(range(n))
    rng.shuffle(ids)
    vid = [[ids[c * length + j] for j in range(length)] for c in range(k)]
    edges: list[Edge] = []
    for c in range(k):
        chain = vid[c]
        for j in range(length):
            if j + 1 < length:
                edges.append((chain[j], chain[j + 1]))
            for s in range(2, max_skip + 1):
                if j + s < length and rng.random() < skip_p:
                    edges.append((chain[j], chain[j + s]))
            if k > 1:
                target_j = j + rng.randint(1, cross_reach)
                if target_j < length:
                    other = rng.randrange(k - 1)
                    other += other >= c
                    edges.append((chain[j], vid[other][target_j]))
    return n, sorted(edges), vid


def sprawl(
    n: int, per_vertex: float, back_frac: float, rng: random.Random
) -> tuple[int, list[Edge]]:
    """Sparse cyclic digraph: a random DAG with a share of edges turned back.

    Half of the backward edges reverse an existing forward edge, so the
    graph has 2-cycles; the other half join random pairs against the hidden
    order and close longer cycles.
    """
    order = list(range(n))
    rng.shuffle(order)
    m = round(n * per_vertex)
    back = round(m * back_frac)
    forward: set[Edge] = set()
    while len(forward) < m - back:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            forward.add((order[min(i, j)], order[max(i, j)]))
    edges = set(forward)
    fwd_list = sorted(forward)
    for u, v in rng.sample(fwd_list, back // 2):
        edges.add((v, u))
    while len(edges) < m:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            pair = (order[max(i, j)], order[min(i, j)])
            if (pair[1], pair[0]) not in forward:
                edges.add(pair)
    return n, sorted(edges)


def edge_list_text(n: int, edges: list[Edge]) -> str:
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def path_list_text(paths: list[list[int]]) -> str:
    return "".join(" ".join(map(str, p)) + "\n" for p in paths)


def write_inputs(
    directory: Path, name: str, n: int, edges: list[Edge], paths: list[list[int]] | None
) -> tuple[Path, Path | None]:
    """Write ``<name>.edges`` and, when paths are given, ``<name>.paths``."""
    edge_file = directory / f"{name}.edges"
    edge_file.write_text(edge_list_text(n, edges), encoding="ascii")
    path_file = None
    if paths is not None:
        path_file = directory / f"{name}.paths"
        path_file.write_text(path_list_text(paths), encoding="ascii")
    return edge_file, path_file


def digest(files: list[Path]) -> str:
    """SHA-256 over the bytes of the given files, in order (16 hex digits)."""
    h = hashlib.sha256()
    for f in files:
        h.update(f.read_bytes())
        h.update(b"\0")
    return h.hexdigest()[:16]
