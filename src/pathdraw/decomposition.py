"""Vertex-disjoint path decompositions: validation, edge classification,
and minimum path cover via bipartite matching.

A decomposition partitions the vertex set into directed paths; each path is
drawn on its own column. Every edge then falls into exactly one of three
categories: a *path* edge joins consecutive vertices of one path, a
*transitive* edge joins non-consecutive vertices of one path, and a *cross*
edge joins vertices of different paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from .graph import DiGraph, topo_sort


class DecompositionError(Exception):
    """Raised when a path decomposition is malformed or invalid for a graph."""


@dataclass(frozen=True)
class PathDecomposition:
    paths: tuple[tuple[int, ...], ...]

    @property
    def path_count(self) -> int:
        return len(self.paths)

    def path_of(self, n: int) -> list[int]:
        """Each vertex's path: ``path_of(n)[v]`` is the index of v's path.

        Raises DecompositionError naming the missing, repeated and
        out-of-range vertices unless the paths partition 0..n-1. Every
        stage of a drawing reads the same list; callers must not modify it.
        """
        index, report = self._index(n)
        if not report.ok:
            raise DecompositionError(f"not a partition of the vertices: {report.describe()}")
        return index

    def _index(self, n: int) -> tuple[list[int], ValidationReport]:
        """Each vertex's path index (-1 for none) and how the paths fail to
        partition 0..n-1. Built on the first call for an n and kept, so
        validation and drawing walk the paths once."""
        cached = self.__dict__.get("_partition")
        if cached is not None and cached[0] == n:
            return cached[1], cached[2]
        index = [-1] * n
        repeated: set[int] = set()
        outside: set[int] = set()
        for pi, path in enumerate(self.paths):
            for v in path:
                if not 0 <= v < n:
                    outside.add(v)
                elif index[v] != -1:
                    repeated.add(v)
                else:
                    index[v] = pi
        report = ValidationReport(
            missing=tuple(v for v, pi in enumerate(index) if pi == -1),
            duplicated=tuple(sorted(repeated)),
            out_of_range=tuple(sorted(outside)),
        )
        # a frozen dataclass takes attributes only through object.__setattr__
        object.__setattr__(self, "_partition", (n, index, report))
        return index, report


@dataclass(frozen=True)
class EdgeClassification:
    path_edges: frozenset[tuple[int, int]]
    transitive_edges: frozenset[tuple[int, int]]
    cross_edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class ValidationReport:
    missing: tuple[int, ...] = ()
    duplicated: tuple[int, ...] = ()
    non_edges: tuple[tuple[int, int], ...] = ()
    out_of_range: tuple[int, ...] = ()
    # consecutive pairs that are input edges which cycle removal reversed
    reversed_pairs: tuple[tuple[int, int], ...] = ()

    @property
    def ok(self) -> bool:
        return not (
            self.missing
            or self.duplicated
            or self.non_edges
            or self.out_of_range
            or self.reversed_pairs
        )

    def describe(self) -> str:
        parts = []
        if self.out_of_range:
            parts.append(f"out-of-range vertices {list(self.out_of_range)}")
        if self.missing:
            parts.append(f"missing vertices {list(self.missing)}")
        if self.duplicated:
            parts.append(f"duplicated vertices {list(self.duplicated)}")
        if self.non_edges:
            parts.append(
                "consecutive pairs that are not edges "
                + ", ".join(f"({u}, {v})" for u, v in self.non_edges)
            )
        if self.reversed_pairs:
            parts.append(
                "consecutive pairs that are input edges reversed by cycle removal "
                + ", ".join(f"({u}, {v})" for u, v in self.reversed_pairs)
            )
        return "; ".join(parts) if parts else "ok"


def validate_decomposition(
    g: DiGraph, d: PathDecomposition, reversed_edges: frozenset = frozenset()
) -> ValidationReport:
    """Check that d covers every vertex exactly once with true directed paths.

    Consecutive vertices of a path must be joined by an edge of g in that
    direction; reachability-only sequences are rejected. A pair that is not
    an edge of g but is in ``reversed_edges`` (the input edges that cycle
    removal flipped to make g) is reported as such, not as a non-edge.
    """
    n = g.vertex_count
    _, report = d._index(n)
    non_edges: list[tuple[int, int]] = []
    reversed_pairs: list[tuple[int, int]] = []
    for path in d.paths:
        for u, v in zip(path, path[1:]):
            if 0 <= u < n and 0 <= v < n and not g.has_edge(u, v):
                (reversed_pairs if (u, v) in reversed_edges else non_edges).append((u, v))
    return replace(report, non_edges=tuple(non_edges), reversed_pairs=tuple(reversed_pairs))


def classify_edges(g: DiGraph, d: PathDecomposition) -> EdgeClassification:
    """Partition the edge set into path / transitive / cross edges."""
    path_of = d.path_of(g.vertex_count)
    steps = {e for path in d.paths for e in zip(path, path[1:])}
    path_edges: set[tuple[int, int]] = set()
    transitive: set[tuple[int, int]] = set()
    cross: set[tuple[int, int]] = set()
    for e in g.edges:
        u, v = e
        if path_of[u] != path_of[v]:
            cross.add(e)
        elif e in steps:
            path_edges.add(e)
        else:
            transitive.add(e)
    return EdgeClassification(frozenset(path_edges), frozenset(transitive), frozenset(cross))


def _hopcroft_karp(n: int, adj: list[tuple[int, ...]]) -> list[int]:
    """Maximum matching on the split bipartite graph; returns match_left.

    Left copy u is the out-side of vertex u, right copy v the in-side;
    one bipartite edge per graph edge. Augmenting paths are explored in
    ascending id order so the matching is deterministic.
    """
    INF = n + 1
    match_left = [-1] * n
    match_right = [-1] * n
    dist = [INF] * n

    def bfs() -> bool:
        queue = deque()
        for u in range(n):
            if match_left[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_right[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    nxt = [0] * n  # for each vertex on the stack, the adj index being tried

    def augment(root: int) -> bool:
        # layered depth-first search on an explicit stack, so a long
        # augmenting path cannot exhaust the interpreter's recursion limit
        stack = [root]
        nxt[root] = 0
        u = root
        while True:
            layer = dist[u] + 1
            i = nxt[u]
            for v in adj[u][i:] if i else adj[u]:
                w = match_right[v]
                if w == -1:
                    nxt[u] = i
                    for x in stack:  # each vertex on the path takes its tried edge
                        v = adj[x][nxt[x]]
                        match_left[x] = v
                        match_right[v] = x
                    return True
                if dist[w] == layer:
                    nxt[u] = i
                    nxt[w] = 0
                    stack.append(w)
                    u = w
                    break
                i += 1
            else:
                dist[u] = INF
                stack.pop()
                if not stack:
                    return False
                u = stack[-1]
                nxt[u] += 1

    while bfs():
        for u in range(n):
            if match_left[u] == -1 and adj[u]:  # no out-edge: nothing to match
                augment(u)
    return match_left


def min_path_cover(g: DiGraph) -> PathDecomposition:
    """Minimum-cardinality vertex-disjoint path cover of a DAG.

    The cover size is n minus the maximum matching of the split bipartite
    graph. Resulting paths are ordered by the topological rank of their
    first vertex, which fixes the column order of the drawing.
    """
    rank = topo_sort(g).rank  # also rejects cyclic input
    # successor tuples are sorted, so edges are tried in ascending id order
    adj = [g.successors(u) for u in range(g.vertex_count)]
    match_left = _hopcroft_karp(g.vertex_count, adj)
    next_of = {u: v for u, v in enumerate(match_left) if v != -1}
    has_prev = set(next_of.values())
    paths: list[tuple[int, ...]] = []
    for start in range(g.vertex_count):
        if start in has_prev:
            continue
        path = [start]
        while path[-1] in next_of:
            path.append(next_of[path[-1]])
        paths.append(tuple(path))
    paths.sort(key=lambda p: rank[p[0]])
    return PathDecomposition(tuple(paths))


def parse_decomposition(
    text: str, g: DiGraph, reversed_edges: frozenset = frozenset()
) -> PathDecomposition:
    """Parse a path-list document and validate it against g.

    One path per line, vertex ids (ASCII decimal) separated by single
    spaces; ``#`` starts a comment. Path order in the file is the column
    order of the drawing. ``reversed_edges`` are the input edges that cycle
    removal flipped to make g; a path that runs along one is rejected with
    a message that says so.
    """
    paths: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(" ")
        # str.isdigit also accepts non-ASCII digits such as '²'; isascii rules them out
        if not (line.isascii() and all(p.isdigit() for p in parts)):
            raise DecompositionError(f"line {lineno}: expected vertex ids, got {line!r}")
        paths.append(tuple(int(p) for p in parts))
    d = PathDecomposition(tuple(paths))
    report = validate_decomposition(g, d, reversed_edges)
    if not report.ok:
        raise DecompositionError(f"invalid decomposition: {report.describe()}")
    return d
