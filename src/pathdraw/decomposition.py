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
from typing import NamedTuple

from .graph import DiGraph, number_too_long, topo_sort
from .layout import CROSS, PATH, TRANSITIVE


class DecompositionError(Exception):
    """Raised when a path decomposition is malformed or invalid for a graph."""


@dataclass(frozen=True)
class PathDecomposition:
    paths: tuple[tuple[int, ...], ...]

    @property
    def path_count(self) -> int:
        return len(self.paths)


class EdgeClassification(NamedTuple):
    """Each edge's kind, the transitive and cross edges, and each vertex's
    path: what ``classify_edges`` finds and the later stages of ``draw`` read."""

    category: dict[tuple[int, int], str]  # every edge -> its kind, in edge order
    transitive_edges: list[tuple[int, int]]  # in edge order
    cross_edges: list[tuple[int, int]]  # in edge order
    path_of: list[int]  # path_of[v] is the index of v's path


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


def _partition(paths: tuple[tuple[int, ...], ...], n: int) -> tuple[list[int], ValidationReport]:
    """Each vertex's path index (-1 for none) and how the paths fail to
    partition 0..n-1."""
    index = [-1] * n
    repeated: set[int] = set()
    outside: set[int] = set()
    for pi, path in enumerate(paths):
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
    return index, report


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
    _, report = _partition(d.paths, n)
    non_edges: list[tuple[int, int]] = []
    reversed_pairs: list[tuple[int, int]] = []
    for path in d.paths:
        for u, v in zip(path, path[1:]):
            if 0 <= u < n and 0 <= v < n and not g.has_edge(u, v):
                (reversed_pairs if (u, v) in reversed_edges else non_edges).append((u, v))
    return replace(report, non_edges=tuple(non_edges), reversed_pairs=tuple(reversed_pairs))


def classify_edges(g: DiGraph, d: PathDecomposition) -> EdgeClassification:
    """Map each edge to its kind in one pass over g's edges, which also lists
    the transitive and the cross edges in edge order; ``draw`` keeps the map.
    The walk over the paths that checks the partition builds the path index
    that the later stages read.

    Raises DecompositionError unless the paths of d partition g's vertices
    and each consecutive pair is an edge of g.
    """
    path_of, report = _partition(d.paths, g.vertex_count)
    if not report.ok:
        raise DecompositionError(f"not a partition of the vertices: {report.describe()}")
    after = [-1] * g.vertex_count  # each vertex's successor on its path
    for path in d.paths:
        for u, v in zip(path, path[1:]):
            after[u] = v
    category: dict[tuple[int, int], str] = {}
    transitive, cross = [], []
    for e in g.edges:
        u, v = e
        if path_of[u] != path_of[v]:
            cross.append(e)
            category[e] = CROSS
        elif after[u] == v:
            category[e] = PATH
        else:
            transitive.append(e)
            category[e] = TRANSITIVE
    # the paths hold n - k consecutive pairs and each edge is at most one of
    # them, so every pair is an edge exactly when n - k edges are path edges
    if len(category) - len(transitive) - len(cross) != g.vertex_count - d.path_count:
        report = validate_decomposition(g, d)
        raise DecompositionError(f"invalid decomposition: {report.describe()}")
    return EdgeClassification(category, transitive, cross, path_of)


def _hopcroft_karp(n: int, adj: tuple[tuple[int, ...], ...]) -> list[int]:
    """Maximum matching on the split bipartite graph; returns match_left.

    Left copy u is the out-side of vertex u, right copy v the in-side;
    one bipartite edge per graph edge. Augmenting paths are explored in
    ascending id order so the matching is deterministic.

    The first phase is one greedy pass: each left vertex, in ascending id,
    takes its first successor that is still free. That is the matching the
    layered search gives in that phase. Every right vertex is free then,
    so ``bfs`` puts every left vertex on layer 0, and ``augment`` skips a
    matched successor, since its owner sits on layer 0 and not on layer 1:
    it takes the first free successor or gives up. The pass needs no
    breadth-first scan of every edge and no search frames.
    """
    INF = n + 1
    match_left = [-1] * n
    match_right = [-1] * n
    dist = [INF] * n
    for u in range(n):
        for v in adj[u]:
            if match_right[v] == -1:
                match_left[u] = v
                match_right[v] = u
                break

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

    def augment(root: int) -> bool:
        # layered depth-first search on an explicit stack of (vertex,
        # successor iterator) frames, so a long augmenting path cannot
        # exhaust the interpreter's recursion limit; tried[k] is the right
        # vertex through which frame k went on to frame k + 1
        stack = [(root, iter(adj[root]))]
        tried: list[int] = []
        while True:
            u, out = stack[-1]
            layer = dist[u] + 1
            for v in out:
                w = match_right[v]
                if w == -1:
                    tried.append(v)
                    for (x, _), y in zip(stack, tried):  # flip the path
                        match_left[x] = y
                        match_right[y] = x
                    return True
                if dist[w] == layer:
                    tried.append(v)
                    stack.append((w, iter(adj[w])))
                    break
            else:
                dist[u] = INF
                stack.pop()
                if not stack:
                    return False
                tried.pop()  # u is a dead end; its frame's parent tries on

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
    rank = topo_sort(g)  # the ranks kept on g, if sorted before; rejects cyclic input
    # g's own successor tuples, uncopied; each is sorted, so edges go in id order
    match_left = _hopcroft_karp(g.vertex_count, g._succ)
    matched = set(match_left)  # every vertex with a predecessor on its path
    paths: list[tuple[int, ...]] = []
    for start in rank:  # the ranks list the vertices in rank order
        if start in matched:
            continue
        path = [start]
        while match_left[path[-1]] != -1:
            path.append(match_left[path[-1]])
        paths.append(tuple(path))
    return PathDecomposition(tuple(paths))


def parse_decomposition(
    text: str, g: DiGraph, reversed_edges: frozenset = frozenset()
) -> PathDecomposition:
    """Parse a path-list document and validate it against g.

    One path per line, vertex ids (ASCII decimal) separated by single
    spaces. A line whose first non-blank character is ``#`` is a comment;
    a ``#`` after a path is an error. Path order in the file is the column
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
        try:
            paths.append(tuple(int(p) for p in parts))
        except ValueError:  # longer than the interpreter converts
            raise DecompositionError(number_too_long(lineno, max(map(len, parts)))) from None
    d = PathDecomposition(tuple(paths))
    report = validate_decomposition(g, d, reversed_edges)
    if not report.ok:
        raise DecompositionError(f"invalid decomposition: {report.describe()}")
    return d
