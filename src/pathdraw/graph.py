"""Directed-graph core: edge-list parsing, cycle removal and topological order.

Vertices are dense integers 0..n-1. Graphs are immutable after construction
and safe to share. Every operation here is a pure function, except that
``topo_sort`` keeps its result on the graph, so a run sorts each graph once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappush, heappop


class GraphError(Exception):
    """Invalid graph input (bad edge list, self-loop, duplicate, cycle)."""


@dataclass(frozen=True)
class DiGraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    _succ: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)
    _pred: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    @classmethod
    def build(cls, vertex_count: int, edges) -> "DiGraph":
        """Construct a graph, rejecting self-loops, duplicate edge pairs and
        out-of-range ids."""
        if vertex_count < 0:
            raise GraphError(f"vertex count must be non-negative, got {vertex_count}")
        seen: set[tuple[int, int]] = set()
        clean: list[tuple[int, int]] = []
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            clean.append((u, v))
        return cls(vertex_count, tuple(clean), *_adjacency(vertex_count, clean))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def successors(self, v: int) -> tuple[int, ...]:
        return self._succ[v]

    def predecessors(self, v: int) -> tuple[int, ...]:
        return self._pred[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._succ[u]


def _adjacency(
    vertex_count: int, edges
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Sorted successor and predecessor tuples of a duplicate-free edge list.

    One sort of the edges by (u, v) fills every successor list in ascending
    order, and every predecessor list too, since sources arrive ascending.
    """
    succ: list[list[int]] = [[] for _ in range(vertex_count)]
    pred: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in sorted(edges):
        succ[u].append(v)
        pred[v].append(u)
    return tuple(map(tuple, succ)), tuple(map(tuple, pred))


@dataclass(frozen=True)
class CycleRemovalResult:
    dag: DiGraph
    reversed_edges: frozenset[tuple[int, int]]


def parse_graph(text: str) -> DiGraph:
    """Parse an edge-list document.

    Format: the first non-comment line is the vertex count; each following
    line is ``u v`` (ASCII decimal, single space). Lines starting with ``#``
    are comments; blank lines are ignored.
    """
    vertex_count: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if vertex_count is None:
            if not (line.isdigit() and line.isascii()):
                raise GraphError(f"line {lineno}: expected vertex count, got {line!r}")
            vertex_count = int(line)
            continue
        # str.isdigit also accepts non-ASCII digits such as '²'; isascii rules them out
        u, _, v = line.partition(" ")
        if not (u.isdigit() and v.isdigit() and line.isascii()):
            raise GraphError(f"line {lineno}: expected 'u v', got {line!r}")
        edges.append((int(u), int(v)))
    if vertex_count is None:
        raise GraphError("empty document: missing vertex count")
    try:
        return DiGraph.build(vertex_count, edges)
    except GraphError as exc:
        raise GraphError(f"bad edge list: {exc}") from exc


def serialize_graph(g: DiGraph) -> str:
    """Emit the canonical edge-list form: count, then edges sorted by (u, v)."""
    lines = [str(g.vertex_count)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def remove_cycles(g: DiGraph) -> CycleRemovalResult:
    """Break cycles by reversing depth-first back edges.

    Roots are taken in ascending id order and neighbors visited in ascending
    id order, so the reversed set is deterministic. Iterative DFS: recursion
    depth would be a vertex-count liability.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    n = g.vertex_count
    succ = g._succ
    state = [WHITE] * n
    # next successor index per vertex, so the stack holds bare vertices
    next_index = [0] * n
    back: set[tuple[int, int]] = set()
    for root in range(n):
        if state[root] != WHITE:
            continue
        stack = [root]
        state[root] = GRAY
        while stack:
            v = stack[-1]
            out = succ[v]
            i = next_index[v]
            while i < len(out):
                w = out[i]
                i += 1
                if state[w] == WHITE:
                    next_index[v] = i
                    state[w] = GRAY
                    stack.append(w)
                    break
                if state[w] == GRAY:
                    back.add((v, w))
            else:
                state[v] = BLACK
                stack.pop()
    if not back:
        return CycleRemovalResult(g, frozenset())
    # a flipped edge that meets its reverse from a 2-cycle merges with it;
    # g was validated, so only this dedupe is left of DiGraph.build's checks
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for e in g.edges:
        if e in back:
            e = (e[1], e[0])
        if e not in seen:
            seen.add(e)
            edges.append(e)
    dag = DiGraph(n, tuple(edges), *_adjacency(n, edges))
    return CycleRemovalResult(dag, frozenset(back))


def topo_sort(g: DiGraph) -> dict[int, int]:
    """Topological rank of every vertex, by Kahn's algorithm.

    A min-id heap makes the order reproducible. Raises GraphError naming a
    vertex on a cycle if the graph is cyclic. The ranks are kept on g, so
    later calls return the same dict; callers must not modify it.
    """
    if "_rank" in g.__dict__:
        return g.__dict__["_rank"]
    indeg = list(map(len, g._pred))
    heap: list[int] = [v for v in range(g.vertex_count) if indeg[v] == 0]
    heapify(heap)
    rank: dict[int, int] = {}
    while heap:
        v = heappop(heap)
        rank[v] = len(rank)
        for w in g.successors(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                heappush(heap, w)
    if len(rank) != g.vertex_count:
        culprit = min(v for v in range(g.vertex_count) if v not in rank)
        raise GraphError(f"graph is cyclic: vertex {culprit} lies on a cycle")
    # a frozen dataclass takes attributes only through object.__setattr__
    object.__setattr__(g, "_rank", rank)
    return rank
