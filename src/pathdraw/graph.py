"""Directed-graph core: edge-list parsing, cycle removal and topological order.

Vertices are dense integers 0..n-1. Graphs are immutable after construction
and safe to share. Every operation here is a pure function, except that
``topo_sort`` keeps its result on the graph, so a run sorts each graph once.

A graph's edges are kept sorted by (u, v) and unique from the moment it is
built, so graphs with the same edge set compare equal and no caller sorts
them again. ``DiGraph.build`` checks every pair for integer ids, range and
self-loops in input order and reports the first such fault; only then does
it report a repeat, naming the smallest repeated pair.

A graph holds one adjacency, its successor tuples; ``topo_sort`` counts
in-degrees from them.

``parse_graph`` has two readers, one pass for the canonical form that
``serialize_graph`` writes and a line loop for the rest; both hand their
pairs to ``DiGraph.build``, after refusing a count above ``VERTEX_LIMIT``.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from heapq import heapify, heappush, heappop
from itertools import filterfalse

# the most vertices a parsed document may declare, or ``gen`` may write
VERTEX_LIMIT = 1_000_000


class GraphError(Exception):
    """Invalid graph input (bad edge list, self-loop, duplicate, cycle)."""


@dataclass(frozen=True)
class DiGraph:
    """A directed graph on vertices 0..n-1 with sorted, unique edges.

    It keeps the successor tuples only, which take no part in equality or
    repr: the edges fix them.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    _succ: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    @classmethod
    def build(cls, vertex_count: int, edges) -> "DiGraph":
        """Construct a graph from any iterable of (u, v) pairs, rejecting
        ids that are not ints, out-of-range ids and self-loops first, then
        duplicate edge pairs.

        An id must be of type ``int`` exactly: a ``bool`` or another int
        subclass may print otherwise than its value, and then the text of
        ``serialize_graph`` would not parse back to the same graph.
        """
        if vertex_count < 0:
            raise GraphError(f"vertex count must be non-negative, got {vertex_count}")
        pairs: list[tuple[int, int]] = []
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise GraphError(f"edge ({u!r}, {v!r}): vertex ids must be integers")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            pairs.append((u, v))
        unique, succ = _adjacency(vertex_count, pairs)
        if len(unique) < len(pairs):
            ordered = sorted(pairs)
            u, v = next(a for a, b in zip(ordered, ordered[1:]) if a == b)
            raise GraphError(f"duplicate edge ({u}, {v})")
        return cls(vertex_count, unique, succ)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def successors(self, v: int) -> tuple[int, ...]:
        return self._succ[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._succ[u]


def _adjacency(vertex_count: int, edges) -> tuple[tuple, tuple]:
    """The edges sorted by (u, v) without repeats, and the successor tuples
    they give; one sort fills every successor list in ascending order."""
    unique = tuple(dict.fromkeys(sorted(edges)))
    succ: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in unique:
        succ[u].append(v)
    return unique, tuple(map(tuple, succ))


@dataclass(frozen=True)
class CycleRemovalResult:
    dag: DiGraph
    reversed_edges: frozenset[tuple[int, int]]


def number_too_long(lineno: int, digits: int) -> str:
    """The message for a number longer than ``int`` converts, without the number."""
    return (
        f"line {lineno}: a number of {digits} digits is longer than the "
        f"{sys.get_int_max_str_digits()}-digit limit"
    )


def check_vertex_count(vertex_count: int) -> None:
    """Refuse a count above ``VERTEX_LIMIT``, naming the limit, not the count."""
    if vertex_count > VERTEX_LIMIT:
        raise GraphError(f"vertex count above the {VERTEX_LIMIT}-vertex limit")


# A canonical document: the count line, then ``u v`` lines, joined by single
# newlines, with an optional final newline. No number has more than 18
# digits, which stays below every limit int() may have on decimal digits
# (the lowest that sys.set_int_max_str_digits accepts is 640).
_CANONICAL = re.compile(r"[0-9]{1,18}(?:\n[0-9]{1,18} [0-9]{1,18})*\n?")


def parse_graph(text: str) -> DiGraph:
    """Parse an edge-list document.

    Format: the first non-comment line is the vertex count; each following
    line is ``u v`` (ASCII decimal, single space). A line whose first
    non-blank character is ``#`` is a comment, and blank lines are ignored;
    a ``#`` after an edge is an error.

    A document in the canonical form that ``serialize_graph`` writes is
    tokenized in one pass: its numbers, joined by commas, are read as one
    JSON array by the C scanner. Every other document goes through the line
    loop, and so does a canonical one with a leading zero, which JSON
    rejects. The loop reads the same count and edges from a canonical
    document, since its count and edge lines are exactly the lines that the
    loop keeps. Either way the pairs go, in the same order, to ``_graph``.
    """
    # a match that stops short of the end, unlike fullmatch, fails without
    # backtracking over every line before the fault
    canonical = _CANONICAL.match(text)
    if canonical is None or canonical.end() != len(text):
        return _parse_lines(text)
    try:
        numbers = json.loads("[" + text.rstrip("\n").replace("\n", ",").replace(" ", ",") + "]")
    except ValueError:  # a number with a leading zero
        return _parse_lines(text)
    return _graph(numbers[0], numbers[1::2], numbers[2::2])


def _parse_lines(text: str) -> DiGraph:
    """Parse an edge-list document line by line; see ``parse_graph``."""
    vertex_count: int | None = None
    us: list[int] = []
    vs: list[int] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if vertex_count is None:
            if not (line.isdigit() and line.isascii()):
                raise GraphError(f"line {lineno}: expected vertex count, got {line!r}")
            try:
                vertex_count = int(line)
            except ValueError:  # longer than the interpreter converts
                raise GraphError(number_too_long(lineno, len(line))) from None
            continue
        # str.isdigit also accepts non-ASCII digits such as '²'; isascii rules them out
        u, _, v = line.partition(" ")
        if not (u.isdigit() and v.isdigit() and line.isascii()):
            raise GraphError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            us.append(int(u))
            vs.append(int(v))
        except ValueError:
            raise GraphError(number_too_long(lineno, max(len(u), len(v)))) from None
    if vertex_count is None:
        raise GraphError("empty document: missing vertex count")
    return _graph(vertex_count, us, vs)


def _graph(vertex_count: int, us: list[int], vs: list[int]) -> DiGraph:
    """The graph with edges (us[i], vs[i]), from non-negative int ids;
    the count is checked before anything is allocated per vertex."""
    check_vertex_count(vertex_count)
    try:
        return DiGraph.build(vertex_count, zip(us, vs))
    except GraphError as exc:
        raise GraphError(f"bad edge list: {exc}") from exc


def serialize_graph(g: DiGraph) -> str:
    """Emit the canonical edge-list form: count, then edges sorted by (u, v)."""
    lines = [str(g.vertex_count)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def remove_cycles(g: DiGraph) -> CycleRemovalResult:
    """Break cycles by reversing depth-first back edges.

    Roots are taken in ascending id order and neighbors visited in ascending
    id order, so the reversed set is deterministic. The search keeps an
    explicit stack of (vertex, successor iterator) frames, each resumed
    where it stopped, since recursion depth would be a vertex-count
    liability.

    The DAG is rebuilt from two sorted runs: the kept edges in the order of
    ``g.edges``, then the flipped edges sorted. The sort in ``_adjacency``
    merges the two runs in linear time and gives the list that sorting the
    flipped edges in place would give, so the DAG is the same. A flipped
    edge that meets its reverse from a 2-cycle sits next to it after the
    sort, and the dedupe merges the two as before.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    n = g.vertex_count
    succ = g._succ
    state = [WHITE] * n
    back: set[tuple[int, int]] = set()
    for root in range(n):
        if state[root] != WHITE:
            continue
        state[root] = GRAY
        stack = [(root, iter(succ[root]))]
        while stack:
            v, out = stack[-1]
            for w in out:
                if state[w] == WHITE:
                    state[w] = GRAY
                    stack.append((w, iter(succ[w])))
                    break
                if state[w] == GRAY:
                    back.add((v, w))
            else:
                state[v] = BLACK
                stack.pop()
    if not back:
        return CycleRemovalResult(g, frozenset())
    # g was validated, so no check of build is needed
    runs = list(filterfalse(back.__contains__, g.edges))
    runs += sorted([(w, v) for v, w in back])
    dag = DiGraph(n, *_adjacency(n, runs))
    return CycleRemovalResult(dag, frozenset(back))


def topo_sort(g: DiGraph) -> dict[int, int]:
    """Topological rank of every vertex, by Kahn's algorithm.

    The in-degrees are counted from the successor tuples. A min-id heap
    makes the order reproducible. The dict lists the
    vertices in rank order. Raises GraphError naming a vertex on a cycle
    if the graph is cyclic. The ranks are kept on g, so later calls return
    the same dict; callers must not modify it.
    """
    if "_rank" in g.__dict__:
        return g.__dict__["_rank"]
    indeg = [0] * g.vertex_count
    for out in g._succ:
        for w in out:
            indeg[w] += 1
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
