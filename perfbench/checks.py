"""Output checks that share no code with ``pathdraw``.

The benchmark reads back what a job wrote (the SVG drawing, and for the
CLI workload the JSON document) and checks it against the input files with
its own parsers and its own geometry. Nothing here imports the program, so
a bug cannot hide on both sides.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

Edge = tuple[int, int]
Point = tuple[int, int]

SVG_PITCH = 24  # pixels per grid unit, from the README's SVG description

_POLYLINE = re.compile(r'<polyline class="[^"]*" points="([^"]*)"><title>(\d+)-(\d+)</title>')
_CIRCLE = re.compile(r'<circle cx="(\d+)" cy="(\d+)" r="\d+"><title>(\d+)</title>')


class CheckError(Exception):
    """An output that cannot even be read back."""


class Geometry(NamedTuple):
    pos: dict[int, Point]
    routes: dict[Edge, tuple[Point, ...]]


def read_edge_list(text: str) -> tuple[int, list[Edge]]:
    """The vertex count and edges of a file written by ``gen.write_inputs``."""
    first, *rest = text.splitlines()
    edges = []
    for line in rest:
        u, v = line.split(" ")
        edges.append((int(u), int(v)))
    return int(first), edges


def read_path_list(text: str) -> list[list[int]]:
    return [[int(t) for t in line.split(" ")] for line in text.splitlines()]


def _grid(px: str) -> int:
    value = int(px)
    if value % SVG_PITCH:
        raise CheckError(f"SVG coordinate {value} is off the grid")
    return value // SVG_PITCH - 1


def svg_geometry(text: str) -> Geometry:
    pos = {int(v): (_grid(cx), _grid(cy)) for cx, cy, v in _CIRCLE.findall(text)}
    routes: dict[Edge, tuple[Point, ...]] = {}
    for points, u, v in _POLYLINE.findall(text):
        route = []
        for pair in points.split(" "):
            px, py = pair.split(",")
            route.append((_grid(px), _grid(py)))
        routes[(int(u), int(v))] = tuple(route)
    if not text.rstrip().endswith("</svg>"):
        raise CheckError("SVG document is truncated")
    return Geometry(pos, routes)


def json_document(text: str) -> dict:
    """Parse a layout document and insist that it round-trips byte for byte."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise CheckError(f"invalid JSON: {exc}") from exc
    if json.dumps(doc, indent=2, sort_keys=True) + "\n" != text:
        raise CheckError("JSON document does not round-trip")
    return doc


def json_geometry(doc: dict) -> tuple[Geometry, list[list[int]]]:
    """Positions, drawn routes and paths (in column order) of a layout document."""
    pos = {v["id"]: (v["x"], v["y"]) for v in doc["vertices"]}
    routes = {
        (e["u"], e["v"]): tuple((p[0], p[1]) for p in e["route"])
        for e in doc["edges"]
        if len(e["route"]) >= 2
    }
    by_path: dict[int, list[tuple[int, int]]] = {}
    for v in doc["vertices"]:
        by_path.setdefault(v["path"], []).append((v["order_in_path"], v["id"]))
    paths = [[vid for _, vid in sorted(by_path[p])] for p in sorted(by_path)]
    return Geometry(pos, routes), paths


def drawing_problems(
    n: int, edges: list[Edge], paths: list[list[int]], geo: Geometry, limit: int = 5
) -> list[str]:
    """Every way the drawing breaks the layout contract, up to ``limit``.

    Checks: each vertex has a position; each input edge has a route in one
    orientation and each route belongs to an input edge; a route starts and
    ends at its endpoints' positions and runs down the rows; the paths
    partition the vertices and each shares one column; and each vertex sits
    one row below its highest predecessor (row 0 without one).
    """
    problems: list[str] = []

    def report(msg: str) -> bool:
        problems.append(msg)
        return len(problems) >= limit

    pos, routes = geo
    for v in range(n):
        if v not in pos and report(f"vertex {v} has no position"):
            return problems
    if len(pos) != n and report(f"{len(pos)} positions for {n} vertices"):
        return problems
    input_edges = set(edges)
    for u, v in edges:
        if (u, v) not in routes and (v, u) not in routes:
            if report(f"input edge ({u}, {v}) has no route"):
                return problems
    for (u, v), route in routes.items():
        if (u, v) not in input_edges and (v, u) not in input_edges:
            if report(f"route ({u}, {v}) is not an input edge"):
                return problems
            continue
        if u not in pos or v not in pos:
            continue
        if route[0] != pos[u] or route[-1] != pos[v]:
            if report(f"route ({u}, {v}) does not join its endpoints' positions"):
                return problems
        if not pos[u][1] < pos[v][1] or any(
            a[1] > b[1] for a, b in zip(route, route[1:])
        ):
            if report(f"route ({u}, {v}) does not run down the rows"):
                return problems
    seen: set[int] = set()
    for i, path in enumerate(paths):
        seen.update(path)
        columns = {pos[v][0] for v in path if v in pos}
        if len(columns) > 1 and report(f"path {i} spans columns {sorted(columns)}"):
            return problems
    if len(seen) != n or sum(map(len, paths)) != n:
        if report("paths do not partition the vertices"):
            return problems
    highest: dict[int, int] = {}
    for u, v in routes:
        if u in pos:
            highest[v] = max(highest.get(v, -1), pos[u][1])
    for v, (_, row) in pos.items():
        want = highest.get(v, -1) + 1
        if row != want and report(f"vertex {v} on row {row}, expected {want}"):
            return problems
    return problems


def count_bends(routes: dict[Edge, tuple[Point, ...]]) -> int:
    """Interior corners: a turn, or a reversal along one line."""
    total = 0
    for route in routes.values():
        for a, b, c in zip(route, route[1:], route[2:]):
            dx1, dy1 = b[0] - a[0], b[1] - a[1]
            dx2, dy2 = c[0] - b[0], c[1] - b[1]
            if dx1 * dy2 != dy1 * dx2 or dx1 * dx2 + dy1 * dy2 < 0:
                total += 1
    return total


def area(geo: Geometry) -> int:
    """Distinct columns times the highest row, over vertices and route points."""
    xs = {p[0] for p in geo.pos.values()}
    ys = {p[1] for p in geo.pos.values()}
    for route in geo.routes.values():
        xs.update(p[0] for p in route)
        ys.update(p[1] for p in route)
    return len(xs) * max(len(ys) - 1, 0)


def _side(o: Point, a: Point, b: Point) -> int:
    val = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    return (val > 0) - (val < 0)


def brute_force_crossings(routes: dict[Edge, tuple[Point, ...]]) -> int:
    """Route pairs with a segment pair whose interiors cross transversally.

    All pairs of routes are tried; a bounding-box test only skips pairs
    that cannot meet.
    """
    items = []
    for route in routes.values():
        segs = [(a, b) for a, b in zip(route, route[1:]) if a != b]
        xs = [p[0] for p in route]
        ys = [p[1] for p in route]
        items.append((min(xs), max(xs), min(ys), max(ys), segs))
    total = 0
    for i, (x0, x1, y0, y1, segs_i) in enumerate(items):
        for j in range(i + 1, len(items)):
            a0, a1, b0, b1, segs_j = items[j]
            if a0 > x1 or a1 < x0 or b0 > y1 or b1 < y0:
                continue
            if any(
                _side(p2, q2, p1) * _side(p2, q2, q1) < 0
                and _side(p1, q1, p2) * _side(p1, q1, q2) < 0
                for p1, q1 in segs_i
                for p2, q2 in segs_j
            ):
                total += 1
    return total
