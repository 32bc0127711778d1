"""Layout quality metrics: crossings, bends, width, height, area.

All coordinates are grid integers, so orientation tests are exact and there
is no epsilon anywhere. A crossing is a pair of edge routes whose polylines
cross transversally at a point that is not a shared endpoint vertex;
touches, T-junctions, and collinear overlaps (bundle trunks) do not count.
A route passing exactly through some other vertex's grid point is not a
crossing either; it is reported separately as a layout-quality warning.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from math import gcd

from .layout import Layout, MetricsReport, Point

Segment = tuple[Point, Point]


def orientation(o: Point, a: Point, b: Point) -> int:
    """Sign of the cross product (a - o) x (b - o): exact on integers."""
    val = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    return (val > 0) - (val < 0)


def segments_properly_cross(p1: Point, q1: Point, p2: Point, q2: Point) -> bool:
    """True when the open interiors of two segments cross transversally."""
    d1 = orientation(p2, q2, p1)
    d2 = orientation(p2, q2, q1)
    d3 = orientation(p1, q1, p2)
    d4 = orientation(p1, q1, q2)
    return d1 * d2 < 0 and d3 * d4 < 0


def route_segments(route: tuple[Point, ...]) -> list[Segment]:
    return [
        (route[i], route[i + 1])
        for i in range(len(route) - 1)
        if route[i] != route[i + 1]
    ]


def count_crossings(layout: Layout) -> int:
    """Number of unordered route pairs that cross.

    Orthogonal segment intersection reporting (Bentley & Wood 1980): every
    route is split into horizontal, vertical and diagonal segments, and the
    distinct endpoint rows are swept top to bottom with a sorted list of the
    verticals that strictly span the current row. A horizontal reports the
    verticals whose columns lie strictly inside its x-range; on integers
    that is exactly a proper crossing, so no predicate is needed. A diagonal
    meets a horizontal only on one of its interior rows, where an exact
    integer comparison decides. Against verticals and other diagonals, a
    diagonal is checked in every slab between consecutive sweep rows that
    it spans: a candidate that crosses it strictly inside the slab is
    decided by integer comparisons, and one that meets it only on a slab
    boundary row is settled with ``segments_properly_cross``. Reported
    segment pairs are deduplicated into route pairs, since two routes can
    cross more than once. With the diagonals ``draw`` emits (one or two
    rows each) the cost is O((s + K) log s) for s segments and K segment
    crossings reported.
    """
    horizontals: dict[int, list[tuple[int, int, int]]] = {}  # row -> (x0, x1, route)
    v_start: dict[int, list[tuple[int, int, int, int]]] = {}  # y0 -> (x, route, y0, y1)
    v_end: dict[int, list[tuple[int, int, int, int]]] = {}  # y1 -> same
    diagonals: list[tuple[int, Point, Point]] = []  # (route, upper end, lower end)
    d_start: dict[int, list[int]] = {}  # row -> diagonal indices
    d_end: dict[int, list[int]] = {}
    for rid, route in enumerate(layout.routes.values()):
        for a, b in route_segments(route):
            if (a[1], a[0]) > (b[1], b[0]):
                a, b = b, a
            if a[1] == b[1]:
                horizontals.setdefault(a[1], []).append((a[0], b[0], rid))
            elif a[0] == b[0]:
                item = (a[0], rid, a[1], b[1])
                v_start.setdefault(a[1], []).append(item)
                v_end.setdefault(b[1], []).append(item)
            else:
                d_start.setdefault(a[1], []).append(len(diagonals))
                d_end.setdefault(b[1], []).append(len(diagonals))
                diagonals.append((rid, a, b))
    for hs in horizontals.values():
        hs.sort()
    h_rows = sorted(horizontals)

    pairs: set[tuple[int, int]] = set()
    rows = sorted(
        horizontals.keys() | v_start.keys() | v_end.keys() | d_start.keys() | d_end.keys()
    )
    verticals: list[tuple[int, int, int, int]] = []  # sorted by column
    active: set[int] = set()  # diagonals spanning the slab below the row
    for i, row in enumerate(rows):
        for item in v_end.get(row, ()):
            del verticals[bisect_left(verticals, item)]
        # here verticals holds exactly those with y0 < row < y1
        for x0, x1, rh in horizontals.get(row, ()):
            lo = bisect_left(verticals, (x0 + 1,))
            hi = bisect_left(verticals, (x1,))
            for _, rv, _, _ in verticals[lo:hi]:
                if rv != rh:
                    pairs.add((rh, rv) if rh < rv else (rv, rh))
        for item in v_start.get(row, ()):
            insort(verticals, item)
        for k in d_end.get(row, ()):
            active.remove(k)
        for k in d_start.get(row, ()):
            active.add(k)
            _diagonal_meets_horizontals(diagonals[k], h_rows, horizontals, pairs)
        if not active:
            continue
        # slab (row, below): every vertical and diagonal left active covers it
        below = rows[i + 1]
        pieces = []
        for k in active:
            rd, a, b = diagonals[k]
            dy = b[1] - a[1]
            dx = b[0] - a[0]
            # dy times the diagonal's x at the slab's top and bottom rows
            top = a[0] * dy + (row - a[1]) * dx
            bottom = a[0] * dy + (below - a[1]) * dx
            left, right = min(top, bottom), max(top, bottom)
            lo = bisect_left(verticals, (-(-left // dy),))
            hi = bisect_left(verticals, (right // dy + 1,))
            for x, rv, y0, y1 in verticals[lo:hi]:
                # strictly inside the piece, the crossing is strictly inside the slab
                if rv != rd and (
                    left < x * dy < right or segments_properly_cross(a, b, (x, y0), (x, y1))
                ):
                    pairs.add((rd, rv) if rd < rv else (rv, rd))
            pieces.append((left // dy, -(-right // dy), rd, a, b, top, bottom, dy))
        pieces.sort()
        for j, (_, right_j, rj, aj, bj, top_j, bottom_j, dy_j) in enumerate(pieces):
            for left_k, _, rk, ak, bk, top_k, bottom_k, dy_k in pieces[j + 1 :]:
                if left_k > right_j:
                    break
                if rj == rk:
                    continue
                # the signs of their x difference at the slab's top and bottom
                # rows: strictly opposite means a crossing strictly inside
                order = (top_j * dy_k - top_k * dy_j) * (bottom_j * dy_k - bottom_k * dy_j)
                if order < 0 or (order == 0 and segments_properly_cross(aj, bj, ak, bk)):
                    pairs.add((rj, rk) if rj < rk else (rk, rj))
    return len(pairs)


def _diagonal_meets_horizontals(
    diagonal: tuple[int, Point, Point],
    h_rows: list[int],
    horizontals: dict[int, list[tuple[int, int, int]]],
    pairs: set[tuple[int, int]],
) -> None:
    """Record the horizontals a diagonal crosses on its interior rows.

    On an interior row the diagonal's point is interior to it, so the pair
    crosses properly exactly when that point lies strictly inside the
    horizontal's x-range.
    """
    rd, a, b = diagonal
    dy = b[1] - a[1]
    dx = b[0] - a[0]
    for row in h_rows[bisect_right(h_rows, a[1]) : bisect_left(h_rows, b[1])]:
        at = a[0] * dy + (row - a[1]) * dx  # dy times the diagonal's x on this row
        hs = horizontals[row]
        for x0, x1, rh in hs[: bisect_left(hs, (-(-at // dy),))]:
            if x0 * dy < at < x1 * dy and rh != rd:
                pairs.add((rh, rd) if rh < rd else (rd, rh))


def count_bends(layout: Layout) -> int:
    """Interior polyline corners, summed over all drawn routes."""
    total = 0
    for route in layout.routes.values():
        for i in range(1, len(route) - 1):
            if orientation(route[i - 1], route[i], route[i + 1]) != 0:
                total += 1
            else:
                # collinear: a reversal still changes direction
                ax = route[i][0] - route[i - 1][0]
                ay = route[i][1] - route[i - 1][1]
                bx = route[i + 1][0] - route[i][0]
                by = route[i + 1][1] - route[i][1]
                if ax * bx + ay * by < 0:
                    total += 1
    return total


def measure(layout: Layout) -> MetricsReport:
    """Full report: crossings, bends, and the enclosing-rectangle numbers.

    Width counts distinct columns used by vertices or route points (lanes
    included); height is the count of distinct rows in use minus one, i.e.
    the maximum row index; area is their product.
    """
    xs = set(layout.x.values())
    ys = set(layout.y.values())
    for route in layout.routes.values():
        for px, py in route:
            xs.add(px)
            ys.add(py)
    width = len(xs)
    height = max(len(ys) - 1, 0)
    return MetricsReport(
        crossings=count_crossings(layout),
        bends=count_bends(layout),
        width=width,
        height=height,
        area=width * height,
    )


def count_vertex_touches(layout: Layout) -> int:
    """Routes passing exactly through a non-incident vertex's grid point.

    These are conservative non-crossings for the metric; each (edge, vertex)
    incidence counts once so drawings can be flagged for review. Vertices
    are looked up, not scanned: verticals and horizontals bisect the sorted
    vertices of their column or row, and diagonals visit their lattice
    points.
    """
    at: dict[Point, list[int]] = {}
    by_column: dict[int, list[tuple[int, int]]] = {}  # x -> sorted (y, vertex)
    by_row: dict[int, list[tuple[int, int]]] = {}  # y -> sorted (x, vertex)
    for v, x in layout.x.items():
        y = layout.y[v]
        at.setdefault((x, y), []).append(v)
        by_column.setdefault(x, []).append((y, v))
        by_row.setdefault(y, []).append((x, v))
    for line in (*by_column.values(), *by_row.values()):
        line.sort()
    touches = 0
    for (u, w), route in layout.routes.items():
        hit: set[int] = set()
        for a, b in route_segments(route):
            if a[0] == b[0] or a[1] == b[1]:
                line, axis = (by_column.get(a[0]), 1) if a[0] == b[0] else (by_row.get(a[1]), 0)
                if line:
                    lo, hi = sorted((a[axis], b[axis]))
                    hit.update(
                        v for _, v in line[bisect_left(line, (lo,)) : bisect_left(line, (hi + 1,))]
                    )
            else:
                dx = b[0] - a[0]
                dy = b[1] - a[1]
                steps = gcd(dx, dy)
                sx, sy = dx // steps, dy // steps
                for k in range(steps + 1):
                    hit.update(at.get((a[0] + k * sx, a[1] + k * sy), ()))
        hit.discard(u)
        hit.discard(w)
        touches += len(hit)
    return touches
