"""Layout quality metrics: crossings, bends, width, height, area.

All coordinates are grid integers, so every comparison is exact and there
is no epsilon anywhere. A crossing is a pair of edge routes whose polylines
cross transversally at a point that is not a shared endpoint vertex;
touches, T-junctions, and collinear overlaps (bundle trunks) do not count.
A route passing exactly through some other vertex's grid point is not a
crossing either; it is reported separately as a layout-quality warning.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import gcd

from .layout import Layout, MetricsReport, Point, grid_lines

def count_crossings(layout: Layout) -> int:
    """Number of unordered route pairs that cross.

    Orthogonal segment intersection reporting (Bentley & Wood 1980): every
    route is split into horizontal, vertical and diagonal segments, and the
    distinct endpoint rows are swept top to bottom with a column-sorted list
    of the verticals that strictly span the current row, and beside it the
    list of their route ids. Every crossing lies on a sweep row or strictly
    inside the slab between two consecutive ones, and is settled there.

    At a row's event, the verticals and diagonals left in the sweep all span
    the row strictly, so each crossing on the row is proper exactly when
    its point is interior to the other segment too. A horizontal on the row
    crosses the verticals strictly inside its x-range, a slice of the sorted
    list added with one set update, and the diagonals whose x on the row is
    strictly inside that range. A diagonal crosses the verticals on its
    column when its x on the row is a whole number, and another diagonal
    with the same x and a different slope. In a slab, a diagonal crosses
    the verticals strictly between its columns at the slab's top and bottom
    rows, again one slice, and two diagonals cross when their order at the
    top row is the reverse of their order at the bottom row. Every test is
    an exact integer comparison. Route pairs are deduplicated in a set of
    integers, ``i * R + j`` for routes ``i < j`` of ``R``, since two routes
    can cross more than once. With the diagonals ``draw`` emits (one or two
    rows each), this costs O((s + K) log s) time and O(K) memory for s
    segments and K segment crossings reported, until crossings are counted
    as crossing points rather than reported as route pairs.
    """
    horizontals: dict[int, list[tuple[int, int, int]]] = {}  # row -> (x0, x1, route)
    v_start: dict[int, list[tuple[int, int, int, int]]] = {}  # y0 -> (x, route, y0, y1)
    v_end: dict[int, list[tuple[int, int, int, int]]] = {}  # y1 -> same
    diagonals: list[tuple[int, int, int, int, int]] = []  # (route, x0, y0, dx, dy), dy > 0
    d_start: dict[int, list[int]] = {}  # row -> diagonal indices
    d_end: dict[int, list[int]] = {}
    for rid, route in enumerate(layout.routes.values()):
        for a, b in zip(route, route[1:]):
            if a == b:
                continue
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
                diagonals.append((rid, a[0], a[1], b[0] - a[0], b[1] - a[1]))
    for hs in horizontals.values():
        hs.sort()

    r = len(layout.routes)
    pairs: set[int] = set()  # i * r + j for crossing routes i < j
    rows = sorted({*horizontals, *v_start, *v_end, *d_start, *d_end})
    verticals: list[tuple[int, int, int, int]] = []  # sorted by column
    vroutes: list[int] = []  # the route of each entry of verticals
    active: set[int] = set()  # diagonals spanning the slab below the row
    for i, row in enumerate(rows):
        for item in v_end.get(row, ()):
            k = bisect_left(verticals, item)
            del verticals[k], vroutes[k]
        for k in d_end.get(row, ()):
            active.remove(k)
        # the row event: every vertical and diagonal left spans the row strictly
        hs = horizontals.get(row, ())
        for x0, x1, rh in hs:
            lo = bisect_left(verticals, (x0 + 1,))
            hi = bisect_left(verticals, (x1,), lo)
            if lo < hi:
                pairs.update(_pair_keys(rh, vroutes[lo:hi], r))
        # x on the row as a reduced fraction -> (route, dx, dy) of the diagonals there
        meeting: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for k in active:
            rd, x, y, dx, dy = diagonals[k]
            at = x * dy + (row - y) * dx  # dy times the diagonal's x on this row
            for x0, x1, rh in hs[: bisect_left(hs, (-(-at // dy),))]:
                if at < x1 * dy and rh != rd:
                    pairs.add(rh * r + rd if rh < rd else rd * r + rh)
            if at % dy == 0:
                lo = bisect_left(verticals, (at // dy,))
                hi = bisect_left(verticals, (at // dy + 1,), lo)
                pairs.update(_pair_keys(rd, vroutes[lo:hi], r))
            g = gcd(at, dy)
            meeting.setdefault((at // g, dy // g), []).append((rd, dx, dy))
        for group in meeting.values():
            for j, (rj, dx_j, dy_j) in enumerate(group):
                for rk, dx_k, dy_k in group[j + 1 :]:
                    if rj != rk and dx_j * dy_k != dx_k * dy_j:
                        pairs.add(rj * r + rk if rj < rk else rk * r + rj)
        for item in v_start.get(row, ()):
            k = bisect_left(verticals, item)
            verticals.insert(k, item)
            vroutes.insert(k, item[1])
        active.update(d_start.get(row, ()))
        if not active:
            continue
        # slab (row, below): every vertical and diagonal left active covers it
        below = rows[i + 1]
        pieces = []
        for k in active:
            rd, x, y, dx, dy = diagonals[k]
            # dy times the diagonal's x at the slab's top and bottom rows
            top = x * dy + (row - y) * dx
            bottom = x * dy + (below - y) * dx
            left, right = min(top, bottom), max(top, bottom)
            # left < x * dy < right: the crossing is strictly inside the slab
            lo = bisect_left(verticals, (left // dy + 1,))
            hi = bisect_left(verticals, (-(-right // dy),), lo)
            if lo < hi:
                pairs.update(_pair_keys(rd, vroutes[lo:hi], r))
            pieces.append((left // dy, -(-right // dy), rd, top, bottom, dy))
        pieces.sort()
        for j, (_, right_j, rj, top_j, bottom_j, dy_j) in enumerate(pieces):
            for left_k, _, rk, top_k, bottom_k, dy_k in pieces[j + 1 :]:
                if left_k > right_j:
                    break
                # the signs of their x difference at the slab's top and bottom
                # rows: strictly opposite means a crossing strictly inside
                order = (top_j * dy_k - top_k * dy_j) * (bottom_j * dy_k - bottom_k * dy_j)
                if order < 0 and rj != rk:
                    pairs.add(rj * r + rk if rj < rk else rk * r + rj)
    return len(pairs)


def _pair_keys(route: int, others: list[int], r: int) -> list[int]:
    """The pair keys of ``route`` with each of ``others`` but itself."""
    return [o * r + route if o < route else route * r + o for o in others if o != route]


def count_bends(layout: Layout) -> int:
    """Interior polyline corners, summed over all drawn routes.

    A point is a corner when its two segments are not collinear, or when
    they are and the route reverses there.
    """
    total = 0
    for route in layout.routes.values():
        for i in range(1, len(route) - 1):
            (x0, y0), (x1, y1), (x2, y2) = route[i - 1], route[i], route[i + 1]
            dx1, dy1, dx2, dy2 = x1 - x0, y1 - y0, x2 - x1, y2 - y1
            if dx1 * dy2 != dy1 * dx2 or dx1 * dx2 + dy1 * dy2 < 0:
                total += 1
    return total


def measure(layout: Layout) -> MetricsReport:
    """Full report: crossings, bends, and the enclosing-rectangle numbers.

    Width counts distinct columns used by vertices or route points (lanes
    included); height is the count of distinct rows in use minus one; area
    is their product. On every drawing ``draw`` makes the rows run 0..h
    with no gap, so the height is also the maximum row index; on a
    ``Layout`` with gaps between its rows, or rows below 0, it is not.
    """
    columns, rows = grid_lines(layout)
    width = len(columns)
    height = max(len(rows) - 1, 0)
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
    are looked up, not scanned: each row and each column keeps its vertices
    as two parallel tuples, the sorted coordinates along the line and the
    vertex ids, so a vertical or horizontal adds the ids of the slice it
    spans in one set update; diagonals visit their lattice points.
    """
    at: dict[Point, list[int]] = {}
    by_column: dict[int, list[tuple[int, int]]] = {}  # x -> (y, vertex)
    by_row: dict[int, list[tuple[int, int]]] = {}  # y -> (x, vertex)
    for v, x in layout.x.items():
        y = layout.y[v]
        at.setdefault((x, y), []).append(v)
        by_column.setdefault(x, []).append((y, v))
        by_row.setdefault(y, []).append((x, v))
    # line -> (sorted coordinates along it, the vertex at each)
    columns = {x: tuple(zip(*sorted(line))) for x, line in by_column.items()}
    rows = {y: tuple(zip(*sorted(line))) for y, line in by_row.items()}
    touches = 0
    for (u, w), route in layout.routes.items():
        hit: set[int] = set()
        for a, b in zip(route, route[1:]):
            if a == b:
                continue
            if a[0] == b[0] or a[1] == b[1]:
                line, axis = (columns.get(a[0]), 1) if a[0] == b[0] else (rows.get(a[1]), 0)
                if line:
                    coords, ids = line
                    lo, hi = sorted((a[axis], b[axis]))
                    hit.update(ids[bisect_left(coords, lo) : bisect_right(coords, hi)])
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
