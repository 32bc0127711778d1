"""Cross-edge routing rules and per-target bundling.

A cross edge's bend count is fixed by the vertical distance between its
endpoints: none at distance one (a straight, possibly diagonal segment),
one at distance two (corner on a gap lane), two beyond that (a vertical
trunk leg on a gap lane). Incoming cross edges of one vertex, except those
at distance one, may share a trunk placed in the gap immediately left of
the target's path.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

BUNDLE, SINGLE = "bundle", "edge"


class GapOccupant(NamedTuple):
    """One packed item in an inter-path gap: a shared trunk or a lone route."""

    kind: str
    start_row: int
    finish_row: int
    target: int
    members: tuple[tuple[int, int], ...]


def gap_occupants(
    rows: dict[int, int] | list[int],
    path_of: dict[int, int] | list[int],
    cross_edges,
    bundle_incoming: bool,
) -> dict[int, list[GapOccupant]]:
    """Group cross edges into per-gap occupants for lane packing.

    The gap key is the target's path index (lanes sit immediately left of
    that path's spine). Distance-1 edges need no lane. With bundling on,
    targets with two or more qualifying incoming edges get one shared
    occupant spanning from the lowest source row to the target row; a lone
    qualifying edge keeps an individual occupant, spanning its own rows at
    distance three or more and only its corner row at distance two.
    ``cross_edges`` are (u, v) tuples in any order; already sorted ones cost
    the least, since they are sorted again for a deterministic result.
    """
    qualifying = [e for e in sorted(cross_edges) if not -2 < rows[e[1]] - rows[e[0]] < 2]
    occupants: defaultdict[int, list[GapOccupant]] = defaultdict(list)
    singles = qualifying
    if bundle_incoming:
        by_target: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
        for e in qualifying:
            by_target[e[1]].append(e)
        for v in sorted(by_target):
            edges = by_target[v]
            if len(edges) < 2:
                continue
            lo = hi = rows[v]
            for u, _ in edges:
                row = rows[u]
                if row < lo:
                    lo = row
                elif row > hi:
                    hi = row
            occupants[path_of[v]].append(GapOccupant(BUNDLE, lo, hi, v, tuple(edges)))
        # a filter of the sorted list stays sorted
        singles = [e for e in qualifying if len(by_target[e[1]]) < 2]
    for e in singles:
        u, v = e
        lo, hi = rows[u], rows[v]
        if lo > hi:
            lo, hi = hi, lo
        if hi - lo == 2:
            hi = lo  # only the corner row occupies the lane
        occupants[path_of[v]].append(GapOccupant(SINGLE, lo, hi, v, (e,)))
    return dict(occupants)
