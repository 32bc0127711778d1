"""Span recording through import-site wrappers.

A traced job runs with each layer's public functions replaced, at the
places their callers look them up, by wrappers that record a span (name,
start, end, parent) and, for some functions, counters taken from the
arguments and result. Nothing in the program is edited: ``draw`` gets child
spans because ``pathdraw.drawing.reorder_lanes`` is wrapped, ``measure``
because ``pathdraw.metrics.count_crossings`` is, and so on. The wrappers are
removed again after each traced job, so untraced jobs run the plain code.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float
    job: int


def _edges_merged(c: Counter, args, result) -> None:
    c["graph.reversed_edges"] += len(result.reversed_edges)
    # remove_cycles flips back edges and dedupes; a flipped edge that meets
    # its reverse in a 2-cycle disappears from the drawing
    c["graph.edges_merged"] += args[0].edge_count - result.dag.edge_count


def _classified(c: Counter, args, result) -> None:
    c["decomposition.transitive_edges"] += len(result.transitive_edges)
    c["decomposition.cross_edges"] += len(result.cross_edges)


def _paths(c: Counter, args, result) -> None:
    c["decomposition.paths"] += result.path_count


def _bundles(c: Counter, args, result) -> None:
    c["bundling.bundles"] += len(result)


def _lanes(c: Counter, args, result) -> None:
    # pack_intervals packs both transitive stacks and cross-edge gaps
    if result.lanes and hasattr(result.lanes[0][0], "member_spans"):
        c["bundling.lanes"] += result.lane_count


def _occupants(c: Counter, args, result) -> None:
    c["routing.occupants"] += sum(len(items) for items in result.values())


def _columns(c: Counter, args, result) -> None:
    c["drawing.columns"] += len(result.layout.column_meta)


def _crossings(c: Counter, args, result) -> None:
    c["metrics.crossings"] += result


def _touches(c: Counter, args, result) -> None:
    c["metrics.touches"] += result


def _bytes(c: Counter, args, result) -> None:
    c["render.bytes"] += len(result)


# (module where the caller looks the function up, attribute, counter)
SITES: tuple[tuple[str, str, Callable | None], ...] = (
    # the benchmark's own library-path calls
    ("pathdraw", "parse_graph", None),
    ("pathdraw", "parse_decomposition", _paths),
    ("pathdraw", "remove_cycles", _edges_merged),
    ("pathdraw", "topo_sort", None),
    ("pathdraw", "min_path_cover", _paths),
    ("pathdraw", "draw", _columns),
    ("pathdraw", "render_svg", _bytes),
    # the CLI entry point and what it calls
    ("pathdraw.cli", "main", None),
    ("pathdraw.cli", "run_pipeline_full", None),
    ("pathdraw.cli", "render_svg", _bytes),
    ("pathdraw.cli", "render_json", _bytes),
    ("pathdraw.cli", "count_vertex_touches", _touches),
    ("pathdraw.pipeline", "parse_graph", None),
    ("pathdraw.pipeline", "remove_cycles", _edges_merged),
    ("pathdraw.pipeline", "topo_sort", None),
    ("pathdraw.pipeline", "min_path_cover", _paths),
    ("pathdraw.pipeline", "parse_decomposition", _paths),
    ("pathdraw.pipeline", "draw", _columns),
    ("pathdraw.pipeline", "assert_properties", None),
    ("pathdraw.pipeline", "measure", None),
    # inside the layers
    ("pathdraw.decomposition", "topo_sort", None),
    ("pathdraw.drawing", "topo_sort", None),
    ("pathdraw.drawing", "classify_edges", _classified),
    ("pathdraw.drawing", "transitive_bundles", _bundles),
    ("pathdraw.drawing", "pack_intervals", _lanes),
    ("pathdraw.drawing", "reorder_lanes", None),
    ("pathdraw.drawing", "gap_occupants", _occupants),
    ("pathdraw.metrics", "count_crossings", _crossings),
    ("pathdraw.metrics", "count_bends", None),
)


def span_name(fn: Callable) -> str:
    """``<layer>.<function>``, the layer being the module that defines it."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Keeps spans and counters in memory for one run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(sid, parent, name, 0.0, 0.0, self.job))
        self._stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[sid] = Span(sid, parent, name, start, end, self.job)

    def wrap(self, fn: Callable, count: Callable | None) -> Callable:
        name = span_name(fn)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, sites=SITES):
        """Wrap every site for the duration of the block, then restore it.

        A site the program no longer has is skipped; its spans read zero.
        """
        originals = []
        try:
            for module_name, attr, count in sites:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, count))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with path.open("w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "parent": s.parent,
                            "job": s.job,
                            "name": s.name,
                            "start": round(s.start - t0, 9),
                            "end": round(s.end - t0, 9),
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: duration minus the time its children cover.

    Spans come from one thread and nest, so a span's children are disjoint
    and their durations add up to the part of its interval they cover.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) - child_time[s.id]
    return totals
