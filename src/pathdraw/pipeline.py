"""Pipeline orchestration: graph to finished drawing, metrics on demand.

``run_pipeline_full`` takes a graph and runs its stages in a fixed order --
cycle removal, topological sort, decomposition (parsed from the given path
list, else a minimum path cover), drawing (row placement and compaction,
transitive bundling with lane packing and reorder, cross-edge gap routing,
grid assembly), the self-check ``layout.assert_properties``, which raises
``InvariantError`` when a compacted layout breaks a property. ``read_graph``
reads and parses an edge-list file first. ``topo_sort`` keeps its ranks on
the DAG, so the path cover and the drawing reuse them: ``draw`` compacts
the rows visiting the vertices in rank order, and with compaction off puts
each vertex on the row of its rank. Metrics are computed only when
``PipelineResult.metrics`` is first read. Any stage failure, a failed
self-check included, is re-raised with the stage name. The
wall-clock window that the benchmark reports covers cycle removal, the
topological sort, and the drawing stages; reading and parsing, the
path-cover computation (part of the input in this framework), metrics, and
file emission stay outside the clock. ``bench`` runs the pipeline over a
generated suite and keeps one timed row per graph; medians over seeds damp
scheduler noise.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, fields
from functools import cached_property
from pathlib import Path
from statistics import median

from .decomposition import min_path_cover, parse_decomposition
from .drawing import Drawing, draw
from .generator import generate_random_dag
from .graph import DiGraph, parse_graph, remove_cycles, topo_sort
from .layout import MetricsReport, assert_properties
from .metrics import measure


class StageError(Exception):
    def __init__(self, stage: str, cause: Exception):
        # a cause with an empty message, such as MemoryError(), names its type
        super().__init__(f"stage '{stage}': {str(cause) or type(cause).__name__}")
        self.stage = stage
        self.cause = cause


@dataclass
class PipelineResult:
    drawing: Drawing
    graph: DiGraph
    draw_ms: float

    @cached_property
    def metrics(self) -> MetricsReport:
        """Quality metrics of the layout, computed on first access."""
        return run_stage("metrics", measure, self.drawing.layout)


def run_stage(name: str, fn, *args, **kwargs):
    """Run one stage; any exception it raises becomes a ``StageError``."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise StageError(name, exc) from exc


def read_graph(path: str) -> DiGraph:
    """Read and parse an edge-list file, each step in its own stage."""
    text = run_stage("read", Path(path).read_text, encoding="utf-8")
    return run_stage("parse", parse_graph, text)


def run_pipeline_full(
    g: DiGraph,
    paths_text: str | None = None,
    *,
    compact: bool = True,
    bundle_transitive: bool = True,
    bundle_cross: bool = True,
    reorder: bool = True,
) -> PipelineResult:
    """Draw ``g``, on the paths listed in ``paths_text`` or on a minimum path cover."""
    t0 = time.perf_counter()
    removal = run_stage("cycle-removal", remove_cycles, g)
    dag = removal.dag
    run_stage("topo-sort", topo_sort, dag)
    timed = time.perf_counter() - t0

    if paths_text is not None:
        d = run_stage(
            "decomposition", parse_decomposition, paths_text, dag, removal.reversed_edges
        )
    else:
        d = run_stage("decomposition", min_path_cover, dag)

    t1 = time.perf_counter()
    drawing = run_stage(
        "draw",
        draw,
        dag,
        d,
        compact_rows=compact,
        bundle_transitive_edges=bundle_transitive,
        bundle_cross_incoming=bundle_cross,
        reorder=reorder,
    )
    timed += time.perf_counter() - t1

    if compact:
        run_stage("self-check", assert_properties, dag, drawing.layout)

    return PipelineResult(drawing=drawing, graph=dag, draw_ms=timed * 1000.0)


@dataclass(frozen=True)
class BenchRow:
    graph_id: str
    n: int
    m: int
    crossings: int
    bends: int
    width: int
    height: int
    area: int
    wall_ms: float


def bench(sizes, degree: float, seeds: int) -> list[BenchRow]:
    """Run the pipeline over a generated suite; rows follow suite order."""
    rows: list[BenchRow] = []
    for n in sizes:
        for s in range(1, seeds + 1):
            g = run_stage("generate", generate_random_dag, n, degree, s)
            result = run_pipeline_full(g)
            rows.append(
                BenchRow(
                    graph_id=f"n{n}-d{degree}-s{s}",
                    n=n,
                    m=result.graph.edge_count,
                    crossings=result.metrics.crossings,
                    bends=result.metrics.bends,
                    width=result.metrics.width,
                    height=result.metrics.height,
                    area=result.metrics.area,
                    wall_ms=round(result.draw_ms, 3),
                )
            )
    return rows


def median_wall_ms(rows: list[BenchRow]) -> dict[int, float]:
    """Median drawing time per graph size."""
    by_n: dict[int, list[float]] = {}
    for row in rows:
        by_n.setdefault(row.n, []).append(row.wall_ms)
    return {n: median(times) for n, times in sorted(by_n.items())}


def rows_to_csv(rows: list[BenchRow]) -> str:
    """CSV text: a header of ``BenchRow``'s field names, then one line per row."""
    lines = [",".join(f.name for f in fields(BenchRow))]
    lines.extend(",".join(map(str, astuple(r))) for r in rows)
    return "\n".join(lines) + "\n"
