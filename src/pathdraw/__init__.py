"""pathdraw: hierarchical graph drawing by vertex-disjoint path decomposition.

The drawing places each decomposition path on its own column, rows follow a
compacted topological order, transitive edges ride bundled side-lane trunks,
and cross edges route between spines with zero, one, or two bends depending
on their vertical span. Quality metrics (crossings, bends, width, height,
area) are computed on the finished integer grid.
"""

# set before the imports: render reads it while the package is loading
__version__ = "0.1.0"

from .decomposition import (
    DecompositionError,
    PathDecomposition,
    classify_edges,
    min_path_cover,
    parse_decomposition,
    validate_decomposition,
)
from .drawing import draw
from .generator import generate_random_dag
from .graph import DiGraph, GraphError, parse_graph, remove_cycles, topo_sort
from .layout import InvariantError
from .metrics import count_bends, measure
from .pipeline import PipelineResult, StageError, run_pipeline_full
from .render import render_json, render_svg
