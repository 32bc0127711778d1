"""Command-line front end: layout, gen, and bench subcommands.

``layout`` reads the edge list and the optional path list, passes the graph
and the path text to the pipeline, and writes what its flags ask for; ``gen``
writes one generated graph. ``bench`` draws a generated graph for each size
and seed, in the order given, and writes one CSV row per graph: its id, n,
m, crossings, bends, width, height, area and ``wall_ms``, the wall time of
its ``run_pipeline_full`` call in milliseconds, rounded to three places.
That call covers cycle removal, the topological sort, the path cover, the
drawing and the self-check; generation, metrics and I/O stay outside the
clock. The median of those times per size follows, sorted by size, with
repeated sizes pooled. The rows go to ``--out`` if given, else to stdout
before the medians.

Exit codes: 0 on success, 2 on input errors (bad flags, bad or non-UTF-8
files, invalid decompositions, unwritable outputs), 3 on internal errors: a
failed self-check or any other exception raised inside a stage. Past the
flags, every failure is reported with its stage, reads and writes included.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from statistics import median

from .decomposition import DecompositionError
from .generator import generate_random_dag
from .graph import GraphError, check_vertex_count, serialize_graph
from .metrics import count_vertex_touches
from .pipeline import StageError, read_graph, run_pipeline_full, run_stage
from .render import metrics_block, render_json, render_svg

# causes that are the input's fault, not the program's: exit 2
_INPUT_ERRORS = (GraphError, DecompositionError, OSError, UnicodeDecodeError)


def _sizes(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _seed_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathdraw",
        description="Hierarchical graph drawing by path decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_layout = sub.add_parser("layout", help="draw a graph from an edge-list file")
    p_layout.add_argument("input", help="edge-list file")
    p_layout.add_argument(
        "--paths", metavar="FILE", help="path-list file (default: a minimum path cover)"
    )
    p_layout.add_argument("--no-compact", action="store_true", help="keep topological rows")
    p_layout.add_argument(
        "--no-bundle-transitive", action="store_true", help="hide transitive edges"
    )
    p_layout.add_argument(
        "--no-bundle-cross", action="store_true", help="route cross edges individually"
    )
    p_layout.add_argument("--no-reorder", action="store_true", help="skip lane reordering")
    p_layout.add_argument("--svg", metavar="FILE", help="write an SVG drawing")
    p_layout.add_argument("--json", metavar="FILE", help="write the JSON layout document")
    p_layout.add_argument("--metrics", action="store_true", help="print the metrics block")
    p_layout.add_argument("--seed", type=int, default=None, help="seed recorded in metadata")
    p_layout.set_defaults(func=_cmd_layout)

    p_gen = sub.add_parser("gen", help="generate a random DAG edge-list file")
    p_gen.add_argument("--n", type=int, required=True, help="vertex count")
    p_gen.add_argument("--deg", type=float, required=True, help="edges per node")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True, metavar="FILE")
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="time the pipeline over generated graphs")
    p_bench.add_argument(
        "--sizes", type=_sizes, default="20,50,100", help="comma-separated vertex counts"
    )
    p_bench.add_argument("--deg", type=float, default=1.6, help="edges per node")
    p_bench.add_argument("--seeds", type=_seed_count, default=2, help="seeds per size, at least 1")
    p_bench.add_argument("--out", metavar="CSV", help="write rows as CSV")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def _cmd_layout(args: argparse.Namespace) -> int:
    g = read_graph(args.input)
    paths_text = None
    if args.paths is not None:
        paths_text = run_stage("read-paths", Path(args.paths).read_text, encoding="utf-8")
    toggles = {
        "compact": not args.no_compact,
        "bundle_transitive": not args.no_bundle_transitive,
        "bundle_cross": not args.no_bundle_cross,
        "reorder": not args.no_reorder,
    }
    result = run_pipeline_full(g, paths_text, **toggles)
    layout = result.drawing.layout
    # result.metrics is computed on first read, so --svg alone never pays for it
    if args.svg:
        svg = run_stage("render", render_svg, layout)
        run_stage("write", Path(args.svg).write_text, svg, encoding="utf-8")
    if args.json:
        doc = run_stage(
            "render",
            render_json,
            layout,
            result.metrics,
            bundles=result.drawing.bundles,
            seed=args.seed,
            toggles=toggles,
        )
        run_stage("write", Path(args.json).write_text, doc, encoding="utf-8")
    if args.metrics:
        touches = run_stage("metrics", count_vertex_touches, layout)
        run_stage("write", sys.stdout.write, metrics_block(result.metrics, touches))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    run_stage("generate", check_vertex_count, args.n)  # else layout could not read it
    g = run_stage("generate", generate_random_dag, args.n, args.deg, args.seed)
    run_stage("write", Path(args.out).write_text, serialize_graph(g), encoding="utf-8")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    # nothing is written until the whole suite has run, so a failed graph
    # leaves no partial CSV
    lines = ["graph_id,n,m,crossings,bends,width,height,area,wall_ms\n"]
    walls: dict[int, list[float]] = {}
    for n in args.sizes:
        for s in range(1, args.seeds + 1):
            g = run_stage("generate", generate_random_dag, n, args.deg, s)
            start = time.perf_counter()
            result = run_pipeline_full(g)
            wall_ms = round((time.perf_counter() - start) * 1000.0, 3)
            metrics = result.metrics
            walls.setdefault(n, []).append(wall_ms)
            lines.append(
                f"n{n}-d{args.deg}-s{s},{n},{result.graph.edge_count},"
                f"{metrics.crossings},{metrics.bends},{metrics.width},{metrics.height},"
                f"{metrics.area},{wall_ms}\n"
            )
    csv_text = "".join(lines)
    text = "".join(f"median n={n}: {median(ms):.3f} ms\n" for n, ms in sorted(walls.items()))
    if args.out:
        run_stage("write", Path(args.out).write_text, csv_text, encoding="utf-8")
    else:
        text = csv_text + text
    run_stage("write", sys.stdout.write, text)
    return 0


# built once, after the handlers it dispatches to; building costs about ten
# times what one parse does
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc.cause, _INPUT_ERRORS) else 3


if __name__ == "__main__":
    raise SystemExit(main())
