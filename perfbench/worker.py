"""One benchmark process: set up, run a closed loop of jobs, check every output.

``run.py`` starts this file in a fresh single-threaded process. It imports
``pathdraw`` from the checkout's ``src``, generates the workload's input
pool from the seed, writes the input files and draws the first input once
untimed. It then prints ``ready <monotonic time>`` so the parent can time
set-up from process start. A ``setup`` process stops there. A ``run``
process goes on to the timed loop: one client, each job started when the
previous one has finished and been checked, cycling over the pool until
``--seconds`` have passed and every input has been drawn. The last line it
prints is a JSON object with the run's metrics.

With ``--trace 1`` the loop runs whole passes over the pool, each input once
plain and once traced, and reports per-layer self times and counts per pass
instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import checks
import gen
import speed
from spans import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

# outputs of inputs with at most this many edges get a brute-force crossing count
BRUTE_FORCE_EDGES = 2000

pathdraw = None  # the package under test, imported by main()


class Input(NamedTuple):
    name: str
    n: int
    m: int
    edges: Path
    paths: Path | None


class Family(NamedTuple):
    pool: int
    make: Callable  # rng -> (n, edges[, paths])
    job: str  # "cli" or "library"


# Sizes keep one job under about a second on one core, so a run holds a few
# dozen jobs; NOTES.md gives the reasons.
WORKLOADS = {
    "report": Family(10, lambda rng: gen.uniform_dag(300, 1.6, rng), "cli"),
    "chains": Family(6, lambda rng: gen.chains(20, 200, rng), "library"),
    "sprawl": Family(4, lambda rng: gen.sprawl(10_000, 4.0, 0.05, rng), "library"),
}


class JobFailed(Exception):
    pass


def build_pool(workload: str, seed: int, directory: Path) -> list[Input]:
    family = WORKLOADS[workload]
    pool = []
    for i in range(family.pool):
        made = family.make(gen.seeded_rng(workload, seed, i))
        n, edges = made[0], made[1]
        paths = made[2] if len(made) > 2 else None
        edge_file, path_file = gen.write_inputs(directory, f"in{i}", n, edges, paths)
        pool.append(Input(f"in{i}", n, len(edges), edge_file, path_file))
    return pool


def input_digest(pool: list[Input]) -> str:
    files = [f for inp in pool for f in (inp.edges, inp.paths) if f is not None]
    return gen.digest(files)


def cli_job(inp: Input, out: Path):
    """``layout IN --svg S`` then ``layout IN --json J --metrics``."""
    with contextlib.redirect_stdout(io.StringIO()):
        codes = (
            pathdraw.cli.main(["layout", str(inp.edges), "--svg", str(out / "out.svg")]),
            pathdraw.cli.main(
                ["layout", str(inp.edges), "--json", str(out / "out.json"), "--metrics"]
            ),
        )
    if codes != (0, 0):
        raise JobFailed(f"exit codes {codes}")
    return None


def library_job(inp: Input, out: Path):
    """The README's library path, from the input files to the written SVG."""
    pd = pathdraw
    g = pd.parse_graph(inp.edges.read_text(encoding="ascii"))
    d = None
    if inp.paths is not None:
        d = pd.parse_decomposition(inp.paths.read_text(encoding="ascii"), g)
    dag = pd.remove_cycles(g).dag
    order = pd.topo_sort(dag)
    if d is None:
        d = pd.min_path_cover(dag)
    drawing = pd.draw(dag, d, order)
    (out / "out.svg").write_text(pd.render_svg(drawing.layout), encoding="utf-8")
    return d.paths


class Quality(NamedTuple):
    bends: int
    area: int
    edges_merged: int


def check_output(kind: str, inp: Input, out: Path, returned) -> tuple[list[str], Quality, str]:
    """Problems found in a job's outputs, its quality numbers and an output digest."""
    n, edges = checks.read_edge_list(inp.edges.read_text(encoding="ascii"))
    svg_bytes = (out / "out.svg").read_bytes()
    svg_geo = checks.svg_geometry(svg_bytes.decode("utf-8"))
    problems: list[str] = []
    if kind == "cli":
        json_bytes = (out / "out.json").read_bytes()
        doc = checks.json_document(json_bytes.decode("utf-8"))
        geo, paths = checks.json_geometry(doc)
        if svg_geo != geo:
            problems.append("SVG and JSON geometry differ")
        bends = checks.count_bends(geo.routes)
        if doc["metrics"]["bends"] != bends:
            problems.append(f"JSON bends {doc['metrics']['bends']}, counted {bends}")
        if inp.m <= BRUTE_FORCE_EDGES:
            crossings = checks.brute_force_crossings(geo.routes)
            if doc["metrics"]["crossings"] != crossings:
                problems.append(
                    f"JSON crossings {doc['metrics']['crossings']}, brute force {crossings}"
                )
        digest = hashlib.sha256(svg_bytes + b"\0" + json_bytes).hexdigest()
    else:
        geo = svg_geo
        if inp.paths is not None:
            paths = checks.read_path_list(inp.paths.read_text(encoding="ascii"))
        else:
            paths = [list(p) for p in returned]
        bends = checks.count_bends(geo.routes)
        digest = hashlib.sha256(svg_bytes).hexdigest()
    problems[:0] = checks.drawing_problems(n, edges, paths, geo)
    quality = Quality(bends, checks.area(geo), len(edges) - len(geo.routes))
    return problems, quality, digest


class Loop:
    """Runs jobs one after another and keeps what the checks found."""

    def __init__(self, workload: str, pool: list[Input], out: Path):
        self.kind = WORKLOADS[workload].job
        self.job_fn = cli_job if self.kind == "cli" else library_job
        self.pool = pool
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.ok_edges = 0
        self.times: list[float] = []
        self.quality: dict[str, Quality] = {}
        self.digests: dict[str, str] = {}

    def timed(self, inp: Input, wrap=contextlib.nullcontext) -> float:
        """Run one job and check it; returns the job's wall time."""
        for f in self.out.iterdir():
            f.unlink()
        gc.collect()
        self.attempted += 1
        returned = error = None
        with wrap():
            t0 = time.perf_counter()
            try:
                returned = self.job_fn(inp, self.out)
            except (Exception, SystemExit):  # a failed job, not a failed benchmark
                error = traceback.format_exc()
            elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        if error is None:
            error = self._check(inp, returned)
        if error is not None:
            self.failed += 1
            sys.stderr.write(f"perfbench: job on {inp.name} failed: {error}\n")
        else:
            self.ok_edges += inp.m
        return elapsed

    def _check(self, inp: Input, returned) -> str | None:
        try:
            if inp.name in self.digests:
                digest = hashlib.sha256(
                    b"\0".join(
                        (self.out / f).read_bytes()
                        for f in ("out.svg", "out.json")
                        if (self.out / f).exists()
                    )
                ).hexdigest()
                if digest != self.digests[inp.name]:
                    return "output differs from the checked output of the same input"
                return None
            problems, quality, digest = check_output(self.kind, inp, self.out, returned)
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            return f"unreadable output: {exc}"
        if problems:
            return "; ".join(problems)
        self.digests[inp.name] = digest
        self.quality[inp.name] = quality
        return None


def warm_up(loop: Loop) -> None:
    try:
        loop.job_fn(loop.pool[0], loop.out)
    except (Exception, SystemExit):  # the timed jobs on this input report it
        traceback.print_exc()
    for f in loop.out.iterdir():
        f.unlink()


def end_to_end(loop: Loop, seconds: float) -> dict:
    """The timed closed loop, with the speed reference timed between jobs.

    Each job's wall time is scaled by the mean of the references timed just
    before and just after it (speed.py says why).
    """
    speed.reference()  # warm, not counted
    refs = [speed.reference()]
    t_begin = time.perf_counter()
    i = 0
    while time.perf_counter() - t_begin < seconds or i < len(loop.pool):
        loop.timed(loop.pool[i % len(loop.pool)])
        refs.append(speed.reference())
        i += 1
    scaled = [
        t * speed.NOMINAL_S / ((before + after) / 2)
        for t, before, after in zip(loop.times, refs, refs[1:])
    ]
    q = loop.quality.values()
    return {
        "metrics": {
            "edges_per_s": (loop.ok_edges / sum(scaled), "1/s"),
            "job_s.p50": (statistics.median(scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": ((loop.attempted - loop.failed) / loop.attempted, "frac"),
            "bends": (sum(x.bends for x in q), "count"),
            "area": (sum(x.area for x in q), "cells"),
        },
        "info": {
            "jobs": len(loop.times),
            "edges_merged": sum(x.edges_merged for x in q),
            "wall_job_s.p50": statistics.median(loop.times),
            "reference_s.p50": statistics.median(refs),
        },
    }


# A name ending in .s or .self_s is the self time of the span it names;
# any other name is a counter.
PER_LAYER = (
    "graph.parse_graph.s",
    "graph.remove_cycles.s",
    "graph.topo_sort.s",
    "graph.reversed_edges",
    "graph.edges_merged",
    "decomposition.min_path_cover.s",
    "decomposition.parse_decomposition.s",
    "decomposition.classify_edges.s",
    "decomposition.paths",
    "decomposition.transitive_edges",
    "decomposition.cross_edges",
    "bundling.transitive_bundles.s",
    "bundling.pack_intervals.s",
    "bundling.reorder_lanes.s",
    "bundling.bundles",
    "bundling.lanes",
    "routing.gap_occupants.s",
    "routing.occupants",
    "drawing.draw.self_s",
    "drawing.columns",
    "metrics.count_crossings.s",
    "metrics.count_bends.s",
    "metrics.measure.self_s",
    "metrics.count_vertex_touches.s",
    "metrics.crossings",
    "metrics.touches",
    "render.render_svg.s",
    "render.render_json.s",
    "render.bytes",
    "layout.assert_properties.s",
    "pipeline.run_pipeline_full.self_s",
    "cli.main.self_s",
)


def span_of(metric: str) -> str | None:
    for suffix in (".self_s", ".s"):
        if metric.endswith(suffix):
            return metric[: -len(suffix)]
    return None


def traced(loop: Loop, seconds: float, workload: str, seed: int) -> dict:
    """Whole passes over the pool, each input plain then traced."""
    tracer = Tracer()

    @contextlib.contextmanager
    def wrap():
        with tracer.installed(), tracer.span("job"):
            yield

    plain = traced_total = 0.0
    passes = 0
    t_begin = time.perf_counter()
    while passes == 0 or time.perf_counter() - t_begin < seconds:
        for inp in loop.pool:
            plain += loop.timed(inp)
            tracer.job += 1
            traced_total += loop.timed(inp, wrap)
        passes += 1
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    selfs = self_times(tracer.spans)
    metrics = {}
    for name in PER_LAYER:
        span = span_of(name)
        if span is None:
            unit = "bytes" if name == "render.bytes" else "count"
            metrics[name] = (tracer.counts[name] / passes, unit)
        else:
            metrics[name] = (selfs.get(span, 0.0) / passes, "s")
    metrics["trace.overhead_frac"] = (traced_total / plain - 1.0, "frac")
    layers: dict[str, float] = {}
    for name, t in selfs.items():
        layer = "perfbench" if name == "job" else name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + t
    total = sum(layers.values())
    return {
        "metrics": metrics,
        "info": {
            "passes": passes,
            "traced_jobs": tracer.job + 1,
            "spans": len(tracer.spans),
            "layer_share": {k: round(v / total, 4) for k, v in sorted(layers.items())},
        },
    }


def main(argv: list[str] | None = None) -> int:
    global pathdraw
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("setup", "run"), default="run")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import pathdraw as package
    import pathdraw.cli  # noqa: F401  (the CLI workload calls pathdraw.cli.main)

    pathdraw = package
    work = WORK_DIR / f"{args.workload}-{args.seed}-{args.role}-{time.monotonic_ns()}"
    out = work / "out"
    out.mkdir(parents=True)
    try:
        pool = build_pool(args.workload, args.seed, work)
        loop = Loop(args.workload, pool, out)
        warm_up(loop)
        print(f"ready {time.monotonic()!r}", flush=True)
        print(f"reference {speed.reference_median()!r}", flush=True)
        if args.role == "setup":
            return 0
        if args.trace:
            result = traced(loop, args.seconds, args.workload, args.seed)
        else:
            result = end_to_end(loop, args.seconds)
        result.update(
            attempted=loop.attempted,
            failed=loop.failed,
            checked_inputs=len(loop.quality),
            pool=len(pool),
            edges=[inp.m for inp in pool],
            digest=input_digest(pool),
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
