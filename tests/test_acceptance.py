"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing one PASS line on success (run with -s to see them).

The shared fixture is a 200-graph suite over sizes {20, 50, 100} and
densities {1.6, 5.6} edges per node, drawn with every stage enabled.
"""

from __future__ import annotations

import os
import random
import sys
import time
import tracemalloc
from itertools import product
from statistics import median

import pytest
from oracles import (
    _orient,
    bends_for_distance,
    chains_dag,
    cross_routes_of,
    cyclic_digraph_edges,
    crossing_pairs_bruteforce,
    longest_ending_at_bruteforce,
    longest_path_ending_at,
    many_lane_dag,
    max_overlap_depth,
    min_cover_bruteforce,
    nested_span_dag,
    segment_count,
)
import pathdraw
from pathdraw import (
    DiGraph,
    draw,
    generate_random_dag,
    min_path_cover,
    parse_graph,
    remove_cycles,
    render_svg,
    topo_sort,
)
from pathdraw.bundling import BundleInterval, pack_intervals
from pathdraw.cli import main
from pathdraw.graph import serialize_graph
from pathdraw.metrics import count_crossings

SIZES = (20, 50, 100)
DEGREES = (1.6, 5.6)
SUITE_SIZE = 200

_cache: dict = {}


def _suite():
    """200 drawn random DAGs; built once and reused across criteria."""
    if "suite" not in _cache:
        combos = list(product(SIZES, DEGREES))
        entries = []
        for i in range(SUITE_SIZE):
            n, degree = combos[i % len(combos)]
            g = generate_random_dag(n, degree, seed=1000 + i)
            d = min_path_cover(g)
            entries.append((g, d, draw(g, d)))
        _cache["suite"] = entries
    return _cache["suite"]


def _report(num: int, text: str) -> None:
    print(f"criterion {num:2d} PASS: {text}")


def test_criterion_01_compacted_height_equals_longest_path():
    start = time.perf_counter()
    for g, d, drawing in _suite():
        expected = max(longest_path_ending_at(g).values())
        assert max(drawing.layout.y.values()) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, f"height == L on {SUITE_SIZE} graphs, exact ({elapsed:.2f}s)")


def test_criterion_02_per_vertex_rows_equal_longest_path_table():
    # the oracle itself is cross-checked by full path enumeration first
    for seed in range(30):
        rng = random.Random(seed)
        g = generate_random_dag(rng.randrange(2, 13), rng.uniform(0.8, 2.0), seed)
        assert longest_path_ending_at(g) == longest_ending_at_bruteforce(g)
    for g, d, drawing in _suite():
        assert drawing.layout.y == longest_path_ending_at(g)
    _report(2, f"y(v) == longest-path-ending-at(v) on {SUITE_SIZE} graphs, exact")


def test_criterion_03_interval_packing_optimality():
    start = time.perf_counter()
    rng = random.Random(99)
    for case in range(100):
        count = rng.randrange(1, 51)
        spans = []
        for _ in range(count):
            s = rng.randrange(0, 80)
            spans.append((s, s + rng.randrange(0, 20)))
        intervals = [
            BundleInterval(
                path_index=0,
                anchor=i,
                members=((i, 1000 + i),),
                start_row=s,
                finish_row=f,
                member_spans=((s, f),),
            )
            for i, (s, f) in enumerate(spans)
        ]
        assert pack_intervals(intervals).lane_count == max_overlap_depth(spans)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, f"lane count == max overlap depth on 100 sets ({elapsed:.2f}s)")


def test_criterion_04_cross_edge_bend_rule():
    checked = 0
    for g, d, drawing in _suite():
        lay = drawing.layout
        for route in cross_routes_of(drawing):
            u, v = route.edge
            distance = lay.y[v] - lay.y[u]
            corners = sum(
                1
                for a, b, c in zip(route.polyline, route.polyline[1:], route.polyline[2:])
                if _orient(*a, *b, *c) != 0
            )
            assert route.bends == bends_for_distance(distance)
            assert corners == route.bends
            checked += 1
    assert checked > 0
    _report(4, f"bend rule exact on {checked} cross edges across the suite")


def test_criterion_05_crossing_oracle_equivalence():
    qualified = 0
    for g, d, drawing in _suite():
        routes = drawing.layout.routes
        if segment_count(routes) > 500:
            continue
        qualified += 1
        assert count_crossings(drawing.layout) == len(crossing_pairs_bruteforce(routes))
    assert qualified > 0
    _report(5, f"crossing counts == brute-force oracle on {qualified} layouts, exact")


def _timed_drawing_window(g, cover) -> float:
    """Wall time of cycle removal + topological sort + drawing.

    Parsing, the path cover (input in this framework), metrics, and file
    emission stay outside the clock. GC is paused so the measurement sees
    the algorithm, not collector pauses.
    """
    import gc

    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        removal = remove_cycles(g)
        order = topo_sort(removal.dag)
        draw(removal.dag, cover, order)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _timed(fn, *args) -> float:
    """Wall time of ``fn(*args)``, with GC paused as in the drawing window."""
    import gc

    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn(*args)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _growth(timed, make, sizes, seeds, repeats) -> tuple[list[float], float]:
    """Each size's median, over seeds, of ``timed(*make(size, seed))``, the
    seconds that one call takes, and the wall time taken.

    Every input is built first. Each of ``repeats`` rounds then visits each
    seed at every size in turn, and each input keeps the minimum of its
    times, so a drift in core speed spreads over every size instead of
    landing on one.
    """
    import gc

    _cache.pop("suite", None)  # shrink the ambient heap before timing
    gc.collect()
    start = time.perf_counter()
    inputs = [[make(n, seed) for seed in seeds] for n in sizes]
    best = [[float("inf")] * len(seeds) for _ in sizes]
    for _ in range(repeats):
        for j in range(len(seeds)):
            for i, row in enumerate(inputs):
                best[i][j] = min(best[i][j], timed(*row[j]))
    return [median(times) for times in best], time.perf_counter() - start


def _lines_run(fn, *args) -> int:
    """Lines the interpreter executes in ``pathdraw``'s own files while
    ``fn(*args)`` runs.

    Unlike wall time the count does not move with the host's load or
    caches. Work done in C, such as a sort or a join, counts as one line, so
    the count complements the timed gates rather than replacing them. The
    tracer installed before, say a coverage tool's, is restored.
    """
    package = os.path.dirname(pathdraw.__file__) + os.sep
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def _peak_bytes(fn, *args) -> int:
    """Peak bytes that ``fn(*args)`` allocates above what is allocated when
    it is called, as ``tracemalloc`` traces them.

    One untraced warm-up call comes first, so that what the first call
    keeps, such as the ranks ``topo_sort`` stores on a graph, is not
    counted. Skips when a tracer is already running, since this one would
    stop it.
    """
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    fn(*args)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _check_peak_growth(criterion, make, families, sizes, bound, what) -> None:
    """Gate ``_peak_bytes(*make(inputs))`` on each named family, whose
    inputs are built at each of the doubling ``sizes`` with seed 1: the
    trend over the whole ladder may not exceed ``bound`` per doubling. A
    stage linear in memory holds about twice the bytes per doubling, a
    quadratic one four times. Single steps are not bounded: a container
    grows in steps, so one step can jump while the trend holds."""
    trends = []
    for family, build in families:
        peaks = [_peak_bytes(*make(build(n, 1))) for n in sizes]
        ratios = [peaks[i + 1] / peaks[i] for i in range(len(peaks) - 1)]
        per_doubling = (peaks[-1] / peaks[0]) ** (1 / (len(sizes) - 1))
        assert per_doubling <= bound, f"{family}: peaks {peaks}, steps {ratios}"
        pretty = ", ".join(f"{r:.2f}" for r in ratios)
        trends.append(
            f"{family} {peaks[0] / 1e6:.2f} -> {peaks[-1] / 1e6:.2f} MB, "
            f"{per_doubling:.2f}x per doubling (steps [{pretty}])"
        )
    _report(criterion, f"{what} peak: {'; '.join(trends)} on sizes {sizes[0]}..{sizes[-1]}")


def _check_line_growth(criterion, make, families, sizes, bound, what) -> None:
    """Gate ``_lines_run(*make(inputs))`` on each named family, whose
    inputs are built at each of the doubling ``sizes`` with seed 1: no step
    may exceed ``bound``. A linear stage executes about twice the lines per
    doubling. The counts do not vary, so each input is counted once."""
    trends = []
    for family, build in families:
        counts = [_lines_run(*make(build(n, 1))) for n in sizes]
        ratios = [counts[i + 1] / counts[i] for i in range(len(counts) - 1)]
        assert all(r <= bound for r in ratios), f"{family}: lines {counts}, steps {ratios}"
        pretty = ", ".join(f"{r:.2f}" for r in ratios)
        trends.append(f"{family} {counts[0]:,} -> {counts[-1]:,} lines (steps [{pretty}])")
    _report(criterion, f"{what}: {'; '.join(trends)} on sizes {sizes[0]}..{sizes[-1]}")


def test_criterion_06_scaling_trend():
    # Growth *trend* per doubling: the geometric-mean ratio across the size
    # ladder must stay <= 2.5 (a quadratic stage would push it past 4).
    # Raw consecutive ratios are also bounded, loosely enough that the
    # host's memory hierarchy cannot fail a linear implementation.
    def make(n, seed):
        g = generate_random_dag(n, 1.6, seed)
        return g, min_path_cover(remove_cycles(g).dag)

    sizes = (1000, 2000, 4000, 8000)
    medians, elapsed = _growth(_timed_drawing_window, make, sizes, range(1, 8), 5)
    assert elapsed < 60.0
    ratios = [medians[i + 1] / medians[i] for i in range(len(medians) - 1)]
    per_doubling = (medians[-1] / medians[0]) ** (1 / (len(sizes) - 1))
    assert per_doubling <= 2.5, f"trend {per_doubling:.2f} per doubling, steps {ratios}"
    assert all(r <= 3.5 for r in ratios), f"a step grew superlinearly: {ratios}"
    pretty = ", ".join(f"{r:.2f}" for r in ratios)
    _report(
        6,
        f"growth {per_doubling:.2f}x per doubling (steps [{pretty}]) "
        f"on n=1000..8000 ({elapsed:.1f}s)",
    )


def test_criterion_11_chains_scaling_trend():
    # The transitive-heavy family: 4 chains whose skip edges all become
    # bundle members, so transitive bundling and lane reorder carry the
    # drawing time. The same window as criterion 06 must grow by at most
    # 3.0 per doubling of the chain length; an all-pairs lane-pair count
    # grows past it.
    lengths = (250, 500, 1000, 2000)
    medians, elapsed = _growth(
        _timed_drawing_window,
        lambda length, seed: chains_dag(4, length, seed),
        lengths,
        range(1, 4),
        3,
    )
    ratios = [medians[i + 1] / medians[i] for i in range(len(medians) - 1)]
    per_doubling = (medians[-1] / medians[0]) ** (1 / (len(lengths) - 1))
    assert per_doubling <= 3.0, f"trend {per_doubling:.2f} per doubling, steps {ratios}"
    assert elapsed < 30.0
    pretty = ", ".join(f"{r:.2f}" for r in ratios)
    _report(
        11,
        f"growth {per_doubling:.2f}x per doubling (steps [{pretty}]) "
        f"on 4 chains of 250..2000 ({elapsed:.1f}s)",
    )


def test_criterion_12_many_lane_scaling_trend():
    # One path of n vertices with skip edges i -> i + n/2: every skip edge
    # is its own bundle and all of them share the middle rows, so one stack
    # holds n/2 lanes. The same window as criterion 06 must grow by at most
    # 3.0 per doubling of n; a lane-by-lane packing scan or an all-pairs
    # lane-pair count is quadratic in the lanes and grows past it.
    sizes = (500, 1000, 2000, 4000)
    times, elapsed = _growth(
        _timed_drawing_window, lambda n, _: many_lane_dag(n), sizes, (None,), 5
    )
    ratios = [times[i + 1] / times[i] for i in range(len(times) - 1)]
    per_doubling = (times[-1] / times[0]) ** (1 / (len(sizes) - 1))
    assert per_doubling <= 3.0, f"trend {per_doubling:.2f} per doubling, steps {ratios}"
    assert elapsed < 30.0
    pretty = ", ".join(f"{r:.2f}" for r in ratios)
    _report(
        12,
        f"growth {per_doubling:.2f}x per doubling (steps [{pretty}]) "
        f"on one path of 500..4000 with n/2 lanes ({elapsed:.1f}s)",
    )


def test_criterion_16_nested_span_scaling_trend():
    # One path of n vertices with skip edges i -> n-1-i: each skip edge's
    # span holds all the later ones, so one stack packs n/2 - 1 nested lanes
    # widest first, and every lane pair costs one crossing until reversed.
    # The same window as criterion 06 must grow by at most 3.0 per doubling
    # of n and 3.5 per step; an adjacent-swap climb, L(L - 1)/2 swaps here,
    # grows by 4.
    sizes = (1000, 2000, 4000, 8000)
    times, elapsed = _growth(
        _timed_drawing_window, lambda n, _: nested_span_dag(n), sizes, (None,), 5
    )
    ratios = [times[i + 1] / times[i] for i in range(len(times) - 1)]
    per_doubling = (times[-1] / times[0]) ** (1 / (len(sizes) - 1))
    assert per_doubling <= 3.0, f"trend {per_doubling:.2f} per doubling, steps {ratios}"
    assert all(r <= 3.5 for r in ratios), f"a step grew superlinearly: {ratios}"
    assert elapsed < 30.0
    pretty = ", ".join(f"{r:.2f}" for r in ratios)
    _report(
        16,
        f"growth {per_doubling:.2f}x per doubling (steps [{pretty}]) "
        f"on one path of 1000..8000 with nested lanes ({elapsed:.1f}s)",
    )


def test_criterion_13_cyclic_scaling_trend():
    # The cyclic family: m = 2n edges with 2-cycles, so cycle removal flips
    # back edges and rebuilds the graph inside the timed window. The same
    # window as criterion 06 must grow by at most 3.0 per doubling of n; a
    # rebuild quadratic in the flipped edges grows by 4.
    def make(n, seed):
        g = DiGraph.build(n, cyclic_digraph_edges(n, 2 * n, seed))
        return g, min_path_cover(remove_cycles(g).dag)

    sizes = (1000, 2000, 4000, 8000)
    medians, elapsed = _growth(_timed_drawing_window, make, sizes, range(1, 4), 3)
    ratios = [medians[i + 1] / medians[i] for i in range(len(medians) - 1)]
    per_doubling = (medians[-1] / medians[0]) ** (1 / (len(sizes) - 1))
    assert per_doubling <= 3.0, f"trend {per_doubling:.2f} per doubling, steps {ratios}"
    assert elapsed < 30.0
    pretty = ", ".join(f"{r:.2f}" for r in ratios)
    _report(
        13,
        f"growth {per_doubling:.2f}x per doubling (steps [{pretty}]) "
        f"on cyclic digraphs of n=1000..8000, m=2n ({elapsed:.1f}s)",
    )


def _uniform_dag(n, seed):
    return generate_random_dag(n, 1.6, seed)


def _cyclic_dag(n, seed):
    return remove_cycles(DiGraph.build(n, cyclic_digraph_edges(n, 2 * n, seed))).dag


def _check_growth(criterion, make, bound, what) -> None:
    """Gate ``_timed(*make(dag))`` on the uniform and the cyclic DAGs,
    n = 1000..8000: a trend of at most ``bound`` per doubling, no step
    above 3.5, and under 30 s for both families together."""
    sizes = (1000, 2000, 4000, 8000)
    trends = []
    elapsed = 0.0
    for family, dag in (("uniform", _uniform_dag), ("cyclic", _cyclic_dag)):
        medians, spent = _growth(_timed, lambda n, seed: make(dag(n, seed)), sizes, range(1, 4), 5)
        elapsed += spent
        ratios = [medians[i + 1] / medians[i] for i in range(len(medians) - 1)]
        per_doubling = (medians[-1] / medians[0]) ** (1 / (len(sizes) - 1))
        assert per_doubling <= bound, f"{family}: trend {per_doubling:.2f}, steps {ratios}"
        assert all(r <= 3.5 for r in ratios), f"{family}: a step grew superlinearly: {ratios}"
        pretty = ", ".join(f"{r:.2f}" for r in ratios)
        trends.append(f"{family} {per_doubling:.2f}x per doubling (steps [{pretty}])")
    assert elapsed < 30.0
    _report(criterion, f"{what}: {'; '.join(trends)} on n=1000..8000 ({elapsed:.1f}s)")


def _cover_args(dag):
    # the ranks are sorted first, so only the matching and the path walk count
    topo_sort(dag)
    return min_path_cover, dag


def test_criterion_14_path_cover_scaling_trend():
    # Hopcroft-Karp runs in O(m sqrt(n)), 2.83 per doubling at m ~ n; the
    # cover must grow by at most 3.0 per doubling on the uniform DAGs and on
    # the cyclic digraphs after cycle removal. The ranks are sorted before
    # the clock starts, so only the matching and the path walk are timed.
    _check_growth(14, _cover_args, 3.0, "min_path_cover")


def test_criterion_15_svg_scaling_trend():
    # The SVG writer is linear in the route points, and its canvas and
    # pixel text grow with the distinct coordinates: at most 2.5 per
    # doubling, as for the drawing window in criterion 06.
    def make(dag):
        return render_svg, draw(dag, min_path_cover(dag)).layout

    _check_growth(15, make, 2.5, "render_svg")


LINE_SIZES = (1000, 2000, 4000, 8000)


def _draw_args(dag):
    # the cover sorts the DAG first, so the count is draw's own
    return draw, dag, min_path_cover(dag)


def _draw_on_paths_args(graph_and_paths):
    # sorted first, as the cover does in _draw_args, so the count is draw's own
    g, paths = graph_and_paths
    topo_sort(g)
    return draw, g, paths


def test_criterion_06_line_growth():
    # criterion 06's family, counted in executed lines instead of seconds
    _check_line_growth(6, _draw_args, [("uniform", _uniform_dag)], LINE_SIZES, 2.2, "draw")


def test_criterion_11_line_growth():
    # criterion 11's chains, counted in executed lines instead of seconds
    family = [("chains", lambda length, seed: chains_dag(4, length, seed))]
    _check_line_growth(11, _draw_on_paths_args, family, (250, 500, 1000, 2000), 2.2, "draw")


def test_criterion_12_line_growth():
    # criterion 12's many-lane path, counted in executed lines instead of
    # seconds; a lane-by-lane packing scan grows past 3 per doubling here
    family = [("many-lane", lambda n, _: many_lane_dag(n))]
    _check_line_growth(12, _draw_on_paths_args, family, (500, 1000, 2000, 4000), 2.2, "draw")


def test_criterion_16_line_growth():
    # criterion 16's nested path, counted in executed lines instead of
    # seconds; the reorder is O(L log L) in pair costs, hence 2.3, and an
    # adjacent-swap climb grows by 4 here
    family = [("nested", lambda n, _: nested_span_dag(n))]
    _check_line_growth(16, _draw_on_paths_args, family, LINE_SIZES, 2.3, "draw")


def test_criterion_13_line_growth():
    # criterion 13's family, counted in executed lines instead of seconds
    _check_line_growth(13, _draw_args, [("cyclic", _cyclic_dag)], LINE_SIZES, 2.2, "draw")


def test_criterion_14_line_growth():
    # criterion 14's two families, counted in executed lines instead of
    # seconds, at the bound of O(m sqrt(n)): 2.83 per doubling at m ~ n
    families = [("uniform", _uniform_dag), ("cyclic", _cyclic_dag)]
    _check_line_growth(14, _cover_args, families, LINE_SIZES, 2.83, "min_path_cover")


def test_criterion_15_line_growth():
    # criterion 15's two families, counted in executed lines instead of seconds
    def make(dag):
        return render_svg, draw(dag, min_path_cover(dag)).layout

    families = [("uniform", _uniform_dag), ("cyclic", _cyclic_dag)]
    _check_line_growth(15, make, families, LINE_SIZES, 2.2, "render_svg")


def test_criterion_06_memory_growth():
    # criterion 06's family, measured in the peak bytes that tracemalloc traces
    _check_peak_growth(6, _draw_args, [("uniform", _uniform_dag)], LINE_SIZES, 2.5, "draw")


def test_criterion_12_memory_growth():
    # criterion 12's many-lane path, measured in peak bytes; a per-lane
    # table over the n/2 lanes of its one stack is quadratic
    family = [("many-lane", lambda n, _: many_lane_dag(n))]
    _check_peak_growth(12, _draw_on_paths_args, family, LINE_SIZES, 2.5, "draw")


def test_criterion_13_memory_growth():
    # criterion 13's family, measured in peak bytes
    _check_peak_growth(13, _draw_args, [("cyclic", _cyclic_dag)], LINE_SIZES, 2.5, "draw")


def _cyclic_digraph(n, seed):
    # criterion 13's input before cycle removal
    return DiGraph.build(n, cyclic_digraph_edges(n, 2 * n, seed))


def _parse_args(g):
    return parse_graph, serialize_graph(g)


def _remove_cycles_args(g):
    return remove_cycles, g


def test_criterion_06_parse_and_cycle_removal_memory_growth():
    # the stages before the cover on criterion 06's family, in peak bytes
    family = [("uniform", _uniform_dag)]
    _check_peak_growth(6, _parse_args, family, LINE_SIZES, 2.5, "parse_graph")
    _check_peak_growth(6, _remove_cycles_args, family, LINE_SIZES, 2.5, "remove_cycles")


def test_criterion_13_parse_and_cycle_removal_memory_growth():
    # the same on criterion 13's cyclic digraphs, whose removal rebuilds the graph
    family = [("cyclic", _cyclic_digraph)]
    _check_peak_growth(13, _parse_args, family, LINE_SIZES, 2.5, "parse_graph")
    _check_peak_growth(13, _remove_cycles_args, family, LINE_SIZES, 2.5, "remove_cycles")


def test_criterion_07_hiding_transitive_preserves_positions():
    for g, d, drawing in _suite():
        bare = draw(g, d, bundle_transitive_edges=False)
        assert bare.layout.y == drawing.layout.y
        k = len(d.paths)
        order_full = sorted(range(k), key=lambda i: drawing.layout.x[d.paths[i][0]])
        order_bare = sorted(range(k), key=lambda i: bare.layout.x[d.paths[i][0]])
        assert order_full == order_bare
    _report(7, f"rows and spine order stable under the toggle on {SUITE_SIZE} graphs")


def test_criterion_08_cli_determinism(tmp_path):
    toggle_sets = (
        (),
        ("--no-compact",),
        ("--no-bundle-transitive",),
        ("--no-bundle-cross", "--no-reorder"),
        ("--no-compact", "--no-bundle-transitive"),
    )
    configs = list(product((12, 20, 28, 36), toggle_sets))
    assert len(configs) == 20
    for idx, (n, toggles) in enumerate(configs):
        edges = tmp_path / f"g{idx}.edges"
        assert main(["gen", "--n", str(n), "--deg", "1.6", "--seed", str(idx), "--out", str(edges)]) == 0
        outputs = []
        for attempt in ("a", "b"):
            svg = tmp_path / f"{idx}{attempt}.svg"
            jsn = tmp_path / f"{idx}{attempt}.json"
            argv = ["layout", str(edges), "--seed", str(idx), *toggles, "--svg", str(svg), "--json", str(jsn)]
            assert main(argv) == 0
            outputs.append((svg.read_bytes(), jsn.read_bytes()))
        assert outputs[0] == outputs[1], f"config {idx} not byte-identical"
    _report(8, "byte-identical JSON and SVG across 20 repeated configurations")


def test_criterion_09_small_graph_sanity():
    g = generate_random_dag(20, 1.55, seed=1)
    assert g.edge_count == 31
    drawing = draw(g, min_path_cover(g))
    from pathdraw import measure

    report = measure(drawing.layout)
    assert report.height <= 19
    assert report.area == report.width * report.height
    assert all(
        isinstance(v, int) and v >= 0
        for v in (report.crossings, report.bends, report.width, report.height, report.area)
    )
    _report(
        9,
        f"20-node/31-edge pipeline: height {report.height} <= 19, "
        f"area {report.area} == {report.width}x{report.height}",
    )


def test_criterion_10_minimum_path_cover():
    rng = random.Random(7)
    for case in range(100):
        n = rng.randrange(2, 11)
        g = generate_random_dag(n, rng.uniform(0.4, 2.2), seed=5000 + case)
        assert min_path_cover(g).path_count == min_cover_bruteforce(g)
    _report(10, "cover size == exhaustive enumeration on 100 DAGs (n <= 10), exact")
