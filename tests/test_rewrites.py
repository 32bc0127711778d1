"""The rewritten per-edge loops against their earlier forms in oracles.py.

Adjacency construction, cycle removal, gap occupants and SVG rendering were
rewritten to touch each edge a constant number of times, cycle removal and
the matching's augmenting search keep a successor iterator per stack frame
instead of an index per vertex, the JSON document
is written by template rather than through ``json.dumps``, and the crossing
and vertex-touch counters report by slices of their sorted lists rather
than one element at a time. Each must give exactly what the plainer form
gave, on seeded inputs that include 2-cycles, shuffled edge orders, empty
graphs, hidden transitive edges and layouts with coordinates left of, above
and below zero.
"""

from __future__ import annotations

import random

import pytest

from oracles import (
    adjacency_reference,
    arbitrary_layout,
    chains_dag,
    count_crossings_reference,
    count_vertex_touches_reference,
    cross_routes_of,
    crossing_pairs_bruteforce,
    cyclic_digraph_edges,
    gap_occupants_reference,
    hopcroft_karp_reference,
    ladder_dag,
    many_lane_dag,
    remove_cycles_reference,
    render_json_reference,
    render_svg_reference,
    uniform_dag_edges,
)
from pathdraw import (
    DiGraph,
    draw,
    measure,
    min_path_cover,
    parse_graph,
    remove_cycles,
    render_json,
    render_svg,
    run_pipeline_full,
    topo_sort,
)
from pathdraw.decomposition import _hopcroft_karp, classify_edges
from pathdraw.drawing import BundleRecord
from pathdraw.graph import serialize_graph
from pathdraw.layout import Layout, MetricsReport
from pathdraw.metrics import count_crossings, count_vertex_touches
from pathdraw.routing import gap_occupants


def _cyclic(seed: int, n_max: int = 80) -> DiGraph:
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    m = rng.randint(1, min(4 * n, n * (n - 1)))
    return DiGraph.build(n, cyclic_digraph_edges(n, m, seed))


class TestAdjacency:
    @pytest.mark.parametrize("seed", range(40))
    def test_sorted_once_equals_sorted_per_vertex(self, seed):
        g = _cyclic(seed)
        assert (g._succ, g._pred) == adjacency_reference(g.vertex_count, g.edges)

    def test_isolated_vertices_and_empty_graph(self):
        g = DiGraph.build(5, [(3, 1)])
        assert g._succ == ((), (), (), (1,), ())
        assert g._pred == ((), (3,), (), (), ())
        empty = DiGraph.build(0, [])
        assert (empty._succ, empty._pred) == ((), ())

    @pytest.mark.parametrize("seed", range(8))
    def test_no_stage_builds_predecessor_tuples(self, seed):
        # predecessor tuples are built on first read; no stage of the
        # library path or of run_pipeline_full, self-check included, reads them
        n = random.Random(seed).randint(2, 120)
        inputs = (
            DiGraph.build(n, cyclic_digraph_edges(n, 2 * n, seed)),
            DiGraph.build(n, uniform_dag_edges(n, 2 * n, seed)),
        )
        for built in inputs:
            g = parse_graph(serialize_graph(built))
            dag = remove_cycles(g).dag
            topo_sort(dag)
            drawing = draw(dag, min_path_cover(dag))
            render_svg(drawing.layout)
            render_json(drawing.layout, measure(drawing.layout), drawing.bundles)
            assert run_pipeline_full(g).graph == dag
            # an acyclic g comes back from remove_cycles as the DAG itself
            assert "_pred" not in vars(g) and "_pred" not in vars(dag)
            for graph in (g, dag):
                _, pred = adjacency_reference(graph.vertex_count, graph.edges)
                assert tuple(map(graph.predecessors, range(graph.vertex_count))) == pred
                assert "_pred" in vars(graph)


class TestRemoveCycles:
    @pytest.mark.parametrize("seed", range(60))
    def test_equals_flip_and_rebuild(self, seed):
        g = _cyclic(seed)
        result = remove_cycles(g)
        edges, succ, pred, back = remove_cycles_reference(g)
        assert result.reversed_edges == back
        # the reference keeps input order; a DiGraph keeps its edges sorted
        assert result.dag.edges == tuple(sorted(edges))
        assert result.dag._succ == succ
        assert result.dag._pred == pred

    def test_two_cycles_merge_as_before(self):
        # 0->1->0 with the back edge first, then last, in edge order; then a
        # digraph made only of 2-cycles, where every flipped edge merges
        only_twins = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2), (4, 3), (3, 4)]
        cases = (([(1, 0), (0, 1), (1, 2)], 2), ([(0, 1), (1, 2), (1, 0)], 2), (only_twins, 4))
        for edges, kept in cases:
            g = DiGraph.build(5, edges)
            result = remove_cycles(g)
            dag_edges, _, _, back = remove_cycles_reference(g)
            assert (result.dag.edges, result.reversed_edges) == (tuple(sorted(dag_edges)), back)
            assert result.dag.edge_count == kept
        # each of the four back edges merged with its reverse
        assert len(back) == 4

    def test_sprawl_sized_graph_merges_the_same_edges(self):
        g = DiGraph.build(3000, cyclic_digraph_edges(3000, 12000, seed=5, twin_frac=0.1))
        result = remove_cycles(g)
        edges, succ, pred, back = remove_cycles_reference(g)
        assert g.edge_count - result.dag.edge_count == g.edge_count - len(edges) > 0
        assert (result.dag.edges, result.dag._succ, result.dag._pred) == (
            tuple(sorted(edges)), succ, pred
        )
        assert result.reversed_edges == back

    def test_acyclic_graph_comes_back_unchanged(self, diamond):
        result = remove_cycles(diamond)
        assert result.dag is diamond
        assert result.reversed_edges == frozenset()


def _matchings(g: DiGraph) -> tuple[list[int], list[int]]:
    """match_left of the search under test and of the index-form reference."""
    n = g.vertex_count
    adj = [g.successors(u) for u in range(n)]
    return _hopcroft_karp(n, adj), hopcroft_karp_reference(n, adj)


class TestHopcroftKarp:
    @pytest.mark.parametrize("seed", range(60))
    def test_equals_index_form_on_small_dags(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        edges = uniform_dag_edges(n, rng.randint(0, 3 * n), seed)
        # the seeded DAG, the edgeless graph on its vertices, and the DAG
        # with ids doubled, so every odd id is an isolated vertex
        spread = [(2 * u, 2 * v) for u, v in edges]
        for g in (DiGraph.build(n, edges), DiGraph.build(n, []), DiGraph.build(2 * n, spread)):
            got, expected = _matchings(g)
            assert got == expected

    def test_equals_index_form_on_a_long_augmenting_path(self):
        got, expected = _matchings(ladder_dag(5000))
        assert got == expected

    def test_equals_index_form_after_cycle_removal(self):
        g = DiGraph.build(3000, cyclic_digraph_edges(3000, 12000, seed=5, twin_frac=0.1))
        got, expected = _matchings(remove_cycles(g).dag)
        assert got == expected


class TestDeepSearch:
    def test_one_long_cycle_does_not_recurse(self):
        # the depth-first search of cycle removal runs 50,000 frames deep
        n = 50_000
        g = DiGraph.build(n, [(v, (v + 1) % n) for v in range(n)])
        result = remove_cycles(g)
        assert result.reversed_edges == {(n - 1, 0)}
        assert min_path_cover(result.dag).paths == (tuple(range(n)),)


def _occupant_inputs(seed: int):
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    rows = [rng.randint(-4, 12) for _ in range(n)]
    path_of = [rng.randrange(5) for _ in range(n)]
    cross = set()
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            cross.add((u, v))
            if rng.random() < 0.3:
                cross.add((v, u))
    return rows, path_of, cross


class TestGapOccupants:
    @pytest.mark.parametrize("bundle", [True, False])
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_reference_in_any_input_order(self, seed, bundle):
        rows, path_of, cross = _occupant_inputs(seed)
        expected = gap_occupants_reference(rows, path_of, cross, bundle)
        shuffled = list(cross)
        random.Random(seed).shuffle(shuffled)
        for given in (frozenset(cross), sorted(cross), shuffled):
            got = gap_occupants(rows, path_of, given, bundle)
            assert list(got.items()) == list(expected.items())

    @pytest.mark.parametrize("bundle", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_drawn_graphs(self, seed, bundle):
        g = remove_cycles(_cyclic(seed, n_max=200)).dag
        d = min_path_cover(g)
        rows = draw(g, d).layout.y
        path_of = {v: pi for pi, path in enumerate(d.paths) for v in path}
        cross = classify_edges(g, d).cross_edges
        got = gap_occupants(rows, path_of, cross, bundle)
        expected = gap_occupants_reference(rows, path_of, cross, bundle)
        assert list(got.items()) == list(expected.items())


class TestDrawOrder:
    @pytest.mark.parametrize("seed", range(6))
    def test_routes_and_cross_routes_follow_sorted_edges(self, seed):
        # routes, categories and cross routes come in the graph's edge
        # order, which is (u, v) order, on a DAG from cycle removal too
        g = remove_cycles(_cyclic(seed, n_max=200)).dag
        d = min_path_cover(g)
        drawing = draw(g, d)
        assert list(drawing.layout.routes) == sorted(g.edges)
        assert list(drawing.layout.category) == sorted(g.edges)
        cross = classify_edges(g, d).cross_edges
        assert [r.edge for r in cross_routes_of(drawing)] == sorted(cross)


def _layout(x, y, routes, categories="cross") -> Layout:
    return Layout(
        x=x,
        y=y,
        routes=routes,
        category={e: categories if isinstance(categories, str) else categories[e] for e in routes},
        column_meta={},
        paths=tuple((v,) for v in sorted(x)),
    )


def _toy_layout(seed: int) -> Layout:
    """Random vertices and routes of 0-5 points, often left of or above them all."""
    rng = random.Random(seed)
    n = rng.randint(0, 12)
    x = {v: rng.randint(0, 9) for v in range(n)}
    y = {v: rng.randint(0, 9) for v in range(n)}
    routes = {}
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        lo = rng.choice([-12, -1, 0, 3])
        length = rng.choice([0, 1, 2, 2, 3, 4, 4, 5])
        routes[(u, v)] = tuple((rng.randint(lo, 10), rng.randint(lo, 10)) for _ in range(length))
    categories = {e: rng.choice(["path", "transitive", "cross"]) for e in routes}
    return _layout(x, y, routes, categories)


# one route of each length render_svg formats by shape, every coordinate
# distinct so that a swapped pair shows, and one with repeated points
SHAPES = {
    2: ((-3, 5), (7, -2)),
    3: ((-3, 5), (7, -2), (0, 11)),
    4: ((-3, 5), (7, -2), (0, 11), (-9, 4)),
}
REPEATED = ((2, -1), (2, -1), (-1, 2), (-1, 2))  # its first 2, 3 or 4 points
BIG = 10**12


def _shape_layout(size: int) -> Layout:
    return _routed({(0, 1): SHAPES[size], (1, 0): REPEATED[:size]})


def _far_layout() -> Layout:
    """Routes with coordinates of ±10**12; a pixel table sized by range would not fit."""
    return _routed(
        {
            (0, 1): ((-BIG, BIG), (BIG, BIG)),
            (1, 2): ((BIG, BIG), (0, -BIG), (-BIG, -BIG)),
            (2, 0): ((-BIG, -BIG), (-BIG, 0), (BIG, 0), (-BIG, BIG)),
            (0, 2): ((-BIG, BIG), (3, 4), (BIG, -BIG), (-5, BIG), (-BIG, -BIG)),
        }
    )


class TestRenderSvg:
    @pytest.mark.parametrize("size", sorted(SHAPES))
    def test_each_specialised_shape(self, size):
        layout = _shape_layout(size)
        assert render_svg(layout) == render_svg_reference(layout)

    def test_coordinates_of_a_trillion_either_side(self):
        layout = _far_layout()
        assert render_svg(layout) == render_svg_reference(layout)

    @pytest.mark.parametrize("seed", range(60))
    def test_toy_layouts(self, seed):
        layout = _toy_layout(seed)
        assert render_svg(layout) == render_svg_reference(layout)

    def test_empty_layout(self):
        empty = _layout({}, {}, {})
        assert render_svg(empty) == render_svg_reference(empty)

    def test_route_points_left_of_and_above_every_vertex(self):
        layout = _layout(
            {0: 3, 1: 5},
            {0: 4, 1: 6},
            {(0, 1): ((3, 4), (-2, -1), (-2, 6), (5, 6)), (1, 0): ((5, 6), (0, 0), (3, 4))},
        )
        svg = render_svg(layout)
        assert svg == render_svg_reference(layout)
        assert 'points="96,120 -24,0 -24,168 144,168"' in svg

    def test_all_coordinates_negative(self):
        layout = _layout({0: -3}, {0: -5}, {(0, 0): ((-3, -5), (-7, -9))})
        assert render_svg(layout) == render_svg_reference(layout)

    def test_undrawn_route_points_still_widen_the_canvas(self):
        layout = _layout({0: 0, 1: 1}, {0: 0, 1: 1}, {(0, 1): ((20, 30),), (1, 0): ()})
        svg = render_svg(layout)
        assert svg == render_svg_reference(layout)
        assert 'width="528" height="768"' in svg
        assert "polyline" not in svg.split("</style>")[1]

    def test_rows_of_vertices_without_a_column_still_count(self):
        layout = _layout({0: 0}, {0: 0, 1: 9}, {})
        svg = render_svg(layout)
        assert svg == render_svg_reference(layout)
        assert 'height="264"' in svg

    @pytest.mark.parametrize("bundle", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_drawn_graphs(self, seed, bundle):
        g = remove_cycles(_cyclic(seed, n_max=200)).dag
        for dag, d in ((g, min_path_cover(g)), chains_dag(4, 40, seed)):
            drawing = draw(dag, d, topo_sort(dag), bundle_cross_incoming=bundle)
            assert render_svg(drawing.layout) == render_svg_reference(drawing.layout)


def _drawn(case: str, seed: int):
    """(layout, bundles) of one seeded drawing."""
    if case == "uniform":
        n = 40 + 30 * seed
        g = DiGraph.build(n, uniform_dag_edges(n, 2 * n, seed))
        drawing = draw(g, min_path_cover(g))
    elif case == "chains":
        drawing = draw(*chains_dag(4, 40, seed))
    elif case == "hidden":
        g, d = chains_dag(4, 40, seed)
        drawing = draw(g, d, bundle_transitive_edges=False)
        assert () in drawing.layout.routes.values()
    elif case == "cyclic":
        g = remove_cycles(_cyclic(seed, n_max=200)).dag
        drawing = draw(g, min_path_cover(g))
    else:  # "empty" and "single": an edgeless graph of 0 or 1 vertices
        g = DiGraph.build(int(case == "single"), [])
        drawing = draw(g, min_path_cover(g))
    return drawing.layout, drawing.bundles


TOGGLES = {"compact": True, "bundle_transitive": False, "bundle_cross": True, "reorder": False}

# (seed, toggles) recorded in the document's meta block
METAS = [
    (None, None),
    (7, {}),
    (0, TOGGLES),
    (-3, {"compact": False}),
]


def _toy_bundles(layout: Layout, rng: random.Random) -> tuple[BundleRecord, ...]:
    """Records over random disjoint groups of the layout's edges."""
    edges = sorted(layout.routes)
    rng.shuffle(edges)
    bundles = []
    while edges and rng.random() < 0.8:
        members = tuple(edges.pop() for _ in range(min(len(edges), rng.randint(1, 3))))
        lo = rng.randint(-2, 9)
        bundles.append(
            BundleRecord(
                id=rng.randint(0, 99),
                kind=rng.choice(["transitive", "cross"]),
                anchor_or_target=rng.randint(0, 12),
                lane=rng.randint(-3, 12),
                span=(lo, lo + rng.randint(0, 5)),
                members=members,
            )
        )
    return tuple(bundles)


class TestRenderJson:
    @pytest.mark.parametrize("size", sorted(SHAPES))
    def test_short_routes_with_negative_and_repeated_points(self, size):
        layout = _shape_layout(size)
        metrics = measure(layout)
        assert render_json(layout, metrics) == render_json_reference(layout, metrics)

    def test_coordinates_of_a_trillion_either_side(self):
        layout = _far_layout()
        metrics = MetricsReport(0, 0, 2 * BIG + 1, 2 * BIG + 1, (2 * BIG + 1) ** 2)
        assert render_json(layout, metrics) == render_json_reference(layout, metrics)

    @pytest.mark.parametrize("meta", range(len(METAS)))
    @pytest.mark.parametrize(
        "case, seed",
        [
            ("uniform", 0),
            ("uniform", 1),
            ("chains", 0),
            ("chains", 1),
            ("hidden", 2),
            ("cyclic", 0),
            ("cyclic", 3),
            ("empty", 0),
            ("single", 0),
        ],
    )
    def test_drawn_graphs(self, case, seed, meta):
        layout, bundles = _drawn(case, seed)
        metrics = measure(layout)
        seed_value, toggles = METAS[meta]
        args = dict(bundles=bundles, seed=seed_value, toggles=toggles)
        assert render_json(layout, metrics, **args) == render_json_reference(
            layout, metrics, **args
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_bundled_layout_without_its_records(self, seed):
        layout, bundles = _drawn("chains", seed)
        assert bundles
        metrics = measure(layout)
        text = render_json(layout, metrics, bundles=(), toggles=TOGGLES)
        assert text == render_json_reference(layout, metrics, bundles=(), toggles=TOGGLES)
        assert '"bundles": [],' in text and "bundle_id" not in text

    @pytest.mark.parametrize("seed", range(40))
    def test_toy_layouts(self, seed):
        rng = random.Random(seed)
        layout = _toy_layout(seed)
        bundles = _toy_bundles(layout, rng)
        metrics = MetricsReport(*(rng.randint(0, 10**6) for _ in range(5)))
        seed_value, toggles = METAS[seed % len(METAS)]
        args = dict(bundles=bundles, seed=seed_value, toggles=toggles)
        assert render_json(layout, metrics, **args) == render_json_reference(
            layout, metrics, **args
        )


def _routed(routes: dict, positions: dict | None = None) -> Layout:
    """A layout whose vertices sit at their routes' ends, unless placed."""
    positions = dict(positions or {})
    for (u, w), route in routes.items():
        positions.setdefault(u, route[0] if route else (0, 0))
        positions.setdefault(w, route[-1] if route else (0, 0))
    return _layout(
        {v: p[0] for v, p in positions.items()}, {v: p[1] for v, p in positions.items()}, routes
    )


# (routes, crossings, touches); the counts are the all-pairs oracles' counts
ADVERSARIAL = {
    # the diagonal is at column 2 on row 1, a sweep row, inside the vertical
    "diagonal-end-on-a-vertical-column": (
        {(0, 1): ((0, 0), (4, 2)), (2, 3): ((2, -1), (2, 3)), (4, 5): ((10, 1), (12, 1))},
        1,
        0,
    ),
    # the same point where a vertical starts, and the diagonal's own end on another
    "diagonal-end-on-a-vertical-end": (
        {(0, 1): ((0, 0), (4, 2)), (2, 3): ((2, 1), (2, 5)), (4, 5): ((4, 2), (4, 6))},
        0,
        3,
    ),
    # route (0, 1) crosses its own diagonal at (2, 2), in the column slice of (2, 3)
    "own-vertical-inside-the-diagonal-slice": (
        {
            (0, 1): ((0, 0), (4, 4), (2, 4), (2, -2)),
            (2, 3): ((1, -1), (1, 5)),
            (4, 5): ((3, -3), (3, 3)),
        },
        1,
        1,
    ),
    "several-verticals-on-one-column": (
        {
            (0, 1): ((3, 0), (3, 6)),
            (2, 3): ((3, 2), (3, 8)),
            (4, 5): ((3, -4), (3, 1)),
            (6, 7): ((0, 1), (6, 1)),
            (8, 9): ((0, 3), (6, 5)),
        },
        3,
        5,
    ),
    "t-junctions": (
        {
            (0, 1): ((0, 0), (0, 4)),
            (2, 3): ((0, 2), (3, 2)),
            (4, 5): ((-3, 3), (0, 3)),
            (6, 7): ((-1, 1), (1, 1)),
        },
        1,
        2,
    ),
    "collinear-overlapping-verticals": (
        {
            (0, 1): ((0, 0), (0, 5)),
            (2, 3): ((0, 2), (0, 8)),
            (4, 5): ((0, 3), (0, 4)),
            (6, 7): ((-1, 3), (1, 3)),
        },
        2,
        7,
    ),
    "empty-single-point-and-repeated-points": (
        {
            (0, 1): (),
            (2, 3): ((1, 1),),
            (4, 5): ((0, 0), (0, 0), (2, 2), (2, 2), (2, 0)),
            (6, 7): ((2, 2), (0, 2), (0, 2)),
            (8, 9): ((1, -1), (1, 1), (1, 1), (3, 3)),
            (10, 11): ((-1, 1), (0, 1), (0, 1), (3, 1)),
        },
        1,
        10,
    ),
    "negative-coordinates": (
        {
            (0, 1): ((-6, -6), (6, 6)),
            (2, 3): ((-4, -5), (-4, 5)),
            (4, 5): ((-5, 1), (5, 1)),
            (6, 7): ((6, -6), (-6, 6)),
            (8, 9): ((-9, -2), (-1, -8)),
            (10, 11): ((-7, -7), (-7, -1), (-2, -1)),
        },
        9,
        0,
    ),
    # (0, 1) and (2, 3) cross at (1/2, 1), and route (4, 5) crosses itself at
    # (1, 1): row 1 is a sweep row interior to all four diagonals
    "diagonals-crossing-on-a-sweep-row": (
        {
            (0, 1): ((0, 0), (1, 2)),
            (2, 3): ((1, 0), (0, 2)),
            (4, 5): ((3, -1), (-1, 3), (-1, -1), (3, 3)),
            (6, 7): ((8, 1), (9, 1)),
        },
        3,
        2,
    ),
    # (2, 3) lies on (0, 1), and row 2 is a sweep row interior to both
    "collinear-overlapping-diagonals": (
        {(0, 1): ((0, 0), (4, 4)), (2, 3): ((1, 1), (3, 3)), (4, 5): ((8, 2), (9, 2))},
        0,
        2,
    ),
    # a horizontal ends on both diagonals on row 2, and (0, 1) ends on the vertical
    "parallel-diagonals": (
        {
            (0, 1): ((0, 0), (2, 4)),
            (2, 3): ((3, 0), (5, 4)),
            (4, 5): ((1, 2), (4, 2)),
            (6, 7): ((2, -1), (2, 5)),
            (8, 9): ((-1, 2), (6, 2)),
        },
        4,
        5,
    ),
    # x = 2y/3 is whole on row 3, where a vertical and a horizontal cross it,
    # and not on rows 1 and 2, where horizontals do; the route crosses itself
    # on row 2
    "long-diagonal-on-interior-rows": (
        {
            (0, 1): ((0, 0), (4, 6), (4, 2), (1, 2)),
            (2, 3): ((2, 1), (2, 5)),
            (4, 5): ((0, 3), (5, 3)),
            (6, 7): ((0, 1), (3, 1)),
            (8, 9): ((1, -1), (1, 7)),
        },
        7,
        2,
    ),
    # one diagonal ends inside the horizontal and another starts inside it
    "diagonal-ending-inside-a-horizontal": (
        {
            (0, 1): ((0, 0), (2, 2)),
            (2, 3): ((3, 2), (5, 4)),
            (4, 5): ((0, 2), (4, 2)),
            (6, 7): ((1, 5), (1, -1)),
        },
        2,
        2,
    ),
}


class TestCrossingAndTouchCounters:
    def test_arbitrary_layouts(self):
        rng = random.Random(20220909)
        for _ in range(3000):
            layout = arbitrary_layout(rng)
            crossings = count_crossings(layout)
            assert crossings == count_crossings_reference(layout)
            assert crossings == len(crossing_pairs_bruteforce(layout.routes))
            assert count_vertex_touches(layout) == count_vertex_touches_reference(layout)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", ["uniform", "chains", "many-lanes"])
    def test_drawn_layouts(self, case, seed):
        if case == "uniform":
            n = 100 + 100 * seed
            g = DiGraph.build(n, uniform_dag_edges(n, 8 * n // 5, seed))
            layout = draw(g, min_path_cover(g)).layout
        elif case == "chains":
            layout = draw(*chains_dag(4, 40, seed)).layout
        else:
            layout = draw(*many_lane_dag(20 + 30 * seed)).layout
        crossings = count_crossings(layout)
        assert crossings == count_crossings_reference(layout)
        assert count_vertex_touches(layout) == count_vertex_touches_reference(layout)
        assert crossings > 0

    @pytest.mark.parametrize("case", ADVERSARIAL)
    def test_adversarial_layouts(self, case):
        routes, crossings, touches = ADVERSARIAL[case]
        layout = _routed(routes)
        assert count_crossings(layout) == count_crossings_reference(layout) == crossings
        assert len(crossing_pairs_bruteforce(routes)) == crossings
        assert count_vertex_touches(layout) == count_vertex_touches_reference(layout) == touches

    def test_vertices_sharing_a_grid_point(self):
        layout = _routed(
            {
                (0, 1): ((0, 0), (0, 5)),
                (2, 3): ((0, 2), (0, 2)),
                (4, 5): ((-2, -2), (2, 2)),
                (6, 7): ((2, 2), (-2, 2)),
            },
            {2: (0, 2), 3: (0, 2), 6: (2, 2), 5: (2, 2)},
        )
        assert count_crossings(layout) == count_crossings_reference(layout) == 1
        assert count_vertex_touches(layout) == count_vertex_touches_reference(layout) == 7
