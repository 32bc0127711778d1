"""The rewritten per-edge loops against their earlier forms in oracles.py.

Adjacency construction, cycle removal, gap occupants and SVG rendering were
rewritten to touch each edge a constant number of times. Each must give
exactly what the plainer form gave, on seeded inputs that include 2-cycles,
shuffled edge orders and layouts with coordinates left of, above and below
zero.
"""

from __future__ import annotations

import random

import pytest

from oracles import (
    adjacency_reference,
    chains_dag,
    cross_routes_of,
    cyclic_digraph_edges,
    gap_occupants_reference,
    remove_cycles_reference,
    render_svg_reference,
)
from pathdraw import DiGraph, draw, min_path_cover, remove_cycles, render_svg, topo_sort
from pathdraw.decomposition import classify_edges
from pathdraw.layout import Layout
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


class TestRemoveCycles:
    @pytest.mark.parametrize("seed", range(60))
    def test_equals_flip_and_rebuild(self, seed):
        g = _cyclic(seed)
        result = remove_cycles(g)
        edges, succ, pred, back = remove_cycles_reference(g)
        assert result.reversed_edges == back
        assert result.dag.edges == edges
        assert result.dag._succ == succ
        assert result.dag._pred == pred

    def test_two_cycles_merge_as_before(self):
        # 0->1->0 with the back edge first, then last, in edge order
        for edges in ([(1, 0), (0, 1), (1, 2)], [(0, 1), (1, 2), (1, 0)]):
            g = DiGraph.build(3, edges)
            result = remove_cycles(g)
            dag_edges, _, _, back = remove_cycles_reference(g)
            assert (result.dag.edges, result.reversed_edges) == (dag_edges, back)
            assert result.dag.edge_count == 2

    def test_sprawl_sized_graph_merges_the_same_edges(self):
        g = DiGraph.build(3000, cyclic_digraph_edges(3000, 12000, seed=5, twin_frac=0.1))
        result = remove_cycles(g)
        edges, succ, pred, back = remove_cycles_reference(g)
        assert g.edge_count - result.dag.edge_count == g.edge_count - len(edges) > 0
        assert (result.dag.edges, result.dag._succ, result.dag._pred) == (edges, succ, pred)
        assert result.reversed_edges == back

    def test_acyclic_graph_comes_back_unchanged(self, diamond):
        result = remove_cycles(diamond)
        assert result.dag is diamond
        assert result.reversed_edges == frozenset()


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
        # cycle removal leaves flipped edges out of order in dag.edges
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


class TestRenderSvg:
    @pytest.mark.parametrize("seed", range(60))
    def test_toy_layouts(self, seed):
        layout = _toy_layout(seed)
        assert render_svg(layout) == render_svg_reference(layout)
        assert render_svg(layout, pitch=7) == render_svg_reference(layout, pitch=7)

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
