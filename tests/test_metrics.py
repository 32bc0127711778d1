from __future__ import annotations

import random

import pytest

from oracles import (
    arbitrary_layout,
    crossing_pairs_bruteforce,
    segment_count,
    vertex_touches_bruteforce,
)
from pathdraw import (
    DiGraph,
    PathDecomposition,
    count_bends,
    draw,
    generate_random_dag,
    measure,
    min_path_cover,
)
from pathdraw.layout import Layout
from pathdraw.metrics import count_crossings, count_vertex_touches, segments_properly_cross


def _toy_layout(routes, positions=None, categories=None):
    """Hand-built layout; vertex ids are the route endpoints."""
    verts = sorted({v for e in routes for v in e})
    positions = positions or {}
    x = {v: positions.get(v, (0, 0))[0] for v in verts}
    y = {v: positions.get(v, (0, 0))[1] for v in verts}
    for e, route in routes.items():
        u, w = e
        if route:
            x[u], y[u] = route[0]
            x[w], y[w] = route[-1]
    return Layout(
        x=x,
        y=y,
        routes=dict(routes),
        category={e: (categories or {}).get(e, "cross") for e in routes},
        column_meta={},
        paths=tuple((v,) for v in verts),
    )


class TestCrossingPredicate:
    def test_disjoint_edges(self):
        lay = _toy_layout({(0, 1): ((0, 0), (0, 2)), (2, 3): ((5, 0), (5, 2))})
        assert count_crossings(lay) == 0

    def test_x_configuration(self):
        lay = _toy_layout({(0, 1): ((0, 0), (2, 2)), (2, 3): ((0, 2), (2, 0))})
        assert count_crossings(lay) == 1

    def test_shared_endpoint_is_not_a_crossing(self):
        assert not segments_properly_cross((0, 0), (2, 2), (2, 2), (4, 0))

    def test_t_junction_is_not_a_crossing(self):
        # one segment's endpoint lies interior to the other
        assert not segments_properly_cross((0, 0), (0, 4), (0, 2), (3, 2))

    def test_collinear_overlap_is_not_a_crossing(self):
        assert not segments_properly_cross((0, 0), (0, 5), (0, 2), (0, 8))

    def test_polyline_pair_crossing_found_on_any_segment(self):
        a = ((0, 0), (4, 0), (4, 4))
        b = ((2, -1), (2, 1), (6, 1))
        assert count_crossings(_toy_layout({(0, 1): a, (2, 3): b})) == 1


class TestCountCrossings:
    @pytest.mark.parametrize("seed", [2, 3, 4, 5])
    def test_matches_bruteforce_oracle_on_pipeline_layouts(self, seed):
        g = generate_random_dag(20, 2.0, seed)
        lay = draw(g, min_path_cover(g)).layout
        assert segment_count(lay.routes) <= 500
        assert count_crossings(lay) == len(crossing_pairs_bruteforce(lay.routes))

    def test_zero_on_single_path_chain(self):
        g = DiGraph.build(5, [(i, i + 1) for i in range(4)])
        lay = draw(g, PathDecomposition(((0, 1, 2, 3, 4),))).layout
        assert count_crossings(lay) == 0


def _positions(layout):
    return {v: (layout.x[v], layout.y[v]) for v in layout.x}


def _chains_layout(k: int, length: int, seed: int) -> Layout:
    """k chains drawn as the paths, with skip edges bundled onto lane trunks
    and cross edges one to four positions down another chain."""
    rng = random.Random(seed)
    edges = set()
    for c in range(k):
        base = c * length
        for j in range(length - 1):
            edges.add((base + j, base + j + 1))
            for skip in range(2, 7):
                if j + skip < length and rng.random() < 0.4:
                    edges.add((base + j, base + j + skip))
            other = rng.choice([o for o in range(k) if o != c])
            target = j + rng.randint(1, 4)
            if target < length:
                edges.add((base + j, other * length + target))
    g = DiGraph.build(k * length, sorted(edges))
    d = PathDecomposition(tuple(tuple(range(c * length, (c + 1) * length)) for c in range(k)))
    return draw(g, d).layout


def _with_cover(g):
    return g, min_path_cover(g)


class TestCountersAgainstOracles:
    """The sweep counters against the all-pairs and all-vertices oracles."""

    @pytest.mark.parametrize(
        "routes, expected",
        [
            # a long diagonal through negative coordinates crossing three routes
            (
                {
                    (0, 1): ((-6, -6), (6, 6)),
                    (2, 3): ((-4, -5), (-4, 5)),
                    (4, 5): ((-5, 1), (5, 1)),
                    (6, 7): ((6, -6), (-6, 6)),
                },
                6,
            ),
            # T-junction: an endpoint interior to the other segment
            ({(0, 1): ((0, 0), (0, 4)), (2, 3): ((0, 2), (3, 2))}, 0),
            # collinear trunk overlap, vertical and horizontal
            ({(0, 1): ((0, 0), (0, 5)), (2, 3): ((0, 2), (0, 8))}, 0),
            ({(0, 1): ((0, 0), (5, 0)), (2, 3): ((2, 0), (8, 0))}, 0),
            # an H-V-H route crossing one vertical twice counts once
            ({(0, 1): ((-2, 1), (2, 1), (2, 3), (-2, 3)), (2, 3): ((0, 0), (0, 5))}, 1),
            # empty and single-point routes have no segments
            ({(0, 1): (), (2, 3): ((1, 1),), (4, 5): ((0, 0), (2, 2))}, 0),
            # a diagonal through a vertical's endpoint and a horizontal's endpoint
            (
                {
                    (0, 1): ((0, 0), (4, 4)),
                    (2, 3): ((2, 2), (2, 6)),
                    (4, 5): ((1, 1), (-3, 1)),
                },
                0,
            ),
        ],
    )
    def test_adversarial_cases(self, routes, expected):
        lay = _toy_layout(routes)
        assert count_crossings(lay) == expected
        assert expected == len(crossing_pairs_bruteforce(lay.routes))
        assert count_vertex_touches(lay) == vertex_touches_bruteforce(
            _positions(lay), lay.routes
        )

    def test_arbitrary_integer_polylines(self):
        rng = random.Random(20220909)
        for _ in range(3000):
            lay = arbitrary_layout(rng)
            assert count_crossings(lay) == len(crossing_pairs_bruteforce(lay.routes))
            assert count_vertex_touches(lay) == vertex_touches_bruteforce(
                _positions(lay), lay.routes
            )

    @pytest.mark.parametrize(
        "layout_of",
        [
            lambda: draw(*_with_cover(generate_random_dag(300, 1.6, seed=11))).layout,
            lambda: _chains_layout(4, 30, seed=3),
        ],
        ids=["report-sized-dag", "chains-with-trunks"],
    )
    def test_pipeline_layouts_above_the_oracle_cap(self, layout_of):
        lay = layout_of()
        assert segment_count(lay.routes) > 500
        assert count_crossings(lay) == len(crossing_pairs_bruteforce(lay.routes))
        assert count_vertex_touches(lay) == vertex_touches_bruteforce(
            _positions(lay), lay.routes
        )


class TestCountBends:
    def test_straight_edge(self):
        lay = _toy_layout({(0, 1): ((0, 0), (0, 5))})
        assert count_bends(lay) == 0

    def test_distance_five_cross_edge_has_two_bends(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (6, 5)]
        g = DiGraph.build(8, edges)
        d = PathDecomposition(((0, 1, 2, 3, 4, 5), (6, 7)))
        lay = draw(g, d).layout
        assert lay.y[5] - lay.y[6] == 5
        single = _toy_layout({(6, 5): lay.routes[(6, 5)]})
        assert count_bends(single) == 2

    def test_three_member_bundle_counts_six(self):
        g = DiGraph.build(
            5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (0, 3), (0, 4)]
        )
        d = PathDecomposition(((0, 1, 2, 3, 4),))
        drawing = draw(g, d)
        intervals = [b for b in drawing.bundles if b.kind == "transitive"]
        assert len(intervals) == 1
        members = intervals[0].members
        trimmed = _toy_layout({e: drawing.layout.routes[e] for e in members})
        assert count_bends(trimmed) == 6


class TestMeasure:
    def test_single_vertex(self):
        g = DiGraph.build(1, [])
        report = measure(draw(g, PathDecomposition(((0,),))).layout)
        assert (report.width, report.height, report.area) == (1, 0, 0)

    def test_chain_of_sixteen(self):
        g = DiGraph.build(16, [(i, i + 1) for i in range(15)])
        report = measure(draw(g, PathDecomposition((tuple(range(16)),))).layout)
        assert report.width == 1
        assert report.height == 15
        assert report.area == 15

    def test_area_is_width_times_height(self):
        g = generate_random_dag(30, 1.8, seed=6)
        report = measure(draw(g, min_path_cover(g)).layout)
        assert report.area == report.width * report.height

    def test_fields_recomputable_from_json(self):
        import json

        from pathdraw import generate_random_dag, render_json, run_pipeline_full

        result = run_pipeline_full(generate_random_dag(20, 1.55, seed=1))
        doc = json.loads(
            render_json(
                result.drawing.layout,
                result.metrics,
                bundles=result.drawing.bundles,
            )
        )
        routes = {
            (e["u"], e["v"]): tuple((px, py) for px, py in e["route"])
            for e in doc["edges"]
        }
        xs = {v["x"] for v in doc["vertices"]}
        ys = {v["y"] for v in doc["vertices"]}
        for route in routes.values():
            xs.update(p for p, _ in route)
            ys.update(q for _, q in route)
        assert doc["metrics"]["width"] == len(xs)
        assert doc["metrics"]["height"] == len(ys) - 1
        assert doc["metrics"]["area"] == len(xs) * (len(ys) - 1)
        assert doc["metrics"]["crossings"] == len(crossing_pairs_bruteforce(routes))
        bend_total = 0
        for route in routes.values():
            for a, b, c in zip(route, route[1:], route[2:]):
                if (b[0] - a[0]) * (c[1] - b[1]) != (b[1] - a[1]) * (c[0] - b[0]):
                    bend_total += 1
        assert doc["metrics"]["bends"] == bend_total


class TestVertexTouches:
    def test_pass_through_flagged_not_crossed(self):
        routes = {
            (0, 1): ((0, 0), (0, 4)),
            (2, 3): ((-1, 2), (3, 2)),
        }
        lay = _toy_layout(routes, positions={2: (-1, 2)})
        # vertex 2 sits at (-1, 2); no vertex lies on the other route interior
        lay2 = Layout(
            x={0: 0, 1: 0, 2: -1, 3: 3, 4: 0},
            y={0: 0, 1: 4, 2: 2, 3: 2, 4: 2},
            routes=routes,
            category={e: "cross" for e in routes},
            column_meta={},
            paths=((0,), (1,), (2,), (3,), (4,)),
        )
        # vertex 4 at (0, 2) lies on both routes but belongs to neither edge
        assert count_vertex_touches(lay2) == 2
        assert count_crossings(lay2) == 1  # the two routes still cross
