from __future__ import annotations

import random
from collections import Counter

import pytest

from oracles import bends_for_distance, bundle_ids, chains_dag, cross_routes_of
from pathdraw import DiGraph, PathDecomposition, classify_edges, count_bends, draw


def _two_path_graph():
    """Chain 0..5 plus a short second path feeding cross edges of
    vertical distance 1, 2 and 5 into the chain."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7)]
    edges += [(6, 1), (6, 2), (6, 5)]
    g = DiGraph.build(8, edges)
    d = PathDecomposition(((0, 1, 2, 3, 4, 5), (6, 7)))
    return g, d


def _fan_in_graph():
    """Three cross edges of distances 3, 4, 5 into one target vertex."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (7, 8)]
    edges += [(6, 5), (7, 5), (8, 5)]
    g = DiGraph.build(9, edges)
    d = PathDecomposition(((0, 1, 2, 3, 4, 5), (6, 7, 8)))
    return g, d


@pytest.mark.parametrize(
    "distance,expected", [(1, 0), (2, 1), (3, 2), (4, 2), (10, 2)]
)
def test_bend_rule(distance, expected):
    assert bends_for_distance(distance) == expected


class TestCrossRoutes:
    def test_bends_match_distances(self):
        g, d = _two_path_graph()
        routes = cross_routes_of(draw(g, d, bundle_cross_incoming=False))
        by_edge = {r.edge: r for r in routes}
        assert set(by_edge) == {(6, 1), (6, 2), (6, 5)}
        assert by_edge[(6, 1)].bends == 0
        assert by_edge[(6, 2)].bends == 1
        assert by_edge[(6, 5)].bends == 2

    def test_polyline_shapes(self):
        g, d = _two_path_graph()
        drawing = draw(g, d)
        lay = drawing.layout
        straight = lay.routes[(6, 1)]
        assert len(straight) == 2
        assert straight == ((lay.x[6], lay.y[6]), (lay.x[1], lay.y[1]))
        one_bend = lay.routes[(6, 2)]
        assert len(one_bend) == 3
        assert one_bend[1][1] == lay.y[6]  # corner on the source row
        two_bend = lay.routes[(6, 5)]
        assert len(two_bend) == 4
        assert two_bend[1][0] == two_bend[2][0]  # vertical trunk leg
        assert two_bend[1][1] == lay.y[6]
        assert two_bend[2][1] == lay.y[5]

    def test_lane_assigned_only_when_needed(self):
        g, d = _two_path_graph()
        by_edge = {r.edge: r for r in cross_routes_of(draw(g, d, bundle_cross_incoming=False))}
        assert by_edge[(6, 1)].lane is None
        assert by_edge[(6, 2)].lane is not None
        assert by_edge[(6, 5)].lane is not None

    def test_routes_end_on_vertex_positions(self):
        g, d = _fan_in_graph()
        lay = draw(g, d).layout
        for (u, v), route in lay.routes.items():
            assert route[0] == (lay.x[u], lay.y[u])
            assert route[-1] == (lay.x[v], lay.y[v])


class TestCrossBundles:
    def test_fan_in_bundles_three_members(self):
        g, d = _fan_in_graph()
        drawing = draw(g, d)
        lay = drawing.layout
        bundles = [b for b in drawing.bundles if b.kind == "cross"]
        rerouted = cross_routes_of(drawing)
        assert len(bundles) == 1
        bundle = bundles[0]
        assert bundle.anchor_or_target == 5
        assert bundle.members == ((6, 5), (7, 5), (8, 5))
        lane_x, (start, finish) = bundle.lane, bundle.span
        assert (start, finish) == (lay.y[6], lay.y[5])
        for r in rerouted:
            if r.edge in bundle.members:
                assert r.lane == lane_x

    def test_distance_one_edge_never_joins_a_bundle(self):
        # target 3 sees distances 3, 2, 1; only the first two may bundle
        edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 3), (5, 3), (6, 3)]
        g = DiGraph.build(7, edges)
        d = PathDecomposition(((0, 1, 2, 3), (4, 5, 6)))
        drawing = draw(g, d)
        lay = drawing.layout
        assert [lay.y[3] - lay.y[s] for s in (4, 5, 6)] == [3, 2, 1]
        members = {e for b in drawing.bundles if b.kind == "cross" for e in b.members}
        assert members == {(4, 3), (5, 3)}
        assert len(lay.routes[(6, 3)]) == 2  # still a straight diagonal

    def test_single_qualifier_stays_individual(self):
        # target 3: one incoming at distance 3, one at distance 1
        edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 3), (6, 3)]
        g = DiGraph.build(7, edges)
        d = PathDecomposition(((0, 1, 2, 3), (4, 5, 6)))
        drawing = draw(g, d)
        lay = drawing.layout
        assert lay.y[3] - lay.y[4] == 3
        assert lay.y[3] - lay.y[6] == 1
        assert [b for b in drawing.bundles if b.kind == "cross"] == []
        by_edge = {r.edge: r for r in cross_routes_of(drawing)}
        assert by_edge[(4, 3)].bends == 2
        assert by_edge[(6, 3)].bends == 0

    def test_bundled_distance_two_member_keeps_one_bend(self):
        # target 4 sees distances 2 and 4: both bundle, the short member
        # corners on the shared trunk lane instead of running a leg
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 4), (7, 4)]
        g = DiGraph.build(8, edges)
        d = PathDecomposition(((0, 1, 2, 3, 4), (5, 6, 7)))
        drawing = draw(g, d)
        lay = drawing.layout
        assert lay.y[4] - lay.y[5] == 4
        assert lay.y[4] - lay.y[7] == 2
        cross_bundles = [b for b in drawing.bundles if b.kind == "cross"]
        assert len(cross_bundles) == 1
        bundle = cross_bundles[0]
        assert set(bundle.members) == {(5, 4), (7, 4)}
        lane_x = bundle.lane
        short = lay.routes[(7, 4)]
        long = lay.routes[(5, 4)]
        assert len(short) == 3 and short[1] == (lane_x, lay.y[7])
        assert len(long) == 4 and long[1][0] == long[2][0] == lane_x
        by_edge = {r.edge: r for r in cross_routes_of(drawing)}
        assert by_edge[(7, 4)].bends == 1
        assert by_edge[(5, 4)].bends == 2

    def test_bundling_never_adds_bends(self):
        g, d = _three_path_random(seed=13)
        bundled = draw(g, d, bundle_cross_incoming=True).layout
        plain = draw(g, d, bundle_cross_incoming=False).layout
        assert count_bends(bundled) <= count_bends(plain)


def _three_path_random(seed: int):
    rng = random.Random(seed)
    chains = [list(range(0, 5)), list(range(5, 10)), list(range(10, 15))]
    edges = []
    for chain in chains:
        edges += list(zip(chain, chain[1:]))
    index = {v: i for chain in chains for i, v in enumerate(chain)}
    home = {v: ci for ci, chain in enumerate(chains) for v in chain}
    for _ in range(14):
        u = rng.randrange(15)
        v = rng.randrange(15)
        if home[u] != home[v] and index[u] < index[v] and (u, v) not in edges:
            edges.append((u, v))
    g = DiGraph.build(15, sorted(edges))
    return g, PathDecomposition(tuple(tuple(c) for c in chains))


class TestTransitiveWrapper:
    def test_member_routes_have_two_bends(self):
        g = DiGraph.build(4, [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3)])
        d = PathDecomposition(((0, 1, 2, 3),))
        drawing = draw(g, d, reorder=False)
        intervals = [b for b in drawing.bundles if b.kind == "transitive"]
        updated = drawing.layout
        assert len(intervals) == 1
        for e in intervals[0].members:
            route = updated.routes[e]
            assert len(route) == 4
            assert route[1][0] == route[2][0]  # shared trunk column

    def test_every_transitive_edge_bundled_once(self):
        g, d = _two_bundle_graph()
        cls = classify_edges(g, d)
        drawing = draw(g, d, reorder=False)
        intervals = [b for b in drawing.bundles if b.kind == "transitive"]
        members = [e for iv in intervals for e in iv.members]
        assert sorted(members) == sorted(cls.transitive_edges)
        assert len(members) == len(set(members))


class TestBundleRecordsMatchRoutes:
    @pytest.mark.parametrize("reorder", [True, False], ids=["reorder", "no-reorder"])
    @pytest.mark.parametrize("bundle_cross", [True, False], ids=["cross-on", "cross-off"])
    @pytest.mark.parametrize("case", ["random-3", "random-7", "random-10", "chains"])
    def test_members_sit_on_their_record_lane(self, case, bundle_cross, reorder):
        from pathdraw import generate_random_dag, min_path_cover

        if case == "chains":
            g, d = chains_dag(6, 120, 5)
        else:
            g = generate_random_dag(40, 3.0, seed=int(case.split("-")[1]))
            d = min_path_cover(g)
        drawing = draw(g, d, bundle_cross_incoming=bundle_cross, reorder=reorder)
        lay = drawing.layout
        kinds = {b.kind for b in drawing.bundles}
        assert kinds == ({"transitive", "cross"} if bundle_cross else {"transitive"})
        for b in drawing.bundles:
            lo, hi = b.span
            for e in b.members:
                route = lay.routes[e]
                if b.kind == "transitive":
                    assert lay.category[e] == "transitive"
                    assert len(route) == 4
                    assert route[1][0] == route[2][0] == b.lane  # trunk column
                    assert lo <= route[1][1] <= hi and lo <= route[2][1] <= hi
                else:
                    assert lay.category[e] == "cross"
                    assert len(route) in (3, 4)
                    # the corner, or both ends of the leg, on the trunk column
                    assert all(p[0] == b.lane for p in route[1:-1])
                    assert all(lo <= p[1] <= hi for p in route[1:-1])
        count = Counter(e for b in drawing.bundles for e in b.members)
        cls = classify_edges(g, d)
        assert all(count[e] == 1 for e in cls.transitive_edges)
        assert all(count[e] <= 1 for e in cls.cross_edges)
        assert set(count) <= cls.transitive_edges | cls.cross_edges


def _two_bundle_graph():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (0, 3), (1, 4), (2, 4)]
    g = DiGraph.build(5, edges)
    return g, PathDecomposition(((0, 1, 2, 3, 4),))


class TestWrapperConsistency:
    def test_draw_is_deterministic(self):
        from pathdraw import generate_random_dag, min_path_cover

        g = generate_random_dag(45, 2.8, seed=17)
        d = min_path_cover(g)
        assert draw(g, d) == draw(g, d)


class TestDrawingWellFormed:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_drawings_are_well_formed(self, seed):
        import random as _random

        from pathdraw import generate_random_dag, min_path_cover

        rng = _random.Random(seed)
        g = generate_random_dag(rng.randrange(2, 70), rng.uniform(0.5, 4.0), seed)
        d = min_path_cover(g)
        drawing = draw(g, d)
        lay = drawing.layout
        # dense column grid, fully described by column_meta
        used = set(lay.x.values())
        for route in lay.routes.values():
            used.update(p for p, _ in route)
        assert used == set(lay.column_meta) or not used
        assert set(lay.column_meta) == set(range(len(lay.column_meta)))
        for (u, v), route in lay.routes.items():
            if not route:
                continue
            assert route[0] == (lay.x[u], lay.y[u])
            assert route[-1] == (lay.x[v], lay.y[v])
            for p, q in zip(route, route[1:]):
                assert p != q  # no zero-length segments
    @pytest.mark.parametrize("seed", range(6))
    def test_vertical_segments_conflict_free(self, seed):
        from pathdraw import generate_random_dag, min_path_cover

        g = generate_random_dag(40, 2.5, seed)
        d = min_path_cover(g)
        drawing = draw(g, d)
        lay = drawing.layout
        verticals: dict[int, list[tuple[int, int, object]]] = {}
        bundle_of = bundle_ids(drawing)
        for e, route in lay.routes.items():
            key = bundle_of.get(e, e)
            for p, q in zip(route, route[1:]):
                if p[0] == q[0] and p[1] != q[1]:
                    lo, hi = sorted((p[1], q[1]))
                    verticals.setdefault(p[0], []).append((lo, hi, key))
        for col, segs in verticals.items():
            for i in range(len(segs)):
                for j in range(i + 1, len(segs)):
                    lo1, hi1, k1 = segs[i]
                    lo2, hi2, k2 = segs[j]
                    if k1 == k2:
                        continue
                    assert min(hi1, hi2) <= max(lo1, lo2), (
                        f"column {col}: {segs[i]} overlaps {segs[j]}"
                    )

    @pytest.mark.parametrize("seed", range(6))
    def test_segment_vocabulary(self, seed):
        from pathdraw import generate_random_dag, min_path_cover

        g = generate_random_dag(30, 2.0, seed)
        d = min_path_cover(g)
        lay = draw(g, d).layout
        for e, route in lay.routes.items():
            dy = 0 if len(route) < 2 else lay.y[e[1]] - lay.y[e[0]]
            for p, q in zip(route, route[1:]):
                axis_aligned = p[0] == q[0] or p[1] == q[1]
                if not axis_aligned:
                    assert lay.category[e] == "cross"
                    assert dy in (1, 2)
