from __future__ import annotations

import random
from dataclasses import replace
from heapq import heapify, heappop, heappush

import pytest

from oracles import adjacency_reference, longest_path_ending_at
from pathdraw import (
    DiGraph,
    InvariantError,
    PathDecomposition,
    draw,
    generate_random_dag,
    min_path_cover,
    topo_sort,
)
from pathdraw.layout import assert_properties


def _uncompacted(g, d):
    return draw(g, d, compact_rows=False).layout


def _compacted(g, d):
    return draw(g, d).layout


def _height(lay):
    return max(lay.y.values(), default=0)


class TestInitialLayout:
    def test_chain_vertical(self, chain3):
        lay = _uncompacted(chain3, PathDecomposition(((0, 1, 2),)))
        assert lay.y == {0: 0, 1: 1, 2: 2}
        assert len(set(lay.x.values())) == 1

    def test_diamond_columns_follow_path_order(self, diamond, diamond_paths):
        lay = _uncompacted(diamond, diamond_paths)
        assert lay.x[0] == lay.x[1] == lay.x[3] < lay.x[2]
        assert lay.y == topo_sort(diamond)

    @pytest.mark.parametrize("n", [20, 50, 100])
    @pytest.mark.parametrize("seed", range(34))
    def test_height_is_n_minus_one(self, n, seed):
        g = generate_random_dag(n, 1.6, seed)
        lay = _uncompacted(g, min_path_cover(g))
        assert max(lay.y.values()) - min(lay.y.values()) == n - 1


class TestCompact:
    def test_two_singletons_land_on_row_zero(self):
        g = DiGraph.build(2, [])
        d = PathDecomposition(((0,), (1,)))
        lay = _compacted(g, d)
        assert lay.y == {0: 0, 1: 0}
        assert _height(lay) == 0

    def test_diamond(self, diamond, diamond_paths):
        lay = _compacted(diamond, diamond_paths)
        assert lay.y == {0: 0, 1: 1, 2: 1, 3: 2}
        assert _height(lay) == 2

    def test_rows_equal_longest_path_table(self):
        g = generate_random_dag(50, 1.8, seed=11)
        assert _compacted(g, min_path_cover(g)).y == longest_path_ending_at(g)

    @pytest.mark.parametrize("seed", range(10))
    def test_idempotent_and_x_stable(self, seed):
        g = generate_random_dag(30, 2.0, seed)
        d = min_path_cover(g)
        once = _compacted(g, d)
        # compacting again changes nothing: every row is already one below
        # its highest predecessor
        for v, preds in enumerate(adjacency_reference(g.vertex_count, g.edges)[1]):
            assert once.y[v] == max((once.y[u] + 1 for u in preds), default=0)
        # compaction moves vertices only vertically: spine order is kept
        lay = _uncompacted(g, d)
        spines, spines_once = sorted(set(lay.x.values())), sorted(set(once.x.values()))
        assert {v: spines.index(x) for v, x in lay.x.items()} == {
            v: spines_once.index(x) for v, x in once.x.items()
        }

    @pytest.mark.parametrize("seed", range(10))
    def test_edges_ascend_and_height_is_longest_path(self, seed):
        g = generate_random_dag(40, 1.6, seed)
        done = _compacted(g, min_path_cover(g))
        for u, v in g.edges:
            assert done.y[u] < done.y[v]
        assert _height(done) == max(longest_path_ending_at(g).values())

    @pytest.mark.parametrize("ranks", ["none", "kept-shuffled", "max-id-kahn", "ids"])
    @pytest.mark.parametrize("seed", range(10))
    def test_rows_do_not_depend_on_the_ranks_given(self, seed, ranks):
        g = generate_random_dag(40, 1.6, seed)
        d = min_path_cover(g)
        t = _ranks(g, ranks, seed)
        assert draw(g, d, t).layout.y == longest_path_ending_at(g)
        # uncompacted rows are the kept ranks, whatever ranks are passed,
        # so no edge climbs even when the given ranks are not topological
        rows = draw(g, d, t, compact_rows=False).layout.y
        assert rows == topo_sort(g)
        assert all(rows[u] < rows[v] for u, v in g.edges)


def _ranks(g, kind, seed):
    """The ``t`` passed to ``draw``: none, the kept ranks with their keys
    shuffled, the ranks of a max-id Kahn order, or the vertex ids, which
    are not topological."""
    n = g.vertex_count
    if kind == "none":
        return None
    if kind == "kept-shuffled":
        items = list(topo_sort(g).items())
        random.Random(seed).shuffle(items)
        return dict(items)
    if kind == "max-id-kahn":
        indeg = list(map(len, adjacency_reference(n, g.edges)[1]))
        heap = [-v for v in range(n) if not indeg[v]]
        heapify(heap)
        rank = {}
        while heap:
            v = -heappop(heap)
            rank[v] = len(rank)
            for w in g.successors(v):
                indeg[w] -= 1
                if not indeg[w]:
                    heappush(heap, -w)
        return rank
    # ids as ranks: some edge runs from a higher id to a lower one
    assert any(u > v for u, v in g.edges)
    return {v: v for v in range(n)}


class TestProperties:
    def test_compacted_diamond_ok(self, diamond, diamond_paths):
        lay = _compacted(diamond, diamond_paths)
        assert assert_properties(diamond, lay) is None

    def test_shared_row_on_path_is_flagged(self, chain3):
        lay = _uncompacted(chain3, PathDecomposition(((0, 1, 2),)))
        broken = replace(lay, y={0: 0, 1: 0, 2: 1})
        message = "internal invariant violated: vertices 0 and 1 of one path share a row"
        with pytest.raises(InvariantError, match=f"^{message}$"):
            assert_properties(chain3, broken)

    def test_missing_predecessor_row_is_flagged(self, chain3):
        lay = _uncompacted(chain3, PathDecomposition(((0, 1, 2),)))
        broken = replace(lay, y={0: 0, 1: 2, 2: 3})
        message = "internal invariant violated: vertex 1 has no predecessor one row above"
        with pytest.raises(InvariantError, match=f"^{message}$"):
            assert_properties(chain3, broken)

    @pytest.mark.parametrize("seed", range(100))
    def test_random_compacted_layouts_hold(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 60)
        g = generate_random_dag(n, rng.uniform(0.8, 3.0), seed)
        assert assert_properties(g, _compacted(g, min_path_cover(g))) is None
