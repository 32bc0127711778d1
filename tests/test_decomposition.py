from __future__ import annotations

import random
import re

import pytest

from oracles import (
    cyclic_digraph_edges,
    ladder_dag,
    max_matching_bruteforce,
    min_cover_bruteforce,
)
from pathdraw import (
    DecompositionError,
    DiGraph,
    PathDecomposition,
    classify_edges,
    draw,
    generate_random_dag,
    min_path_cover,
    parse_decomposition,
    remove_cycles,
    topo_sort,
    validate_decomposition,
)


class TestValidate:
    def test_chain_single_path(self, chain3):
        report = validate_decomposition(chain3, PathDecomposition(((0, 1, 2),)))
        assert report.ok

    def test_non_edge_pair_reported(self, chain3):
        report = validate_decomposition(chain3, PathDecomposition(((0, 2), (1,))))
        assert not report.ok
        assert (0, 2) in report.non_edges

    def test_pair_along_a_reversed_edge_reported_apart(self, chain3):
        # chain3 as the DAG of an input that also had 2 -> 1, flipped away
        report = validate_decomposition(chain3, PathDecomposition(((2, 1), (0,))), {(2, 1)})
        assert (report.non_edges, report.reversed_pairs) == ((), ((2, 1),))
        assert not report.ok
        other = validate_decomposition(chain3, PathDecomposition(((0, 2), (1,))), {(2, 1)})
        assert (other.non_edges, other.reversed_pairs) == (((0, 2),), ())

    def test_diamond_with_singleton(self, diamond, diamond_paths):
        assert validate_decomposition(diamond, diamond_paths).ok

    def test_missing_and_duplicated(self, diamond):
        report = validate_decomposition(diamond, PathDecomposition(((0, 1), (1, 3))))
        assert report.missing == (2,)
        assert report.duplicated == (1,)

    def test_out_of_range(self, chain3):
        report = validate_decomposition(chain3, PathDecomposition(((0, 1, 2), (9,))))
        assert report.out_of_range == (9,)


class TestDrawNeedsPartition:
    @pytest.mark.parametrize(
        "paths, named",
        [
            (((0, 1, 3),), "missing vertices [2]"),
            (((0, 1, 3), (2,), (2,)), "duplicated vertices [2]"),
            (((0, 1, 3), (2, 5)), "out-of-range vertices [5]"),
        ],
        ids=["missing", "repeated", "out-of-range"],
    )
    def test_draw_rejects_a_non_partition(self, diamond, paths, named):
        with pytest.raises(DecompositionError, match=re.escape(named)):
            draw(diamond, PathDecomposition(paths))

    def test_draw_rejects_a_pair_that_is_not_an_edge(self, chain3):
        # a cycle whose input edge 2 -> 0 cycle removal flips to 0 -> 2
        flipped = remove_cycles(DiGraph.build(3, [(0, 1), (1, 2), (2, 0)])).dag
        assert flipped.edges == ((0, 1), (0, 2), (1, 2))
        cases = (
            (chain3, ((2, 0), (1,)), "(2, 0)"),  # against the edges, across a vertex
            (chain3, ((1, 0), (2,)), "(1, 0)"),  # an edge reversed
            (chain3, ((0, 2), (1,)), "(0, 2)"),  # reachable, but not an edge
            (flipped, ((1, 2, 0),), "(2, 0)"),  # an input edge that was flipped
        )
        for g, paths, pair in cases:
            named = f"invalid decomposition: consecutive pairs that are not edges {pair}"
            with pytest.raises(DecompositionError, match=f"^{re.escape(named)}$"):
                draw(g, PathDecomposition(paths))

    def test_validation_and_drawing_walk_the_paths_once(self, diamond):
        class CountingPaths(tuple):
            walks = 0

            def __iter__(self):
                CountingPaths.walks += 1
                return super().__iter__()

        d = PathDecomposition(CountingPaths(((0, 1, 3), (2,))))
        assert validate_decomposition(diamond, d).ok
        walks = CountingPaths.walks
        assert d.path_of(diamond.vertex_count) == [0, 0, 1, 0]
        assert CountingPaths.walks == walks


def _path_edges(cls) -> set:
    """The edges that the map calls path edges; neither list holds them."""
    return {e for e, kind in cls.category.items() if kind == "path"}


class TestClassify:
    def test_chain_with_shortcut(self):
        g = DiGraph.build(3, [(0, 1), (1, 2), (0, 2)])
        cls = classify_edges(g, PathDecomposition(((0, 1, 2),)))
        assert _path_edges(cls) == {(0, 1), (1, 2)}
        assert set(cls.transitive_edges) == {(0, 2)}
        assert set(cls.cross_edges) == set()

    def test_diamond(self, diamond, diamond_paths):
        cls = classify_edges(diamond, diamond_paths)
        assert _path_edges(cls) == {(0, 1), (1, 3)}
        assert set(cls.transitive_edges) == set()
        assert set(cls.cross_edges) == {(0, 2), (2, 3)}

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_classes_partition_edge_set(self, seed):
        g = generate_random_dag(40, 2.2, seed)
        d = min_path_cover(g)
        cls = classify_edges(g, d)
        groups = (_path_edges(cls), set(cls.transitive_edges), set(cls.cross_edges))
        union = set().union(*groups)
        assert union == set(g.edges)
        assert sum(len(s) for s in groups) == g.edge_count

    @pytest.mark.parametrize("cyclic", [False, True], ids=["dag", "cyclic"])
    @pytest.mark.parametrize("seed", range(4))
    def test_lists_follow_the_map_in_edge_order(self, seed, cyclic):
        # the map and the two lists come from one pass over g.edges, so each
        # list is the map's edges of its kind, in edge order
        if cyclic:
            g = remove_cycles(DiGraph.build(60, cyclic_digraph_edges(60, 150, seed))).dag
        else:
            g = generate_random_dag(60, 3.0, seed)
        cls = classify_edges(g, min_path_cover(g))
        assert list(cls.category) == list(g.edges)
        for kind, edges in (("transitive", cls.transitive_edges), ("cross", cls.cross_edges)):
            assert type(edges) is list
            assert edges == [e for e in g.edges if cls.category[e] == kind]
        assert cls.transitive_edges and cls.cross_edges


class TestMinPathCover:
    def test_chain_of_five(self):
        g = DiGraph.build(5, [(i, i + 1) for i in range(4)])
        d = min_path_cover(g)
        assert d.path_count == 1
        assert d.paths[0] == (0, 1, 2, 3, 4)

    def test_out_star(self):
        edges = [(0, 1), (0, 2), (0, 3)]
        g = DiGraph.build(4, edges)
        d = min_path_cover(g)
        # split-graph matching can pick at most one edge: all share source 0
        assert max_matching_bruteforce(edges) == 1
        assert d.path_count == 4 - 1

    def test_edgeless_graph(self):
        g = DiGraph.build(6, [])
        d = min_path_cover(g)
        assert d.path_count == 6
        assert all(len(p) == 1 for p in d.paths)

    @pytest.mark.parametrize("seed", range(25))
    def test_cover_is_valid_and_rank_ordered(self, seed):
        rng = random.Random(seed)
        g = generate_random_dag(rng.randrange(2, 25), rng.uniform(0.5, 2.5), seed)
        d = min_path_cover(g)
        assert validate_decomposition(g, d).ok
        rank = topo_sort(g)
        firsts = [rank[p[0]] for p in d.paths]
        assert firsts == sorted(firsts)

    @pytest.mark.parametrize("seed", range(25))
    def test_minimum_against_exhaustive_enumeration(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randrange(2, 11)
        g = generate_random_dag(n, rng.uniform(0.5, 2.0), seed)
        assert min_path_cover(g).path_count == min_cover_bruteforce(g)

    def test_long_augmenting_path_does_not_recurse(self):
        # the last augmenting path runs through all 5,000 left vertices
        k = 5000
        g = ladder_dag(k)
        d = min_path_cover(g)
        assert d.path_count == k + 1
        assert validate_decomposition(g, d).ok


class TestParseDecomposition:
    def test_chain(self, chain3):
        d = parse_decomposition("0 1 2", chain3)
        assert d.paths == ((0, 1, 2),)

    def test_diamond(self, diamond):
        d = parse_decomposition("0 1 3\n2", diamond)
        assert d.paths == ((0, 1, 3), (2,))

    def test_empty_document_reports_all_missing(self, chain3):
        with pytest.raises(DecompositionError, match="missing vertices \\[0, 1, 2\\]"):
            parse_decomposition("", chain3)

    def test_comments_allowed(self, chain3):
        d = parse_decomposition("# cover\n0 1 2\n", chain3)
        assert d.paths == ((0, 1, 2),)

    def test_bad_token(self, chain3):
        with pytest.raises(DecompositionError, match="expected vertex ids"):
            parse_decomposition("0 1 x", chain3)

    @pytest.mark.parametrize("token", ["\u00b2", "\u0662"])
    def test_non_ascii_digit_rejected_with_line(self, chain3, token):
        with pytest.raises(DecompositionError, match=r"line 2: expected vertex ids"):
            parse_decomposition(f"# cover\n0 1 {token}\n", chain3)

    def test_order_preserved(self, diamond):
        d = parse_decomposition("2\n0 1 3", diamond)
        assert d.paths == ((2,), (0, 1, 3))
