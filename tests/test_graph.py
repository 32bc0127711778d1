from __future__ import annotations

import random

import pytest

import pathdraw.graph
from oracles import (
    GENERATOR_ENUMERATE_LIMIT,
    generate_random_dag_reference,
    longest_ending_at_bruteforce,
    longest_path_ending_at,
    random_digraph,
)
from pathdraw import (
    DiGraph,
    GraphError,
    draw,
    generate_random_dag,
    min_path_cover,
    parse_graph,
    remove_cycles,
    topo_sort,
)
from pathdraw.graph import serialize_graph


class TestParse:
    def test_smallest_chain(self):
        g = parse_graph("3\n0 1\n1 2")
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            parse_graph("2\n0 0")

    def test_duplicate_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            parse_graph("3\n0 1\n0 1")

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            parse_graph("2\n0 5")

    def test_malformed_line(self):
        with pytest.raises(GraphError, match="expected 'u v'"):
            parse_graph("3\n0 1 2")

    @pytest.mark.parametrize("token", ["\u00b2", "\u0661", "\u0967", "1\u00b2"])
    def test_non_ascii_digit_in_edge_rejected_with_line(self, token):
        # str.isdigit accepts these; int() rejects some and silently reads others
        with pytest.raises(GraphError, match=r"line 3: expected 'u v'"):
            parse_graph(f"3\n0 1\n0 {token}\n")
        with pytest.raises(GraphError, match=r"line 2: expected 'u v'"):
            parse_graph(f"3\n{token} 0\n")

    @pytest.mark.parametrize("token", ["\u00b3", "\u0663"])
    def test_non_ascii_vertex_count_rejected_with_line(self, token):
        with pytest.raises(GraphError, match=r"line 2: expected vertex count"):
            parse_graph(f"# count\n{token}\n0 1\n")

    def test_comments_and_blanks_ignored(self):
        g = parse_graph("# a comment\n\n3\n# another\n0 1\n\n1 2\n")
        assert g.edges == ((0, 1), (1, 2))

    def test_missing_count(self):
        with pytest.raises(GraphError, match="vertex count"):
            parse_graph("# only a comment\n")

    def test_round_trip_on_generated_graph(self):
        g = generate_random_dag(20, 1.55, seed=1)
        assert g.vertex_count == 20
        assert g.edge_count == 31
        again = parse_graph(serialize_graph(g))
        assert set(again.edges) == set(g.edges)
        assert serialize_graph(again) == serialize_graph(g)


class TestCanonicalEdges:
    def test_two_orders_of_one_edge_set_build_equal_graphs(self):
        edges = [(2, 0), (0, 3), (1, 3), (0, 1)]
        assert DiGraph.build(4, edges) == DiGraph.build(4, edges[::-1])

    def test_any_iterable_of_pairs_is_stored_as_sorted_tuples(self):
        g = DiGraph.build(4, iter([(2, 0), (0, 3), (0, 1)]))
        h = DiGraph.build(4, [[2, 0], [0, 3], [0, 1]])
        for graph in (g, h):
            assert graph.edges == ((0, 1), (0, 3), (2, 0))
            assert all(type(e) is tuple for e in graph.edges)
            assert graph._succ == ((1, 3), (), (0,), ())
            assert graph._pred == ((2,), (0,), (), (0,))

    def test_repeat_names_the_smallest_repeated_pair(self):
        with pytest.raises(GraphError, match=r"^duplicate edge \(1, 2\)$"):
            DiGraph.build(3, [(1, 2), (2, 0), (0, 2), (1, 2)])
        with pytest.raises(GraphError, match=r"^duplicate edge \(0, 1\)$"):
            DiGraph.build(3, [(2, 1), (2, 1), (0, 1), (0, 1)])

    def test_negative_vertex_count_is_rejected(self):
        with pytest.raises(GraphError, match=r"^vertex count must be non-negative, got -1$"):
            DiGraph.build(-1, [])

    def test_range_and_self_loop_faults_win_over_an_earlier_repeat(self):
        with pytest.raises(GraphError, match=r"^edge \(0, 5\) out of range for 3 vertices$"):
            DiGraph.build(3, [(0, 1), (0, 1), (0, 5)])
        with pytest.raises(GraphError, match=r"^self-loop at vertex 2$"):
            DiGraph.build(3, [(0, 1), (0, 1), (2, 2)])
        with pytest.raises(GraphError, match=r"^bad edge list: edge \(0, 5\) out of range"):
            parse_graph("3\n0 1\n0 1\n0 5\n")

    def test_remove_cycles_returns_sorted_edges_with_a_two_cycle_merged(self):
        g = DiGraph.build(4, [(3, 0), (0, 1), (1, 0), (1, 2), (2, 3)])
        result = remove_cycles(g)
        # (1, 0) flips onto (0, 1); (3, 0) flips to (0, 3) and sorts second
        assert result.reversed_edges == {(1, 0), (3, 0)}
        assert result.dag.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
        assert result.dag == DiGraph.build(4, result.dag.edges[::-1])
        assert result.dag._succ == ((1, 3), (2,), (3,), ())
        assert result.dag._pred == ((), (0,), (1,), (0, 2))


def test_sparse_generator_samples_distinct_forward_edges():
    # 3200 and 12800 edges among about 2M and 32M pairs: the decoded
    # indices run far past those of the reference grid below
    for n in (2000, 8000):
        g = generate_random_dag(n, 1.6, seed=4)
        assert g.edge_count == round(n * 1.6) == len(set(g.edges))
        assert len(topo_sort(g)) == n
        assert generate_random_dag(n, 1.6, seed=4).edges == g.edges


@pytest.mark.parametrize("deg", [0, 0.5, 1.6, 2.5, 10, 1e308])
def test_generator_matches_the_listing_reference(deg):
    # random.sample picks positions from the population's length and the
    # RNG state alone, so sampling indices draws the pairs that sampling
    # the listed pairs drew, wherever the old generator listed them
    for n in [*range(1, 80), 100, 200, 400, 633]:
        max_edges = n * (n - 1) // 2
        m = round(min(n * deg, max_edges))
        if max_edges > GENERATOR_ENUMERATE_LIMIT and 3 * m < max_edges:
            continue
        for seed in range(4):
            expected = generate_random_dag_reference(n, deg, seed).edges
            assert generate_random_dag(n, deg, seed).edges == expected, (n, seed)


def test_graph_cannot_be_built_without_adjacency():
    with pytest.raises(TypeError):
        DiGraph(3, ((0, 1), (1, 2)))


class TestRemoveCycles:
    def test_chain_untouched(self, chain3):
        result = remove_cycles(chain3)
        assert result.reversed_edges == frozenset()
        assert set(result.dag.edges) == set(chain3.edges)

    def test_two_cycle(self):
        g = DiGraph.build(2, [(0, 1), (1, 0)])
        result = remove_cycles(g)
        assert result.reversed_edges == frozenset({(1, 0)})
        assert set(result.dag.edges) == {(0, 1)}

    def test_random_digraph_becomes_acyclic(self):
        rng = random.Random(7)
        g = random_digraph(50, 120, rng)
        result = remove_cycles(g)
        topo_sort(result.dag)  # raises on a cycle

    @pytest.mark.parametrize("seed", range(12))
    def test_flip_map_reproduces_dag_edges(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 30)
        g = random_digraph(n, rng.randrange(0, n * 2), rng)
        result = remove_cycles(g)
        assert result.reversed_edges <= set(g.edges)
        flipped = {
            (v, u) if (u, v) in result.reversed_edges else (u, v) for u, v in g.edges
        }
        assert flipped == set(result.dag.edges)
        topo_sort(result.dag)


class TestTopoSort:
    def test_chain(self, chain3):
        assert topo_sort(chain3) == {0: 0, 1: 1, 2: 2}

    def test_isolated_vertices_min_id_tie_break(self):
        g = DiGraph.build(2, [])
        assert topo_sort(g) == {0: 0, 1: 1}

    def test_cycle_reports_a_vertex(self):
        g = DiGraph.build(2, [(0, 1), (1, 0)])
        with pytest.raises(GraphError, match="vertex 0"):
            topo_sort(g)

    def test_cycle_raises_on_every_call(self):
        g = DiGraph.build(2, [(0, 1), (1, 0)])
        for _ in range(2):
            with pytest.raises(GraphError, match="vertex 0"):
                topo_sort(g)

    def test_ranks_are_kept_on_the_graph(self, chain3):
        assert topo_sort(chain3) is topo_sort(chain3)

    def test_cover_and_drawing_reuse_the_kept_ranks(self, monkeypatch):
        heapify = pathdraw.graph.heapify
        sorts = []

        def counted(heap):
            sorts.append(len(heap))
            heapify(heap)

        monkeypatch.setattr(pathdraw.graph, "heapify", counted)
        dag = generate_random_dag(40, 2.0, seed=1)
        topo_sort(dag)
        draw(dag, min_path_cover(dag))
        assert len(sorts) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_ascends_along_edges(self, seed):
        g = generate_random_dag(40, 2.0, seed)
        rank = topo_sort(g)
        assert sorted(rank.values()) == list(range(40))
        for u, v in g.edges:
            assert rank[u] < rank[v]


class TestLongestPath:
    def test_chain(self, chain3):
        assert longest_path_ending_at(chain3) == {0: 0, 1: 1, 2: 2}

    def test_diamond(self, diamond):
        assert longest_path_ending_at(diamond) == {0: 0, 1: 1, 2: 1, 3: 2}

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_full_path_enumeration(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 12)
        g = generate_random_dag(n, 1.5, seed)
        assert longest_path_ending_at(g) == longest_ending_at_bruteforce(g)

    def test_edge_invariant_medium_graph(self):
        g = generate_random_dag(30, 2.0, seed=3)
        value = longest_path_ending_at(g)
        for u, v in g.edges:
            assert value[v] >= value[u] + 1
        for v in range(30):
            preds = g.predecessors(v)
            if preds:
                assert any(value[v] == value[u] + 1 for u in preds)


@pytest.mark.parametrize("seed", range(10))
def test_topo_after_cycle_removal_never_fails(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 40)
    g = random_digraph(n, rng.randrange(0, 3 * n), rng)
    topo_sort(remove_cycles(g).dag)
