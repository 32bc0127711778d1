from __future__ import annotations

import random
import sys

import pytest

import pathdraw.graph
from oracles import (
    GENERATOR_ENUMERATE_LIMIT,
    adjacency_reference,
    cyclic_digraph_edges,
    generate_random_dag_reference,
    longest_ending_at_bruteforce,
    longest_path_ending_at,
    random_digraph,
    uniform_dag_edges,
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
from pathdraw.graph import VERTEX_LIMIT, serialize_graph
from test_cli_fuzz import DIGIT_LIMIT, MAX_VERTICES, _declared_vertices, _mutate


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


def _outcome(parse, text: str):
    try:
        g = parse(text)
    except GraphError as exc:
        return str(exc)
    return g.vertex_count, g.edges, g._succ


@pytest.fixture
def read_both(monkeypatch):
    """Read a document with parse_graph and with the line loop alone.

    Checks that the two give equal graphs, adjacency included, or the same
    GraphError text, and returns whether parse_graph read the document in
    one pass, without handing it to the line loop.
    """
    line_loop = pathdraw.graph._parse_lines
    handed = []

    def counted(text: str):
        handed.append(text)
        return line_loop(text)

    monkeypatch.setattr(pathdraw.graph, "_parse_lines", counted)

    def read(text: str) -> bool:
        expected = _outcome(line_loop, text)
        before = len(handed)
        assert _outcome(parse_graph, text) == expected, repr(text[:200])
        return len(handed) == before

    return read


class TestOnePassReader:
    def test_generated_documents_and_their_mutations(self, read_both):
        reached = set()
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(1, 60)
            uniform = DiGraph.build(n, uniform_dag_edges(n, rng.randint(0, 3 * n), seed))
            m = rng.randint(0, min(4 * n, n * (n - 1)))
            cyclic = DiGraph.build(n, cyclic_digraph_edges(n, m, seed))
            for g in (uniform, cyclic):
                text = serialize_graph(g)
                assert read_both(text) and read_both(text[:-1])
                for _ in range(25):
                    mutated = _mutate(text, rng)
                    if (_declared_vertices(mutated) or 0) > MAX_VERTICES:
                        continue  # both readers allocate per declared vertex
                    one_pass = read_both(mutated)
                    reached.add((one_pass, isinstance(_outcome(parse_graph, mutated), str)))
        # the mutations reach both readers, and each both accepts and rejects
        assert reached == {(True, True), (True, False), (False, True), (False, False)}

    def test_boundary_documents(self, read_both):
        cases = {
            "3\n0 1\n1 2": True,  # no final newline
            "3\n": True,  # no edges
            "0": True,
            "003\n00 01\n1 002\n": False,  # leading zeros
            "3\n0 1\n1 02\n": False,  # a leading zero in the last edge only
            "3\n0 2\n2 1\n": True,  # id n - 1
            "3\n0 1\n0 3\n2 2\n": True,  # id n, then a self-loop
            "3\n0 1\n1 1\n": True,  # a self-loop
            "3\n1 2\n0 1\n1 2\n": True,  # a repeat
            "3\n0 1\n1 2\n0 1\n0 1\n": True,
            f"3\n0 {'1' * 18}\n": True,
            f"3\n0 {'1' * 19}\n": False,  # a 19-digit id
            f"3\n0 {'1' * 4301}\n": False,  # past the default int() limit
            f"{'0' * 18}3\n0 1\n": False,  # a 19-digit count
            "3\r\n0 1\r\n": False,
            "3\n0\t1\n": False,
            "3\n0 \u0661\n": False,  # a non-ASCII digit
            "3\n0 1\n\n": False,
            "\n3\n0 1\n": False,
            "3\n0 1 \n": False,
            "# c\n3\n0 1\n": False,
            "3\n0 1\n# c": False,
            "": False,
        }
        for text, one_pass in cases.items():
            assert read_both(text) is one_pass, repr(text[:40])

    def test_lowest_digit_limit(self, read_both):
        if not hasattr(sys, "set_int_max_str_digits"):
            return  # an interpreter with no limit converts any number
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            # 18 digits with leading zeros: JSON rejects them, the line loop reads them
            assert not read_both(f"{'0' * 17}3\n{'0' * 18} 2\n")
            assert read_both(f"3\n0 {'1' * 18}\n")
            assert not read_both(f"3\n0 {'0' * 639}1\n")
            assert not read_both(f"3\n0 {'0' * 640}1\n")
        finally:
            sys.set_int_max_str_digits(limit)


class TestVertexLimit:
    LIMIT_MESSAGE = rf"^vertex count above the {VERTEX_LIMIT}-vertex limit$"

    def test_limit_is_a_million_vertices(self):
        assert VERTEX_LIMIT == 1_000_000

    def test_count_at_the_limit_is_read_by_both_readers(self):
        # a leading comment sends the same document to the line loop
        one_pass, line_loop = parse_graph("1000000\n"), parse_graph("# c\n1000000\n")
        for g in (one_pass, line_loop):
            assert g.vertex_count == VERTEX_LIMIT and g.edges == ()
        assert one_pass == line_loop

    def test_count_above_the_limit_is_refused_by_both_readers(self, read_both):
        cases = {
            "1000001\n": True,
            "# c\n1000001\n": False,
            "9" * 18 + "\n": True,  # the longest count the one-pass reader reads
            "1000000000000000000\n": False,  # 19 digits
            "1000001\n0 0\n0 5\n": True,  # the count is named before the edges
        }
        if not 0 < DIGIT_LIMIT < 4300:
            cases["9" * 4300 + "\n"] = False  # not echoed in the message
        for text, one_pass in cases.items():
            assert read_both(text) is one_pass, repr(text[:40])
            with pytest.raises(GraphError, match=self.LIMIT_MESSAGE):
                parse_graph(text)

    def test_library_calls_take_any_count(self):
        assert DiGraph.build(VERTEX_LIMIT + 1, [(0, 1)]).vertex_count == VERTEX_LIMIT + 1


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
        # an id that is not an int is a fault of its edge, reported in input
        # order with the range and self-loop faults: True would be written
        # out as 'True', which parse_graph rejects
        for edge, shown in (((True, 2), r"True, 2"), ((0.5, 1), r"0\.5, 1"), (("0", 1), r"'0', 1")):
            message = rf"^edge \({shown}\): vertex ids must be integers$"
            with pytest.raises(GraphError, match=message):
                DiGraph.build(3, [(0, 1), (0, 1), edge, (0, 5)])
            with pytest.raises(GraphError, match=r"^self-loop at vertex 2$"):
                DiGraph.build(3, [(0, 1), (2, 2), edge])
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
        for v, preds in enumerate(adjacency_reference(30, g.edges)[1]):
            if preds:
                assert any(value[v] == value[u] + 1 for u in preds)


@pytest.mark.parametrize("seed", range(10))
def test_topo_after_cycle_removal_never_fails(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 40)
    g = random_digraph(n, rng.randrange(0, 3 * n), rng)
    topo_sort(remove_cycles(g).dag)
