"""Tests for the benchmark's own generators, checks and span accounting.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import pytest  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

# 0 -> 1 -> 3 on one spine, 2 beside it; the cross edges are one row long
DIAMOND_EDGES = [(0, 1), (0, 2), (1, 3), (2, 3)]
DIAMOND_PATHS = [[0, 1, 3], [2]]


def diamond() -> checks.Geometry:
    pos = {0: (1, 0), 1: (1, 1), 2: (0, 1), 3: (1, 2)}
    routes = {(u, v): (pos[u], pos[v]) for u, v in DIAMOND_EDGES}
    return checks.Geometry(pos, routes)


def pool_digest(workload: str, seed: int, tmp: Path) -> str:
    tmp.mkdir()
    return worker.input_digest(worker.build_pool(workload, seed, tmp))


@pytest.mark.parametrize("workload", ["report", "chains", "sprawl"])
def test_same_seed_same_digest(workload, tmp_path):
    first = pool_digest(workload, 7, tmp_path / "a")
    assert first == pool_digest(workload, 7, tmp_path / "b")
    assert first != pool_digest(workload, 8, tmp_path / "c")


def test_sprawl_generator_is_seeded_and_has_two_cycles():
    n, edges = gen.sprawl(500, 4.0, 0.05, gen.seeded_rng("sprawl", 3, 0))
    again = gen.sprawl(500, 4.0, 0.05, gen.seeded_rng("sprawl", 3, 0))
    assert (n, edges) == again
    assert len(edges) == 2000 == len(set(edges))
    edge_set = set(edges)
    two_cycles = sum(1 for u, v in edges if (v, u) in edge_set) // 2
    assert two_cycles == 50  # half of the 100 backward edges


def test_chains_paths_are_a_valid_decomposition():
    n, edges, paths = gen.chains(4, 30, gen.seeded_rng("chains", 1, 0))
    edge_set = set(edges)
    assert sorted(v for p in paths for v in p) == list(range(n))
    assert all((a, b) in edge_set for p in paths for a, b in zip(p, p[1:]))
    position = {v: j for p in paths for j, v in enumerate(p)}
    assert all(position[u] < position[v] for u, v in edges)  # a DAG


def test_uniform_dag_size():
    n, edges = gen.uniform_dag(300, 1.6, gen.seeded_rng("report", 1, 0))
    assert (n, len(edges), len(set(edges))) == (300, 480, 480)


def test_checks_accept_a_correct_drawing():
    assert checks.drawing_problems(4, DIAMOND_EDGES, DIAMOND_PATHS, diamond()) == []


def test_checks_reject_a_missing_edge():
    geo = diamond()
    del geo.routes[(1, 3)]
    problems = checks.drawing_problems(4, DIAMOND_EDGES, DIAMOND_PATHS, geo)
    assert problems == ["input edge (1, 3) has no route"]


def test_checks_accept_a_route_in_the_reverse_orientation():
    geo = diamond()
    edges = [(u, v) if (u, v) != (2, 3) else (3, 2) for u, v in DIAMOND_EDGES]
    assert checks.drawing_problems(4, edges, DIAMOND_PATHS, geo) == []


def test_checks_reject_a_wrong_row():
    geo = diamond()
    geo.pos[3] = (1, 3)
    geo.routes[(1, 3)] = ((1, 1), (1, 3))
    geo.routes[(2, 3)] = ((0, 1), (1, 3))
    problems = checks.drawing_problems(4, DIAMOND_EDGES, DIAMOND_PATHS, geo)
    assert problems == ["vertex 3 on row 3, expected 2"]


def test_checks_reject_bad_routes_and_columns():
    geo = diamond()
    geo.pos[2] = (0, 1)
    geo.routes[(0, 2)] = ((1, 0), (0, 2))
    geo.routes[(2, 3)] = ((0, 1), (0, 0), (1, 2))
    del geo.pos[1]
    problems = checks.drawing_problems(4, DIAMOND_EDGES, [[0, 3], [2, 1]], geo)
    assert "vertex 1 has no position" in problems
    assert "route (0, 2) does not join its endpoints' positions" in problems
    assert "route (2, 3) does not run down the rows" in problems


def test_checks_reject_a_path_off_its_column():
    problems = checks.drawing_problems(4, DIAMOND_EDGES, [[0, 1], [2, 3]], diamond())
    assert problems == ["path 1 spans columns [0, 1]"]


def test_json_must_round_trip():
    with pytest.raises(checks.CheckError):
        checks.json_document('{"a": 1}')
    with pytest.raises(checks.CheckError):
        checks.json_document("{")
    assert checks.json_document('{\n  "a": 1\n}\n') == {"a": 1}


def test_bends_and_crossings():
    routes = {
        (0, 1): ((0, 0), (2, 2)),
        (2, 3): ((2, 0), (0, 2)),  # crosses (0, 1) at (1, 1)
        (4, 5): ((3, 0), (4, 0), (4, 2), (3, 2)),  # two corners
        (6, 7): ((5, 0), (5, 2), (5, 1)),  # a reversal is a bend
        (8, 9): ((0, 1), (1, 1)),  # ends on the crossing point: no crossing
    }
    assert checks.count_bends(routes) == 3
    assert checks.brute_force_crossings(routes) == 1


def test_pathdraw_output_passes_the_checks(tmp_path):
    import pathdraw
    import pathdraw.cli

    worker.pathdraw = pathdraw
    pool = worker.build_pool("report", 5, tmp_path)[:1]
    out = tmp_path / "out"
    out.mkdir()
    assert worker.cli_job(pool[0], out) is None
    problems, quality, _ = worker.check_output("cli", pool[0], out, None)
    assert problems == []
    assert quality.bends > 0 and quality.area > 0


def test_self_time_subtracts_children():
    spans = [
        Span(0, -1, "job", 0.0, 10.0, 0),
        Span(1, 0, "drawing.draw", 1.0, 6.0, 0),
        Span(2, 1, "bundling.reorder_lanes", 2.0, 5.0, 0),
        Span(3, 0, "render.render_svg", 6.0, 9.0, 0),
    ]
    assert self_times(spans) == {
        "job": 2.0,
        "drawing.draw": 2.0,
        "bundling.reorder_lanes": 3.0,
        "render.render_svg": 3.0,
    }


def test_tracer_wraps_and_restores():
    import pathdraw.drawing

    original = pathdraw.drawing.reorder_lanes
    tracer = Tracer()
    with tracer.installed():
        assert pathdraw.drawing.reorder_lanes is not original
        g = pathdraw.DiGraph.build(4, [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3), (1, 3)])
        pathdraw.draw(g, pathdraw.PathDecomposition(((0, 1, 2, 3),)))
    assert pathdraw.drawing.reorder_lanes is original
    names = {s.name for s in tracer.spans}
    assert {"drawing.draw", "bundling.reorder_lanes", "bundling.pack_intervals"} <= names
    assert tracer.counts["decomposition.transitive_edges"] == 3


def test_speed_reference_leaves_the_collector_as_it_was():
    import gc

    assert speed.reference() > 0
    gc.disable()
    try:
        assert speed.reference() > 0
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert gc.isenabled()
