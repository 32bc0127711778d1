from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from statistics import median
from types import ModuleType, SimpleNamespace

import pytest

import pathdraw
import pathdraw.cli
import pathdraw.pipeline
from oracles import chains_dag, cyclic_digraph_edges, ladder_dag, uniform_dag_edges
from pathdraw import (
    DiGraph,
    GraphError,
    InvariantError,
    PathDecomposition,
    StageError,
    draw,
    generate_random_dag,
    measure,
    min_path_cover,
    parse_graph,
    render_json,
    render_svg,
    run_pipeline_full,
    topo_sort,
)
from pathdraw.cli import main
from pathdraw.graph import VERTEX_LIMIT, serialize_graph
from pathdraw.layout import MetricsReport
from pathdraw.render import SVG_PITCH

README = Path(__file__).resolve().parents[1] / "README.md"
# the interpreter's limit on the digits int() converts from a decimal string:
# 0 when it has none (PYTHONINTMAXSTRDIGITS=0, or CPython before 3.10.7)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="the interpreter converts decimals of any length"
)
PYPROJECT = README.with_name("pyproject.toml")
LIMIT_MESSAGE = f"vertex count above the {VERTEX_LIMIT}-vertex limit"

ALL_ON = {"bundle_cross": True, "bundle_transitive": True, "compact": True, "reorder": True}


class TestGenerator:
    def test_twenty_node_benchmark_shape(self):
        g = generate_random_dag(20, 1.55, seed=1)
        assert (g.vertex_count, g.edge_count) == (20, 31)

    def test_single_vertex_has_no_edges(self):
        assert generate_random_dag(1, 5.0, seed=3).edge_count == 0

    def test_same_seed_same_edges(self):
        a = generate_random_dag(50, 1.6, seed=42)
        b = generate_random_dag(50, 1.6, seed=42)
        assert a.edges == b.edges

    def test_different_seed_differs(self):
        a = generate_random_dag(50, 1.6, seed=1)
        b = generate_random_dag(50, 1.6, seed=2)
        assert a.edges != b.edges

    @pytest.mark.parametrize("n", [20, 50, 100])
    def test_edges_per_node_convention(self, n):
        g = generate_random_dag(n, 1.6, seed=0)
        assert g.edge_count == round(n * 1.6)

    def test_edge_count_capped_at_complete_dag(self):
        g = generate_random_dag(4, 10.0, seed=0)
        assert g.edge_count == 6
        # n * degree overflows to inf; the cap still applies
        assert generate_random_dag(4, 1e308, seed=0).edge_count == 6

    @pytest.mark.parametrize("seed", range(5))
    def test_always_acyclic(self, seed):
        topo_sort(generate_random_dag(60, 2.5, seed))

    def test_rejects_empty(self):
        with pytest.raises(GraphError):
            generate_random_dag(0, 1.6, seed=0)

    @pytest.mark.parametrize("degree", [-1.0, -0.5, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_degree(self, degree):
        with pytest.raises(GraphError, match="degree"):
            generate_random_dag(10, degree, seed=0)


class TestRunPipeline:
    def test_chain_height_is_longest_path(self):
        g = DiGraph.build(6, [(i, i + 1) for i in range(5)])
        result = run_pipeline_full(g)
        assert result.metrics.height == 5  # a chain's longest path is n-1

    def test_diamond_with_given_paths(self, diamond):
        result = run_pipeline_full(diamond, "0 1 3\n2\n")
        cats = sorted(result.drawing.layout.category.values())
        assert cats.count("transitive") == 0
        assert cats.count("cross") == 2

    def test_generated_input_completes(self):
        result = run_pipeline_full(generate_random_dag(100, 1.6, seed=9))
        metrics = result.metrics
        assert metrics.area == metrics.width * metrics.height
        assert len(result.drawing.layout.x) == 100

    def test_generated_input_json_schema(self):
        result = run_pipeline_full(generate_random_dag(100, 1.6, seed=9))
        doc = json.loads(
            render_json(
                result.drawing.layout,
                result.metrics,
                bundles=result.drawing.bundles,
                seed=9,
                toggles=ALL_ON,
            )
        )
        assert set(doc) == {"vertices", "edges", "bundles", "metrics", "meta"}
        for vert in doc["vertices"]:
            assert set(vert) == {"id", "x", "y", "path", "order_in_path"}
            assert all(isinstance(vert[k], int) for k in vert)
        for edge in doc["edges"]:
            assert {"u", "v", "category", "route"} <= set(edge)
            assert set(edge) <= {"u", "v", "category", "route", "bundle_id"}
            assert edge["category"] in ("path", "transitive", "cross")
            assert all(
                isinstance(p, list) and len(p) == 2 for p in edge["route"]
            )
        for bundle in doc["bundles"]:
            assert set(bundle) == {"id", "kind", "anchor_or_target", "lane", "span"}
            assert bundle["kind"] in ("transitive", "cross")
        assert set(doc["metrics"]) == {"crossings", "bends", "width", "height", "area"}
        assert set(doc["meta"]) == {"seed", "toggles", "version"}

    def test_cyclic_input_is_drawn_after_edge_reversal(self):
        result = run_pipeline_full(parse_graph("4\n0 1\n1 2\n2 0\n2 3\n3 1\n"))
        layout, metrics = result.drawing.layout, result.metrics
        assert len(layout.x) == 4
        for (u, v), route in layout.routes.items():
            if route:
                assert layout.y[u] < layout.y[v]
        assert metrics.area == metrics.width * metrics.height

    def test_parse_failure_names_stage(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("2\n0 0\n")
        with pytest.raises(StageError, match="stage 'parse'"):
            pathdraw.pipeline.read_graph(str(bad))

    def test_missing_file_names_stage(self):
        with pytest.raises(StageError, match="stage 'read'"):
            pathdraw.pipeline.read_graph("/nonexistent/file.edges")


class TestToggles:
    @pytest.fixture
    def pair(self):
        g = generate_random_dag(40, 2.5, seed=14)
        d = min_path_cover(g)
        full = draw(g, d)
        bare = draw(g, d, bundle_transitive_edges=False)
        return full, bare

    def test_no_compact_keeps_rank_rows(self):
        g = generate_random_dag(30, 1.6, seed=4)
        d = min_path_cover(g)
        lay = draw(g, d, compact_rows=False).layout
        assert lay.y == topo_sort(g)

    def test_hiding_transitive_drops_routes_and_lanes(self, pair):
        full, bare = pair
        for e, cat in bare.layout.category.items():
            if cat == "transitive":
                assert bare.layout.routes[e] == ()
            else:
                assert len(bare.layout.routes[e]) >= 2
        assert all(
            tag not in ("bundle-lane-left", "bundle-lane-right")
            for tag in bare.layout.column_meta.values()
        )

    def test_hiding_transitive_preserves_rows_and_spine_order(self, pair):
        full, bare = pair
        assert full.layout.y == bare.layout.y
        k = len(full.layout.paths)
        spines = [path[0] for path in full.layout.paths]
        order_full = sorted(range(k), key=lambda i: full.layout.x[spines[i]])
        order_bare = sorted(range(k), key=lambda i: bare.layout.x[spines[i]])
        assert order_full == order_bare


class TestRenderSvg:
    def test_single_vertex_document(self):
        g = DiGraph.build(1, [])
        svg = render_svg(draw(g, PathDecomposition(((0,),))).layout)
        assert svg.startswith("<?xml")
        assert svg.count("<circle") == 1
        assert "<polyline" not in svg

    def test_diamond_shapes_and_classes(self, diamond, diamond_paths):
        svg = render_svg(draw(diamond, diamond_paths).layout)
        assert svg.count("<circle") == 4
        assert svg.count("<polyline") == 4
        assert svg.count('class="cross-edge"') == 2
        assert svg.count('class="path-edge"') == 2

    def test_polyline_points_equal_json_routes(self):
        g = generate_random_dag(25, 2.0, seed=8)
        result = draw(g, min_path_cover(g))
        svg = render_svg(result.layout)
        doc = json.loads(render_json(result.layout, measure(result.layout)))
        svg_points = []
        for line in svg.splitlines():
            line = line.strip()
            if line.startswith("<polyline"):
                raw = line.split('points="')[1].split('"')[0]
                pts = [
                    tuple(int(c) // SVG_PITCH - 1 for c in pair.split(","))
                    for pair in raw.split(" ")
                ]
                svg_points.append(pts)
        json_routes = [
            [tuple(p) for p in e["route"]] for e in doc["edges"] if e["route"]
        ]
        assert svg_points == json_routes


class TestRenderJson:
    def test_edgeless_graph(self):
        g = DiGraph.build(3, [])
        result = draw(g, PathDecomposition(((0,), (1,), (2,))))
        doc = json.loads(render_json(result.layout, measure(result.layout)))
        assert doc["edges"] == []
        assert len(doc["vertices"]) == 3
        assert set(doc["meta"]) == {"seed", "toggles", "version"}

    def test_diamond_categories(self, diamond, diamond_paths):
        result = draw(diamond, diamond_paths)
        doc = json.loads(render_json(result.layout, measure(result.layout)))
        cats = {(e["u"], e["v"]): e["category"] for e in doc["edges"]}
        assert cats == {
            (0, 1): "path",
            (1, 3): "path",
            (0, 2): "cross",
            (2, 3): "cross",
        }

    def test_round_trip_is_byte_identical(self):
        result = run_pipeline_full(generate_random_dag(30, 1.6, seed=5))
        text = render_json(
            result.drawing.layout,
            result.metrics,
            bundles=result.drawing.bundles,
            seed=5,
            toggles=ALL_ON,
        )
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    def test_bundle_ids_are_consistent(self):
        g = generate_random_dag(40, 3.0, seed=10)
        result = draw(g, min_path_cover(g))
        doc = json.loads(
            render_json(
                result.layout,
                measure(result.layout),
                bundles=result.bundles,
            )
        )
        ids = {b["id"] for b in doc["bundles"]}
        for e in doc["edges"]:
            if "bundle_id" in e:
                assert e["bundle_id"] in ids

    @pytest.mark.parametrize("case", ["random-0", "random-1", "random-10", "chains"])
    def test_bundle_ids_come_from_bundle_records(self, case):
        if case == "chains":
            g, d = chains_dag(6, 120, 5)
        else:
            g = generate_random_dag(40, 3.0, seed=int(case.split("-")[1]))
            d = min_path_cover(g)
        drawing = draw(g, d)
        doc = json.loads(
            render_json(drawing.layout, measure(drawing.layout), bundles=drawing.bundles)
        )
        expected = {e: b.id for b in drawing.bundles for e in b.members}
        assert expected  # every case has bundled edges
        got = {(e["u"], e["v"]): e["bundle_id"] for e in doc["edges"] if "bundle_id" in e}
        assert got == expected


class TestCli:
    def test_gen_then_layout(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        svg = tmp_path / "g.svg"
        jsn = tmp_path / "g.json"
        assert main(["gen", "--n", "20", "--deg", "1.55", "--seed", "1", "--out", str(edges)]) == 0
        assert (
            main(
                [
                    "layout",
                    str(edges),
                    "--svg",
                    str(svg),
                    "--json",
                    str(jsn),
                    "--metrics",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.startswith("crossings ")
        assert "vertex_touches" in out
        doc = json.loads(jsn.read_text())
        assert len(doc["vertices"]) == 20
        assert svg.read_text().startswith("<?xml")

    def test_missing_input_exits_2(self, capsys):
        assert main(["layout", "/does/not/exist"]) == 2
        assert "stage 'read'" in capsys.readouterr().err

    def test_seed_and_toggles_are_echoed_in_meta(self, tmp_path):
        edges = tmp_path / "g.edges"
        edges.write_text("3\n0 1\n1 2\n")
        out = tmp_path / "g.json"
        assert main(["layout", str(edges), "--seed", "7", "--no-reorder", "--json", str(out)]) == 0
        meta = json.loads(out.read_text())["meta"]
        assert meta["seed"] == 7
        assert meta["toggles"] == {**ALL_ON, "reorder": False}

    @pytest.mark.parametrize("bad, stage", [("g.edges", "read"), ("g.paths", "read-paths")])
    def test_undecodable_file_exits_2(self, tmp_path, capsys, bad, stage):
        edges, paths = tmp_path / "g.edges", tmp_path / "g.paths"
        edges.write_text("2\n0 1\n")
        paths.write_text("0 1\n")
        (tmp_path / bad).write_bytes(b"\xff\xfe")
        assert main(["layout", str(edges), "--paths", str(paths)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: stage '{stage}': 'utf-8' codec can't decode")

    def test_auto_cover_is_not_an_option(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("2\n0 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["layout", str(edges), "--auto-cover"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["layout", "{edges}", "--svg", "{missing}/g.svg"],
            ["layout", "{edges}", "--json", "{missing}/g.json"],
            ["gen", "--n", "5", "--deg", "1", "--seed", "1", "--out", "{missing}/g.edges"],
            ["bench", "--sizes", "5", "--seeds", "1", "--out", "{missing}/rows.csv"],
        ],
        ids=["layout-svg", "layout-json", "gen", "bench"],
    )
    def test_write_into_missing_directory_exits_2(self, tmp_path, capsys, argv):
        edges = tmp_path / "g.edges"
        edges.write_text("3\n0 1\n1 2\n")
        argv = [arg.format(edges=edges, missing=tmp_path / "missing") for arg in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: stage 'write': [Errno 2] ")

    def test_failed_stdout_write_exits_2(self, tmp_path, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        edges = tmp_path / "g.edges"
        edges.write_text("3\n0 1\n1 2\n")
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["layout", str(edges), "--metrics"]) == 2
        assert capsys.readouterr().err == "error: stage 'write': [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize(
        "rows, message",
        [
            ({0: 0, 1: 0, 2: 1}, "vertices 0 and 1 of one path share a row"),
            ({0: 0, 1: 2, 2: 3}, "vertex 1 has no predecessor one row above"),
        ],
        ids=["distinct-rows", "predecessor-row"],
    )
    def test_broken_layout_fails_self_check_with_exit_3(
        self, tmp_path, capsys, monkeypatch, rows, message
    ):
        # the real check runs on a drawing whose rows are moved after draw()
        real_draw = pathdraw.pipeline.draw

        def broken_draw(*args, **kwargs):
            drawing = real_draw(*args, **kwargs)
            return dataclasses.replace(
                drawing, layout=dataclasses.replace(drawing.layout, y=rows)
            )

        monkeypatch.setattr(pathdraw.pipeline, "draw", broken_draw)
        edges = tmp_path / "g.edges"
        edges.write_text("3\n0 1\n1 2\n")
        with pytest.raises(StageError) as exc:
            run_pipeline_full(parse_graph(edges.read_text()))
        assert exc.value.stage == "self-check"
        assert isinstance(exc.value.cause, InvariantError)
        assert main(["layout", str(edges), "--svg", str(tmp_path / "g.svg")]) == 3
        assert capsys.readouterr().err == (
            f"error: stage 'self-check': internal invariant violated: {message}\n"
        )
        assert not (tmp_path / "g.svg").exists()

    @pytest.mark.parametrize("degree", ["-1", "nan"])
    def test_gen_bad_degree_exits_2(self, tmp_path, capsys, degree):
        out = tmp_path / "g.edges"
        argv = ["gen", "--n", "10", "--deg", degree, "--seed", "1", "--out", str(out)]
        assert main(argv) == 2
        assert "degree" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_bad_degree_exits_2(self, capsys):
        assert main(["bench", "--sizes", "5", "--deg", "-1"]) == 2
        assert "stage 'generate'" in capsys.readouterr().err

    def test_bench_bad_sizes_exits_2_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", "abc"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "--sizes" in err

    def test_invalid_decomposition_exits_2(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("3\n0 1\n1 2\n")
        paths = tmp_path / "bad.paths"
        paths.write_text("0 2\n1\n")
        assert main(["layout", str(edges), "--paths", str(paths)]) == 2

    def test_path_along_a_reversed_edge_names_the_reversal(self, tmp_path, capsys):
        # 2 -> 0 closes the cycle and is drawn as 0 -> 2; 2 -> 1 is not an input edge
        edges = tmp_path / "cycle.edges"
        edges.write_text("3\n0 1\n1 2\n2 0\n")
        paths = tmp_path / "cycle.paths"
        paths.write_text("1 2 0\n")
        assert main(["layout", str(edges), "--paths", str(paths)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: stage 'decomposition': invalid decomposition: consecutive pairs "
            "that are input edges reversed by cycle removal (2, 0)\n"
        )
        paths.write_text("2 0 1\n")
        assert main(["layout", str(edges), "--paths", str(paths)]) == 2
        assert "not edges (2, 0)" not in capsys.readouterr().err
        paths.write_text("0 2 1\n")
        assert main(["layout", str(edges), "--paths", str(paths)]) == 2
        assert capsys.readouterr().err.endswith("consecutive pairs that are not edges (2, 1)\n")

    @pytest.mark.parametrize(
        "edges",
        [uniform_dag_edges(300, 480, 1), cyclic_digraph_edges(300, 600, 1)],
        ids=["uniform", "cyclic"],
    )
    def test_own_paths_given_back_draw_the_same_bytes(self, tmp_path, capsys, edges):
        # the paths of a default layout, read off its JSON vertices and
        # given with --paths, pass both partition checks and draw the same
        # SVG, JSON and metrics as the minimum path cover did
        source = tmp_path / "g.edges"
        source.write_text(serialize_graph(DiGraph.build(300, edges)), encoding="utf-8")

        def layout(name: str, *extra: str) -> tuple[bytes, bytes, str]:
            svg, jsn = tmp_path / f"{name}.svg", tmp_path / f"{name}.json"
            argv = ["layout", str(source), "--svg", str(svg), "--json", str(jsn), "--metrics"]
            assert main([*argv, *extra]) == 0
            return svg.read_bytes(), jsn.read_bytes(), capsys.readouterr().out

        default = layout("default")
        vertices = json.loads(default[1])["vertices"]
        vertices.sort(key=itemgetter("path", "order_in_path"))
        paths = tmp_path / "own.paths"
        paths.write_text(
            "".join(
                " ".join(str(v["id"]) for v in path) + "\n"
                for _, path in groupby(vertices, itemgetter("path"))
            ),
            encoding="utf-8",
        )
        assert layout("given", "--paths", str(paths)) == default

    @pytest.mark.parametrize("text", ["2\n0 \u00b2\n", "2\n0 \u0661\n", "\u00b2\n0 1\n"])
    def test_non_ascii_digits_in_edge_list_exit_2(self, tmp_path, capsys, text):
        edges = tmp_path / "g.edges"
        edges.write_text(text, encoding="utf-8")
        assert main(["layout", str(edges)]) == 2
        err = capsys.readouterr().err
        assert "stage 'parse'" in err
        assert re.search(r"line \d+: expected", err)

    def test_non_ascii_digit_in_path_list_exits_2(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("3\n0 1\n1 2\n")
        paths = tmp_path / "g.paths"
        paths.write_text("0 1 \u00b2\n", encoding="utf-8")
        assert main(["layout", str(edges), "--paths", str(paths)]) == 2
        err = capsys.readouterr().err
        assert "stage 'decomposition'" in err
        assert "line 1: expected vertex ids" in err

    def test_trailing_comment_in_edge_list_exits_2(self, tmp_path, capsys):
        # a comment is a whole line; '#' after an edge is not one
        edges = tmp_path / "g.edges"
        edges.write_text("2\n0 1 # a comment\n")
        assert main(["layout", str(edges)]) == 2
        assert capsys.readouterr().err == (
            "error: stage 'parse': line 2: expected 'u v', got '0 1 # a comment'\n"
        )

    def test_trailing_comment_in_path_list_exits_2(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("3\n0 1\n1 2\n")
        paths = tmp_path / "g.paths"
        paths.write_text("0 1 2 # c\n")
        assert main(["layout", str(edges), "--paths", str(paths)]) == 2
        assert capsys.readouterr().err == (
            "error: stage 'decomposition': line 1: expected vertex ids, got '0 1 2 # c'\n"
        )

    @needs_digit_limit
    def test_over_long_vertex_count_exits_2(self, tmp_path, capsys):
        # zero padding counts toward the interpreter's digit limit
        edges = tmp_path / "g.edges"
        edges.write_text("# count\n" + "0" * DIGIT_LIMIT + "1\n")
        assert main(["layout", str(edges)]) == 2
        assert capsys.readouterr().err == (
            f"error: stage 'parse': line 2: a number of {DIGIT_LIMIT + 1} digits is longer "
            f"than the {DIGIT_LIMIT}-digit limit\n"
        )

    @needs_digit_limit
    def test_over_long_edge_endpoint_exits_2(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("3\n0 1\n1 " + "1" * (DIGIT_LIMIT + 700) + "\n")
        assert main(["layout", str(edges)]) == 2
        assert capsys.readouterr().err == (
            f"error: stage 'parse': line 3: a number of {DIGIT_LIMIT + 700} digits is longer "
            f"than the {DIGIT_LIMIT}-digit limit\n"
        )

    @needs_digit_limit
    def test_over_long_path_id_exits_2(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("3\n0 1\n1 2\n")
        paths = tmp_path / "g.paths"
        paths.write_text("0 1\n" + "2" * (DIGIT_LIMIT + 1) + "\n")
        assert main(["layout", str(edges), "--paths", str(paths)]) == 2
        assert capsys.readouterr().err == (
            f"error: stage 'decomposition': line 2: a number of {DIGIT_LIMIT + 1} digits is "
            f"longer than the {DIGIT_LIMIT}-digit limit\n"
        )

    @pytest.mark.parametrize("count", ["30000000", "1000000000000000000"])
    def test_count_above_the_vertex_limit_exits_2_under_a_memory_cap(self, tmp_path, count):
        # a count is refused before anything is allocated per vertex, so a
        # 2 GB address space is enough; the cap is set in the child only
        resource = pytest.importorskip("resource")
        cap = 2_000_000 * 1024
        edges, svg = tmp_path / "g.edges", tmp_path / "g.svg"
        edges.write_text(count + "\n")
        done = subprocess.run(
            [sys.executable, "-m", "pathdraw.cli", "layout", str(edges), "--svg", str(svg)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(README.with_name("src"))},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stderr) == (2, f"error: stage 'parse': {LIMIT_MESSAGE}\n")
        assert not svg.exists()

    def test_gen_above_the_vertex_limit_exits_2_before_generating(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []

        def generate(n, deg, seed):
            calls.append(n)
            return DiGraph.build(2, [(0, 1)])

        monkeypatch.setattr(pathdraw.cli, "generate_random_dag", generate)
        out = tmp_path / "g.edges"
        argv = ["gen", "--n", str(VERTEX_LIMIT + 1), "--deg", "1", "--seed", "1", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: stage 'generate': {LIMIT_MESSAGE}\n"
        assert calls == [] and not out.exists()
        argv[2] = str(VERTEX_LIMIT)
        assert main(argv) == 0
        assert calls == [VERTEX_LIMIT] and out.read_text() == "2\n0 1\n"

    def test_ladder_with_long_augmenting_path_exits_0(self, tmp_path, capsys):
        edges = tmp_path / "ladder.edges"
        edges.write_text(serialize_graph(ladder_dag(1200)))
        assert main(["layout", str(edges), "--json", str(tmp_path / "l.json")]) == 0

    def test_document_version_is_the_package_version(self, tmp_path):
        edges = tmp_path / "g.edges"
        edges.write_text("3\n0 1\n1 2\n")
        out = tmp_path / "g.json"
        assert main(["layout", str(edges), "--json", str(out)]) == 0
        version = json.loads(out.read_text())["meta"]["version"]
        # a regex, since tomllib is new in Python 3.11
        declared = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.M)
        assert version == pathdraw.__version__ == declared.group(1)

    def test_unexpected_stage_exception_exits_3_with_stage_name(
        self, tmp_path, capsys, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(pathdraw.pipeline, "draw", broken)
        edges = tmp_path / "g.edges"
        edges.write_text("3\n0 1\n1 2\n")
        assert main(["layout", str(edges)]) == 3
        err = capsys.readouterr().err
        assert "stage 'draw'" in err
        assert "boom" in err
        assert "Traceback" not in err

    def test_exception_without_a_message_is_named_by_its_type(
        self, tmp_path, capsys, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise AssertionError()

        monkeypatch.setattr(pathdraw.pipeline, "draw", broken)
        edges = tmp_path / "g.edges"
        edges.write_text("3\n0 1\n1 2\n")
        assert main(["layout", str(edges)]) == 3
        assert capsys.readouterr().err == "error: stage 'draw': AssertionError\n"

    def test_svg_alone_computes_no_metrics(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("metrics computed for --svg")

        monkeypatch.setattr(pathdraw.pipeline, "measure", forbidden)
        monkeypatch.setattr(pathdraw.cli, "count_vertex_touches", forbidden)
        edges = tmp_path / "g.edges"
        edges.write_text("4\n0 1\n0 2\n1 3\n2 3\n")
        assert main(["layout", str(edges), "--svg", str(tmp_path / "g.svg")]) == 0

    def test_bench_csv(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["bench", "--sizes", "10,20", "--deg", "1.6", "--seeds", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "graph_id,n,m,crossings,bends,width,height,area,wall_ms"
        assert len(lines) == 5
        assert "median n=10" in capsys.readouterr().out

    def test_bench_without_out_prints_csv_then_medians(self, capsys):
        assert main(["bench", "--sizes", "10,20", "--deg", "1.6", "--seeds", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "graph_id,n,m,crossings,bends,width,height,area,wall_ms"
        rows = [line.split(",") for line in lines[1:5]]
        assert [row[0] for row in rows] == [
            "n10-d1.6-s1", "n10-d1.6-s2", "n20-d1.6-s1", "n20-d1.6-s2"
        ]
        walls = [float(row[-1]) for row in rows]
        assert lines[5:] == [
            f"median n=10: {median(walls[:2]):.3f} ms",
            f"median n=20: {median(walls[2:]):.3f} ms",
        ]

    def test_identical_flags_identical_bytes(self, tmp_path):
        edges = tmp_path / "g.edges"
        main(["gen", "--n", "30", "--deg", "1.6", "--seed", "7", "--out", str(edges)])
        outputs = []
        for run in ("a", "b"):
            svg = tmp_path / f"{run}.svg"
            jsn = tmp_path / f"{run}.json"
            assert (
                main(
                    [
                        "layout",
                        str(edges),
                        "--seed",
                        "7",
                        "--svg",
                        str(svg),
                        "--json",
                        str(jsn),
                    ]
                )
                == 0
            )
            outputs.append((svg.read_bytes(), jsn.read_bytes()))
        assert outputs[0] == outputs[1]


class TestBench:
    HEADER = "graph_id,n,m,crossings,bends,width,height,area,wall_ms"

    def rows(self, capsys, argv):
        assert main(["bench", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == self.HEADER
        rows = [line.split(",") for line in lines[1:] if not line.startswith("median ")]
        medians = lines[1 + len(rows) :]
        return rows, medians

    def test_row_count_and_order(self, capsys):
        # unsorted and repeated sizes keep the order given
        rows, _ = self.rows(capsys, ["--sizes", "50,20,20", "--deg", "1.6", "--seeds", "2"])
        assert [row[0] for row in rows] == [
            "n50-d1.6-s1", "n50-d1.6-s2",
            "n20-d1.6-s1", "n20-d1.6-s2",
            "n20-d1.6-s1", "n20-d1.6-s2",
        ]
        for graph_id, n, m, crossings, bends, width, height, area, wall_ms in rows:
            assert int(m) == round(int(n) * 1.6)
            assert int(area) == int(width) * int(height)
            assert float(wall_ms) >= 0
        # the same graph gives the same drawing wherever it comes in the suite
        assert [row[:8] for row in rows[2:4]] == [row[:8] for row in rows[4:]]

    def test_empty_suite(self, capsys):
        assert self.rows(capsys, ["--sizes", "", "--seeds", "3"]) == ([], [])

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_seed_count_below_one_is_a_usage_error(self, capsys, seeds):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", "5", "--seeds", seeds])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --seeds" in err

    def test_csv_fields_in_order(self, capsys):
        rows, _ = self.rows(capsys, ["--sizes", "10", "--deg", "1.6", "--seeds", "1"])
        assert len(rows) == 1
        assert ",".join(rows[0]).startswith("n10-d1.6-s1,10,16,")

    def test_csv_text_is_pinned(self, capsys, monkeypatch):
        # fixed results and clock ticks in place of the pipeline's, so only
        # the writer is pinned
        results = iter(
            [
                SimpleNamespace(
                    graph=SimpleNamespace(edge_count=4),
                    metrics=MetricsReport(crossings=5, bends=6, width=7, height=8, area=56),
                ),
                SimpleNamespace(
                    graph=SimpleNamespace(edge_count=16),
                    metrics=MetricsReport(crossings=0, bends=9, width=4, height=6, area=24),
                ),
            ]
        )
        monkeypatch.setattr(pathdraw.cli, "run_pipeline_full", lambda g: next(results))
        ticks = iter([0.0, 0.002, 1.0, 1.00012504])
        monkeypatch.setattr(pathdraw.cli, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        assert main(["bench", "--sizes", "3,10", "--deg", "1.6", "--seeds", "1"]) == 0
        assert capsys.readouterr().out == (
            "graph_id,n,m,crossings,bends,width,height,area,wall_ms\n"
            "n3-d1.6-s1,3,4,5,6,7,8,56,2.0\n"
            "n10-d1.6-s1,10,16,0,9,4,6,24,0.125\n"
            "median n=3: 2.000 ms\n"
            "median n=10: 0.125 ms\n"
        )

    def test_metrics_stay_outside_the_clock(self, capsys, monkeypatch):
        # reading the metrics takes 5 s on the fake clock; wall_ms is the
        # 3 ms of the pipeline call alone
        now = [0.0]

        class Result:
            graph = SimpleNamespace(edge_count=4)

            @property
            def metrics(self):
                now[0] += 5.0
                return MetricsReport(crossings=0, bends=0, width=1, height=1, area=1)

        def pipeline(g):
            now[0] += 0.003
            return Result()

        monkeypatch.setattr(pathdraw.cli, "run_pipeline_full", pipeline)
        monkeypatch.setattr(pathdraw.cli, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        assert main(["bench", "--sizes", "3", "--deg", "1.6", "--seeds", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["n3-d1.6-s1,3,4,0,0,1,1,1,3.0", "median n=3: 3.000 ms"]

    def test_median_aggregation(self, capsys):
        # medians come sorted by size, each over every row of that size
        rows, medians = self.rows(capsys, ["--sizes", "20,10,20", "--seeds", "3"])
        walls = {n: [float(row[-1]) for row in rows if row[1] == n] for n in ("10", "20")}
        assert [len(walls["10"]), len(walls["20"])] == [3, 6]
        assert medians == [
            f"median n=10: {median(walls['10']):.3f} ms",
            f"median n=20: {median(walls['20']):.3f} ms",
        ]


class TestReadme:
    def test_library_quick_start_runs(self, tmp_path, monkeypatch, capsys):
        text = README.read_text(encoding="utf-8")
        section = text[text.index("## Library quick start") :]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        monkeypatch.chdir(tmp_path)
        exec(compile(code, str(README), "exec"), {})
        assert (tmp_path / "drawing.svg").read_text().startswith("<?xml")
        assert "crossings" in capsys.readouterr().out

    def test_public_names_are_pinned_and_listed(self):
        # a change to the package's surface shows up as an edit of this set
        public = {
            name
            for name, value in vars(pathdraw).items()
            if not name.startswith("_") and not isinstance(value, ModuleType)
        }
        assert public == {
            "DecompositionError", "DiGraph", "GraphError", "InvariantError",
            "PathDecomposition", "PipelineResult", "StageError",
            "classify_edges", "count_bends", "draw", "generate_random_dag",
            "measure", "min_path_cover", "parse_decomposition", "parse_graph",
            "remove_cycles", "render_json", "render_svg", "run_pipeline_full",
            "topo_sort", "validate_decomposition",
        }
        text = README.read_text(encoding="utf-8")
        listed = text[text.index("top-level names") : text.index("Everything else")]
        assert [name for name in sorted(public) if not re.search(rf"`{name}[`(]", listed)] == []
