"""The benchmark's trace sites stay where the program looks its functions up.

``perfbench/spans.py`` times a layer by replacing a function, for the length
of a traced job, at the module attribute its caller reads. A caller that
imports the function under another module, or a function that is renamed,
leaves the wrapper unused and the per-layer metric at zero, while the
traced run still passes its output checks. These tests run the jobs the
benchmark runs under a tracer and require a span from every site they
reach. ``perfbench/`` is only read.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pathdraw
import pathdraw.cli

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def _sites(*modules: str) -> list[tuple]:
    return [site for site in spans.SITES if site[0] in modules]


def _expected_spans(sites: list[tuple]) -> dict[str, str]:
    """Site ``module.attr`` -> the span name its wrapper records."""
    expected = {}
    for module_name, attr, _ in sites:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert fn is not None, f"trace site {module_name}.{attr} no longer exists"
        expected[f"{module_name}.{attr}"] = spans.span_name(fn)
    return expected


def _assert_all_traced(expected: dict[str, str], tracer) -> None:
    seen = {s.name for s in tracer.spans}
    missing = [f"{site} ({name})" for site, name in expected.items() if name not in seen]
    assert not missing, f"trace sites never called: {', '.join(missing)}"


def test_cli_jobs_reach_every_cli_and_pipeline_site(tmp_path, capsys):
    # each of these sites records a span name no other of them records
    sites = _sites("pathdraw.cli", "pathdraw.pipeline")
    expected = _expected_spans(sites)
    acyclic, cyclic, paths = (tmp_path / f for f in ("a.edges", "c.edges", "a.paths"))
    acyclic.write_text("3\n0 1\n1 2\n")
    cyclic.write_text("4\n0 1\n1 2\n2 0\n2 3\n3 1\n")
    paths.write_text("0 1 2\n")
    tracer = spans.Tracer()
    with tracer.installed(sites):
        codes = (
            pathdraw.cli.main(["layout", str(acyclic), "--svg", str(tmp_path / "o.svg")]),
            pathdraw.cli.main(
                ["layout", str(cyclic), "--json", str(tmp_path / "o.json"), "--metrics"]
            ),
            pathdraw.cli.main(["layout", str(acyclic), "--paths", str(paths)]),
        )
    capsys.readouterr()
    assert codes == (0, 0, 0)
    _assert_all_traced(expected, tracer)


def test_library_job_reaches_every_package_and_drawing_site():
    sites = _sites("pathdraw", "pathdraw.drawing")
    expected = _expected_spans(sites)
    tracer = spans.Tracer()
    with tracer.installed(sites):
        # the calls of perfbench/worker.py::library_job, once with a path
        # list and once with the cover computed
        pd = pathdraw
        for paths_text in ("0 1 2\n3\n", None):
            g = pd.parse_graph("4\n0 1\n1 2\n0 2\n3 1\n")
            d = None
            if paths_text is not None:
                d = pd.parse_decomposition(paths_text, g)
            dag = pd.remove_cycles(g).dag
            order = pd.topo_sort(dag)
            if d is None:
                d = pd.min_path_cover(dag)
            pd.render_svg(pd.draw(dag, d, order).layout)
    _assert_all_traced(expected, tracer)
