"""Demo output pinned by digest.

The demos run in a fresh interpreter on the package in ``src``, and the
SHA-256 of what they print must match. Two of them only print rows, lanes,
bundles and metrics of their drawings. ``quickstart.py`` also writes an SVG
and a JSON document next to itself, so it runs on a copy in a temporary
directory and both files are pinned too. ``sugiyama_baseline.py`` prints a
table whose last column is a time, so that column is cut before hashing; its
Sugiyama layouts are also checked on small seeded inputs. A change meant to
keep output identical must leave these digests as they are.
``scaling_benchmark.py`` prints times only, so it is not pinned here.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import crossing_pairs_bruteforce, random_digraph
from pathdraw import generate_random_dag, measure, remove_cycles, run_pipeline_full

ROOT = Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "path_cover_and_classification.py": (
        "6e501c0375f7a60b023003c545056ddf8d972965c8712ed0c75ff56cb295015e"
    ),
    "compaction_and_bundling.py": (
        "1e0d7b12e8834b3bae671f3a95e4000529de4080d61a267021576b20b7db94c3"
    ),
}

# stdout with the time column cut from every table line
SUGIYAMA_SHA256 = "60d401156ac53999482ea85b7f6447986ab98c996836e6719dd0e7471458660b"

QUICKSTART_SHA256 = {
    "stdout": "e3e9d143e79eb2f68c693a32bf05307071c4702c6ea26e828bbdce3277879681",
    "quickstart.svg": "079357651dfbb446a91ef967e9999abdb505ed66775835b2a72cbf2cb3d785c4",
    "quickstart.json": "ca1ea40939595bdc24201e436eff15ed9c340a9f288990fc755b7b9f7feeef47",
}


def _run(script: Path) -> bytes:
    """Run ``script`` on the package in ``src`` and return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    return done.stdout


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_stdout_is_unchanged(demo):
    assert _sha256(_run(ROOT / "demos" / demo)) == STDOUT_SHA256[demo]


def test_quickstart_output_is_unchanged(tmp_path):
    # a copy, so the files it writes beside itself land in tmp_path
    script = tmp_path / "quickstart.py"
    shutil.copyfile(ROOT / "demos" / "quickstart.py", script)
    digests = {"stdout": _sha256(_run(script))}
    for name in ("quickstart.svg", "quickstart.json"):
        digests[name] = _sha256((tmp_path / name).read_bytes())
    assert digests == QUICKSTART_SHA256


def _without_time_column(text: bytes) -> bytes:
    lines = text.decode().splitlines(keepends=True)
    return "".join(
        line.rsplit("|", 2)[0] + "|\n" if line.startswith("|") else line for line in lines
    ).encode()


def test_sugiyama_baseline_stdout_is_unchanged():
    stdout = _run(ROOT / "demos" / "sugiyama_baseline.py")
    assert _sha256(_without_time_column(stdout)) == SUGIYAMA_SHA256


@pytest.fixture(scope="module")
def sugiyama():
    spec = importlib.util.spec_from_file_location(
        "sugiyama_baseline", ROOT / "demos" / "sugiyama_baseline.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _small_inputs():
    rng = random.Random(5)
    yield from (generate_random_dag(n, 1.6, s) for n in (1, 2, 12, 40) for s in (1, 2))
    yield from (random_digraph(rng.randint(2, 14), rng.randint(0, 30), rng) for _ in range(40))


def test_sugiyama_layouts_are_well_formed(sugiyama):
    # one chain has no other chain to send a cross edge to
    chains = [sugiyama.chains_graph(k, 12, 1) for k in (3, 1)]
    inputs = [*_small_inputs(), *chains]
    for g in inputs:
        dag = remove_cycles(g).dag
        layout = sugiyama.sugiyama_layout(g)
        # every DAG edge is routed from its source's point to its target's
        assert set(layout.routes) == set(dag.edges)
        points = [(layout.x[v], layout.y[v]) for v in range(dag.vertex_count)]
        for (u, w), route in layout.routes.items():
            assert route[0] == points[u] and route[-1] == points[w]
            # one row per segment, downward
            assert all(b[1] == a[1] + 1 for a, b in zip(route, route[1:]))
            points.extend(route[1:-1])  # the dummies
        # no two vertices or dummies share a grid point
        assert len(points) == len(set(points))
        m = measure(layout)
        assert m.crossings == len(crossing_pairs_bruteforce(layout.routes))
        # the baseline takes PBF's compacted rows, so both have one height
        assert m.height == run_pipeline_full(g).metrics.height
