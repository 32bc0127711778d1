"""Demo output pinned by digest.

The demos run in a fresh interpreter on the package in ``src``, and the
SHA-256 of what they print must match. Two of them only print rows, lanes,
bundles and metrics of their drawings. ``quickstart.py`` also writes an SVG
and a JSON document next to itself, so it runs on a copy in a temporary
directory and both files are pinned too. A change meant to keep output
identical must leave these digests as they are. ``scaling_benchmark.py``
prints times, so it is not pinned here.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "path_cover_and_classification.py": (
        "6e501c0375f7a60b023003c545056ddf8d972965c8712ed0c75ff56cb295015e"
    ),
    "compaction_and_bundling.py": (
        "1e0d7b12e8834b3bae671f3a95e4000529de4080d61a267021576b20b7db94c3"
    ),
}

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
