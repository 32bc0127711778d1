"""Demo stdout pinned by digest.

The two demos that only print run in a fresh interpreter on the package in
``src``, and the SHA-256 of what they print must match. Both print rows,
lanes, bundles and metrics of their drawings, so a change meant to keep
output identical must leave these digests as they are. ``quickstart.py``
writes files next to itself, and ``scaling_benchmark.py`` prints times, so
neither is pinned here.
"""

from __future__ import annotations

import hashlib
import os
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


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_stdout_is_unchanged(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo]
