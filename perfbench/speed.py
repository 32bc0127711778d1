"""The machine-speed reference that the benchmark's timings are scaled by.

The machines this benchmark runs on share their cores with other tenants,
and a core's speed drifts by tens of percent within a minute. A drift
slower than one job moves every timing in a run alike, so longer runs do
not average it out. The benchmark therefore times a fixed piece of
interpreter work, ``reference()``, next to every timed job and every
set-up, and scales each wall time by ``NOMINAL_S / reference()``. The
scaled time reads as seconds on a core running at the speed that gave
``NOMINAL_S``. The reference uses no ``pathdraw`` code, so a change to the
program cannot change it.
"""

from __future__ import annotations

import gc
import statistics
import time

# median of reference() on the baseline machine in NOTES.md
NOMINAL_S = 0.019

_KEYS = [(i * 7919) % 1009 for i in range(4000)]


def reference() -> float:
    """Wall time of a fixed mix of dict, list, sort and string work.

    The working set is a few hundred kilobytes, so the reference does not
    raise the process's peak memory, and the garbage collector is off while
    it runs, so the heap a job leaves behind does not slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for r in range(6):
            counts: dict[int, int] = {}
            rows = []
            for i, k in enumerate(_KEYS):
                counts[k] = counts.get(k, 0) + i
                rows.append((k ^ r, i & 63, str(k)))
            rows.sort()
            text = ",".join(row[2] for row in rows)
            if len(text) < len(rows) or len(counts) != 1009:
                raise AssertionError("reference work gave a wrong result")
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_median() -> float:
    return statistics.median(reference() for _ in range(3))
