#!/usr/bin/env python3
"""Walkthrough: the benchmark harness and the drawing time per size.

Times the drawing pipeline over generated graphs at growing sizes and
prints the per-graph rows, then each size's median with its min-max over
the seeds. The timed window is cycle removal + topological sort + drawing;
generation, the path cover, and metric computation are excluded.

These times are single runs of a few milliseconds or less, so the ratio
of two sizes' medians says little about growth. The growth check is criterion 06
in ``tests/test_acceptance.py``, which times larger graphs, keeps the best
of several rounds per input and bounds the growth per doubling.
"""

from pathdraw import bench, median_wall_ms, rows_to_csv

rows = bench(sizes=[20, 50, 100, 200, 400], degree=1.6, seeds=3)
print(rows_to_csv(rows), end="")

print("\ndrawing time per size, median (min-max over seeds):")
for n, ms in median_wall_ms(rows).items():
    times = [row.wall_ms for row in rows if row.n == n]
    print(f"  n={n:4d}: {ms:8.3f} ms ({min(times):.3f}-{max(times):.3f})")
