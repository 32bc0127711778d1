#!/usr/bin/env python3
"""Walkthrough: the benchmark command and the drawing time per size.

Runs ``pathdraw bench`` over generated graphs at growing sizes: it prints
one CSV row per graph, then each size's median time over the seeds. The
time is that of the ``run_pipeline_full`` call: cycle removal, topological
sort, the path cover, drawing and the self-check. Generation, metric
computation and output are excluded.

These times are single runs of a few milliseconds or less, so the ratio
of two sizes' medians says little about growth. The growth check is criterion 06
in ``tests/test_acceptance.py``, which times larger graphs, keeps the best
of several rounds per input and bounds the growth per doubling.
"""

from pathdraw.cli import main

raise SystemExit(main(["bench", "--sizes", "20,50,100,200,400", "--deg", "1.6", "--seeds", "3"]))
