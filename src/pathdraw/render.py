"""Deterministic SVG and JSON emission for finished drawings.

Both emitters iterate in sorted order and format nothing ambiently, so one
layout always yields one byte sequence. The JSON document round-trips
losslessly: load followed by dump reproduces the bytes.
"""

from __future__ import annotations

import json
from itertools import chain

from .drawing import BundleRecord
from .layout import Layout, MetricsReport

SVG_PITCH = 24  # pixels per grid unit
SVG_RADIUS = 6  # vertex glyph radius

_STYLE = """\
    polyline { fill: none; stroke-width: 2; }
    .path-edge { stroke: #d62728; }
    .transitive-edge { stroke: #1f77b4; }
    .cross-edge { stroke: #7f7f7f; }
    circle { fill: #222222; }"""

_CLASS = {"path": "path-edge", "transitive": "transitive-edge", "cross": "cross-edge"}


def _px(grid: int, pitch: int) -> int:
    return (grid + 1) * pitch


class _PixelText(dict):
    """Grid coordinate -> pixel string, each formatted on its first lookup."""

    def __init__(self, pitch: int):
        super().__init__()
        self.pitch = pitch

    def __missing__(self, grid: int) -> str:
        text = self[grid] = str(_px(grid, self.pitch))
        return text


def render_svg(layout: Layout, pitch: int = SVG_PITCH) -> str:
    """One circle per vertex, one polyline per drawn edge, styled by category."""
    routes = layout.routes
    category = layout.category
    xs, ys = layout.x, layout.y
    max_x = max(chain(xs.values(), (p[0] for r in routes.values() for p in r)), default=0)
    max_y = max(chain(ys.values(), (p[1] for r in routes.values() for p in r)), default=0)
    width, height = _px(max_x + 1, pitch), _px(max_y + 1, pitch)
    # each column's and each row's pixel string is formatted once
    px = _PixelText(pitch)
    py = _PixelText(pitch)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "  <style>",
        _STYLE,
        "  </style>",
        '  <g class="edges">',
    ]
    for e in sorted(routes):
        route = routes[e]
        if len(route) < 2:
            continue
        points = " ".join([f"{px[gx]},{py[gy]}" for gx, gy in route])
        lines.append(
            f'    <polyline class="{_CLASS[category[e]]}" points="{points}">'
            f"<title>{e[0]}-{e[1]}</title></polyline>"
        )
    lines.append("  </g>")
    lines.append('  <g class="vertices">')
    for v in sorted(xs):
        lines.append(
            f'    <circle cx="{px[xs[v]]}" cy="{py[ys[v]]}" r="{SVG_RADIUS}">'
            f"<title>{v}</title></circle>"
        )
    lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_json(
    layout: Layout,
    metrics: MetricsReport,
    bundles: tuple[BundleRecord, ...] = (),
    seed: int | None = None,
    toggles: dict[str, bool] | None = None,
    version: str = "0.1.0",
) -> str:
    """Lossless JSON document for the drawing; see the schema in the README.

    An edge's ``bundle_id`` is the id of the record in ``bundles`` that
    lists it as a member.
    """
    id_of = {e: b.id for b in bundles for e in b.members}
    order: dict[int, tuple[int, int]] = {}
    for pi, path in enumerate(layout.paths):
        for j, v in enumerate(path):
            order[v] = (pi, j)
    vertices = [
        {
            "id": v,
            "x": layout.x[v],
            "y": layout.y[v],
            "path": order[v][0],
            "order_in_path": order[v][1],
        }
        for v in sorted(layout.x)
    ]
    edges = []
    for (u, v), route in sorted(layout.routes.items()):
        entry: dict = {
            "u": u,
            "v": v,
            "category": layout.category[(u, v)],
            "route": [[px, py] for px, py in route],
        }
        if (u, v) in id_of:
            entry["bundle_id"] = id_of[(u, v)]
        edges.append(entry)
    bundle_objs = [
        {
            "id": b.id,
            "kind": b.kind,
            "anchor_or_target": b.anchor_or_target,
            "lane": b.lane,
            "span": list(b.span),
        }
        for b in bundles
    ]
    doc = {
        "vertices": vertices,
        "edges": edges,
        "bundles": bundle_objs,
        "metrics": {
            "crossings": metrics.crossings,
            "bends": metrics.bends,
            "width": metrics.width,
            "height": metrics.height,
            "area": metrics.area,
        },
        "meta": {
            "seed": seed,
            "toggles": toggles or {},
            "version": version,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def metrics_block(metrics: MetricsReport, extra: dict[str, object] | None = None) -> str:
    """Flat key-value text block, one metric per line."""
    rows = [
        ("crossings", metrics.crossings),
        ("bends", metrics.bends),
        ("width", metrics.width),
        ("height", metrics.height),
        ("area", metrics.area),
    ]
    if extra:
        rows.extend(sorted(extra.items()))
    return "\n".join(f"{k} {v}" for k, v in rows) + "\n"
