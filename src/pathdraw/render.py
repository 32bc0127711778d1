"""Deterministic SVG and JSON emission for finished drawings.

Both emitters iterate in sorted order and format nothing ambiently, so one
layout always yields one byte sequence. The JSON document round-trips
losslessly: for every document ``doc`` that ``render_json`` returns,
``json.dumps(json.loads(doc), indent=2, sort_keys=True) + "\n" == doc``.

The document is written from one f-string template per vertex, edge, bundle
and route point, with every key in sorted order, rather than by building a
dict and dumping it. The standard library uses its C encoder only when
``indent`` is None, so an indented ``json.dumps`` runs the pure-Python
generator encoder, one yield per integer of every route point; on 300-vertex
graphs that cost more than drawing the layout. Strings, the seed and the
toggle values still go through ``json.dumps``, so escaping is the standard
library's.
"""

from __future__ import annotations

import json

from . import __version__
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


def _px(grid: int) -> int:
    return (grid + 1) * SVG_PITCH


class _PixelText(dict):
    """Grid coordinate -> pixel string, each formatted on its first lookup."""

    def __missing__(self, grid: int) -> str:
        text = self[grid] = str(_px(grid))
        return text


def render_svg(layout: Layout) -> str:
    """One circle per vertex, one polyline per drawn edge, styled by category."""
    routes = layout.routes
    category = layout.category
    xs, ys = layout.x, layout.y
    # the extent in one pass over the route points, from the vertex maxima
    max_x = max(xs.values(), default=0)
    max_y = max(ys.values(), default=0)
    for route in routes.values():
        for gx, gy in route:
            if gx > max_x:
                max_x = gx
            if gy > max_y:
                max_y = gy
    width, height = _px(max_x + 1), _px(max_y + 1)
    # each grid coordinate's pixel string is formatted once, for both axes
    px = _PixelText()
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
        points = " ".join([f"{px[gx]},{px[gy]}" for gx, gy in route])
        lines.append(
            f'    <polyline class="{_CLASS[category[e]]}" points="{points}">'
            f"<title>{e[0]}-{e[1]}</title></polyline>"
        )
    lines.append("  </g>")
    lines.append('  <g class="vertices">')
    for v in sorted(xs):
        lines.append(
            f'    <circle cx="{px[xs[v]]}" cy="{px[ys[v]]}" r="{SVG_RADIUS}">'
            f"<title>{v}</title></circle>"
        )
    lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _container(items: list[str], indent: str, brackets: str = "[]") -> str:
    """Pre-written items joined into a JSON array (or object) closed at ``indent``.

    An empty one is written ``[]`` (``{}``), as ``json.dumps`` writes it.
    """
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + indent + brackets[1]


def render_json(
    layout: Layout,
    metrics: MetricsReport,
    bundles: tuple[BundleRecord, ...] = (),
    seed: int | None = None,
    toggles: dict[str, bool] | None = None,
) -> str:
    """Lossless JSON document for the drawing; see the schema in the README.

    ``meta.version`` is the package version.

    An edge's ``bundle_id`` is the id of the record in ``bundles`` that
    lists it as a member.
    """
    id_of = {e: b.id for b in bundles for e in b.members}
    order: dict[int, tuple[int, int]] = {}
    for pi, path in enumerate(layout.paths):
        for j, v in enumerate(path):
            order[v] = (pi, j)
    xs, ys = layout.x, layout.y
    vertices = []
    for v in sorted(xs):
        pi, j = order[v]
        vertices.append(
            f'    {{\n      "id": {v},\n      "order_in_path": {j},\n      "path": {pi},\n'
            f'      "x": {xs[v]},\n      "y": {ys[v]}\n    }}'
        )
    routes = layout.routes
    category = layout.category
    # each category string is escaped once
    quoted = {c: json.dumps(c) for c in set(category.values())}
    edges = []
    for e in sorted(routes):
        u, v = e
        bundle_id = f'      "bundle_id": {id_of[e]},\n' if e in id_of else ""
        points = [
            f"        [\n          {px},\n          {py}\n        ]" for px, py in routes[e]
        ]
        route = _container(points, "      ")
        edges.append(
            f'    {{\n{bundle_id}      "category": {quoted[category[e]]},\n'
            f'      "route": {route},\n      "u": {u},\n      "v": {v}\n    }}'
        )
    bundle_objs = [
        f'    {{\n      "anchor_or_target": {b.anchor_or_target},\n      "id": {b.id},\n'
        f'      "kind": {json.dumps(b.kind)},\n      "lane": {b.lane},\n'
        f'      "span": [\n        {b.span[0]},\n        {b.span[1]}\n      ]\n    }}'
        for b in bundles
    ]
    toggle_items = [
        f"      {json.dumps(k)}: {json.dumps(on)}" for k, on in sorted((toggles or {}).items())
    ]
    toggle_text = _container(toggle_items, "    ", "{}")
    return (
        f'{{\n  "bundles": {_container(bundle_objs, "  ")},\n'
        f'  "edges": {_container(edges, "  ")},\n'
        f'  "meta": {{\n    "seed": {json.dumps(seed)},\n    "toggles": {toggle_text},\n'
        f'    "version": {json.dumps(__version__)}\n  }},\n'
        f'  "metrics": {{\n    "area": {metrics.area},\n    "bends": {metrics.bends},\n'
        f'    "crossings": {metrics.crossings},\n    "height": {metrics.height},\n'
        f'    "width": {metrics.width}\n  }},\n'
        f'  "vertices": {_container(vertices, "  ")}\n}}\n'
    )


def metrics_block(metrics: MetricsReport, vertex_touches: int) -> str:
    """Flat key-value text block, one metric per line, vertex touches last."""
    return (
        f"crossings {metrics.crossings}\nbends {metrics.bends}\nwidth {metrics.width}\n"
        f"height {metrics.height}\narea {metrics.area}\nvertex_touches {vertex_touches}\n"
    )
