"""Deterministic SVG rendering of polygon scenes.

A scene is an ordered list of layers; each layer is a stable id plus one or
more closed polylines.  Output is byte-identical for identical input: fixed
coordinate formatting, fixed attribute order, viewBox fitted with a 5%
margin, y axis flipped to match the usual mathematical orientation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .core import InputError, Vec2

_STYLES = {
    "polygon-p": 'fill="none" stroke="#222222" stroke-width="1.6"',
    "ball-u": 'fill="none" stroke="#1f6fd0" stroke-width="1.2"',
    "dual-v": 'fill="none" stroke="#1fa05a" stroke-width="1.2" stroke-dasharray="6 3"',
    "central-m": 'fill="none" stroke="#c02020" stroke-width="2.6"',
    "evolute-e": 'fill="none" stroke="#7a30c0" stroke-width="1.4"',
    "involute-n": 'fill="none" stroke="#d07818" stroke-width="1.8"',
}
_DEFAULT_STYLE = 'fill="none" stroke="#888888" stroke-width="1.0"'
_EQUIDISTANT_STYLE = 'fill="none" stroke="#666666" stroke-width="1.0" stroke-dasharray="3 3"'
_SIZE = 640  # the larger side of the picture, in SVG user units


@dataclass
class Layer:
    layer_id: str
    polylines: list[list[Vec2]] = field(default_factory=list)


def _style_for(layer_id: str) -> str:
    if layer_id in _STYLES:
        return _STYLES[layer_id]
    if layer_id.startswith("equidistant-"):
        return _EQUIDISTANT_STYLE
    return _DEFAULT_STYLE


def _fmt(x: float) -> str:
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


def render_svg(layers: Sequence[Layer]) -> str:
    """Render layers to an SVG 1.1 document string."""
    pts = [p for layer in layers for line in layer.polylines for p in line]
    if not pts:
        raise InputError("empty scene")
    xs = [float(p.x) for p in pts]
    ys = [float(p.y) for p in pts]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    w = max(max_x - min_x, 1e-9)
    h = max(max_y - min_y, 1e-9)
    pad = 0.05 * max(w, h)
    view_w = w + 2 * pad
    view_h = h + 2 * pad
    scale = _SIZE / max(view_w, view_h)

    def tx(p: Vec2) -> tuple[float, float]:
        # flip y so the picture matches mathematical orientation
        return ((float(p.x) - min_x + pad) * scale,
                (max_y + pad - float(p.y)) * scale)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(view_w * scale)}" height="{_fmt(view_h * scale)}" '
        f'viewBox="0 0 {_fmt(view_w * scale)} {_fmt(view_h * scale)}">',
    ]
    for layer in layers:
        out.append(f'<g id="{layer.layer_id}" {_style_for(layer.layer_id)}>')
        for line in layer.polylines:
            coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (tx(p) for p in line))
            out.append(f'<polygon points="{coords}"/>')
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
