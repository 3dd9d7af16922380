"""Polygon documents: JSON input files and their JSON text.

A polygon document is ``{"name": ..., "vertices": [[x, y], ...]}`` where
coordinates are numbers or exact fraction strings like ``"3/4"``.  In the
rational backend decimal literals are read exactly in base 10 (0.1 becomes
1/10), so document -> polygon -> document round-trips value-identically.
Each scalar is written by its backend's ``to_json``, and ``dump_json``
only renders the text; the CLI writes it.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .backend import Backend, RATIONAL, parse_scalar
from .core import ConvexPolygon, InputError, PairedPolygon, Vec2


def _parse_obj(data: Any) -> tuple[str | None, list]:
    if isinstance(data, list):
        return None, data
    if isinstance(data, dict):
        if not isinstance(data.get("vertices"), list):
            raise InputError("polygon document needs a 'vertices' list")
        return data.get("name"), data["vertices"]
    raise InputError("polygon document must be a list or an object")


def load_document(path: str, backend: Backend = RATIONAL):
    """Read a polygon document; returns (name, raw vertex list of Vec2)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            if backend.exact:
                data = json.load(f, parse_float=Fraction)
            else:
                data = json.load(f)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise InputError(f"cannot decode {path} as UTF-8: {e}") from e
    except ValueError as e:  # malformed JSON, or a number too long to read
        raise InputError(f"invalid JSON in {path}: {e}") from e
    name, raw = _parse_obj(data)
    pts = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise InputError("each vertex must be a [x, y] pair")
        pts.append(Vec2(parse_scalar(entry[0], backend, "coordinate"),
                        parse_scalar(entry[1], backend, "coordinate")))
    if len(pts) < 3:
        raise InputError("polygon document needs at least 3 vertices")
    return name, pts


def load_polygon(path: str, backend: Backend = RATIONAL) -> ConvexPolygon:
    name, pts = load_document(path, backend)
    poly = ConvexPolygon.from_points(pts, backend)
    if name:
        poly.notes.insert(0, f"name: {name}")
    return poly


def load_paired(path: str, backend: Backend = RATIONAL) -> PairedPolygon:
    """Read a document whose vertices are already a 2n paired list.

    Only structural shape is enforced here; constant-width failures are
    diagnosed downstream so they can be reported as identity failures.
    """
    _, pts = load_document(path, backend)
    if len(pts) % 2 != 0:
        raise InputError("paired polygon document needs an even vertex count")
    return PairedPolygon(pts)


def points_json(points, backend: Backend):
    return [[backend.to_json(p.x), backend.to_json(p.y)] for p in points]


def document_json(points, backend: Backend, name: str | None = None) -> dict:
    doc = {"vertices": points_json(points, backend)}
    if name is not None:
        doc["name"] = name
    return doc


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
