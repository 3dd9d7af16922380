import importlib
import math
import os
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import cwpoly
from cwpoly import ConvexPolygon, PairedPolygon, Vec2, build_plane, vec
from cwpoly.core import Frame, integer_frame


@pytest.fixture
def triangle_plane():
    """Unit right triangle with half-width 1/2; the worked golden instance."""
    poly = ConvexPolygon.from_points([(0, 0), (1, 0), (0, 1)])
    return build_plane(poly, F(1, 2))


@pytest.fixture
def quad_plane():
    """Scalene quadrilateral with no parallel sides; pairs to an octagon."""
    poly = ConvexPolygon.from_points([(0, 0), (4, 0), (5, 3), (1, 5)])
    return build_plane(poly, F(1, 2))


@pytest.fixture
def symmetric_plane():
    """Centrally symmetric hexagon; degenerate central equidistant."""
    poly = ConvexPolygon.from_points(
        [(3, 0), (5, 2), (4, 4), (1, 4), (-1, 2), (0, 0)])
    return build_plane(poly, F(1, 2))


@pytest.fixture
def run_python():
    """Run `python *args` in a child process that imports this same cwpoly.

    The directory holding the imported package goes first on the child's
    PYTHONPATH, as an absolute path, ahead of any entries already set. So
    the child finds the checkout's or the installed cwpoly, whichever the
    tests imported, from any working directory.
    """
    root = str(Path(cwpoly.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)

    def run(*args, cwd=None):
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, cwd=cwd, env=env)

    return run


@pytest.fixture
def framed_lists(monkeypatch):
    """Every point list that any cwpoly module hands to ``integer_frame``."""
    seen = []
    orig = integer_frame

    def spy(points):
        if not isinstance(points, Frame):
            seen.append(list(points))
        return orig(points)

    modules = [importlib.import_module(f"cwpoly.{m.name}")
               for m in pkgutil.iter_modules(cwpoly.__path__)]
    for mod in modules:
        if getattr(mod, "integer_frame", None) is orig:
            monkeypatch.setattr(mod, "integer_frame", spy)
    return seen


@pytest.fixture
def rng():
    return random.Random(20240817)


def fuzz_planes(seed: int, count: int, **kwargs):
    from cwpoly.fuzz import random_cw_plane

    r = random.Random(seed)
    return [random_cw_plane(r, **kwargs) for _ in range(count)]


def kgon_points(k: int) -> list[tuple[int, int]]:
    """The regular k-gon of radius 1000, rounded to integer coordinates."""
    return [(round(1000 * math.cos(2 * math.pi * j / k)),
             round(1000 * math.sin(2 * math.pi * j / k))) for j in range(k)]


def kgon_plane(k: int):
    """The plane of the rounded regular k-gon (``kgon_points``)."""
    return build_plane(ConvexPolygon.from_points(kgon_points(k)))


def ref_diameter_sq(p):
    """The squared diameter of a point list by the plain O(n^2) scan."""
    best = p[0].x - p[0].x
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            dx, dy = p[i].x - p[j].x, p[i].y - p[j].y
            v = dx * dx + dy * dy
            if v > best:
                best = v
    return best


def perturbed_planes():
    """Claimed-paired planes built with strict=False that are not genuinely
    constant-width: a nudged hexagon, and four fuzz planes with vertex 1
    moved by (1/3, 1/5)."""
    nudged = PairedPolygon(
        [vec(3, 0), vec(5, 2), vec(4, 5), vec(1, 4), vec(-1, 2), vec(0, 0)])
    planes = [build_plane(nudged, F(1, 2), strict=False)]
    for plane in fuzz_planes(777, 4):
        pts = list(plane.P.vertices)
        pts[1] = pts[1] + Vec2(F(1, 3), F(1, 5))
        planes.append(build_plane(PairedPolygon(pts), plane.a, strict=False))
    return planes


def float_copy(plane, scale):
    """The plane's paired polygon as floats scaled by ``scale``, built
    with a = 1/2."""
    from cwpoly.backend import FLOAT

    paired = PairedPolygon([vec(float(p.x) * scale, float(p.y) * scale, FLOAT)
                            for p in plane.P.vertices])
    return build_plane(paired, 0.5)
