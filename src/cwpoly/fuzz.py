"""Seeded random instance generators for property tests and the verifier.

Everything takes an explicit random.Random so runs are reproducible from a
seed; coordinates are small integers, hence exact in the rational backend.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import cmp_to_key

from .backend import Backend, RATIONAL
from .ball import MinkowskiPlane, build_plane
from .core import CenteredBall, ConvexPolygon, InputError, Vec2, angle_less, det

# sort key of the exact full-circle angle order of nonzero vectors
_angle_key = cmp_to_key(lambda u, v: angle_less(v, u) - angle_less(u, v))


def random_convex_polygon(rng: random.Random, k: int, span: int = 24,
                          backend: Backend = RATIONAL) -> ConvexPolygon:
    """Random strictly convex polygon with about k vertices (Valtr's method).

    Integer coordinates in a box of the given span; collinear edges produced
    by coinciding directions are merged by the polygon cleanup, so the
    result may have fewer than k vertices.
    """
    for _ in range(200):
        xs = sorted(rng.randint(0, span) for _ in range(k))
        ys = sorted(rng.randint(0, span) for _ in range(k))
        dx = _chain_deltas(rng, xs)
        dy = _chain_deltas(rng, ys)
        rng.shuffle(dy)
        vecs = [Vec2(a, b) for a, b in zip(dx, dy) if (a, b) != (0, 0)]
        if len(vecs) < 3:
            continue
        vecs.sort(key=_angle_key)
        pts = [Vec2(0, 0)]
        for v in vecs[:-1]:
            pts.append(pts[-1] + v)
        try:
            poly = ConvexPolygon.from_points(pts, backend)
        except InputError:
            continue
        if len(poly) >= 3:
            return poly
    raise RuntimeError("random polygon generation failed to converge")


def _chain_deltas(rng: random.Random, sorted_vals: list[int]) -> list[int]:
    lo, hi = sorted_vals[0], sorted_vals[-1]
    interior = sorted_vals[1:-1]
    up, down = [lo], [lo]
    for v in interior:
        (up if rng.random() < 0.5 else down).append(v)
    up.append(hi)
    down.append(hi)
    deltas = [b - a for a, b in zip(up, up[1:])]
    deltas += [a - b for a, b in zip(down, down[1:])]
    return deltas


def random_cw_plane(rng: random.Random, n_min: int = 3, n_max: int = 8,
                    a=None, backend: Backend = RATIONAL) -> MinkowskiPlane:
    """Random constant-width setup with n in the requested range."""
    if a is None:
        a = Fraction(1, 2)
    for _ in range(400):
        k = rng.randint(n_min, n_max)
        poly = random_convex_polygon(rng, k, backend=backend)
        plane = build_plane(poly, a)
        if n_min <= plane.n <= n_max:
            return plane
    raise RuntimeError("random plane generation failed to converge")


def random_centered_ball(rng: random.Random, n: int, span: int = 12,
                         backend: Backend = RATIONAL) -> CenteredBall:
    """Random strictly convex centered 2n-gon with integer-or-half coordinates.

    Build n upper-half edge vectors with distinct directions, close the fan
    with their negatives, and centre the vertex chain on the origin.
    """
    while True:
        vecs: list[Vec2] = []
        while len(vecs) < n:
            x = rng.randint(-span, span)
            y = rng.randint(0, span)
            if y == 0:
                x = abs(x)
            if x == 0 and y == 0:
                continue
            cand = Vec2(x, y)
            if any(det(cand, w) == 0 for w in vecs):
                continue
            vecs.append(cand)
        vecs.sort(key=_angle_key)
        edges = vecs + [-v for v in vecs]
        half = Vec2(0, 0)
        for v in vecs:
            half = half + v
        start = Vec2(-Fraction(half.x, 2), -Fraction(half.y, 2))
        pts = [start]
        for e in edges[:-1]:
            pts.append(pts[-1] + e)
        ball = CenteredBall([Vec2(backend.convert(p.x), backend.convert(p.y)) for p in pts])
        try:
            ball.validate()
        except InputError:
            continue
        return ball


def random_rational(rng: random.Random, lo=0, hi=2, den_max: int = 12) -> Fraction:
    """Random fraction in (lo, hi], denominators bounded for readable failures."""
    den = rng.randint(1, den_max)
    num_lo = int(lo * den) + 1
    num_hi = int(hi * den)
    return Fraction(rng.randint(num_lo, num_hi), den)
