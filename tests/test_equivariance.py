"""Affine equivariance of every object of the plane.

Every construction uses only the determinant pairing, so building on
AP + b with det A > 0 gives U' = AU, V' = AV / det A, and M', E', N' and
the iterate M(k)' equal to A(.) + b, each up to one cyclic shift of the
indices: the paired form starts at the lowest vertex, and A moves it.
Signed areas scale by det A, and cusp counts and chord counts do not
change.
"""
import random
from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cwpoly import (
    ConvexPolygon,
    Vec2,
    build_plane,
    central_equidistant,
    containment_check,
    cusps_of_central,
    evolute,
    evolute_cusps,
    involute,
    signed_area,
)
from cwpoly.fuzz import random_cw_plane
from cwpoly.iterate import convex_parent_of_m, iterate_involutes

_entries = st.builds(F, st.integers(-5, 5), st.integers(1, 4))


def _objects(plane):
    ce = central_equidistant(plane)
    ev = evolute(plane.P.vertices, plane.U, plane.V)
    inv = involute(ce, plane.V)
    parent = convex_parent_of_m(ce.M, plane.U)
    res = containment_check(inv.N, parent, samples=2)
    cusps = [None if c is None else len(c) for c in (cusps_of_central(ce), evolute_cusps(ev))]
    m2 = iterate_involutes(plane, max_steps=2, tol=1e-300).steps[-1].M
    return (ce.M, ev.E, inv.N, m2), (signed_area(ce.M), signed_area(inv.N)), cusps, res


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), _entries, _entries, _entries, _entries, _entries, _entries)
def test_affine_map_moves_every_object(seed, a, b, c, d, bx, by):
    det_a = a * d - b * c
    assume(det_a > 0)

    def lin(p):
        return Vec2(a * p.x + b * p.y, c * p.x + d * p.y)

    def aff(p):
        return lin(p) + Vec2(bx, by)

    plane = random_cw_plane(random.Random(seed), n_min=3, n_max=7)
    image = build_plane(ConvexPolygon.from_points([aff(p) for p in plane.P.vertices]), plane.a)
    assert image.n == plane.n
    m = 2 * plane.n
    u, u2 = plane.U.vertices, image.U.vertices
    shifts = [k for k in range(m) if all(u2[i] == lin(u[(i + k) % m]) for i in range(m))]
    assert len(shifts) == 1
    k = shifts[0]

    def moved(xs, ys, f):
        return all(ys[i] == f(xs[(i + k) % m]) for i in range(m))

    assert moved(plane.V.vertices, image.V.vertices, lambda p: lin(p) / det_a)
    curves, areas, cusps, res = _objects(plane)
    curves2, areas2, cusps2, res2 = _objects(image)
    assert all(moved(xs, ys, aff) for xs, ys in zip(curves, curves2))
    assert areas2 == tuple(det_a * sa for sa in areas)
    assert cusps2 == cusps
    assert (res2.tested, res2.min_chords, res2.contained) == \
        (res.tested, res.min_chords, res.contained)
