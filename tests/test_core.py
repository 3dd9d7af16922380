"""Substrate tests: determinants, areas, Minkowski sums, chord counting."""
import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwpoly import (
    ConvexPolygon,
    IdentityError,
    InputError,
    Vec2,
    chord_count,
    det,
    minkowski_sum,
    mixed_area,
    point_region_test,
    polygon_area,
    signed_area,
    vec,
)
from cwpoly.backend import FLOAT, RATIONAL, get_backend
from cwpoly.core import (
    CenteredBall,
    Frame,
    PairedPolygon,
    RegionTest,
    ScalarFrame,
    _seg_intersections,
    clean_convex,
    coeff_along,
    first_mismatch,
    integer_frame,
    scalar_frame,
    value_eq,
    value_le,
    value_sign,
    value_sum,
)
from cwpoly.cw import alphas_of, betas_of, central_equidistant, lambdas_of
from cwpoly.evolute import dual_involute, involute_points, signed_area_gap
from cwpoly.fuzz import random_centered_ball, random_convex_polygon, random_cw_plane
from cwpoly.iterate import diameter_sq

from conftest import float_copy, fuzz_planes, kgon_points, ref_diameter_sq

TRI = [Vec2(F(0), F(0)), Vec2(F(1), F(0)), Vec2(F(0), F(1))]
HEX_U = [Vec2(F(x), F(y)) for x, y in
         [(0, -1), (1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0)]]


def test_det_basis():
    assert det(Vec2(1, 0), Vec2(0, 1)) == 1


def test_det_expansion():
    assert det(Vec2(0, -1), Vec2(1, -1)) == 1


def test_det_repeated():
    u = Vec2(F(3, 7), F(-2, 5))
    assert det(u, u) == 0


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@given(rationals, rationals, rationals, rationals)
def test_det_antisymmetric(ax, ay, bx, by):
    u, v = Vec2(ax, ay), Vec2(bx, by)
    assert det(u, v) == -det(v, u)


@given(rationals, rationals, rationals, rationals, rationals, rationals, rationals)
def test_det_bilinear(ax, ay, bx, by, cx, cy, s):
    u, v, w = Vec2(ax, ay), Vec2(bx, by), Vec2(cx, cy)
    assert det(u + w * s, v) == det(u, v) + s * det(w, v)


def test_polygon_area_square():
    sq = [vec(0, 0), vec(1, 0), vec(1, 1), vec(0, 1)]
    assert polygon_area(sq) == 1


def test_polygon_area_hexagon():
    assert polygon_area(HEX_U) == 3


def test_polygon_area_reversed_square():
    sq = [vec(0, 0), vec(0, 1), vec(1, 1), vec(1, 0)]
    assert polygon_area(sq) == -1


def test_minkowski_square_doubles():
    sq = [vec(0, 0), vec(1, 0), vec(1, 1), vec(0, 1)]
    s = minkowski_sum(sq, sq)
    assert s == [vec(0, 0), vec(2, 0), vec(2, 2), vec(0, 2)]


def test_minkowski_triangle_reflection_is_hexagon():
    s = minkowski_sum(TRI, [-p for p in TRI])
    assert s == HEX_U


def test_minkowski_point_translates():
    z = Vec2(F(5), F(-7))
    assert minkowski_sum(TRI, [z]) == [p + z for p in TRI]


def test_minkowski_sum_of_exact_and_float_is_float():
    # a mixed pair is read as float, in either order, whatever the exact
    # frame's denominator
    floats = [Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(0.0, 1.0)]
    for exact, want in [([Vec2(0, 0), Vec2(1, 0), Vec2(0, 1)], [(0, 0), (2, 0), (0, 2)]),
                        ([Vec2(F(1, 3), 0), Vec2(1, 0), Vec2(0, 1)],
                         [(1 / 3, 0), (2, 0), (0, 2), (0, 1)])]:
        for got in (minkowski_sum(exact, floats), minkowski_sum(floats, exact)):
            assert got == want and all(type(c) is float for p in got for c in p)


def test_mixed_area_self_is_area():
    sq = [vec(0, 0), vec(1, 0), vec(1, 1), vec(0, 1)]
    assert mixed_area(sq, sq) == polygon_area(sq) == 1


def test_mixed_area_central_triangle():
    m = [vec(0, F(1, 2)), vec(F(1, 2), F(1, 2)), vec(F(1, 2), 0)] * 2
    assert mixed_area(m, m) == F(-1, 4)


def test_mixed_area_length_mismatch():
    with pytest.raises(InputError):
        mixed_area(TRI, TRI + [TRI[0]])


def test_mixed_area_symmetric_formula():
    # the companion form (1/2) sum [p_{i+1}, q_{i+1} - q_i] agrees
    rng = random.Random(3)
    from cwpoly.fuzz import random_cw_plane

    for _ in range(20):
        plane = random_cw_plane(rng)
        p, q = plane.P.vertices, plane.U.vertices
        k = len(p)
        alt = sum(det(p[(i + 1) % k], q[(i + 1) % k] - q[i]) for i in range(k)) / 2
        assert mixed_area(p, q) == alt


def test_mixed_area_quadratic_in_t():
    # polygon_area(P + tQ) = A(P) + 2t A(P,Q) + t^2 A(Q), fitted at t in {0,1,2}
    rng = random.Random(5)
    from cwpoly.fuzz import random_cw_plane

    for _ in range(20):
        plane = random_cw_plane(rng)
        p, q = plane.P.vertices, plane.U.vertices
        k = len(p)

        def area_at(t):
            return polygon_area([p[i] + q[i] * t for i in range(k)])

        a0, a1, a2 = area_at(0), area_at(1), area_at(2)
        quad = (a2 - 2 * a1 + a0) / 2
        lin = a1 - a0 - quad
        assert quad == polygon_area(q)
        assert lin == 2 * mixed_area(p, q)


def test_mixed_area_vs_minkowski_sum():
    rng = random.Random(11)
    from cwpoly.fuzz import random_cw_plane

    for _ in range(20):
        plane = random_cw_plane(rng)
        p, q = plane.P.vertices, plane.U.vertices
        s = minkowski_sum(p, q)
        lhs = polygon_area(s) - polygon_area(p) - polygon_area(q)
        assert lhs / 2 == mixed_area(p, q)


# --- cleanup ----------------------------------------------------------------

def test_clean_reverses_clockwise():
    poly = ConvexPolygon.from_points([(0, 0), (0, 1), (1, 0)])
    assert polygon_area(poly.vertices) > 0
    assert any("reversed" in n for n in poly.notes)


def test_clean_drops_duplicates_and_collinear():
    poly = ConvexPolygon.from_points(
        [(0, 0), (0, 0), (F(1, 2), 0), (1, 0), (0, 1)])
    assert len(poly) == 3
    assert any("duplicate" in n for n in poly.notes)
    assert any("collinear" in n for n in poly.notes)


def test_clean_rejects_nonconvex():
    with pytest.raises(InputError):
        ConvexPolygon.from_points([(0, 0), (2, 0), (1, F(1, 2)), (2, 2), (0, 2)])


def test_clean_rejects_reflex_collinear_turn():
    # (0, 0) -> (2, 0) -> (1, 0) turns back along one line
    assert (_input_error(ConvexPolygon.from_points, [(0, 0), (2, 0), (1, 0), (0, 2)])
            == "polygon is not convex (reflex collinear turn)")


def test_clean_rejects_degenerate():
    with pytest.raises(InputError):
        ConvexPolygon.from_points([(0, 0), (1, 1), (2, 2)])


@pytest.mark.parametrize("backend", [RATIONAL, FLOAT])
@pytest.mark.parametrize("pts", [
    [(0, 0), (1, 0), (2, 0)],
    [(0, 0), (2, 0), (1, 0), (0, 0), (3, 0)],
    [(0, 0), (1, 1), (1, 0), (0, 1)],  # a bowtie: two opposite half areas
], ids=["collinear", "collinear-back", "bowtie"])
def test_clean_rejects_zero_area(pts, backend):
    assert _input_error(ConvexPolygon.from_points, pts, backend) == "polygon has zero area"


def _hull(points):
    """Strictly convex CCW hull of exact points (monotone chain), listed from
    its lowest vertex: least y, then least x."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts[:1] if len(pts) == 1 else sorted(pts, key=lambda p: (p.y, p.x))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and det(out[-1] - out[-2], p - out[-1]) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = chain(pts) + chain(pts[::-1])
    low = min(range(len(hull)), key=lambda i: (hull[i].y, hull[i].x))
    return hull[low:] + hull[:low]


def _oracle_input(rng, kind):
    if kind == "point":
        return [Vec2(F(rng.randint(-9, 9)), F(rng.randint(-9, 9), rng.randint(1, 4)))]
    if kind == "box":
        w, h = F(rng.randint(1, 9), rng.randint(1, 3)), F(rng.randint(1, 9))
        return [Vec2(F(0), F(0)), Vec2(w, F(0)), Vec2(w, h), Vec2(F(0), h)]
    return random_convex_polygon(rng, rng.randint(3, 9), span=12).vertices


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.sampled_from(["random", "scaled", "reflected", "box", "point"]),
       st.sampled_from(["random", "box", "point"]),
       st.integers(0, 8), st.integers(0, 8))
def test_minkowski_sum_matches_hull_of_pairwise_sums(seed, kind_q, kind_p, rot_p, rot_q):
    # the framed merge against the exact hull of every p_i + q_j: random
    # polygons, boxes (parallel edges), a scaled copy or the reflection -p
    # of p (every edge parallel to one of p), single points, both argument
    # orders and any starting vertex
    rng = random.Random(seed)
    p = _oracle_input(rng, kind_p)
    if kind_q == "scaled":
        t, c = F(rng.randint(1, 5), rng.randint(1, 3)), Vec2(F(rng.randint(-5, 5)), F(1, 3))
        q = [c + v * t for v in p]
    elif kind_q == "reflected":
        q = [-v for v in p]
    else:
        q = _oracle_input(rng, kind_q)
    p, q = p[rot_p % len(p):] + p[:rot_p % len(p)], q[rot_q % len(q):] + q[:rot_q % len(q)]
    hull = _hull([a + b for a in p for b in q])
    for a, b in ((p, q), (q, p)):
        want = hull
        if len(a) == 1 or len(b) == 1:  # a translate keeps the polygon's listing
            (t,), poly = (a, b) if len(a) == 1 else (b, a)
            want = [v + t for v in poly]
            assert sorted(want) == sorted(hull)
        assert minkowski_sum(a, b) == want
        # small integers and halves are exact in binary64: the float sweep
        # takes the same path and lists the same vertices
        if all(v.x.denominator in (1, 2) and v.y.denominator in (1, 2) for v in p + q):
            fa, fb = ([vec(float(v.x), float(v.y), FLOAT) for v in w] for w in (a, b))
            assert minkowski_sum(fa, fb) == [Vec2(float(v.x), float(v.y)) for v in want]


def _paired(pts, backend):
    return PairedPolygon([vec(x, y, backend) for x, y in pts])


@pytest.mark.parametrize("backend", [RATIONAL, FLOAT])
@pytest.mark.parametrize("pts, message", [
    ([(0, 0), (1, 0), (0, 0), (0, 1)], "zero diagonal at index 0"),
    ([(0, 0), (0, 0), (1, 0), (1, 1), (1, 1), (0, 1)],
     "both opposite sides degenerate at index 0"),
    ([(0, 0), (2, 0), (2, 2), (0, 1)], "opposite sides not parallel at index 0"),
    # edges (1, 0), (0, 1), (2, 1) and their reverses: a reflex turn
    ([(0, 0), (1, 0), (1, 1), (3, 2), (2, 2), (2, 1)], "paired polygon is not convex"),
    # every side on one line: no turn either way, and zero area
    ([(0, 0), (2, 0), (1, 0), (3, 0)], "paired polygon is not counterclockwise"),
], ids=["zero-diagonal", "both-degenerate", "not-parallel", "not-convex", "not-ccw"])
def test_paired_validate_names_each_failure(pts, message, backend):
    assert _input_error(_paired(pts, backend).validate) == message
    # the clockwise listing of a valid square fails on its turns first
    _paired([(0, 0), (1, 0), (1, 1), (0, 1)], backend).validate()
    assert (_input_error(_paired([(0, 0), (0, 1), (1, 1), (1, 0)], backend).validate)
            == "paired polygon is not convex")


# --- chord counting ---------------------------------------------------------

def _sampled_chord_oracle(x, pts, samples=4000):
    """Count chords by sign changes of the inside/outside indicator of the
    reflected boundary -- an independent, approximate oracle.

    Plain float arithmetic: the vertices, the exact edge vectors and 2x are
    each rounded to float once, and every sample point and sign is then a
    float expression of those.
    """
    k = len(pts)
    px = [float(p.x) for p in pts]
    py = [float(p.y) for p in pts]
    ex = [float(pts[(i + 1) % k].x - pts[i].x) for i in range(k)]
    ey = [float(pts[(i + 1) % k].y - pts[i].y) for i in range(k)]
    x2, y2 = float(2 * x.x), float(2 * x.y)

    def inside(qx, qy):
        for i in range(k):
            if ex[i] * (qy - py[i]) - ey[i] * (qx - px[i]) < 0:
                return False
        return True

    flips = 0
    prev = None
    first = None
    for s in range(samples):
        # the point at parameter s / samples along the boundary, by edge share
        t = s / samples * k
        i = int(t) % k
        frac = t - int(t)
        cur = inside(x2 - (px[i] + ex[i] * frac), y2 - (py[i] + ey[i] * frac))
        if first is None:
            first = cur
        elif cur != prev:
            flips += 1
        prev = cur
    if prev != first:
        flips += 1
    return flips // 2


def test_seg_intersections_disjoint_collinear():
    # two segments on one line that do not meet: no hit and no overlap
    hits = set()
    assert _seg_intersections((0, 0), (1, 0), (2, 0), (3, 0), hits) is False
    assert _seg_intersections((0, 3), (0, 2), (0, 1), (0, -1), hits) is False
    assert hits == set()


def test_region_outside_is_exterior():
    assert point_region_test(Vec2(F(9), F(9)), TRI).exterior


def test_region_vertex_single_chord():
    res = point_region_test(Vec2(F(0), F(0)), TRI)
    assert res.chords == 1 and res.exterior


def test_region_symmetric_center():
    sq = [vec(0, 0), vec(2, 0), vec(2, 2), vec(0, 2)]
    res = point_region_test(Vec2(F(1), F(1)), sq)
    assert res.symmetric and res.overlap and not res.exterior


def test_region_interior_point_matches_sampling_oracle():
    x = Vec2(F(3, 10), F(4, 10))
    res = point_region_test(x, TRI)
    assert res.chords == _sampled_chord_oracle(x, TRI) == 3
    assert not res.exterior


def test_region_generic_points_match_oracle():
    rng = random.Random(99)
    from cwpoly.fuzz import random_cw_plane

    checked = 0
    for _ in range(12):
        plane = random_cw_plane(rng, n_max=6)
        pts = [p for p in plane.P.vertices]
        for _ in range(6):
            x = Vec2(F(rng.randint(-5, 25), 7), F(rng.randint(-5, 25), 7))
            res = point_region_test(x, pts)
            if res.overlap:
                continue
            assert res.chords == _sampled_chord_oracle(x, pts), (x, res)
            checked += 1
    assert checked > 40


def test_chord_count_float_inputs():
    pts = [Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(0.0, 1.0)]
    res = chord_count(Vec2(0.3, 0.4), pts)
    assert res.chords == 3


# --- integer-frame kernels ------------------------------------------------------
# Each framed kernel is compared with the plain formula written out here: on
# Fractions it must give the same exact value, as a Fraction; on floats the
# same float, bit for bit (the reference keeps the kernel's expression order).

# plain ints mixed with Fractions whose denominators share no structure
mixed_coords = st.one_of(
    st.integers(-60, 60),
    st.builds(F, st.integers(-600, 600), st.sampled_from([3, 7, 10, 12, 49, 97, 128, 1001])),
)
float_coords = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


def _polys(coords, lo=3, hi=9):
    return st.lists(st.builds(Vec2, coords, coords), min_size=lo, max_size=hi)


def _exact(points):
    return [Vec2(F(p.x), F(p.y)) for p in points]


def ref_shoelace(p):
    acc = p[-1].x * p[0].y - p[-1].y * p[0].x
    for a, b in zip(p, p[1:]):
        acc = acc + (a.x * b.y - a.y * b.x)
    return acc / 2


def ref_mixed(p, q):
    acc = 0
    for i in range(len(p)):
        j = (i + 1) % len(p)
        acc = acc + (q[i].x * (p[j].y - p[i].y) - q[i].y * (p[j].x - p[i].x))
    return acc / 2


def ref_gap(betas, v):
    acc = 0
    for i in range(len(betas) // 2):
        acc = acc + betas[i] * betas[i] * (v[i - 1].x * v[i].y - v[i - 1].y * v[i].x)
    return acc


@given(_polys(mixed_coords))
def test_integer_frame_shares_one_denominator(pts):
    xs, ys, den = integer_frame(pts)
    assert all(type(c) is int for c in xs + ys)
    assert [Vec2(F(x, den), F(y, den)) for x, y in zip(xs, ys)] == pts
    assert den == math.lcm(*{F(c).denominator for p in pts for c in p})


@given(_polys(mixed_coords, 1, 9), st.integers(1, 10 ** 12))
def test_reduce_frame_gives_integer_frame(pts, c):
    # one content gcd takes any multiple of a point list's frame back to it
    xs, ys, den = integer_frame(pts)
    got = Frame([x * c for x in xs], [y * c for y in ys], den * c).reduced()
    assert got == (xs, ys, den)
    assert all(type(v) is int for v in got[0] + got[1] + [got[2]])


@given(st.lists(mixed_coords, min_size=1, max_size=18), st.integers(1, 10 ** 12),
       st.lists(float_coords, min_size=1, max_size=18))
def test_reduce_scalar_frame_keeps_its_values(values, c, floats):
    # the twin of Frame.reduced: one content gcd takes any multiple of a
    # ladder's frame back to scalar_frame of its values, and a float frame
    # passes unchanged
    nums, den = scalar_frame(values)
    got = ScalarFrame([v * c for v in nums], den * c).reduced()
    assert got == (nums, den)
    assert got.values() == [F(v) for v in values]
    assert math.gcd(got.den, *got.nums) == 1
    assert all(type(v) is int for v in got.nums + [got.den])
    f = scalar_frame(floats)
    assert f.reduced() is f


def test_involute_kernels_return_integer_frame():
    # the frames the ladder carries are the frames of the vertices it stores
    for plane in fuzz_planes(430, 6):
        u, v = plane.U, plane.V
        m_pts = central_equidistant(plane).M
        m_frame = integer_frame(m_pts)
        for _ in range(3):
            be = betas_of(alphas_of(m_frame, u), u)
            n_frame = involute_points(m_frame, be, v)
            n_pts = involute_points(m_pts, betas_of(alphas_of(m_pts, u), u), v).points()
            assert n_frame == integer_frame(n_pts)
            m_frame = dual_involute(n_frame, u, v)[0]
            m_pts = dual_involute(n_pts, u, v)[0].points()
            assert m_frame == integer_frame(m_pts)


@given(_polys(float_coords))
def test_integer_frame_float_passes_through(pts):
    xs, ys, den = integer_frame(pts)
    assert den == 1 and xs == [p.x for p in pts] and ys == [p.y for p in pts]


@given(_polys(mixed_coords), _polys(mixed_coords, 4, 4), _polys(mixed_coords, 4, 4))
def test_framed_areas_and_diameter_exact(p, q4, r4):
    for got, want in ((polygon_area(p), ref_shoelace(_exact(p))),
                      (mixed_area(q4, r4), ref_mixed(_exact(q4), _exact(r4))),
                      (mixed_area(p, p), ref_mixed(_exact(p), _exact(p))),
                      (diameter_sq(p).values()[0], ref_diameter_sq(_exact(p)))):
        assert type(got) is F and got == want


@given(_polys(mixed_coords, 2, 6), st.integers(0, 5), st.booleans(),
       st.sampled_from([1, F(1, 3)]))
def test_exact_shoelace_on_doubled_and_undoubled_lists(half, i, along_y, bump):
    # a doubled list is summed over its first half; a list whose halves
    # differ in one coordinate, or that is not doubled, takes the full sum
    m, i = len(half), i % len(half)
    odd = half + half
    x, y = odd[m + i]
    odd[m + i] = Vec2(x, y + bump) if along_y else Vec2(x + bump, y)
    for pts in (half + half, half, odd, half + half[:1]):
        want = ref_mixed(_exact(pts), _exact(pts))
        frame = integer_frame(pts)
        got = [mixed_area(pts, pts), mixed_area(frame, frame), -signed_area(pts),
               -signed_area(frame)]
        if len(pts) >= 3:
            got += [polygon_area(pts), polygon_area(frame)]
        assert all(type(g) is F and g == want for g in got)


_ledger_nums = st.one_of(st.just(0), st.integers(-9, 9),
                         st.integers(-(2 ** 1000), 2 ** 1000))
_ledger_dens = st.one_of(st.integers(1, 9), st.integers(1, 2 ** 500))


@given(_ledger_nums, _ledger_nums, _ledger_dens, _ledger_dens, _ledger_dens,
       st.integers(1, 2 ** 64), st.booleans())
def test_framed_values_are_fraction_arithmetic(x, y, g, p, q, k, same):
    # exact framed values over g p and g q, which share the factor g and in
    # general do not divide each other, or over g p k for the value of a:
    # sums, differences, order and sign are those of the Fractions, and a
    # sum's denominator is lcm(g p, g q)
    a = ScalarFrame([x], g * p)
    b = ScalarFrame([x * k], g * p * k) if same else ScalarFrame([y], g * q)
    fa, fb = F(x, a.den), F(b.nums[0], b.den)
    total, diff = value_sum(a, b), value_sum(a, -b)
    assert total.den == diff.den == math.lcm(a.den, b.den)
    assert type(total.value()) is F and total.value() == fa + fb
    assert diff.value() == fa - fb and (-a).value() == -fa and a.value() == fa
    assert value_eq(a, b) is (fa == fb)
    assert value_le(a, b) is (fa <= fb) and value_le(b, a) is (fb <= fa)
    assert value_sign(a) == RATIONAL.sign(fa)
    assert value_sign(diff) == RATIONAL.sign(fa - fb)


_ledger_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.floats(-1e-8, 1e-8),
                           st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 1.5e-9, -1.5e-9, 2e-9]))


@given(_ledger_floats, _ledger_floats, st.sampled_from([1.0, 2.0]), st.sampled_from([1.0, 2.0]))
def test_framed_values_on_float_frames_are_quotient_arithmetic(x, y, da, db):
    # on a float frame each helper computes on the quotients, bit for bit,
    # with the backend's predicates; the empty sum, 0 / 1, adds as int 0
    a, b = ScalarFrame([x], da), ScalarFrame([y], db)
    qa, qb = x / da, y / db
    total, diff = value_sum(a, b), value_sum(a, -b)
    assert total.den == diff.den == 1.0
    assert repr(total.value()) == repr(qa + qb) and repr(diff.value()) == repr(qa - qb)
    assert repr(value_sum(ScalarFrame([0], 1), a).value()) == repr(0 + qa)
    assert repr(a.value()) == repr(qa) and repr((-a).value()) == repr(-qa)
    assert value_eq(a, b) is FLOAT.eq(qa, qb)
    assert value_le(a, b) is FLOAT.le(qa, qb)
    assert (not value_le(b, a)) is FLOAT.lt(qa, qb)
    assert value_sign(a) == FLOAT.sign(qa)


@given(mixed_coords, mixed_coords)
def test_rational_le_lt_agree_with_sign_of_difference(a, b):
    for x, y in ((a, b), (b, a), (a, a), (a, F(a)), (F(a), a)):
        d = RATIONAL.sign(F(x) - F(y))
        assert RATIONAL.le(x, y) is (d <= 0)
        assert RATIONAL.lt(x, y) is (d < 0)


@given(_polys(float_coords), _polys(float_coords, 4, 4), _polys(float_coords, 4, 4))
def test_framed_areas_and_diameter_float_bitwise(p, q4, r4):
    # polygon_area is mixed_area(p, p), the one shoelace
    for got, want in ((polygon_area(p), ref_mixed(p, p)),
                      (mixed_area(q4, r4), ref_mixed(q4, r4)),
                      (mixed_area(p, p), ref_mixed(p, p)),
                      (diameter_sq(p).values()[0], ref_diameter_sq(p))):
        assert got == want and type(got) is type(want)


@st.composite
def _band_frames(draw):
    """Exact frames on both sides of the filter's cutovers (7 points, 63 and
    1000 bits): exact ties (rounded K-gons started at any vertex or turned a
    quarter, repeated points, all points equal) or random points, scaled by
    2^e and moved off the origin by up to 2^1200.  A jitter of a few units,
    or of a few float ulps of the diameter, gives the diametral pairs rivals
    that the float distances cannot order."""
    kind = draw(st.sampled_from(["kgon", "random", "point"]))
    if kind == "kgon":
        k = draw(st.integers(1, 12))
        r = draw(st.integers(0, k - 1))
        base = kgon_points(k)
        base = base[r:] + base[:r]
        if draw(st.booleans()):
            base = [(-y, x) for x, y in base]
    elif kind == "random":
        small = st.integers(-5, 5)
        base = draw(st.lists(st.tuples(small, small), min_size=1, max_size=12))
    else:
        base = [(0, 0)] * draw(st.integers(1, 12))
    base += base[:draw(st.integers(0, len(base)))]
    e = draw(st.sampled_from([0, 62, 70, 990, 1000, 1100, 1200]))
    ox, oy = (draw(st.integers(-2 ** 1200, 2 ** 1200)) for _ in range(2))
    unit = 2 ** max(e - draw(st.sampled_from([e, 44, 48])), 0)
    jitter = st.integers(-3, 3) if draw(st.booleans()) else st.just(0)
    xs = [ox + x * 2 ** e + draw(jitter) * unit for x, _ in base]
    ys = [oy + y * 2 ** e + draw(jitter) * unit for _, y in base]
    return Frame(xs, ys, draw(st.sampled_from([1, 3, 2 ** 40])))


def _rivals(e):
    """A diametral pair whose float length rounds down 2047 units, and a
    rival 417 units shorter whose float length rounds up, scaled by 2^e."""
    pts = [(0, 0), (2 ** 64 + 2047, 0), (2 ** 63, -2 ** 62 - 600),
           (2 ** 63, 3 * 2 ** 62 + 1030)] + [(2 ** 63, 0)] * 3
    return Frame([x << e for x, _ in pts], [y << e for _, y in pts], 1)


@settings(max_examples=300, deadline=None)
@given(_band_frames())
@example(_rivals(0))
@example(_rivals(1100))
def test_diameter_filter_equals_the_scan(f):
    want = ref_diameter_sq([Vec2(x, y) for x, y in zip(f.xs, f.ys)])
    assert diameter_sq(f) == ScalarFrame([want], f.den * f.den)


@pytest.mark.parametrize("points", [[], Frame([], [], 1)], ids=["list", "frame"])
def test_diameter_of_no_points_raises(points):
    with pytest.raises(InputError, match="^diameter of an empty point set$"):
        diameter_sq(points)


@given(st.integers(0, 10 ** 6), st.integers(2, 5), st.data())
def test_framed_ladders_exact(seed, n, data):
    # a closed list whose edge i is alpha_i (U_{i+1} - U_i), alpha_{i+n} = alpha_i
    u = random_centered_ball(random.Random(seed), n)
    uv = u.vertices
    half = data.draw(st.lists(mixed_coords, min_size=n, max_size=n))
    alphas = [F(a) for a in half + half]
    pts = [Vec2(F(data.draw(mixed_coords)), F(data.draw(mixed_coords)))]
    for i in range(2 * n - 1):
        pts.append(pts[-1] + (uv[i + 1] - uv[i]) * alphas[i])
    got = alphas_of(pts, u).values()
    assert got == alphas and all(type(a) is F for a in got)
    gap = signed_area_gap(alphas, u)
    assert type(gap) is F and gap == ref_gap(alphas, uv)
    for i in range(2 * n):
        w, d = pts[(i + 1) % (2 * n)] - pts[i], uv[(i + 1) % (2 * n)] - uv[i]
        assert coeff_along(w, d) == alphas[i]


@given(st.integers(0, 10 ** 6), st.integers(2, 5), st.data())
def test_framed_ladders_float_bitwise(seed, n, data):
    u = random_centered_ball(random.Random(seed), n, backend=FLOAT)
    uv = u.vertices
    m = 2 * n
    small = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
    betas = data.draw(st.lists(float_coords, min_size=m, max_size=m))
    assert signed_area_gap(betas, u) == ref_gap(betas, uv)
    half = data.draw(st.lists(small, min_size=n, max_size=n))
    pts = [Vec2(data.draw(small), data.draw(small))]
    for a in (half + half)[:-1]:
        i = len(pts) - 1
        pts.append(pts[-1] + (uv[i + 1] - uv[i]) * a)
    want = []
    for i in range(m):
        w, d = pts[(i + 1) % m] - pts[i], uv[(i + 1) % m] - uv[i]
        want.append(w.x / d.x if abs(d.x) >= abs(d.y) else w.y / d.y)
        assert coeff_along(w, d) == want[-1]
    assert alphas_of(pts, u).values() == want


def test_framed_coeff_not_parallel_message():
    with pytest.raises(IdentityError) as e:
        coeff_along(Vec2(F(1, 2), 2), Vec2(1, 1))
    assert str(e.value) == "vector Vec2(Fraction(1, 2), 2) is not parallel to Vec2(1, 1)"
    u = random_centered_ball(random.Random(5), 3)
    uv = u.vertices
    pts = [Vec2(F(0), F(0))]
    for i in range(5):
        pts.append(pts[-1] + (uv[i + 1] - uv[i]))
    pts[3] = pts[3] + Vec2(F(1, 3), F(0))
    with pytest.raises(IdentityError) as e:
        alphas_of(pts, u)
    w, d = pts[3] - pts[2], uv[3] - uv[2]
    assert str(e.value) == f"vector {w!r} is not parallel to {d!r}"


# --- chord counting on the integer frame -----------------------------------------

positive_rationals = st.builds(F, st.integers(1, 400), st.sampled_from([1, 3, 7, 10, 128, 1001]))


@given(st.integers(0, 2 ** 32), st.booleans(), st.integers(0, 5),
       st.builds(Vec2, mixed_coords, mixed_coords), positive_rationals)
def test_chord_count_translation_and_scale_invariant(seed, symmetric, pick, t, s):
    # the chord count depends on the geometry only, not on the frame the
    # points come in: translating x and the boundary together, or scaling
    # both by a positive rational, gives the same RegionTest
    rng = random.Random(seed)
    if symmetric:
        pts = random_centered_ball(rng, rng.randint(2, 5)).vertices
    else:
        pts = random_convex_polygon(rng, rng.randint(3, 8)).vertices
    k = len(pts)
    weights = [rng.randint(0, 9) for _ in pts]
    weights[0] += 1
    inner = Vec2(F(0), F(0))
    for w, p in zip(weights, pts):
        inner = inner + p * F(w, sum(weights))
    x = [Vec2(F(0), F(0)), pts[0], (pts[0] + pts[1]) * F(1, 2),
         (pts[0] + pts[k // 2]) * F(1, 2),
         Vec2(F(rng.randint(-5, 90), 3), F(rng.randint(-5, 90), 3)), inner][pick]
    res = chord_count(x, pts)
    if pick == 1:  # a vertex is the midpoint of its degenerate chord only
        assert res == RegionTest(chords=1, overlap=False, symmetric=False)
    if pick == 0 and symmetric:
        assert res.symmetric
    assert chord_count(x + t, [p + t for p in pts]) == res
    assert chord_count(x * s, [p * s for p in pts]) == res


def test_region_symmetric_center_on_finer_frame():
    # x has a finer denominator than the boundary, so the boundary is scaled
    sq = [vec(0, 0), vec(1, 0), vec(1, 1), vec(0, 1)]
    assert chord_count(Vec2(F(1, 2), F(1, 2)), sq) == RegionTest(None, True, True)
    # near the center: the reflected square shares the vertical sides
    assert chord_count(Vec2(F(1, 2), F(4, 7)), sq) == RegionTest(None, True, False)
    assert chord_count(Vec2(F(1, 3), F(1, 4)), sq) == RegionTest(1, False, False)


# --- one function per formula: a point list and its Frame give one result ------

def _same(got, want, exact):
    # exactly equal on the rational backend; bitwise (repr) on the float one
    assert got == want
    if not exact:
        assert repr(got) == repr(want)


def _raises_same(fn, *variants):
    texts = set()
    for args in variants:
        with pytest.raises(IdentityError) as e:
            fn(*args)
        texts.add(str(e.value))
    assert len(texts) == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([None, 1e-3, 1.0]))
def test_merged_functions_agree_on_points_and_frames(seed, scale):
    plane = random_cw_plane(random.Random(seed), 3, 7)
    if scale is not None:
        plane = float_copy(plane, scale)
    be, u, v = plane.backend, plane.U, plane.V
    ce = central_equidistant(plane)
    m_pts, p_pts = ce.M, plane.P.vertices
    n_pts = involute_points(m_pts, ce.betas, v).points()
    closed = p_pts + p_pts[:1]
    fm, fp, fn, fc = (integer_frame(x) for x in (m_pts, p_pts, n_pts, closed))
    betas = betas_of(ce.alphas, u).values()
    fb = scalar_frame(betas)
    cases = [
        (alphas_of, (m_pts, u), (fm, u)),
        (betas_of, (ce.alphas, u), (scalar_frame(ce.alphas), u)),
        (lambdas_of, (closed, v), (fc, v)),
        (involute_points, (m_pts, betas, v), (fm, fb, v)),
        (dual_involute, (n_pts, u, v), (fn, u, v)),
        (signed_area, (m_pts,), (fm,)),
        (signed_area_gap, (betas, v), (fb, v)),
        (mixed_area, (p_pts, u.vertices), (fp, u.frame)),
        (polygon_area, (p_pts,), (fp,)),
        (diameter_sq, (p_pts,), (fp,)),
    ]
    for fn_, from_points, from_frame_ in cases:
        _same(fn_(*from_points), fn_(*from_frame_), be.exact)
    # a vertex moved off its ball edges: the same error from either form
    bump = be.convert(F(1, 7))
    bad = list(m_pts)
    bad[1] = bad[1] + Vec2(bump, 2 * bump)
    _raises_same(alphas_of, (bad, u), (integer_frame(bad), u))
    bad_n = list(n_pts)
    bad_n[1] = bad_n[1] + Vec2(bump, 2 * bump)
    _raises_same(dual_involute, (bad_n, u, v), (integer_frame(bad_n), u, v))
    _raises_same(involute_points, (bad, betas, v), (integer_frame(bad), fb, v))


# --- input validation ---------------------------------------------------------

def _input_error(fn, *args) -> str:
    with pytest.raises(InputError) as e:
        fn(*args)
    return str(e.value)


def test_polygon_area_of_two_points_raises():
    assert _input_error(polygon_area, TRI[:2]) == "polygon_area needs at least 3 vertices"


def test_paired_polygon_needs_2n_vertices():
    assert _input_error(PairedPolygon, TRI) == "paired polygon needs an even vertex count"


def test_paired_polygon_needs_n_at_least_2():
    assert _input_error(PairedPolygon, TRI[:2]) == "paired polygon needs n >= 2"


def test_centered_ball_needs_2n_vertices():
    assert (_input_error(CenteredBall, HEX_U[:5])
            == "centered ball needs an even vertex count")


def test_paired_polygon_of_no_vertices_raises():
    assert _input_error(PairedPolygon, []) == "paired polygon needs n >= 2"


def test_centered_ball_of_no_vertices_raises():
    assert _input_error(CenteredBall, []) == "centered ball needs vertices"


def test_convex_polygon_of_no_vertices_raises():
    assert _input_error(lambda: len(ConvexPolygon([]))) == "polygon needs at least 3 vertices"


def _cleaned(raw):
    """(frame, notes) of ``clean_convex``, or the InputError text."""
    try:
        return clean_convex(raw)
    except InputError as e:
        return str(e)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=8))
def test_from_points_frames_plain_ints_as_their_conversion(pts):
    # plain ints are framed over den 1 as they are: the same frame, notes
    # and errors as the cleanup of their Fraction conversion
    try:
        poly = ConvexPolygon.from_points(pts)
        got = (poly.frame, poly.notes)
    except InputError as e:
        got = str(e)
    assert got == _cleaned([vec(x, y) for x, y in pts])


@pytest.mark.parametrize("backend", [RATIONAL, FLOAT], ids=["rational", "float"])
@pytest.mark.parametrize("pts", [
    [(0, 0), (4, 0), (F(5), 3), (1, 5)],
    [(0.5, 0), (4, 0), (5, 3), (1, 5)],
    [("1/2", 0), (4, 0), (5, 3), (1, 5)],
    [(0, 0), (4, 0), (4, 0), (5, 3), (1, 5)],
], ids=["fraction", "float", "str", "ints"])
def test_from_points_converts_other_input_as_before(pts, backend):
    poly = ConvexPolygon.from_points(pts, backend)
    assert (poly.frame, poly.notes) == _cleaned([vec(x, y, backend) for x, y in pts])


@pytest.mark.parametrize("bad", [True, "x", float("nan"), float("inf"), None, "1/0"])
def test_from_points_keeps_the_conversion_errors(bad):
    pts = [(0, 0), (4, 0), (bad, 3)]
    with pytest.raises(Exception) as want:
        [vec(x, y) for x, y in pts]
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        ConvexPolygon.from_points(pts)


def _first_apart(a: Frame, b: Frame, shift: int, backend) -> int | None:
    """The reference of ``first_mismatch``: ``same_point`` on the points."""
    pa, pb = a.points(), b.points()
    return next((i for i in range(len(pa))
                 if not backend.same_point(pa[i], pb[(i + shift) % len(pb)])), None)


def _scaled(f: Frame, k: int) -> Frame:
    """The same points on k times the denominator: an unreduced frame."""
    return Frame([x * k for x in f.xs], [y * k for y in f.ys], f.den * k)


_coords = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_coords, _coords), min_size=1, max_size=7), st.data())
def test_first_mismatch_is_the_first_point_apart(pts, data):
    # frame b lists the points of a rotated, with some moved; exact frames
    # on unequal, unreduced denominators and float frames (moved inside and
    # outside the tolerance) give the index same_point gives, at every shift
    m = len(pts)
    r = data.draw(st.integers(0, m - 1))
    moves = data.draw(st.dictionaries(st.integers(0, m - 1),
                                      st.tuples(st.booleans(), st.sampled_from([F(1, 7), 1])),
                                      max_size=2))
    ka, kb = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    q = pts[r:] + pts[:r]

    def moved(scale):
        out = []
        for j, (x, y) in enumerate(q):
            if j in moves:
                on_x, d = moves[j]
                x, y = (x + d * scale, y) if on_x else (x, y + d * scale)
            out.append((x, y))
        return out

    fa = _scaled(integer_frame([Vec2(x, y) for x, y in pts]), ka)
    fb = _scaled(integer_frame([Vec2(x, y) for x, y in moved(1)]), kb)
    ga = Frame([float(x) for x, _ in pts], [float(y) for _, y in pts], 1.0)
    gq = moved(data.draw(st.sampled_from([4e-10, 3e-9])))
    gb = Frame([float(x) for x, _ in gq], [float(y) for _, y in gq], 1.0)
    for shift in range(-m, 2 * m):
        assert first_mismatch(fa, fb, shift) == _first_apart(fa, fb, shift, RATIONAL)
        assert first_mismatch(ga, gb, shift) == _first_apart(ga, gb, shift, FLOAT)
    # undoing the rotation, the first point apart is the first one moved
    assert first_mismatch(fa, fb, -r) == min(((j + r) % m for j in moves), default=None)


def test_minkowski_sum_of_nothing_raises():
    assert _input_error(minkowski_sum, [], TRI) == "minkowski_sum needs nonempty inputs"


def test_minkowski_sum_of_one_point_translates():
    # a one-point first argument translates the second polygon
    t = Vec2(F(3), F(-1, 2))
    assert minkowski_sum([t], TRI) == [p + t for p in TRI]


def test_minkowski_sum_of_float_points_merges_on_the_float_backend():
    # P + (-P) of a float n = 3 quadrilateral at scale 1e-3 has 2n vertices,
    # as the float tolerance merges its parallel edges; exact predicates on
    # the float points would keep 8
    rng = random.Random(5)
    plane = [random_cw_plane(rng, 3, 9) for _ in range(9)][-1]
    assert plane.n == 3
    p = [Vec2(float(v.x) * 1e-3, float(v.y) * 1e-3)
         for v in ConvexPolygon.from_points(plane.P.vertices).vertices]
    assert len(minkowski_sum(p, [-v for v in p])) == 2 * plane.n


def test_chord_count_needs_a_polygon_boundary():
    assert (_input_error(chord_count, Vec2(F(0), F(0)), TRI[:2])
            == "chord_count needs a genuine polygon boundary")


def test_get_backend_unknown_name():
    with pytest.raises(ValueError) as e:
        get_backend("bogus")
    assert str(e.value) == "unknown backend 'bogus' (expected 'rational' or 'float')"
