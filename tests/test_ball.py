"""Pairing normal form, unit and dual balls, support and width."""
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwpoly import (
    ConvexPolygon,
    InputError,
    PairedPolygon,
    Vec2,
    ball_from_dual,
    build_plane,
    central_equidistant,
    det,
    dual_ball,
    is_constant_width,
    reorder_parallel,
    support,
    unit_ball,
    vec,
    width,
)
from cwpoly import core
from cwpoly.backend import FLOAT
from cwpoly.ball import WidthResult
from cwpoly.core import CenteredBall, coeff_along, dot, minkowski_sum
from cwpoly.fuzz import random_centered_ball, random_convex_polygon

from conftest import float_copy, fuzz_planes, kgon_plane, perturbed_planes


def pts(seq):
    return [(str(p.x), str(p.y)) for p in seq]


def test_reorder_triangle_golden(triangle_plane):
    want = [(0, 0), (1, 0), (1, 0), (0, 1), (0, 1), (0, 0)]
    assert [(p.x, p.y) for p in triangle_plane.P.vertices] == [(F(a), F(b)) for a, b in want]
    assert triangle_plane.n == 3


def test_reorder_symmetric_hexagon_identity(symmetric_plane):
    # already paired: no degenerate sides inserted
    p = symmetric_plane.P
    assert symmetric_plane.n == 3
    assert all(p.edge(i) != Vec2(0, 0) for i in range(6))


def test_reorder_quadrilateral_octagon(quad_plane):
    p = quad_plane.P
    assert quad_plane.n == 4
    degenerate = [i for i in range(8) if p.edge(i) == Vec2(0, 0)]
    assert len(degenerate) == 4


def test_reorder_degenerate_side_support_line():
    # the line through a degenerate side parallel to its partner supports P
    for plane in fuzz_planes(101, 25):
        p = plane.P
        m = 2 * plane.n
        backend = plane.backend
        for i in range(m):
            if p.edge(i) != Vec2(0, 0):
                continue
            d = p.edge((i + plane.n) % m)
            base = p.vertices[i]
            signs = {backend.sign(det(d, q - base)) for q in p.vertices}
            assert 0 in signs  # the touching vertex itself
            assert not (1 in signs and -1 in signs)  # supporting, never cutting


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(3, 12), st.sampled_from(["P", "P+(-P)", "K-gon"]))
def test_reorder_parallel_walks_p_along_p_plus_minus_p(seed, k, kind):
    # the paired form is P walked along the edge directions of P + (-P),
    # repeating a vertex where P has no edge
    if kind == "K-gon":
        k += seed % 40
        poly = ConvexPolygon.from_points(
            [(round(1000 * math.cos(2 * math.pi * j / k)),
              round(1000 * math.sin(2 * math.pi * j / k))) for j in range(k)])
    else:
        poly = random_convex_polygon(random.Random(seed), k)
        if kind == "P+(-P)":
            poly = ConvexPolygon.from_points(
                minkowski_sum(poly.vertices, [-p for p in poly.vertices]))
    plane = build_plane(poly)
    v, out, m = poly.vertices, plane.P.vertices, 2 * plane.n
    low = min(range(len(v)), key=lambda i: (v[i].y, v[i].x))
    assert out[0] == v[low]
    assert [p for i, p in enumerate(out) if p != out[(i + 1) % m]] == v[low:] + v[:low]
    edges = [v[(i + 1) % len(v)] - v[i] for i in range(len(v))]
    assert plane.n == len({e.y / e.x if e.x else None for e in edges})
    target = [p / (2 * plane.a) for p in minkowski_sum(v, [-p for p in v])]
    uv = plane.U.vertices
    assert len(target) == m and any(uv[r:] + uv[:r] == target for r in range(m))


@pytest.mark.parametrize("pts, n, order", [
    # P's first edge horizontal, its top edge within the tolerance of it
    ([[8, -17], [15, -17], [19, -15], [19, 4], [17, 14], [11, 15], [-8, 17],
      [-15, 17.0000000001], [-19, 15], [-19, -4], [-17, -14], [-11, -15]], 6, range(12)),
    # the same, with a direction of -P between P's first two edges
    ([[0.0, 0.0], [18.0, 0.0], [21.000000000001442, 7.999999999997369], [1.0, 8.0],
      [-2.0, 4.0]], 4, [0, 1, 1, 2, 2, 3, 4, 4]),
    # top edge horizontal, the edge into P's lowest vertex within the tolerance of it
    ([[0.0, 0.0], [2.9999999999593343, -9.135812331412048e-11], [3.0, 22.0], [-3.0, 22.0],
      [-9.0, 21.0]], 4, [1, 2, 2, 3, 4, 4, 0, 1]),
], ids=["top", "top-with-gap", "bottom"])
def test_reorder_float_seam_is_one_direction(pts, n, order):
    # in float mode an edge within the tolerance of horizontal sorts first or
    # last in the angular sweep; the two ends of the sweep are one direction
    paired = reorder_parallel(ConvexPolygon.from_points(pts, FLOAT))
    assert paired.n == n
    assert [(p.x, p.y) for p in paired.vertices] == [tuple(map(float, pts[i])) for i in order]
    # P + (-P) folds the same seam, so it has the 2n vertices of the ball
    plane = build_plane(paired)
    assert len(minkowski_sum(paired.vertices, [-p for p in paired.vertices])) == 2 * n
    assert is_constant_width(paired, plane.U) == WidthResult(True, a=0.5)
    # exactly, the near-parallel edges are not parallel
    assert build_plane(ConvexPolygon.from_points(pts)).n > n


def test_paired_invariants_on_fuzz():
    for plane in fuzz_planes(102, 40):
        plane.P.validate()
        plane.U.validate()
        plane.V.validate()
        k = len({(p.x, p.y) for p in plane.P.vertices})
        j = k - plane.n
        pairs = sum(
            1 for i in range(plane.n)
            if plane.P.edge(i) != Vec2(0, 0) and plane.P.edge(i + plane.n) != Vec2(0, 0)
        )
        assert pairs == j


def test_unit_ball_triangle_golden(triangle_plane):
    want = [(0, -1), (1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0)]
    assert [(p.x, p.y) for p in triangle_plane.U.vertices] == [(F(a), F(b)) for a, b in want]


def test_unit_ball_symmetric_translates(symmetric_plane):
    # symmetric P centered at z: P_i - P_{i+n} = 2(P_i - z), so the a=1 ball
    # is the translate P - z and the a=1/2 ball is its doubling
    p = symmetric_plane.P.vertices
    m = len(p)
    z = Vec2(sum((q.x for q in p), F(0)) / m, sum((q.y for q in p), F(0)) / m)
    u1 = unit_ball(symmetric_plane.P, F(1))
    assert [(q.x - z.x, q.y - z.y) for q in p] == [(u.x, u.y) for u in u1.vertices]
    assert [(u.x * 2, u.y * 2) for u in u1.vertices] == \
        [(u.x, u.y) for u in symmetric_plane.U.vertices]


def test_unit_ball_scaling_homogeneity(quad_plane):
    u1 = unit_ball(quad_plane.P, F(1))
    u3 = unit_ball(quad_plane.P, F(1, 3))
    assert all((a * 3).x == b.x and (a * 3).y == b.y
               for a, b in zip(u1.vertices, u3.vertices))


def test_unit_ball_degenerate_diagonal_rejected():
    p = PairedPolygon([vec(0, 0), vec(1, 0), vec(0, 1), vec(0, 0), vec(1, 0), vec(0, 1)])
    with pytest.raises(InputError):
        unit_ball(p, F(1, 2))


def test_dual_ball_triangle_golden(triangle_plane):
    want = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    assert [(p.x, p.y) for p in triangle_plane.V.vertices] == [(F(a), F(b)) for a, b in want]


def test_dual_ball_square():
    from cwpoly.core import CenteredBall

    u = CenteredBall([vec(1, -1), vec(1, 1), vec(-1, 1), vec(-1, -1)])
    v = dual_ball(u)
    assert [(p.x, p.y) for p in v.vertices] == \
        [(F(0), F(1)), (F(-1), F(0)), (F(0), F(-1)), (F(1), F(0))]


def test_dual_identity_on_edges():
    for plane in fuzz_planes(103, 30):
        u, v = plane.U.vertices, plane.V.vertices
        m = len(u)
        for i in range(m):
            for t in (F(0), F(1), F(1, 3), F(7, 9)):
                pt = u[i] * (1 - t) + u[(i + 1) % m] * t
                assert det(pt, v[i]) == 1
            for j in range(m):
                if j not in (i, (i + 1) % m):
                    assert det(u[j], v[i]) < 1


def test_dual_involution_shift():
    for plane in fuzz_planes(104, 30):
        u = plane.U
        w = dual_ball(dual_ball(u))
        m = len(u)
        assert all(w.vertices[i] == u.vertices[(i + plane.n + 1) % m] for i in range(m))
        assert plane.W.vertices == w.vertices


def test_dual_recovery_exact():
    rng = random.Random(105)
    for _ in range(30):
        ball = random_centered_ball(rng, rng.randint(2, 7))
        v = dual_ball(ball)
        back = ball_from_dual(v)
        assert back.vertices == ball.vertices


def test_support_square():
    sq = [vec(0, 0), vec(1, 0), vec(1, 1), vec(0, 1)]
    assert support(sq, vec(0, 1)) == 1


def test_support_of_no_points_raises():
    with pytest.raises(InputError, match="^support of an empty point set$"):
        support([], vec(0, 1))


def test_support_negation_symmetry(quad_plane):
    p = quad_plane.P.vertices
    for f in quad_plane.V.vertices:
        assert support(p, -f) == support([-q for q in p], f)


def test_width_triangle_direction(triangle_plane):
    p = triangle_plane.P.vertices
    f = triangle_plane.V.vertices[0]  # (1, 0)
    assert width(p, f) == det(p[0] - p[3], f) == 1


def test_width_constant_in_all_dual_directions():
    for plane in fuzz_planes(106, 25):
        for f in plane.V.vertices:
            assert width(plane.P.vertices, f) == 2 * plane.a


def test_is_constant_width_construction_inverse():
    for plane in fuzz_planes(107, 25):
        res = is_constant_width(plane.P, plane.U)
        assert res.ok and res.a == plane.a


def test_is_constant_width_mismatched_ball():
    sq = ConvexPolygon.from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
    plane = build_plane(sq, F(1, 2))
    from cwpoly.core import CenteredBall

    stretched = CenteredBall([Vec2(u.x * 2, u.y) for u in plane.U.vertices])
    res = is_constant_width(plane.P, stretched)
    assert not res.ok and res.witness is not None


def test_is_constant_width_vertex_count_mismatch(triangle_plane, quad_plane):
    # a ball of another n is reported, not indexed out of range
    res = is_constant_width(quad_plane.P, triangle_plane.U)
    assert res == WidthResult(False, witness=0, reason="vertex count mismatch")


@pytest.mark.parametrize("ball, paired, witness, reason", [
    # every edge of P along its ball edge and every diagonal along its ball
    # vertex, but the ball is not centrally symmetric: U_2 = -2 U_0, so the
    # diagonal P_2 - P_0 = -3 U_0 is 3/2 U_2, against 3 U_0 at index 0
    ([(1, 0), (0, 1), (-2, 0), (0, -2)], [(0, 0), (-1, 1), (-3, 0), (-1, -2)],
     2, "diagonal ratio is not constant"),
    # a single point: every edge and diagonal is zero, so a = 0
    ([(0, -1), (1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0)], [(1, 1)] * 6,
     0, "nonpositive width"),
    # a ball that is not strictly convex, a parallelogram listed with two
    # edge midpoints: U has 6 edges in 4 directions, and so has P + (-P)
    ([(-1, 0), (0, -1), (1, -2), (1, 0), (0, 1), (-1, 2)],
     [(0, 0), (0, 0), (2, -2), (2, 0), (0, 2), (0, 2)],
     0, "P+(-P) vertex count mismatch"),
], ids=["asymmetric-ball", "single-point", "collinear-ball-vertices"])
def test_is_constant_width_failure_reasons(ball, paired, witness, reason):
    u = CenteredBall([vec(x, y) for x, y in ball])
    p = PairedPolygon([vec(x, y) for x, y in paired])
    assert is_constant_width(p, u) == WidthResult(False, witness=witness, reason=reason)
    assert _ref_is_constant_width(p, u) == WidthResult(False, witness=witness, reason=reason)


def test_ball_validate_rejects_asymmetric_ball():
    ball = CenteredBall([vec(1, 0), vec(0, 1), vec(-2, 0), vec(0, -1)])
    with pytest.raises(InputError, match="ball not centrally symmetric at index 0"):
        ball.validate()


def test_is_constant_width_perturbed_paired():
    # a paired hexagon with one vertex nudged: no longer parallel opposite sides
    p = PairedPolygon(
        [vec(3, 0), vec(5, 2), vec(4, 4), vec(1, 4), vec(-1, 2), vec(0, 0)])
    nudged = PairedPolygon(
        [vec(3, 0), vec(5, 2), vec(4, 5), vec(1, 4), vec(-1, 2), vec(0, 0)])
    u = unit_ball(nudged, F(1, 2), validate=False)
    res = is_constant_width(nudged, u)
    assert not res.ok and res.witness is not None
    res_ok = is_constant_width(p, unit_ball(p, F(1, 2)))
    assert res_ok.ok


def test_four_equivalences_agree():
    # items (1)-(4): constant width, homothety, parallel diagonals, diagonal ratios
    for plane in fuzz_planes(108, 20):
        res = is_constant_width(plane.P, plane.U)  # items (4) + (2) internally
        assert res.ok
        p, u = plane.P.vertices, plane.U.vertices
        m = len(p)
        for i in range(m):
            assert det(p[i] - p[(i + plane.n) % m], u[i]) == 0  # item (3)
        for f in plane.V.vertices:  # item (1)
            assert width(p, f) == 2 * plane.a


def _ref_is_constant_width(paired, u):
    """``is_constant_width`` on scalars: Vec2 differences, det and dot."""
    backend = paired.backend
    m = 2 * paired.n
    if len(u) != m:
        return WidthResult(False, reason="vertex count mismatch", witness=0)
    pv, uv = paired.vertices, u.vertices
    sgn = backend.sign
    for i in range(m):
        pe = pv[(i + 1) % m] - pv[i]
        ue = uv[(i + 1) % m] - uv[i]
        if not backend.is_zero(det(pe, ue)):
            return WidthResult(False, witness=i, reason="edge not parallel to ball edge")
        if not (backend.is_zero(pe.x) and backend.is_zero(pe.y)) and sgn(dot(pe, ue)) <= 0:
            return WidthResult(False, witness=i, reason="edge orientation mismatch")
    a = None
    for i in range(m):
        diag = pv[i] - pv[(i + paired.n) % m]
        if not backend.is_zero(det(diag, uv[i])):
            return WidthResult(False, witness=i, reason="diagonal not parallel to ball vertex")
        ai = coeff_along(diag, uv[i]) / 2
        if a is None:
            a = ai
        elif not backend.eq(a, ai):
            return WidthResult(False, witness=i, reason="diagonal ratio is not constant")
    if a is None or sgn(a) <= 0:
        return WidthResult(False, witness=0, reason="nonpositive width")
    s = minkowski_sum(pv, [-p for p in pv])
    if len(s) != m:
        return WidthResult(False, witness=0, reason="P+(-P) vertex count mismatch")
    target = [w * (2 * a) for w in uv]
    for r in range(m):
        if all(backend.same_point(s[(r + i) % m], target[i]) for i in range(m)):
            return WidthResult(True, a=a)
    return WidthResult(False, witness=0, reason="P+(-P) not homothetic to ball")


def _longer_edge_ball(u):
    """The centred ball with U's edge directions whose edges 0 and n are
    twice as long: its edges stay parallel to P's, its vertices do not."""
    m = len(u.vertices)
    edges = [u.vertices[(i + 1) % m] - u.vertices[i] for i in range(m)]
    edges[0], edges[u.n] = edges[0] * 2, edges[u.n] * 2
    w = Vec2(0, 0)
    for e in edges[:u.n]:
        w = w - e / 2
    out = []
    for e in edges:
        out.append(w)
        w = w + e
    return CenteredBall(out)


def test_is_constant_width_matches_scalar_reference():
    # the framed decision against the scalar one: the same result (a, or
    # the witness and reason) on genuine planes, perturbed ones and balls
    # that do not fit, exact and on float copies at two scales
    planes = fuzz_planes(109, 10) + perturbed_planes()
    planes += [float_copy(p, s) for p in planes[:6] for s in (1e-3, 1.0)]
    reasons = set()
    for plane in planes:
        uv = plane.U.vertices
        for u in (plane.U,
                  CenteredBall([Vec2(w.x * 2, w.y) for w in uv]),
                  CenteredBall([-w for w in uv]),
                  CenteredBall([w * (i % 2 + 1) for i, w in enumerate(uv)]),
                  CenteredBall(uv[1:] + uv[:1]),
                  _longer_edge_ball(plane.U)):
            res = is_constant_width(plane.P, u)
            assert res == _ref_is_constant_width(plane.P, u)
            reasons.add(res.reason)
    assert len(reasons) >= 5


def test_framed_balls_and_midpoints_match_vec2_reference():
    # unit_ball, dual_ball (and ball_from_dual through it) and the midpoints
    # of central_equidistant build one Fraction per coordinate from the
    # frame of P or U; they equal the Vec2 formulas exactly, and their float
    # copies at scales 1e-3 and 1 have the same bits
    def ref_dual(u):
        w, d, m = u.vertices, u.divisor_frame.values(), len(u)
        return [(w[(i + 1) % m] - w[i]) / d[i] for i in range(m)]

    for plane in fuzz_planes(913, 30) + [kgon_plane(k) for k in (7, 9, 11, 17, 41)]:
        for p in (plane, float_copy(plane, 1e-3), float_copy(plane, 1.0)):
            v, n, m = p.P.vertices, p.n, 2 * p.n
            for a in (p.a, p.backend.convert(F(1, 3))):
                assert repr(unit_ball(p.P, a, validate=False).vertices) == \
                    repr([(v[i] - v[(i + n) % m]) * (1 / (2 * a)) for i in range(m)])
            assert repr(central_equidistant(p).M) == \
                repr([(v[i] + v[(i + n) % m]) / 2 for i in range(m)])
            assert repr(p.V.vertices) == repr(ref_dual(p.U))
            assert repr(dual_ball(p.V).vertices) == repr(ref_dual(p.V))
            back = ref_dual(p.V)
            assert repr(ball_from_dual(p.V).vertices) == repr([-back[i - 1] for i in range(m)])


def test_rational_input_side_does_no_vec2_arithmetic(monkeypatch):
    # the cleanup, the edge merge, the paired validation, the balls, the
    # constant-width test and P + U run on integer frames: with Vec2 +, -
    # and unary -, and core.det and core.dot, all raising, they still run
    inputs = [[(0, 0), (4, 0), (5, 3), (1, 5)],
              [(3, 0), (5, 2), (4, 4), (1, 4), (-1, 2), (0, 0)],
              [(0, 0), (0, 0), ("1/2", 0), (1, 0), (1, 3), (0, 1)][::-1]]
    inputs += [[(round(1000 * math.cos(2 * math.pi * j / 9)),
                 round(1000 * math.sin(2 * math.pi * j / 9))) for j in range(9)]]
    inputs += [[(p.x, p.y) for p in random_convex_polygon(random.Random(s), 8).vertices]
               for s in range(4)]

    def forbidden(*args):
        raise AssertionError("Vec2 arithmetic or core.det/dot on the input side")

    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__"):
        monkeypatch.setattr(Vec2, name, forbidden)
    monkeypatch.setattr(core, "det", forbidden)
    monkeypatch.setattr(core, "dot", forbidden)
    with pytest.raises(AssertionError):
        Vec2(F(1), F(2)) - Vec2(F(0), F(1))
    for raw in inputs:
        plane = build_plane(ConvexPolygon.from_points(raw))
        assert is_constant_width(plane.P, plane.U) == WidthResult(True, a=plane.a)
        s = minkowski_sum(plane.P.vertices, plane.U.vertices)
        assert len(s) == 2 * plane.n
