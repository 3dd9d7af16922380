"""Central equidistant, equidistants, dual lengths, Barbier, half-polygon laws."""
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwpoly import (
    GeometryError,
    IdentityError,
    InputError,
    Vec2,
    barbier,
    central_equidistant,
    chakerian_invariant,
    cusps_of_central,
    det,
    equidistant,
    half_arc_length,
    half_area_identity,
    min_convex_c,
    polygon_area,
    v_length,
    vec,
)
from cwpoly import verify
from cwpoly.backend import FLOAT, RATIONAL
from cwpoly.ball import det_table, framed_widths
from cwpoly.core import CenteredBall, cross_terms, from_frame, integer_frame
from cwpoly.cw import EquidistantFrame, alphas_of, ladder_cusps, window_sums
from cwpoly.fuzz import random_cw_plane, random_rational
from cwpoly.iterate import convex_parent_of_m, iterate_involutes, width_family
from cwpoly.verify import _s

from conftest import float_copy, fuzz_planes, perturbed_planes


def test_central_triangle_golden(triangle_plane):
    ce = central_equidistant(triangle_plane)
    medial = [(F(0), F(1, 2)), (F(1, 2), F(1, 2)), (F(1, 2), F(0))] * 2
    assert [(p.x, p.y) for p in ce.M] == medial
    assert ce.alphas == [F(1, 2), F(-1, 2)] * 3
    assert ce.betas == [F(1, 4), F(-1, 4)] * 3
    assert not ce.degenerate


def test_central_symmetric_is_point(symmetric_plane):
    ce = central_equidistant(symmetric_plane)
    assert ce.degenerate
    assert all(p == ce.M[0] for p in ce.M)
    assert all(a == 0 for a in ce.alphas) and all(b == 0 for b in ce.betas)


def test_beta_antiperiodic_and_ladder():
    for plane in fuzz_planes(201, 30):
        ce = central_equidistant(plane)
        n, m = plane.n, 2 * plane.n
        d = plane.U.divisor_frame.values()
        for i in range(n):
            assert ce.alphas[i + n] == -ce.alphas[i]
            assert ce.betas[i + n] == -ce.betas[i]
        for i in range(m):
            assert ce.betas[(i + 1) % m] - ce.betas[i] == -ce.alphas[i] * d[i]


def test_equidistant_at_a_recovers_polygon(triangle_plane):
    ce = central_equidistant(triangle_plane)
    pc = equidistant(ce, triangle_plane.U, triangle_plane.a)
    assert pc.vertices == triangle_plane.P.vertices


def test_equidistant_at_zero_is_central(triangle_plane):
    ce = central_equidistant(triangle_plane)
    assert equidistant(ce, triangle_plane.U, 0).vertices == ce.M


def test_equidistant_c1_barbier(triangle_plane):
    ce = central_equidistant(triangle_plane)
    pc = equidistant(ce, triangle_plane.U, 1)
    lv = v_length(pc.vertices, triangle_plane.V, closed=True)
    assert lv == 6  # 2 * 1 * A(U), A(U) = 3


def test_v_length_triangle_boundary(triangle_plane):
    lv = v_length(triangle_plane.P.vertices, triangle_plane.V, closed=True)
    assert lv == 3


def test_mixed_area_with_ball_is_half_length(triangle_plane):
    from cwpoly import mixed_area

    lv = v_length(triangle_plane.P.vertices, triangle_plane.V, closed=True)
    assert mixed_area(triangle_plane.P.vertices, triangle_plane.U.vertices) \
        == lv / 2 == F(3, 2)


def test_v_length_central_is_zero():
    for plane in fuzz_planes(202, 30):
        ce = central_equidistant(plane)
        assert v_length(ce.M, plane.V, closed=True) == 0


def test_v_length_of_one_point_has_the_backend_type(triangle_plane):
    # a one-point arc has no edge, so its length is the empty sum: 0.0 on
    # the float backend, a Fraction on the rational one
    got = v_length([triangle_plane.P.vertices[0]], triangle_plane.V)
    assert type(got) is F and got == 0
    plane = float_copy(triangle_plane, 1.0)
    got = v_length([plane.P.vertices[0]], plane.V)
    assert type(got) is float and got == 0.0


def test_v_length_of_an_empty_arc(triangle_plane):
    # an empty arc has no edge either: its length is the backend's zero, and
    # it has no first point to close with
    for plane, kind in ((triangle_plane, F), (float_copy(triangle_plane, 1.0), float)):
        got = v_length([], plane.V)
        assert type(got) is kind and got == 0
        with pytest.raises(InputError, match="no points"):
            v_length([], plane.V, closed=True)


def test_v_length_rejects_nonparallel(triangle_plane):
    arc = [vec(0, 0), vec(1, 1)]
    with pytest.raises(IdentityError):
        v_length(arc, triangle_plane.V)


def _closing_edge_only(directions):
    """X_0 = 0 and X_{i+1} = X_i + t_i d_i for i < m - 1, with t_0 = 2 and
    every other t_i = 1.  Edges 0 .. m-2 are parallel to their directions.
    The directions sum to zero (the edges of a ball, or the vertices of a
    centered one), so the closing edge X_0 - X_{m-1} is d_{m-1} - d_0, which
    is not parallel to d_{m-1} when d_0 and d_{m-1} are not parallel."""
    pts = [directions[0] * 0]
    for i, d in enumerate(directions[:-1]):
        pts.append(pts[-1] + (d * 2 if i == 0 else d))
    return pts


@pytest.mark.parametrize("scale", [None, 1.0])
def test_not_parallel_on_closing_edge(scale):
    # the one non-parallel edge is the closing edge m-1, from X_{m-1} back to
    # X_0: the alphas along U's edges and the closed dual length along V's
    # vertices raise IdentityError naming it
    for plane in fuzz_planes(9, 6):
        plane = plane if scale is None else float_copy(plane, scale)
        uv, vv = plane.U.vertices, plane.V.vertices
        m = len(uv)
        pts = _closing_edge_only([uv[(i + 1) % m] - uv[i] for i in range(m)])
        text = f"vector {pts[0] - pts[-1]!r} is not parallel to {uv[0] - uv[-1]!r}"
        with pytest.raises(IdentityError) as e:
            alphas_of(pts, plane.U)
        assert str(e.value) == text
        # given a Frame, the error is worded from the frame's points
        with pytest.raises(IdentityError) as e:
            alphas_of(integer_frame(pts), plane.U)
        assert str(e.value) == text
        pts = _closing_edge_only(vv)
        with pytest.raises(IdentityError) as e:
            v_length(pts, plane.V, closed=True)
        assert str(e.value) == f"vector {pts[0] - pts[-1]!r} is not parallel to {vv[-1]!r}"
        # the open list has no closing edge
        v_length(pts, plane.V)


def test_not_parallel_int_list_is_worded_as_its_frame():
    # the error is built from the frame, so a list of plain ints reads as
    # Fractions, the same text as its frame and as the Fraction list
    plane = fuzz_planes(9, 1)[0]
    uv, vv = plane.U.vertices, plane.V.vertices
    m = len(uv)
    scale = math.lcm(*(c.denominator for p in uv + vv for c in p))
    for directions, solve in (([uv[(i + 1) % m] - uv[i] for i in range(m)],
                               lambda x: alphas_of(x, plane.U)),
                              (vv, lambda x: v_length(x, plane.V, closed=True))):
        pts = [p * scale for p in _closing_edge_only(directions)]
        ints = [Vec2(int(p.x), int(p.y)) for p in pts]
        texts = []
        for arg in (ints, integer_frame(ints), pts):
            with pytest.raises(IdentityError) as e:
                solve(arg)
            texts.append(str(e.value))
        assert texts[0] == texts[1] == texts[2]
        assert texts[0].startswith("vector Vec2(Fraction(")


def test_v_length_half_arc_triangle(triangle_plane):
    ce = central_equidistant(triangle_plane)
    # L_V(0, 1/2) = c A(U) + 2 beta_0 = 3/2 + 1/2 = 2, matching the raw sum 1+0+1
    li = half_arc_length(ce, triangle_plane.U, 0, F(1, 2))
    assert li == 2
    arc = [triangle_plane.P.vertices[j % 6] for j in range(0, 4)]
    assert v_length(arc, triangle_plane.V) == 2


def test_half_arc_closed_form():
    for plane in fuzz_planes(203, 25):
        ce = central_equidistant(plane)
        area_u = polygon_area(plane.U.vertices)
        for c in (plane.a, F(2), random_rational(random.Random(5))):
            for i in range(2 * plane.n):
                assert half_arc_length(ce, plane.U, i, c) == c * area_u + 2 * ce.betas[i]


def test_barbier_triangle(triangle_plane):
    ce = central_equidistant(triangle_plane)
    res = barbier(ce, triangle_plane.U, triangle_plane.V, F(1, 2))
    assert res.expected == res.actual == 3


def test_barbier_central_zero(quad_plane):
    ce = central_equidistant(quad_plane)
    res = barbier(ce, quad_plane.U, quad_plane.V, 0)
    assert res.expected == res.actual == 0


def test_barbier_fuzz_exact():
    rng = random.Random(204)
    for plane in fuzz_planes(205, 40):
        c = random_rational(rng)
        res = barbier(ce := central_equidistant(plane), plane.U, plane.V, c)
        assert res.expected == res.actual
        # signed lengths: equality continues past cusps at negative c
        res_neg = barbier(ce, plane.U, plane.V, -c)
        assert res_neg.expected == res_neg.actual


def test_cusps_triangle(triangle_plane):
    ce = central_equidistant(triangle_plane)
    assert cusps_of_central(ce) == [0, 1, 2]


def test_cusps_symmetric_degenerate(symmetric_plane):
    assert cusps_of_central(central_equidistant(symmetric_plane)) is None


def test_ladder_cusps_sign_changes_and_all_zero():
    # zeros are skipped: the changes after entry 0 and, wrapping, after
    # entry 3 both land at slot 1 = 4 mod 3
    assert ladder_cusps([F(1), 0, F(-2), F(-1), 0, 0], 3, RATIONAL) == [1]
    assert ladder_cusps([F(1), 0, 0, F(2)], 2, RATIONAL) == []
    assert ladder_cusps([0] * 6, 3, RATIONAL) is None
    # float entries within the tolerance of zero count as zero
    assert ladder_cusps([1e-12, -1e-12] * 3, 3, FLOAT) is None


def test_cusps_odd_at_least_three():
    for plane in fuzz_planes(206, 60):
        cusps = cusps_of_central(central_equidistant(plane))
        if cusps is None:
            continue
        assert len(cusps) % 2 == 1 and len(cusps) >= 3


def test_cusps_match_halfplane_test_when_distinct():
    # on instances where neighbouring M vertices are distinct, the ladder
    # form must agree with the literal same-side test against the diagonal
    for plane in fuzz_planes(207, 40):
        ce = central_equidistant(plane)
        if ce.degenerate:
            continue
        m = 2 * plane.n
        literal = set()
        usable = True
        for i in range(plane.n):
            prev_pt, next_pt = ce.M[(i - 1) % m], ce.M[(i + 1) % m]
            if prev_pt == ce.M[i] or next_pt == ce.M[i]:
                usable = False
                break
            d = plane.P.vertices[(i + plane.n) % m] - plane.P.vertices[i]
            s1 = det(d, prev_pt - ce.M[i])
            s2 = det(d, next_pt - ce.M[i])
            if (s1 > 0 and s2 > 0) or (s1 < 0 and s2 < 0):
                literal.add(i)
        if usable:
            assert set(cusps_of_central(ce)) == literal


def test_half_area_triangle_golden(triangle_plane):
    ce = central_equidistant(triangle_plane)
    h = half_area_identity(ce, triangle_plane.U, 0, F(1, 2))
    assert (h.a1, h.a2, h.four_c_beta) == (F(1, 2), F(0), F(1, 2))


def test_half_area_zero_beta_balanced():
    for plane in fuzz_planes(208, 40):
        ce = central_equidistant(plane)
        for i in range(2 * plane.n):
            if ce.betas[i] == 0:
                h = half_area_identity(ce, plane.U, i, plane.a)
                assert h.a1 == h.a2


def test_half_area_identity_fuzz():
    rng = random.Random(209)
    for plane in fuzz_planes(210, 30):
        ce = central_equidistant(plane)
        c = max(min_convex_c(ce), F(0)) + random_rational(rng)
        total = polygon_area(equidistant(ce, plane.U, c).vertices)
        for i in range(2 * plane.n):
            h = half_area_identity(ce, plane.U, i, c)
            assert h.a1 - h.a2 == h.four_c_beta
            assert h.a1 + h.a2 == total
            assert h.a1 >= 0 and h.a2 >= 0


def test_chakerian_triangle(triangle_plane):
    ce = central_equidistant(triangle_plane)
    # A1(i, 1/2) - (1/2) L_V(i, 1/2) = 1/2 - 1 = -1/2 at every i
    assert chakerian_invariant(ce, triangle_plane.U, F(1, 2)) == F(-1, 2)


def test_chakerian_symmetric(symmetric_plane):
    ce = central_equidistant(symmetric_plane)
    area_u = polygon_area(symmetric_plane.U.vertices)
    c = symmetric_plane.a
    # beta = 0: halves are equal and L_V(i, c) = c A(U)
    val = chakerian_invariant(ce, symmetric_plane.U, c)
    total = polygon_area(equidistant(ce, symmetric_plane.U, c).vertices)
    assert val == total / 2 - c * c * area_u
    for i in range(2 * symmetric_plane.n):
        assert half_arc_length(ce, symmetric_plane.U, i, c) == c * area_u


def test_chakerian_fuzz_constant():
    rng = random.Random(211)
    for plane in fuzz_planes(212, 25):
        ce = central_equidistant(plane)
        c = max(min_convex_c(ce), F(0)) + random_rational(rng)
        chakerian_invariant(ce, plane.U, c)  # raises on any violation


def test_isoperimetric_inequality():
    rng = random.Random(213)
    for plane in fuzz_planes(214, 30):
        ce = central_equidistant(plane)
        area_u = polygon_area(plane.U.vertices)
        c = max(min_convex_c(ce), F(0)) + random_rational(rng)
        pc = equidistant(ce, plane.U, c).vertices
        lv = v_length(pc, plane.V, closed=True)
        assert lv * lv >= 4 * area_u * polygon_area(pc)


# --- framed identity kernels against the per-i scalar references ------------
# The references below are the identity checks of `verify` as they read on
# scalars, one Fraction (or float) operation at a time.  The framed kernels
# must give the same exact values, and the checks built on them the same
# first failing index and text; on float copies, the same verdicts.

def _ref_lambda(w, d, backend):
    """lambda with w = lambda d, along the dominant axis of d."""
    if not backend.is_zero(det(w, d)):
        raise IdentityError(f"vector {w!r} is not parallel to {d!r}")
    return w.x / d.x if abs(d.x) >= abs(d.y) else w.y / d.y


def _ref_v_length(pts, v, backend, offset=0):
    m = len(v.vertices)
    acc = 0
    for i in range(len(pts) - 1):
        acc = acc + _ref_lambda(pts[i + 1] - pts[i], v.vertices[(i + offset) % m], backend)
    return acc


def _ref_area(pts):
    acc = 0
    for i in range(len(pts)):
        acc = acc + det(pts[i], pts[(i + 1) % len(pts)])
    return acc / 2


def _ref_equidistant(ce, u, c):
    return [ce.M[i] + u.vertices[i] * c for i in range(2 * ce.n)]


def _ref_half(pc, n, i):
    return [pc[j % (2 * n)] for j in range(i, i + n + 1)]


def _ref_closed_arc(ce, u, i, c):
    m = 2 * ce.n
    acc = 0
    for j in range(i, i + ce.n):
        acc = acc + (ce.alphas[j % m] + c) * det(u.vertices[j % m], u.vertices[(j + 1) % m])
    return acc


def _ref_cw_checks(ce, u, v, cs):
    """(actual, ok) of the five cw checks of run_verify, per i on scalars."""
    be = ce.backend
    n, m = ce.n, 2 * ce.n
    area_u = _ref_area(u.vertices)
    convex = [c for c in cs if not be.lt(c, max(-a for a in ce.alphas))]

    def barbier():
        for c in cs:
            pc = _ref_equidistant(ce, u, c)
            actual = _ref_v_length(pc + pc[:1], v, be)
            if not be.eq(2 * c * area_u, actual):
                return f"c={_s(be, c)}: {_s(be, actual)}", False
        return "2cA(U) at all c", True

    def half_arc():
        for c in cs:
            pc = _ref_equidistant(ce, u, c)
            for i in range(m):
                li = _ref_closed_arc(ce, u, i, c)
                if not be.eq(li, c * area_u + 2 * ce.betas[i]):
                    return f"i={i}", False
                if not be.eq(_ref_v_length(_ref_half(pc, n, i), v, be, i), li):
                    return f"direct sum differs at i={i}", False
        return "cA(U) + 2beta_i", True

    def half_area():
        for c in convex:
            pc = _ref_equidistant(ce, u, c)
            for i in range(m):
                a1, a2 = _ref_area(_ref_half(pc, n, i)), _ref_area(_ref_half(pc, n, i + n))
                if not be.eq(a1 - a2, 4 * c * ce.betas[i]):
                    return f"i={i} c={_s(be, c)}", False
        return "A1 - A2 = 4c beta_i", True

    def invariant():
        for c in convex:
            pc = _ref_equidistant(ce, u, c)
            closed = 2 * c * c * area_u - _ref_area(pc)
            value = None
            for i in range(m):
                a1 = _ref_area(_ref_half(pc, n, i))
                lv = _ref_closed_arc(ce, u, i, c)
                cur = a1 - c * lv
                if value is None:
                    value = cur
                elif not be.eq(value, cur):
                    raise IdentityError(f"half-polygon invariant varies at index {i}")
                if not be.eq(2 * c * lv - 2 * a1, closed):
                    raise IdentityError(f"half-polygon closed form fails at index {i}")
        return "constant over i", len(convex) > 0

    def isoperimetric():
        for c in convex:
            pc = _ref_equidistant(ce, u, c)
            lv = _ref_v_length(pc + pc[:1], v, be)
            if be.sign(lv * lv - 4 * area_u * _ref_area(pc)) < 0:
                return f"fails at c={_s(be, c)}", False
        return "L^2 >= 4 A(U) A(P)", True

    return [_guarded(fn) for fn in (barbier, half_arc, half_area, invariant, isoperimetric)]


def _framed_cw_checks(ce, u, v, cs):
    frames = [EquidistantFrame(ce, u, c) for c in cs]
    area_u = polygon_area(u.vertices)
    return [_guarded(lambda: verify._chk_barbier(frames, v)),
            _guarded(lambda: verify._chk_half_arc(frames, v, area_u)),
            _guarded(lambda: verify._chk_half_area(frames)),
            _guarded(lambda: verify._chk_invariant(frames)),
            _guarded(lambda: verify._chk_isoperimetric(frames, v, area_u))]


def _ref_dual_identity(u, v):
    be = u.backend
    m = len(u.vertices)
    uv, vv = u.vertices, v.vertices
    half = be.convert("1/2")
    for i in range(m):
        for t in (0, 1, half):
            p = uv[i] * (1 - t) + uv[(i + 1) % m] * t
            if not be.eq(det(p, vv[i]), 1):
                return f"edge {i} fails", False
    for i in range(m):
        for j in range(m):
            if j not in (i, (i + 1) % m) and be.sign(det(uv[j], vv[i]) - 1) > 0:
                return f"vertex {j} exceeds dual unit at edge {i}", False
    return "all edges at dual norm 1", True


def _guarded(fn):
    try:
        return fn()
    except GeometryError as e:
        return f"error: {e}", False


def _cs(plane, rng):
    be = plane.backend
    return [plane.a, be.convert(1), be.convert(random_rational(rng, lo=-1))]


def _variants(ce, rng):
    """ce itself, and copies with one alpha, one beta or one vertex of M
    changed (a changed M leaves edges of the equidistants not parallel to
    V), and with M scaled by 2 (edges stay parallel, and only the direct
    sums see the change)."""
    m = 2 * ce.n
    k = rng.randrange(m)
    bump = ce.backend.convert(F(1, 7))
    alphas, betas, M = list(ce.alphas), list(ce.betas), list(ce.M)
    alphas[k] += bump
    betas[k] -= bump
    M[k] = M[k] + Vec2(bump, bump * 2)
    return [ce, replace(ce, alphas=alphas), replace(ce, betas=betas), replace(ce, M=M),
            replace(ce, M=[p * 2 for p in ce.M])]


def _dual_variants(plane, rng):
    """V itself, V with V_k moved along U_k (edge k keeps [U_k, V_k] = 1 at
    its first end only), and V with V_k scaled by 8/7."""
    u, v = plane.U, plane.V
    k = rng.randrange(2 * plane.n)
    t = plane.backend.convert(F(1, 7))
    along, scaled = list(v.vertices), list(v.vertices)
    along[k] = along[k] + u.vertices[k] * t
    scaled[k] = scaled[k] * (1 + t)
    return [v] + [CenteredBall(vs) for vs in (along, scaled)]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_framed_kernels_equal_scalar_reference(seed):
    rng = random.Random(seed)
    plane = random_cw_plane(rng, 3, 9)
    u, v, n, m = plane.U, plane.V, plane.n, 2 * plane.n
    ce = central_equidistant(plane)
    for c in _cs(plane, rng):
        f = EquidistantFrame(ce, u, c)
        pc = _ref_equidistant(ce, u, c)
        arcs, aden = f.half_arc_lengths
        assert [from_frame(a, aden) for a in arcs] == [_ref_closed_arc(ce, u, i, c)
                                                        for i in range(m)]
        lam, lden = f.lambdas(v)
        closed = pc + pc[:1]
        assert [from_frame(t, lden) for t in lam] == [
            _ref_lambda(closed[j + 1] - closed[j], v.vertices[j], RATIONAL) for j in range(m)]
        assert [from_frame(s, lden) for s in window_sums(lam, n)] == [
            _ref_v_length(_ref_half(pc, n, i), v, RATIONAL, i) for i in range(m)]
        halves, hden = f.half_areas
        assert [from_frame(h, hden) for h in halves] == [_ref_area(_ref_half(pc, n, i))
                                                          for i in range(m)]
        assert f.area() == _ref_area(pc)
        assert barbier(ce, u, v, c).actual == _ref_v_length(closed, v, RATIONAL)
        if f.convex:
            want = _ref_area(_ref_half(pc, n, 0)) - c * _ref_closed_arc(ce, u, 0, c)
            assert chakerian_invariant(ce, u, c) == want
    xs, ys, den = integer_frame(plane.P.vertices)
    widths, wden = framed_widths(xs, ys, den, v)
    assert [from_frame(w, wden) for w in widths] == [
        max(det(p, f) for p in plane.P.vertices) + max(det(p, -f) for p in plane.P.vertices)
        for f in v.vertices]
    ux, uy, uden = u.frame
    vx, vy, vden = v.frame
    assert [[from_frame(d, uden * vden) for d in row] for row in det_table(ux, uy, vx, vy)] \
        == [[det(p, f) for p in u.vertices] for f in v.vertices]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_framed_checks_fail_where_the_reference_fails(seed):
    # the same first failing index and text, on ce and on copies with one
    # alpha, beta or vertex of M changed
    rng = random.Random(seed)
    plane = random_cw_plane(rng, 3, 9)
    cs = _cs(plane, rng)
    for ce in _variants(central_equidistant(plane), rng):
        want = _ref_cw_checks(ce, plane.U, plane.V, cs)
        assert _framed_cw_checks(ce, plane.U, plane.V, cs) == want
    for v in _dual_variants(plane, rng):
        assert verify._chk_dual_identity(plane.U, v) == _ref_dual_identity(plane.U, v)


def test_framed_checks_fail_in_reference_order_fuzz():
    # the variants fail each of the five checks, the half-arc check in all
    # three ways, and the dual identity fails on a perturbed plane
    failed = set()
    for i, plane in enumerate(fuzz_planes(215, 12)):
        rng = random.Random(i)
        cs = _cs(plane, rng)
        for ce in _variants(central_equidistant(plane), rng):
            got = _framed_cw_checks(ce, plane.U, plane.V, cs)
            assert got == _ref_cw_checks(ce, plane.U, plane.V, cs)
            failed |= {(k, actual.split(" ")[0].split("=")[0])
                       for k, (actual, ok) in enumerate(got) if not ok}
    assert failed >= {(0, "error:"), (1, "i"), (1, "direct"), (1, "error:"), (2, "i"),
                      (3, "error:"), (4, "error:")}
    dual = [verify._chk_dual_identity(p.U, p.V) for p in perturbed_planes()]
    assert dual == [_ref_dual_identity(p.U, p.V) for p in perturbed_planes()]
    assert any(not ok for _, ok in dual)


def test_framed_checks_float_verdicts_match_reference():
    # on float copies at two scales the framed checks reach the verdict of
    # the scalar float reference, on ce and on its changed copies
    for i, plane_r in enumerate(fuzz_planes(216, 10)):
        for scale in (1e-3, 1.0):
            plane = float_copy(plane_r, scale)
            rng = random.Random(i)
            cs = _cs(plane, rng)
            for ce in _variants(central_equidistant(plane), rng):
                got = [ok for _, ok in _framed_cw_checks(ce, plane.U, plane.V, cs)]
                assert got == [ok for _, ok in _ref_cw_checks(ce, plane.U, plane.V, cs)]
            for v in _dual_variants(plane, rng):
                assert verify._chk_dual_identity(plane.U, v)[1] \
                    == _ref_dual_identity(plane.U, v)[1]


def test_half_area_identity_below_min_convex_c_raises(quad_plane):
    # the half areas need a convex equidistant, c >= max(-alpha)
    ce = central_equidistant(quad_plane)
    with pytest.raises(InputError) as e:
        half_area_identity(ce, quad_plane.U, 0, min_convex_c(ce) - F(1, 8))
    assert str(e.value) == "half-polygon areas need a convex equidistant"


def _ref_offset(points, d, c):
    """X_i + c D_i, one Vec2 operation at a time."""
    return [p + d.vertices[i] * c for i, p in enumerate(points)]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([None, 1e-3, 1.0, 1e3]),
       st.sampled_from([F(1, 2), 1, F(-3, 7), 0, F(5, 3)]))
@example(14, 1e3, F(-3, 7))  # planes whose float copies at 1e3 build
@example(21, 1e3, F(5, 3))
def test_offset_points_is_the_vertex_offset_bitwise(seed, scale, c):
    # every X + cD of the package (equidistant, the frame of
    # EquidistantFrame, convex_parent_of_m and both polygons of
    # width_family) is one framed offset; its points have the repr of the
    # vertex offset on exact planes and on float copies, and the cross terms
    # of a frame are det(p_j, p_{j+1}) of its numerators in every slot
    plane = random_cw_plane(random.Random(seed))
    try:
        if scale is not None:
            plane = float_copy(plane, scale)
        ce = central_equidistant(plane)
        trace = iterate_involutes(plane, max_steps=2)
    except GeometryError:
        return  # the absolute float tolerance fails at 1e3 (ROADMAP direction 1)
    u, v, be = plane.U, plane.V, plane.backend
    cc = be.convert(c)
    want = repr(_ref_equidistant(ce, u, cc))
    assert repr(equidistant(ce, u, c).vertices) == want
    assert repr(EquidistantFrame(ce, u, c).frame.points()) == want
    parent_c = max(-a for a in ce.alphas) + 1
    assert repr(convex_parent_of_m(ce.M, u).points()) == repr(_ref_equidistant(ce, u, parent_c))
    for k, step in enumerate(trace.steps):
        p, q = width_family(trace, plane, k, c, c)
        assert repr(p.vertices) == repr(_ref_offset(step.M, u, cc))
        assert repr(q.vertices) == repr(_ref_offset(step.N, v, cc))
    for pts in (ce.M, equidistant(ce, u, c).vertices, u.vertices, trace.final.N):
        xs, ys, den = integer_frame(pts)
        q = [Vec2(x, y) for x, y in zip(xs, ys)]
        m = len(q)
        assert cross_terms(xs, ys) == [det(q[j], q[(j + 1) % m]) for j in range(m)]
        if be.exact:
            assert [from_frame(t, den * den) for t in cross_terms(xs, ys)] \
                == [det(pts[j], pts[(j + 1) % m]) for j in range(m)]
