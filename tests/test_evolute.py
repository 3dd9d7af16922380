"""Evolute, involute, signed areas, the area gap, and containment."""
import importlib
import math
import random
from fractions import Fraction as F
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwpoly.verify
from cwpoly import (
    ConvexPolygon,
    IdentityError,
    InputError,
    PairedPolygon,
    RegionTest,
    Vec2,
    build_plane,
    central_equidistant,
    containment_check,
    cusps_of_central,
    det,
    dual_ball,
    dual_involute,
    equidistant,
    evolute,
    evolute_cusps,
    involute,
    is_constant_width,
    point_region_test,
    signed_area,
    signed_area_gap,
    unit_ball,
    vec,
)
from cwpoly.backend import FLOAT, RATIONAL, get_backend
from cwpoly.core import (
    CenteredBall,
    ChordFrame,
    Frame,
    ScalarFrame,
    WindingFrame,
    chord_frame,
    frame_of,
    integer_frame,
    scalar_frame,
)
from cwpoly.cw import _raise_not_parallel, alphas_of, betas_of, ladder_cusps, lambdas_of
from cwpoly.evolute import edge_world_coeffs, involute_points, signed_area_frame
from cwpoly.fuzz import random_cw_plane
from cwpoly.iterate import check_nesting, convex_parent_of_m, iterate_involutes
from cwpoly.verify import run_verify

from conftest import float_copy, fuzz_planes, kgon_plane


def test_evolute_triangle_golden(triangle_plane):
    ev = evolute(triangle_plane.P.vertices, triangle_plane.U, triangle_plane.V)
    assert ev.mus == [F(1), F(0)] * 3
    want = [(F(0), F(1)), (F(1), F(0)), (F(0), F(0))] * 2
    assert [(p.x, p.y) for p in ev.E] == want


def test_evolute_of_ball_is_center(symmetric_plane):
    ev = evolute(symmetric_plane.P.vertices, symmetric_plane.U, symmetric_plane.V)
    assert ev.degenerate
    assert all(p == ev.E[0] for p in ev.E)


def test_evolute_shared_by_equidistants():
    for plane in fuzz_planes(301, 25):
        ce = central_equidistant(plane)
        ev = evolute(plane.P.vertices, plane.U, plane.V)
        for c in (F(1), F(5, 3)):
            pc = equidistant(ce, plane.U, c)
            ev2 = evolute(pc.vertices, plane.U, plane.V)
            assert ev2.E == ev.E


def test_evolute_mu_pair_sums():
    for plane in fuzz_planes(302, 25):
        ce = central_equidistant(plane)
        for c in (plane.a, F(2)):
            pc = equidistant(ce, plane.U, c)
            ev = evolute(pc.vertices, plane.U, plane.V)
            for i in range(plane.n):
                assert ev.mus[i] + ev.mus[i + plane.n] == 2 * c


def test_evolute_without_dual_ball_agrees(quad_plane):
    # mu from lambda / det(U_i, U_{i+1}) equals mu solved from the ball alone,
    # P_{i+1} - P_i = mu_i (U_{i+1} - U_i)
    pts, u = quad_plane.P.vertices, quad_plane.U
    ev = evolute(pts, u, quad_plane.V)
    mus = alphas_of(pts, u).values()
    assert ev.mus == mus
    assert ev.E == [pts[i] - u.vertices[i] * mus[i] for i in range(len(pts))]


def test_involute_triangle_golden(triangle_plane):
    ce = central_equidistant(triangle_plane)
    inv = involute(ce, triangle_plane.V)
    want = [(F(1, 4), F(1, 2)), (F(1, 2), F(1, 4)), (F(1, 4), F(1, 4))] * 2
    assert [(p.x, p.y) for p in inv.N] == want


def test_involute_symmetric_is_point(symmetric_plane):
    ce = central_equidistant(symmetric_plane)
    inv = involute(ce, symmetric_plane.V)
    assert inv.degenerate
    assert all(p == ce.M[0] for p in inv.N)


def test_involute_constant_dual_width_structure():
    # zero diagonals and edges parallel to the dual ball's edges
    for plane in fuzz_planes(303, 30):
        ce = central_equidistant(plane)
        inv = involute(ce, plane.V)
        m = 2 * plane.n
        vv = plane.V.vertices
        for i in range(plane.n):
            assert inv.N[i] == inv.N[i + plane.n]
        for i in range(m):
            step = inv.N[i] - inv.N[(i - 1) % m]
            dv = vv[i] - vv[(i - 1) % m]
            assert det(step, dv) == 0
            assert step == dv * ce.betas[i]


def test_involute_of_translate_on_general_denominator():
    # a translate of M has the same alphas, so the same betas; its frame's
    # denominator no longer divides den(beta) den(V), so the one common
    # denominator of involute_points, lcm(den(X), den(beta) den(V)), is
    # larger than den(beta) den(V)
    plane = random_cw_plane(random.Random(1), 3, 5)
    ce = central_equidistant(plane)
    shift = Vec2(F(1, 7), F(2, 7))
    moved = [p + shift for p in ce.M]
    assert alphas_of(moved, plane.U).values() == ce.alphas
    xden = integer_frame(moved)[2]
    assert (scalar_frame(ce.betas)[1] * plane.V.frame[2]) % xden != 0
    got = involute_points(moved, ce.betas, plane.V).points()
    vv = plane.V.vertices
    assert got == [moved[i] + vv[i] * ce.betas[i] for i in range(2 * plane.n)]


def test_involute_points_halves_differ():
    # both defining forms agree on every slot, but X is not central: with
    # beta = (1, 0, 1, 0) along the square V, N_2 = (0, -1) and N_0 = (1, 0)
    v = CenteredBall([vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1)])
    x = [vec(0, 0), vec(1, 0), vec(1, -1), vec(0, -1)]
    with pytest.raises(IdentityError, match="involute halves differ at edge 0"):
        involute_points(x, [F(1), F(0), F(1), F(0)], v)


def test_float_evolute_defining_forms_disagree():
    # vertex 1 moved 1e-7 off edge 0: the lambda solve along V_0 (|V| about
    # 5e-4) passes its 1e-9 parallel test, while the two forms of E_0 differ
    # by about 1e-7.  A rational evolute cannot fail here: V_i is built
    # parallel to U_{i+1} - U_i, so the exact lambda solve gives mu_i exactly
    plane = float_copy(kgon_plane(7), 1.0)
    pts = list(plane.P.vertices)
    e = pts[1] - pts[0]
    pts[1] = pts[1] + Vec2(-e.y, e.x) * (1e-7 / math.hypot(e.x, e.y))
    with pytest.raises(IdentityError, match="evolute defining forms disagree at edge 0"):
        evolute(pts, plane.U, plane.V)


def test_rational_evolute_defining_forms_disagree(quad_plane):
    # a V that is not U's dual: 2V has V's directions, so every lambda solve
    # passes, but it halves each lambda and so each mu, and the two exact
    # forms of E_0 differ
    u, (vx, vy, vden) = quad_plane.U, quad_plane.V.frame
    v2 = CenteredBall(Frame([2 * x for x in vx], [2 * y for y in vy], vden))
    with pytest.raises(IdentityError, match="evolute defining forms disagree at edge 0"):
        evolute(quad_plane.P.frame, u, v2)


def test_float_involute_halves_equal():
    # the float involute repeats exactly after n vertices, as the rational
    # one does; on these planes rounding made the two halves differ
    planes = fuzz_planes(311, 6)
    for plane in (_scaled_float_plane(planes[0], 1e-3), _scaled_float_plane(planes[4], 1e-3)):
        n = plane.n
        inv = involute(central_equidistant(plane), plane.V)
        assert inv.N[n:] == inv.N[:n]
        back = dual_involute(inv.N, plane.U, plane.V)[0].points()
        assert back[n:] == back[:n]


# --- the half-period rule ------------------------------------------------------
# Oracles that solve and check all 2n slots, with no half-period rule.

def _full_alphas(points, u):
    xs, ys, den = f = integer_frame(points)
    al = u.edge_coeffs(map(sub, xs[1:] + xs[:1], xs), map(sub, ys[1:] + ys[:1], ys), den)
    _raise_not_parallel(al.nums, f, u, edges=True)
    return al


def _full_betas(alphas, u):
    nums, den = scalar_frame(alphas)
    dets, dden = u.edge_det_frame
    terms = [a * d for a, d in zip(nums, dets)]
    m, n = len(terms), len(terms) // 2
    cs = [0]
    for t in range(m + n - 1):
        cs.append(cs[-1] + terms[t % m])
    sums = [cs[i + n] - cs[i] for i in range(m)]
    scale = 2 * den * dden
    if isinstance(scale, float):
        return ScalarFrame([s / scale for s in sums], 1.0)
    return ScalarFrame(sums, scale)


def _full_involute(points, betas, d):
    eq = d.backend.eq
    xs, ys, xden = x = integer_frame(points)
    bs, bden = scalar_frame(betas)
    m = len(xs)
    n = m // 2
    dx, dy, dden = d.frame
    den = xden
    if x.exact:
        den = math.lcm(xden, bden * dden)
        sx, sb = den // xden, den // (bden * dden)
        xs, ys, bs = [v * sx for v in xs], [v * sx for v in ys], [b * sb for b in bs]
    nx, ny = [], []
    for i in range(m):
        j = (i + 1) % m
        n1x, n1y = xs[i] + dx[i] * bs[i], ys[i] + dy[i] * bs[i]
        n2x, n2y = xs[j] + dx[i] * bs[j], ys[j] + dy[i] * bs[j]
        if not (eq(n1x, n2x) and eq(n1y, n2y)):
            raise IdentityError(f"involute defining forms disagree at edge {i}")
        if i >= n and not (eq(n1x, nx[i - n]) and eq(n1y, ny[i - n])):
            raise IdentityError(f"involute halves differ at edge {i - n}")
        nx.append(n1x)
        ny.append(n1y)
    nx, ny, den = Frame(nx[:n], ny[:n], den).reduced()
    return Frame(nx * 2, ny * 2, den)


def _full_dual_involute(points, u, v):
    be = _full_betas(_full_alphas(points, v), v)
    mx, my, mden = _full_involute(points, be, u.second_dual)
    return Frame(mx[-1:] + mx[:-1], my[-1:] + my[:-1], mden), -be


def _full_signed_area(points):
    """-A(X, X) summed over all 2n slots, over 2 den^2; on an exact doubled
    frame the kernel's sum over n slots, over den^2, is half of it."""
    xs, ys, den = f = integer_frame(points)
    acc = 0
    for x, y, a, b, c, d in zip(xs, ys, xs, xs[1:] + xs[:1], ys, ys[1:] + ys[:1]):
        acc = acc + (x * (d - c) - y * (b - a))
    if f.exact and f.is_doubled:
        return ScalarFrame([-acc // 2], den * den)
    return ScalarFrame([-acc], 2 * den * den)


def _outcome(fn, *args):
    """repr of the result, which tells -0.0 from 0.0, or the error raised."""
    try:
        return repr(fn(*args))
    except (IdentityError, InputError) as e:
        return f"{type(e).__name__}: {e}"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_half_period_kernels_match_full_period(seed, mirrored):
    # on every frame of the ladder, exact and as float copies at scales 1e-3
    # and 1, the kernels on n slots give the 2n-slot results bit for bit;
    # a mirrored input turns the plane's orientation over
    plane = random_cw_plane(random.Random(seed), n_min=3, n_max=7)
    if mirrored:
        plane = build_plane(ConvexPolygon.from_points([(-p.x, p.y) for p in plane.P.vertices]))
    for p in (plane, float_copy(plane, 1e-3), float_copy(plane, 1.0)):
        u, v, w = p.U, p.V, p.W
        assert u.is_symmetric and v.is_symmetric and w.is_symmetric
        trace = iterate_involutes(p, max_steps=3, tol=1e-300)
        for step in trace.steps:
            m_frame, n_frame = frame_of(step, "M"), frame_of(step, "N")
            assert m_frame.is_doubled and n_frame.is_doubled
            al = alphas_of(m_frame, u)
            assert repr(al) == repr(_full_alphas(m_frame, u))
            assert repr(alphas_of(n_frame, v)) == repr(_full_alphas(n_frame, v))
            be = betas_of(al, u)
            assert repr(be) == repr(_full_betas(al, u))
            assert repr(involute_points(m_frame, be, v)) == repr(_full_involute(m_frame, be, v))
            assert _outcome(dual_involute, n_frame, u, v) == \
                _outcome(_full_dual_involute, n_frame, u, v)
            for f in (m_frame, n_frame):
                assert repr(signed_area_frame(f)) == repr(_full_signed_area(f))


def test_half_period_involute_rejects_a_beta_that_is_not_antiperiodic():
    # a doubled X whose beta has one second-half entry changed: the halves
    # of N differ at that slot, and the check of beta says so first
    plane = kgon_plane(7)
    ce = central_equidistant(plane)
    m_frame, (nums, den) = frame_of(ce, "M"), frame_of(ce, "betas")
    n = plane.n
    for i in range(n):
        bad = list(nums)
        bad[n + i] += 1
        with pytest.raises(IdentityError, match=f"^involute halves differ at edge {i}$"):
            involute_points(m_frame, ScalarFrame(bad, den), plane.V)
        assert _outcome(_full_involute, m_frame, ScalarFrame(bad, den), plane.V) \
            .startswith("IdentityError: involute")


def test_asymmetric_ball_keeps_the_full_period():
    # a ball that is not exactly centrally symmetric (one vertex of its second
    # half moved, or the whole ball translated) gets the 2n-slot solve and
    # checks: the same result or the same error as the oracles; so does an
    # alpha ladder that is not antiperiodic
    for plane in fuzz_planes(913, 6) + [kgon_plane(9)]:
        n = plane.n
        ce = central_equidistant(plane)
        m_frame, betas = frame_of(ce, "M"), frame_of(ce, "betas")
        nums, den = frame_of(ce, "alphas")
        skewed = ScalarFrame(nums[:-1] + [nums[-1] + 1], den)
        assert repr(betas_of(skewed, plane.U)) == repr(_full_betas(skewed, plane.U))
        n_frame = involute_points(m_frame, betas, plane.V)
        balls = []
        for ball in (plane.U, plane.V):
            xs, ys, den = ball.frame
            moved = xs[:n + 1] + [xs[n + 1] + 1] + xs[n + 2:]
            balls.append(CenteredBall(Frame(moved, ys, den)))
            balls.append(CenteredBall(Frame([x + den for x in xs], ys, den)))
        for ball in balls:
            assert not ball.is_symmetric
            al = ScalarFrame(nums, den)
            assert repr(betas_of(al, ball)) == repr(_full_betas(al, ball))
            for f in (m_frame, n_frame):
                assert _outcome(alphas_of, f, ball) == _outcome(_full_alphas, f, ball)
                assert _outcome(involute_points, f, betas, ball) == \
                    _outcome(_full_involute, f, betas, ball)
                assert _outcome(dual_involute, f, ball, plane.V) == \
                    _outcome(_full_dual_involute, f, ball, plane.V)
                assert _outcome(dual_involute, f, plane.U, ball) == \
                    _outcome(_full_dual_involute, f, plane.U, ball)


def test_involute_evolute_roundtrip():
    for plane in fuzz_planes(304, 30):
        ce = central_equidistant(plane)
        inv = involute(ce, plane.V)
        # the edge-world evolute is the (V, W) evolute, one slot later
        back = evolute(inv.N, plane.V, plane.W).E
        assert back[-1:] + back[:-1] == ce.M
        ev = evolute(plane.P.vertices, plane.U, plane.V)
        back = dual_involute(ev.E, plane.U, plane.V)[0].points()
        assert back == ce.M
        # edge coefficients of the involute are the betas of M
        assert edge_world_coeffs(inv.N, plane.V).values() == ce.betas


def test_signed_area_triangle_values(triangle_plane):
    ce = central_equidistant(triangle_plane)
    inv = involute(ce, triangle_plane.V)
    assert signed_area(ce.M) == F(1, 4)
    assert signed_area(inv.N) == F(1, 16)
    assert signed_area([vec(2, 3)] * 6) == 0


def test_signed_area_gap_triangle(triangle_plane):
    ce = central_equidistant(triangle_plane)
    inv = involute(ce, triangle_plane.V)
    gap = signed_area_gap(ce.betas, triangle_plane.V)
    assert gap == F(3, 16)
    assert signed_area(ce.M) - signed_area(inv.N) == gap


def test_signed_area_gap_zero_for_symmetric(symmetric_plane):
    ce = central_equidistant(symmetric_plane)
    inv = involute(ce, symmetric_plane.V)
    assert signed_area_gap(ce.betas, symmetric_plane.V) == 0
    assert signed_area(ce.M) == signed_area(inv.N) == 0


def test_signed_area_gap_fuzz_exact():
    for plane in fuzz_planes(305, 40):
        ce = central_equidistant(plane)
        inv = involute(ce, plane.V)
        sa_m, sa_n = signed_area(ce.M), signed_area(inv.N)
        assert sa_m >= sa_n >= 0
        assert sa_m - sa_n == signed_area_gap(ce.betas, plane.V)


def test_dual_area_gap_fuzz_exact():
    # the mirrored identity: SA(N) - SA(Inv(N)) = sum mu^2 det(U_i, U_{i+1})
    for plane in fuzz_planes(306, 30):
        ce = central_equidistant(plane)
        inv = involute(ce, plane.V)
        back, mus = dual_involute(inv.N, plane.U, plane.V)
        assert signed_area(inv.N) - signed_area(back) == signed_area_gap(mus, plane.W)


def test_containment_triangle(triangle_plane):
    ce = central_equidistant(triangle_plane)
    inv = involute(ce, triangle_plane.V)
    res = containment_check(inv.N, triangle_plane.P, samples=8)
    assert res.contained


def test_containment_symmetric_point(symmetric_plane):
    ce = central_equidistant(symmetric_plane)
    inv = involute(ce, symmetric_plane.V)
    res = containment_check(inv.N, symmetric_plane.P, samples=2)
    assert res.contained


def test_containment_fuzz():
    for plane in fuzz_planes(307, 25):
        ce = central_equidistant(plane)
        inv = involute(ce, plane.V)
        parent = convex_parent_of_m(ce.M, plane.U)
        res = containment_check(inv.N, parent, samples=6)
        assert res.contained, plane.P.vertices


def test_containment_samples_a_doubled_curve_once(monkeypatch):
    # N is doubled, N_{i+n} = N_i: its second half repeats the first half's
    # segments, so containment samples them once, with the same result
    module = importlib.import_module("cwpoly.evolute")  # the package exports evolute()
    calls = []
    real = module._sample

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, "_sample", counting)
    for plane in [kgon_plane(7)] + fuzz_planes(313, 4):
        ce = central_equidistant(plane)
        inv = involute(ce, plane.V)
        parent = convex_parent_of_m(ce.M, plane.U)
        half = inv.N[:plane.n]
        calls.clear()
        res = containment_check(inv.N, parent, samples=4)
        doubled_calls = len(calls)
        calls.clear()
        want = containment_check(half, parent, samples=4)
        assert doubled_calls == len(calls) == plane.n * 6  # t = 0, 1/5 .. 4/5 and 1/2
        assert res == want
        # a curve that is not doubled samples every segment
        calls.clear()
        containment_check(inv.N[:-1], parent, samples=4)
        assert len(calls) == (2 * plane.n - 1) * 6


def test_containment_grid_is_the_sorted_fraction_grid(monkeypatch):
    # the sample steps p/L of one segment come in the order, and with the
    # de-duplication, of sorting the Fractions p/(samples + 1) and 1/2
    module = importlib.import_module("cwpoly.evolute")
    calls = []
    real = module._sample
    monkeypatch.setattr(module, "_sample", lambda *args: calls.append(args[2:]) or real(*args))
    segment = [vec(0, 0), vec(1, 0)]
    for samples in range(21):
        grid = {F(p, samples + 1): (p, samples + 1) for p in range(1, samples + 1)}
        grid.setdefault(F(1, 2), (1, 2))
        calls.clear()
        containment_check(segment, [vec(-1, -1), vec(2, -1), vec(2, 1), vec(-1, 1)],
                          samples=samples)
        # the open two-point list is closed: segment 0 and then its way back
        steps = [(0, 1)] + [grid[t] for t in sorted(grid)]
        assert calls == steps * 2


def test_containment_detects_outside_points(triangle_plane):
    probe = [vec(2, 2)] * 6
    res = containment_check(probe, triangle_plane.P, samples=0)
    assert not res.contained and res.witnesses


def test_containment_rejects_negative_samples(triangle_plane):
    inv = involute(central_equidistant(triangle_plane), triangle_plane.V)
    with pytest.raises(InputError, match="samples"):
        containment_check(inv.N, triangle_plane.P, samples=-1)


def _reference_containment(curve, parent, samples):
    """containment_check written plainly: each sample a + (b - a) t is built
    as a Vec2, deduplicated on its coordinate pair and tested on its own
    with point_region_test.  A float curve is sampled exactly on its
    vertices' rational values, and a sample of it that tests exterior is
    retested at t + (1/2 - t) / 10^7 on its segment; the minimum chord
    count is taken after that retest."""
    fracs = sorted({F(1, 2)} | {F(t, samples + 1) for t in range(1, samples + 1)})
    retest = isinstance(curve[0].x, float)
    curve = [vec(p.x, p.y) for p in curve]
    seen, witnesses, tested, min_chords = set(), [], 0, None
    m = len(curve)
    for i in range(m):
        a, b = curve[i], curve[(i + 1) % m]
        for t in [F(0)] if a == b else [F(0)] + fracs:
            x = a + (b - a) * t
            if (x.x, x.y) in seen:
                continue
            seen.add((x.x, x.y))
            tested += 1
            res = point_region_test(x, parent)
            if res.exterior and retest:
                res = point_region_test(a + (b - a) * (t + (F(1, 2) - t) / 10**7), parent)
            if res.chords is not None:
                min_chords = res.chords if min_chords is None else min(min_chords, res.chords)
            if res.exterior:
                witnesses.append(x)
    return not witnesses, tested, min_chords, witnesses


def _scaled_float_plane(plane, scale):
    fb = get_backend("float")
    paired = PairedPolygon([vec(float(p.x) * scale, float(p.y) * scale, fb)
                            for p in plane.P.vertices])
    return build_plane(paired, float(plane.a) * scale)


def _pushed_out(points, center):
    """Every other vertex moved to three times its distance from center."""
    return [p if i % 2 else center + (p - center) * 3 for i, p in enumerate(points)]


def test_containment_matches_reference():
    # the framed containment check against the sample-by-sample reference:
    # exact fuzz planes, their float copies at two scales, the rounded 7-
    # and 11-gons, and curves pushed partly outside the region
    exact = fuzz_planes(311, 6) + [kgon_plane(7), kgon_plane(11)]
    planes = exact + [_scaled_float_plane(p, s) for p in exact[:4] for s in (1e-3, 1.0)]
    outside = 0
    for plane in planes:
        ce = central_equidistant(plane)
        inv = involute(ce, plane.V)
        parent = convex_parent_of_m(ce.M, plane.U)
        center = ce.M[0] + (ce.M[plane.n] - ce.M[0]) * F(1, 2)
        for curve in (inv.N, _pushed_out(inv.N, center)):
            res = containment_check(curve, parent, samples=16)
            want = _reference_containment(curve, parent, 16)
            assert (res.contained, res.tested, res.min_chords, res.witnesses) == want
            assert all(type(w.x) is F for w in res.witnesses)
            outside += bool(res.witnesses)
    assert outside >= len(planes) // 2


def _winding_probes(q, n, rng):
    """Points of the paired boundary q where the winding rule has a case of
    its own: M's vertices and edge points, points just off M's edges, the
    ends and midpoint of each S_i, points on the lines of M's edges and of
    the S_i past their ends, the crossings of M's edge lines, the
    boundary's vertices and edge midpoints, points outside it, and generic
    points inside it."""
    m = 2 * n
    mid = [(q[i] + q[i + n]) * F(1, 2) for i in range(n)]
    pts = []
    for i in range(n):
        a, b = mid[i], mid[(i + 1) % n]
        sa, sb = (q[i] + q[(i + n + 1) % m]) * F(1, 2), (q[i + 1] + q[i + n]) * F(1, 2)
        pts += [a, a + (b - a) * F(rng.randint(1, 9), 10), sa, sb, (sa + sb) * F(1, 2)]
        # just off either side of M's edge, where the winding numbers differ by 1
        off = (sb - sa) * F(1, 10 ** 9)
        pts += [(a + b) * F(1, 2) + Vec2(-off.y, off.x) * e for e in (1, -1)]
        for t in (F(-1, 2), F(3, 2), F(-3), F(4)):
            pts += [a + (b - a) * t, sa + (sb - sa) * t]
        for j in range(i + 2, n):
            c, d = mid[j], mid[(j + 1) % n]
            den = det(b - a, d - c)
            if den:
                pts.append(a + (b - a) * (det(c - a, d - c) / den))
    for j in range(m):
        pts += [q[j], (q[j] + q[(j + 1) % m]) * F(1, 2), q[j] * 2 - mid[j % n]]
    for _ in range(3 * n):
        i, j, k = rng.randrange(m), rng.randrange(m), rng.randrange(n)
        u, v = F(rng.randint(0, 20), 20), F(rng.randint(0, 20), 20)
        pts.append(q[i] + (q[j] - q[i]) * u + (mid[k] - q[i]) * v * (1 - u))
    return pts


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans(), st.booleans(),
       st.fractions(F(1, 16), 2, max_denominator=16), st.randoms(use_true_random=False))
def test_winding_frame_matches_chord_frame(seed, edge_world, clockwise, extra, rng):
    # the O(m) winding rule against the O(m^2) edge-pair count, on the
    # convex parents M + cU and N + cV of an exact plane, either way round,
    # at every kind of point the rule treats apart
    plane = random_cw_plane(random.Random(seed), n_min=3, n_max=8)
    ce = central_equidistant(plane)
    curve, ball = (involute(ce, plane.V).N, plane.V) if edge_world else (ce.M, plane.U)
    c = max(abs(a) for a in alphas_of(curve, ball).values()) + extra
    q = [p + d * c for p, d in zip(curve, ball.vertices)][::-1 if clockwise else 1]
    oracle, frame = ChordFrame(q), chord_frame(q)
    assert isinstance(frame, WindingFrame)
    kinds = set()
    for x in _winding_probes(q, plane.n, rng):
        (cx,), (cy,), s = integer_frame([x])
        args = 2 * frame.den * cx, 2 * frame.den * cy, s
        want = oracle.count(*args)
        assert frame.count(*args) == want, x
        kinds.add(None if want.overlap else min(want.chords, 3))
    assert kinds == ({None, 0, 1} if ce.degenerate else {None, 0, 1, 3})


def _closed(edges):
    pts = [vec(0, 0)]
    for dx, dy in edges[:-1]:
        pts.append(pts[-1] + vec(dx, dy))
    return pts


def test_winding_frame_needs_a_strictly_convex_paired_boundary():
    # a paired hexagon with a vertex in the middle of two of its sides
    # pairs edge 0 with edges 3 and 4, which the S_i of the rule miss; a
    # paired 10-gon that turns left but three times around, and one that
    # turns both ways, are not convex; an odd list and a 4-list on a line
    # are not paired.  All keep the edge-pair scan.
    flat = _closed([(1, 0), (2, 0), (-1, 2), (-2, 0), (-1, 0), (1, -2)])
    assert ChordFrame(flat).count(0, 2) == RegionTest(None, True, False)
    half = [(10, 0), (-3, 10), (-8, -6), (8, -6), (3, 10)]
    star = _closed(half + [(-x, -y) for x, y in half])
    zigzag = _closed([(2, 0), (-1, 1), (1, 1), (-2, 0), (1, -1), (-1, -1)])
    line = _closed([(1, 0), (1, 0), (-1, 0), (-1, 0)])
    for q in (flat, star, zigzag, flat[:5], line):
        assert type(chord_frame(q)) is ChordFrame
    hexagon = _closed([(2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)])
    assert type(chord_frame(hexagon)) is WindingFrame
    assert type(chord_frame(hexagon[::-1])) is WindingFrame


def test_paired_parents_skip_the_edge_pair_scan(monkeypatch):
    # rational containment, in run_verify and in check_nesting, takes the
    # O(m) winding count and never builds the O(m^2) ChordFrame; a float
    # parent whose rounding broke an antiparallel pair still falls back to it
    built = []
    init = ChordFrame.__init__

    def spy(self, boundary):
        built.append(len(boundary))
        init(self, boundary)

    monkeypatch.setattr(ChordFrame, "__init__", spy)
    plane = kgon_plane(7)
    report = run_verify(plane, samples=2, iterate_steps=2)
    assert [c.ok for c in report.checks if c.check_id == "containment.involute_in_central"] == [True]
    trace = iterate_involutes(plane, max_steps=2)
    nesting = check_nesting(trace, plane)
    assert nesting and all(c.ok for c in nesting)
    assert built == []
    fplane = float_copy(plane, 1e-3)
    ce = central_equidistant(fplane)
    parent = convex_parent_of_m(ce.M, fplane.U)
    assert containment_check(involute(ce, fplane.V).N, parent, samples=0).contained
    assert built == [len(parent)]


def test_evolute_cusps_triangle(triangle_plane):
    ev = evolute(triangle_plane.P.vertices, triangle_plane.U, triangle_plane.V)
    assert evolute_cusps(ev) == [0, 1, 2]


def test_evolute_cusps_ball_degenerate(symmetric_plane):
    ev = evolute(symmetric_plane.P.vertices, symmetric_plane.U, symmetric_plane.V)
    assert evolute_cusps(ev) is None


def test_evolute_cusps_odd_and_dominate():
    for plane in fuzz_planes(308, 60):
        ce = central_equidistant(plane)
        ev = evolute(plane.P.vertices, plane.U, plane.V)
        ec = evolute_cusps(ev)
        mc = cusps_of_central(ce)
        if ec is None or mc is None:
            continue
        assert len(ec) % 2 == 1
        assert len(ec) >= len(mc)


def test_evolute_cusps_are_alpha_sign_changes_on_v():
    # the two-world identity: the evolute's cusps are the cusp rule of M on
    # the ball pair (V, W), the sign changes of alphas_of(E, V)
    for plane in fuzz_planes(308, 300, n_min=3, n_max=12):
        ev = evolute(plane.P.vertices, plane.U, plane.V)
        if ev.degenerate:
            continue
        alphas = alphas_of(ev.E, plane.V).values()
        assert evolute_cusps(ev) == ladder_cusps(alphas, plane.n, plane.backend)


def test_evolute_cusps_match_halfplane_test_when_distinct():
    # ladder form vs the literal same-side test against the tangent parallel
    for plane in fuzz_planes(309, 40):
        ev = evolute(plane.P.vertices, plane.U, plane.V)
        if ev.degenerate:
            continue
        m = 2 * plane.n
        literal = set()
        usable = True
        for i in range(plane.n):
            if ev.E[(i - 1) % m] == ev.E[i] or ev.E[(i + 1) % m] == ev.E[i]:
                usable = False
                break
            d = plane.P.vertices[(i + 1) % m] - plane.P.vertices[i]
            if d == Vec2(0, 0):
                d = plane.U.vertices[(i + 1) % m] - plane.U.vertices[i]
            s1 = det(d, ev.E[(i - 1) % m] - ev.E[i])
            s2 = det(d, ev.E[(i + 1) % m] - ev.E[i])
            if (s1 > 0 and s2 > 0) or (s1 < 0 and s2 < 0):
                literal.add(i)
        if usable:
            assert set(evolute_cusps(ev)) == literal


def test_backend_argument_must_be_the_balls(quad_plane):
    # evolute and convex_parent_of_m compute on the ball's backend; the
    # trailing backend they still accept is None or that one, and any other
    # backend raises InputError
    fplane = float_copy(quad_plane, 1.0)
    for plane, other in ((quad_plane, FLOAT), (fplane, RATIONAL)):
        pts, u, v = plane.P.vertices, plane.U, plane.V
        m = central_equidistant(plane).M
        text = f"backend {other.name} is not the ball's ({u.backend.name})"
        with pytest.raises(InputError) as e:
            evolute(pts, u, v, other)
        assert str(e.value) == text
        with pytest.raises(InputError) as e:
            convex_parent_of_m(m, u, other)
        assert str(e.value) == text
        ev = evolute(pts, u, v)
        assert ev == evolute(pts, u, v, u.backend) and ev.backend is u.backend
        assert convex_parent_of_m(m, u) == convex_parent_of_m(m, u, u.backend)


def _ref_evolute(points, u, v):
    # the evolute by its Vec2 formulas: mu_i = lambda_i / det(U_i, U_{i+1}),
    # E_i = P_i - mu_i U_i, checked against P_{i+1} - mu_i U_{i+1}
    same = u.backend.same_point
    m = len(points)
    uv = u.vertices
    lam = lambdas_of(list(points) + [points[0]], v).values()
    mus = [t / d for t, d in zip(lam, u.divisor_frame.values())]
    out = []
    for i in range(m):
        e1 = points[i] - uv[i] * mus[i]
        assert same(e1, points[(i + 1) % m] - uv[(i + 1) % m] * mus[i])
        out.append(e1)
    out = out[:m // 2] * 2
    return out, mus, all(same(p, out[0]) for p in out[1:])


def _evolute_cases():
    # P, its c = 1 equidistant and the involute N over (V, W), exact and as
    # float copies at scales 1e-3 and 1
    for plane in fuzz_planes(912, 30) + [kgon_plane(k) for k in (7, 9, 11, 17)]:
        for p in (plane, float_copy(plane, 1e-3), float_copy(plane, 1.0)):
            ce = central_equidistant(p)
            yield p.P.vertices, p.U, p.V
            yield equidistant(ce, p.U, 1).vertices, p.U, p.V
            yield involute(ce, p.V).N, p.V, p.W


def test_framed_evolute_matches_vec2_reference():
    cases = 0
    for pts, u, v in _evolute_cases():
        ev = evolute(pts, u, v)
        E, mus, degenerate = _ref_evolute(pts, u, v)
        assert (repr(ev.E), repr(ev.mus), ev.degenerate) == (repr(E), repr(mus), degenerate)
        assert repr(evolute(integer_frame(pts), u, v)) == repr(ev)
        cases += 1
    assert cases == 34 * 3 * 3


def test_rational_evolute_and_dual_ball_do_no_vec2_arithmetic(monkeypatch):
    # the evolute and the dual ball run on integer frames: no Vec2 -, * or /
    # in evolute, dual_ball, or the evolute calls of run_verify
    calls = []
    inside = []

    def spying(name):
        op = getattr(Vec2, name)

        def spy(*args):
            if inside:
                calls.append(name)
            return op(*args)
        return spy

    for name in ("__sub__", "__mul__", "__rmul__", "__truediv__"):
        monkeypatch.setattr(Vec2, name, spying(name))
    plane = kgon_plane(9)
    inside.append(True)
    ev = evolute(plane.P.vertices, plane.U, plane.V)
    dual_ball(plane.U)
    dual_ball(plane.V)
    inside.clear()
    assert not ev.degenerate and calls == []
    real = cwpoly.verify.evolute
    evolutes = []

    def spied_evolute(*args):
        inside.append(True)
        try:
            return real(*args)
        finally:
            inside.pop()
            evolutes.append(args[0])

    monkeypatch.setattr(cwpoly.verify, "evolute", spied_evolute)
    report = run_verify(plane, samples=2, iterate_steps=2)
    assert report.all_ok
    assert len(evolutes) == 3 and any(isinstance(x, Frame) for x in evolutes)
    assert calls == []
    # the spies do count: the reference formulas use Vec2 arithmetic
    inside.append(True)
    _ref_evolute(plane.P.vertices, plane.U, plane.V)
    assert calls


def test_zero_edge_determinant_is_an_input_error():
    # U_0 and U_1 lie on one line through the origin, det(U_0, U_1) = 0;
    # unit_ball builds such a ball when it is not validated, and
    # build_plane(strict=False) skips validate() but not the division of
    # dual_ball by that determinant
    p =PairedPolygon([vec(1, 0), vec(2, 0), vec(0, 1), vec(-1, 0), vec(-2, 0), vec(0, -1)])
    with pytest.raises(InputError, match=r"^degenerate ball edge at index 0$"):
        build_plane(p, F(1, 2), strict=False)
    # a ball that is only not strictly convex is built, and diagnosed later
    q = PairedPolygon([vec(-2, 1), vec(3, 3), vec(3, -3), vec(-1, -3), vec(0, 3), vec(0, 0)])
    with pytest.raises(InputError, match="not strictly convex"):
        build_plane(q, 1)
    assert not is_constant_width(q, build_plane(q, 1, strict=False).U).ok
    u = unit_ball(p, F(1, 2), validate=False)
    with pytest.raises(InputError, match=r"^degenerate ball edge at index 0$"):
        dual_ball(u, validate=False)
    v = build_plane(ConvexPolygon.from_points([(0, 0), (1, 0), (0, 1)]), F(1, 2)).V
    with pytest.raises(InputError, match=r"^degenerate ball edge at index 0$"):
        evolute([vec(1, 1)] * 6, u, v)
    # an edge not parallel to its V_i is reported first
    with pytest.raises(IdentityError, match="is not parallel"):
        evolute(p.vertices, u, v)


def test_length_mismatch_is_an_input_error(quad_plane):
    plane = quad_plane
    u, v = plane.U, plane.V
    ce = central_equidistant(plane)
    pts = plane.P.vertices
    short = pts[:-1]
    text = "{}: length mismatch ({} {} vs 8 ball vertices)"
    for arg in (short, integer_frame(short), pts + pts[:2]):
        k = len(integer_frame(arg).xs)
        with pytest.raises(InputError) as e:
            evolute(arg, u, v)
        assert str(e.value) == text.format("evolute", k, "points")
        with pytest.raises(InputError) as e:
            involute_points(arg, ce.betas, v)
        assert str(e.value) == text.format("involute_points", k, "points")
        with pytest.raises(InputError) as e:
            dual_involute(arg, u, v)
        assert str(e.value) == text.format("dual_involute", k, "points")
        with pytest.raises(InputError) as e:
            alphas_of(arg, u)
        assert str(e.value) == text.format("alphas_of", k, "points")
    with pytest.raises(InputError) as e:
        involute_points(ce.M, ce.betas[:-1], v)
    assert str(e.value) == text.format("involute_points", 7, "betas")
