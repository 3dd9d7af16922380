"""Involute iteration: convergence, ledger identities, width families, float backend."""
import math
import random
from fractions import Fraction as F

import pytest

from cwpoly import (
    ConvexPolygon,
    InputError,
    PairedPolygon,
    Vec2,
    build_plane,
    central_equidistant,
    check_nesting,
    check_trace,
    iterate_involutes,
    signed_area,
    width_family,
)
from cwpoly.backend import get_backend

from conftest import fuzz_planes


def test_symmetric_converges_immediately(symmetric_plane):
    trace = iterate_involutes(symmetric_plane, max_steps=4)
    assert trace.converged and len(trace.steps) == 1
    assert trace.stop_reason == "tol"
    ce = central_equidistant(symmetric_plane)
    assert trace.O == ce.M[0]
    assert trace.radius == 0.0


def test_triangle_central_point_golden(triangle_plane):
    # 64 exact steps pin the central point; the centroid is (1/3, 1/3) at
    # every recorded step and the final diameter certifies the enclosure
    trace = iterate_involutes(triangle_plane, max_steps=64, tol=1e-300)
    assert not trace.converged  # tol unreachable: ran all 64 steps
    assert len(trace.steps) == 65
    assert trace.O == Vec2(F(1, 3), F(1, 3))
    assert trace.radius < 1e-38


def test_triangle_diameter_quarters(triangle_plane):
    trace = iterate_involutes(triangle_plane, max_steps=8, tol=1e-300)
    diams = [s.diam_m for s in trace.steps]
    for a, b in zip(diams, diams[1:]):
        assert b == pytest.approx(a / 4, rel=1e-9)


def test_trace_ledger_fuzz_exact():
    for plane in fuzz_planes(401, 15):
        trace = iterate_involutes(plane, max_steps=10, tol=1e-300)
        assert all(c.ok for c in check_trace(trace, plane)), plane.P.vertices


def test_trace_gap_offsets():
    # gap_mn at step k is SA(M(k-1)) - SA(N(k)); gap_nm is SA(N(k)) - SA(M(k))
    for plane in fuzz_planes(402, 10):
        trace = iterate_involutes(plane, max_steps=6, tol=1e-300)
        for prev, cur in zip(trace.steps, trace.steps[1:]):
            assert signed_area(prev.M) - signed_area(cur.N) == cur.gap_mn
            assert signed_area(cur.N) - signed_area(cur.M) == cur.gap_nm


def test_trace_sumsquares_slack_is_residual():
    for plane in fuzz_planes(403, 10):
        trace = iterate_involutes(plane, max_steps=8, tol=1e-300)
        assert trace.sa0 - trace.sumsquares == signed_area(trace.steps[-1].M)


def test_nested_regions_fuzz():
    for plane in fuzz_planes(404, 8, n_max=6):
        trace = iterate_involutes(plane, max_steps=4, tol=1e-300)
        assert all(c.ok for c in check_nesting(trace, plane, max_steps=3))


def test_evolute_recorded_as_step_zero(triangle_plane):
    trace = iterate_involutes(triangle_plane, max_steps=2)
    assert [(p.x, p.y) for p in trace.steps[0].N] == \
        [(F(0), F(1)), (F(1), F(0)), (F(0), F(0))] * 2
    assert trace.steps[0].sa_n == 1  # SA of the evolute triangle


def test_width_family_triangle_k0(triangle_plane):
    trace = iterate_involutes(triangle_plane, max_steps=2)
    p0, q0 = width_family(trace, triangle_plane, 0, F(1, 2), F(1, 2))
    assert p0.vertices == triangle_plane.P.vertices


def test_width_family_symmetric_is_ball(symmetric_plane):
    trace = iterate_involutes(symmetric_plane, max_steps=2)
    c = F(3, 2)
    p0, _ = width_family(trace, symmetric_plane, 0, c, c)
    z = trace.O
    assert p0.vertices == [z + u * c for u in symmetric_plane.U.vertices]


def test_width_family_distance_decreases():
    for plane in fuzz_planes(405, 6):
        trace = iterate_involutes(plane, max_steps=16, tol=1e-300)
        o = trace.O
        c = F(1)

        def dist_at(k):
            pk, _ = width_family(trace, plane, k, c, c)
            return max(
                float((pk.vertices[i].x - (o.x + c * plane.U.vertices[i].x)) ** 2
                      + (pk.vertices[i].y - (o.y + c * plane.U.vertices[i].y)) ** 2)
                for i in range(2 * plane.n))

        d8, d16 = dist_at(8), dist_at(16)
        assert d16 <= d8 + 1e-30


def test_width_family_out_of_range(triangle_plane):
    trace = iterate_involutes(triangle_plane, max_steps=2)
    with pytest.raises(InputError):
        width_family(trace, triangle_plane, 99, 1, 1)


# --- float path ---------------------------------------------------------------

def _float_plane(points, a=0.5):
    fb = get_backend("float")
    return build_plane(ConvexPolygon.from_points(points, fb), a)


def test_float_matches_rational_trace(triangle_plane):
    # the exact ladder is the reference: same step count, and every M vertex
    # and SA(M) within 1e-12 relative to the initial diameter (squared for SA)
    fb = get_backend("float")
    pairs = [(_float_plane([(0, 0), (1, 0), (0, 1)]), triangle_plane)]
    for plane in fuzz_planes(408, 6):
        paired_f = PairedPolygon(
            [Vec2(float(p.x), float(p.y)) for p in plane.P.vertices], plane.n, fb)
        pairs.append((build_plane(paired_f, float(plane.a)), plane))
    for fplane, rplane in pairs:
        ft = iterate_involutes(fplane, max_steps=12, tol=1e-320)
        rt = iterate_involutes(rplane, max_steps=12, tol=1e-320)
        assert len(ft.steps) == len(rt.steps)
        scale = rt.steps[0].diam_m
        for fs, rs in zip(ft.steps, rt.steps):
            assert fs.sa_m == pytest.approx(float(rs.sa_m), abs=1e-12 * scale ** 2)
            assert fs.diam_m == pytest.approx(rs.diam_m, rel=1e-9, abs=1e-12)
            for fp, rp in zip(fs.M, rs.M):
                assert fp.x == pytest.approx(float(rp.x), abs=1e-12 * scale)
                assert fp.y == pytest.approx(float(rp.y), abs=1e-12 * scale)


def test_float_trace_checks_pass():
    from cwpoly.fuzz import random_cw_plane

    rng = random.Random(406)
    fb = get_backend("float")
    for _ in range(10):
        plane_r = random_cw_plane(rng)
        paired_f = PairedPolygon(
            [Vec2(float(p.x), float(p.y)) for p in plane_r.P.vertices], plane_r.n, fb)
        plane_f = build_plane(paired_f, 0.5)
        trace = iterate_involutes(plane_f, max_steps=2000, tol=1e-9)
        assert trace.converged
        assert all(c.ok for c in check_trace(trace, plane_f))


def test_nonconvergence_reported_not_raised(triangle_plane):
    trace = iterate_involutes(triangle_plane, max_steps=2, tol=1e-300)
    assert not trace.converged
    assert trace.stop_reason == "max_steps"
    assert len(trace.steps) == 3


def test_stop_reason_tol(triangle_plane):
    trace = iterate_involutes(triangle_plane, tol=1e-3)
    assert trace.converged and trace.stop_reason == "tol"
    assert trace.radius < 1e-3 <= trace.steps[-2].diam_m


def test_stop_reason_noise_float():
    # far past convergence float rounding noise grows; the run stops before
    # recording a step that grew the diameter, and the ledger still checks
    plane_r = fuzz_planes(409, 8)[-1]
    fb = get_backend("float")
    paired_f = PairedPolygon(
        [Vec2(float(p.x), float(p.y)) for p in plane_r.P.vertices], plane_r.n, fb)
    plane = build_plane(paired_f, float(plane_r.a))
    trace = iterate_involutes(plane, max_steps=2000, tol=1e-300)
    assert trace.stop_reason == "noise" and not trace.converged
    assert len(trace.steps) < 2001
    assert all(math.isfinite(s.diam_m) and math.isfinite(s.diam_n) for s in trace.steps)
    assert all(c.ok for c in check_trace(trace, plane))


def test_half_period_invariant():
    # M(k) and N(k) repeat after n vertices, so diameters need only the first n
    for plane in fuzz_planes(410, 8):
        n = plane.n
        trace = iterate_involutes(plane, max_steps=8, tol=1e-300)
        assert len(trace.steps) == 9
        for s in trace.steps:
            assert all(s.M[i + n] == s.M[i] and s.N[i + n] == s.N[i] for i in range(n))
