"""Involute iteration: convergence, ledger identities, width families, float backend."""
import dataclasses
import functools
import hashlib
import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwpoly import (
    ConvexPolygon,
    GeometryError,
    IdentityError,
    InputError,
    IterationStep,
    PairedPolygon,
    Vec2,
    build_plane,
    central_equidistant,
    check_nesting,
    check_trace,
    iterate,
    iterate_involutes,
    signed_area,
    width_family,
)
from cwpoly.backend import get_backend
from cwpoly.core import Frame, ScalarFrame, frame_of, integer_frame
from cwpoly.cw import alphas_of, betas_of
from cwpoly.evolute import dual_involute, signed_area_gap
from cwpoly.fuzz import random_cw_plane
from cwpoly.iterate import _sci

from conftest import float_copy, fuzz_planes, kgon_plane, ref_diameter_sq


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


@pytest.mark.parametrize("scale", [None, 1.0], ids=["rational", "float"])
def test_ledger_scalars_stay_framed_until_read(quad_plane, scale):
    # each step holds the framed values its ladder computed, and no scalar
    # is built before it is read; the values read are those of the formulas
    # on the stored polygons, bit for bit on floats
    plane = quad_plane if scale is None else float_copy(quad_plane, scale)
    u, v, w = plane.U, plane.V, plane.W
    trace = iterate_involutes(plane, max_steps=4, tol=1e-300)
    names = ("sa_m", "sa_n", "gap_mn", "gap_nm")
    steps = trace.steps
    for name in ("sumsquares", "sa0"):
        frame, value = trace.__dict__["_" + name]
        assert isinstance(frame, ScalarFrame) and value is None
    for step in steps:
        for name in names:
            frame, value = step.__dict__["_" + name]
            if (step.k, name) == (0, "gap_mn"):
                assert (frame, value) == (None, 0)
            else:
                assert isinstance(frame, ScalarFrame) and len(frame.nums) == 1 and value is None
    assert type(steps[0].gap_mn) is int and frame_of(steps[0], "gap_mn") == ScalarFrame([0], 1)
    assert steps[0].gap_nm == steps[0].sa_n - steps[0].sa_m
    for prev, cur in zip(steps, steps[1:]):
        m_prev, n_cur, m_cur = frame_of(prev, "M"), frame_of(cur, "N"), frame_of(cur, "M")
        want = {"sa_m": signed_area(m_cur), "sa_n": signed_area(n_cur),
                "gap_mn": signed_area_gap(betas_of(alphas_of(m_prev, u), u), v),
                "gap_nm": signed_area_gap(dual_involute(n_cur, u, v)[1], w)}
        assert {name: repr(getattr(cur, name)) for name in names} == \
            {name: repr(x) for name, x in want.items()}
        assert all(cur.__dict__["_" + name][0] is frame_of(cur, name) for name in names)
    gaps = [g for s in steps[1:] for g in (s.gap_mn, s.gap_nm)]
    total = 0
    for g in gaps:
        total = total + g
    assert repr(trace.sumsquares) == repr(total)
    assert repr(trace.sa0) == repr(steps[0].sa_m)


def test_sumsquares_of_no_steps_is_zero(symmetric_plane):
    # M(0) is a point, so the run stops before its first step, and the sum
    # of squares is the int 0 it always was
    trace = iterate_involutes(symmetric_plane)
    assert len(trace.steps) == 1 and type(trace.sumsquares) is int and trace.sumsquares == 0


def test_trace_sumsquares_slack_is_residual():
    for plane in fuzz_planes(403, 10):
        trace = iterate_involutes(plane, max_steps=8, tol=1e-300)
        assert trace.sa0 - trace.sumsquares == signed_area(trace.steps[-1].M)


def test_check_trace_catches_scaled_polygon():
    # a stored M(3) or N(3) scaled by 2 breaks the gap identity of step 3
    for plane in fuzz_planes(401, 4):
        trace = iterate_involutes(plane, max_steps=4, tol=1e-300)
        assert all(c.ok for c in check_trace(trace, plane))
        for name, want in (("M", "alpha gap fails at k=3"), ("N", "beta gap fails at k=3")):
            steps = list(trace.steps)
            steps[3] = dataclasses.replace(
                steps[3], **{name: [p * 2 for p in getattr(steps[3], name)]})
            checks = check_trace(dataclasses.replace(trace, steps=steps), plane)
            gaps = next(c for c in checks if c.check_id == "iterate.gap_identities")
            assert not gaps.ok and gaps.detail == want


def _scaled(step, name, s):
    return dataclasses.replace(step, **{name: [p * s for p in getattr(step, name)]})


def _negative_last_m(trace, plane):
    """The last step with M(K) replaced by M' = t M(K) + c U, t = 1/2, whose
    signed area is negative while both gap identities of step K still hold.

    With alpha_i the ladder of M(K), d_i = det(W_{i-1}, W_i) and
    S = sum_{i<n} alpha_i d_i: M' has the alphas t alpha_i + c, and since
    A(M(K), U) = 0 and sum_{i<n} d_i = A(U), SA(N(K)) - SA(M') - gap(M') =
    (1 - t^2) SA(N(K)) - 2 t c S, which is zero at c = (1 - t^2) SA(N(K)) / (2 t S)."""
    from cwpoly.cw import alphas_of

    step = trace.final
    al = alphas_of(step.M, plane.U).values()
    d = plane.W.divisor_frame.values()
    s = sum(al[i] * d[i - 1] for i in range(plane.n))
    t = plane.backend.convert(F(1, 2))
    c = step.sa_n * (1 - t * t) / (2 * t * s)
    return dataclasses.replace(step, M=[m * t + u * c for m, u in zip(step.M, plane.U.vertices)])


def test_check_trace_failure_branches():
    # every failure branch of the ledger check, on traces broken by hand, on
    # exact planes and on their float copies at scale 1
    planes = fuzz_planes(401, 4)
    planes += [float_copy(p, 1.0) for p in planes]
    for plane in planes:
        trace = iterate_involutes(plane, max_steps=4, tol=1e-300)
        good = check_trace(trace, plane)
        assert all(c.ok for c in good)
        good = {c.check_id: (c.ok, c.detail) for c in good}
        sa = [s.sa_m for s in trace.steps]
        diams = [s.diam_m for s in trace.steps]
        neg = _negative_last_m(trace, plane)
        residual = signed_area(neg.M)
        assert residual < 0
        # a gap fails at k = 3: the sum stops at SA(M(0)) - SA(M(2))
        stopped = (False, f"slack={_sci(sa[2])} residual={_sci(sa[4])}")
        cases = [
            # SA(M(2)) times 100 exceeds SA(N(2)): the chain is not monotone
            (2, _scaled(trace.steps[2], "M", 10), {
                "iterate.sa_chain_monotone": (False, "9 signed areas"),
                "iterate.gap_identities": (False, "alpha gap fails at k=2")}),
            (3, _scaled(trace.steps[3], "N", 2), {
                "iterate.gap_identities": (False, "beta gap fails at k=3"),
                "iterate.sumsquares_bound": stopped}),
            (3, _scaled(trace.steps[3], "M", 2), {
                "iterate.gap_identities": (False, "alpha gap fails at k=3"),
                "iterate.sumsquares_bound": stopped}),
            # the gaps hold, so the sum of squares telescopes to SA(M(0)) - SA(M')
            (4, neg, {
                "iterate.sa_chain_monotone": (False, "9 signed areas"),
                "iterate.gap_identities": (False, "sum of squares exceeds SA(M(0)) at k=4"),
                "iterate.sumsquares_bound":
                    (False, f"slack={_sci(residual)} residual={_sci(residual)}"),
                "iterate.diameters_nonincreasing": good["iterate.diameters_nonincreasing"]}),
            (2, dataclasses.replace(trace.steps[2], diam_m=2 * diams[0]), {
                "iterate.sa_chain_monotone": good["iterate.sa_chain_monotone"],
                "iterate.gap_identities": good["iterate.gap_identities"],
                "iterate.sumsquares_bound": good["iterate.sumsquares_bound"],
                "iterate.diameters_nonincreasing":
                    (False, f"first={diams[0]:.3e} last={diams[-1]:.3e}")}),
        ]
        for k, step, want in cases:
            steps = list(trace.steps)
            steps[k] = step
            got = {c.check_id: (c.ok, c.detail)
                   for c in check_trace(dataclasses.replace(trace, steps=steps), plane)}
            assert list(got) == list(good)
            assert {i: got[i] for i in want} == want, (plane.backend.name, k)


def test_check_trace_builds_only_the_fractions_it_prints(monkeypatch):
    # check_trace adds and compares the ledger as framed values: on an exact
    # 16-step trace the only Fractions it builds are the slack and the
    # residual that its detail prints
    new = F.__new__
    count = 0

    def counting(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new(cls, *args, **kwargs)

    for plane in fuzz_planes(401, 2) + [kgon_plane(9)]:
        trace = iterate_involutes(plane, max_steps=16, tol=1e-300)
        assert len(trace.steps) == 17
        with monkeypatch.context() as mp:
            mp.setattr(F, "__new__", counting)
            count = 0
            checks = check_trace(trace, plane)
            built = count
        assert all(c.ok for c in checks) and built <= 2


def test_check_trace_reads_stored_frames_as_vertices():
    # a step stores M(k) and N(k) as frames; check_trace reads those frames,
    # and a step rebuilt from the vertex lists gives the same checks
    planes = fuzz_planes(411, 6)
    planes += [float_copy(p, s) for s in (1e-3, 1.0) for p in planes]
    for plane in planes:
        trace = iterate_involutes(plane, max_steps=8, tol=1e-300)
        fresh = check_trace(trace, plane)
        for s in trace.steps:
            # every step, step 0 included, stores frames and no vertices
            for slot in ("_M", "_N"):
                frame, points = s.__dict__[slot]
                assert isinstance(frame, Frame) and points is None
            assert s.M == s.M and s.N == s.N
            assert frame_of(s, "M") == integer_frame(s.M)
            assert frame_of(s, "N") == integer_frame(s.N)
        steps = [dataclasses.replace(s, M=list(s.M), N=list(s.N)) for s in trace.steps]
        assert check_trace(dataclasses.replace(trace, steps=steps), plane) == fresh
        assert all(c.ok for c in fresh)


def _mean(points):
    sx = sy = 0
    for p in points:
        sx = sx + p.x
        sy = sy + p.y
    return Vec2(sx / len(points), sy / len(points))


def test_central_point_is_the_mean_of_the_last_m_and_builds_no_vertices():
    planes = fuzz_planes(417, 8) + [kgon_plane(7), kgon_plane(11)]
    for plane in planes:
        for p in (plane, float_copy(plane, 1e-3), float_copy(plane, 1.0)):
            trace = iterate_involutes(p, max_steps=6, tol=1e-300)
            o = trace.O
            assert trace.final.__dict__["_M"][1] is None
            want = _mean(trace.final.M)
            if p.backend.exact:
                assert type(o.x) is F and o == want
            else:
                assert repr(o) == repr(want)


def test_central_point_adds_in_list_order():
    # O is the Vec2 fold of the points, on every Python: the compensated
    # builtin sum of 3.12 and later reads x = 0.5 on this frame, the fold 0.25
    from cwpoly.iterate import _centroid
    o = _centroid(Frame([1e16, 1.0, -1e16, 1.0], [0.0] * 4, 1.0))
    assert o == Vec2(0.25, 0.0) == _mean([Vec2(1e16, 0.0), Vec2(1.0, 0.0),
                                          Vec2(-1e16, 0.0), Vec2(1.0, 0.0)])


@pytest.mark.parametrize("kwargs, error", [
    ({"max_steps": 0}, "max_steps must be at least 1"),
    ({"tol": math.nan}, "tol must be finite and positive, got nan"),
    ({"tol": 0.0}, "tol must be finite and positive, got 0.0"),
    ({"tol": math.inf}, "tol must be finite and positive, got inf"),
], ids=["steps=0", "tol=nan", "tol=0", "tol=inf"])
def test_iterate_rejects_bad_steps_and_tol(triangle_plane, kwargs, error):
    for plane in (triangle_plane, float_copy(triangle_plane, 1.0)):
        with pytest.raises(InputError) as e:
            iterate_involutes(plane, **kwargs)
        assert str(e.value) == error


def test_iteration_step_fields_are_pinned():
    # the golden float hash reprs the fields in this order, and M and N take
    # no default though their class attributes are descriptors
    fields = dataclasses.fields(IterationStep)
    assert [f.name for f in fields] == ["k", "M", "N", "sa_m", "sa_n", "gap_mn",
                                        "gap_nm", "diam_m", "diam_n"]
    assert all(f.default is dataclasses.MISSING for f in fields)


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


def _float_copy(plane_r):
    paired_f = PairedPolygon(
        [Vec2(float(p.x), float(p.y)) for p in plane_r.P.vertices])
    return build_plane(paired_f, float(plane_r.a))


def test_float_matches_rational_trace(triangle_plane):
    # the exact ladder is the reference: same step count, and every M vertex
    # and SA(M) within 1e-12 relative to the initial diameter (squared for SA)
    pairs = [(_float_plane([(0, 0), (1, 0), (0, 1)]), triangle_plane)]
    pairs += [(_float_copy(plane), plane) for plane in fuzz_planes(408, 6)]
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
    for _ in range(10):
        plane_f = _float_copy(random_cw_plane(rng))
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


def _assert_bounded(trace, plane):
    assert all(math.isfinite(s.diam_m) and math.isfinite(s.diam_n) for s in trace.steps)
    assert all(c.ok for c in check_trace(trace, plane))


def test_stop_reason_float():
    # float rounding stays on the central polygons, where the step contracts:
    # one plane collapses to diameter 0.0 even at an unreachable tol, and one
    # that the former noise guard cut at step 43 takes all its steps, its
    # diameters within rounding of the central point
    planes = fuzz_planes(409, 15)
    plane = _float_copy(planes[7])
    trace = iterate_involutes(plane, max_steps=2000, tol=1e-300)
    assert trace.stop_reason == "tol" and trace.converged
    assert trace.radius == 0.0 and len(trace.steps) < 100
    _assert_bounded(trace, plane)

    plane = _float_copy(planes[14])
    trace = iterate_involutes(plane, max_steps=1500, tol=1e-300)
    assert trace.stop_reason == "max_steps" and len(trace.steps) == 1501
    assert max(s.diam_m for s in trace.steps[100:]) < 1e-14 * trace.steps[0].diam_m
    _assert_bounded(trace, plane)


def test_half_period_invariant():
    # M(k) and N(k) repeat after n vertices, so diameters need only the first
    # n; the float ladder stores each polygon doubled, so it repeats exactly too
    planes = fuzz_planes(410, 8)
    for plane in planes + [_float_copy(p) for p in planes]:
        n = plane.n
        trace = iterate_involutes(plane, max_steps=8, tol=1e-300)
        assert len(trace.steps) == 9
        for s in trace.steps:
            assert all(s.M[i + n] == s.M[i] and s.N[i + n] == s.N[i] for i in range(n))


def test_ledger_diameters_at_n_41_equal_the_scan(monkeypatch):
    # the 41-gon's frames take diameter_sq's float filter; with the plain
    # scan patched in as the oracle, every stored diameter and the stop
    # reason must be the same, on a run cut by max_steps and one by tol
    plane = kgon_plane(41)

    def scan(frame):
        xs, ys, den = integer_frame(frame)
        pts = [Vec2(x, y) for x, y in zip(xs, ys)]
        return ScalarFrame([ref_diameter_sq(pts)], den * den)

    def ledger(tol):
        trace = iterate_involutes(plane, max_steps=8, tol=tol)
        return [(s.diam_m, s.diam_n) for s in trace.steps], trace.stop_reason

    got = ledger(1e-300)
    with monkeypatch.context() as m:
        m.setattr(iterate, "diameter_sq", scan)
        want = ledger(1e-300)
        tol = math.sqrt(want[0][4][0] * want[0][5][0])
        want_tol = ledger(tol)
    assert got == want and want[1] == "max_steps"
    assert ledger(tol) == want_tol and len(want_tol[0]) == 6 and want_tol[1] == "tol"


# SHA-256 of the exact ledger below, recorded before the kernels moved to the
# integer frame; any changed exact value changes it
GOLDEN_LEDGER_SHA256 = "b52b3daf78986a83ef3df9b620010d7aec6fdde6adc29ebcc71592ecdcb1bc78"


@functools.lru_cache(maxsize=1)
def _golden_exact_traces():
    """16 exact steps on two seeded planes (n = 5, 7) and the rounded regular
    9-gon of radius 1000."""
    from cwpoly.fuzz import random_cw_plane

    nine = [(round(1000 * math.cos(2 * math.pi * j / 9)),
             round(1000 * math.sin(2 * math.pi * j / 9))) for j in range(9)]
    planes = [random_cw_plane(random.Random(601), 5, 5),
              random_cw_plane(random.Random(602), 7, 7),
              build_plane(ConvexPolygon.from_points(nine))]
    assert [p.n for p in planes] == [5, 7, 9]
    return [iterate_involutes(plane, max_steps=16, tol=1e-300) for plane in planes]


def test_golden_exact_ledger():
    # one line per input of k:sa_m:sa_n:gap_mn:gap_nm records joined by "|",
    # the record format of the exact-ledger benchmark
    h = hashlib.sha256()
    for trace in _golden_exact_traces():
        assert len(trace.steps) == 17
        h.update("|".join(f"{t.k}:{t.sa_m}:{t.sa_n}:{t.gap_mn}:{t.gap_nm}"
                          for t in trace.steps).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_LEDGER_SHA256


# SHA-256 of the float ladders and the float ladder failures, and of the
# exact vertices, recorded before the ladder carried integer frames from one
# kernel to the next; until the split they were one digest,
# 17c5936280242c5fc37f26e9b4f68bf687a4b0cbe108e0d4945cc8d59627e4e1, over the
# same lines.  A change that moves float bits re-records only the first.
GOLDEN_FLOAT_SHA256 = "88482b49fae32db806da72b168b16d8c3bfb29e103a66aa206a6ef27a99f7213"
GOLDEN_VERTICES_SHA256 = "974f07de5f147c6a49830aff0a11b6a588488ff6178c48e90107674aaffd9a3a"


def _scaled_float(plane_r, s):
    paired = PairedPolygon([Vec2(float(p.x) * s, float(p.y) * s) for p in plane_r.P.vertices])
    return build_plane(paired, 0.5)


def test_golden_float_ladder_and_exact_vertices():
    # the repr of every IterationStep field of 24 float steps at scales 1e-3
    # and 1 and the exception of two 1e3-scale float ladders that raise, in
    # one digest; the exact M(k) and N(k) of the golden ledger above in the
    # other
    h = hashlib.sha256()
    fields = [f.name for f in dataclasses.fields(IterationStep)]
    for plane in fuzz_planes(421, 3):
        for s in (1e-3, 1.0):
            trace = iterate_involutes(_scaled_float(plane, s), max_steps=24, tol=1e-300)
            for step in trace.steps:
                h.update(repr([getattr(step, f) for f in fields]).encode() + b"\n")
    planes = fuzz_planes(420, 5)
    for plane in (planes[0], planes[4]):
        with pytest.raises(GeometryError) as err:
            iterate_involutes(_scaled_float(plane, 1e3), max_steps=40, tol=1e-300)
        h.update(f"{type(err.value).__name__}: {err.value}".encode() + b"\n")
    exact = hashlib.sha256()
    for trace in _golden_exact_traces():
        for step in trace.steps:
            exact.update(repr((step.M, step.N)).encode() + b"\n")
    assert (h.hexdigest(), exact.hexdigest()) == (GOLDEN_FLOAT_SHA256, GOLDEN_VERTICES_SHA256)


def test_sci_formats_beyond_float_range():
    # the ledger detail's number format, in float range and past it
    for x in (F(3, 7), F(-12345), F(2) ** 1000 * 3, F(10) ** 300 * F(99995, 10000)):
        assert _sci(x) == f"{float(x):.3e}"
    assert _sci(F(10) ** 400 * F(12345, 10000)) == "1.234e+400"  # half to even
    assert _sci(-F(10) ** 309 * F(99996, 10000)) == "-1.000e+310"
    assert _sci(F(2) ** 1100 + F(1, 3)) == "1.358e+331"


def _sci_reference(x) -> str:
    """The earlier ``_sci``: an exponent search on the integer part, then
    half-even rounding of x / 10^(e-3) as a Fraction."""
    try:
        return f"{float(x):.3e}"
    except OverflowError:
        pass
    x = F(x)
    sign = "-" if x < 0 else ""
    x = abs(x)
    q = x.numerator // x.denominator
    e = int((q.bit_length() - 1) * 0.30102999566398120)  # about floor(log10 q)
    while 10 ** e > q:
        e -= 1
    while 10 ** (e + 1) <= q:
        e += 1
    digits = round(x / 10 ** (e - 3))
    if digits == 10 ** 4:
        digits, e = 10 ** 3, e + 1
    d = str(digits)
    return f"{sign}{d[0]}.{d[1:]}e+{e}"


_exponents = st.integers(min_value=300, max_value=1500)
_ties = st.builds(lambda k, e: F(2 * k + 1, 2) * F(10) ** (e - 3),
                  st.integers(min_value=1000, max_value=9999), _exponents)
_near_ties = st.builds(lambda t, d: t + F(d, 10 ** 40), _ties,
                       st.integers(min_value=-5, max_value=5))
_general = st.builds(lambda a, b, e: F(a, b) * F(10) ** e,
                     st.integers(min_value=1, max_value=10 ** 30),
                     st.integers(min_value=1, max_value=10 ** 30), _exponents)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_ties, _near_ties, _general), st.booleans())
def test_sci_matches_reference(x, negative):
    # one decimal division gives the same text as the exponent search and
    # the Fraction rounding, exact ties (half to even) included
    x = -x if negative else x
    assert _sci(x) == _sci_reference(x)


def _carried_ladders(plane, max_steps, corrupt=None):
    """Run the exact ladder and record what it carries: the alpha ladder it
    hands to ``betas_of`` and the coefficients it hands to ``dual_involute``,
    one per step.  ``corrupt``, if given, is (ladder, k, change): the ladder
    "alpha" or "beta" of step k is handed on with change[i] added to its
    numerator i."""
    seen = {"alpha": [], "beta": []}

    def carried(name, frame):
        k = len(seen[name])
        seen[name].append(frame)
        if corrupt and corrupt[:2] == (name, k):
            nums = list(frame.nums)
            for i, delta in corrupt[2].items():
                nums[i] += delta
            frame = ScalarFrame(nums, frame.den)
        return frame

    def spy_betas(al, u):
        return betas_of(carried("alpha", al), u)

    def spy_dual(x, u, v, coeffs=None):
        return dual_involute(x, u, v, carried("beta", coeffs))

    with mock.patch.object(iterate, "betas_of", spy_betas), \
            mock.patch.object(iterate, "dual_involute", spy_dual):
        trace = iterate_involutes(plane, max_steps=max_steps, tol=1e-300)
    return trace, seen["alpha"], seen["beta"]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_ladder_carries_fact_1(seed, mirrored):
    # fact 1 of the step map, on both orientations: the edge-world
    # coefficients of N(k+1) are beta = betas_of(alpha(k), U), so the
    # (V, W) alphas of N(k+1) are beta one slot earlier, and the mu of the
    # dual involute, divided by its content, is alpha(k+1), the alpha ladder
    # of M(k+1); the exact ladder carries both instead of solving them
    plane = random_cw_plane(random.Random(seed), n_min=3, n_max=7)
    if mirrored:
        plane = build_plane(ConvexPolygon.from_points([(-p.x, p.y) for p in plane.P.vertices]))
    u, v, n = plane.U, plane.V, plane.n
    trace, alphas, betas = _carried_ladders(plane, 4)
    assert len(trace.steps) == 5 and len(alphas) == len(betas) == 4
    assert alphas[0] == frame_of(central_equidistant(plane), "alphas")
    for k in range(3):
        m_next, n_next = frame_of(trace.steps[k + 1], "M"), frame_of(trace.steps[k + 1], "N")
        be = betas[k]
        assert be == betas_of(alphas[k], u)
        assert alphas_of(n_next, v).values() == be.values()[1:] + be.values()[:1]
        al = alphas[k + 1]
        assert al.values() == alphas_of(m_next, u).values()
        assert math.gcd(al.den, *al.nums) == 1
    # a wrong carried entry is caught by involute_points: a change of entry
    # i of the antiperiodic ladder (slot i, and slot i + n negated) by its
    # defining forms, at the edge where that entry steps; a change of one
    # slot alone breaks antiperiodicity, so its halves check fails first
    for k in range(3):
        for i in range(n):
            for name, edge in (("alpha", i), ("beta", (i - 1) % n)):
                with pytest.raises(IdentityError,
                                   match=f"^involute defining forms disagree at edge {edge}$"):
                    _carried_ladders(plane, 4, (name, k, {i: 1, i + n: -1}))
                for slot in (i, i + n):
                    with pytest.raises(IdentityError, match="^involute halves differ at edge 0$"):
                        _carried_ladders(plane, 4, (name, k, {slot: 1}))
