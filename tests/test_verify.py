"""Report structure and whole-suite behaviour of the verifier."""
import dataclasses
import hashlib
from fractions import Fraction as F

import pytest

import cwpoly.verify
from cwpoly import ConvexPolygon, InputError, PairedPolygon, Vec2, build_plane, vec
from cwpoly.backend import get_backend
from cwpoly.core import Frame, ScalarFrame
from cwpoly.verify import run_verify

from conftest import fuzz_planes, kgon_plane, perturbed_planes


def test_triangle_report_all_pass(triangle_plane):
    report = run_verify(triangle_plane, seed=1, samples=4)
    assert report.all_ok
    ids = [c.check_id for c in report.checks]
    assert len(ids) == len(set(ids))  # each check appears exactly once
    gap = next(c for c in report.checks if c.check_id == "areas.signed_gap")
    assert "3/16" in gap.actual
    width = next(c for c in report.checks if c.check_id == "cw.constant_width")
    assert "a=1/2" in width.actual


@pytest.mark.parametrize("steps", [0, -1])
def test_rejects_iterate_steps_below_one(triangle_plane, monkeypatch, steps):
    # a bad argument, raised before any check runs, not a failed ledger check
    def no_check(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cwpoly.verify, "is_constant_width", no_check)
    with pytest.raises(InputError, match="iterate_steps must be at least 1"):
        run_verify(triangle_plane, samples=2, iterate_steps=steps)


def test_symmetric_degenerate_path(symmetric_plane):
    report = run_verify(symmetric_plane, seed=2, samples=2)
    assert report.all_ok
    cusp = next(c for c in report.checks if c.check_id == "cw.cusps_odd_ge3")
    assert cusp.actual == "degenerate"


def test_float_backend_report(triangle_plane):
    fb = get_backend("float")
    paired = PairedPolygon(
        [vec(float(p.x), float(p.y), fb) for p in triangle_plane.P.vertices])
    plane = build_plane(paired, 0.5)
    report = run_verify(plane, seed=3, samples=2)
    assert report.backend == "float"
    assert report.all_ok, [(c.check_id, c.actual) for c in report.checks if not c.ok]


@pytest.mark.parametrize("kind, backend", [(int, "rational"), (float, "float")])
def test_plain_coordinates_decide_the_backend(kind, backend):
    # a paired triangle of plain ints or plain floats, given no backend: its
    # frame decides the backend of every container, and the suite passes
    pts = [Vec2(kind(x), kind(y)) for x, y in [(0, 0), (4, 0), (4, 0), (1, 3), (1, 3), (0, 0)]]
    assert ConvexPolygon(pts).backend.name == backend
    plane = build_plane(PairedPolygon(pts))
    report = run_verify(plane, samples=2, iterate_steps=2)
    assert plane.backend.name == report.backend == backend
    assert report.all_ok and len(report.checks) == 22, [c for c in report.checks if not c.ok]


def test_float_backend_tangential_containment():
    # the quad's involute touches its central curve; float rounding must not
    # misclassify those tangential samples as exterior
    fb = get_backend("float")
    poly = ConvexPolygon.from_points([(0, 0), (4, 0), (5, 3), (1, 5)], fb)
    plane = build_plane(poly, 0.5)
    report = run_verify(plane, seed=8, samples=4)
    assert report.all_ok, [(c.check_id, c.actual) for c in report.checks if not c.ok]


def test_perturbed_paired_fails_with_witness():
    plane = perturbed_planes()[0]
    report = run_verify(plane, seed=4)
    assert not report.all_ok
    width = next(c for c in report.checks if c.check_id == "cw.constant_width")
    assert not width.ok and "index" in width.actual


def test_report_json_shape(triangle_plane):
    report = run_verify(triangle_plane, seed=9, samples=2)
    data = report.to_json()
    assert data["summary"]["total"] == len(data["checks"])
    assert data["seed"] == 9
    assert all(c["backend"] == "rational" for c in data["checks"])


def test_fuzz_reports_pass():
    for i, plane in enumerate(fuzz_planes(501, 10)):
        report = run_verify(plane, seed=i, samples=2, iterate_steps=3)
        assert report.all_ok, [(c.check_id, c.actual) for c in report.checks if not c.ok]


def _verdicts(report):
    """(check id, pass) of every check, and the containment report line."""
    return [(c.check_id, c.ok, c.actual if c.check_id.startswith("containment") else None)
            for c in report.checks]


def test_float_verdicts_match_rational_fuzz():
    # the float suite reaches the rational verdict on every check, at small
    # and at unit coordinate scale, and reports the rational containment
    # sample count and minimum chord count
    fb = get_backend("float")
    for i, plane_r in enumerate(fuzz_planes(510, 20)):
        want = _verdicts(run_verify(plane_r, seed=i, samples=2, iterate_steps=4))
        for scale in (1e-3, 1.0):
            paired = PairedPolygon(
                [vec(float(p.x) * scale, float(p.y) * scale, fb) for p in plane_r.P.vertices])
            report = run_verify(build_plane(paired, 0.5), seed=i, samples=2, iterate_steps=4)
            got = _verdicts(report)
            assert got == want, (i, scale, [(c.check_id, c.actual)
                                            for c in report.checks if not c.ok])


# SHA-256 over (check_id, pass, actual) of every check of run_verify(samples=16,
# iterate_steps=8), recorded before the identity suite moved onto integer
# frames; any changed verdict, failing index or reported exact value changes it
GOLDEN_SUITE_SHA256 = "dbaadf57c033dbc6152cbc9a3c04f1a211cac7f9b84fbc9e83b5e1ecea420095"


def test_golden_verify_suite():
    planes = (fuzz_planes(611, 14, n_min=3, n_max=9) + [kgon_plane(7), kgon_plane(11)]
              + perturbed_planes())
    assert {p.n for p in planes[:14]} == set(range(3, 10))
    h = hashlib.sha256()
    for i, plane in enumerate(planes):
        report = run_verify(plane, seed=i, samples=16, iterate_steps=8)
        h.update(repr([(c.check_id, c.ok, c.actual) for c in report.checks]).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_SUITE_SHA256


# Failure texts of run_verify: each test breaks one input, or the one kernel
# a check reads, and pins the check's reported text and verdict.

def _check(report, check_id):
    return next(c for c in report.checks if c.check_id == check_id)


def test_wrong_half_width_fails_width_and_mu_pair_checks(triangle_plane):
    # the triangle has width 2 * 1/2 in its ball; claiming a = 1/3 fails the
    # width check on the measured a, and the radii pairs mu_i + mu_{i+n} = 2a
    plane = dataclasses.replace(triangle_plane, a=F(1, 3))
    report = run_verify(plane, samples=2, iterate_steps=2)
    width = _check(report, "cw.constant_width")
    assert (width.expected, width.actual, width.ok) == ("yes(a=1/3)", "a=1/2", False)
    pairs = _check(report, "evolute.mu_pair_sums")
    assert (pairs.actual, pairs.ok) == ("pair 0", False)


def test_mixed_area_against_dual_length_failure_text(triangle_plane, monkeypatch):
    real = cwpoly.verify.mixed_area
    monkeypatch.setattr(cwpoly.verify, "mixed_area", lambda p, q: real(p, q) + 1)
    check = _check(run_verify(triangle_plane, samples=2, iterate_steps=2), "core.mixed_area")
    assert (check.actual, check.ok) == ("A(P,U) != L_V(P)/2", False)


def test_involute_with_a_nonzero_diagonal_failure_text(quad_plane, monkeypatch):
    real = cwpoly.verify.involute

    def moved(ce, v):
        inv = real(ce, v)
        pts = list(inv.N)
        pts[1] = pts[1] + Vec2(F(1), F(0))
        return dataclasses.replace(inv, N=pts)

    monkeypatch.setattr(cwpoly.verify, "involute", moved)
    check = _check(run_verify(quad_plane, samples=2, iterate_steps=2), "involute.structure")
    assert (check.actual, check.ok) == ("diagonal 1 nonzero", False)


@pytest.mark.parametrize("areas, text", [
    ((-1, 2), "negative signed area"),
    ((2, -1), "negative signed area"),
    ((1, 2), "SA(M) < SA(N)"),
])
def test_signed_gap_failure_texts(triangle_plane, monkeypatch, areas, text):
    # the check reads SA(M), then SA(N), from signed_area_frame
    given = iter(ScalarFrame([a], 1) for a in areas)
    monkeypatch.setattr(cwpoly.verify, "signed_area_frame", lambda frame: next(given))
    check = _check(run_verify(triangle_plane, samples=2, iterate_steps=2), "areas.signed_gap")
    assert (check.actual, check.ok) == (text, False)


def test_ledger_failure_joins_every_failed_trace_check(triangle_plane, monkeypatch):
    # the last M(k) replaced by M(0), with M(0)'s diameter doubled: four
    # ledger checks fail, and the report joins their ids and details
    real = cwpoly.verify.iterate_involutes

    def broken(plane, max_steps):
        trace = real(plane, max_steps=max_steps)
        first, last = trace.steps[0], trace.steps[-1]
        trace.steps[-1] = dataclasses.replace(last, M=first.M, diam_m=2 * first.diam_m)
        return trace

    monkeypatch.setattr(cwpoly.verify, "iterate_involutes", broken)
    check = _check(run_verify(triangle_plane, samples=2, iterate_steps=2), "iterate.ledger")
    assert check.ok is False
    assert check.actual == (
        "iterate.sa_chain_monotone: 5 signed areas; "
        "iterate.gap_identities: alpha gap fails at k=2; "
        "iterate.sumsquares_bound: slack=1.562e-02 residual=2.500e-01; "
        "iterate.diameters_nonincreasing: first=7.071e-01 last=1.414e+00")


def test_run_verify_builds_no_point_list(monkeypatch):
    # every point identity compares frames (core.first_mismatch), so the
    # default suite on the rounded 7-gon builds no Vec2 list from a frame
    plane = kgon_plane(7)
    calls = []
    real = Frame.points
    monkeypatch.setattr(Frame, "points", lambda self: calls.append(self) or real(self))
    assert run_verify(plane).all_ok
    assert calls == []
