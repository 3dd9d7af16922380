"""Stored fields: each container holds a polygon or ladder as the frame or the
list its kernel computed, builds the other form once, and no caller frames
a list that a container already holds."""
import dataclasses

import pytest

from cwpoly import (
    ConvexPolygon,
    build_plane,
    central_equidistant,
    check_nesting,
    check_trace,
    dual_ball,
    evolute,
    involute,
    iterate_involutes,
    run_verify,
)
from cwpoly.backend import FLOAT, RATIONAL
from cwpoly.core import (CenteredBall, Frame, ScalarFrame, frame_of, integer_frame, scalar_frame,
                         single_point)

from conftest import float_copy, kgon_plane

QUAD = [(0, 0), (4, 0), (5, 3), (1, 5)]


def _quad(backend):
    plane = build_plane(ConvexPolygon.from_points(QUAD))
    return plane if backend is RATIONAL else float_copy(plane, 1.0)


def _kgon(backend):
    plane = kgon_plane(7)
    return plane if backend is RATIONAL else float_copy(plane, 1e-3)


@pytest.mark.parametrize("backend", [RATIONAL, FLOAT], ids=["rational", "float"])
@pytest.mark.parametrize("run", ["verify", "ledger"])
def test_each_polygon_is_framed_once(framed_lists, backend, run):
    # P is framed at most once per plane; the central equidistant, the
    # involute and every step of the ladder hand their frames on, so no
    # caller frames their vertex lists
    if run == "verify":
        plane = _quad(backend)
        assert run_verify(plane).all_ok
        trace = None
    else:
        plane = _kgon(backend)
        trace = iterate_involutes(plane, max_steps=4, tol=1e-300)
        assert all(c.ok for c in check_trace(trace, plane))
    framed = list(framed_lists)
    framed_lists.clear()
    ce = central_equidistant(plane)
    held = [ce.M, involute(ce, plane.V).N]
    if trace is not None:
        held += [s.M for s in trace.steps] + [s.N for s in trace.steps]
    assert framed_lists == []  # reading the held lists framed nothing
    assert sum(1 for pts in framed if pts == plane.P.vertices) <= 1
    assert not [pts for pts in framed if any(pts == h for h in held)]


def test_containment_frames_only_the_convex_parents(framed_lists):
    # the region tests take each curve's frame from its container, and the
    # convex parents are frames too, so neither run_verify nor check_nesting
    # frames a list
    plane = kgon_plane(7)
    framed_lists.clear()
    assert run_verify(plane, samples=2, iterate_steps=2).all_ok
    assert framed_lists == []
    trace = iterate_involutes(plane, max_steps=3, tol=1e-300)
    assert all(c.ok for c in check_nesting(trace, plane))
    assert framed_lists == []


def _framed_fields(backend):
    """(container, field) for every field a kernel sets with a frame."""
    poly = ConvexPolygon.from_points([(float(x), float(y)) for x, y in QUAD]
                                     if backend is FLOAT else QUAD, backend)
    plane = build_plane(poly)
    ce = central_equidistant(plane)
    ev = evolute(plane.P.frame, plane.U, plane.V)
    inv = involute(ce, plane.V)
    step = iterate_involutes(plane, max_steps=2, tol=1e-300).steps[-1]
    return [(poly, "vertices"), (plane.P, "vertices"), (plane.U, "vertices"),
            (plane.V, "vertices"), (dual_ball(plane.V), "vertices"),
            (plane.W, "vertices"), (ce, "M"), (ce, "alphas"), (ce, "betas"), (ev, "E"),
            (inv, "N"), (inv, "betas"), (step, "M"), (step, "N")]


@pytest.mark.parametrize("backend", [RATIONAL, FLOAT], ids=["rational", "float"])
def test_stored_field_round_trip(backend):
    fields = _framed_fields(backend)
    # nothing has read the lists yet, so none is built
    for obj, name in fields:
        frame, items = obj.__dict__["_" + name]
        assert isinstance(frame, (Frame, ScalarFrame)) and items is None, name
    for obj, name in fields:
        frame = frame_of(obj, name)
        got = getattr(obj, name)
        if isinstance(frame, Frame):
            assert got == frame.points()
            # a polygon set with a frame holds exactly integer_frame of its list
            assert frame == integer_frame(got), name
            if frame.is_doubled:
                h = len(got) // 2
                assert all(a is b for a, b in zip(got[:h], got[h:])), name
        else:
            assert got == frame.values()
        assert getattr(obj, name) is got and frame_of(obj, name) is frame
        # replaced with a list, the field frames that list on the first read
        fresh = list(got)
        other = dataclasses.replace(obj, **{name: fresh})
        want = integer_frame(fresh) if isinstance(frame, Frame) else scalar_frame(fresh)
        assert frame_of(other, name) == want and getattr(other, name) is fresh


@pytest.mark.parametrize("backend", [RATIONAL, FLOAT], ids=["rational", "float"])
def test_backend_and_n_are_read_in_one_pass(backend):
    # the first read of either takes both from the frame into the instance
    # dict, where later reads find them
    xs, ys = [1, -2, -1, 2], [1, 1, -1, -1]
    frame = (Frame(xs, ys, 3) if backend is RATIONAL
             else Frame([float(x) for x in xs], [float(y) for y in ys], 1.0))
    first, second = CenteredBall(frame), CenteredBall(frame)
    assert "backend" not in vars(first) and "n" not in vars(first)
    assert first.backend is backend and vars(first)["n"] == 2
    assert second.n == 2 and vars(second)["backend"] is backend


def test_points_share_the_halves_of_a_doubled_frame_only():
    doubled = Frame([1, 2, 1, 2], [3, 4, 3, 4], 2)
    pts = doubled.points()
    assert pts == doubled.half().points() * 2 and pts[0] is pts[2] and pts[1] is pts[3]
    plain = Frame([1, 2, 1, 5], [3, 4, 3, 4], 2)
    assert [(p.x * 2, p.y * 2) for p in plain.points()] == list(zip(plain.xs, plain.ys))


def test_single_point():
    assert single_point(Frame([2, 2, 2], [1, 1, 1], 3))
    assert not single_point(Frame([2, 2, 2], [1, 1, 2], 3))
    assert single_point(Frame([0.5, 0.5 + 1e-12], [1.0, 1.0], 1.0))
    assert not single_point(Frame([0.5, 0.5 + 1e-6], [1.0, 1.0], 1.0))
