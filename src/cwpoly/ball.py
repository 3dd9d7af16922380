"""Minkowski unit balls for constant-width polygons.

Given any convex polygon P, ``reorder_parallel`` rewrites it as a 2n-list
with opposite sides parallel: P walked along the edge directions of
P + (-P), which one ``core.edge_merge`` of P with -P lists, with a
degenerate side wherever P lacks the direction.  ``unit_ball`` then builds
the centered polygon U in whose norm the polygon has constant width, and
``dual_ball`` builds the dual ball V under the determinant pairing
f(.) = [., v].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import sub
from typing import Sequence

from .backend import Backend, Scalar
from .core import (
    CenteredBall,
    ConvexPolygon,
    Frame,
    InputError,
    PairedPolygon,
    Vec2,
    edge_merge,
    frame_eq,
    from_frame,
    integer_frame,
    minkowski_frame,
    scalar_frame,
)


@dataclass
class MinkowskiPlane:
    """A paired polygon together with its induced norm structure.

    V is edge-indexed: V.vertices[i] is the dual vertex attached to the edge
    from P.vertices[i] to P.vertices[i+1].
    """

    P: PairedPolygon
    U: CenteredBall
    V: CenteredBall
    a: Scalar

    @cached_property
    def n(self) -> int:
        return self.P.n

    @cached_property
    def backend(self) -> Backend:
        return self.P.backend

    @property
    def W(self) -> CenteredBall:
        """The ball dual to V; see ``CenteredBall.second_dual``."""
        return self.U.second_dual


def reorder_parallel(poly: ConvexPolygon) -> PairedPolygon:
    """Rewrite a convex k-gon as a 2n-list with parallel opposite sides.

    One ``edge_merge`` of P with -P lists the 2n edge directions of
    P + (-P), each with whether P has an edge there.  The walk starts at
    P's lowest vertex, on P's first edge, and takes the directions in
    order: it steps to the next vertex where P has the edge and repeats the
    current vertex (a degenerate side) where it does not.  So n = k - j,
    where j counts the pairs of parallel opposite sides of P.  The walk
    visits every vertex of P, so the paired form is P's frame reindexed.
    """
    f = poly.frame
    i0, _, merged = edge_merge(f, f.reflected())
    has = [own for *_, own in merged]
    r = has.index(True)
    # the vertex the walk is at as it takes each direction
    walk = [(i0 + s) % len(f.xs) for s in accumulate((has[r:] + has[:r])[:-1], initial=0)]
    paired = PairedPolygon(Frame([f.xs[i] for i in walk], [f.ys[i] for i in walk], f.den))
    paired.validate()
    return paired


def unit_ball(paired: PairedPolygon, a: Scalar, validate: bool = True) -> CenteredBall:
    """Centered ball U with U_i = (P_i - P_{i+n}) / (2a), origin at (0,0).

    U is the frame of the diagonals of P's frame times the numerator of
    1 / (2a), over den(P) den(1 / (2a)), reduced by its content; on a float
    frame, each coordinate is the diagonal times 1 / (2a).
    """
    backend = paired.backend
    a = backend.convert(a)
    if backend.sign(a) <= 0:
        raise InputError("half-width parameter a must be positive")
    n, m = paired.n, 2 * paired.n
    xs, ys, den = paired.frame
    (sn,), sd = scalar_frame([1 / (2 * a)])
    ux, uy = [], []
    for i in range(m):
        dx, dy = xs[i] - xs[(i + n) % m], ys[i] - ys[(i + n) % m]
        if backend.is_zero(dx) and backend.is_zero(dy):
            raise InputError(f"degenerate diagonal at index {i}")
        ux.append(dx * sn)
        uy.append(dy * sn)
    ball = CenteredBall(Frame(ux, uy, den * sd).reduced())
    if validate:
        ball.validate()
    return ball


def dual_ball(u: CenteredBall, validate: bool = True) -> CenteredBall:
    """Dual ball V with V_i = (U_{i+1} - U_i) / det(U_i, U_{i+1}).

    Edge-indexed: vertex V_i of the dual corresponds to the edge U_i U_{i+1}.
    Every point of every edge of V has dual norm exactly 1 against U.  On
    U's frame, det_i = d_i / den^2, so V_i = (U_{i+1} - U_i) den / d_i on
    the numerators.  V is the frame of the numerators times den L / d_i
    over L = lcm |d_i|, reduced by its content; on a float frame (den =
    1.0) each coordinate is the float quotient.  A zero d_i raises
    InputError (``CenteredBall.divisor_frame``).
    """
    xs, ys, den = f = u.frame
    dets = u.divisor_frame.nums
    dx = [x1 - x0 for x0, x1 in zip(xs, xs[1:] + xs[:1])]
    dy = [y1 - y0 for y0, y1 in zip(ys, ys[1:] + ys[:1])]
    if f.exact:
        L = math.lcm(*dets)
        s = [den * (L // d) for d in dets]
        frame = Frame([x * k for x, k in zip(dx, s)], [y * k for y, k in zip(dy, s)], L).reduced()
    else:
        frame = Frame([x * den / d for x, d in zip(dx, dets)],
                      [y * den / d for y, d in zip(dy, dets)], den)
    ball = CenteredBall(frame)
    if validate:
        ball.validate()
    return ball


def ball_from_dual(v: CenteredBall) -> CenteredBall:
    """Recover the primal ball: U_i = -W_{i-1} for W = dual_ball(v), that is
    U_i = -(V_i - V_{i-1}) / det(V_{i-1}, V_i), on W's frame."""
    xs, ys, den = dual_ball(v, validate=False).frame.reflected()
    ball = CenteredBall(Frame(xs[-1:] + xs[:-1], ys[-1:] + ys[:-1], den))
    ball.validate()
    return ball


def build_plane(poly: ConvexPolygon | PairedPolygon, a: Scalar = None,
                strict: bool = True) -> MinkowskiPlane:
    """Full norm structure for a polygon: paired form, ball U, dual ball V.

    With strict=False, ``validate()`` of U and of V is skipped: a
    claimed-paired polygon whose ball is not strictly convex is built, and
    can be diagnosed afterwards by is_constant_width.  What the balls
    divide by is still tested, so a zero diagonal of P raises
    InputError("degenerate diagonal at index i") and a zero det(U_i,
    U_{i+1}), the divisor of ``dual_ball``, raises InputError("degenerate
    ball edge at index i").
    """
    if isinstance(poly, PairedPolygon):
        paired = poly
    else:
        paired = reorder_parallel(poly)
    a = paired.backend.convert(Fraction(1, 2) if a is None else a)
    u = unit_ball(paired, a, validate=strict)
    v = dual_ball(u, validate=strict)
    return MinkowskiPlane(P=paired, U=u, V=v, a=a)


def det_table(xs: Sequence, ys: Sequence, fx: Sequence, fy: Sequence) -> list[list]:
    """det(X_j, F_i) for every framed point X_j and every framed direction
    F_i: row i lists the pairings of all points with F_i, over den_X den_F.
    O(m^2) products of integers (of floats on a float frame, each the
    float ``det``)."""
    return [[x * b - y * a for x, y in zip(xs, ys)] for a, b in zip(fx, fy)]


def framed_widths(xs: Sequence, ys: Sequence, den, v: CenteredBall) -> tuple[list, int]:
    """Widths of framed points in the m dual directions V_i, from one
    ``det_table``: max - min of row i, over den den_V."""
    vx, vy, vden = v.frame
    return [max(row) - min(row) for row in det_table(xs, ys, vx, vy)], den * vden


def _point_rows(points, f: Vec2) -> tuple[list, int]:
    xs, ys, den = points.frame if hasattr(points, "frame") else integer_frame(points)
    if not xs:
        raise InputError("support of an empty point set")
    fx, fy, fden = integer_frame([f])
    return det_table(xs, ys, fx, fy)[0], den * fden


def support(points: Sequence[Vec2] | PairedPolygon | CenteredBall, f: Vec2) -> Scalar:
    """Support value sup [p, f] over the vertices (determinant pairing)."""
    row, den = _point_rows(points, f)
    return from_frame(max(row), den)


def width(points, f: Vec2) -> Scalar:
    """Width in dual direction f: support(P, f) + support(P, -f), which is
    max - min of the pairings [p, f]."""
    row, den = _point_rows(points, f)
    return from_frame(max(row) - min(row), den)


@dataclass
class WidthResult:
    """Outcome of the constant-width check: the half-width a, or a witness."""

    ok: bool
    a: Scalar | None = None
    witness: int | None = None
    reason: str = ""


def is_constant_width(paired: PairedPolygon, u: CenteredBall) -> WidthResult:
    """Decide whether the paired polygon has constant width in the U-norm.

    Checks edge parallelism against U, then that all diagonals satisfy
    P_i - P_{i+n} = 2a U_i for one constant a > 0, and cross-checks that
    P + (-P) is the homothety of U with ratio 2a.  Runs on the integer
    frames of P and U, with U's backend: the a_i share one denominator, and
    P + (-P) is summed on the numerators of P (``minkowski_frame``).
    """
    backend = u.backend
    m = 2 * paired.n
    if len(u) != m:
        return WidthResult(False, reason="vertex count mismatch", witness=0)
    px, py, pden = pf = paired.frame
    ux, uy, uden = u.frame
    sgn = backend.sign
    for i in range(m):
        j = (i + 1) % m
        pex, pey = px[j] - px[i], py[j] - py[i]
        uex, uey = ux[j] - ux[i], uy[j] - uy[i]
        if not backend.is_zero(pex * uey - pey * uex):
            return WidthResult(False, witness=i, reason="edge not parallel to ball edge")
        if not (backend.is_zero(pex) and backend.is_zero(pey)) \
                and sgn(pex * uex + pey * uey) <= 0:
            return WidthResult(False, witness=i, reason="edge orientation mismatch")
    # 2 a_i = nums[i] / cden, the coefficient of diagonal i along U_i
    n = paired.n
    nums, cden = u.vertex_coeffs(map(sub, px, px[n:] + px[:n]), map(sub, py, py[n:] + py[:n]),
                                 pden)
    exact = backend.exact
    aden = 2 * cden if exact else cden
    a = None
    for i, t in enumerate(nums):
        if t is None:
            return WidthResult(False, witness=i, reason="diagonal not parallel to ball vertex")
        ai = t if exact else t / 2
        if a is None:
            a = ai
        elif not backend.eq(a, ai):
            return WidthResult(False, witness=i, reason="diagonal ratio is not constant")
    if a is None or sgn(a) <= 0:
        return WidthResult(False, witness=0, reason="nonpositive width")
    # cross-check: P + (-P) is centered at origin and equals the 2a-homothety
    # of the ball up to vertex rotation
    sx, sy, _ = minkowski_frame(pf, pf.reflected())
    if len(sx) != m:
        return WidthResult(False, witness=0, reason="P+(-P) vertex count mismatch")
    # s / pden against 2a U = (2 a ux, 2 a uy) / (aden uden)
    tden = aden * uden
    target = [(2 * a * x, 2 * a * y) for x, y in zip(ux, uy)]
    for r in range(m):
        if all(frame_eq(sx[(r + i) % m], pden, target[i][0], tden)
               and frame_eq(sy[(r + i) % m], pden, target[i][1], tden)
               for i in range(m)):
            return WidthResult(True, a=from_frame(a, aden))
    return WidthResult(False, witness=0, reason="P+(-P) not homothetic to ball")
