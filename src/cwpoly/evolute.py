"""Curvature radii, evolutes, involutes, signed areas, and containment.

Two worlds alternate here.  A polygon of constant U-width has vertex-indexed
points and an edge-indexed evolute; its central equidistant M is the
vertex-indexed representative.  The involute N of M is edge-indexed, has
constant width in the dual ball V, and zero diagonals (N_{i+n} = N_i).  The
involute of an edge-indexed central polygon goes back to the vertex-indexed
world; iterating the two maps drives everything to a point.

The edge world needs no maps of its own: it is the vertex world of the ball
pair (V, W), where W = dual_ball(V) is U reindexed, W_i = U_{i+n+1} =
-U_{i+1} (``CenteredBall.second_dual``).  Vertex slot i of (V, W) is edge
slot i of U, and edge slot i of (V, W) is vertex slot i + 1 of U.  So an
edge-world map is the vertex-world map on (V, W) with its edge-indexed
results read one slot later: the coefficients b_i of X_i - X_{i-1} along
V_i - V_{i-1} are the alphas of X on (V, W) one slot later
(``edge_world_coeffs``), the evolute of an edge-world polygon at vertex i
is ``evolute(X, V, W).E[i - 1]``, and ``dual_involute`` is
``involute_points`` on (V, W), one slot later.  ``signed_area_gap`` and
``convex_parent_of_m`` serve both worlds unchanged, given (V, W) for the
edge world, and ``cw.ladder_cusps`` gives the cusps of both
(``evolute_cusps``).  ``evolute``, ``involute_points``, ``dual_involute``,
``signed_area`` and ``signed_area_gap`` take a point list (or scalars) or a
frame (see ``core``) and compute on its integers; the involutes, the
evolute E and its curvature radii are frames, and the two area formulas
are ``signed_area_frame`` and ``signed_area_gap_frame``, whose framed
values the public functions read.  ``containment_check`` takes the curve
as a list or a frame too, frames it once (``core.exact_frame``) and
samples every segment on its one denominator.  Every function here that is
given a ball computes on the ball's backend (``CenteredBall.backend``), and
one given a list whose length is not the ball's 2n raises InputError
(``CenteredBall.require_length``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from typing import Sequence

from .backend import Backend, Scalar
from .core import (
    CenteredBall,
    IdentityError,
    InputError,
    PairedPolygon,
    Stored,
    StoredLadder,
    Vec2,
    Frame,
    ScalarFrame,
    chord_frame,
    exact_frame,
    frame_of,
    integer_frame,
    mixed_area_frame,
    point_key,
    scalar_frame,
    _Framed,
)
from .cw import (
    CentralEquidistant,
    _raise_not_parallel,
    alphas_of,
    betas_of,
    ladder_cusps,
    lambdas_of,
)


@dataclass
class Evolute(_Framed):
    """Centers of curvature E_i with curvature radii mu_i, edge-indexed; the
    radii are a ladder (``core.StoredLadder``), whose frame the checks read."""

    _polygon = "E"
    E: list[Vec2] = Stored()
    mus: list[Scalar] = StoredLadder()


def evolute(points: Sequence[Vec2] | Frame, u: CenteredBall, v: CenteredBall,
            backend: Backend | None = None) -> Evolute:
    """Evolute of a closed constant-U-width vertex list or frame, given the
    dual ball V.

    mu_i = lambda_i / det(U_i, U_{i+1}), so no division by a vanishing edge
    coordinate; it solves P_{i+1} - P_i = mu_i (U_{i+1} - U_i).  E_i = P_i -
    mu_i U_i and the companion form E_i = P_{i+1} - mu_i U_{i+1} must agree
    on all m slots.  The evolute of every equidistant of P equals the
    evolute of P.  In rational mode mu_i = a_i / b_i stays on the integers
    of the frames (a_i = lambda numerator times den(det), b_i = den(lambda)
    times the framed det_i), the two forms are compared by
    cross-multiplication, E is framed over den(P) lcm(b_i den(U)) and
    reduced, and the mus over den(lambda) lcm |det_i|; a float frame
    evaluates the formulas directly.  E repeats after n slots (E_{i+n} =
    E_i, exactly in rational mode), so E is the frame of its first n
    vertices twice, and float rounding cannot make its halves differ.  A
    list whose length is not U's 2n, or a zero det(U_i, U_{i+1}) after the
    lambda solve, raises InputError.  It runs on U's backend; ``backend``,
    if given, must be that one (InputError).
    """
    backend = u.own_backend(backend)
    xs, ys, xden = integer_frame(points)
    m = len(xs)
    n = m // 2
    u.require_length("evolute", m)
    closed = Frame(xs + xs[:1], ys + ys[:1], xden)
    lnums, lden = lambdas_of(closed, v)
    _raise_not_parallel(lnums, closed, v)
    dets, dden = u.divisor_frame
    ux, uy, uden = u.frame
    if backend.exact:
        dl = math.lcm(*dets)  # mu_i = t_i dden (dl / d_i) / (lden dl)
        mus = ScalarFrame([t * dden * (dl // d) for t, d in zip(lnums, dets)], lden * dl)
        ks = [lden * d * uden for d in dets]  # b_i den(U)
        hs = [t * dden * xden for t in lnums]  # a_i den(P)
        for i in range(m):
            j = i + 1 if i + 1 < m else 0
            k, h = ks[i], hs[i]
            if (xs[j] - xs[i]) * k != h * (ux[j] - ux[i]) \
                    or (ys[j] - ys[i]) * k != h * (uy[j] - uy[i]):
                raise IdentityError(f"evolute defining forms disagree at edge {i}")
        L = math.lcm(*ks[:n])
        half = Frame([xs[i] * L - hs[i] * ux[i] * (L // ks[i]) for i in range(n)],
                     [ys[i] * L - hs[i] * uy[i] * (L // ks[i]) for i in range(n)],
                     xden * L).reduced()
    else:
        eq = backend.eq
        mus = [(t / lden) / (d / dden) for t, d in zip(lnums, dets)]
        for i in range(m):
            j = i + 1 if i + 1 < m else 0
            mu = mus[i]
            if not (eq(xs[i] - ux[i] * mu, xs[j] - ux[j] * mu)
                    and eq(ys[i] - uy[i] * mu, ys[j] - uy[j] * mu)):
                raise IdentityError(f"evolute defining forms disagree at edge {i}")
        half = Frame([xs[i] - ux[i] * mus[i] for i in range(n)],
                     [ys[i] - uy[i] * mus[i] for i in range(n)], xden)
    e = Frame(half.xs * 2, half.ys * 2, half.den)
    return Evolute(E=e, mus=mus)


@dataclass
class Involute(_Framed):
    """Involute N of a central equidistant: N_i = M_i + beta_i V_i.

    Edge-indexed with zero diagonals; constant width in the dual ball.
    """

    _polygon = "N"
    N: list[Vec2] = Stored()
    betas: list[Scalar] = StoredLadder()


def involute_points(points: Sequence[Vec2] | Frame, betas: Sequence[Scalar] | ScalarFrame,
                    d: CenteredBall) -> Frame:
    """N_i = X_i + beta_i D_i for a vertex-indexed central polygon X, framed.

    The companion form X_{i+1} + beta_{i+1} D_i must agree.  D is V for the
    vertex world and W for the edge world (see the module docstring).  Both
    forms are built and compared on one common denominator of X and
    beta D, lcm(den(X), den(beta) den(D)); for the betas of X itself it is
    den(beta) den(D).  N repeats after n slots (N_{i+n} = N_i).  The first n
    vertices are divided by their content (``Frame.reduced``) and listed
    twice, so the frame is exactly ``integer_frame`` of its points, and
    float rounding cannot make its halves differ.  Points or betas whose
    length is not D's 2n raise InputError.

    Half-period rule: for an exact doubled X (``Frame.is_doubled``) and an
    exactly symmetric D (``CenteredBall.is_symmetric``), N_{i+n} = N_i holds
    exactly when beta is antiperiodic, beta_{i+n} = -beta_i, and then slot
    i + n of both forms repeats slot i.  So beta is compared first, on its
    integers (the first failure raises "involute halves differ at edge i"),
    and the forms are rescaled and checked on slots 0 .. n-1 only.  Every
    other input, a float one included, checks both forms and the halves on
    all 2n slots: on floats the second half tests the rounding of beta.
    """
    eq = d.backend.eq
    xs, ys, xden = x = integer_frame(points)
    bs, bden = scalar_frame(betas)
    m = len(xs)
    n = m // 2
    d.require_length("involute_points", m)
    d.require_length("involute_points", len(bs), "betas")
    dx, dy, dden = d.frame
    half = x.exact and d.is_symmetric and x.is_doubled
    if half:
        for i in range(n):
            if bs[i + n] != -bs[i]:
                raise IdentityError(f"involute halves differ at edge {i}")
    k = n if half else m  # the slots checked
    # X_0 .. X_k and beta_0 .. beta_k, with X_k = X_0 (X_n = X_0 when doubled)
    xs, ys, bs = xs[:k] + xs[:1], ys[:k] + ys[:1], bs[:k] + [bs[k % m]]
    den = xden
    if x.exact:  # X and beta on the common denominator
        den = math.lcm(xden, bden * dden)
        sx, sb = den // xden, den // (bden * dden)
        xs, ys, bs = [v * sx for v in xs], [v * sx for v in ys], [b * sb for b in bs]
    nx, ny = [], []
    for i in range(k):
        n1x, n1y = xs[i] + dx[i] * bs[i], ys[i] + dy[i] * bs[i]
        n2x, n2y = xs[i + 1] + dx[i] * bs[i + 1], ys[i + 1] + dy[i] * bs[i + 1]
        if not (eq(n1x, n2x) and eq(n1y, n2y)):
            raise IdentityError(f"involute defining forms disagree at edge {i}")
        if i >= n and not (eq(n1x, nx[i - n]) and eq(n1y, ny[i - n])):
            raise IdentityError(f"involute halves differ at edge {i - n}")
        nx.append(n1x)
        ny.append(n1y)
    nx, ny, den = Frame(nx[:n], ny[:n], den).reduced()
    return Frame(nx * 2, ny * 2, den)


def involute(ce: CentralEquidistant, v: CenteredBall) -> Involute:
    """Involute of the central equidistant (vertex world -> edge world).

    Both defining forms N_i = M_i + beta_i V_i = M_{i+1} + beta_{i+1} V_i are
    computed and must agree exactly; the result has zero diagonals.
    """
    betas = frame_of(ce, "betas")
    return Involute(N=involute_points(frame_of(ce, "M"), betas, v), betas=betas)


def _later(values: list) -> list:
    """Move every entry one slot later: out[i] = values[i - 1]."""
    return values[-1:] + values[:-1]


def edge_world_coeffs(points: Sequence[Vec2] | Frame, v: CenteredBall) -> ScalarFrame:
    """Coefficients b_i with X_i - X_{i-1} = b_i (V_i - V_{i-1}), framed: the
    alphas of X on (V, W), one slot later."""
    nums, den = alphas_of(points, v)
    return ScalarFrame(_later(nums), den)


def dual_involute(points: Sequence[Vec2] | Frame, u: CenteredBall, v: CenteredBall,
                  coeffs: Sequence[Scalar] | ScalarFrame | None = None
                  ) -> tuple[Frame, ScalarFrame]:
    """Involute of an edge-indexed central polygon (edge world -> vertex world).

    ``involute_points`` on the ball pair (V, W), one slot later.  Returns
    the frames of M' and of mu, M'_i = N_i + mu_i U_i, whose evolute is the
    input; mu is the alpha ladder of M' and minus the (V, W) betas of the
    input.  ``coeffs``, if given, are the input's coefficients in the form
    ``edge_world_coeffs`` returns, and its (V, W) alphas are read from them,
    one slot earlier, instead of solved: for N(k+1) of the involute ladder
    they are the betas of M(k).  They are checked, not trusted: a
    coefficient that changes the betas fails the defining forms, or the
    halves, of ``involute_points``.  A list or ``coeffs`` whose length is
    not V's 2n raises InputError.
    """
    x = integer_frame(points)
    v.require_length("dual_involute", len(x.xs))
    if coeffs is None:
        al = alphas_of(x, v)
    else:
        nums, den = scalar_frame(coeffs)
        v.require_length("dual_involute", len(nums), "coeffs")
        al = ScalarFrame(nums[1:] + nums[:1], den)
    be = betas_of(al, v)
    mx, my, mden = involute_points(x, be, u.second_dual)
    return Frame(_later(mx), _later(my), mden), -be


def signed_area(points: Sequence[Vec2] | Frame) -> Scalar:
    """Signed area SA(X) = -A(X, X) of a closed (doubled) central polygon:
    the value of ``signed_area_frame``.

    Nonnegative for central equidistants and their involutes.
    """
    return signed_area_frame(points).value()


def signed_area_frame(points: Sequence[Vec2] | Frame) -> ScalarFrame:
    """``signed_area`` as a framed value: ``mixed_area_frame`` negated."""
    (num,), den = mixed_area_frame(points, points)
    return ScalarFrame([-num], den)


def signed_area_gap(betas: Sequence[Scalar] | ScalarFrame, v: CenteredBall) -> Scalar:
    """Right side of the area drop under one involute step: the value of
    ``signed_area_gap_frame``."""
    return signed_area_gap_frame(betas, v).value()


def signed_area_gap_frame(betas: Sequence[Scalar] | ScalarFrame,
                          v: CenteredBall) -> ScalarFrame:
    """``signed_area_gap`` as a framed value: the sum over half the vertices
    of beta_i^2 det(V_{i-1}, V_i), over den(beta)^2 den(det).

    For the edge-world step pass the mu ladder and W: det(W_{i-1}, W_i) =
    det(U_i, U_{i+1}).
    """
    nums, den = scalar_frame(betas)
    dets, dden = v.edge_det_frame
    acc = 0
    for i, b in enumerate(nums[:len(nums) // 2]):
        acc = acc + b * b * dets[i - 1]
    return ScalarFrame([acc], den * den * dden)


@dataclass
class ContainmentResult:
    contained: bool
    tested: int
    witnesses: list[Vec2]
    min_chords: int | None


def containment_check(n_points: Sequence[Vec2] | Frame,
                      parent: PairedPolygon | Sequence[Vec2] | Frame,
                      samples: int = 16) -> ContainmentResult:
    """Verify that a closed curve lies in the region bounded by the central
    equidistant of the parent polygon.

    Each segment is sampled at its endpoints, midpoint, and an even grid of
    `samples` interior points; a sample fails if the chord-midpoint test
    classifies it as exterior (exactly one chord of the parent, or outside
    the parent entirely).  Both backends sample exactly: float coordinates of
    the curve, like those of the parent, are snapped to their exact rational
    values (``core.exact_frame``).  The curve and the parent boundary are
    each framed once per call, the parent by ``core.chord_frame``; a frame
    passes unchanged, and a ``PairedPolygon`` parent gives its ``frame``.  A
    paired parent, a strictly convex 2n-gon whose edges i and i + n are
    exactly antiparallel, counts each sample in O(m) by the winding number
    of its diagonal midpoints M (``core.WindingFrame``); every rational
    parent is paired.  Any other parent, in practice a float one whose
    rounding broke a pair, keeps the O(m^2) edge-pair scan
    (``core.ChordFrame``).  The sample at t = p/L of a segment [a, b] of the
    curve is the integer combination 2x dL = 2(A (L - p) + B p) of the
    numerators A, B on the curve's one denominator d, with L one of 1, 2 and
    samples + 1.  Each sample is counted in its gcd-reduced form, the key
    that drops repeated samples, and no Fraction is built but for a
    witness.  Float rounding places tangential samples (curve touching the
    region boundary) off the boundary, so a float curve's sample that tests
    exterior is retested at t + (1/2 - t) / 10^7 on its own segment, which
    lies in the closed region; min_chords is taken after that retest.
    """
    if samples < 0:
        raise InputError(f"samples must be nonnegative, got {samples}")
    curve = integer_frame(n_points)
    retest = not curve.exact
    L = samples + 1
    steps = [(p, L) for p in range(1, L)]
    if L % 2:  # the midpoint is not on the grid: insert it in order
        steps.insert(samples // 2, (1, 2))
    frame = chord_frame(parent.frame if isinstance(parent, PairedPolygon) else parent)
    k = 2 * frame.den
    seen: set = set()
    witnesses: list[Vec2] = []
    min_chords: int | None = None
    tested = 0
    for seg, p, L in _probes(exact_frame(curve), steps):
        cx, cy, s = _sample(k, seg, p, L)
        key = point_key(cx, cy, 2 * s)
        if key in seen:
            continue
        seen.add(key)
        tested += 1
        # counted as the reduced key: on the curve's one denominator the
        # sample has about twice the bits of its reduced form
        gx, gy, gd = key
        res = frame.count(gx, gy, gd // 2) if gd % 2 == 0 else frame.count(2 * gx, 2 * gy, gd)
        if res.exterior and retest:
            res = frame.count(*_sample(k, seg, 2 * (_NUDGE - 1) * p + L, 2 * _NUDGE * L))
        if res.chords is not None:
            min_chords = res.chords if min_chords is None else min(min_chords, res.chords)
        if res.exterior:
            witnesses.append(frame.point(cx, cy, s))
    return ContainmentResult(contained=not witnesses, tested=tested,
                             witnesses=witnesses, min_chords=min_chords)


_NUDGE = 10 ** 7  # a retest moves 1/_NUDGE of the way to the segment midpoint


def _probes(curve: Frame, steps: list[tuple[int, int]]):
    """Samples of a closed exact curve frame, as (segment, p, L) for t = p/L.

    The segment [a, b], a = A / d and b = B / d on the curve's denominator
    d, is given as (A.x, A.y, B.x, B.y, d).  Each segment yields its start,
    t = 0, and unless it is degenerate the grid of steps.  A doubled curve,
    whose second half repeats its first (``Frame.is_doubled``), yields the
    segments of its first half only: the others repeat their endpoint
    pairs, and so their samples.
    """
    xs, ys, d = curve.half() if curve.is_doubled else curve
    for ax, ay, bx, by in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1]):
        seg = (ax, ay, bx, by, d)
        yield seg, 0, 1
        if ax != bx or ay != by:
            for p, L in steps:
                yield seg, p, L


def _sample(k: int, seg: tuple, p: int, L: int) -> tuple[int, int, int]:
    """The sample at t = p/L of a framed segment as (cx, cy, s) on the
    boundary frame, k = 2 den: 2x = 2(A (L - p) + B p) / (d L)."""
    ax, ay, bx, by, d = seg
    return k * (ax * (L - p) + bx * p), k * (ay * (L - p) + by * p), d * L


def evolute_cusps(ev: Evolute) -> list[int] | None:
    """Edge slots 0 <= i < n where the evolute has a cusp.

    E_i is a cusp when its neighbouring distinct vertices lie strictly in
    the same open half-plane of the line through E_i parallel to the side
    P_i P_{i+1} (the ball edge direction when that side is degenerate).
    This is the cusp rule of M (``cw.cusps_of_central``) in the edge world,
    that is on the ball pair (V, W): E_{j+1} - E_j = (mu_j - mu_{j+1})
    U_{j+1}, and U_{j+1} is a negative multiple of the dual edge
    V_{j+1} - V_j, so mu_{j+1} - mu_j has the sign of
    ``alphas_of(E, V)[j]``.  The cusps are the sign changes
    (``ladder_cusps``) of these differences; they need no solve along V,
    whose parallel test can fail on a float evolute.  Returns None for a
    degenerate (single-point) evolute.
    """
    if ev.degenerate:
        return None
    mus = frame_of(ev, "mus").nums  # over one positive denominator
    return ladder_cusps(map(sub, mus[1:] + mus[:1], mus), ev.n, ev.backend)
