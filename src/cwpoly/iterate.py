"""The involute iteration and its convergence ledger.

Starting from the central equidistant M(0) (with the evolute E recorded as
N(0)), each step takes the involute twice: N(k+1) in the dual world, then
M(k+1) back in the primal world.  Signed areas shrink by exact sums of
squares, the bounded regions nest, and both sequences collapse to a single
point O, the central point of the polygon.

The ladder runs on integer frames (see ``core``): each polygon, alpha and
beta ladder passes from one public function to the next as a ``Frame`` or
``ScalarFrame``, and every new polygon is reduced by one content gcd.  An
exact ladder carries its coefficient ladders from step to step instead of
solving them, and reduces the carried alpha ladder by one content gcd too
(``ScalarFrame.reduced``); a float ladder solves them every step (see
``_ladder``).  The four ledger scalars of each step are stored as the
framed values the step computed (``core.StoredValue``), and each is built
as a scalar only when it is read.  The sum of squares adds the framed gaps
(``core.value_sum``) and is held framed too, and the central point O is
read from the frame of the last M(k).  ``diameter_sq`` scans all pairs of
a float frame or a short one; on an exact frame of 7 or more points whose
coordinates, less point 0's, pass 63 bits, a float ``math.dist`` over all
pairs keeps for the exact scan only those in a proven band of the float
maximum.  ``check_trace`` recomputes the ledger from the frames of
the stored polygons, taking over the areas and float ladders that
``iterate_involutes`` computed from them, passes each frame to the same
formulas, and adds and compares their framed values (``core.value_sum``
of b or -b, ``value_eq``, ``value_le``, ``value_sign``), with no Fraction
in between.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from itertools import combinations, compress, starmap
from typing import Sequence

from .backend import Backend, Scalar
from .ball import MinkowskiPlane
from .core import (Frame, InputError, PairedPolygon, ScalarFrame, Stored, StoredValue, Vec2,
                   frame_of, from_frame, integer_frame, value_eq, value_le, value_sign,
                   value_sum)
from .cw import (
    CentralEquidistant,
    alphas_of,
    betas_of,
    central_equidistant,
    offset_points,
    _total,
)
from .evolute import (
    containment_check,
    dual_involute,
    edge_world_coeffs,
    evolute,
    involute_points,
    signed_area_frame,
    signed_area_gap_frame,
)

DEFAULT_TOL = 1e-9
DEFAULT_STEPS_RATIONAL = 64
DEFAULT_STEPS_FLOAT = 10_000


def diameter_sq(points: Sequence[Vec2] | Frame) -> ScalarFrame:
    """Max squared Euclidean distance over pairs of a nonempty point list,
    framed: the one value nums[0] / den, exact in rational mode, on the
    integer frame of the points.  InputError for no points.

    A float frame, or one of fewer than 7 points, or one whose coordinates
    translated by point 0 fit in 63 bits, is scanned pair by pair.  Else
    (the integer frame of a long exact ladder) the translated coordinates,
    each at most the diameter D, are shifted right by s so that none has
    more than 1000 bits, and ``math.dist`` over the floats keeps only the
    pairs within a relative band 2^-48 of the float maximum for the exact
    scan.  Proof, with u = 2^-53 and S = D / 2^s: the shift's floor error
    is below 1 <= 2^-999 S (none when s = 0) and ``float(int)`` rounds
    correctly, so each float is within 1.01 u S of its scaled coordinate;
    the subtraction inside ``dist`` adds u of a difference <= 1.03 S, so
    the difference vector is within sqrt(2) * 3.1 u S <= 4.4 u S; ``dist``
    is under 1 ulp (Python 3.10 on), which adds 2.1 u S.  So every float
    distance is within 7 u S of its scaled exact one, a diametral pair
    reads within 14 u / (1 - 7 u) < 15 u of the float maximum, relative,
    and 2^-48 = 32 u covers that and the rounding of the threshold.
    """
    f = integer_frame(points)
    xs, ys, den = f
    if not xs:
        raise InputError("diameter of an empty point set")
    pts = list(zip(xs, ys))
    pairs = combinations(pts, 2)
    if len(pts) >= 7 and f.exact:
        x0, y0 = pts[0]
        tx, ty = [x - x0 for x in xs], [y - y0 for y in ys]
        bits = max(max(tx), -min(tx), max(ty), -min(ty)).bit_length()
        if bits > 63:
            s = max(bits - 1000, 0)
            fl = [(float(x >> s), float(y >> s)) for x, y in zip(tx, ty)]
            ds = list(starmap(math.dist, combinations(fl, 2)))
            low = max(ds) * (1 - 2.0 ** -48)
            pairs = compress(combinations(pts, 2), [d >= low for d in ds])
    best = xs[0] - xs[0]  # zero, as an int or a float like the frame
    for (xi, yi), (xj, yj) in pairs:
        dx = xi - xj
        dy = yi - yj
        v = dx * dx + dy * dy
        if v > best:
            best = v
    return ScalarFrame([best], den * den)


@dataclass
class IterationStep:
    """One rung of the ledger: N(k) and M(k) with areas, diameters, gaps.

    gap_mn = SA(M(k-1)) - SA(N(k)) and gap_nm = SA(N(k)) - SA(M(k)); both are
    sums of squares weighted by ball determinants and vanish only at a point.
    At k = 0, N(0) is the evolute of the input polygon and gap_mn is zero.
    The four scalars are held as their framed values (``frame_of`` gives
    them) and read as scalars.
    """

    k: int
    M: list[Vec2] = Stored()
    N: list[Vec2] = Stored()
    sa_m: Scalar = StoredValue()
    sa_n: Scalar = StoredValue()
    gap_mn: Scalar = StoredValue()
    gap_nm: Scalar = StoredValue()
    diam_m: float
    diam_n: float


@dataclass
class IterationTrace:
    """The recorded steps and why the run stopped.

    stop_reason is "tol" (the diameter of M(k) fell below tol; converged is
    then True) or "max_steps".  sumsquares and sa0 are held framed, as the
    ledger scalars of a step are.
    """

    steps: list[IterationStep]
    O: Vec2
    radius: float
    converged: bool
    sumsquares: Scalar = StoredValue()
    sa0: Scalar = StoredValue()
    stop_reason: str
    _known = None  # what iterate_involutes computed, for check_trace; not a field

    @property
    def final(self) -> IterationStep:
        return self.steps[-1]

    @property
    def backend(self) -> Backend:
        return frame_of(self.steps[0], "M").backend


def _centroid(frame: Frame) -> Vec2:
    """The mean of a frame's points, one ``from_frame`` per coordinate of
    the coordinate sum over den times the point count.  A float frame sums
    the same floats in the same order as ``Vec2`` addition of its points
    would (``cw._total``, not the compensated builtin ``sum`` of Python
    3.12 and later), and divides by the same count."""
    xs, ys, den = frame
    m = den * len(xs)
    return Vec2(from_frame(_total(xs), m), from_frame(_total(ys), m))


def iterate_involutes(plane: MinkowskiPlane, max_steps: int | None = None,
                      tol: float | None = None) -> IterationTrace:
    """Iterate the involute until the diameter of M(k) drops below tol.

    Both backends run the same ladder.  Rational mode is exact; coordinate
    size grows linearly with k, so max_steps defaults to 64 there and to
    10 000 in float mode.  tol must be finite and positive.  Not reaching tol
    is not an error: the trace comes back with converged=False and
    stop_reason "max_steps".
    """
    backend = plane.backend
    if max_steps is None:
        max_steps = DEFAULT_STEPS_RATIONAL if backend.exact else DEFAULT_STEPS_FLOAT
    if max_steps < 1:
        raise InputError("max_steps must be at least 1")
    if tol is None:
        tol = DEFAULT_TOL
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tol must be finite and positive, got {tol!r}")

    ce = central_equidistant(plane)
    ev = evolute(plane.P.frame, plane.U, plane.V)
    _, steps, stop_reason, known = _ladder(plane, ce, ev, max_steps, tol)

    last = steps[-1]
    # the framed gaps, added in step order
    acc = ScalarFrame([0], 1)
    for s in steps[1:]:
        acc = value_sum(value_sum(acc, frame_of(s, "gap_mn")), frame_of(s, "gap_nm"))
    trace = IterationTrace(
        steps=steps,
        O=_centroid(frame_of(last, "M")),
        radius=last.diam_m,
        converged=stop_reason == "tol",
        sumsquares=acc if len(steps) > 1 else 0,
        sa0=frame_of(steps[0], "sa_m"),
        stop_reason=stop_reason,
    )
    trace._known = (plane.U, plane.V, known)
    return trace


def _ladder(plane, ce: CentralEquidistant, ev, max_steps, tol):
    """The involute ladder of both backends; returns (k, steps, stop_reason,
    known).

    Both halves of a step are the one checked involute construction: on the
    ball pair (U, V) from M(k) to N(k+1), then on (V, W) back to M(k+1).
    k is the number of steps taken.  Each polygon passes from one public
    function to the next as its ``Frame``, and the alpha and beta ladders as
    ``ScalarFrame``s; the steps store those frames, and the framed values of
    the ledger scalars computed from them.  M(k) and N(k) repeat after n
    vertices (X_{i+n} = X_i), and ``involute_points`` and ``evolute`` return
    them as their first n vertices twice, so every stored polygon, the
    evolute N(0) included, is doubled, and its diameter is measured on its
    first half.  In exact arithmetic the two halves are already equal; in
    float this keeps rounding on the space of central polygons, where the
    step contracts, instead of letting it drift off that space, where the
    step amplifies it.  The balls are symmetric (U_{i+n} = -U_i), so every
    coefficient ladder is antiperiodic (alpha_{i+n} = -alpha_i): on these
    doubled frames ``alphas_of`` solves n slots and negates them, the exact
    ``betas_of`` sums n terms, the exact ``involute_points`` checks n slots
    after one comparison of beta's halves, and the exact shoelace sums n
    terms, with one multiplication each.  The squared diameter of each M(k)
    is measured once and serves the stop test and ``diam_m``.

    Carried ladders: the step is a linear map on coefficient ladders.  The
    betas of M(k) are the edge-world coefficients of N(k+1) (its (V, W)
    alphas, one slot later), and the mu that ``dual_involute`` returns is
    the alpha ladder of M(k+1).  So an exact ladder takes alpha(0) from the
    central equidistant, hands beta to ``dual_involute`` as the
    coefficients of N(k+1), and carries mu, divided by its content
    (``ScalarFrame.reduced``), as alpha(k+1) and as the ladder of gap_nm;
    it makes no edge-coefficient solve.  Unreduced, mu's denominator would
    grow by 4 den(det U) den(det V) a step.  Nothing goes unchecked:
    ``involute_points`` checks both defining forms of both half-steps on the
    carried betas, and a wrong coefficient fails there.  A float ladder
    (``Frame.exact`` false) solves both ladders of every later polygon
    instead, once each (``edge_world_coeffs`` of N(k+1) goes to
    ``dual_involute``): carried floats round away from antiperiodicity,
    step after step, until the halves of an involute differ; a solve puts
    each ladder back on the doubled polygon it belongs to.

    known[k] is [M(k), N(k), SA(M(k)), SA(N(k)), alphas of M(k), edge-world
    coefficients of N(k)], the frames and what was computed from them; a
    ladder is None where it was not solved (every carried one).
    """
    u, v, w = plane.U, plane.V, plane.W
    m_frame, n_frame = (frame_of(ce, "M"), frame_of(ev, "E"))
    carry = m_frame.exact
    cut = Fraction(tol) ** 2
    cut = cut if carry else _float_ceil(cut)
    d2 = diameter_sq(m_frame.half())
    sa_m, sa_n = signed_area_frame(m_frame), signed_area_frame(n_frame)
    steps = [IterationStep(
        k=0, M=m_frame, N=n_frame, sa_m=sa_m, sa_n=sa_n,
        gap_mn=0, gap_nm=value_sum(sa_n, -sa_m),
        diam_m=_sqrt(d2), diam_n=_sqrt(diameter_sq(n_frame.half())),
    )]
    known = [[m_frame, n_frame, sa_m, sa_n, None, None]]
    al = frame_of(ce, "alphas")  # solved on M(0)'s frame
    for k in range(1, max_steps + 1):
        if _below(d2, cut):
            break
        if not (carry or k == 1):
            al = known[-1][4] = alphas_of(m_frame, u)
        be = betas_of(al, u)
        n_frame = involute_points(m_frame, be, v)
        ew = be if carry else edge_world_coeffs(n_frame, v)
        m_frame, mu = dual_involute(n_frame, u, v, ew)
        al = mu.reduced()
        m_half, n_half = m_frame.half(), n_frame.half()
        d2 = diameter_sq(m_half)
        sa_m, sa_n = signed_area_frame(m_frame), signed_area_frame(n_frame)
        steps.append(IterationStep(
            k=k, M=m_frame, N=n_frame, sa_m=sa_m, sa_n=sa_n,
            gap_mn=signed_area_gap_frame(be, v), gap_nm=signed_area_gap_frame(al, w),
            diam_m=_sqrt(d2), diam_n=_sqrt(diameter_sq(n_half)),
        ))
        known.append([m_frame, n_frame, sa_m, sa_n, None, None if carry else ew])
    return len(steps) - 1, steps, "tol" if _below(d2, cut) else "max_steps", known


def _sqrt(value: ScalarFrame) -> float:
    """sqrt(num / den) of a framed value as a float; the integer quotient is
    correctly rounded, as ``float`` of the Fraction would be.  A quotient
    beyond float range (a squared diameter above about 1.8e308) is rooted
    by ``math.isqrt`` of its integer part instead, which is within one unit
    in the last place; OverflowError is left only for a root beyond float
    range."""
    (num,), den = value
    try:
        return math.sqrt(num / den)
    except OverflowError:
        return float(math.isqrt(num // den))


def _sci(x) -> str:
    """``f"{float(x):.3e}"``, also for an exact value beyond float range,
    which is one ``decimal`` division rounded half to even to 4 significant
    digits."""
    try:
        return f"{float(x):.3e}"
    except OverflowError:
        pass
    x = Fraction(x)
    with localcontext() as ctx:
        ctx.prec = 4
        ctx.Emax = MAX_EMAX
        ctx.rounding = ROUND_HALF_EVEN
        return f"{Decimal(x.numerator) / Decimal(x.denominator):.3e}"


def _float_ceil(q: Fraction) -> float:
    """The least float c >= q > 0 (inf beyond float range), so that a float
    x < c exactly when x < q."""
    try:
        c = float(q)
    except OverflowError:
        return math.inf
    return c if c >= q else math.nextafter(c, math.inf)


def _below(value: ScalarFrame, bound) -> bool:
    """num / den < bound, exactly, for a framed value with den > 0: a
    Fraction bound on an exact value, a ``_float_ceil`` on a float one."""
    (num,), den = value
    if type(den) is float:
        return num / den < bound
    return num * bound.denominator < bound.numerator * den


def width_family(trace: IterationTrace, plane: MinkowskiPlane, k: int,
                 c: Scalar, d: Scalar):
    """The constant-width polygons around step k: M(k) + cU and N(k) + dV.

    As k grows both converge to balls of the respective norms centered at
    the central point O.
    """
    if not 0 <= k < len(trace.steps):
        raise InputError(f"step {k} not in trace (0..{len(trace.steps) - 1})")
    c, d = plane.backend.convert(c), plane.backend.convert(d)
    step = trace.steps[k]
    return (PairedPolygon(offset_points(frame_of(step, "M"), plane.U, c)),
            PairedPolygon(offset_points(frame_of(step, "N"), plane.V, d)))


def convex_parent_of_m(m_points, u, backend: Backend | None = None) -> Frame:
    """A convex equidistant of a vertex-world central polygon (for region tests):
    width one more than the largest -alpha, as its frame (``offset_points``).

    The width is read from the numerators of the alpha frame, which builds
    one scalar.  Given V for u, the convex dual-width equidistant of an
    edge-world polygon.  It runs on u's backend; ``backend``, if given, must
    be that one (InputError).
    """
    u.own_backend(backend)
    f = integer_frame(m_points)
    nums, den = alphas_of(f, u)
    return offset_points(f, u, from_frame(den - min(nums), den))


_UNKNOWN = (None,) * 6  # a record row that matches no frame


@dataclass
class TraceCheck:
    check_id: str
    ok: bool
    detail: str = ""


def check_trace(trace: IterationTrace, plane: MinkowskiPlane) -> list[TraceCheck]:
    """Independent re-verification of the iteration ledger.

    Takes every signed area and coefficient ladder from the stored polygons
    and confirms: nonnegative monotone areas, the two per-step gap
    identities, the cumulative sum-of-squares bound against SA(M(0)), and
    non-increasing diameters.  Each polygon's signed area and coefficient
    ladder come from its frame (``core.frame_of``), once per trace: an area,
    or a ladder the float ladder solved, is taken from the record of
    ``iterate_involutes`` only for the frame object it was computed from, on
    this plane's U and V.  Every other ladder, so every exact one, is
    solved here.  Areas, gaps and the running sum stay framed values, added
    and compared on integers in rational mode and as the float quotients in
    float mode; the only Fractions built are the slack and the residual
    that the detail prints.
    """
    backend = trace.backend
    u, v, w = plane.U, plane.V, plane.W
    out: list[TraceCheck] = []

    # the frame, SA and record row of every stored polygon: M(k) at index
    # k, and N(k) for k > 0 (index 0 is unused)
    steps = trace.steps
    rec = trace._known
    rows = rec[2][:len(steps)] if rec and rec[0] is u and rec[1] is v else []
    rows += [_UNKNOWN] * (len(steps) - len(rows))
    m_frames = [frame_of(s, "M") for s in steps]
    n_frames = [None] + [frame_of(s, "N") for s in steps[1:]]
    sa_m = [r[2] if f is r[0] else signed_area_frame(f) for f, r in zip(m_frames, rows)]
    sa_n = [None] + [r[3] if f is r[1] else signed_area_frame(f)
                     for f, r in zip(n_frames[1:], rows[1:])]

    chain = [sa_m[0]] + [x for pair in zip(sa_n[1:], sa_m[1:]) for x in pair]
    ok = all(value_sign(x) >= 0 for x in chain) and all(
        value_le(chain[i + 1], chain[i]) for i in range(len(chain) - 1))
    out.append(TraceCheck("iterate.sa_chain_monotone", ok,
                          f"{len(chain)} signed areas"))

    detail = ""
    acc = ScalarFrame([0], 1)
    sa0 = sa_m[0]
    for idx in range(1, len(steps)):
        k = steps[idx].k
        m, n, r = m_frames[idx], n_frames[idx], rows[idx]
        be = r[5] if n is r[1] and r[5] is not None else edge_world_coeffs(n, v)
        rhs = signed_area_gap_frame(be, v)
        if not value_eq(value_sum(sa_m[idx - 1], -sa_n[idx]), rhs):
            detail = f"beta gap fails at k={k}"
            break
        al = r[4] if m is r[0] and r[4] is not None else alphas_of(m, u)
        rhs2 = signed_area_gap_frame(al, w)
        if not value_eq(value_sum(sa_n[idx], -sa_m[idx]), rhs2):
            detail = f"alpha gap fails at k={k}"
            break
        acc = value_sum(value_sum(acc, rhs), rhs2)
        if not value_le(acc, sa0):
            detail = f"sum of squares exceeds SA(M(0)) at k={k}"
            break
    out.append(TraceCheck("iterate.gap_identities", not detail, detail))

    slack = value_sum(sa0, -acc).value()
    residual = sa_m[-1].value()
    out.append(TraceCheck(
        "iterate.sumsquares_bound",
        backend.sign(slack) >= 0 and backend.eq(slack, residual),
        f"slack={_sci(slack)} residual={_sci(residual)}"))

    diams = [steps[0].diam_m] + [d for s in steps[1:] for d in (s.diam_n, s.diam_m)]
    eps = 0.0 if backend.exact else 1e-12
    ok = all(diams[i + 1] <= diams[i] + eps for i in range(len(diams) - 1))
    out.append(TraceCheck("iterate.diameters_nonincreasing", ok,
                          f"first={diams[0]:.3e} last={diams[-1]:.3e}"))
    return out


def check_nesting(trace: IterationTrace, plane: MinkowskiPlane,
                  max_steps: int | None = None) -> list[TraceCheck]:
    """Region-nesting spot check via chord counting.

    Every vertex of N(k+1) must avoid the exterior of M(k), and every vertex
    of M(k) the exterior of N(k); the convex parents needed by the chord test
    are rebuilt at a safe width.  Each check frames its parent once and
    tests the vertices and edge midpoints (``containment_check`` with
    samples=0).  Both parents are paired, so on the rational backend each
    tested point costs one O(n) winding count (``core.WindingFrame``); exact
    coordinates grow with k, so callers bound the number of steps examined.
    """
    out: list[TraceCheck] = []
    limit = len(trace.steps) if max_steps is None else min(len(trace.steps), max_steps + 1)
    for idx in range(1, limit):
        prev, cur = trace.steps[idx - 1], trace.steps[idx]
        parent_m = convex_parent_of_m(frame_of(prev, "M"), plane.U)
        res = containment_check(frame_of(cur, "N"), parent_m, samples=0)
        out.append(TraceCheck(f"iterate.nesting_n{cur.k}_in_m{prev.k}", res.contained,
                              f"{res.tested} vertices"))
        parent_n = convex_parent_of_m(frame_of(cur, "N"), plane.V)
        res = containment_check(frame_of(cur, "M"), parent_n, samples=0)
        out.append(TraceCheck(f"iterate.nesting_m{cur.k}_in_n{cur.k}", res.contained,
                              f"{res.tested} vertices"))
    return out
