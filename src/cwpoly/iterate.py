"""The involute iteration and its convergence ledger.

Starting from the central equidistant M(0) (with the evolute E recorded as
N(0)), each step takes the involute twice: N(k+1) in the dual world, then
M(k+1) back in the primal world.  Signed areas shrink by exact sums of
squares, the bounded regions nest, and both sequences collapse to a single
point O, the central point of the polygon.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .backend import Backend, Scalar
from .ball import MinkowskiPlane
from .core import InputError, PairedPolygon, Vec2
from .cw import CentralEquidistant, alphas_of, betas_of, central_equidistant
from .evolute import (
    dual_area_gap,
    dual_involute,
    edge_world_coeffs,
    evolute,
    signed_area,
    signed_area_gap,
)

DEFAULT_TOL = 1e-9
DEFAULT_STEPS_RATIONAL = 64
DEFAULT_STEPS_FLOAT = 10_000
# a step may grow the squared diameter to at most 64x (the diameter to 8x)
# the smallest seen so far before the noise guard stops the run
NOISE_FACTOR = 64


def diameter_sq(points) -> Scalar:
    """Max squared Euclidean distance over vertex pairs (exact in rational mode)."""
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    best = 0
    for i in range(len(xs)):
        xi, yi = xs[i], ys[i]
        for j in range(i + 1, len(xs)):
            dx = xi - xs[j]
            dy = yi - ys[j]
            v = dx * dx + dy * dy
            if v > best:
                best = v
    return best


def diameter(points) -> float:
    return math.sqrt(float(diameter_sq(points)))


@dataclass
class IterationStep:
    """One rung of the ledger: N(k) and M(k) with areas, diameters, gaps.

    gap_mn = SA(M(k-1)) - SA(N(k)) and gap_nm = SA(N(k)) - SA(M(k)); both are
    sums of squares weighted by ball determinants and vanish only at a point.
    At k = 0, N(0) is the evolute of the input polygon and gap_mn is zero.
    """

    k: int
    M: list[Vec2]
    N: list[Vec2]
    sa_m: Scalar
    sa_n: Scalar
    gap_mn: Scalar
    gap_nm: Scalar
    diam_m: float
    diam_n: float


@dataclass
class IterationTrace:
    """The recorded steps and why the run stopped.

    stop_reason is "tol" (the diameter of M(k) fell below tol; converged is
    then True), "max_steps", or "noise" (float rounding noise began to grow;
    see ``_ladder``).
    """

    steps: list[IterationStep]
    O: Vec2
    radius: float
    converged: bool
    n: int
    backend: Backend
    sumsquares: Scalar
    sa0: Scalar
    stop_reason: str

    @property
    def final(self) -> IterationStep:
        return self.steps[-1]


def _centroid(points) -> Vec2:
    sx = sy = 0
    for p in points:
        sx = sx + p.x
        sy = sy + p.y
    return Vec2(sx / len(points), sy / len(points))


def iterate_involutes(plane: MinkowskiPlane, max_steps: int | None = None,
                      tol: float | None = None) -> IterationTrace:
    """Iterate the involute until the diameter of M(k) drops below tol.

    Both backends run the same ladder.  Rational mode is exact; coordinate
    size grows linearly with k, so max_steps defaults to 64 there and to
    10 000 in float mode.  tol must be finite and positive.  Not reaching tol
    is not an error: the trace comes back with converged=False and says in
    stop_reason whether max_steps ran out or float noise cut the run short.
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
    ev = evolute(plane.P.vertices, plane.U, plane.V, backend)
    _, steps, stop_reason = _ladder(plane, ce, ev, max_steps, tol)

    last = steps[-1]
    total = 0
    for s in steps[1:]:
        total = total + s.gap_mn + s.gap_nm
    return IterationTrace(
        steps=steps,
        O=_centroid(last.M),
        radius=last.diam_m,
        converged=stop_reason == "tol",
        n=plane.n,
        backend=backend,
        sumsquares=total,
        sa0=steps[0].sa_m,
        stop_reason=stop_reason,
    )


def _ladder(plane, ce: CentralEquidistant, ev, max_steps, tol):
    """The involute ladder of both backends; returns (k, steps, stop_reason).

    k is the number of steps taken.  M(k) and N(k) repeat after n vertices
    (X_{i+n} = X_i), so their diameters run over the first n.  The squared
    diameter of each M(k) is measured once and serves the stop test,
    ``diam_m`` and the noise guard.

    Noise guard: a step whose squared diameter is not within NOISE_FACTOR of
    the smallest so far is dropped and the run stops.  Far past convergence,
    float rounding leaves the subspace of central polygons and the ladder
    amplifies it; the test also catches NaN and inf.  Diameters never
    increase in exact arithmetic, so it never fires there.
    """
    backend = plane.backend
    n = plane.n
    u, v = plane.U, plane.V
    tol2 = Fraction(tol) ** 2
    cur = list(ce.M)
    d2 = best = diameter_sq(cur[:n])
    sa_m, sa_n = signed_area(cur), signed_area(ev.E)
    steps = [IterationStep(
        k=0, M=cur, N=list(ev.E), sa_m=sa_m, sa_n=sa_n,
        gap_mn=0, gap_nm=sa_n - sa_m,
        diam_m=math.sqrt(float(d2)), diam_n=diameter(ev.E[:n]),
    )]
    for k in range(1, max_steps + 1):
        if d2 < tol2:
            break
        be = betas_of(alphas_of(cur, u, backend), u)
        nxt_n = [cur[i] + v.vertices[i] * be[i] for i in range(2 * n)]
        nxt_m, _, mus = dual_involute(nxt_n, u, v, backend)
        d2 = diameter_sq(nxt_m[:n])
        if not d2 <= NOISE_FACTOR * best:
            return k - 1, steps, "noise"
        best = min(best, d2)
        steps.append(IterationStep(
            k=k, M=nxt_m, N=nxt_n,
            sa_m=signed_area(nxt_m), sa_n=signed_area(nxt_n),
            gap_mn=signed_area_gap(be, v), gap_nm=dual_area_gap(mus, u),
            diam_m=math.sqrt(float(d2)), diam_n=diameter(nxt_n[:n]),
        ))
        cur = nxt_m
    return len(steps) - 1, steps, "tol" if d2 < tol2 else "max_steps"


def width_family(trace: IterationTrace, plane: MinkowskiPlane, k: int,
                 c: Scalar, d: Scalar):
    """The constant-width polygons around step k: M(k) + cU and N(k) + dV.

    As k grows both converge to balls of the respective norms centered at
    the central point O.
    """
    if not 0 <= k < len(trace.steps):
        raise InputError(f"step {k} not in trace (0..{len(trace.steps) - 1})")
    backend = plane.backend
    c = backend.convert(c)
    d = backend.convert(d)
    step = trace.steps[k]
    m = 2 * plane.n
    p_k = PairedPolygon([step.M[i] + plane.U.vertices[i] * c for i in range(m)],
                        plane.n, backend)
    q_k = PairedPolygon([step.N[i] + plane.V.vertices[i] * d for i in range(m)],
                        plane.n, backend)
    return p_k, q_k


def convex_parent_of_m(m_points, u, backend, margin=1) -> list[Vec2]:
    """A convex equidistant of a vertex-world central polygon (for region tests)."""
    al = alphas_of(m_points, u, backend)
    c = max(-a for a in al) + backend.convert(margin)
    return [m_points[i] + u.vertices[i] * c for i in range(len(m_points))]


def convex_parent_of_n(n_points, v, backend, margin=1) -> list[Vec2]:
    """A convex dual-width equidistant of an edge-world central polygon."""
    b = edge_world_coeffs(n_points, v, backend)
    d = max(-t for t in b) + backend.convert(margin)
    return [n_points[i] + v.vertices[i] * d for i in range(len(n_points))]


@dataclass
class TraceCheck:
    check_id: str
    ok: bool
    detail: str = ""


def check_trace(trace: IterationTrace, plane: MinkowskiPlane) -> list[TraceCheck]:
    """Independent re-verification of the iteration ledger.

    Recomputes every signed area and coefficient ladder from the stored
    polygons and confirms: nonnegative monotone areas, the two per-step gap
    identities, the cumulative sum-of-squares bound against SA(M(0)), and
    non-increasing diameters.
    """
    backend = trace.backend
    u, v = plane.U, plane.V
    out: list[TraceCheck] = []

    chain: list[Scalar] = []
    for s in trace.steps:
        if s.k > 0:
            chain.append(signed_area(s.N))
        chain.append(signed_area(s.M))
    ok = all(backend.sign(x) >= 0 for x in chain) and all(
        backend.le(chain[i + 1], chain[i]) for i in range(len(chain) - 1))
    out.append(TraceCheck("iterate.sa_chain_monotone", ok,
                          f"{len(chain)} signed areas"))

    ok = True
    detail = ""
    acc = 0
    sa0 = signed_area(trace.steps[0].M)
    for idx in range(1, len(trace.steps)):
        prev, cur = trace.steps[idx - 1], trace.steps[idx]
        be = edge_world_coeffs(cur.N, v, backend)
        lhs = signed_area(prev.M) - signed_area(cur.N)
        rhs = signed_area_gap(be, v)
        if not backend.eq(lhs, rhs):
            ok = False
            detail = f"beta gap fails at k={cur.k}"
            break
        al = alphas_of(cur.M, u, backend)
        lhs2 = signed_area(cur.N) - signed_area(cur.M)
        rhs2 = dual_area_gap(al, u)
        if not backend.eq(lhs2, rhs2):
            ok = False
            detail = f"alpha gap fails at k={cur.k}"
            break
        acc = acc + rhs + rhs2
        if backend.sign(sa0 - acc) < 0:
            ok = False
            detail = f"sum of squares exceeds SA(M(0)) at k={cur.k}"
            break
    out.append(TraceCheck("iterate.gap_identities", ok, detail))

    slack = sa0 - acc
    residual = signed_area(trace.steps[-1].M)
    out.append(TraceCheck(
        "iterate.sumsquares_bound",
        backend.sign(slack) >= 0 and backend.eq(slack, residual),
        f"slack={float(slack):.3e} residual={float(residual):.3e}"))

    diams = []
    for s in trace.steps:
        if s.k > 0:
            diams.append(s.diam_n)
        diams.append(s.diam_m)
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
    are rebuilt at a safe width.  Exact but quadratic, so callers bound the
    number of steps examined.
    """
    from .evolute import containment_check

    backend = trace.backend
    out: list[TraceCheck] = []
    limit = len(trace.steps) if max_steps is None else min(len(trace.steps), max_steps + 1)
    for idx in range(1, limit):
        prev, cur = trace.steps[idx - 1], trace.steps[idx]
        parent_m = convex_parent_of_m(prev.M, plane.U, backend)
        res = containment_check(cur.N, parent_m, samples=0)
        out.append(TraceCheck(f"iterate.nesting_n{cur.k}_in_m{prev.k}", res.contained,
                              f"{res.tested} vertices"))
        parent_n = convex_parent_of_n(cur.N, plane.V, backend)
        res = containment_check(cur.M, parent_n, samples=0)
        out.append(TraceCheck(f"iterate.nesting_m{cur.k}_in_n{cur.k}", res.contained,
                              f"{res.tested} vertices"))
    return out
