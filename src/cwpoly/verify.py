"""Whole-structure verification of one polygon: every identity the library
maintains, run on a single instance and collected into a machine-readable
report.  The rational backend demands exact equality; the float backend
compares within its tolerance.

The identity checks read framed values (see ``core``): the widths and the
dual-ball identity one table of det(X_j, V_i), and the five checks of the
c-equidistants one ``cw.EquidistantFrame`` per c.  They compare numerators
by cross-multiplication (``core.frame_eq``), index by index in the order
the report names the first failure.  The point identities (the dual
balls, the shared evolute, the involute's diagonals and evolute, and the
involute of the evolute) compare two frames point by point
(``core.first_mismatch``), and the curvature-radius pairs read the mu
ladder's frame, so the suite builds no point list.  ``areas.signed_gap``
compares the framed drop SA(M) - SA(N), a ``core.value_sum`` of SA(M) and
-SA(N), with the framed gap (``value_sign``, ``value_eq``).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .backend import Backend
from .ball import (
    MinkowskiPlane,
    ball_from_dual,
    det_table,
    dual_ball,
    framed_widths,
    is_constant_width,
)
from .core import (
    CenteredBall,
    GeometryError,
    InputError,
    first_mismatch,
    frame_eq,
    frame_of,
    minkowski_frame,
    mixed_area,
    polygon_area,
    scalar_frame,
    value_eq,
    value_sign,
    value_sum,
)
from .cw import (
    EquidistantFrame,
    central_equidistant,
    cusps_of_central,
    v_length,
    window_sums,
)
from .evolute import (
    containment_check,
    dual_involute,
    evolute,
    evolute_cusps,
    involute,
    signed_area_frame,
    signed_area_gap_frame,
)
from .fuzz import random_rational
from .iterate import check_trace, convex_parent_of_m, iterate_involutes


@dataclass
class Check:
    check_id: str
    expected: str
    actual: str
    ok: bool

    def to_json(self, backend_name: str) -> dict:
        return {
            "check_id": self.check_id,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.ok,
            "backend": backend_name,
        }


@dataclass
class Report:
    backend: str
    seed: int
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.ok)

    @property
    def all_ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "backend": self.backend,
            "seed": self.seed,
            "summary": {
                "total": len(self.checks),
                "passed": self.passed,
                "failed": self.failed,
            },
            "checks": [c.to_json(self.backend) for c in self.checks],
        }


def _s(backend: Backend, value) -> str:
    return str(backend.to_json(value))


def run_verify(plane: MinkowskiPlane, seed: int = 0, samples: int = 16,
               iterate_steps: int = 8) -> Report:
    """Run the full identity suite on one constant-width setup.

    A negative ``samples`` or an ``iterate_steps`` below 1 raises InputError
    before any check runs: it is a bad argument, not a failed check.
    """
    if samples < 0:
        raise InputError(f"samples must be nonnegative, got {samples}")
    if iterate_steps < 1:
        raise InputError(f"iterate_steps must be at least 1, got {iterate_steps}")
    backend = plane.backend
    rng = random.Random(seed)
    report = Report(backend=backend.name, seed=seed)
    add = report.checks.append

    def guarded(check_id: str, expected: str, fn):
        try:
            actual, ok = fn()
        except GeometryError as e:
            actual, ok = f"error: {e}", False
        add(Check(check_id, expected, actual, ok))

    u, v, paired = plane.U, plane.V, plane.P
    eq = backend.eq

    # --- structure ---------------------------------------------------------
    def chk_paired():
        paired.validate()
        return "valid", True
    guarded("paired.invariants", "valid", chk_paired)

    def chk_ball():
        u.validate()
        v.validate()
        return "valid", True
    guarded("ball.invariants", "valid", chk_ball)

    def chk_width():
        res = is_constant_width(paired, u)
        if not res.ok:
            return f"no (index {res.witness}: {res.reason})", False
        if not eq(res.a, plane.a):
            return f"a={_s(backend, res.a)}", False
        ws, wden = framed_widths(*paired.frame, v)
        (a,), aden = scalar_frame([plane.a])
        ok = all(frame_eq(w_, wden, 2 * a, aden) for w_ in ws)
        return f"yes(a={_s(backend, res.a)})" if ok else "width varies", ok
    guarded("cw.constant_width", f"yes(a={_s(backend, plane.a)})", chk_width)

    # --- dual ball ---------------------------------------------------------
    guarded("ball.dual_identity", "all edges at dual norm 1",
            lambda: _chk_dual_identity(u, v))

    def chk_involution():
        ok = first_mismatch(dual_ball(v).frame, u.frame, plane.n + 1) is None
        return "index shift n+1", ok
    guarded("ball.dual_involution", "index shift n+1", chk_involution)

    def chk_recovery():
        return "recovers U", first_mismatch(ball_from_dual(v).frame, u.frame) is None
    guarded("ball.dual_recovery", "recovers U", chk_recovery)

    # --- central equidistant and lengths ------------------------------------
    # a failed structure check (non-parallel claimed-paired input) makes the
    # coefficient ladders unsolvable; report and stop instead of raising
    try:
        ce = central_equidistant(plane)
        ev = evolute(paired.frame, u, v)
        inv = involute(ce, v)
    except GeometryError as e:
        add(Check("suite.ladders", "solvable", f"aborted: {e}", False))
        return report
    area_u = u.area
    m_frame = frame_of(ce, "M")

    def chk_central_zero():
        lv = v_length(m_frame, v, closed=True)
        return _s(backend, lv), eq(lv, 0)
    guarded("cw.central_v_length_zero", "0", chk_central_zero)

    cs = [plane.a, backend.convert(1), backend.convert(random_rational(rng))]
    # one frame of the c-equidistant per c serves the five cw checks
    frames = [EquidistantFrame(ce, u, c) for c in cs]

    guarded("cw.barbier", "2cA(U) at all c", lambda: _chk_barbier(frames, v))
    guarded("cw.half_arc_length", "cA(U) + 2beta_i",
            lambda: _chk_half_arc(frames, v, area_u))
    guarded("cw.half_area", "A1 - A2 = 4c beta_i", lambda: _chk_half_area(frames))
    guarded("cw.half_arc_invariant", "constant over i", lambda: _chk_invariant(frames))
    guarded("cw.isoperimetric", "L^2 >= 4 A(U) A(P)",
            lambda: _chk_isoperimetric(frames, v, area_u))

    def chk_mixed():
        lv = v_length(paired.frame, v, closed=True)
        mixed = mixed_area(paired.frame, u.frame)
        if not eq(mixed, lv / 2):
            return "A(P,U) != L_V(P)/2", False
        lhs = polygon_area(minkowski_frame(paired.frame, u.frame))
        rhs = polygon_area(paired.frame) + 2 * mixed + area_u
        return ("A(P+U) expansion", eq(lhs, rhs))
    guarded("core.mixed_area", "A(P+U) expansion", chk_mixed)

    # --- cusps ---------------------------------------------------------------
    cusps_m = cusps_of_central(ce)

    def chk_cusps_m():
        if cusps_m is None:
            return "degenerate", True
        ok = len(cusps_m) % 2 == 1 and len(cusps_m) >= 3
        return f"{len(cusps_m)} cusps", ok
    guarded("cw.cusps_odd_ge3", "odd count >= 3 (or degenerate)", chk_cusps_m)

    # --- evolute / involute ---------------------------------------------------
    def chk_mu_pairs():
        mus, den = frame_of(ev, "mus")
        (a2,), a2den = scalar_frame([2 * plane.a])
        for i in range(plane.n):
            if not frame_eq(mus[i] + mus[i + plane.n], den, a2, a2den):
                return f"pair {i}", False
        return "mu_i + mu_{i+n} = 2a", True
    guarded("evolute.mu_pair_sums", "mu_i + mu_{i+n} = 2a", chk_mu_pairs)

    def chk_evolute_shared():
        ev2 = evolute(frames[1].frame, u, v)  # the equidistant at c = 1
        ok = first_mismatch(frame_of(ev2, "E"), frame_of(ev, "E")) is None
        return "equidistants share the evolute", ok
    guarded("evolute.shared_by_equidistants", "equidistants share the evolute",
            chk_evolute_shared)

    def chk_involute_structure():
        n_frame = frame_of(inv, "N")
        i = first_mismatch(n_frame.half(), n_frame, plane.n)  # N_i against N_{i+n}
        if i is not None:
            return f"diagonal {i} nonzero", False
        # the edge-world evolute is the (V, W) evolute, one slot later
        back = frame_of(evolute(n_frame, v, plane.W), "E")
        return "zero diagonals; evolute is M", first_mismatch(back, m_frame, 1) is None
    guarded("involute.structure", "zero diagonals; evolute is M", chk_involute_structure)

    def chk_dual_involute_roundtrip():
        back = dual_involute(frame_of(ev, "E"), u, v)[0]
        return "involute of the evolute is M", first_mismatch(back, m_frame) is None
    guarded("involute.of_evolute", "involute of the evolute is M",
            chk_dual_involute_roundtrip)

    def chk_areas():
        sa_m, sa_n = signed_area_frame(m_frame), signed_area_frame(frame_of(inv, "N"))
        if value_sign(sa_m) < 0 or value_sign(sa_n) < 0:
            return "negative signed area", False
        drop = value_sum(sa_m, -sa_n)
        if value_sign(drop) < 0:
            return "SA(M) < SA(N)", False
        gap = signed_area_gap_frame(frame_of(ce, "betas"), v)
        return (f"gap {_s(backend, drop.value())}", value_eq(drop, gap))
    guarded("areas.signed_gap", "SA(M) - SA(N) = sum beta^2 det(V,V)", chk_areas)

    def chk_containment():
        parent = convex_parent_of_m(m_frame, u)
        res = containment_check(frame_of(inv, "N"), parent, samples=samples)
        return (f"{res.tested} samples, min chords {res.min_chords}", res.contained)
    guarded("containment.involute_in_central", "no exterior samples", chk_containment)

    def chk_cusps_e():
        ec = evolute_cusps(ev)
        if ec is None or cusps_m is None:
            return "degenerate", True
        ok = len(ec) % 2 == 1 and len(ec) >= len(cusps_m)
        return f"{len(ec)} cusps vs {len(cusps_m)}", ok
    guarded("evolute.cusps_odd_ge_central", "odd count >= cusps of M", chk_cusps_e)

    # --- iteration ledger ------------------------------------------------------
    def chk_iterate():
        trace = iterate_involutes(plane, max_steps=iterate_steps)
        results = check_trace(trace, plane)
        bad = [r for r in results if not r.ok]
        if bad:
            return "; ".join(f"{r.check_id}: {r.detail}" for r in bad), False
        return f"{len(trace.steps) - 1} steps, ledger exact", True
    guarded("iterate.ledger", "monotone areas, exact gaps, bounded sums", chk_iterate)

    return report


# Checks that read framed values: each returns (actual, ok) as run_verify
# reports it, and may raise GeometryError, which run_verify reports as an
# error.  The cw checks take one EquidistantFrame per c, in the order the
# values of c are tried.

def _chk_dual_identity(u: CenteredBall, v: CenteredBall) -> tuple[str, bool]:
    """[U_j, V_i] = 1 on edge i of U (j = i, i + 1) and <= 1 elsewhere.
    [., V_i] is linear along edge i, so its two ends decide the whole edge."""
    backend = u.backend
    m = len(u)
    ux, uy, uden = u.frame
    vx, vy, vden = v.frame
    rows = det_table(ux, uy, vx, vy)  # [U_j, V_i] = rows[i][j] / one
    one = uden * vden
    for i in range(m):
        if not (backend.eq(rows[i][i], one) and backend.eq(rows[i][(i + 1) % m], one)):
            return f"edge {i} fails", False
    for i in range(m):
        for j in range(m):
            if j in (i, (i + 1) % m):
                continue
            if backend.sign(rows[i][j] - one) > 0:
                return f"vertex {j} exceeds dual unit at edge {i}", False
    return "all edges at dual norm 1", True


def _chk_barbier(frames: list[EquidistantFrame], v: CenteredBall) -> tuple[str, bool]:
    backend = frames[0].backend
    for f in frames:
        res = f.barbier(v)
        if not backend.eq(res.expected, res.actual):
            return f"c={_s(backend, f.c)}: {_s(backend, res.actual)}", False
    return "2cA(U) at all c", True


def _chk_half_arc(frames: list[EquidistantFrame], v: CenteredBall,
                  area_u) -> tuple[str, bool]:
    """For each c and i: the closed form against cA(U) + 2 beta_i, then the
    direct sum of the lambdas of edges i .. i+n-1 against the closed form."""
    bn, bden = frame_of(frames[0].ce, "betas")
    for f in frames:
        n, m = f.n, f.m
        arcs, aden = f.half_arc_lengths
        lam, lden = f.lambdas(v)
        bad = None in lam
        direct = window_sums([0 if t is None else t for t in lam], n)
        # c A(U) + 2 beta_i = (ca bden + 2 bn[i] caden) / (caden bden)
        (ca,), caden = scalar_frame([f.c * area_u])
        for i in range(m):
            if not frame_eq(arcs[i], aden, ca * bden + 2 * bn[i] * caden, caden * bden):
                return f"i={i}", False
            if bad:
                f.raise_not_parallel(v, [(i + k) % m for k in range(n)])
            if not frame_eq(direct[i], lden, arcs[i], aden):
                return f"direct sum differs at i={i}", False
    return "cA(U) + 2beta_i", True


def _chk_half_area(frames: list[EquidistantFrame]) -> tuple[str, bool]:
    """A1(i) - A2(i) = 4 c beta_i for each convex equidistant and each i."""
    backend = frames[0].backend
    bn, bden = frame_of(frames[0].ce, "betas")
    for f in frames:
        if not f.convex:
            continue
        n, m = f.n, f.m
        h, hden = f.half_areas
        for i in range(m):
            # 4 c beta_i = 4 cn bn[i] / (cd bden)
            if not frame_eq(h[i] - h[(i + n) % m], hden, 4 * f.cn * bn[i], f.cd * bden):
                return f"i={i} c={_s(backend, f.c)}", False
    return "A1 - A2 = 4c beta_i", True


def _chk_invariant(frames: list[EquidistantFrame]) -> tuple[str, bool]:
    vals = [f.chakerian_invariant() for f in frames if f.convex]
    return "constant over i", len(vals) > 0


def _chk_isoperimetric(frames: list[EquidistantFrame], v: CenteredBall,
                       area_u) -> tuple[str, bool]:
    backend = frames[0].backend
    for f in frames:
        if not f.convex:
            continue
        lv = f.v_length(v)
        if backend.sign(lv * lv - 4 * area_u * f.area()) < 0:
            return f"fails at c={_s(backend, f.c)}", False
    return "L^2 >= 4 A(U) A(P)", True
