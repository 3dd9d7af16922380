"""Curvature radii, evolutes, involutes, signed areas, and containment.

Two worlds alternate here.  A polygon of constant U-width has vertex-indexed
points and an edge-indexed evolute; its central equidistant M is the
vertex-indexed representative.  The involute N of M is edge-indexed, has
constant width in the dual ball V, and zero diagonals (N_{i+n} = N_i).  The
involute of an edge-indexed central polygon goes back to the vertex-indexed
world; iterating the two maps drives everything to a point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .backend import Backend, Scalar
from .core import (
    CenteredBall,
    IdentityError,
    PairedPolygon,
    Vec2,
    coeff_along,
    det,
    mixed_area,
    point_region_test,
)
from .cw import CentralEquidistant, lambdas_of, window_sums


@dataclass
class Evolute:
    """Centers of curvature E_i with curvature radii mu_i, edge-indexed."""

    E: list[Vec2]
    mus: list[Scalar]
    n: int
    backend: Backend
    degenerate: bool

    def __len__(self):
        return len(self.E)


def evolute(points: Sequence[Vec2], u: CenteredBall, v: CenteredBall | None = None,
            backend: Backend | None = None) -> Evolute:
    """Evolute of a closed constant-U-width vertex list.

    When the dual ball is supplied, mu_i = lambda_i / det(U_i, U_{i+1}) (no
    division by a vanishing edge coordinate); otherwise mu_i is solved from
    P_{i+1} - P_i = mu_i (U_{i+1} - U_i) directly.  E_i = P_i - mu_i U_i and
    the companion form E_i = P_{i+1} - mu_i U_{i+1} must agree.  The evolute
    of every equidistant of P equals the evolute of P.
    """
    backend = backend or u.backend
    m = len(points)
    uv = u.vertices
    if v is not None:
        d = u.edge_dets()
        lam = lambdas_of(list(points) + [points[0]], v, backend)
        mus = [lam[i] / d[i] for i in range(m)]
    else:
        mus = [
            coeff_along(points[(i + 1) % m] - points[i], uv[(i + 1) % m] - uv[i], backend)
            for i in range(m)
        ]
    out = []
    for i in range(m):
        e1 = points[i] - uv[i] * mus[i]
        e2 = points[(i + 1) % m] - uv[(i + 1) % m] * mus[i]
        if not backend.same_point(e1, e2):
            raise IdentityError(f"evolute defining forms disagree at edge {i}")
        out.append(e1)
    degenerate = all(backend.same_point(out[i], out[0]) for i in range(1, m))
    return Evolute(E=out, mus=mus, n=m // 2, backend=backend, degenerate=degenerate)


@dataclass
class Involute:
    """Involute N of a central equidistant: N_i = M_i + beta_i V_i.

    Edge-indexed with zero diagonals; constant width in the dual ball.
    """

    N: list[Vec2]
    betas: list[Scalar]
    n: int
    backend: Backend
    degenerate: bool

    def __len__(self):
        return len(self.N)


def involute(ce: CentralEquidistant, v: CenteredBall) -> Involute:
    """Involute of the central equidistant (vertex world -> edge world).

    Both defining forms N_i = M_i + beta_i V_i = M_{i+1} + beta_{i+1} V_i are
    computed and must agree exactly; the result has zero diagonals.
    """
    backend = ce.backend
    m = 2 * ce.n
    vv = v.vertices
    out = []
    for i in range(m):
        n1 = ce.M[i] + vv[i] * ce.betas[i]
        n2 = ce.M[(i + 1) % m] + vv[i] * ce.betas[(i + 1) % m]
        if not backend.same_point(n1, n2):
            raise IdentityError(f"involute defining forms disagree at edge {i}")
        out.append(n1)
    degenerate = all(backend.same_point(out[i], out[0]) for i in range(1, m))
    return Involute(N=out, betas=list(ce.betas), n=ce.n, backend=backend,
                    degenerate=degenerate)


def edge_world_coeffs(points: Sequence[Vec2], v: CenteredBall,
                      backend: Backend) -> list[Scalar]:
    """Coefficients b_i with X_i - X_{i-1} = b_i (V_i - V_{i-1})."""
    m = len(points)
    vv = v.vertices
    return [
        coeff_along(points[i] - points[(i - 1) % m], vv[i] - vv[(i - 1) % m], backend)
        for i in range(m)
    ]


def evolute_of_edge_world(points: Sequence[Vec2], v: CenteredBall,
                          backend: Backend) -> list[Vec2]:
    """Evolute of an edge-indexed constant-V-width polygon (lands on vertices).

    For the involute N of M this recovers M exactly: M_i = N_i - b_i V_i.
    """
    m = len(points)
    vv = v.vertices
    b = edge_world_coeffs(points, v, backend)
    out = []
    for i in range(m):
        e1 = points[i] - vv[i] * b[i]
        e2 = points[(i - 1) % m] - vv[(i - 1) % m] * b[i]
        if backend.exact and e1 != e2:
            raise IdentityError(f"edge-world evolute forms disagree at vertex {i}")
        out.append(e1)
    return out


def dual_involute(points: Sequence[Vec2], u: CenteredBall, v: CenteredBall,
                  backend: Backend):
    """Involute of an edge-indexed central polygon (edge world -> vertex world).

    Solves for the anti-periodic radius ladder mu with
    mu_i - mu_{i-1} = b_i det(V_{i-1}, V_i) and returns
    M'_i = N_i + mu_i U_i, whose evolute is the input.  Returns
    (vertices, edge_coeffs_of_input, mu).
    """
    m = len(points)
    n = m // 2
    uv, vv = u.vertices, v.vertices
    b = edge_world_coeffs(points, v, backend)
    g = [b[i] * det(vv[(i - 1) % m], vv[i]) for i in range(m)]
    w = window_sums(g, n)
    mus = [-w[(i + 1) % m] / 2 for i in range(m)]
    out = []
    for i in range(m):
        m1 = points[i] + uv[i] * mus[i]
        m2 = points[(i - 1) % m] + uv[i] * mus[(i - 1) % m]
        if not backend.same_point(m1, m2):
            raise IdentityError(f"dual involute defining forms disagree at {i}")
        out.append(m1)
    return out, b, mus


def signed_area(points: Sequence[Vec2]) -> Scalar:
    """Signed area SA(X) = -A(X, X) of a closed (doubled) central polygon.

    Nonnegative for central equidistants and their involutes.
    """
    return -mixed_area(points, points)


def signed_area_gap(betas: Sequence[Scalar], v: CenteredBall) -> Scalar:
    """Right side of the area drop under one involute step:
    sum over half the vertices of beta_i^2 det(V_{i-1}, V_i)."""
    m = len(betas)
    n = m // 2
    vv = v.vertices
    acc = 0
    for i in range(n):
        acc = acc + betas[i] * betas[i] * det(vv[(i - 1) % m], vv[i])
    return acc


def dual_area_gap(mus: Sequence[Scalar], u: CenteredBall) -> Scalar:
    """Area drop for the edge-world step: sum of mu_i^2 det(U_i, U_{i+1})."""
    m = len(mus)
    n = m // 2
    d = u.edge_dets()
    acc = 0
    for i in range(n):
        acc = acc + mus[i] * mus[i] * d[i]
    return acc


@dataclass
class ContainmentResult:
    contained: bool
    tested: int
    witnesses: list[Vec2]
    min_chords: int | None


def containment_check(n_points: Sequence[Vec2], parent: PairedPolygon | Sequence[Vec2],
                      samples: int = 16) -> ContainmentResult:
    """Verify that a closed curve lies in the region bounded by the central
    equidistant of the parent polygon.

    Each segment is sampled at its endpoints, midpoint, and an even grid of
    `samples` interior points; a sample fails if the chord-midpoint test
    classifies it as exterior (exactly one chord of the parent, or outside
    the parent entirely).  The chord test itself is always exact, but float
    coordinates place tangential samples (curve touching the region
    boundary) off the boundary by rounding noise, so float samples that
    test exterior are retried nudged a little way into their own segment,
    which lies in the closed region.
    """
    pts = list(n_points)
    parent_pts = parent.vertices if isinstance(parent, PairedPolygon) else list(parent)
    m = len(pts)
    seen: set = set()
    witnesses: list[Vec2] = []
    min_chords: int | None = None
    tested = 0
    fracs = sorted({Fraction(1, 2)} | {Fraction(t, samples + 1) for t in range(1, samples + 1)})
    for i in range(m):
        a, b = pts[i], pts[(i + 1) % m]
        degenerate_seg = a == b
        probe = [a] if degenerate_seg else [a] + [a + (b - a) * t for t in fracs]
        mid = a if degenerate_seg else a + (b - a) * Fraction(1, 2)
        for x in probe:
            key = (x.x, x.y)
            if key in seen:
                continue
            seen.add(key)
            tested += 1
            res = point_region_test(x, parent_pts)
            if res.chords is not None:
                min_chords = res.chords if min_chords is None else min(min_chords, res.chords)
            if res.exterior and isinstance(x.x, float) and not degenerate_seg:
                nudged = x + (mid - x) * 1e-7
                res = point_region_test(nudged, parent_pts)
            if res.exterior:
                witnesses.append(x)
    return ContainmentResult(contained=not witnesses, tested=tested,
                             witnesses=witnesses, min_chords=min_chords)


def evolute_cusps(ev: Evolute) -> list[int] | None:
    """Edge slots 0 <= i < n where the evolute has a cusp.

    E_i is a cusp when its neighbouring distinct vertices lie strictly in
    the same open half-plane of the line through E_i parallel to the side
    P_i P_{i+1} (the ball edge direction when that side is degenerate).
    Because consecutive evolute vertices differ by (mu_i - mu_{i+1}) U_{i+1}
    and det(V_i, U_i) = det(V_i, U_{i+1}) = -1, this is exactly a strict
    local extremum of the mu ladder, evaluated on maximal runs of equal
    values so that repeated evolute vertices are handled.  Returns None for
    a degenerate (single-point) evolute.
    """
    if ev.degenerate:
        return None
    backend = ev.backend
    m = 2 * ev.n
    mus = ev.mus
    boundary = next((j for j in range(m) if not backend.eq(mus[j], mus[(j - 1) % m])), None)
    if boundary is None:
        return None
    runs: list[tuple] = []  # (value, first slot)
    for t in range(boundary, boundary + m):
        j = t % m
        if not runs or not backend.eq(mus[j], runs[-1][0]):
            runs.append((mus[j], j))
    out = set()
    r = len(runs)
    for idx, (value, slot) in enumerate(runs):
        prev_v = runs[(idx - 1) % r][0]
        next_v = runs[(idx + 1) % r][0]
        if backend.sign(prev_v - value) * backend.sign(next_v - value) > 0:
            out.add(slot % ev.n)
    return sorted(out)
