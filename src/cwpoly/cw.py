"""Central equidistant, the equidistant family, dual-ball lengths, Barbier's
identity, cusps, and the half-polygon area/length relations.

All coefficient families follow the edge-slot convention of core: alpha[i]
(and lambda[i], mu[i], V[i]) belong to the edge from vertex i to vertex i+1,
while beta[i] belongs to vertex i.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .backend import Backend, Scalar
from .ball import MinkowskiPlane
from .core import (
    CenteredBall,
    IdentityError,
    InputError,
    PairedPolygon,
    Vec2,
    coeff_along,
    polygon_area,
)


@dataclass
class CentralEquidistant:
    """Midpoint curve M_i = (P_i + P_{i+n}) / 2 with its coefficient ladders.

    alphas[i] solves M_{i+1} - M_i = alpha_i (U_{i+1} - U_i); betas[i] is the
    half window sum of alpha * det(U_i, U_{i+1}) over the n edges following
    vertex i.  For centrally symmetric input M collapses to a point
    (degenerate=True) and every coefficient is zero.
    """

    M: list[Vec2]
    alphas: list[Scalar]
    betas: list[Scalar]
    n: int
    backend: Backend
    degenerate: bool

    def __len__(self):
        return len(self.M)


def alphas_of(points: Sequence[Vec2], u: CenteredBall, backend: Backend) -> list[Scalar]:
    """Edge coefficients of a closed list against the ball's edges."""
    m = len(points)
    uv = u.vertices
    return [
        coeff_along(points[(i + 1) % m] - points[i], uv[(i + 1) % m] - uv[i], backend)
        for i in range(m)
    ]


def window_sums(terms: Sequence[Scalar], n: int) -> list[Scalar]:
    """Cyclic window sums out[i] = sum_{j=i}^{i+n-1} terms[j mod m] for n <= m,
    from one prefix-sum pass: O(m) additions instead of O(m n)."""
    m = len(terms)
    cs = [0]
    for t in range(m + n - 1):
        cs.append(cs[-1] + terms[t % m])
    return [cs[i + n] - cs[i] for i in range(m)]


def betas_of(alphas: Sequence[Scalar], u: CenteredBall) -> list[Scalar]:
    """Vertex ladder beta_i = (1/2) sum_{j=i}^{i+n-1} alpha_j det(U_j, U_{j+1})."""
    m = len(alphas)
    d = u.edge_dets()
    return [s / 2 for s in window_sums([alphas[j] * d[j] for j in range(m)], m // 2)]


def central_equidistant(plane: MinkowskiPlane) -> CentralEquidistant:
    """Midpoints of the diagonals, plus the alpha and beta ladders."""
    paired, u, backend = plane.P, plane.U, plane.backend
    m = 2 * plane.n
    pv = paired.vertices
    mid = [(pv[i] + pv[(i + plane.n) % m]) / 2 for i in range(m)]
    degenerate = all(backend.same_point(mid[i], mid[0]) for i in range(1, m))
    al = alphas_of(mid, u, backend)
    be = betas_of(al, u)
    return CentralEquidistant(M=mid, alphas=al, betas=be, n=plane.n,
                              backend=backend, degenerate=degenerate)


def equidistant(ce: CentralEquidistant, u: CenteredBall, c: Scalar) -> PairedPolygon:
    """The c-equidistant M_i + c U_i.

    Convex exactly when c >= -alpha_i for every edge; smaller c produces
    cusped (self-intersecting) vertex lists, which are still returned.
    """
    c = ce.backend.convert(c)
    pts = [ce.M[i] + u.vertices[i] * c for i in range(len(ce.M))]
    return PairedPolygon(pts, ce.n, ce.backend)


def min_convex_c(ce: CentralEquidistant) -> Scalar:
    """Smallest c for which the c-equidistant is convex (max of -alpha)."""
    return max(-a for a in ce.alphas)


def lambdas_of(points: Sequence[Vec2], v: CenteredBall, backend: Backend,
               edge_offset: int = 0) -> list[Scalar]:
    """Signed dual-ball edge lengths: P_{i+1} - P_i = lambda_i V_{i+offset}."""
    m = len(v.vertices)
    k = len(points)
    out = []
    for i in range(k - 1):
        d = v.vertices[(i + edge_offset) % m]
        out.append(coeff_along(points[i + 1] - points[i], d, backend))
    return out


def v_length(arc: Sequence[Vec2], v: CenteredBall, edge_offset: int = 0,
             backend: Backend | None = None, closed: bool = False) -> Scalar:
    """Signed dual-ball length of a polygonal arc.

    The arc's edge i must be parallel to the dual vertex V_{i+edge_offset};
    negative coefficients (arcs past cusps) are allowed.  With closed=True
    the wrap-around edge is included.
    """
    backend = backend or v.backend
    pts = list(arc)
    if closed:
        pts = pts + [pts[0]]
    lam = lambdas_of(pts, v, backend, edge_offset)
    acc = 0
    for t in lam:
        acc = acc + t
    return acc


@dataclass
class BarbierCheck:
    expected: Scalar
    actual: Scalar


def barbier(ce: CentralEquidistant, u: CenteredBall, v: CenteredBall,
            c: Scalar) -> BarbierCheck:
    """Total dual length of the c-equidistant against its closed form 2cA(U)."""
    c = ce.backend.convert(c)
    expected = 2 * c * polygon_area(u.vertices)
    pc = equidistant(ce, u, c)
    actual = v_length(pc.vertices, v, backend=ce.backend, closed=True)
    return BarbierCheck(expected=expected, actual=actual)


def cusps_of_central(ce: CentralEquidistant) -> list[int] | None:
    """Vertex indices 0 <= i < n where M has a cusp.

    M_i is a cusp when its neighbouring distinct vertices lie strictly in
    the same open half-plane of the diagonal through P_i and P_{i+n}.  Since
    the diagonal is parallel to U_i and a neighbouring edge of M is
    alpha_j (U_{j+1} - U_j), this is exactly a sign change of the alpha
    ladder across vertex i; the ladder form stays well defined when M has
    repeated consecutive vertices (alpha = 0 plateaus).  Returns None for
    degenerate (single-point) M.
    """
    if ce.degenerate:
        return None
    backend = ce.backend
    m = 2 * ce.n
    signs = [backend.sign(a) for a in ce.alphas]
    out = set()
    prev_sign = None
    prev_edge = None
    start = next(j for j in range(m) if signs[j] != 0)
    for t in range(start, start + m):
        j = t % m
        if signs[j] == 0:
            continue
        if prev_sign is not None and signs[j] != prev_sign:
            # change localizes at the vertex group (prev_edge, j]
            out.add((prev_edge + 1) % m % ce.n)
        prev_sign, prev_edge = signs[j], j
    if signs[start] != prev_sign:
        out.add((prev_edge + 1) % m % ce.n)
    return sorted(out)


@dataclass
class HalfAreaCheck:
    a1: Scalar
    a2: Scalar
    four_c_beta: Scalar


def half_area_identity(ce: CentralEquidistant, u: CenteredBall, i: int,
                       c: Scalar) -> HalfAreaCheck:
    """Areas of the two halves of the c-equidistant cut by diagonal i.

    A1 is the shoelace area of {P_i(c), ..., P_{i+n}(c)} closed with the
    diagonal, A2 of the complementary list; their difference is 4 c beta_i.
    Requires a convex equidistant (c >= max(-alpha)).
    """
    backend = ce.backend
    c = backend.convert(c)
    if backend.lt(c, min_convex_c(ce)):
        raise InputError("half-polygon areas need a convex equidistant")
    m = 2 * ce.n
    pc = equidistant(ce, u, c).vertices
    arc1 = [pc[j % m] for j in range(i, i + ce.n + 1)]
    arc2 = [pc[j % m] for j in range(i + ce.n, i + 2 * ce.n + 1)]
    return HalfAreaCheck(
        a1=polygon_area(arc1),
        a2=polygon_area(arc2),
        four_c_beta=4 * c * ce.betas[i % m],
    )


def half_arc_length(ce: CentralEquidistant, u: CenteredBall, i: int,
                    c: Scalar) -> Scalar:
    """Dual length of the half arc {P_i(c), ..., P_{i+n}(c)}: cA(U) + 2 beta_i."""
    c = ce.backend.convert(c)
    d = u.edge_dets()
    acc = 0
    for j in range(i, i + ce.n):
        acc = acc + (ce.alphas[j % (2 * ce.n)] + c) * d[j % (2 * ce.n)]
    return acc


def chakerian_invariant(ce: CentralEquidistant, u: CenteredBall, c: Scalar) -> Scalar:
    """The value A1(i, c) - c L_V(i, c), which does not depend on i.

    Raises IdentityError if the value varies with i, and cross-checks the
    closed form 2 c L_V(i, c) - 2 A1(i, c) = 2 c^2 A(U) - A(P(c)).
    """
    backend = ce.backend
    c = backend.convert(c)
    area_u = polygon_area(u.vertices)
    area_pc = polygon_area(equidistant(ce, u, c).vertices)
    value = None
    for i in range(2 * ce.n):
        a1 = half_area_identity(ce, u, i, c).a1
        lv = half_arc_length(ce, u, i, c)
        cur = a1 - c * lv
        if value is None:
            value = cur
        elif not backend.eq(value, cur):
            raise IdentityError(f"half-polygon invariant varies at index {i}")
        closed = 2 * c * c * area_u - area_pc
        if not backend.eq(2 * c * lv - 2 * a1, closed):
            raise IdentityError(f"half-polygon closed form fails at index {i}")
    return value
