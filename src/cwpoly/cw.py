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
    frame_points,
    framed_coeff,
    from_frame,
    integer_frame,
    polygon_area,
    scalar_frame,
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
    nums, den = framed_alphas(*integer_frame(points), u, backend, points)
    return [from_frame(a, den) for a in nums]


def framed_alphas(xs: list, ys: list, den, u: CenteredBall, backend: Backend,
                  points: Sequence[Vec2] | None = None) -> tuple[list, int]:
    """``alphas_of`` on a framed closed list: alpha_i = nums[i] / den_a.

    Edge i, (wx, wy) / den, must be parallel to the ball's edge i, (dx, dy) /
    den_u; that is tested by cross-multiplication, as in ``framed_coeff``.
    The coefficient is a den_u / (q den), with a and q the components on the
    edge's dominant axis.  On a rational ball all of them share den_a = den
    L (``CenteredBall.edge_coeff_frame``); on a float ball den_a = 1 and the
    alphas are a / (q den).  The points, when given, name a failing edge in
    the error message; otherwise it is built from the frame.
    """
    edges, L = u.edge_coeff_frame()
    exact = u.backend.exact
    m = len(xs)
    out = []
    for i in range(m):
        j = i + 1 if i + 1 < m else 0
        wx, wy = xs[j] - xs[i], ys[j] - ys[i]
        dx, dy, axis, s = edges[i]
        if not backend.is_zero(wx * dy - wy * dx):
            p, q = ((points[i], points[j]) if points is not None
                    else frame_points((xs[i], xs[j]), (ys[i], ys[j]), den))
            uv = u.vertices
            raise IdentityError(f"vector {q - p!r} is not parallel to {uv[j] - uv[i]!r}")
        a = wy if axis else wx
        out.append(a * s if exact else a / (s * den))
    return out, den * L


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
    nums, den = framed_betas(*scalar_frame(alphas), u)
    return [from_frame(b, den) for b in nums]


def framed_betas(nums: list, den, u: CenteredBall) -> tuple[list, int]:
    """``betas_of`` on framed alphas nums / den: the window sums of alpha_j
    times the framed edge determinant, over 2 den den_det.  A float frame
    keeps den = 1, so float betas are the quotients."""
    dets, dden = u.edge_det_frame()
    sums = window_sums([a * d for a, d in zip(nums, dets)], len(nums) // 2)
    scale = 2 * den * dden
    if sums and isinstance(sums[0], float):
        return [s / scale for s in sums], 1
    return sums, scale


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
    xs, ys, den = integer_frame(points)
    vx, vy, vden = v.frame()
    out = []
    for i in range(len(points) - 1):
        s = (i + edge_offset) % m
        t = framed_coeff(xs[i + 1] - xs[i], ys[i + 1] - ys[i], vx[s], vy[s], backend)
        if t is None:
            raise IdentityError(f"vector {points[i + 1] - points[i]!r} is not parallel "
                                f"to {v.vertices[s]!r}")
        out.append(from_frame(t[0] * vden, t[1] * den))
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


def _convex_equidistant(ce: CentralEquidistant, u: CenteredBall, c: Scalar) -> list[Vec2]:
    """Vertices of the c-equidistant, which must be convex (c >= max(-alpha))."""
    if ce.backend.lt(c, min_convex_c(ce)):
        raise InputError("half-polygon areas need a convex equidistant")
    return equidistant(ce, u, c).vertices


def _half(pc: Sequence[Vec2], n: int, i: int) -> list[Vec2]:
    """The half {P_i, ..., P_{i+n}} of a closed 2n-list, closed by its diagonal."""
    return [pc[j % (2 * n)] for j in range(i, i + n + 1)]


def _half_area_check(ce: CentralEquidistant, pc: Sequence[Vec2], i: int,
                     c: Scalar) -> HalfAreaCheck:
    return HalfAreaCheck(
        a1=polygon_area(_half(pc, ce.n, i)),
        a2=polygon_area(_half(pc, ce.n, i + ce.n)),
        four_c_beta=4 * c * ce.betas[i % (2 * ce.n)],
    )


def half_area_identity(ce: CentralEquidistant, u: CenteredBall, i: int,
                       c: Scalar) -> HalfAreaCheck:
    """Areas of the two halves of the c-equidistant cut by diagonal i.

    A1 is the shoelace area of {P_i(c), ..., P_{i+n}(c)} closed with the
    diagonal, A2 of the complementary list; their difference is 4 c beta_i.
    Requires a convex equidistant (c >= max(-alpha)).
    """
    c = ce.backend.convert(c)
    return _half_area_check(ce, _convex_equidistant(ce, u, c), i, c)


def half_area_identities(ce: CentralEquidistant, u: CenteredBall,
                         c: Scalar) -> list[HalfAreaCheck]:
    """``half_area_identity`` for i = 0 .. 2n-1, from one equidistant."""
    c = ce.backend.convert(c)
    pc = _convex_equidistant(ce, u, c)
    return [_half_area_check(ce, pc, i, c) for i in range(2 * ce.n)]


def _half_arc_length(ce: CentralEquidistant, dets: Sequence[Scalar], i: int,
                     c: Scalar) -> Scalar:
    m = 2 * ce.n
    acc = 0
    for j in range(i, i + ce.n):
        acc = acc + (ce.alphas[j % m] + c) * dets[j % m]
    return acc


def half_arc_length(ce: CentralEquidistant, u: CenteredBall, i: int,
                    c: Scalar) -> Scalar:
    """Dual length of the half arc {P_i(c), ..., P_{i+n}(c)}: cA(U) + 2 beta_i."""
    return _half_arc_length(ce, u.edge_dets(), i, ce.backend.convert(c))


def chakerian_invariant(ce: CentralEquidistant, u: CenteredBall, c: Scalar) -> Scalar:
    """The value A1(i, c) - c L_V(i, c), which does not depend on i.

    Raises IdentityError if the value varies with i, and cross-checks the
    closed form 2 c L_V(i, c) - 2 A1(i, c) = 2 c^2 A(U) - A(P(c)).
    """
    backend = ce.backend
    c = backend.convert(c)
    pc = _convex_equidistant(ce, u, c)
    closed = 2 * c * c * polygon_area(u.vertices) - polygon_area(pc)
    dets = u.edge_dets()
    value = None
    for i in range(2 * ce.n):
        a1 = polygon_area(_half(pc, ce.n, i))
        lv = _half_arc_length(ce, dets, i, c)
        cur = a1 - c * lv
        if value is None:
            value = cur
        elif not backend.eq(value, cur):
            raise IdentityError(f"half-polygon invariant varies at index {i}")
        if not backend.eq(2 * c * lv - 2 * a1, closed):
            raise IdentityError(f"half-polygon closed form fails at index {i}")
    return value
