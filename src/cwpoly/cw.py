"""Central equidistant, the equidistant family, dual-ball lengths, Barbier's
identity, cusps, and the half-polygon area/length relations.

All coefficient families follow the edge-slot convention of core: alpha[i]
(and lambda[i], mu[i], V[i]) belong to the edge from vertex i to vertex i+1,
while beta[i] belongs to vertex i.

The identities run on integer frames (see ``core``).  ``EquidistantFrame``
frames one c-equidistant M + cU and reads every identity of it from that
frame as window sums: the closed-form half arcs, the dual edge lengths of
one closed ``lambdas_of`` pass (Barbier's total and the direct half-arc
sums), the half areas and the half-polygon invariant.  ``barbier``,
``half_arc_length``, ``half_area_identity`` and ``chakerian_invariant``
are views of it.  ``alphas_of``, ``betas_of`` and ``lambdas_of`` take a
point list (or scalars) or a frame and return a ``ScalarFrame``.  The
alphas and lambdas are solved by the ball on its backend, along the edges
of U (``CenteredBall.edge_coeffs``) and the vertices of V
(``vertex_coeffs``); ``_raise_not_parallel`` words every failed solve
from the frames.  Every offset X + cD (the equidistants and their
``EquidistantFrame``, the convex parents of the region test and the width
family of the iteration) is ``offset_points``, which returns its frame.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import mul, neg, sub
from typing import Iterable, Sequence

from .backend import Backend, Scalar
from .ball import MinkowskiPlane
from .core import (
    CenteredBall,
    IdentityError,
    InputError,
    PairedPolygon,
    Stored,
    StoredLadder,
    Vec2,
    frame_eq,
    Frame,
    ScalarFrame,
    cross_terms,
    frame_of,
    from_frame,
    integer_frame,
    scalar_frame,
    _Framed,
)


@dataclass
class CentralEquidistant(_Framed):
    """Midpoint curve M_i = (P_i + P_{i+n}) / 2 with its coefficient ladders.

    alphas[i] solves M_{i+1} - M_i = alpha_i (U_{i+1} - U_i); betas[i] is the
    half window sum of alpha * det(U_i, U_{i+1}) over the n edges following
    vertex i.  For centrally symmetric input M collapses to a point
    (degenerate is True) and every coefficient is zero.
    """

    _polygon = "M"
    M: list[Vec2] = Stored()
    alphas: list[Scalar] = StoredLadder()
    betas: list[Scalar] = StoredLadder()


def alphas_of(points: Sequence[Vec2] | Frame, u: CenteredBall) -> ScalarFrame:
    """Edge coefficients of a closed list against the ball's edges, framed:
    alpha_i = nums[i] / den.

    ``u.edge_coeffs`` solves edge i of the list along the ball's edge i.  An
    edge that is not parallel to its ball edge raises IdentityError, at the
    first such edge (``_raise_not_parallel``).  A list whose length is not
    the ball's 2n raises InputError.

    Half-period rule: a doubled list (``Frame.is_doubled``) on an exactly
    symmetric ball (``CenteredBall.is_symmetric``) has edge i + n equal to
    edge i and ball edge i + n equal to minus ball edge i, so alpha_{i+n} =
    -alpha_i.  Then edges 0 .. n-1 are solved, and slots n .. 2n-1 list
    their negated numerators.  A failed
    solve fails first among those n slots.  Negation and the parallel test
    of a negated edge are exact in floats too, so both backends give the
    bits of the full solve.
    """
    xs, ys, den = f = integer_frame(points)
    m = len(xs)
    u.require_length("alphas_of", m)
    half = u.is_symmetric and f.is_doubled
    # the points after those of the edges solved: X_1 .. X_n (X_n = X_0
    # when doubled), or X_1 .. X_{2n-1}, X_0
    nx, ny = (xs[1:m // 2 + 1], ys[1:m // 2 + 1]) if half else (xs[1:] + xs[:1], ys[1:] + ys[:1])
    nums, aden = u.edge_coeffs(map(sub, nx, xs), map(sub, ny, ys), den)
    _raise_not_parallel(nums, f, u, edges=True)
    return ScalarFrame(nums + list(map(neg, nums)) if half else nums, aden)


def window_sums(terms: list[Scalar], n: int) -> list[Scalar]:
    """Cyclic window sums out[i] = sum_{j=i}^{i+n-1} terms[j mod m] for n <= m,
    from one prefix-sum pass (``itertools.accumulate`` from 0, over the terms
    and the first n - 1 again): O(m) additions instead of O(m n)."""
    cs = list(accumulate(terms + terms[:n - 1], initial=0))
    return [cs[i + n] - cs[i] for i in range(len(terms))]


def betas_of(alphas: Sequence[Scalar] | ScalarFrame, u: CenteredBall) -> ScalarFrame:
    """Vertex ladder beta_i = (1/2) sum_{j=i}^{i+n-1} alpha_j det(U_j, U_{j+1}),
    framed: the window sums of alpha_j times the framed edge determinant,
    over 2 den den_det.  On a float frame the betas are the quotients
    themselves, over den = 1.0.

    Half-period rule: an exact antiperiodic ladder (alpha_{i+n} = -alpha_i)
    on an exactly symmetric ball, whose determinants repeat after n slots,
    has the terms t_{j+n} = -t_j.  With S_i the sum of t_j for j < i and T =
    S_n, the window sum at i < n is T - 2 S_i and the one at i + n is its
    negation: n products and one prefix-sum pass over n terms.
    """
    nums, den = scalar_frame(alphas)
    dets, dden = u.edge_det_frame
    n = len(nums) // 2
    scale = 2 * den * dden
    exact = type(scale) is not float
    if exact and u.is_symmetric and nums[n:] == list(map(neg, nums[:n])):
        *cs, t = accumulate(map(mul, nums[:n], dets), initial=0)
        half = [t - 2 * c for c in cs]
        return ScalarFrame(half + list(map(neg, half)), scale)
    sums = window_sums(list(map(mul, nums, dets)), n)
    return ScalarFrame(sums, scale) if exact else ScalarFrame([s / scale for s in sums], 1.0)


def central_equidistant(plane: MinkowskiPlane) -> CentralEquidistant:
    """Midpoints of the diagonals, plus the alpha and beta ladders, framed.

    M is the frame of the diagonal sums of P's frame over 2 den(P), reduced
    by its content; on a float frame, the float sums halved.  M_{i+n} = M_i,
    so the first n sums are listed twice."""
    u, n = plane.U, plane.n
    xs, ys, den = f = plane.P.frame
    sx, sy = [xs[i] + xs[i + n] for i in range(n)], [ys[i] + ys[i + n] for i in range(n)]
    half = (Frame(sx, sy, 2 * den).reduced() if f.exact
            else Frame([x / 2 for x in sx], [y / 2 for y in sy], den))
    mid = Frame(half.xs * 2, half.ys * 2, half.den)
    al = alphas_of(mid, u)
    return CentralEquidistant(M=mid, alphas=al, betas=betas_of(al, u))


def equidistant(ce: CentralEquidistant, u: CenteredBall, c: Scalar) -> PairedPolygon:
    """The c-equidistant M_i + c U_i.

    Convex exactly when c >= -alpha_i for every edge; smaller c produces
    cusped (self-intersecting) vertex lists, which are still returned.
    """
    return PairedPolygon(offset_points(frame_of(ce, "M"), u, ce.backend.convert(c)))


def offset_points(points: Sequence[Vec2] | Frame, d: CenteredBall, c: Scalar) -> Frame:
    """X_i + c D_i, the c-equidistant of a central polygon X in the ball D,
    as the frame over den(X) den(D) den(c).  On a float frame den = 1.0 and
    each coordinate is x + a c, as ``Vec2`` arithmetic computes it."""
    mx, my, dm = integer_frame(points)
    ux, uy, du = d.frame
    (cn,), cd = scalar_frame([c])
    k, cu = du * cd, cn * dm
    return Frame([x * k + a * cu for x, a in zip(mx, ux)],
                 [y * k + b * cu for y, b in zip(my, uy)], dm * du * cd)


def min_convex_c(ce: CentralEquidistant) -> Scalar:
    """Smallest c for which the c-equidistant is convex (max of -alpha),
    from the numerators of the alpha frame: one scalar is built."""
    nums, den = frame_of(ce, "alphas")
    return from_frame(-min(nums), den)


def lambdas_of(points: Sequence[Vec2] | Frame, v: CenteredBall) -> ScalarFrame:
    """Signed dual-ball edge lengths of an open list, framed: P_{i+1} - P_i =
    lambda_i V_i with lambda_i = nums[i] / den.

    ``v.vertex_coeffs`` solves edge i of the list along V_i; where it is not
    parallel, nums[i] is None, and the caller reports it
    (``_raise_not_parallel``) when it needs that lambda.
    """
    xs, ys, den = integer_frame(points)
    return v.vertex_coeffs(map(sub, xs[1:], xs), map(sub, ys[1:], ys), den)


def _raise_not_parallel(nums: Sequence, f: Frame, ball: CenteredBall, edges: bool = False,
                        order: Sequence[int] | None = None) -> None:
    """IdentityError at the first slot i (in ``order``, default 0, 1, ...)
    where a solve failed, nums[i] is None: the edge of the solved frame f
    from point i to point (i + 1) mod len(f) is not parallel to the ball's
    edge i (``edges``, the alphas) or vertex i (the lambdas).  Both vectors
    are built from their frames (``from_frame``), and only then."""
    if None not in nums:
        return
    for i in (range(len(nums)) if order is None else order):
        if nums[i] is None:
            xs, ys, den = f
            bx, by, bden = ball.frame
            j, k = (i + 1) % len(xs), i % len(bx)
            l = (k + 1) % len(bx)
            dx, dy = (bx[l] - bx[k], by[l] - by[k]) if edges else (bx[k], by[k])
            w = Vec2(from_frame(xs[j] - xs[i], den), from_frame(ys[j] - ys[i], den))
            raise IdentityError(f"vector {w!r} is not parallel to "
                                f"{Vec2(from_frame(dx, bden), from_frame(dy, bden))!r}")


def v_length(arc: Sequence[Vec2] | Frame, v: CenteredBall, closed: bool = False) -> Scalar:
    """Signed dual-ball length of a polygonal arc, a point list or a frame.

    The arc's edge i must be parallel to the dual vertex V_i; negative
    coefficients (arcs past cusps) are allowed.  With closed=True the
    wrap-around edge is included.  An arc with no edges has length zero in
    the ball's backend; closing an empty arc raises InputError.  An edge
    that is not parallel raises IdentityError (``_raise_not_parallel``).
    """
    xs, ys, den = integer_frame(arc)
    if not xs:
        if closed:
            raise InputError("v_length cannot close an arc with no points")
        return v.backend.convert(0)
    k = 1 if closed else 0  # the closing point, repeated
    f = Frame(xs + xs[:k], ys + ys[:k], den)
    nums, lden = lambdas_of(f, v)
    _raise_not_parallel(nums, f, v)
    return from_frame(_total(nums), lden)


def _total(values: Sequence):
    """The sum of the values, added in list order from 0."""
    acc = 0
    for t in values:
        acc = acc + t
    return acc


@dataclass
class BarbierCheck:
    expected: Scalar
    actual: Scalar


@dataclass
class HalfAreaCheck:
    a1: Scalar
    a2: Scalar
    four_c_beta: Scalar


class EquidistantFrame:
    """The c-equidistant P(c) = M + cU of a central equidistant on one
    integer frame, with the sums its identities read.

    Every sum comes from this one frame, in O(m) per c:

    * the closed-form half-arc lengths L_V(i, c) = sum_{j=i}^{i+n-1}
      (alpha_j + c) det(U_j, U_{j+1}), as window sums (``window_sums``);
    * the dual edge lengths lambda_j of P(c) itself, P_{j+1} - P_j = lambda_j
      V_j, from one closed ``lambdas_of`` pass; their window sums are the
      same half-arc lengths measured directly, and their total is the
      closed dual length;
    * the half areas A1(i) of {P_i, ..., P_{i+n}}, closed by the diagonal,
      as window sums of the shoelace terms plus the closing diagonal term.
      A2(i) = A1(i + n).

    P_i(c) = (xs[i], ys[i]) / den is the frame of ``offset_points``, with den
    = den_M den_U den_c (1.0 on a float frame), which ``equidistant`` also
    holds.  The sums are framed (numerators over one denominator); the public
    functions of this module build one scalar per result from them.
    """

    def __init__(self, ce: CentralEquidistant, u: CenteredBall, c: Scalar):
        self.ce, self.u, self.backend = ce, u, ce.backend
        self.c = ce.backend.convert(c)
        (self.cn,), self.cd = scalar_frame([self.c])
        self.n, self.m = ce.n, 2 * ce.n
        self._lambdas = (None, None)

    @cached_property
    def convex(self) -> bool:
        """Whether P(c) is convex: c >= max(-alpha) (``min_convex_c``)."""
        return not self.backend.lt(self.c, min_convex_c(self.ce))

    @cached_property
    def frame(self) -> Frame:
        """``offset_points`` of M's frame: P(c) over den_M den_U den_c."""
        return offset_points(frame_of(self.ce, "M"), self.u, self.c)

    @cached_property
    def half_arc_lengths(self) -> ScalarFrame:
        """Closed-form L_V(i, c) = nums[i] / den for i = 0 .. m-1."""
        an, da = frame_of(self.ce, "alphas")
        dets, dd = self.u.edge_det_frame
        cd, ca = self.cd, self.cn * da
        terms = [(a * cd + ca) * d for a, d in zip(an, dets)]
        return ScalarFrame(window_sums(terms, self.n), da * cd * dd)

    def lambdas(self, v: CenteredBall) -> ScalarFrame:
        """``lambdas_of`` the closed P(c): None where edge j is not parallel
        to V_j.  Kept for the last ball asked for."""
        if self._lambdas[0] is not v:
            xs, ys, den = self.frame
            self._lambdas = (v, lambdas_of(Frame(xs + xs[:1], ys + ys[:1], den), v))
        return self._lambdas[1]

    def raise_not_parallel(self, v: CenteredBall, order: Sequence[int] | None = None) -> None:
        """IdentityError for the first edge in ``order`` (default: all m)
        that is not parallel to its dual vertex (``_raise_not_parallel``)."""
        _raise_not_parallel(self.lambdas(v).nums, self.frame, v, order=order)

    def v_length(self, v: CenteredBall) -> Scalar:
        """The dual length of the closed P(c), the total of its lambdas."""
        nums, den = self.lambdas(v)
        self.raise_not_parallel(v)
        return from_frame(_total(nums), den)

    @cached_property
    def half_areas(self) -> ScalarFrame:
        """A1(i) = nums[i] / den for i = 0 .. m-1."""
        xs, ys, den = self.frame
        n, m = self.n, self.m
        sums = window_sums(cross_terms(xs, ys), n)
        return ScalarFrame([s + (xs[(i + n) % m] * ys[i] - ys[(i + n) % m] * xs[i])
                            for i, s in enumerate(sums)], 2 * den * den)

    def area(self) -> Scalar:
        """Shoelace area of P(c): A1(0) + A2(0)."""
        nums, den = self.half_areas
        return from_frame(nums[0] + nums[self.n], den)

    def require_convex(self) -> None:
        if not self.convex:
            raise InputError("half-polygon areas need a convex equidistant")

    def barbier(self, v: CenteredBall) -> BarbierCheck:
        """Total dual length of P(c) against its closed form 2cA(U)."""
        return BarbierCheck(expected=2 * self.c * self.u.area,
                            actual=self.v_length(v))

    def half_area_check(self, i: int) -> HalfAreaCheck:
        """A1(i), A2(i) and 4 c beta_i; see ``half_area_identity``."""
        self.require_convex()
        nums, den = self.half_areas
        i %= self.m
        return HalfAreaCheck(a1=from_frame(nums[i], den),
                             a2=from_frame(nums[(i + self.n) % self.m], den),
                             four_c_beta=4 * self.c * self.ce.betas[i])

    def chakerian_invariant(self) -> Scalar:
        """A1(i, c) - c L_V(i, c), tested for every i; see ``chakerian_invariant``."""
        self.require_convex()
        c, cn, cd = self.c, self.cn, self.cd
        h, dh = self.half_areas
        arcs, da = self.half_arc_lengths
        # A1(i) - c L_V(i) = values[i] / q
        q = dh * cd * da
        values = [a1 * cd * da - cn * lv * dh for a1, lv in zip(h, arcs)]
        (closed,), dclosed = scalar_frame(
            [2 * c * c * self.u.area - self.area()])
        for i, cur in enumerate(values):
            if i and not frame_eq(values[0], q, cur, q):
                raise IdentityError(f"half-polygon invariant varies at index {i}")
            # 2 c L_V(i) - 2 A1(i) = -2 values[i] / q
            if not frame_eq(-2 * cur, q, closed, dclosed):
                raise IdentityError(f"half-polygon closed form fails at index {i}")
        return from_frame(values[0], q)


def barbier(ce: CentralEquidistant, u: CenteredBall, v: CenteredBall,
            c: Scalar) -> BarbierCheck:
    """Total dual length of the c-equidistant against its closed form 2cA(U)."""
    return EquidistantFrame(ce, u, c).barbier(v)


def ladder_cusps(values: Iterable[Scalar], n: int, backend: Backend) -> list[int] | None:
    """Slots 0 <= i < n where a closed coefficient ladder changes sign.

    Zero entries are skipped: a sign change between a nonzero entry j and
    the next nonzero entry (cyclically) lies at slot (j + 1) mod n.  Returns
    None when every entry is zero.
    """
    nonzero = [(j, s) for j, x in enumerate(values) if (s := backend.sign(x))]
    if not nonzero:
        return None
    return sorted({(j + 1) % n for (j, s), (_, t) in zip(nonzero, nonzero[1:] + nonzero[:1])
                   if s != t})


def cusps_of_central(ce: CentralEquidistant) -> list[int] | None:
    """Vertex indices 0 <= i < n where M has a cusp.

    M_i is a cusp when its neighbouring distinct vertices lie strictly in
    the same open half-plane of the diagonal through P_i and P_{i+n}.  Since
    the diagonal is parallel to U_i and a neighbouring edge of M is
    alpha_j (U_{j+1} - U_j), this is exactly a sign change of the alpha
    ladder across vertex i (``ladder_cusps``); the ladder form stays well
    defined when M has repeated consecutive vertices (alpha = 0 plateaus).
    The evolute's cusps are the same rule on the ball pair (V, W); see
    ``evolute.evolute_cusps``.  Returns None for degenerate (single-point)
    M, and for a float M whose alphas all lie within the tolerance of zero.
    """
    return None if ce.degenerate else ladder_cusps(frame_of(ce, "alphas").nums, ce.n, ce.backend)


def half_area_identity(ce: CentralEquidistant, u: CenteredBall, i: int,
                       c: Scalar) -> HalfAreaCheck:
    """Areas of the two halves of the c-equidistant cut by diagonal i.

    A1 is the shoelace area of {P_i(c), ..., P_{i+n}(c)} closed with the
    diagonal, A2 of the complementary list; their difference is 4 c beta_i.
    Requires a convex equidistant (c >= max(-alpha)).
    """
    return EquidistantFrame(ce, u, c).half_area_check(i)


def half_arc_length(ce: CentralEquidistant, u: CenteredBall, i: int,
                    c: Scalar) -> Scalar:
    """Dual length of the half arc {P_i(c), ..., P_{i+n}(c)}: cA(U) + 2 beta_i."""
    nums, den = EquidistantFrame(ce, u, c).half_arc_lengths
    return from_frame(nums[i % (2 * ce.n)], den)


def chakerian_invariant(ce: CentralEquidistant, u: CenteredBall, c: Scalar) -> Scalar:
    """The value A1(i, c) - c L_V(i, c), which does not depend on i.

    Raises IdentityError if the value varies with i, and cross-checks the
    closed form 2 c L_V(i, c) - 2 A1(i, c) = 2 c^2 A(U) - A(P(c)).
    """
    return EquidistantFrame(ce, u, c).chakerian_invariant()
