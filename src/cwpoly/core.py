"""Planar geometry substrate: vectors, convex polygons, areas, Minkowski sums,
and the chord-midpoint region test.

Exact kernels run in an integer frame.  A ``Frame`` is a point list on one
shared denominator, p_i = (xs[i], ys[i]) / den with integer xs, ys, and a
``ScalarFrame`` a list of scalars nums[i] / den; ``integer_frame`` and
``scalar_frame`` build them.  Each formula is one public function: it takes
a point list (or scalars) or a frame, frames it once, does its sums and
products on the integers, and returns a frame, or one scalar built by
``from_frame``, instead of a gcd per intermediate sum.  The input side
(``clean_convex``, the angular ``edge_merge`` of the paired form and of
``minkowski_frame``, ``PairedPolygon.validate``) runs on frames too, and
the cross terms det(p_j, p_{j+1}) of a closed frame are ``cross_terms``.
Each new polygon is reduced by one content gcd (``Frame.reduced``), which
gives exactly ``integer_frame`` of its vertices.  A scalar formula such as
``mixed_area_frame`` returns a framed value, a ``ScalarFrame`` of one
entry, and ``value_sum`` (of -b for a difference), ``value_eq``,
``value_le`` and ``value_sign`` add and compare framed values on their
integers.  A frame knows its backend (``Frame.backend``): float input gets
the frame den = 1.0 with its coordinates unchanged, so the float backend
runs the same loops, in the same expression order, every value framed on
it is the plain float evaluation of its formula, and no helper handed a
frame takes a backend.  The chord counts (``ChordFrame``, and
``WindingFrame`` for a paired boundary) snap float input to its exact
rational value, so they are exact on both backends; ``exact_frame`` is
the one snapping rule, and frames its input once.

Storage: a container holds each polygon, coefficient ladder and ledger
scalar in a ``Stored`` field (``StoredLadder``, ``StoredValue``), in the
form its kernel computed (a frame or a list, a framed value or a scalar),
and builds the other form once, on first read: the field reads as the list
or the scalar, and ``frame_of`` gives the frame.  Callers pass that frame
on, so no polygon is framed twice, and no Fraction is built for a value
nobody reads.  Point identities compare two frames with
``first_mismatch``, on their numerators.  A container stores nothing that
its frame decides: its ``backend``, ``n`` and ``degenerate`` are read from
it, once.  A ball (``CenteredBall``) keeps the constants the kernels read
from it, its backend among them, as cached properties.

Index conventions used throughout the package (0-based, cyclic mod 2n):

* vertex-indexed families live in plain lists, slot ``i`` <-> vertex ``i``;
* edge-indexed families (dual-ball vertices, edge lengths, curvature radii,
  evolute/involute vertices) live in lists where slot ``i`` is attached to the
  edge from vertex ``i`` to vertex ``i+1``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, cycle
from operator import mul, sub
from typing import Iterable, NamedTuple, Sequence

from .backend import Backend, FLOAT, RATIONAL, Scalar


class GeometryError(Exception):
    """Base class for geometric failures."""


class InputError(GeometryError):
    """Invalid input data (maps to CLI exit code 2)."""


class IdentityError(GeometryError):
    """A mathematical identity that must hold failed (CLI exit code 3)."""


class Vec2(NamedTuple):
    """Immutable 2-vector over the active scalar type."""

    x: Scalar
    y: Scalar

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __mul__(self, s: Scalar) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def __truediv__(self, s: Scalar) -> "Vec2":
        return Vec2(self.x / s, self.y / s)

    def __repr__(self):
        return f"Vec2({self.x!r}, {self.y!r})"


def vec(x, y, backend: Backend = RATIONAL) -> Vec2:
    return Vec2(backend.convert(x), backend.convert(y))


def det(u: Vec2, v: Vec2) -> Scalar:
    """Determinant [u, v] = u.x*v.y - u.y*v.x."""
    return u.x * v.y - u.y * v.x


def dot(u: Vec2, v: Vec2) -> Scalar:
    return u.x * v.x + u.y * v.y


class Frame(NamedTuple):
    """A point list on one shared denominator: p_i = (xs[i], ys[i]) / den.

    An exact frame has int xs, ys over a positive int den.  A float frame
    keeps its float coordinates over den = 1.0, so every denominator built
    from it is a float, and ``from_frame`` of any value framed on it is a
    float.  ``integer_frame`` builds frames.
    """

    xs: list
    ys: list
    den: int | float

    @property
    def exact(self) -> bool:
        return type(self.den) is not float

    @property
    def backend(self) -> Backend:
        """The backend the denominator decides: FLOAT over a float, else RATIONAL."""
        return RATIONAL if self.exact else FLOAT

    @property
    def is_doubled(self) -> bool:
        """Whether the second half of the list equals the first."""
        h = len(self.xs) // 2
        return self.xs[h:] == self.xs[:h] and self.ys[h:] == self.ys[:h]

    def points(self) -> list[Vec2]:
        """The points (xs[i], ys[i]) / den, as ``from_frame`` builds them.  A
        doubled frame builds its first half once and lists it twice."""
        doubled = self.is_doubled
        xs, ys, den = self.half() if doubled else self
        pts = [Vec2(from_frame(x, den), from_frame(y, den)) for x, y in zip(xs, ys)]
        return pts * 2 if doubled else pts

    def half(self) -> "Frame":
        """The first half of the list: the distinct points of a doubled frame,
        one that lists its first half twice."""
        n = len(self.xs) // 2
        return Frame(self.xs[:n], self.ys[:n], self.den)

    def distinct(self) -> "Frame":
        """The frame without repeats of the point before, nor of the first
        point at the end."""
        q: list = []
        for p in zip(self.xs, self.ys):
            if not q or q[-1] != p:
                q.append(p)
        while len(q) > 1 and q[0] == q[-1]:
            q.pop()
        return Frame([x for x, _ in q], [y for _, y in q], self.den)

    def reflected(self) -> "Frame":
        """The frame of the points -p_i, on the same denominator."""
        return Frame([-x for x in self.xs], [-y for y in self.ys], self.den)

    def reduced(self) -> "Frame":
        """The frame divided by its content g = gcd(den, xs, ys).

        The reduced denominator den / g is the lcm of the denominators of the
        reduced coordinates, so the result is exactly ``integer_frame`` of the
        points it holds.  A float frame passes unchanged.
        """
        xs, ys, den = self
        if den == 1 or (g := math.gcd(den, *xs, *ys)) == 1:
            return self
        return Frame([x // g for x in xs], [y // g for y in ys], den // g)


class ScalarFrame(NamedTuple):
    """A list of scalars on one shared denominator: values[i] = nums[i] / den,
    ints over a positive int den, or floats over den = 1.0 as in ``Frame``.
    ``scalar_frame`` builds them, and the coefficient ladders are returned
    as them."""

    nums: list
    den: int | float

    def values(self) -> list[Scalar]:
        """The scalars nums[i] / den, as ``from_frame`` builds them."""
        return [from_frame(v, self.den) for v in self.nums]

    def value(self) -> Scalar:
        """The scalar nums[0] / den of a framed value, a frame of one entry."""
        return from_frame(self.nums[0], self.den)

    def __neg__(self) -> "ScalarFrame":
        """The frame of the scalars -nums[i] / den."""
        return ScalarFrame([-v for v in self.nums], self.den)

    def reduced(self) -> "ScalarFrame":
        """The frame divided by its content g = gcd(den, nums), the twin of
        ``Frame.reduced``: den / g is the lcm of the denominators of the
        reduced values, so the result is exactly ``scalar_frame`` of the
        values it holds.  A float frame passes unchanged."""
        nums, den = self
        if den == 1 or (g := math.gcd(den, *nums)) == 1:
            return self
        return ScalarFrame([v // g for v in nums], den // g)


def scalar_frame(values: Sequence[Scalar] | ScalarFrame) -> ScalarFrame:
    """One shared denominator for a list of scalars; a ScalarFrame passes
    unchanged.

    For rational (Fraction or int) values den is the lcm of the distinct
    denominators and nums are ints.  A list holding a float gets den = 1.0
    and its values unchanged.
    """
    if isinstance(values, ScalarFrame):
        return values
    if values and isinstance(values[0], float):
        return ScalarFrame(list(values), 1.0)
    try:
        dens = {v.denominator for v in values}
    except AttributeError:  # a float further down the list
        return ScalarFrame(list(values), 1.0)
    if len(dens) == 1:
        den = dens.pop()
        return ScalarFrame([v.numerator for v in values], den)
    den = math.lcm(*dens)
    scale = {d: den // d for d in dens}
    return ScalarFrame([v.numerator * scale[v.denominator] for v in values], den)


def integer_frame(points: Sequence[Vec2] | Frame) -> Frame:
    """One shared denominator for a point list; a Frame passes unchanged.

    For rational coordinates den is the lcm of the distinct coordinate
    denominators, and xs, ys are ints.  For float input den = 1.0 and the
    coordinates pass through unchanged.
    """
    if isinstance(points, Frame):
        return points
    nums, den = scalar_frame([c for p in points for c in (p.x, p.y)])
    return Frame(nums[0::2], nums[1::2], den)


def from_frame(num, den) -> Scalar:
    """num / den for a framed result: one Fraction over an int denominator,
    or the float quotient over a denominator built from a float frame."""
    return num / den if type(den) is float else Fraction(num, den)


class Stored:
    """A container field that holds a polygon: set with a ``Frame`` or a
    point list, it reads as the list.  It keeps (frame, items) in the slot
    "_" + name, with None for a form not yet built; reading it builds the
    list from the frame (``read``), and ``frame_of`` builds the frame from a
    list (``frame``).  ``StoredLadder`` and ``StoredValue`` are the same
    field for a coefficient ladder and for one framed value.  The
    class-level read raises AttributeError, so the dataclass field has no
    default."""

    @staticmethod
    def read(frame: Frame) -> list[Vec2]:
        return frame.points()

    @staticmethod
    def frame(items: Sequence[Vec2]) -> Frame:
        return integer_frame(items)

    def __set_name__(self, owner, name):
        self.name, self.slot = name, "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        frame, items = obj.__dict__[self.slot]
        if items is None:
            items = self.read(frame)
            obj.__dict__[self.slot] = (frame, items)
        return items

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = ((value, None) if isinstance(value, (Frame, ScalarFrame))
                                   else (None, value))


class StoredLadder(Stored):
    """A ``Stored`` coefficient ladder: set with a ``ScalarFrame`` or a list
    of scalars, it reads as the list (``ScalarFrame.values``)."""

    @staticmethod
    def read(frame: ScalarFrame) -> list[Scalar]:
        return frame.values()

    @staticmethod
    def frame(items: Sequence[Scalar]) -> ScalarFrame:
        return scalar_frame(items)


class StoredValue(Stored):
    """A ``Stored`` scalar: set with a framed value, a ``ScalarFrame`` of one
    entry, or with the scalar itself, it reads as the scalar
    (``ScalarFrame.value``), built on the first read."""

    @staticmethod
    def read(frame: ScalarFrame) -> Scalar:
        return frame.value()

    @staticmethod
    def frame(item: Scalar) -> ScalarFrame:
        return scalar_frame([item])


def frame_of(obj, name: str) -> Frame | ScalarFrame:
    """The frame of the ``Stored`` field ``name`` of obj: the frame it was
    set with, or the frame of the list (or scalar) it was set with, as its
    field builds it (``integer_frame`` of a point list, ``scalar_frame`` of
    scalars), on the first call, and kept."""
    frame, items = obj.__dict__["_" + name]
    if frame is None:
        field_ = next(vars(c)[name] for c in type(obj).__mro__ if name in vars(c))
        frame = field_.frame(items)
        obj.__dict__["_" + name] = (frame, items)
    return frame


def single_point(f: Frame) -> bool:
    """Whether every point of a frame is its first (``first_mismatch``
    against that one point): exact equality on an exact frame, and on a
    float frame FLOAT's ``eq`` of the coordinates themselves."""
    return first_mismatch(f, Frame(f.xs[:1], f.ys[:1], f.den)) is None


def cross_terms(xs: Sequence, ys: Sequence) -> list:
    """det(p_j, p_{j+1}) = xs[j] ys[j+1] - ys[j] xs[j+1] for each j of a closed list."""
    return [x0 * y1 - y0 * x1 for x0, y0, x1, y1 in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1])]


def edge_vectors(xs: Sequence, ys: Sequence) -> list[tuple]:
    """(xs[j+1] - xs[j], ys[j+1] - ys[j]) for each j of a closed list."""
    return [(x1 - x0, y1 - y0) for x0, y0, x1, y1 in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1])]


def polygon_area(points: Sequence[Vec2] | Frame) -> Scalar:
    """Signed shoelace area of a closed vertex list (positive iff CCW): the
    mixed area A(P, P)."""
    f = integer_frame(points)
    if len(f.xs) < 3:
        raise InputError("polygon_area needs at least 3 vertices")
    return mixed_area(f, f)


def mixed_area(p: Sequence[Vec2] | Frame, q: Sequence[Vec2] | Frame) -> Scalar:
    """Mixed area of two closed polygons listed with matching parallel edges:
    the value of ``mixed_area_frame``."""
    return mixed_area_frame(p, q).value()


def mixed_area_frame(p: Sequence[Vec2] | Frame, q: Sequence[Vec2] | Frame) -> ScalarFrame:
    """``mixed_area`` as a framed value.

    Computed as (1/2) sum_i [q_i, p_{i+1} - p_i] on the frames of p and q,
    over 2 den(p) den(q); the symmetric companion formula (1/2) sum_i
    [p_{i+1}, q_{i+1} - q_i] gives the same value and is exercised by the
    test suite.  For q is p this is the signed shoelace area, whose terms
    are det(p_i, p_{i+1}).  An exact doubled frame, one whose second half
    equals its first, sums them over its first half, closed on itself, as
    x_j (y_{j+1} - y_{j-1}): the same integer from one multiplication per
    vertex instead of two, over den^2.
    """
    fp = integer_frame(p)
    if q is p and fp.exact and fp.is_doubled:
        xs, ys, den = fp.half()
        return ScalarFrame([sum(map(mul, xs, map(sub, ys[1:] + ys[:1], ys[-1:] + ys[:-1])))],
                           den * den)
    (px, py, pden), (qx, qy, qden) = fp, fp if q is p else integer_frame(q)
    if len(qx) != len(px):
        raise InputError(f"mixed_area: length mismatch ({len(px)} vs {len(qx)})")
    acc = 0
    for x, y, a, b, c, d in zip(qx, qy, px, px[1:] + px[:1], py, py[1:] + py[:1]):
        acc = acc + (x * (d - c) - y * (b - a))
    return ScalarFrame([acc], 2 * pden * qden)


def frame_eq(a, da, b, db) -> bool:
    """a / da == b / db for two framed values with positive denominators: by
    cross-multiplication on integers, and by FLOAT's ``eq`` of the two
    quotients if either denominator is a float."""
    if type(da) is float or type(db) is float:
        return FLOAT.eq(a / da, b / db)
    return a * db == b * da


def first_mismatch(a: Frame, b: Frame, shift: int = 0) -> int | None:
    """The first index i whose point of frame a differs from point (i +
    shift) mod len(b) of frame b, or None if every point of a has its match.
    Exact frames compare by cross-multiplication, so neither need be
    reduced; if either frame is a float one, the quotients compare by
    FLOAT's ``eq``, as ``Backend.same_point`` of their points does."""
    ax, ay, da = a
    bx, by, db = b
    k = shift % len(bx) if bx else 0
    pairs = zip(ax, ay, cycle(bx[k:] + bx[:k]), cycle(by[k:] + by[:k]))
    if type(da) is float or type(db) is float:
        eq = FLOAT.eq
        for i, (x, y, p, q) in enumerate(pairs):
            if not (eq(x / da, p / db) and eq(y / da, q / db)):
                return i
        return None
    for i, (x, y, p, q) in enumerate(pairs):
        if x * db != p * da or y * db != q * da:
            return i
    return None


# Framed values: one scalar nums[0] / den as a ScalarFrame of one entry,
# with den > 0.  The exact ledger adds and compares them on integers, with
# no Fraction in between.  If either denominator is a float, each helper
# takes the quotients and runs the float operation, and FLOAT's predicate,
# that the same values as scalars would; a ledger's running sum starts at
# the int frame 0 / 1 on both backends.

def value_sum(a: ScalarFrame, b: ScalarFrame) -> ScalarFrame:
    """a + b of two framed values: over lcm(den_a, den_b), one gcd, on
    integers; the float sum of the quotients, over 1.0, on a float frame.
    a - b is ``value_sum(a, -b)``, also bit for bit on floats."""
    (x,), dx = a
    (y,), dy = b
    if type(dx) is float or type(dy) is float:
        return ScalarFrame([x / dx + y / dy], 1.0)
    g = math.gcd(dx, dy)
    return ScalarFrame([x * (dy // g) + y * (dx // g)], dx // g * dy)


def value_eq(a: ScalarFrame, b: ScalarFrame) -> bool:
    """a == b for two framed values (``frame_eq``)."""
    (x,), dx = a
    (y,), dy = b
    return frame_eq(x, dx, y, dy)


def value_le(a: ScalarFrame, b: ScalarFrame) -> bool:
    """a <= b for two framed values: by cross-multiplication on integers,
    and by FLOAT's ``le`` of the quotients on a float frame.  ``not
    value_le(b, a)`` is the backend's ``lt(a, b)``: both backends decide le
    and lt by the sign of the difference, and the float b - a is exactly
    -(a - b)."""
    (x,), dx = a
    (y,), dy = b
    if type(dx) is float or type(dy) is float:
        return FLOAT.le(x / dx, y / dy)
    return x * dy <= y * dx


def value_sign(a: ScalarFrame) -> int:
    """The sign of a framed value on its backend: of its numerator on
    integers, FLOAT's of its quotient on a float frame."""
    (x,), dx = a
    return FLOAT.sign(x / dx) if type(dx) is float else RATIONAL.sign(x)


def coeff_along(w: Vec2, d: Vec2) -> Scalar:
    """Solve w = t*d for t, requiring exact parallelism.

    On the integer frame of w and d, parallelism is tested by
    cross-multiplication, det(w, d) = 0, which is exact in rational mode
    and within the float tolerance in float mode.  The dominant
    coordinate of d gives t.
    """
    (wx, dx), (wy, dy), _ = f = integer_frame((w, d))
    if not dx and not dy:
        raise InputError("cannot take a coefficient along the zero vector")
    if not f.backend.is_zero(wx * dy - wy * dx):
        raise IdentityError(f"vector {w!r} is not parallel to {d!r}")
    return from_frame(wx, dx) if abs(dx) >= abs(dy) else from_frame(wy, dy)


# ---------------------------------------------------------------------------
# polygon containers
# ---------------------------------------------------------------------------

def _angle_less(ux, uy, vx, vy) -> bool:
    """``angle_less`` on the coordinates of u and v: u's half-turn [0, 180)
    degrees comes first, then a positive det(u, v).  A positive factor on
    both vectors, such as a frame denominator, does not change it."""
    hu = uy > 0 or (uy == 0 and ux > 0)
    hv = vy > 0 or (vy == 0 and vx > 0)
    if hu != hv:
        return hu
    return ux * vy - uy * vx > 0


def angle_less(u: Vec2, v: Vec2) -> bool:
    """Strict full-circle CCW ordering of nonzero direction vectors from 0deg."""
    return _angle_less(u.x, u.y, v.x, v.y)


def clean_convex(points: Sequence[Vec2] | Frame):
    """Normalize a raw vertex list, or its frame, into strictly convex CCW form.

    Returns (frame, notes).  Consecutive duplicates are merged and
    collinear middle vertices dropped (both reported in notes); clockwise
    input is reversed (reported).  Raises InputError if fewer than three
    effective vertices remain, the area is zero or the result is not convex.
    Every test runs on the integer frame of the input, on its backend, and
    the frame returned is that of the input points kept, reduced by its
    content (``Frame.reduced``).
    """
    xs, ys, den = f = integer_frame(points if isinstance(points, Frame) else list(points))
    if len(xs) < 3:
        raise InputError("polygon needs at least 3 vertices")
    sign = f.backend.sign
    q = list(zip(xs, ys))
    keep = [i for i in range(len(q)) if i == 0 or q[i] != q[i - 1]]
    notes = ["dropped duplicate consecutive vertex"] * (len(q) - len(keep))
    while len(keep) > 1 and q[keep[0]] == q[keep[-1]]:
        keep.pop()
        notes.append("dropped duplicate closing vertex")
    if len(keep) < 3:
        raise InputError("fewer than 3 effective vertices after cleanup")

    orient = sign(polygon_area(Frame([xs[i] for i in keep], [ys[i] for i in keep], den)))
    if orient == 0:
        raise InputError("polygon has zero area")
    if orient < 0:
        keep.reverse()
        notes.append("reversed clockwise input to counterclockwise")

    changed = True
    while changed:
        changed = False
        k = len(keep)
        if k < 3:
            raise InputError("fewer than 3 effective vertices after cleanup")
        for i in range(k):
            (ax, ay), (bx, by), (cx, cy) = q[keep[i - 1]], q[keep[i]], q[keep[(i + 1) % k]]
            ux, uy, wx, wy = bx - ax, by - ay, cx - bx, cy - by
            cr = sign(ux * wy - uy * wx)
            if cr == 0:
                if sign(ux * wx + uy * wy) <= 0:
                    raise InputError("polygon is not convex (reflex collinear turn)")
                keep.pop(i)
                notes.append("dropped collinear vertex")
                changed = True
                break
            if cr < 0:
                raise InputError(f"polygon is not convex at vertex index {i}")
    return Frame([xs[i] for i in keep], [ys[i] for i in keep], den).reduced(), notes


class _FrameFact:
    """``backend`` or ``n`` of a ``_Framed`` container.  The first read of
    either takes both from the frame, in one pass, into the instance dict,
    which later reads find first: a non-data descriptor, with no lock, unlike
    ``functools.cached_property``."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        f = obj.frame
        d = obj.__dict__
        d["backend"], d["n"] = f.backend, len(f.xs) // 2
        return d[self.name]


class _Framed:
    """A container whose polygon is its ``Stored`` field named ``_polygon``,
    whose frame gives its ``backend``, ``n`` (half the vertex count) and
    ``degenerate`` (``single_point``), each read once: frames are not set again."""

    _polygon = "vertices"
    backend = _FrameFact()
    n = _FrameFact()

    @property
    def frame(self) -> Frame:
        """The frame of the polygon (``frame_of``)."""
        return frame_of(self, self._polygon)

    def __len__(self):
        return len(self.frame.xs)

    @cached_property
    def degenerate(self) -> bool:
        return single_point(self.frame)


@dataclass
class ConvexPolygon(_Framed):
    """Strictly convex CCW polygon (post-cleanup input type)."""

    vertices: list[Vec2] = Stored()
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        if len(self) < 3:
            raise InputError("polygon needs at least 3 vertices")

    @classmethod
    def from_points(cls, points: Iterable, backend: Backend = RATIONAL) -> "ConvexPolygon":
        """The cleaned polygon (``clean_convex``) of raw (x, y) pairs, each
        coordinate read by ``backend.convert``.  Plain ints on the rational
        backend are framed as they are, over den = 1, which is the frame
        their conversion would give."""
        pts = [(x, y) for x, y in points]
        if backend is RATIONAL and all(type(x) is int and type(y) is int for x, y in pts):
            raw = Frame([x for x, _ in pts], [y for _, y in pts], 1)
        else:
            raw = [vec(x, y, backend) for x, y in pts]
        frame, notes = clean_convex(raw)
        return cls(frame, notes)


@dataclass
class PairedPolygon(_Framed):
    """Closed 2n-list with opposite sides parallel or degenerate.

    Constructed by reorder_parallel (validated) or as an equidistant vertex
    list (container only; equidistants may be non-convex or have coincident
    diagonals, so validation is explicit via validate()).
    """

    vertices: list[Vec2] = Stored()

    def __post_init__(self):
        if len(self) % 2:
            raise InputError("paired polygon needs an even vertex count")
        if self.n < 2:
            raise InputError("paired polygon needs n >= 2")

    def edge(self, i: int) -> Vec2:
        m = 2 * self.n
        return self.vertices[(i + 1) % m] - self.vertices[i % m]

    def validate(self) -> None:
        """Check the paired invariants on the integer frame of the vertices;
        raise InputError with a witness index."""
        sgn = self.backend.sign
        n = self.n
        xs, ys, _ = f = self.frame
        for i in range(n):
            if xs[i] == xs[i + n] and ys[i] == ys[i + n]:
                raise InputError(f"zero diagonal at index {i}")
        edges = [(ex, ey, sgn(ex) == 0 and sgn(ey) == 0) for ex, ey in edge_vectors(xs, ys)]
        for i in range(n):
            (ex, ey, e0), (fx, fy, f0) = edges[i], edges[i + n]
            if e0 and f0:
                raise InputError(f"both opposite sides degenerate at index {i}")
            if not e0 and not f0 and sgn(ex * fy - ey * fx) != 0:
                raise InputError(f"opposite sides not parallel at index {i}")
        nz = [(ex, ey) for ex, ey, zero in edges if not zero]
        for (ax, ay), (bx, by) in zip(nz, nz[1:] + nz[:1]):
            if sgn(ax * by - ay * bx) < 0:
                raise InputError("paired polygon is not convex")
        if sgn(polygon_area(f)) <= 0:
            raise InputError("paired polygon is not counterclockwise")


@dataclass
class CenteredBall(_Framed):
    """Strictly convex CCW 2n-gon with central symmetry about the origin."""

    vertices: list[Vec2] = Stored()

    def __post_init__(self):
        if len(self) % 2:
            raise InputError("centered ball needs an even vertex count")
        if not len(self):
            raise InputError("centered ball needs vertices")

    def validate(self) -> None:
        """Central symmetry on the ``frame``, then strict convexity
        about the origin: every numerator of the cached ``edge_det_frame``
        (whose denominator is positive) is positive."""
        xs, ys, _ = self.frame
        be, n = self.backend, self.n
        for i in range(n):
            if not (be.eq(xs[i + n], -xs[i]) and be.eq(ys[i + n], -ys[i])):
                raise InputError(f"ball not centrally symmetric at index {i}")
        for i, e in enumerate(self.edge_det_frame.nums):
            if be.sign(e) <= 0:
                raise InputError(f"ball not strictly convex about origin at index {i}")

    @cached_property
    def is_symmetric(self) -> bool:
        """Whether U_{i+n} = -U_i holds exactly, on the frame's numerators
        (by float ``==`` on a float frame).  Then the ball's edges and its
        coefficient frames are antiperiodic too, and the ladder kernels
        solve and check a doubled polygon on its first n slots only."""
        xs, ys, _ = self.frame
        n = self.n
        return xs[n:] == [-x for x in xs[:n]] and ys[n:] == [-y for y in ys[:n]]

    @cached_property
    def edge_det_frame(self) -> ScalarFrame:
        """Framed edge determinants: det(W_i, W_{i+1}) = nums[i] / den."""
        xs, ys, den = self.frame
        return ScalarFrame(cross_terms(xs, ys), den * den)

    @property
    def divisor_frame(self) -> ScalarFrame:
        """``edge_det_frame`` read as the divisors of the dual ball and of the
        curvature radii.  A valid ball has them all positive; a zero one
        raises InputError naming its index."""
        dets = self.edge_det_frame
        if 0 in dets.nums:
            raise InputError(f"degenerate ball edge at index {dets.nums.index(0)}")
        return dets

    @cached_property
    def area(self) -> Scalar:
        """``polygon_area`` of the vertices."""
        return polygon_area(self.frame)

    def require_length(self, what: str, count: int, noun: str = "points") -> None:
        """InputError naming both lengths unless a list given to ``what``
        holds ``count`` = 2n entries, one per vertex of the ball."""
        if count != 2 * self.n:
            raise InputError(f"{what}: length mismatch ({count} {noun} vs "
                             f"{len(self)} ball vertices)")

    def own_backend(self, backend: Backend | None) -> Backend:
        """The ball's backend; a ``backend`` given as well must be that one."""
        if backend not in (None, self.backend):
            raise InputError(f"backend {backend.name} is not the ball's ({self.backend.name})")
        return self.backend

    def edge_coeffs(self, wxs: Iterable, wys: Iterable, den) -> ScalarFrame:
        """The coefficients t_i of framed vectors w_i = (wxs[i], wys[i]) / den
        along the ball's edges, w_i = t_i (U_{i+1} - U_i) with i mod 2n, as a
        ``ScalarFrame``.  Parallelism is tested by cross-multiplication, as in
        ``coeff_along``, with the ball's backend; where w_i is not parallel
        to its edge, nums[i] is None and the caller decides how to report it."""
        return self._coeffs(self._edge_coeff_frame, wxs, wys, den)

    def vertex_coeffs(self, wxs: Iterable, wys: Iterable, den) -> ScalarFrame:
        """``edge_coeffs`` along the vertices U_i themselves."""
        return self._coeffs(self._vertex_coeff_frame, wxs, wys, den)

    @cached_property
    def _edge_coeff_frame(self) -> tuple[list, int]:
        """The coefficient frame (edges, L) of ``edge_coeffs``.  edges[i] is
        (dx, dy, axis, s), where edge i is (dx, dy) / den, axis is 0 when
        |dx| >= |dy| and 1 otherwise, and q is the component on that axis,
        as ``coeff_along`` picks it.  A vector a / den_x along edge i has
        coefficient a den / (q den_x).  For a rational ball L = lcm |q| and
        s = den L / q, so the coefficients of one framed polygon share the
        denominator den_x L with numerators a s.  For a float ball L = 1 and
        s = q."""
        xs, ys, den = self.frame
        return self._coeff_frame(edge_vectors(xs, ys), den)

    @cached_property
    def _vertex_coeff_frame(self) -> tuple[list, int]:
        """``_edge_coeff_frame`` for coefficients along the vertices W_i
        themselves: a vector a / den_x along W_i has coefficient a s / (den_x L)."""
        xs, ys, den = self.frame
        return self._coeff_frame(list(zip(xs, ys)), den)

    def _coeff_frame(self, vectors: list, den) -> tuple[list, int]:
        out = []
        for dx, dy in vectors:
            if not dx and not dy:
                raise InputError("cannot take a coefficient along the zero vector")
            axis = 0 if abs(dx) >= abs(dy) else 1
            out.append((dx, dy, axis, dy if axis else dx))
        if not self.backend.exact:
            return out, 1
        L = math.lcm(*(abs(q) for *_, q in out))
        return [(dx, dy, axis, den * L // q) for dx, dy, axis, q in out], L

    def _coeffs(self, coeff_frame: tuple, wxs: Iterable, wys: Iterable, den) -> ScalarFrame:
        entries, L = coeff_frame
        dirs = cycle(entries)
        if self.backend.exact:
            return ScalarFrame([(wy if axis else wx) * s if wx * dy == wy * dx else None
                                for (dx, dy, axis, s), wx, wy in zip(dirs, wxs, wys)], den * L)
        eq = self.backend.eq
        return ScalarFrame([(wy if axis else wx) / (s * den) if eq(wx * dy, wy * dx) else None
                            for (dx, dy, axis, s), wx, wy in zip(dirs, wxs, wys)], den * L)

    @cached_property
    def second_dual(self) -> "CenteredBall":
        """The ball W = dual_ball(dual_ball(self)), read off with no arithmetic.

        W_i = U_{i+n+1} = -U_{i+1}.  W is U again, indexed by the edges of V,
        so (V, W) is a ball pair of the same kind as (U, V): the edge world
        of U is the vertex world of V.  W is U's frame n + 1 slots later,
        built once per U and kept, so its own constants are computed once.
        """
        xs, ys, den = self.frame
        k = (self.n + 1) % len(xs)
        return CenteredBall(Frame(xs[k:] + xs[:k], ys[k:] + ys[:k], den))


# ---------------------------------------------------------------------------
# Minkowski sum
# ---------------------------------------------------------------------------

def minkowski_sum(p: Sequence[Vec2] | ConvexPolygon,
                  q: Sequence[Vec2] | ConvexPolygon) -> list[Vec2]:
    """Minkowski sum of two convex CCW polygons: the points of
    ``minkowski_frame``.

    Either argument may be a single point (length-1 list), in which case the
    result is a translate.  Parallel same-direction edges are merged, so the
    output is strictly convex CCW.  Float points merge edges within the
    float tolerance, rational ones exactly.
    """
    return minkowski_frame(p, q).points()


def minkowski_frame(p: Sequence[Vec2] | ConvexPolygon | Frame,
                    q: Sequence[Vec2] | ConvexPolygon | Frame) -> Frame:
    """``minkowski_sum`` on the numerators: the edges of ``edge_merge``
    summed from the two lowest vertices, on the lcm of the denominators of
    the two frames (the frame of both point lists together).  An exact frame
    summed with a float one is read as its float quotients over 1.0."""
    p, q = (x.frame if isinstance(x, ConvexPolygon) else integer_frame(x) for x in (p, q))
    if p.exact != q.exact:
        p, q = (Frame([x / f.den for x in f.xs], [y / f.den for y in f.ys], 1.0) if f.exact
                else f for f in (p, q))
    elif p.den != q.den:
        den = math.lcm(p.den, q.den)
        p, q = (Frame([x * (den // f.den) for x in f.xs], [y * (den // f.den) for y in f.ys], den)
                for f in (p, q))
    p, q = p.distinct(), q.distinct()
    if not p.xs or not q.xs:
        raise InputError("minkowski_sum needs nonempty inputs")
    if len(q.xs) == 1:
        p, q = q, p
    if len(p.xs) == 1:
        return Frame([x + p.xs[0] for x in q.xs], [y + p.ys[0] for y in q.ys], p.den)
    i, j, merged = edge_merge(p, q)
    return Frame(list(accumulate([e[0] for e in merged[:-1]], initial=p.xs[i] + q.xs[j])),
                 list(accumulate([e[1] for e in merged[:-1]], initial=p.ys[i] + q.ys[j])), p.den)


def edge_merge(p: Frame, q: Frame) -> tuple[int, int, list[tuple]]:
    """The edges of two convex CCW polygons in one angular sweep, on two
    frames with one denominator.

    Each polygon lists its edges from its lowest vertex (least y, then least
    x), p[i] and q[j], so both lists run in full-circle angle order from 0
    degrees, and the sweep merges them in that order.  An edge of p and an
    edge of q with the same direction (``is_zero`` of their determinant on
    the frames' backend, positive dot product) become one edge, their sum.
    Returns (i, j, merged), where merged lists each edge as (ex, ey, own),
    the numerators of the edge and whether p has an edge in its direction;
    from p[i] + q[j] the merged edges trace p + q.  Both polygons need at
    least two distinct vertices.

    The sweep never compares its first and last edges.  In float mode they
    can be an edge of p and one of q parallel within the tolerance; then
    they are one direction, in the slot of p's edge, and j moves to match.
    """
    def edge_list(f: Frame) -> tuple[int, list]:
        xs, ys = f.xs, f.ys
        i0 = min(range(len(xs)), key=lambda i: (ys[i], xs[i]))
        return i0, edge_vectors(xs[i0:] + xs[:i0], ys[i0:] + ys[:i0])

    zero = p.backend.is_zero
    (i0, ep), (j0, eq) = edge_list(p), edge_list(q)
    merged: list[tuple] = []
    i = j = 0
    while i < len(ep) or j < len(eq):
        if i == len(ep):
            take = (*eq[j], False); j += 1
        elif j == len(eq):
            take = (*ep[i], True); i += 1
        else:
            (ax, ay), (bx, by) = ep[i], eq[j]
            if zero(ax * by - ay * bx) and ax * bx + ay * by > 0:
                take = (ax + bx, ay + by, True); i += 1; j += 1
            elif _angle_less(ax, ay, bx, by):
                take = (ax, ay, True); i += 1
            else:
                take = (bx, by, False); j += 1
        merged.append(take)
    (fx, fy, own), (lx, ly, last_own) = merged[0], merged[-1]
    if own != last_own and zero(fx * ly - fy * lx) and fx * lx + fy * ly > 0:
        if own:  # q's last edge, which ends at q[j0], joins p's first
            merged.pop()
            merged[0] = (fx + lx, fy + ly, True)
            j0 -= 1
        else:  # q's first edge, from q[j0], joins p's last
            merged.pop(0)
            merged[-1] = (fx + lx, fy + ly, True)
            j0 += 1
    return i0, j0 % len(q.xs), merged


# ---------------------------------------------------------------------------
# chord-midpoint counting and the region test
# ---------------------------------------------------------------------------

@dataclass
class RegionTest:
    """Result of the chord-midpoint region test.

    A point is exterior to the central equidistant of P exactly when it is
    the midpoint of one chord of P (count == 1), or lies outside P entirely
    (count == 0).  Overlapping reflected edges mean a continuum of chords.
    """

    chords: int | None
    overlap: bool
    symmetric: bool

    @property
    def exterior(self) -> bool:
        return (not self.overlap) and self.chords is not None and self.chords <= 1


def exact_frame(points: Sequence[Vec2] | Frame) -> Frame:
    """The frame of the points with every coordinate as its exact rational
    value.  An exact frame passes unchanged; a float frame or a float list
    is read through ``RATIONAL.convert`` (a float as its shortest decimal
    repr) and framed once."""
    if isinstance(points, Frame):
        if points.exact:
            return points
        points = zip(points.xs, points.ys)  # over den = 1.0
    convert = RATIONAL.convert
    return integer_frame([Vec2(convert(x), convert(y)) for x, y in points])


def point_key(nx: int, ny: int, d: int) -> tuple[int, int, int]:
    """The point (nx, ny) / d as a gcd-reduced integer triple with d > 0."""
    if d < 0:
        nx, ny, d = -nx, -ny, -d
    g = math.gcd(nx, ny, d)
    return nx // g, ny // g, d // g


def _seg_intersections(a, b, c, d, hits: set) -> bool:
    """Exact closed-segment intersection on integer endpoint pairs.

    Adds isolated intersection points (as ``point_key`` triples) to hits;
    returns True when the segments overlap in a positive-length segment.
    """
    rx, ry = b[0] - a[0], b[1] - a[1]
    sx, sy = d[0] - c[0], d[1] - c[1]
    denom = rx * sy - ry * sx
    acx, acy = c[0] - a[0], c[1] - a[1]
    if denom == 0:
        if rx * acy - ry * acx != 0:
            return False
        # collinear: compare 1-D intervals along the dominant axis of (rx, ry)
        if abs(rx) >= abs(ry):
            axis, ra = 0, rx
        else:
            axis, ra = 1, ry
        lo1, hi1 = (a[axis], b[axis]) if a[axis] <= b[axis] else (b[axis], a[axis])
        lo2, hi2 = (c[axis], d[axis]) if c[axis] <= d[axis] else (d[axis], c[axis])
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return False
        if lo < hi:
            return True
        t = lo - a[axis]  # the touching point is a + (t / ra) r
        hits.add(point_key(a[0] * ra + t * rx, a[1] * ra + t * ry, ra))
        return False
    d1 = rx * acy - ry * acx                      # [r, c-a]: side of c vs line ab
    d2 = rx * (d[1] - a[1]) - ry * (d[0] - a[0])  # [r, d-a]: side of d vs line ab
    d3 = sy * acx - sx * acy                      # [c-a, s] = [s, a-c]: side of a vs line cd
    d4 = sx * (b[1] - c[1]) - sy * (b[0] - c[0])  # [s, b-c]: side of b vs line cd
    s1 = (d1 > 0) - (d1 < 0)
    s2 = (d2 > 0) - (d2 < 0)
    s3 = (d3 > 0) - (d3 < 0)
    s4 = (d4 > 0) - (d4 < 0)
    if s1 * s2 > 0 or s3 * s4 > 0:
        return False
    # the crossing is a + (d3 / denom) r
    hits.add(point_key(a[0] * denom + d3 * rx, a[1] * denom + d3 * ry, denom))
    return False


class _FramedBoundary:
    """A boundary on its integer frame: vertices ``q`` as integer pairs over
    ``den``, and a midpoint x given as (cx, cy, s) with 2x = (cx, cy) /
    (den s) for a positive integer s."""

    den: int
    q: list
    qset: set

    def point(self, cx: int, cy: int, s: int) -> Vec2:
        """The point x of (cx, cy, s), as Fractions."""
        d = 2 * s * self.den
        return Vec2(Fraction(cx, d), Fraction(cy, d))

    def centre(self, cx: int, cy: int, s: int) -> bool:
        """Whether x is a centre of symmetry of the vertex set."""
        if cx % s or cy % s:
            return False
        cx, cy = cx // s, cy // s
        return all((cx - x, cy - y) in self.qset for x, y in self.q)


class ChordFrame(_FramedBoundary):
    """A convex polygon boundary on its integer frame, for counting the
    chords of many midpoints.

    The distinct boundary vertices are put on one denominator ``den``
    (float coordinates are snapped to their exact rational values first),
    and the bounding boxes of all pairs of boundary edges are summed once.
    The box test of an edge pair compares the boundary's own integers with
    floor and ceiling of (cx, cy) / s, which is exact because the box
    bounds are integers; only the edge pairs that pass it are scaled by s
    for the exact intersection.
    """

    def __init__(self, boundary: Sequence[Vec2] | Frame):
        xs, ys, self.den = exact_frame(boundary).distinct()
        if len(xs) < 3:
            raise InputError("chord_count needs a genuine polygon boundary")
        q = self.q = list(zip(xs, ys))
        self.qset = set(q)
        boxes = [(min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1]), a, b)
                 for a, b in zip(q, q[1:] + q[:1])]
        # edge [a, b] against the reflected edge [c - e, c - f]: their
        # bounding boxes meet iff c lies in the sum of the boxes of [a, b]
        # and [e, f]
        self.pairs = [(lx + ex, hx + fx, ly + ey, hy + fy, a, b, e, f)
                      for lx, hx, ly, hy, a, b in boxes
                      for ex, fx, ey, fy, e, f in boxes]

    def count(self, cx: int, cy: int, s: int = 1) -> RegionTest:
        """Chords of the boundary with midpoint x, 2x = (cx, cy) / (den s).

        The edges of the boundary and of its reflection through x are tested
        pairwise, O(m^2), skipping pairs whose bounding boxes miss; each
        unordered pair {p, 2x - p} of intersection points is one chord.
        """
        if self.centre(cx, cy, s):
            return RegionTest(chords=None, overlap=True, symmetric=True)
        lo_cx, lo_cy = cx // s, cy // s
        hi_cx = lo_cx if lo_cx * s == cx else lo_cx + 1
        hi_cy = lo_cy if lo_cy * s == cy else lo_cy + 1
        hits: set = set()
        for lo_x, hi_x, lo_y, hi_y, a, b, e, f in self.pairs:
            if lo_cx < lo_x or hi_cx > hi_x or lo_cy < lo_y or hi_cy > hi_y:
                continue
            if s != 1:
                a, b = (a[0] * s, a[1] * s), (b[0] * s, b[1] * s)
                e, f = (e[0] * s, e[1] * s), (f[0] * s, f[1] * s)
            if _seg_intersections(a, b, (cx - e[0], cy - e[1]), (cx - f[0], cy - f[1]), hits):
                return RegionTest(chords=None, overlap=True, symmetric=False)
        fixed = 1 if point_key(cx, cy, 2) in hits else 0
        return RegionTest(chords=(len(hits) + fixed) // 2, overlap=False, symmetric=False)


class WindingFrame(_FramedBoundary):
    """A strictly convex paired boundary on its integer frame, for counting
    the chords of many midpoints in O(m) each.

    The boundary q_0 ... q_{2n-1} has its edges i and i + n exactly
    antiparallel (``chord_frame`` builds the ``edges`` once and tests this
    and strict convexity on them), and ``orient`` is its orientation, 1 or
    -1.  Its diagonal midpoints M_i = (q_i + q_{i+n}) / 2 close up after n
    steps, and the midpoints of the chords from edge i to edge i + n fill
    the segment S_i from (q_i + q_{i+n+1}) / 2 to (q_{i+1} + q_{i+n}) / 2,
    which holds the edge M_i M_{i+1} in its interior.  The chords with
    midpoint x are then:

    * a continuum (overlap) when x lies on an open S_i;
    * otherwise 2|w| + 1, where w != 0 is the winding number of the
      n-cycle M_0 ... M_{n-1} about x;
    * when w = 0, one inside the boundary or at a vertex (the chord of
      length 0), a continuum on an open edge, and none outside.

    This is the count of ``ChordFrame``, which the tests keep as its
    oracle.  Every test runs on the doubled midpoints q_i + q_{i+n} and S_i
    ends, compared with (cx, cy) after one product by s.
    """

    def __init__(self, xs: list, ys: list, den: int, orient: int, edges: list):
        m, n = len(xs), len(xs) // 2
        self.den, self.orient = den, orient
        q = self.q = list(zip(xs, ys))
        self.qset = set(q)
        mid = [(xs[i] + xs[i + n], ys[i] + ys[i + n]) for i in range(n)]
        self.segments = []
        for i in range(n):
            ax, ay = xs[i] + xs[(i + n + 1) % m], ys[i] + ys[(i + n + 1) % m]
            dx, dy = xs[i + 1] + xs[i + n] - ax, ys[i + 1] + ys[i + n] - ay
            (mx, my), (nx, ny) = mid[i], mid[(i + 1) % n]
            along = (nx - mx) * dx + (ny - my) * dy > 0  # M_i M_{i+1} runs along S_i
            self.segments.append((dx, dy, dx * ay - dy * ax, dx * ax + dy * ay,
                                  dx * dx + dy * dy, my, ny, along))
        self.edges = [(ex, ey, 2 * (ex * y - ey * x)) for (x, y), (ex, ey) in zip(q, edges)]

    def count(self, cx: int, cy: int, s: int = 1) -> RegionTest:
        """Chords of the boundary with midpoint x, 2x = (cx, cy) / (den s),
        by the open S_i, the winding number of M about x and, when that is
        0, the side of x against each boundary edge: O(m)."""
        if self.centre(cx, cy, s):
            return RegionTest(chords=None, overlap=True, symmetric=True)
        w = 0
        for dx, dy, k, kt, dd, y0, y1, along in self.segments:
            side = dx * cy - dy * cx - s * k  # [d, X - s A], A the start of S_i
            if side == 0:
                if 0 < dx * cx + dy * cy - s * kt < s * dd:
                    return RegionTest(chords=None, overlap=True, symmetric=False)
            elif (up := s * y0 <= cy) != (s * y1 <= cy) and up == ((side > 0) == along):
                # the edge M_i M_{i+1} crosses the ray from x, up with x on
                # its left or down with x on its right
                w += 1 if up else -1
        if w:
            return RegionTest(chords=2 * abs(w) + 1, overlap=False, symmetric=False)
        on_boundary = False
        for ex, ey, k in self.edges:
            side = (ex * cy - ey * cx - s * k) * self.orient  # [e_j, X - 2s q_j]
            if side < 0:
                return RegionTest(chords=0, overlap=False, symmetric=False)
            on_boundary = on_boundary or side == 0
        if on_boundary and (cx % (2 * s) or cy % (2 * s)
                            or (cx // (2 * s), cy // (2 * s)) not in self.qset):
            return RegionTest(chords=None, overlap=True, symmetric=False)
        return RegionTest(chords=1, overlap=False, symmetric=False)


def _convex_pairing(xs: list, ys: list, e: list) -> int:
    """The orientation (1 counterclockwise, -1 clockwise) of a closed
    integer list, with edges e, that is a strictly convex 2n-gon, n >= 2,
    whose edges i and i + n are exactly antiparallel; 0 for any other list."""
    m, n = len(xs), len(xs) // 2
    if m % 2 or n < 2:
        return 0
    area = sum(cross_terms(xs, ys))
    o = (area > 0) - (area < 0)

    def cross(a, b):
        return o * (a[0] * b[1] - a[1] * b[0])

    # each edge turns strictly to the side of o from the one before, and
    # edges 1 .. n - 1 stay strictly on that side of edge 0, so the
    # directions turn once around (edge i + n repeats the turns of edge i)
    if o and all(cross(a, b) == 0 and a[0] * b[0] + a[1] * b[1] < 0 for a, b in zip(e, e[n:])) \
            and all(cross(e[j - 1], e[j]) > 0 for j in range(1, n + 1)) \
            and all(cross(e[0], e[j]) > 0 for j in range(1, n)):
        return o
    return 0


def chord_frame(boundary: Sequence[Vec2] | Frame) -> ChordFrame | WindingFrame:
    """The chord counter for many midpoints against one boundary.

    A ``WindingFrame`` when the snapped boundary is paired: a strictly
    convex 2n-gon, n >= 2, whose edges i and i + n are exactly
    antiparallel (one O(m) exact test on its integer frame).  Every
    rational parent of the region test is paired; any other boundary, in
    practice a float parent whose rounding broke a pair, gets the O(m^2)
    ``ChordFrame``.  The boundary is framed once (``exact_frame``).
    """
    xs, ys, den = exact_frame(boundary)
    e = edge_vectors(xs, ys)
    orient = _convex_pairing(xs, ys, e)
    return WindingFrame(xs, ys, den, orient, e) if orient else ChordFrame(boundary)


def chord_count(x: Vec2, boundary: Sequence[Vec2]) -> RegionTest:
    """Count chords of the convex polygon having x as their midpoint.

    The boundary is intersected with its point-reflection through x; each
    unordered pair {p, 2x - p} of intersection points is one chord.  Always
    exact: float inputs are snapped to their exact rational values first,
    and the work runs on the integer frame of the boundary and x
    (``ChordFrame``).
    """
    frame = ChordFrame(boundary)
    (cx,), (cy,), s = exact_frame([x])
    return frame.count(2 * frame.den * cx, 2 * frame.den * cy, s)


def point_region_test(x: Vec2, p: PairedPolygon | Sequence[Vec2]) -> RegionTest:
    """Chord-midpoint test of x against the region bounded by the central
    equidistant of p (a convex polygon given by its boundary vertices)."""
    return chord_count(x, p.frame if isinstance(p, PairedPolygon) else p)
