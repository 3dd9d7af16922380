"""Scalar backends.

All geometry in this package is parameterized over a scalar backend:

* ``rational`` -- exact arithmetic on :class:`fractions.Fraction`.  Every
  identity this library checks (Barbier, area gaps, dual-ball relations, ...)
  holds exactly in this mode, so equality predicates are literal ``==``.
* ``float`` -- binary64 arithmetic with a fixed comparison tolerance.  Useful
  for rendering and long convergence runs where exact coordinates would grow.

Backends own only the *predicates* (equality, sign, zero tests) and the
conversion of raw input values; ordinary ``+ - * /`` is done directly on the
scalars, which works uniformly for ``Fraction`` and ``float``.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int, float]

DEFAULT_EPS = 1e-9


class Backend:
    """Base interface; use the RATIONAL / FLOAT singletons or get_backend().
    Each backend defines ``convert``, ``eq``, ``sign`` and ``to_json``."""

    name: str
    exact: bool

    def is_zero(self, a: Scalar) -> bool:
        return self.eq(a, 0)

    def same_point(self, p, q) -> bool:
        """Coordinatewise ``eq`` of two Vec2 (literal ``==`` when exact)."""
        return self.eq(p.x, q.x) and self.eq(p.y, q.y)

    def le(self, a: Scalar, b: Scalar) -> bool:
        return self.sign(a - b) <= 0

    def lt(self, a: Scalar, b: Scalar) -> bool:
        return self.sign(a - b) < 0


class RationalBackend(Backend):
    name = "rational"
    exact = True

    def convert(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, bool):
            raise TypeError("boolean is not a coordinate")
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError(f"non-finite coordinate {value!r}")
            # exact base-10 reading of the shortest decimal repr
            return Fraction(repr(value))
        if isinstance(value, str):
            return Fraction(value)
        raise TypeError(f"cannot convert {type(value).__name__} to rational scalar")

    eq = staticmethod(operator.eq)

    def sign(self, a) -> int:
        if a > 0:
            return 1
        if a < 0:
            return -1
        return 0

    def to_json(self, a):
        f = Fraction(a)
        if f.denominator == 1:
            return int(f)
        return f"{f.numerator}/{f.denominator}"


class FloatBackend(Backend):
    name = "float"
    exact = False
    eps = DEFAULT_EPS

    def convert(self, value) -> float:
        """The float nearest to value; a finite value beyond float range
        ('1e400', 10**400) raises OverflowError "out of float range"."""
        if isinstance(value, bool):
            raise TypeError("boolean is not a coordinate")
        try:
            out = float(Fraction(value) if isinstance(value, str) else value)
        except OverflowError:
            raise OverflowError("out of float range") from None
        if not math.isfinite(out):
            raise ValueError(f"non-finite coordinate {value!r}")
        return out

    def eq(self, a, b) -> bool:
        return abs(a - b) <= self.eps

    def sign(self, a) -> int:
        if a > self.eps:
            return 1
        if a < -self.eps:
            return -1
        return 0

    def to_json(self, a):
        return float(a)


RATIONAL = RationalBackend()
FLOAT = FloatBackend()


def get_backend(name: str) -> Backend:
    if name == "rational":
        return RATIONAL
    if name == "float":
        return FLOAT
    raise ValueError(f"unknown backend {name!r} (expected 'rational' or 'float')")


def parse_scalar(text, backend: Backend, what: str = "scalar") -> Scalar:
    """Parse a CLI/JSON scalar: int, decimal, or exact 'p/q' string.

    Malformed, non-finite, zero-denominator and (in float mode) out-of-range
    values raise InputError.  A 'p/0' text is worded "zero denominator" and
    a text that reads as a nan or an infinity "not a finite number", on
    both backends; other failures carry the converter's own message.
    """
    try:
        return backend.convert(text)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as e:
        from .core import InputError  # core imports this module

        reason = ("zero denominator" if isinstance(e, ZeroDivisionError)
                  else "not a finite number" if _nan_or_inf_literal(text) else e)
        raise InputError(f"bad {what} {text!r}: {reason}") from e


def _nan_or_inf_literal(text) -> bool:
    """Whether a string is a float literal of a nan or an infinity ('nan',
    '-inf', 'Infinity', ...), which ``Fraction`` rejects as malformed.  A
    finite literal beyond float range ('1e400') is not one."""
    if not isinstance(text, str):
        return False
    try:
        x = float(text)
    except ValueError:
        return False
    return math.isnan(x) or (math.isinf(x) and "inf" in text.lower())
