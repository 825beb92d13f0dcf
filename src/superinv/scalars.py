"""Exact scalar arithmetic: Gaussian rationals a + b*sqrt(-1).

Every coefficient in this package is a Scalar.  It stores Python ints
``(a, b, d)`` meaning ``(a + b*i)/d``, with ``d > 0`` and ``gcd(a, b, d) == 1``,
so k! denominators never overflow and there is no floating point anywhere.
``+`` and ``*`` are int arithmetic with one gcd when d is not 1; ``-`` negates
and adds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_NUMBERS = (int, Fraction)
_new = object.__new__


def _make(a: int, b: int, d: int) -> "Scalar":
    """The Scalar (a + b*i)/d for ints with d > 0, reduced unless d == 1."""
    if d != 1 and (g := gcd(a, b, d)) != 1:
        a, b, d = a // g, b // g, d // g
    s = _new(Scalar)
    s.a, s.b, s.d = a, b, d
    return s


def _operand(x):
    """An int or Fraction (subclasses such as bool included) as a Scalar, else None."""
    return Scalar(x) if isinstance(x, _NUMBERS) else None


class Scalar:
    """A Gaussian rational ``(a + b*sqrt(-1))/d``; ``re`` and ``im`` are its Fraction parts."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            p, q = re.denominator, im.denominator
            d = p // gcd(p, q) * q
            self.a, self.b, self.d = re.numerator * (d // p), im.numerator * (d // q), d

    re = property(lambda self: Fraction(self.a, self.d), doc="The real part, a Fraction.")
    im = property(lambda self: Fraction(self.b, self.d), doc="The imaginary part, a Fraction.")

    def __add__(self, other):
        if type(other) is not Scalar and (other := _operand(other)) is None:
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _make(self.a + other.a, self.b + other.b, d)
        return _make(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar and (other := _operand(other)) is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return promote(other) - self

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other):
        # a non-number (a tensor, a U(g) element) scales itself by __rmul__
        if type(other) is not Scalar and (other := _operand(other)) is None:
            return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        if not b and not e:
            return _make(a * c, 0, self.d * other.d)
        return _make(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if not self:
            raise ZeroDivisionError("inverse of zero Scalar")
        return _make(self.d * self.a, -self.d * self.b, self.a**2 + self.b**2)

    def __truediv__(self, other):
        return self * promote(other).inv()

    def __rtruediv__(self, other):
        return promote(other) * self.inv()

    def __eq__(self, other):
        if type(other) is not Scalar and (other := _operand(other)) is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # equal to the hash of the int or Fraction it equals
        return hash(self.re) if not self.b else hash((self.re, self.im))

    def __bool__(self):
        return bool(self.a or self.b)

    def is_zero(self) -> bool:
        return not self

    def __repr__(self):
        re, im = self.re, self.im
        if not re or not im:
            return "%s*i" % im if im else str(re)
        return "(%s%s%s*i)" % (re, "+" if im > 0 else "-", abs(im))

    def to_json(self):
        parts = (("re", self.re), ("im", self.im))
        return {name: [str(x.numerator), str(x.denominator)] for name, x in parts}


ZERO = Scalar(0)
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)
I = Scalar(0, 1)
HALF = Scalar(Fraction(1, 2))


def promote(x) -> Scalar:
    """Coerce an int or Fraction into a Scalar; Scalars pass through."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, _NUMBERS):
        return Scalar(x)
    raise TypeError("cannot promote %r to Scalar" % (x,))


def sign_scalar(exponent: int) -> Scalar:
    """(-1)**exponent as a Scalar, for composing sign calculus with coefficients."""
    return MINUS_ONE if exponent % 2 else ONE
