"""Exact scalar arithmetic: Gaussian rationals a + b*sqrt(-1).

Every coefficient in this package is a Scalar.  Components are
arbitrary-precision ``fractions.Fraction`` values, so k! denominators and
long products of structure constants never overflow and nothing is ever
rounded.  There is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction
_NUMBERS = (int, Fraction)


class Scalar:
    """A Gaussian rational ``re + im*sqrt(-1)`` in canonical form."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def _make(cls, re: Fraction, im: Fraction) -> "Scalar":
        s = object.__new__(cls)
        s.re = re
        s.im = im
        return s

    # -- ring structure --------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, _NUMBERS):
                return NotImplemented
            other = Scalar(other)
        return Scalar._make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, _NUMBERS):
                return NotImplemented
            other = Scalar(other)
        return Scalar._make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return promote(other) - self

    def __neg__(self):
        return Scalar._make(-self.re, -self.im)

    def __mul__(self, other):
        # a non-number (a tensor, a U(g) element) scales itself by __rmul__
        if type(other) is not Scalar:
            if not isinstance(other, _NUMBERS):
                return NotImplemented
            other = Scalar(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return Scalar._make(a * c, _FR_ZERO)
        return Scalar._make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        a, b = self.re, self.im
        if not a and not b:
            raise ZeroDivisionError("inverse of zero Scalar")
        n = a * a + b * b
        return Scalar._make(a / n, -b / n)

    def __truediv__(self, other):
        return self * promote(other).inv()

    def __rtruediv__(self, other):
        return promote(other) * self.inv()

    # -- comparisons / hashing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, _NUMBERS):
            return self.im == 0 and self.re == other
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_zero(self) -> bool:
        return not self

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return "%s*i" % self.im
        return "(%s%s%s*i)" % (self.re, "+" if self.im > 0 else "-", abs(self.im))

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {
            "re": [str(self.re.numerator), str(self.re.denominator)],
            "im": [str(self.im.numerator), str(self.im.denominator)],
        }

    @classmethod
    def from_json(cls, data) -> "Scalar":
        re = Fraction(int(data["re"][0]), int(data["re"][1]))
        im = Fraction(int(data["im"][0]), int(data["im"][1]))
        return cls._make(re, im)


_FR_ZERO = Fraction(0)

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
