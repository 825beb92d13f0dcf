import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superinv.scalars import HALF, I, MINUS_ONE, ONE, ZERO, Scalar, promote


class FractionPairScalar:
    """Reference oracle: the earlier Scalar, two Fractions ``re + im*sqrt(-1)``.

    Kept only to check the integer triple against; it shares no arithmetic
    with it.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def _make(cls, re: Fraction, im: Fraction) -> "FractionPairScalar":
        s = object.__new__(cls)
        s.re = re
        s.im = im
        return s

    def __add__(self, other):
        if type(other) is not FractionPairScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = FractionPairScalar(other)
        return FractionPairScalar._make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not FractionPairScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = FractionPairScalar(other)
        return FractionPairScalar._make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return ref_promote(other) - self

    def __neg__(self):
        return FractionPairScalar._make(-self.re, -self.im)

    def __mul__(self, other):
        # a non-number (a tensor, a U(g) element) scales itself by __rmul__
        if type(other) is not FractionPairScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = FractionPairScalar(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return FractionPairScalar._make(a * c, _FR_ZERO)
        return FractionPairScalar._make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inv(self) -> "FractionPairScalar":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        a, b = self.re, self.im
        if not a and not b:
            raise ZeroDivisionError("inverse of zero Scalar")
        n = a * a + b * b
        return FractionPairScalar._make(a / n, -b / n)

    def __truediv__(self, other):
        return self * ref_promote(other).inv()

    def __rtruediv__(self, other):
        return ref_promote(other) * self.inv()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, FractionPairScalar):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        # equal to the hash of the int or Fraction it equals
        return hash(self.re) if not self.im else hash((self.re, self.im))

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

    def to_json(self):
        return {
            "re": [str(self.re.numerator), str(self.re.denominator)],
            "im": [str(self.im.numerator), str(self.im.denominator)],
        }


_FR_ZERO = Fraction(0)


def ref_promote(x):
    if isinstance(x, FractionPairScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return FractionPairScalar(x)
    raise TypeError("cannot promote %r to Scalar" % (x,))


def rand_scalar(rng):
    def part():
        return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))

    return Scalar(part(), part())


def test_basic_identities():
    assert Scalar(Fraction(1, 2)) + Scalar(Fraction(1, 2)) == ONE
    assert I * I == MINUS_ONE
    assert Scalar(2).inv() == HALF
    assert ONE + MINUS_ONE == ZERO
    assert not ZERO
    assert ONE


def test_field_axioms_random():
    rng = random.Random(20240817)
    for _ in range(200):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_inverse_random():
    rng = random.Random(7)
    for _ in range(100):
        a = rand_scalar(rng)
        if not a:
            continue
        assert a * a.inv() == ONE
        assert a / a == ONE


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_canonical_form_and_hash():
    a = Scalar(Fraction(2, 4), Fraction(-6, 4))
    assert a.re == Fraction(1, 2) and a.im == Fraction(-3, 2)
    assert hash(Scalar(1)) == hash(Scalar(Fraction(2, 2)))
    assert Scalar(1) == 1 and Scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(Scalar(2)) == hash(2)
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_promote():
    assert promote(3) == Scalar(3)
    assert promote(Fraction(1, 3)) == Scalar(Fraction(1, 3))
    with pytest.raises(TypeError):
        promote(0.5)


def read_json(data):
    """The Scalar a to_json document names: its parts as numerator/denominator strings."""
    return Scalar(*(Fraction(int(data[k][0]), int(data[k][1])) for k in ("re", "im")))


def test_json_roundtrip():
    a = Scalar(Fraction(-3, 7), Fraction(22, 5))
    data = a.to_json()
    assert data == {"re": ["-3", "7"], "im": ["22", "5"]}
    assert read_json(data) == a


# -- the integer triple against the two-Fraction reference ------------------


@st.composite
def gaussian(draw):
    """(a + b*i)/d as a component pair, often with a factor common to a, b, d."""
    g = draw(st.sampled_from([1, 1, 2, 3, 6]))
    a, b = (g * draw(st.integers(-12, 12)) for _ in range(2))
    d = g * draw(st.integers(1, 12))
    return Fraction(a, d), Fraction(b, d)


# an operand: a Scalar (with its reference twin), or a plain int, bool or Fraction
operands = st.one_of(
    gaussian().map(lambda p: (Scalar(*p), FractionPairScalar(*p))),
    st.one_of(
        st.integers(-12, 12),
        st.booleans(),
        st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    ).map(lambda x: (x, x)),
)

OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def assert_matches(new, ref):
    """new is a canonical triple holding the same value, text and hash as ref."""
    assert type(new) is Scalar and type(ref) is FractionPairScalar
    a, b, d = new.a, new.b, new.d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (new.re, new.im) == (ref.re, ref.im)
    assert repr(new) == repr(ref)
    assert new.to_json() == ref.to_json()
    assert hash(new) == hash(ref)
    assert bool(new) == bool(ref)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(operands, operands, st.sampled_from(OPS))
@example((Scalar(1, 1), FractionPairScalar(1, 1)), (-1, -1), operator.add)  # to zero
@example((Scalar(1, 2), FractionPairScalar(1, 2)), (Scalar(1, 2), FractionPairScalar(1, 2)),
         operator.sub)
@example((HALF, FractionPairScalar(Fraction(1, 2))), (2, 2), operator.mul)  # d cancels
@example((I, FractionPairScalar(0, 1)), (I, FractionPairScalar(0, 1)), operator.mul)
@example((ZERO, FractionPairScalar(0)), (True, True), operator.truediv)
def test_matches_fraction_pair_reference(x, y, op):
    (xn, xr), (yn, yr) = x, y
    if not isinstance(xn, Scalar) and not isinstance(yn, Scalar):
        return
    for left, right in ((xn, yn), (xr, yr)):
        assert (left == right) == (right == left)
    assert (xn == yn) == (xr == yr)
    if xn == yn:
        assert hash(xn) == hash(yn)
    try:
        ref = op(xr, yr)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(xn, yn)
        return
    assert_matches(op(xn, yn), ref)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(gaussian())
def test_unary_matches_fraction_pair_reference(parts):
    new, ref = Scalar(*parts), FractionPairScalar(*parts)
    assert_matches(new, ref)
    assert_matches(-new, -ref)
    if ref:
        assert_matches(new.inv(), ref.inv())
    else:
        with pytest.raises(ZeroDivisionError):
            new.inv()
    assert read_json(new.to_json()) == new


def test_stored_triple_is_reduced():
    two_plus_two_i = Scalar(2, 2)
    assert (two_plus_two_i.a, two_plus_two_i.b, two_plus_two_i.d) == (2, 2, 1)
    quarter = two_plus_two_i / 4
    assert (quarter.a, quarter.b, quarter.d) == (1, 1, 2)
    mixed = Scalar(Fraction(1, 2), Fraction(1, 3))
    assert (mixed.a, mixed.b, mixed.d) == (3, 2, 6)
    zero = mixed - mixed
    assert (zero.a, zero.b, zero.d) == (0, 0, 1)
    whole = HALF + HALF
    assert (whole.a, whole.b, whole.d) == (1, 0, 1) and whole == 1 and hash(whole) == hash(1)


def test_non_numbers_are_not_implemented():
    assert Scalar.__add__(ONE, 0.5) is NotImplemented
    assert Scalar.__mul__(ONE, "x") is NotImplemented
    assert (ONE == 1.0) is False
    with pytest.raises(TypeError):
        ONE + 0.5
