import random
from fractions import Fraction

import pytest

from superinv.scalars import HALF, I, MINUS_ONE, ONE, ZERO, Scalar, promote


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


def test_json_roundtrip():
    a = Scalar(Fraction(-3, 7), Fraction(22, 5))
    data = a.to_json()
    assert data == {"re": ["-3", "7"], "im": ["22", "5"]}
    assert Scalar.from_json(data) == a
