import itertools

import pytest

from oracles import p_exponent

from superinv.signs import Permutation, gamma_exponent, symmetric_group


def brute_p_exponent(x, y):
    # independent oracle: the literal double product over i > j
    total = 0
    for i in range(len(x)):
        for j in range(i):
            total += x[i] * y[j]
    return total % 2


def brute_gamma_exponent(x, sigma):
    total = 0
    k = len(x)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if sigma(i) > sigma(j):
                total += x[sigma(i) - 1] * x[sigma(j) - 1]
    return total % 2


def all_parity_words(k):
    return itertools.product((0, 1), repeat=k)


def test_p_sign_examples():
    assert p_exponent((0, 0), (1, 1)) == 0
    assert p_exponent((1, 1), (1, 1)) == 1
    assert p_exponent((), ()) == 0


def test_p_sign_against_brute_force():
    for k in range(5):
        for x in all_parity_words(k):
            for y in all_parity_words(k):
                assert p_exponent(x, y) == brute_p_exponent(x, y)


def test_p_bilinearity():
    for x in all_parity_words(3):
        for y in all_parity_words(3):
            for z in all_parity_words(3):
                xy = tuple((a + b) % 2 for a, b in zip(x, y))
                assert p_exponent(xy, z) == (p_exponent(x, z) + p_exponent(y, z)) % 2


def test_p_symmetry_identity():
    # p(x,y) p(y,x) = prod (-1)^{x_i y_i} * prod_{i,j} (-1)^{x_i y_j}
    for k in range(1, 5):
        for x in all_parity_words(k):
            for y in all_parity_words(k):
                lhs = (p_exponent(x, y) + p_exponent(y, x)) % 2
                diag = sum(a * b for a, b in zip(x, y))
                full = sum(x) * sum(y)
                assert lhs == (diag + full) % 2


def test_gamma_examples():
    assert gamma_exponent((0, 1, 1), Permutation.identity(3)) == 0
    assert gamma_exponent((1, 1), Permutation((2, 1))) == 1
    assert gamma_exponent((0, 1), Permutation((2, 1))) == 0


def test_gamma_against_brute_force():
    for k in range(1, 5):
        for sigma in symmetric_group(k):
            for x in all_parity_words(k):
                assert gamma_exponent(x, sigma) == brute_gamma_exponent(x, sigma)


def permuted_word(x, sigma):
    return tuple(x[sigma(t) - 1] for t in range(1, len(x) + 1))


def test_gamma_p_compatibility_lemma():
    # gamma(u+v, s) = p(u,v) p(u_s, v_s) gamma(u,s) gamma(v,s), exhaustive
    for k in range(1, 5):
        for sigma in symmetric_group(k):
            for u in all_parity_words(k):
                for v in all_parity_words(k):
                    uv = tuple((a + b) % 2 for a, b in zip(u, v))
                    us, vs = permuted_word(u, sigma), permuted_word(v, sigma)
                    lhs = gamma_exponent(uv, sigma)
                    rhs = (
                        p_exponent(u, v)
                        + p_exponent(us, vs)
                        + gamma_exponent(u, sigma)
                        + gamma_exponent(v, sigma)
                    ) % 2
                    assert lhs == rhs


def test_p_self_invariance():
    # p(v, v) = p(v_s, v_s)
    for k in range(1, 5):
        for sigma in symmetric_group(k):
            for v in all_parity_words(k):
                vs = permuted_word(v, sigma)
                assert p_exponent(v, v) == p_exponent(vs, vs)


def test_gamma_cocycle():
    # gamma(v, s t) = gamma(v_s, t) gamma(v, s) with v_s the permuted parities
    for sigma in symmetric_group(3):
        for tau in symmetric_group(3):
            for v in all_parity_words(3):
                vs = permuted_word(v, sigma)
                lhs = gamma_exponent(v, sigma * tau)
                rhs = (gamma_exponent(vs, tau) + gamma_exponent(v, sigma)) % 2
                assert lhs == rhs


def test_permutation_basics():
    s = Permutation((2, 3, 1))
    assert s(1) == 2 and s(3) == 1
    assert s * s.inverse() == Permutation.identity(3)
    assert s.sign() == 1
    assert Permutation((2, 1, 3)).sign() == -1
    assert s * s * s == Permutation.identity(3)
    assert s.cycles() == [(1, 2, 3)]
    assert Permutation.from_cycles([(1, 2)], 4) == Permutation((2, 1, 3, 4))
    # rightmost cycle applied first
    assert Permutation.from_cycles([(1, 2), (2, 3)], 3) == Permutation(
        (2, 3, 1)
    )
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_composition_convention():
    # (a*b)(x) = a(b(x)): apply b first
    a = Permutation((2, 1, 3))
    b = Permutation((1, 3, 2))
    ab = a * b
    for x in (1, 2, 3):
        assert ab(x) == a(b(x))
