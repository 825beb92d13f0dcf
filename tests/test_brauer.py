import math
import random

import pytest
from oracles import (
    all_types,
    closure_circles_reference,
    count_by_type_reference,
    h_elements,
    pair_swaps,
)

from superinv import brauer
from superinv.brauer import (
    KeyLemmaWitness,
    closure_type,
    coset_canonical,
    coset_reps,
    count_by_type,
    double_coset_size_formula,
    double_coset_sizes,
    double_factorial,
    factor_H,
    intersection_order_formula,
    key_lemma_witness,
    overline_embed,
    type_count_formula,
    witness_holds,
)
from superinv.signs import Permutation, symmetric_group


def diagram(sigma):
    """sigma's matching {sigma(2s-1), sigma(2s)} as a set of unordered pairs."""
    img = sigma.images
    return frozenset(frozenset(img[i : i + 2]) for i in range(0, len(img), 2))


def stabilizer_is_H(k):
    """Statement check: the stabilizer of the identity diagram is exactly H."""
    d0 = diagram(Permutation.identity(2 * k))
    h_set = set(h_elements(k))
    return all(
        (diagram(sigma) == d0) == (sigma in h_set)
        for sigma in symmetric_group(2 * k)
    )


def partition_A0_A1(sigma):
    """Split H intersect sigma H sigma^{-1} by the witness sign character."""
    k = sigma.size // 2
    inv = sigma.inverse()
    a0, a1 = [], []
    for a in h_elements(k):
        fac = factor_H(inv * a * sigma)
        if fac is None:
            continue
        tau, g = fac
        tau1, g1 = factor_H(a)
        chi = tau1.sign() * g.sign() * g1.sign()
        (a1 if chi == -1 else a0).append(a)
    return a0, a1


def scan_witness(sigma):
    """The first witness of an exhaustive scan over H, or None."""
    inv = sigma.inverse()
    for a in h_elements(sigma.size // 2):
        fac = factor_H(inv * a * sigma)
        if fac is not None:
            w = KeyLemmaWitness(*fac, *factor_H(a))
            if w.sign_product() == -1:
                return w
    return None


def test_overline_embed():
    assert overline_embed(Permutation.identity(1)) == Permutation.identity(2)
    assert overline_embed(Permutation((2, 1))) == Permutation.from_cycles(
        [(1, 3), (2, 4)], 4
    )
    assert overline_embed(Permutation((2, 3, 1))) == Permutation.from_cycles(
        [(1, 3, 5), (2, 4, 6)], 6
    )
    # injective group homomorphism of even image
    for g in symmetric_group(3):
        assert overline_embed(g).sign() == 1
        for h in symmetric_group(3):
            assert overline_embed(g * h) == overline_embed(g) * overline_embed(h)


def test_factor_H():
    assert factor_H(Permutation.identity(4)) == (
        Permutation.identity(4),
        Permutation.identity(2),
    )
    tau, g = factor_H(Permutation.from_cycles([(1, 2)], 4))
    assert tau == Permutation.from_cycles([(1, 2)], 4) and g == Permutation.identity(2)
    tau, g = factor_H(Permutation.from_cycles([(1, 3), (2, 4)], 4))
    assert tau == Permutation.identity(4) and g == Permutation((2, 1))
    assert factor_H(Permutation.from_cycles([(2, 3)], 4)) is None
    # unique factorization over all of H
    for k in (1, 2, 3):
        seen = set()
        for h in h_elements(k):
            fac = factor_H(h)
            assert fac is not None
            tau, g = fac
            assert h == tau * overline_embed(g)
            seen.add(h)
        assert len(seen) == 2**k * math.factorial(k)


def test_coset_canonical():
    assert coset_canonical(Permutation.identity(6)) == Permutation.identity(6)
    sigma = Permutation.from_cycles([(2, 6, 7, 4, 5, 3)], 8)
    assert diagram(sigma) == {frozenset(p) for p in ((1, 6), (2, 5), (3, 7), (4, 8))}
    assert coset_canonical(sigma) == Permutation((1, 6, 2, 5, 3, 7, 4, 8))
    # left-coset invariance
    rng = random.Random(1)
    for s in rng.sample(list(symmetric_group(4)), 8):
        for h in rng.sample(list(h_elements(2)), 4):
            assert diagram(s * h) == diagram(s)
            assert coset_canonical(s * h) == coset_canonical(s)


@pytest.mark.parametrize("fn", [closure_type, coset_canonical, key_lemma_witness])
def test_odd_size_sigma_is_refused(fn):
    with pytest.raises(ValueError, match="even number of points"):
        fn(Permutation((2, 3, 1)))


def test_closure_type_examples():
    assert closure_type(Permutation.identity(4)).type_vector == (1, 1)
    sigma = Permutation.from_cycles([(2, 6, 7, 4, 5, 3)], 8)
    ca = closure_type(sigma)
    assert sorted(frozenset(c) for c in ca.circles) == [
        frozenset({1, 2, 5, 6}),
        frozenset({3, 4, 7, 8}),
    ]
    assert ca.type_vector == (2, 2)
    crossing = Permutation.from_cycles([(2, 3)], 4)
    assert closure_type(crossing).type_vector == (2,)
    # circle lengths always sum to k
    for sigma in symmetric_group(4):
        assert sum(closure_type(sigma).type_vector) == 2


@pytest.mark.parametrize("k", range(1, 7))
def test_closure_circles_match_the_alternating_walk(k):
    # all of S_2k for k <= 4, one representative per diagram beyond
    sigmas = symmetric_group(2 * k) if k <= 4 else coset_reps(k)
    for sigma in sigmas:
        assert closure_type(sigma).circles == closure_circles_reference(sigma), sigma


def test_count_by_type():
    res = count_by_type(2)
    assert res["counts"] == {(1, 1): 1, (2,): 2}
    assert res["total"] == 3
    res = count_by_type(3)
    assert res["counts"] == {(1, 1, 1): 1, (1, 2): 6, (3,): 8}
    assert res["total"] == 15
    for k in range(1, 13):
        res = count_by_type(k)
        assert res["total"] == double_factorial(2 * k - 1)
        assert set(res["counts"]) == set(all_types(k))
        for t, count in res["counts"].items():
            assert count == type_count_formula(k, t)
    assert count_by_type(5)["total"] == 945
    with pytest.raises(ValueError):
        count_by_type(13)


@pytest.mark.parametrize("k", range(1, 8))
def test_count_by_type_matches_enumeration(k):
    res = count_by_type(k)
    ref = count_by_type_reference(k)
    assert res["counts"] == ref["counts"]
    assert res["total"] == ref["total"]


def test_count_by_type_neither_enumerates_nor_reads_the_formula(monkeypatch):
    def forbidden(*args):
        raise AssertionError("count_by_type must not call this")

    expected = {t: type_count_formula(8, t) for t in all_types(8)}
    for name in ("coset_reps", "closure_type", "type_count_formula"):
        monkeypatch.setattr(brauer, name, forbidden)
    res = count_by_type(8)
    assert res["counts"] == expected
    assert res["total"] == double_factorial(15)


def test_coset_reps():
    assert len(coset_reps(1)) == 1
    assert len(coset_reps(2)) == 3
    assert len(coset_reps(3)) == 15
    # each rep is the lex-least member of its coset, and coset_canonical
    # finds it from every member (exhaustive for k <= 3)
    for k in (1, 2, 3):
        by_diagram = {}
        for sigma in symmetric_group(2 * k):
            d = diagram(sigma)
            if d not in by_diagram or sigma < by_diagram[d]:
                by_diagram[d] = sigma
        assert sorted(by_diagram.values()) == coset_reps(k)
        for sigma in symmetric_group(2 * k):
            assert coset_canonical(sigma) == by_diagram[diagram(sigma)]
    # canonical reduction is constant on cosets and idempotent
    rng = random.Random(2)
    for sigma in rng.sample(list(symmetric_group(6)), 12):
        canon = coset_canonical(sigma)
        assert diagram(canon) == diagram(sigma)
        assert coset_canonical(canon) == canon
        for h in rng.sample(list(h_elements(3)), 3):
            assert coset_canonical(sigma * h) == canon


def test_stabilizer_of_identity_diagram():
    assert stabilizer_is_H(1)
    assert stabilizer_is_H(2)
    assert stabilizer_is_H(3)


def test_type_constant_on_double_cosets():
    rng = random.Random(3)
    hs = list(h_elements(3))
    for sigma in rng.sample(list(symmetric_group(6)), 10):
        t = closure_type(sigma).type_vector
        for _ in range(5):
            h1, h2 = rng.choice(hs), rng.choice(hs)
            assert closure_type(h1 * sigma * h2).type_vector == t


def test_double_coset_sizes():
    for k in (1, 2, 3, 4):
        sizes = double_coset_sizes(k)
        assert set(sizes) == set(all_types(k))
        for t, size in sizes.items():
            assert size == double_coset_size_formula(k, t)
        assert sum(sizes.values()) == math.factorial(2 * k)


def test_double_coset_size_is_h_squared_over_the_intersection():
    # |H sigma H| = |H|^2 / |H cap sigma H sigma^-1|, with |H| = 2^k k!
    for k in range(1, 13):
        h = 2**k * math.factorial(k)
        for t in all_types(k):
            assert double_coset_size_formula(k, t) * intersection_order_formula(t) == h**2


def test_witness_for_crossing_pair_diagram():
    sigma = Permutation.from_cycles([(2, 3), (4, 5)], 6)
    w = key_lemma_witness(sigma)
    assert witness_holds(sigma, w)
    assert w.tau == Permutation.from_cycles([(5, 6)], 6)
    assert w.g == Permutation((2, 1, 3))
    assert w.tau1 == Permutation.from_cycles([(1, 2)], 6)
    assert w.g1 == Permutation((1, 3, 2))


def test_identity_witness():
    sigma = Permutation.identity(2)
    w = key_lemma_witness(sigma)
    assert witness_holds(sigma, w)
    assert w.tau == Permutation((2, 1)) and w.g == Permutation.identity(1)
    assert w.tau1 == Permutation((2, 1)) and w.g1 == Permutation.identity(1)


def test_long_cycle_witness_family():
    # the inductive pattern: sigma = (2l, 2l-1, ..., 2), tau = tau1 = all
    # pair swaps, g the reversal of 2..l, g1 the reversal of 1..l
    for l in (2, 3, 4):
        sigma = Permutation.from_cycles([tuple(range(2 * l, 1, -1))], 2 * l)
        tau = pair_swaps((1 << l) - 1, l)
        g = Permutation((1,) + tuple(range(l, 1, -1)))
        g1 = Permutation(tuple(range(l, 0, -1)))
        lhs = sigma * tau * overline_embed(g) * sigma.inverse()
        assert lhs == tau * overline_embed(g1)
        assert tau.sign() * g.sign() * g1.sign() == -1
        # the constructed witness also verifies
        w = key_lemma_witness(sigma)
        assert witness_holds(sigma, w)


def test_key_lemma_exhaustive_small():
    for k in (1, 2, 3):
        for sigma in symmetric_group(2 * k):
            assert witness_holds(sigma, key_lemma_witness(sigma)), sigma


@pytest.mark.parametrize("k", [4, 5])
def test_circle_reflection_witness_on_coset_reps(k):
    for sigma in coset_reps(k):
        assert witness_holds(sigma, key_lemma_witness(sigma)), sigma


def test_exhaustive_scan_agrees_on_a_sample():
    rng = random.Random(9)
    for k in (2, 3):
        for sigma in rng.sample(list(symmetric_group(2 * k)), 8):
            scanned = scan_witness(sigma)
            assert scanned is not None and witness_holds(sigma, scanned)
            # the reflection lies in the scan's sign -1 half A1
            w = key_lemma_witness(sigma)
            _, a1 = partition_A0_A1(sigma)
            assert w.tau1 * overline_embed(w.g1) in a1


def test_partition_A0_A1_worked_example():
    sigma = Permutation.from_cycles([(2, 3), (4, 5)], 6)
    a0, a1 = partition_A0_A1(sigma)
    assert len(a0) == len(a1) == 3
    order = intersection_order_formula(closure_type(sigma).type_vector)
    assert len(a0) + len(a1) == order == 6
    listed = [
        Permutation.identity(6),
        Permutation((4, 3, 6, 5, 1, 2)),
        Permutation((5, 6, 2, 1, 4, 3)),
    ]
    assert sorted(a0) == sorted(listed)
    # closure laws: A0 is a subgroup, A1 a coset of it
    a0s, a1s = set(a0), set(a1)
    for x in a0:
        for y in a1:
            assert x * y in a1s and y * x in a1s
    for x in a1:
        for y in a1:
            assert x * y in a0s


def test_partition_A0_A1_identity_k1():
    a0, a1 = partition_A0_A1(Permutation.identity(2))
    assert len(a0) == 1 and len(a1) == 1
    assert a0 == [Permutation.identity(2)] and a1[0] == Permutation((2, 1))


def test_partition_sizes_random():
    rng = random.Random(17)
    for sigma in rng.sample(list(symmetric_group(6)), 8):
        a0, a1 = partition_A0_A1(sigma)
        order = intersection_order_formula(closure_type(sigma).type_vector)
        assert len(a0) == len(a1) == order // 2


@pytest.mark.parametrize("k", range(1, 6))
def test_coset_reps_sorted_distinct_and_counted(k):
    reps = coset_reps(k)
    assert reps == sorted(reps)
    assert len({diagram(sigma) for sigma in reps}) == len(reps) == double_factorial(2 * k - 1)
    # lex-least in its coset: each pair ascends, and so do the pairs' first dots
    for sigma in reps:
        tops, bottoms = sigma.images[::2], sigma.images[1::2]
        assert all(a < b for a, b in zip(tops, bottoms))
        assert list(tops) == sorted(tops)
