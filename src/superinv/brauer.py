"""(k,k)-diagram combinatorics behind the triviality argument for p(n).

A permutation sigma in S_2k is a diagram: it pairs sigma(2s-1) with
sigma(2s), a perfect matching of {1..2k} drawn with dots labeled column by
column (odd labels on top, even below).  Two permutations give the same
diagram exactly when they lie in the same left coset of H, the subgroup
generated by the pair swaps (12),(34),...,(2k-1,2k) together with the
doubled permutations g -> gbar, gbar(2s-1) = 2g(s)-1, gbar(2s) = 2g(s);
the lex-least member of a coset stands for it.

The closure of a diagram adds the fixed edges {2s-1,2s}; its connected
circles, read alternately along matching and fixed edges, have lengths
whose multiset is the diagram's type.  Types classify the double cosets
H sigma H.  They are counted without listing the (2k-1)!! diagrams: a
transfer recursion joins open strands of the closure until each closes
into a circle.  The witness machinery proves, constructively, that
conjugating a suitable element of H by sigma stays in H while flipping a
sign character: that element is the reflection of one closure circle.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import Iterator, NamedTuple

from .signs import Permutation, symmetric_group

# count_by_type costs milliseconds here; the bound keeps brauer's type
# table to p(12) = 77 rows
MAX_COUNT_K = 12


class ClosureAnalysis(NamedTuple):
    circles: tuple  # ordered dot tuples, one per circle
    type_vector: tuple  # sorted circle lengths, e.g. (1, 2) for type 1^1 2^1


class KeyLemmaWitness(NamedTuple):
    tau: Permutation
    g: Permutation
    tau1: Permutation
    g1: Permutation

    def sign_product(self) -> int:
        return self.tau1.sign() * self.g.sign() * self.g1.sign()

    def to_json(self):
        return {
            "tau": self.tau.to_json(),
            "g": self.g.to_json(),
            "tau1": self.tau1.to_json(),
            "g1": self.g1.to_json(),
            "sign_product": self.sign_product(),
        }


def overline_embed(g: Permutation) -> Permutation:
    """Double each point: gbar(2s-1) = 2g(s)-1, gbar(2s) = 2g(s)."""
    img = []
    for s in range(1, g.size + 1):
        img.append(2 * g(s) - 1)
        img.append(2 * g(s))
    return Permutation(img)


def factor_H(h: Permutation):
    """Write h = tau * gbar with tau in K, g in S_k; None if h is not in H."""
    if h.size % 2:
        return None
    k = h.size // 2
    gimg = []
    for s in range(1, k + 1):
        a, b = h(2 * s - 1), h(2 * s)
        t = (a + 1) // 2
        if {a, b} != {2 * t - 1, 2 * t}:
            return None
        gimg.append(t)
    g = Permutation(gimg)
    tau = h * overline_embed(g).inverse()
    return tau, g


def _pairs(sigma: Permutation) -> Iterator[tuple]:
    """The pairs (sigma(2s-1), sigma(2s)) of sigma's diagram, s = 1..k."""
    if sigma.size % 2:
        raise ValueError("need a permutation of an even number of points")
    return zip(sigma.images[::2], sigma.images[1::2])


def closure_type(sigma: Permutation) -> ClosureAnalysis:
    """Circles of sigma's closure, traversed matching-edge first from the least dot."""
    match = {}
    for a, b in _pairs(sigma):
        match[a], match[b] = b, a
    circles = []
    for start in range(1, sigma.size + 1):
        circle = []
        dot = start
        # a step takes dot's matching edge {dot, end} out of match, then the
        # fixed edge {2s-1, 2s} at end; the circle closes at a used dot
        while dot in match:
            end = match.pop(dot)
            del match[end]
            circle += (dot, end)
            dot = end + 1 if end % 2 else end - 1
        if circle:
            circles.append(tuple(circle))
    lengths = tuple(sorted(len(c) // 2 for c in circles))
    return ClosureAnalysis(tuple(circles), lengths)


def type_count_formula(k: int, type_vector) -> int:
    """2^k k! / prod (2i)^{lambda_i} lambda_i! for the type multiset."""
    return 2**k * math.factorial(k) // intersection_order_formula(type_vector)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def count_by_type(k: int) -> dict:
    """Count the (k,k)-diagrams by closure type with a transfer recursion.

    The fixed edges {2s-1, 2s} start as k open strands of length 1.  One end
    of the last strand, of length a, is matched either to its own other end
    (1 way: a circle of length a closes) or to an end of another strand of
    length b (2 ways per strand: the two join into one of length a+b).
    Memoized on the sorted strand lengths, the cost grows with the
    partitions of k, not with the (2k-1)!! diagrams.
    """
    if k > MAX_COUNT_K:
        raise ValueError("k exceeds the bound %d" % MAX_COUNT_K)

    @functools.lru_cache(maxsize=None)
    def closings(strands: tuple) -> dict:
        if not strands:
            return {(): 1}
        *rest, a = strands
        out = Counter()
        for t, n in closings(tuple(rest)).items():
            out[tuple(sorted(t + (a,)))] += n
        for i, b in enumerate(rest):
            joined = tuple(sorted(rest[:i] + rest[i + 1 :] + [a + b]))
            for t, n in closings(joined).items():
                out[t] += 2 * n
        return out

    counts = closings((1,) * k)
    return {"counts": counts, "total": sum(counts.values())}


def coset_reps(k: int) -> list:
    """Lexicographically least sigma per diagram; (2k-1)!! of them, in lex order."""

    def images(points: tuple) -> Iterator[tuple]:
        # the least point pairs with each later one in turn, so images ascend
        if not points:
            yield ()
            return
        first, rest = points[0], points[1:]
        for i, partner in enumerate(rest):
            for tail in images(rest[:i] + rest[i + 1 :]):
                yield (first, partner) + tail

    return [Permutation(img) for img in images(tuple(range(1, 2 * k + 1)))]


def coset_canonical(sigma: Permutation) -> Permutation:
    """The lex-least member of sigma*H; constant on left cosets."""
    pairs = sorted((a, b) if a < b else (b, a) for a, b in _pairs(sigma))
    return Permutation(x for pair in pairs for x in pair)


def _circle_reflection(circle: tuple, k: int) -> Permutation:
    """The reflection x_t -> x_{-1-t} of one closure circle, id elsewhere."""
    img = list(range(1, 2 * k + 1))
    size = len(circle)
    for t, dot in enumerate(circle):
        img[dot - 1] = circle[(-1 - t) % size]
    return Permutation(img)


def key_lemma_witness(sigma: Permutation) -> KeyLemmaWitness:
    """The quadruple (tau, g, tau1, g1) with sigma tau gbar sigma^{-1} = tau1 g1bar,
    read off the reflection a = tau1 g1bar of sigma's first closure circle.

    The reflection keeps both the fixed edges and sigma's matching, so a and
    sigma^{-1} a sigma = tau gbar lie in H.  It is returned as it is:
    ``witness_holds`` checks that sign(tau1) sign(g) sign(g1) = -1.
    """
    a = _circle_reflection(closure_type(sigma).circles[0], sigma.size // 2)
    fac1 = factor_H(a)
    fac = factor_H(sigma.inverse() * a * sigma)
    if fac1 is None or fac is None:
        raise AssertionError("the circle reflection for %r leaves H" % sigma)
    return KeyLemmaWitness(*fac, *fac1)


def witness_holds(sigma: Permutation, w: KeyLemmaWitness) -> bool:
    lhs = sigma * w.tau * overline_embed(w.g) * sigma.inverse()
    rhs = w.tau1 * overline_embed(w.g1)
    return lhs == rhs and w.sign_product() == -1


def intersection_order_formula(type_vector) -> int:
    """prod (2i)^{lambda_i} lambda_i!, the order of H intersect sigma H sigma^{-1}."""
    out = 1
    for length, mult in Counter(type_vector).items():
        out *= (2 * length) ** mult * math.factorial(mult)
    return out


def double_coset_sizes(k: int) -> dict:
    """Observed |H sigma H| per type, by scanning all of S_2k."""
    return Counter(closure_type(sigma).type_vector for sigma in symmetric_group(2 * k))


def double_coset_size_formula(k: int, type_vector) -> int:
    """|H sigma H| = |H| times the number of diagrams of the type, |H| = 2^k k!."""
    return 2**k * math.factorial(k) * type_count_formula(k, type_vector)
