"""(k,k)-diagram combinatorics behind the triviality argument for p(n).

A permutation sigma in S_2k determines a perfect matching of {1..2k} by
pairing sigma(2s-1) with sigma(2s); drawn with dots labeled column by
column (odd labels on top, even below), that matching is the diagram of
sigma.  Two permutations give the same diagram exactly when they lie in
the same left coset of H, the subgroup generated by the pair swaps
(12),(34),...,(2k-1,2k) together with the doubled permutations
g -> gbar, gbar(2s-1) = 2g(s)-1, gbar(2s) = 2g(s).

The closure of a diagram adds the fixed edges {2s-1,2s}; its connected
circles, read alternately along matching and fixed edges, have lengths
whose multiset is the diagram's type.  Types classify the double cosets
H sigma H.  The witness machinery proves, constructively, that conjugating
a suitable element of H by sigma stays in H while flipping a sign
character; the exhaustive scan is kept as a fallback and cross-check.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Optional

from .signs import Permutation, symmetric_group

# count_by_type walks all (2k-1)!! diagrams, partition_A0_A1 all 2^k k! of H
MAX_COUNT_K = 8
MAX_PARTITION_K = 4


class BrauerDiagram(NamedTuple):
    k: int
    pairs: tuple  # sorted tuple of sorted (a, b) pairs

    def to_json(self):
        return {"k": self.k, "pairs": [list(p) for p in self.pairs]}


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


def pair_swaps(mask: int, k: int) -> Permutation:
    """The element of K flipping the pairs selected by the bit mask."""
    img = list(range(1, 2 * k + 1))
    for s in range(k):
        if mask >> s & 1:
            img[2 * s], img[2 * s + 1] = img[2 * s + 1], img[2 * s]
    return Permutation(img)


def h_elements(k: int) -> Iterator[Permutation]:
    """All of H = K semidirect S_k-bar, |H| = 2^k k!."""
    for g in symmetric_group(k):
        gbar = overline_embed(g)
        for mask in range(1 << k):
            yield pair_swaps(mask, k) * gbar


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


def diagram_from_perm(sigma: Permutation) -> BrauerDiagram:
    if sigma.size % 2:
        raise ValueError("need a permutation of an even number of points")
    k = sigma.size // 2
    pairs = []
    for s in range(1, k + 1):
        a, b = sigma(2 * s - 1), sigma(2 * s)
        pairs.append((a, b) if a < b else (b, a))
    return BrauerDiagram(k, tuple(sorted(pairs)))


def closure_type(d: BrauerDiagram) -> ClosureAnalysis:
    """Circles of the closure, traversed matching-edge first from the least dot."""
    match = {}
    for a, b in d.pairs:
        match[a] = b
        match[b] = a
    red = lambda x: x + 1 if x % 2 else x - 1
    seen = set()
    circles = []
    for start in range(1, 2 * d.k + 1):
        if start in seen:
            continue
        circle = [start]
        seen.add(start)
        cur = match[start]
        use_red = True
        while cur != start:
            circle.append(cur)
            seen.add(cur)
            cur = red(cur) if use_red else match[cur]
            use_red = not use_red
        circles.append(tuple(circle))
    lengths = tuple(sorted(len(c) // 2 for c in circles))
    return ClosureAnalysis(tuple(circles), lengths)


def perm_type(sigma: Permutation) -> tuple:
    return closure_type(diagram_from_perm(sigma)).type_vector


def all_matchings(points) -> Iterator[tuple]:
    """All perfect matchings of the given points, as sorted pair tuples."""
    points = sorted(points)
    if not points:
        yield ()
        return
    first = points[0]
    rest = points[1:]
    for i, partner in enumerate(rest):
        for sub in all_matchings(rest[:i] + rest[i + 1 :]):
            yield ((first, partner),) + sub


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
    """Enumerate all (k,k)-diagrams and bucket them by closure type."""
    if k > MAX_COUNT_K:
        raise ValueError("k exceeds the bound %d" % MAX_COUNT_K)
    counts = {}
    total = 0
    for pairs in all_matchings(range(1, 2 * k + 1)):
        t = closure_type(BrauerDiagram(k, tuple(sorted(pairs)))).type_vector
        counts[t] = counts.get(t, 0) + 1
        total += 1
    return {"counts": counts, "total": total}


def coset_reps(k: int) -> list:
    """Lexicographically least sigma per diagram; (2k-1)!! of them."""
    reps = []
    for pairs in all_matchings(range(1, 2 * k + 1)):
        remaining = sorted(pairs)  # already sorted by first element
        img = []
        for a, b in remaining:
            img.append(a)
            img.append(b)
        reps.append(Permutation(img))
    reps.sort()
    return reps


def coset_canonical(sigma: Permutation) -> Permutation:
    """The lex-least member of sigma*H; constant on left cosets."""
    d = diagram_from_perm(sigma)
    img = []
    for a, b in d.pairs:
        img.append(a)
        img.append(b)
    return Permutation(img)


def stabilizer_is_H(k: int) -> bool:
    """Statement check: the stabilizer of the identity diagram is exactly H."""
    d0 = diagram_from_perm(Permutation.identity(2 * k))
    h_set = set(h_elements(k))
    for sigma in symmetric_group(2 * k):
        fixes = diagram_from_perm(sigma) == d0
        if fixes != (sigma in h_set):
            return False
    return True


def _circle_reflection(circle: tuple, k: int) -> Permutation:
    """The reflection x_t -> x_{-1-t} of one closure circle, id elsewhere."""
    img = list(range(1, 2 * k + 1))
    size = len(circle)
    for t, dot in enumerate(circle):
        img[dot - 1] = circle[(-1 - t) % size]
    return Permutation(img)


def key_lemma_witness(sigma: Permutation, use_fast_path: bool = True):
    """A quadruple (tau, g, tau1, g1) with sigma tau gbar sigma^{-1} = tau1 g1bar
    and sign(tau1) sign(g) sign(g1) = -1.
    """
    if sigma.size % 2:
        raise ValueError("need a permutation of an even number of points")
    k = sigma.size // 2
    inv = sigma.inverse()
    if use_fast_path:
        analysis = closure_type(diagram_from_perm(sigma))
        a = _circle_reflection(analysis.circles[0], k)
        witness = _witness_from_candidate(sigma, inv, a)
        if witness is not None and witness.sign_product() == -1:
            return witness
    for a in h_elements(k):
        witness = _witness_from_candidate(sigma, inv, a)
        if witness is not None and witness.sign_product() == -1:
            return witness
    raise AssertionError("no witness found for %r" % sigma)


def _witness_from_candidate(sigma, sigma_inv, a) -> Optional[KeyLemmaWitness]:
    fac1 = factor_H(a)
    if fac1 is None:
        return None
    fac = factor_H(sigma_inv * a * sigma)
    if fac is None:
        return None
    tau, g = fac
    tau1, g1 = fac1
    return KeyLemmaWitness(tau, g, tau1, g1)


def witness_holds(sigma: Permutation, w: KeyLemmaWitness) -> bool:
    lhs = sigma * w.tau * overline_embed(w.g) * sigma.inverse()
    rhs = w.tau1 * overline_embed(w.g1)
    return lhs == rhs and w.sign_product() == -1


def partition_A0_A1(sigma: Permutation):
    """Split H intersect sigma H sigma^{-1} by the witness sign character."""
    if sigma.size % 2:
        raise ValueError("need a permutation of an even number of points")
    k = sigma.size // 2
    if k > MAX_PARTITION_K:
        raise ValueError("k exceeds the bound %d" % MAX_PARTITION_K)
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


def intersection_order_formula(type_vector) -> int:
    """prod (2i)^{lambda_i} lambda_i!, the order of H intersect sigma H sigma^{-1}."""
    counts = {}
    for length in type_vector:
        counts[length] = counts.get(length, 0) + 1
    out = 1
    for length, mult in counts.items():
        out *= (2 * length) ** mult * math.factorial(mult)
    return out


def double_coset_sizes(k: int) -> dict:
    """Observed |H sigma H| per type, by scanning all of S_2k."""
    sizes = {}
    for sigma in symmetric_group(2 * k):
        t = perm_type(sigma)
        sizes[t] = sizes.get(t, 0) + 1
    return sizes


def double_coset_size_formula(k: int, type_vector) -> int:
    num = (2**k * math.factorial(k)) ** 2
    denom = intersection_order_formula(type_vector)
    assert num % denom == 0
    return num // denom


def all_types(k: int) -> list:
    """All partition type vectors of k, sorted."""
    out = []

    def rec(remaining, mx, acc):
        if remaining == 0:
            out.append(tuple(sorted(acc)))
            return
        for part in range(1, min(remaining, mx) + 1):
            rec(remaining - part, part, acc + [part])

    rec(k, k, [])
    return sorted(set(out))
