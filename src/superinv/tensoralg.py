"""The tensor algebra T(g) and supersymmetric algebra S(g) of an algebra.

Elements are sparse maps from generator words to Scalars.  A word is a
tuple of generator indices into the algebra's canonical ordered basis;
mixed degrees are allowed in T(g).  In S(g) every stored monomial is
sorted into the global generator order, with one factor (-1) absorbed per
odd-odd transposition performed during sorting, and any monomial
containing an odd generator twice is zero.

Operations that expand over S_k (symmetrize, hence omega_k and psi in the
enveloping module) refuse to run past a configurable degree cap; the
default is 8 and the environment variable SUPERINV_MAX_DEGREE overrides it.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from .algebras import Algebra, LieElement
from .scalars import ONE, Scalar, promote
from .signs import gamma_exponent, symmetric_group
from .sparse import Sparse, add_into
from .tensors import Tensor


class DegreeCapExceeded(ValueError):
    pass


def degree_cap() -> int:
    return int(os.environ.get("SUPERINV_MAX_DEGREE", "8"))


def check_degree(k: int):
    cap = degree_cap()
    if k > cap:
        raise DegreeCapExceeded(
            "degree %d exceeds the configured cap %d "
            "(set SUPERINV_MAX_DEGREE to raise it)" % (k, cap)
        )


class _WordMap(Sparse):
    """Sparse word -> Scalar map over the generators of one algebra."""

    __slots__ = ("algebra",)
    _context = ("algebra",)

    def __init__(self, algebra: Algebra, terms=None):
        self.algebra = algebra
        Sparse.__init__(self, terms)

    def word_parity(self, word) -> int:
        par = self.algebra.parity
        return sum(par[g] for g in word) & 1

    def degrees(self):
        return sorted({len(w) for w in self.terms})

    def __repr__(self):
        if not self.terms:
            return "0"
        gens = self.algebra.gens
        bits = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            mono = ".".join(gens[g] for g in word) if word else "1"
            bits.append("%r %s" % (self.terms[word], mono))
        return " + ".join(bits)

    def to_json(self):
        gens = self.algebra.gens
        out = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            out.append(
                {"gens": [gens[g] for g in word], "coeff": self.terms[word].to_json()}
            )
        return {"terms": out}


class TensorAlgebraElement(_WordMap):
    """Element of T(g); multiplication concatenates words."""

    def __mul__(self, other):
        self._check(other)
        out = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                add_into(out, wa + wb, ca * cb)
        return TensorAlgebraElement(self.algebra, out)


class SymElement(_WordMap):
    """Element of S(g); stored monomials are sorted with signs absorbed."""

    def __mul__(self, other):
        self._check(other)
        out = {}
        par = self.algebra.parity
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                res = _sym_sort(wa + wb, par)
                if res is None:
                    continue
                word, exp = res
                add_into(out, word, ca * cb if not exp else -(ca * cb))
        return SymElement(self.algebra, out)


def _sym_sort(word, par):
    """Sort a word into the global order; None when an odd square appears.

    Returns (sorted word, sign exponent), one unit of sign per odd-odd
    transposition: this is exactly the supersymmetric quotient relation.
    """
    w = list(word)
    exp = 0
    for i in range(1, len(w)):
        j = i
        while j > 0 and w[j - 1] > w[j]:
            if par[w[j - 1]] and par[w[j]]:
                exp ^= 1
            w[j - 1], w[j] = w[j], w[j - 1]
            j -= 1
    for i in range(1, len(w)):
        if w[i - 1] == w[i] and par[w[i]]:
            return None
    return tuple(w), exp


def sym_monomial(alg: Algebra, word, coeff=ONE) -> SymElement:
    res = _sym_sort(tuple(word), alg.parity)
    if res is None:
        return SymElement(alg)
    w, exp = res
    coeff = promote(coeff)
    return SymElement(alg, {w: coeff if not exp else -coeff})


def eta(t: TensorAlgebraElement) -> SymElement:
    """The quotient map T(g) -> S(g)."""
    alg = t.algebra
    par = alg.parity
    out = {}
    for word, coeff in t.terms.items():
        res = _sym_sort(word, par)
        if res is None:
            continue
        w, exp = res
        add_into(out, w, coeff if not exp else -coeff)
    return SymElement(alg, out)


def symmetrize(s: SymElement) -> TensorAlgebraElement:
    """Each degree-d word w -> (1/d!) sum over S_d of gamma(w, sigma) sigma.w."""
    par = s.algebra.parity
    groups = {}  # degree -> all of S_k
    out = {}
    for word, coeff in s.terms.items():
        k = len(word)
        if k not in groups:
            check_degree(k)
            groups[k] = list(symmetric_group(k))
        parities = tuple(par[g] for g in word)
        base = coeff * Scalar(Fraction(1, math.factorial(k)))
        for sigma in groups[k]:
            exp = gamma_exponent(parities, sigma)
            new_word = tuple(word[sigma(t) - 1] for t in range(1, k + 1))
            add_into(out, new_word, base if not exp else -base)
    return TensorAlgebraElement(s.algebra, out)


def omega_k(s: SymElement, k: int) -> TensorAlgebraElement:
    """The symmetrizing section S^k(g) -> g^(x k); eta o omega_k = id."""
    if any(len(w) != k for w in s.terms):
        raise ValueError("omega_k needs a homogeneous element of degree %d" % k)
    return symmetrize(s)


def adjoint_act(x: LieElement, t):
    """The adjoint action of x as a super-derivation of T(g) or S(g)."""
    alg = t.algebra
    if x.algebra is not alg:
        raise ValueError("algebra mismatch")
    par = alg.parity
    table = alg.bracket_table
    out = type(t)(alg)
    for g, cg in x.terms.items():
        pg = par[g]
        terms = {}
        for word, coeff in t.terms.items():
            prefix_parity = 0
            for i, xi in enumerate(word):
                sign = -1 if (pg and prefix_parity) else 1
                br = table[(g, xi)]
                for h, ch in br.items():
                    new_word = word[:i] + (h,) + word[i + 1 :]
                    v = coeff * ch * cg
                    if sign < 0:
                        v = -v
                    add_into(terms, new_word, v)
                prefix_parity ^= par[xi]
        if isinstance(t, SymElement):
            piece = SymElement(alg)
            for word, coeff in terms.items():
                piece = piece + sym_monomial(alg, word, coeff)
            out = out + piece
        else:
            out = out + TensorAlgebraElement(alg, terms)
    return out


def is_invariant(t) -> bool:
    """True iff every canonical generator acts by zero."""
    alg = t.algebra
    for g in range(alg.dim):
        if not adjoint_act(alg.unit(g), t).is_zero():
            return False
    return True


def project_tensor(alg: Algebra, tensor: Tensor) -> TensorAlgebraElement:
    """pi = pi_tilde^(x k): push End(V)^(x k) down to T(g)."""
    if tensor.space != alg.space:
        raise ValueError("space mismatch")
    table = alg.pi_table
    out = {}
    for key, coeff in tensor.terms.items():
        word = []
        c = coeff
        dead = False
        for r, col in key:
            hit = table[(r, col)]
            if hit is None:
                dead = True
                break
            idx, factor = hit
            word.append(idx)
            c = c * factor
        if dead or not c:
            continue
        add_into(out, tuple(word), c)
    return TensorAlgebraElement(alg, out)
