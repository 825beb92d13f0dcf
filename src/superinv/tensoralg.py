"""The tensor algebra T(g) and supersymmetric algebra S(g) of an algebra.

Elements are sparse maps from generator words to Scalars.  A word is a
tuple of generator indices into the algebra's canonical ordered basis;
mixed degrees are allowed in T(g).  In S(g) every stored monomial is
sorted stably into the global generator order, signed by the Koszul sign
gamma of that reordering (``signs._reorder``), and any monomial containing
an odd generator twice is zero.

Operations that expand over S_k (symmetrize, hence omega_k and psi in the
enveloping module) refuse to run past the degree cap MAX_DEGREE.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebras import Algebra, LieElement, _ad_word
from .scalars import Scalar
from .signs import Permutation, _reorder, symmetric_group
from .sparse import Sparse, add_into
from .tensors import Tensor


MAX_DEGREE = 8


class DegreeCapExceeded(ValueError):
    pass


def check_degree(k: int):
    if k > MAX_DEGREE:
        raise DegreeCapExceeded("degree %d exceeds the cap %d" % (k, MAX_DEGREE))


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
        # S(g) is a quotient of T(g): eta of the product of the stored words
        return eta(TensorAlgebraElement.__mul__(self, other))


def eta(t: TensorAlgebraElement) -> SymElement:
    """The quotient map T(g) -> S(g)."""
    alg = t.algebra
    par = alg.parity
    out = {}
    for word, coeff in t.terms.items():
        order = sorted(range(len(word)), key=word.__getitem__)
        w, exp = _reorder(word, [par[g] for g in word], Permutation(i + 1 for i in order))
        # an odd letter squares to zero
        if any(a == b and par[a] for a, b in zip(w, w[1:])):
            continue
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
            new_word, exp = _reorder(word, parities, sigma)
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
    terms = {}
    for g, cg in x.terms.items():
        for word, coeff in t.terms.items():
            for w, cv in _ad_word(alg, g, word):
                add_into(terms, w, coeff * cg * cv)
    out = TensorAlgebraElement(alg, terms)
    # on S(g) the derivation of T(g) passes to the quotient
    return eta(out) if isinstance(t, SymElement) else out


def is_invariant(t) -> bool:
    """True iff g acts by zero; the generators that do span a Lie subalgebra, so
    h0 (by weight) and the set S of ``Algebra.generating_set`` stand in for g."""
    alg = t.algebra
    gens = alg.generating_set
    return all(map(gens.weight_zero, t.terms)) and all(
        adjoint_act(alg.unit(g), t).is_zero() for g in gens.probes
    )


def project_tensor(alg: Algebra, tensor: Tensor) -> TensorAlgebraElement:
    """pi = pi_tilde^(x k): push End(V)^(x k) down to T(g)."""
    if tensor.space != alg.space:
        raise ValueError("space mismatch")
    out = {}
    for word, c in alg._pi_tilde(tensor.terms):
        add_into(out, word, c)
    return TensorAlgebraElement(alg, out)
