"""The tensor algebra T(g) and supersymmetric algebra S(g) of an algebra.

Elements are sparse maps from generator words to Scalars.  A word is a
tuple of generator indices into the algebra's canonical ordered basis;
mixed degrees are allowed in T(g).  In S(g) every stored monomial is
sorted stably into the global generator order, signed by the Koszul sign
gamma of that reordering (``signs._reorder``), and any monomial containing
an odd generator twice is zero.

The commands need only the projection pi of an End(V)^(x k) tensor to
T(g) and the quotient eta to S(g).  Symmetrization back to T(g), the
adjoint action and the invariance test, which no command runs, are test
references in ``tests/oracles.py``.
"""

from __future__ import annotations

from .algebras import Algebra
from .signs import Permutation, _reorder
from .sparse import Sparse, add_into
from .tensors import Tensor


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


def project_tensor(alg: Algebra, tensor: Tensor) -> TensorAlgebraElement:
    """pi = pi_tilde^(x k): push End(V)^(x k) down to T(g)."""
    if tensor.space != alg.space:
        raise ValueError("space mismatch")
    out = {}
    for word, c in alg._pi_tilde(tensor.terms):
        add_into(out, word, c)
    return TensorAlgebraElement(alg, out)
