"""The tensor algebra T(g) and supersymmetric algebra S(g) of an algebra.

Elements are sparse maps from generator words to Scalars.  A word is a
tuple of generator indices into the algebra's canonical ordered basis;
mixed degrees are allowed in T(g).  In S(g) every stored monomial is
sorted into the global generator order.  Only odd letters sign a swap, so
the Koszul sign of that sort is the inversion parity of the word's odd
letters (``signs._inversion_parity``), and any monomial containing an odd
generator twice is zero.

The commands need only the projection pi of an End(V)^(x k) tensor to
T(g) and the quotient eta to S(g).  Symmetrization back to T(g), the
adjoint action and the invariance test, which no command runs, are test
references in ``tests/oracles.py``.
"""

from __future__ import annotations

from .algebras import Algebra
from .signs import _inversion_parity
from .sparse import Sparse, add_into
from .tensors import Tensor


class _WordMap(Sparse):
    """Sparse word -> Scalar map over the generators of one algebra."""

    __slots__ = ("algebra",)
    _context = ("algebra",)

    def __init__(self, algebra: Algebra, terms=None):
        self.algebra = algebra
        Sparse.__init__(self, terms)

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
    """The quotient map T(g) -> S(g).

    A word's sorted form and sign are read from ``Algebra.sym_forms``,
    worked out at the word's first use: pn-trivial at p(2), k = 4 passes
    6,048 words, 234 of them distinct.
    """
    alg = t.algebra
    par = alg.parity
    forms = alg.sym_forms
    out = {}
    for word, coeff in t.terms.items():
        form = forms.get(word, False)
        if form is False:
            odd = [g for g in word if par[g]]
            # an odd letter squares to zero
            form = forms[word] = None if len(set(odd)) < len(odd) else (
                tuple(sorted(word)), _inversion_parity(odd)
            )
        if form is not None:
            mono, flip = form
            add_into(out, mono, -coeff if flip else coeff)
    return SymElement(alg, out)


def project_tensor(alg: Algebra, tensor: Tensor) -> TensorAlgebraElement:
    """pi = pi_tilde^(x k): push End(V)^(x k) down to T(g)."""
    if tensor.space != alg.space:
        raise ValueError("space mismatch")
    out = {}
    for word, c in alg._pi_tilde(tensor.terms, tensor.k):
        add_into(out, word, c)
    return TensorAlgebraElement(alg, out)
