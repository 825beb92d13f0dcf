"""Sparse tensors over End(V)^(x k) and V^(x k), with all Koszul signs.

A ``Tensor`` is a sparse element of End(V)^(x k); its keys are k-tuples of
(row, col) index pairs, so the key ((r1,c1),...,(rk,ck)) stands for the
product word e_{r1 c1} x ... x e_{rk ck} of matrix units.  A
``VectorTensor`` is a sparse element of V^(x k) keyed by k-tuples of
indices.  Zero coefficients are never stored, and k = 0 is legal (the key
is the empty tuple and the element is a scalar).  The same operations serve
schurweyl.UValuedTensor, a Tensor whose coefficients are U(g) elements.

The product of tensor factors follows the superalgebra rule

    (a1 x b1) . (a2 x b2) = (-1)^{|a2||b1|} (a1 a2) x (b1 b2),

and a Tensor acts on V^(x k) by

    (a1 x...x ak)(v1 x...x vk)
        = (-1)^{sum_s |a_s| (|v1|+...+|v_{s-1}|)} (a1 v1 x...x ak vk),

so that compose(A, B) acts as B followed by A.

The symmetric group acts by signed place permutation:
    sigma . (v1 x...x vk)
        = gamma(v, sigma^{-1}) (v_{sigma^{-1}(1)} x...x v_{sigma^{-1}(k)}).
"""

from __future__ import annotations

from operator import attrgetter

from .scalars import ONE, ZERO, Scalar
from .signs import Permutation, gamma_exponent
from .sparse import Sparse, add_into
from .spaces import SuperSpace


class _Tensor(Sparse):
    """Sparse tensors of degree k over a super space."""

    __slots__ = ("space", "k")
    _context = ("space", "k")
    # True when coefficients are superalgebra elements, each of its key's
    # parity, whose products may vanish (U(g) values)
    _odd_values = False

    def __init__(self, space: SuperSpace, k: int, entries=None):
        self.space = space
        self.k = k
        Sparse.__init__(self, entries)

    def _of_degree(self, k: int, terms: dict):
        """An element like self but of degree k, holding terms as given."""
        out = self._like(terms)
        out.k = k
        return out

    # the tensor-side name of ``terms``
    entries = property(attrgetter("terms"))

    def coefficient(self, key) -> Scalar:
        return self.terms.get(key, ZERO)

    def __repr__(self):
        if not self.terms:
            return "%s<0>" % type(self).__name__
        parts = ["%r:%r" % (k, c) for k, c in sorted(self.terms.items())]
        return "%s<%s>" % (type(self).__name__, ", ".join(parts))


class Tensor(_Tensor):
    """Sparse element of End(V)^(x k)."""

    def key_parity(self, key) -> int:
        par = self.space._parity
        return sum(par[r] + par[c] for r, c in key) & 1

    def parity(self):
        """Total parity if homogeneous, else None."""
        parities = {self.key_parity(key) for key in self.terms}
        if not parities:
            return 0
        if len(parities) == 1:
            return parities.pop()
        return None

    def to_json(self):
        entries = []
        for key in sorted(self.terms):
            entries.append(
                {"key": [[r, c] for r, c in key], "coeff": self.terms[key].to_json()}
            )
        return {"k": self.k, "space": self.space.to_json(), "entries": entries}


class VectorTensor(_Tensor):
    """Sparse element of V^(x k)."""


# -- constructors ----------------------------------------------------------


def matrix_unit(space: SuperSpace, i: int, j: int) -> Tensor:
    return Tensor(space, 1, {((i, j),): ONE})


def identity_tensor(space: SuperSpace, k: int) -> Tensor:
    return slot_embed(Tensor(space, 0, {(): ONE}), 1, k)


# -- the operations --------------------------------------------------------


def compose(a: Tensor, b: Tensor) -> Tensor:
    """The product of a and b in the superalgebra End(V)^(x k).

    With odd values (U(g)-valued tensors), a's value also crosses b's word.
    b is indexed by row word, so a key of a meets only the keys of b whose
    rows match its columns, in b's order.
    """
    a._check(b)
    par = a.space._parity
    odd_values = a._odd_values
    # sign: each b_t crosses a_s for t < s, so an entry of b holds the mask
    # of positions s whose preceding slots of b are odd in total
    index = {}
    for kb, vb in b.terms.items():
        run = mask = 0
        for s, (r, c) in enumerate(kb):
            mask |= run << s
            run ^= (par[r] + par[c]) & 1
        if odd_values:
            # a's value, as odd as its key, stands left of all k slots
            mask |= run << len(kb)
        index.setdefault(tuple(r for r, _ in kb), []).append(
            (tuple(c for _, c in kb), vb, mask)
        )
    out = {}
    for ka, va in a.terms.items():
        bucket = index.get(tuple(c for _, c in ka))
        if bucket is None:
            continue
        amask = 0
        for s, (r, c) in enumerate(ka):
            amask |= ((par[r] + par[c]) & 1) << s
        if odd_values:
            amask |= (amask.bit_count() & 1) << len(ka)
        rows = tuple(r for r, _ in ka)
        for cols, vb, bmask in bucket:
            val = va * vb
            if odd_values and not val:
                continue
            if (amask & bmask).bit_count() & 1:
                val = -val
            add_into(out, tuple(zip(rows, cols)), val)
    return a._like(out)


def full_supertrace(a: Tensor):
    """Str_{1..k} in one pass over the diagonal keys, each negated if its row word is odd."""
    par = a.space._parity
    out = {}
    for key, coeff in a.terms.items():
        if all(r == c for r, c in key):
            add_into(out, (), -coeff if sum(par[r] for r, _ in key) & 1 else coeff)
    return a._of_degree(0, out).coefficient(())


def permute_word(sigma: Permutation, w: VectorTensor) -> VectorTensor:
    """The signed place-permutation action of sigma on a VectorTensor.

    The Koszul sign depends only on a key's parity word, so
    ``gamma_exponent`` runs once per parity word of the call.  The action
    is a bijection on keys, so no two terms meet.
    """
    if sigma.size != w.k:
        raise ValueError("degree mismatch")
    inv = sigma.inverse()
    order = [i - 1 for i in inv.images]
    parities = w.space._parity
    signs = {}
    out = {}
    for key, coeff in w.terms.items():
        pword = tuple(map(parities.__getitem__, key))
        exp = signs.get(pword)
        if exp is None:
            exp = signs[pword] = gamma_exponent(pword, inv)
        out[tuple(map(key.__getitem__, order))] = -coeff if exp else coeff
    return w._like(out)


def slot_embed(x: Tensor, slot: int, k: int) -> Tensor:
    """1 x..x x x..x 1: a degree-j x on slots slot..slot+j-1 (1-based) of degree k."""
    if not 1 <= slot <= k - x.k + 1:
        raise ValueError("slot %d cannot hold degree %d in degree %d" % (slot, x.k, k))
    diag = [()]
    for _ in range(k - x.k):
        diag = [w + ((d, d),) for w in diag for d in x.space.indices]
    return x._of_degree(
        k, {w[: slot - 1] + key + w[slot - 1 :]: v for key, v in x.terms.items() for w in diag}
    )
