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

which makes ``apply(compose(A, B), v) == apply(A, apply(B, v))``.

The symmetric group acts by signed place permutation:
    sigma . (v1 x...x vk)
        = gamma(v, sigma^{-1}) (v_{sigma^{-1}(1)} x...x v_{sigma^{-1}(k)}).
"""

from __future__ import annotations

from operator import attrgetter

from .scalars import ONE, Scalar
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
        return self.terms.get(key, Scalar(0))

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

    def parity_components(self):
        """Split into (even part, odd part)."""
        even, odd = {}, {}
        for key, coeff in self.terms.items():
            (even if self.key_parity(key) == 0 else odd)[key] = coeff
        return Tensor(self.space, self.k, even), Tensor(self.space, self.k, odd)

    def to_json(self):
        entries = []
        for key in sorted(self.terms):
            entries.append(
                {"key": [[r, c] for r, c in key], "coeff": self.terms[key].to_json()}
            )
        return {"k": self.k, "space": self.space.to_json(), "entries": entries}


class VectorTensor(_Tensor):
    """Sparse element of V^(x k)."""

    def key_parity(self, key) -> int:
        return self.space.word_parity(key)

    def to_json(self):
        entries = []
        for key in sorted(self.terms):
            entries.append({"key": list(key), "coeff": self.terms[key].to_json()})
        return {"k": self.k, "space": self.space.to_json(), "entries": entries}


# -- constructors ----------------------------------------------------------


def matrix_unit(space: SuperSpace, i: int, j: int) -> Tensor:
    return Tensor(space, 1, {((i, j),): ONE})


def identity_tensor(space: SuperSpace, k: int) -> Tensor:
    if k == 0:
        return Tensor(space, 0, {(): ONE})
    keys = [()]
    for _ in range(k):
        keys = [key + ((d, d),) for key in keys for d in space.indices]
    return Tensor(space, k, {key: ONE for key in keys})


def basis_vector(space: SuperSpace, word) -> VectorTensor:
    word = tuple(word)
    return VectorTensor(space, len(word), {word: ONE})


# -- the operations --------------------------------------------------------


def compose(a: Tensor, b: Tensor) -> Tensor:
    """The product of a and b in the superalgebra End(V)^(x k).

    With odd values (U(g)-valued tensors), a's value also crosses b's word.
    """
    a._check(b)
    par = a.space._parity
    odd_values = a._odd_values
    out = {}
    for ka, va in a.terms.items():
        apar = [(par[r] + par[c]) & 1 for r, c in ka]
        if odd_values:
            # the value, as odd as its key, stands left of all k slots
            apar.append(sum(apar) & 1)
        steps = range(len(apar))
        for kb, vb in b.terms.items():
            key = []
            for (ra, ca), (rb, cb) in zip(ka, kb):
                if ca != rb:
                    key = None
                    break
                key.append((ra, cb))
            if key is None:
                continue
            # sign: each b_t crosses a_s for t < s
            exp = 0
            run = 0
            for s in steps:
                if s > 0:
                    rb, cb = kb[s - 1]
                    run ^= (par[rb] + par[cb]) & 1
                if apar[s] and run:
                    exp ^= 1
            val = va * vb
            if odd_values and not val:
                continue
            add_into(out, tuple(key), -val if exp else val)
    return a._like(out)


def apply(a: Tensor, v: VectorTensor) -> VectorTensor:
    """Act with a on v, with the Koszul signs of the module structure."""
    if a.space != v.space or a.k != v.k:
        raise ValueError("degree/space mismatch")
    par = a.space._parity
    out = {}
    for ka, va in a.terms.items():
        apar = tuple((par[r] + par[c]) & 1 for r, c in ka)
        for kv, vv in v.terms.items():
            ok = True
            for (r, c), i in zip(ka, kv):
                if c != i:
                    ok = False
                    break
            if not ok:
                continue
            exp = 0
            run = 0
            for s in range(a.k):
                if s > 0:
                    run ^= par[kv[s - 1]]
                if apar[s] and run:
                    exp ^= 1
            add_into(out, tuple(r for r, _ in ka), va * vv if not exp else -(va * vv))
    return v._like(out)


def supertrace(a: Tensor) -> Scalar:
    """Str on End(V): e_ij -> (-1)^{|i|} delta_ij, extended linearly."""
    if a.k != 1:
        raise ValueError("supertrace requires k = 1")
    return full_supertrace(a)


def partial_supertrace(a: Tensor, pos: int) -> Tensor:
    """Supertrace on the pos-th factor (1-based), identity on the rest."""
    if not 1 <= pos <= a.k:
        raise ValueError("position out of range")
    par = a.space._parity
    out = {}
    for key, coeff in a.terms.items():
        r, c = key[pos - 1]
        if r == c:
            add_into(out, key[: pos - 1] + key[pos:], coeff if par[r] == 0 else -coeff)
    return a._of_degree(a.k - 1, out)


def full_supertrace(a: Tensor):
    """Str_{1..k}: iterate the partial supertrace over every position."""
    t = a
    while t.k > 0:
        t = partial_supertrace(t, t.k)
    return t.coefficient(())


def supertranspose(a: Tensor) -> Tensor:
    """Slotwise e_ij -> (-1)^{(|i|+|j|)|i|} e_ji; a super anti-automorphism."""
    par = a.space._parity
    out = {}
    for key, coeff in a.terms.items():
        exp = 0
        new_key = []
        for r, c in key:
            exp ^= ((par[r] + par[c]) & par[r]) & 1
            new_key.append((c, r))
        out[tuple(new_key)] = coeff if not exp else -coeff
    return Tensor(a.space, a.k, out)


def permute_word(sigma: Permutation, w):
    """The signed place-permutation action of sigma on a (Vector)Tensor."""
    if sigma.size != w.k:
        raise ValueError("degree mismatch")
    inv = sigma.inverse()
    out = {}
    if isinstance(w, VectorTensor):
        parities = w.space._parity
        slot_parity = lambda slot: parities[slot]
    else:
        parities = w.space._parity
        slot_parity = lambda slot: (parities[slot[0]] + parities[slot[1]]) & 1
    for key, coeff in w.terms.items():
        word_par = tuple(slot_parity(slot) for slot in key)
        exp = gamma_exponent(word_par, inv)
        new_key = tuple(key[inv(t) - 1] for t in range(1, w.k + 1))
        add_into(out, new_key, coeff if not exp else -coeff)
    return type(w)(w.space, w.k, out)


def slot_embed(x: Tensor, slot: int, k: int) -> Tensor:
    """1 x..x x x..x 1: a degree-1 x in the given slot (1-based) of degree k."""
    if x.k != 1:
        raise ValueError("slot embedding needs a degree-1 input")
    diag = [()]
    for _ in range(k - 1):
        diag = [w + ((d, d),) for w in diag for d in x.space.indices]
    return x._of_degree(
        k, {w[: slot - 1] + key + w[slot - 1 :]: v for key, v in x.terms.items() for w in diag}
    )
