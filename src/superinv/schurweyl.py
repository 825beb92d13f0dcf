"""Operators on V^(x k) and the invariants they produce in U(g).

The pipeline is: a centralizer-algebra element acts on V^(x k), as an
element of End(V)^(x k); the split projection pushes that down to T(g);
then eta and the canonical map land in S(g) and U(g).  ``z_sigma`` is the
composite, and is central whenever the input operator commutes with the
action.

Every invariant tensor theta comes from ``invariant_tensor``, one
recipe for all four families: a permutation acts, with its Koszul sign,
on the k-th power of the invariant vector of V x V (``invariant_vector``),
and ``omega_iso`` reads each slot pair back as a matrix unit.  For gl and
q the vector is the identity sum_i e_i x e_i, sigma in S_k moves only the
first slot of each pair, the pair (a, b) is read as e_ab, and theta is the
signed place permutation of sigma.  For osp and p the vector is the
invariant pairing, sigma ranges over S_2k, and the pair is read as e_ab'
with the family's sign.  Permutation inputs for osp/p are reduced to the
lexicographically least member of their coset modulo the pair-block
subgroup H first, so equal cosets give identical output.

The centralizer generators act on one or two adjacent slots, so each is
one local tensor that ``slot_embed`` places on slots i.. of V^(x k), as
phi_k places the action of g: s_i is theta of the swap (the signed swap
of V x V; for p, minus theta of the swap diagram), e_i (osp, p) is theta
of the cup-cap diagram pairing {1,3} and {2,4}, and c_i (q) is the odd
Clifford operator on V.
"""

from __future__ import annotations

import functools

from .algebras import Algebra, phi_k
from .brauer import coset_canonical
from .enveloping import PBWElement, eta_prime
from .scalars import ONE, ZERO, I, Scalar, promote, sign_scalar
from .signs import Permutation
from .sparse import echelon_extend, echelon_reduce
from .spaces import SuperSpace
from .tensoralg import project_tensor
from .tensors import (
    Tensor,
    VectorTensor,
    compose,
    full_supertrace,
    identity_tensor,
    permute_word,
    slot_embed,
)


# -- operator constructions -------------------------------------------------


def omega_iso(vec: VectorTensor) -> Tensor:
    """V^(x 2k) -> End(V)^(x k), the fixed linear map of the construction.

    For gl and q the pair (a, b) on slots 2s+1, 2s+2 becomes e_ab on slot
    s+1, with no sign.  For osp and p it becomes e_{a b'}, and the family
    picks a sign flip at each slot s (counted from 0): for osp where
    epsilon(b) = -1, for p by |a| + (k-1-s)(|a|+|b|) mod 2, the closed form
    of sum_s |a_s| plus p((1,...,1), pair parities).
    """
    space = vec.space
    if vec.k % 2:
        raise ValueError("even total degree required")
    k = vec.k // 2
    out = Tensor(space, k)
    if space.family in ("gl", "q"):
        for word, coeff in vec.terms.items():
            out.terms[tuple(zip(word[::2], word[1::2]))] = coeff
        return out
    par, prime = space._parity, space.prime
    if space.family == "osp":
        def flip(s, a, b):
            return space.epsilon(b) < 0
    else:
        def flip(s, a, b):
            return (par[a] + (k - 1 - s) * (par[a] + par[b])) & 1
    # prime is a bijection, so distinct words give distinct keys
    for word, coeff in vec.terms.items():
        key = []
        for s, (a, b) in enumerate(zip(word[::2], word[1::2])):
            key.append((a, prime(b)))
            if flip(s, a, b):
                coeff = -coeff
        out.terms[tuple(key)] = coeff
    return out


def invariant_vector(space: SuperSpace) -> VectorTensor:
    """The invariant vector in V x V: sum_i e_i x e_i for gl and q, the
    pairing for osp and p."""
    if space.family in ("gl", "q"):
        return VectorTensor(space, 2, {(i, i): ONE for i in space.indices})
    if space.family == "osp":
        coeff = lambda i: Scalar(space.epsilon(space.prime(i)))
    else:
        coeff = lambda i: sign_scalar(space.parity(i))
    return VectorTensor(space, 2, {(i, space.prime(i)): coeff(i) for i in space.indices})


def _power(vec: VectorTensor, k: int) -> VectorTensor:
    """The k-th tensor power of vec."""
    entries = {(): ONE}
    for _ in range(k):
        entries = {
            key + vkey: c * vc
            for key, c in entries.items()
            for vkey, vc in vec.terms.items()
        }
    return vec._of_degree(vec.k * k, entries)


@functools.lru_cache(maxsize=None)
def _pairing_power(space: SuperSpace, k: int) -> VectorTensor:
    """The k-th tensor power of the osp/p pairing, built once and never mutated."""
    return _power(invariant_vector(space), k)


# -- invariant tensors ------------------------------------------------------


def invariant_tensor(alg: Algebra, sigma: Permutation) -> Tensor:
    """The invariant theta of End(V)^(x k) attached to sigma.

    gl, q: sigma in S_k, lifted to S_2k so that it moves only the slots
    2s-1, acts on the k-th power of the identity vector: theta is the
    signed place permutation of sigma.  osp, p: sigma in S_2k, replaced by
    the canonical representative of sigma*H, acts on the k-th power of the
    pairing.
    """
    if alg.family in ("gl", "q"):
        k = sigma.size
        # the identity power is a temporary: omega_iso's result alone is kept
        lifted = Permutation(x for s in range(1, k + 1) for x in (2 * sigma(s) - 1, 2 * s))
        return omega_iso(permute_word(lifted, _power(invariant_vector(alg.space), k)))
    if sigma.size % 2:
        raise ValueError("sigma must live in S_2k")
    power = _pairing_power(alg.space, sigma.size // 2)
    return omega_iso(permute_word(coset_canonical(sigma), power))


def tensor_is_invariant(alg: Algebra, t: Tensor) -> bool:
    """True iff t supercommutes with the action of g.

    The generators whose action t supercommutes with span a Lie
    subalgebra, so the even Cartan and the set S of
    ``Algebra.generating_set`` stand in for all of g.
    """
    return not _noncommuting_generators(alg, t, _actions(alg, t.k))


def _actions(alg: Algebra, k: int) -> list:
    """(g, phi_k of g) for each g of h0 and the set S, in generator order."""
    gens = alg.generating_set
    return [(g, phi_k(alg, alg.unit(g), k)) for g in sorted(gens.cartan + gens.probes)]


def _noncommuting_generators(alg: Algebra, t: Tensor, actions) -> list:
    """The generators g, of the (g, action) pairs, whose action does not
    supercommute with t.

    An odd g passes t's odd keys with a sign, so the test is
    g t = t' g, where t' is t with its odd keys negated when g is odd.  t
    may be inhomogeneous: the two sides' parity components match one by one.
    """
    twisted = t._like(
        {key: -c if t.key_parity(key) else c for key, c in t.terms.items()}
    )
    return [
        g
        for g, action in actions
        if compose(action, t) != compose(twisted if alg.parity[g] else t, action)
    ]


# -- elements of U(g) --------------------------------------------------------


def z_sigma(alg: Algebra, sigma: Permutation) -> PBWElement:
    """eta' o pi of the invariant tensor of sigma; a central element."""
    return eta_prime(project_tensor(alg, invariant_tensor(alg, sigma)))


# -- U(g)-valued tensors ------------------------------------------------------


class UValuedTensor(Tensor):
    """Sparse element of End(V)^(x k) tensor U(g): a Tensor with PBW values.

    The stored invariant is that every value is parity-homogeneous with
    parity equal to its key's word parity, which holds for the generator
    matrices and everything generated from them; products rely on it for
    the Koszul signs.
    """

    __slots__ = ("algebra",)
    _context = ("algebra", "space", "k")
    _coerce = staticmethod(lambda val: val)
    _odd_values = True

    def __init__(self, algebra: Algebra, k: int, entries=None):
        self.algebra = algebra
        Tensor.__init__(self, algebra.space, k, entries)

    def coefficient(self, key) -> PBWElement:
        return self.terms.get(key, PBWElement(self.algebra))

    # defined here, not inherited, so that perfbench/tracer.py can wrap it
    def __mul__(self, other: "UValuedTensor") -> "UValuedTensor":
        return compose(self, other)


def scalar_tensor(alg: Algebra, t: Tensor) -> UValuedTensor:
    """Embed a scalar tensor as a U(g)-valued one.

    Requires even key words: the product signs assume every value's parity
    matches its key's, and scalars are even.
    """
    out = UValuedTensor(alg, t.k)
    for key, coeff in t.terms.items():
        if out.key_parity(key):
            raise ValueError("scalar-valued embedding requires even key words")
        out.terms[key] = PBWElement.unit(alg, coeff)
    return out


def generator_matrix(alg: Algebra) -> UValuedTensor:
    """The U(g)-valued matrix with (i,j) entry the spanning element X_ij.

    Stored in supermatrix form: sum (-1)^{|i||j|+|i|+|j|} e_ij x X_ij, where
    X_ij is pi_tilde of the unit e_ij, doubled outside gl (X = E, F, G, H).
    """
    space = alg.space
    par = space._parity
    factor = ONE if alg.family == "gl" else Scalar(2)
    entries = {}
    for i in space.indices:
        for j in space.indices:
            sign = (par[i] * par[j] + par[i] + par[j]) & 1
            for word, c in alg._pi_tilde({((i, j),): -factor if sign else factor}):
                entries[((i, j),)] = PBWElement(alg, {word: c})
    return UValuedTensor(alg, 1, entries)


def str_gelfand(alg: Algebra, k: int) -> PBWElement:
    """Str of the k-th matrix power of the generator matrix."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = generator_matrix(alg)
    acc = x
    for _ in range(k - 1):
        acc = acc * x
    return full_supertrace(acc)


def molev_element(alg: Algebra, s: Tensor, shifts) -> PBWElement:
    """Str_{1..k} (u_1 + X_1)...(u_k + X_k) S for an invariant S."""
    k = s.k
    shifts = [promote(u) for u in shifts]
    if len(shifts) != k:
        raise ValueError("need one shift per tensor slot")
    if not tensor_is_invariant(alg, s):
        raise ValueError("input tensor is not invariant")
    x = generator_matrix(alg)
    prod = scalar_tensor(alg, s)
    for a in range(k, 0, -1):
        prod = slot_embed(x, a, k) * prod + prod.scale(shifts[a - 1])
    return full_supertrace(prod)


# -- the q(n) trace family -----------------------------------------------------


def sergeev_elements(alg: Algebra, m: int) -> UValuedTensor:
    """Sergeev's m-th U(q_n) matrices, as the rows i > 0 of X^m.

    With X = ``generator_matrix``, e^(m)_ij is the (i, j) entry and
    f^(m)_ij is minus the (i, -j) entry; the recursion's (-1)^(m-1) is
    the Koszul sign of the product.
    """
    if alg.family != "q":
        raise ValueError("q(n) only")
    if m < 1:
        raise ValueError("m must be >= 1")
    x = generator_matrix(alg)
    acc = x._like({key: v for key, v in x.terms.items() if key[0][0] > 0})
    for _ in range(m - 1):
        acc = acc * x
    return acc


def sergeev_Z(alg: Algebra, k: int) -> PBWElement:
    """The trace of e^(k); its diagonal is even, so this is a supertrace.  Central for odd k."""
    return full_supertrace(sergeev_elements(alg, k))


# -- the duality relation report ------------------------------------------------


def _relation_names(family: str, k: int) -> list:
    """The defining relations of the centralizer algebra on V^(x k), as text.

    Each name is an identity whose sides ``_read_side`` reads, except
    ``e1^2 = delta e1``, whose parameter is measured.
    """
    def each(subs, *templates):
        return [t.format(**sub) for sub in subs for t in templates]

    ones = [dict(i=i, h=i + 1) for i in range(1, k)]
    adjacent = ones[:-1]
    far = [dict(i=i, j=j) for i in range(1, k) for j in range(i + 2, k)]
    names = each(ones, "s{i}^2 = 1") + each(adjacent, "s{i} s{h} s{i} = s{h} s{i} s{h}")
    names += each(far, "s{i} s{j} = s{j} s{i}")
    if family == "osp":
        names.append("e1^2 = delta e1")
        names += each(ones, "e{i} s{i} = e{i}", "s{i} e{i} = e{i}")
        names += each(adjacent, "e{i} e{h} e{i} = e{i}", "e{h} e{i} e{h} = e{h}",
                      "s{i} e{h} e{i} = s{h} e{i}", "s{h} e{i} e{h} = s{i} e{h}")
    elif family == "p":
        names += each(ones, "e{i}^2 = 0", "e{i} s{i} = e{i}", "s{i} e{i} = -e{i}")
        # slot bookkeeping forces the right-hand side back onto the same
        # contraction slot: e_i e_{i+1} e_i lands in e_i's image
        names += each(adjacent, "e{i} e{h} e{i} = -e{i}", "e{h} e{i} e{h} = -e{h}",
                      "e{i} e{h} s{i} = -e{i} s{h}", "s{h} e{i} e{h} = -s{i} e{h}")
    if family in ("osp", "p"):
        names += each(far, "s{i} e{j} = e{j} s{i}", "e{i} e{j} = e{j} e{i}")
    elif family == "q":
        slots = range(1, k + 1)
        names += each([dict(i=i) for i in slots], "c{i}^2 = 1")
        pairs = [dict(i=i, j=j) for i in slots for j in slots if i < j]
        names += each(pairs, "c{i} c{j} = -c{j} c{i}")
        # s_i carries a Clifford generator across the two slots it swaps
        swaps = [dict(i=i, j=j, t={i: i + 1, i + 1: i}.get(j, j))
                 for i in slots[:-1] for j in slots]
        names += each(swaps, "s{i} c{j} = c{t} s{i}")
    return names


def _generator_operators(alg: Algebra, k: int) -> dict:
    """The centralizer generators on V^(x k) by name: sI, plus eI (osp, p) or cI (q).

    Each is one local tensor placed on slots I.. by ``slot_embed``.  s is
    theta of the swap: of (2 1) for gl and q, of the swap diagram for osp,
    and minus it for p, where theta carries a sign, sending the swap
    diagram to -s and the identity diagram to -1.
    """
    swap = Permutation((2, 1) if alg.family in ("gl", "q") else (1, 4, 2, 3))
    s = invariant_tensor(alg, swap)
    local = {"s": -s if alg.family == "p" else s}
    if alg.family in ("osp", "p"):
        local["e"] = invariant_tensor(alg, Permutation((1, 3, 2, 4)))
    elif alg.family == "q":
        # P e_v = -sqrt(-1) e_{-v} for v > 0, and +sqrt(-1) e_{-v} for v < 0
        indices = alg.space.indices
        local["c"] = Tensor(alg.space, 1, {((-v, v),): -I if v > 0 else I for v in indices})
    return {
        "%s%d" % (name, i): slot_embed(x, i, k)
        for name, x in local.items()
        for i in range(1, k - x.k + 2)
    }


def _read_side(side: str, ops: dict, ident: Tensor) -> Tensor:
    """The operator one side of a relation name states: an optional '-', then '1', '0'
    or generator names multiplied right-nested, with ``x^2`` read as ``x x``."""
    named = dict(ops, **{"1": ident, "0": Tensor(ident.space, ident.k)})
    factors = []
    for word in side.lstrip("-").split():
        name, _, power = word.partition("^")
        factors += [named[name]] * int(power or 1)
    out = factors.pop()
    while factors:
        out = compose(factors.pop(), out)
    return -out if side.startswith("-") else out


def check_duality_relations(alg: Algebra, k: int) -> dict:
    """Verify the defining relations of the centralizer algebra on V^(x k),
    and supercommutation of every generator operator with the action.

    Each relation is checked as the operator identity its name states, and
    the action on h0 and the set S, as in ``tensor_is_invariant``.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    fam = alg.family
    ops = _generator_operators(alg, k)
    ident = identity_tensor(alg.space, k)
    delta = None
    results = []
    for name in _relation_names(fam, k):
        if name == "e1^2 = delta e1":
            delta = _measure_multiple(_read_side("e1^2", ops, ident), ops["e1"])
            holds = delta is not None
        else:
            lhs, rhs = name.split(" = ")
            holds = (_read_side(lhs, ops, ident) - _read_side(rhs, ops, ident)).is_zero()
        results.append({"name": name, "holds": holds})

    actions = _actions(alg, k)
    commute_failures = [
        [name, alg.gens[g]]
        for name, op in sorted(ops.items())
        for g in _noncommuting_generators(alg, op, actions)
    ]

    report = {
        "family": fam,
        "m": alg.m,
        "n": alg.n,
        "k": k,
        "relations": results,
        "all_relations_hold": all(r["holds"] for r in results),
        "supercommutes_with_action": not commute_failures,
        "supercommute_failures": commute_failures,
    }
    if fam == "osp":
        report["delta_measured"] = None if delta is None else str(delta)
        report["delta_table_m_minus_2n"] = alg.m - 2 * alg.n
        report["delta_text_2m_plus_1_minus_2n"] = 2 * alg.m + 1 - 2 * alg.n
        report["delta_matches_m_minus_2n"] = delta is not None and delta == alg.m - 2 * alg.n
        report["parameter_discrepancy_note"] = (
            "the centralizer parameter measured from e1^2 equals m-2n in the "
            "realized size m; the literal expression 2m+1-2n only agrees "
            "after re-reading m as the rank (m-1)/2"
        )
    return report


def _measure_multiple(a: Tensor, b: Tensor):
    """The scalar c with a == c*b, or None: elimination against the one row b."""
    row = {}
    if not echelon_extend(row, b.terms) or echelon_reduce(row, a.terms):
        return None
    (pivot,) = row
    return a.terms.get(pivot, ZERO) / b.terms[pivot]
