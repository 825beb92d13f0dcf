"""Operators on V^(x k) and the invariants they produce in U(g).

The pipeline is: a centralizer-algebra element acts on V^(x k); the
canonical isomorphism omega_iso turns the operator into an element of
End(V)^(x k); the split projection pushes that down to T(g); then eta and
the canonical map land in S(g) and U(g).  ``z_sigma`` is the composite,
and is central whenever the input operator commutes with the action.

For gl and q the operators come from signed place permutations (plus the
Clifford generators for q); for osp and p they come from permuting the
slots of the k-th power of the invariant pairing vector and converting
back to End(V)^(x k) by dualizing the even slots.  Permutation inputs for
osp/p are reduced to the lexicographically least member of their coset
modulo the pair-block subgroup H first, so equal cosets give identical
output.
"""

from __future__ import annotations

import itertools

from .algebras import Algebra, phi_k
from .brauer import coset_canonical
from .enveloping import PBWElement, eta_prime, psi_map, u_multiply
from .scalars import ONE, Scalar, promote, sign_scalar
from .signs import Permutation, p_exponent
from .sparse import add_into
from .spaces import SuperSpace
from .tensoralg import eta, project_tensor
from .tensors import (
    Tensor,
    VectorTensor,
    basis_vector,
    compose,
    full_supertrace,
    identity_tensor,
    permute_word,
    slot_embed,
)


# -- operator constructions -------------------------------------------------


def omega_iso(space: SuperSpace, k: int, fn) -> Tensor:
    """Turn an operator on V^(x k), given on basis words, into a Tensor.

    ``fn`` maps an index word to the VectorTensor image of that basis
    vector.  The resulting Tensor T satisfies apply(T, v) == fn-extended(v).
    """
    par = space._parity
    entries = {}
    for word in itertools.product(space.indices, repeat=k):
        image = fn(word)
        ipar = tuple(par[i] for i in word)
        for jword, coeff in image.terms.items():
            jpar = tuple(par[j] for j in jword)
            mixed = tuple((a + b) & 1 for a, b in zip(ipar, jpar))
            exp = p_exponent(mixed, ipar)
            add_into(entries, tuple(zip(jword, word)), coeff if not exp else -coeff)
    return Tensor(space, k, entries)


def perm_operator(space: SuperSpace, sigma: Permutation, k: int | None = None) -> Tensor:
    """The signed place-permutation operator for sigma on V^(x k)."""
    if k is None:
        k = sigma.size
    if sigma.size != k:
        raise ValueError("permutation size must equal the degree")
    return omega_iso(space, k, lambda word: permute_word(sigma, basis_vector(space, word)))


def pairing_vector(space: SuperSpace) -> VectorTensor:
    """The invariant vector in V x V for osp and p."""
    entries = {}
    if space.family == "osp":
        for i in space.indices:
            entries[(i, space.prime(i))] = Scalar(space.epsilon(space.prime(i)))
    elif space.family == "p":
        for i in space.indices:
            entries[(i, space.prime(i))] = sign_scalar(space.parity(i))
    else:
        raise ValueError("pairing vector exists for osp and p only")
    return VectorTensor(space, 2, entries)


def c_power(alg: Algebra, k: int) -> VectorTensor:
    """The k-th tensor power of the pairing vector, in V^(x 2k)."""
    space = alg.space
    pair = pairing_vector(space)
    entries = {(): ONE}
    for _ in range(k):
        entries = {
            key + pkey: c * pc
            for key, c in entries.items()
            for pkey, pc in pair.terms.items()
        }
    return VectorTensor(space, 2 * k, entries)


def contraction_operator(alg: Algebra, i: int, k: int) -> Tensor:
    """e_i = 1^(i-1) x c x 1^(k-i-1) for the osp/p contraction c."""
    space = alg.space
    if space.family not in ("osp", "p"):
        raise ValueError("contraction operator exists for osp and p only")
    if not 1 <= i <= k - 1:
        raise ValueError("position out of range")
    pair = pairing_vector(space)

    def fn(word):
        v1, v2 = word[i - 1], word[i]
        coeff = Scalar(space.form(v1, v2))
        out = {}
        if coeff:
            for (a, b), pc in pair.terms.items():
                out[word[: i - 1] + (a, b) + word[i + 1 :]] = coeff * pc
        return VectorTensor(space, k, out)

    return omega_iso(space, k, fn)


def clifford_operator(alg: Algebra, i: int, k: int) -> Tensor:
    """The i-th Clifford generator acting on V^(x k) for q(n)."""
    space = alg.space
    if space.family != "q":
        raise ValueError("Clifford operators exist for q only")
    if not 1 <= i <= k:
        raise ValueError("position out of range")
    from .scalars import I as IMAG

    def fn(word):
        prefix = sum(space.parity(word[t]) for t in range(i - 1)) & 1
        v = word[i - 1]
        # P e_v = -sqrt(-1) e_{-v} for v > 0, and +sqrt(-1) e_{-v} for v < 0
        coeff = -IMAG if v > 0 else IMAG
        if prefix:
            coeff = -coeff
        return VectorTensor(space, k, {word[: i - 1] + (-v,) + word[i:]: coeff})

    return omega_iso(space, k, fn)


# -- invariant tensors ------------------------------------------------------


def theta_glq(alg: Algebra, sigma: Permutation) -> Tensor:
    """The invariant of End(V)^(x k) attached to a permutation (gl, q)."""
    if alg.family not in ("gl", "q"):
        raise ValueError("permutation invariants exist for gl and q only")
    return perm_operator(alg.space, sigma)


def theta_brauer(alg: Algebra, sigma: Permutation) -> Tensor:
    """The invariant attached to sigma in S_2k for osp and p.

    Built by letting sigma act on the k-th power of the pairing vector and
    dualizing the even slots.  sigma is replaced by the canonical
    representative of sigma*H first.
    """
    if alg.family not in ("osp", "p"):
        raise ValueError("pairing invariants exist for osp and p only")
    if sigma.size % 2:
        raise ValueError("sigma must live in S_2k")
    k = sigma.size // 2
    sigma = coset_canonical(sigma)
    vec = permute_word(sigma, c_power(alg, k))
    return dualize_even_slots(alg, vec)


def dualize_even_slots(alg: Algebra, vec: VectorTensor) -> Tensor:
    """The fixed linear map V^(x 2k) -> End(V)^(x k) of the construction."""
    space = alg.space
    if vec.k % 2:
        raise ValueError("even total degree required")
    k = vec.k // 2
    par = space._parity
    entries = {}
    for word, coeff in vec.terms.items():
        key = tuple(
            (word[2 * s], space.prime(word[2 * s + 1])) for s in range(k)
        )
        if space.family == "osp":
            c = coeff
            for s in range(k):
                if space.epsilon(word[2 * s + 1]) < 0:
                    c = -c
        else:
            exp = sum(par[word[2 * s]] for s in range(k)) & 1
            pair_par = tuple(
                (par[word[2 * s]] + par[word[2 * s + 1]]) & 1 for s in range(k)
            )
            exp ^= p_exponent((1,) * k, pair_par)
            c = coeff if not exp else -coeff
        add_into(entries, key, c)
    return Tensor(space, k, entries)


def invariant_tensor(alg: Algebra, sigma: Permutation) -> Tensor:
    """Family dispatch: permutations for gl/q, pair permutations for osp/p."""
    if alg.family in ("gl", "q"):
        return theta_glq(alg, sigma)
    return theta_brauer(alg, sigma)


def tensor_is_invariant(alg: Algebra, t: Tensor) -> bool:
    """True iff t supercommutes with the action of every generator."""
    return not _noncommuting_generators(alg, t, _actions(alg, t.k))


def _actions(alg: Algebra, k: int) -> list:
    """phi_k of every generator, in generator order."""
    return [phi_k(alg, alg.unit(g), k) for g in range(alg.dim)]


def _noncommuting_generators(alg: Algebra, t: Tensor, actions) -> list:
    """The generators whose action does not supercommute with t.

    Each parity component of t is checked on its own, so t may be
    inhomogeneous.
    """
    parts = [(comp, p) for p, comp in enumerate(t.parity_components()) if comp]
    failures = []
    for g, action in enumerate(actions):
        for comp, p in parts:
            lhs = compose(action, comp)
            rhs = compose(comp, action)
            if (lhs + rhs if alg.parity[g] and p else lhs - rhs):
                failures.append(g)
                break
    return failures


# -- elements of U(g) --------------------------------------------------------


def z_sigma(alg: Algebra, sigma: Permutation) -> PBWElement:
    """eta' o pi of the invariant tensor of sigma; a central element."""
    return eta_prime(project_tensor(alg, invariant_tensor(alg, sigma)))


def psi_eta_pi(alg: Algebra, t: Tensor) -> PBWElement:
    """psi o eta o pi applied to an invariant tensor."""
    return psi_map(eta(project_tensor(alg, t)))


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


def identity_uvalued(alg: Algebra, k: int) -> UValuedTensor:
    return scalar_tensor(alg, identity_tensor(alg.space, k))


def super_transposition_tensor(space: SuperSpace) -> Tensor:
    """P = sum (-1)^{|j|} e_ij x e_ji, the flip of V x V in End(V)^(x 2)."""
    entries = {}
    par = space._parity
    for i in space.indices:
        for j in space.indices:
            entries[((i, j), (j, i))] = ONE if par[j] == 0 else Scalar(-1)
    return Tensor(space, 2, entries)


def form_flip_tensor(space: SuperSpace) -> Tensor:
    """Q = sum (-1)^{|i||j|+|i|+|j|} eps_i eps_j e_ij x e_i'j' (osp only)."""
    if space.family != "osp":
        raise ValueError("the form flip exists for osp only")
    entries = {}
    par = space._parity
    for i in space.indices:
        for j in space.indices:
            exp = (par[i] * par[j] + par[i] + par[j]) & 1
            c = Scalar(space.epsilon(i) * space.epsilon(j))
            if exp:
                c = -c
            entries[((i, j), (space.prime(i), space.prime(j)))] = c
    return Tensor(space, 2, entries)


def generator_matrix(alg: Algebra) -> UValuedTensor:
    """The U(g)-valued matrix with (i,j) entry the spanning element X_ij.

    Stored in supermatrix form: sum (-1)^{|i||j|+|i|+|j|} e_ij x X_ij with
    X = E, F, G, H according to the family.
    """
    space = alg.space
    par = space._parity
    factor = ONE if alg.family == "gl" else Scalar(2)
    entries = {}
    for i in space.indices:
        for j in space.indices:
            hit = alg.pi_table[(i, j)]
            if hit is None:
                continue
            idx, c = hit
            exp = (par[i] * par[j] + par[i] + par[j]) & 1
            coeff = c * factor
            if exp:
                coeff = -coeff
            entries[((i, j),)] = PBWElement(alg, {(idx,): coeff})
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
    acc = None
    for a in range(1, k + 1):
        term = slot_embed(x, a, k) + identity_uvalued(alg, k).scale(shifts[a - 1])
        acc = term if acc is None else acc * term
    prod = scalar_tensor(alg, s) if acc is None else acc * scalar_tensor(alg, s)
    return full_supertrace(prod)


# -- the q(n) trace family -----------------------------------------------------


def sergeev_elements(alg: Algebra, m: int):
    """The recursively defined U(q_n) matrices (e^(m), f^(m)) as dicts."""
    if alg.family != "q":
        raise ValueError("q(n) only")
    if m < 1:
        raise ValueError("m must be >= 1")
    n = alg.n
    e1 = {}
    f1 = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            e1[(i, j)] = PBWElement.generator(alg, "H[%d,%d]" % (i, j))
            f1[(i, j)] = PBWElement.generator(alg, "H[%d,%d]" % (i, -j))
    e, f = e1, f1
    for level in range(2, m + 1):
        sign = Scalar(1) if (level - 1) % 2 == 0 else Scalar(-1)
        enew, fnew = {}, {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                acc_e = PBWElement(alg)
                acc_f = PBWElement(alg)
                for k_ in range(1, n + 1):
                    acc_e = acc_e + u_multiply(e1[(i, k_)], e[(k_, j)]) + u_multiply(
                        f1[(i, k_)], f[(k_, j)]
                    ).scale(sign)
                    acc_f = acc_f + u_multiply(e1[(i, k_)], f[(k_, j)]) + u_multiply(
                        f1[(i, k_)], e[(k_, j)]
                    ).scale(sign)
                enew[(i, j)] = acc_e
                fnew[(i, j)] = acc_f
        e, f = enew, fnew
    return e, f


def sergeev_Z(alg: Algebra, k: int) -> PBWElement:
    """The trace of the k-th recursive matrix; central for odd k."""
    e, _ = sergeev_elements(alg, k)
    out = PBWElement(alg)
    for i in range(1, alg.n + 1):
        out = out + e[(i, i)]
    return out


# -- the duality relation report ------------------------------------------------


def _op_equal(a: Tensor, b: Tensor) -> bool:
    return (a - b).is_zero()


def check_duality_relations(alg: Algebra, k: int) -> dict:
    """Verify the defining relations of the centralizer algebra on V^(x k),
    and supercommutation of every generator operator with the action.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    space = alg.space
    fam = alg.family
    s = {
        i: perm_operator(space, Permutation.transposition(k, i, i + 1))
        for i in range(1, k)
    }
    ident = identity_tensor(space, k)
    results = []

    def rel(name, lhs, rhs):
        results.append({"name": name, "holds": _op_equal(lhs, rhs)})

    for i in range(1, k):
        rel("s%d^2 = 1" % i, compose(s[i], s[i]), ident)
    for i in range(1, k - 1):
        rel(
            "s%d s%d s%d = s%d s%d s%d" % (i, i + 1, i, i + 1, i, i + 1),
            compose(s[i], compose(s[i + 1], s[i])),
            compose(s[i + 1], compose(s[i], s[i + 1])),
        )
    for i in range(1, k):
        for j in range(i + 2, k):
            rel(
                "s%d s%d = s%d s%d" % (i, j, j, i),
                compose(s[i], s[j]),
                compose(s[j], s[i]),
            )

    ops = dict(("s%d" % i, s[i]) for i in s)
    delta = None

    if fam in ("osp", "p"):
        e = {i: contraction_operator(alg, i, k) for i in range(1, k)}
        for i, op in e.items():
            ops["e%d" % i] = op
        if fam == "osp":
            e1sq = compose(e[1], e[1])
            delta = _measure_multiple(e1sq, e[1])
            results.append(
                {"name": "e1^2 = delta e1", "holds": delta is not None}
            )
            for i in range(1, k):
                rel("e%d s%d = e%d" % (i, i, i), compose(e[i], s[i]), e[i])
                rel("s%d e%d = e%d" % (i, i, i), compose(s[i], e[i]), e[i])
            for i in range(1, k - 1):
                rel(
                    "e%d e%d e%d = e%d" % (i, i + 1, i, i),
                    compose(e[i], compose(e[i + 1], e[i])),
                    e[i],
                )
                rel(
                    "e%d e%d e%d = e%d" % (i + 1, i, i + 1, i + 1),
                    compose(e[i + 1], compose(e[i], e[i + 1])),
                    e[i + 1],
                )
                rel(
                    "s%d e%d e%d = s%d e%d" % (i, i + 1, i, i + 1, i),
                    compose(s[i], compose(e[i + 1], e[i])),
                    compose(s[i + 1], e[i]),
                )
                rel(
                    "s%d e%d e%d = s%d e%d" % (i + 1, i, i + 1, i, i + 1),
                    compose(s[i + 1], compose(e[i], e[i + 1])),
                    compose(s[i], e[i + 1]),
                )
        else:
            zero = Tensor(space, k, {})
            for i in range(1, k):
                rel("e%d^2 = 0" % i, compose(e[i], e[i]), zero)
                rel("e%d s%d = e%d" % (i, i, i), compose(e[i], s[i]), e[i])
                rel("s%d e%d = -e%d" % (i, i, i), compose(s[i], e[i]), -e[i])
            for i in range(1, k - 1):
                # slot bookkeeping forces the right-hand side back onto the
                # same contraction slot: e_i e_{i+1} e_i lands in e_i's image
                rel(
                    "e%d e%d e%d = -e%d" % (i, i + 1, i, i),
                    compose(e[i], compose(e[i + 1], e[i])),
                    -e[i],
                )
                rel(
                    "e%d e%d e%d = -e%d" % (i + 1, i, i + 1, i + 1),
                    compose(e[i + 1], compose(e[i], e[i + 1])),
                    -e[i + 1],
                )
                rel(
                    "e%d e%d s%d = -e%d s%d" % (i, i + 1, i, i, i + 1),
                    compose(e[i], compose(e[i + 1], s[i])),
                    -compose(e[i], s[i + 1]),
                )
                rel(
                    "s%d e%d e%d = -s%d e%d" % (i + 1, i, i + 1, i, i + 1),
                    compose(s[i + 1], compose(e[i], e[i + 1])),
                    -compose(s[i], e[i + 1]),
                )
        for i in range(1, k):
            for j in range(i + 2, k):
                rel(
                    "s%d e%d = e%d s%d" % (i, j, j, i),
                    compose(s[i], ops["e%d" % j]),
                    compose(ops["e%d" % j], s[i]),
                )
                rel(
                    "e%d e%d = e%d e%d" % (i, j, j, i),
                    compose(ops["e%d" % i], ops["e%d" % j]),
                    compose(ops["e%d" % j], ops["e%d" % i]),
                )

    if fam == "q":
        c = {i: clifford_operator(alg, i, k) for i in range(1, k + 1)}
        for i, op in c.items():
            ops["c%d" % i] = op
        for i in range(1, k + 1):
            rel("c%d^2 = 1" % i, compose(c[i], c[i]), ident)
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                rel(
                    "c%d c%d = -c%d c%d" % (i, j, j, i),
                    compose(c[i], c[j]),
                    -compose(c[j], c[i]),
                )
        for i in range(1, k):
            for j in range(1, k + 1):
                tr = Permutation.transposition(k, i, i + 1)
                rel(
                    "s%d c%d = c%d s%d" % (i, j, tr(j), i),
                    compose(s[i], c[j]),
                    compose(c[tr(j)], s[i]),
                )

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
        measured = None if delta is None else str(delta)
        report["delta_measured"] = measured
        report["delta_table_m_minus_2n"] = alg.m - 2 * alg.n
        report["delta_text_2m_plus_1_minus_2n"] = 2 * alg.m + 1 - 2 * alg.n
        report["delta_matches_m_minus_2n"] = (
            delta == Scalar(alg.m - 2 * alg.n) if delta is not None else False
        )
        report["parameter_discrepancy_note"] = (
            "the centralizer parameter measured from e1^2 equals m-2n in the "
            "realized size m; the literal expression 2m+1-2n only agrees "
            "after re-reading m as the rank (m-1)/2"
        )
    return report


def _measure_multiple(a: Tensor, b: Tensor):
    """The scalar c with a == c*b, or None."""
    if b.is_zero():
        return None
    key, coeff = next(iter(b.terms.items()))
    c = a.terms.get(key, Scalar(0)) / coeff
    return c if (a - b.scale(c)).is_zero() else None
