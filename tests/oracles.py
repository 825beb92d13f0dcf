"""Test-only references that several test modules share.

None of these is on a path the CLI runs: each is an independent statement
of a convention or a count (the sign p(x, y), basis vectors, the module
action, the operator-to-tensor map on basis words, the place-permutation
operator, the supertranspose, the flips of V x V, the Lie bracket, the
group H, the Harish-Chandra predicates, the rho shift, the U(g) product,
the supercommutator, the full-basis centrality check, the diagram count
by closure type, the dualization of theta's even slots and the
supercommutation test of an operator) that tests compare the package's
own kernels against.
"""

import itertools
import math

from superinv.algebras import LieElement
from superinv.brauer import (
    MAX_COUNT_K,
    closure_type,
    coset_reps,
    overline_embed,
)
from superinv.enveloping import CartanPolynomial, PBWElement, pbw_normalize
from superinv.scalars import ONE, Scalar, promote
from superinv.signs import Permutation, symmetric_group
from superinv.sparse import add_into
from superinv.tensoralg import SymElement, _sym_sort
from superinv.tensors import Tensor, VectorTensor, compose, permute_word


def p_exponent(x, y):
    """Exponent (mod 2) of p(x, y) = prod_{i>j} (-1)^{x_i y_j}, the sign picked
    up when a word of parities x is moved across a word of parities y."""
    if len(x) != len(y):
        raise ValueError("parity words must have equal length")
    total = 0
    run = 0
    # sum_{i>j} x_i*y_j: accumulate prefix sums of y.
    for i in range(len(x)):
        if i > 0:
            run += y[i - 1]
        if x[i]:
            total += run
    return total & 1


def basis_vector(space, word):
    word = tuple(word)
    return VectorTensor(space, len(word), {word: ONE})


def apply(a, v):
    """Act with the Tensor a on the VectorTensor v, with the Koszul signs of
    the module structure:

        (a1 x...x ak)(v1 x...x vk)
            = (-1)^{sum_s |a_s| (|v1|+...+|v_{s-1}|)} (a1 v1 x...x ak vk).
    """
    if a.space != v.space or a.k != v.k:
        raise ValueError("degree/space mismatch")
    par = a.space._parity
    out = {}
    for ka, va in a.terms.items():
        apar = tuple((par[r] + par[c]) & 1 for r, c in ka)
        for kv, vv in v.terms.items():
            if any(c != i for (_, c), i in zip(ka, kv)):
                continue
            exp = run = 0
            for s in range(a.k):
                if s > 0:
                    run ^= par[kv[s - 1]]
                if apar[s] and run:
                    exp ^= 1
            add_into(out, tuple(r for r, _ in ka), va * vv if not exp else -(va * vv))
    return v._like(out)


def omega_iso_reference(space, k, fn):
    """Turn an operator on V^(x k), given on basis words, into a Tensor.

    ``fn`` maps an index word to the VectorTensor image of that basis
    vector.  The resulting Tensor T acts on V^(x k), by ``apply``, as fn
    extended linearly.
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


def perm_operator_reference(space, sigma):
    """The place-permutation operator for sigma, one basis word at a time."""
    return omega_iso_reference(
        space, sigma.size, lambda word: permute_word(sigma, basis_vector(space, word))
    )


def supertranspose(a):
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


def super_transposition_tensor(space):
    """P = sum (-1)^{|j|} e_ij x e_ji, the flip of V x V in End(V)^(x 2)."""
    par = space._parity
    return Tensor(space, 2, {
        ((i, j), (j, i)): ONE if par[j] == 0 else Scalar(-1)
        for i in space.indices
        for j in space.indices
    })


def form_flip_tensor(space):
    """Q = sum (-1)^{|i||j|+|i|+|j|} eps_i eps_j e_ij x e_i'j' (osp only)."""
    if space.family != "osp":
        raise ValueError("the form flip exists for osp only")
    par = space._parity
    entries = {}
    for i in space.indices:
        for j in space.indices:
            c = Scalar(space.epsilon(i) * space.epsilon(j))
            if (par[i] * par[j] + par[i] + par[j]) & 1:
                c = -c
            entries[((i, j), (space.prime(i), space.prime(j)))] = c
    return Tensor(space, 2, entries)


def bracket(x, y):
    """The super-bracket of two Lie elements, through the bracket table."""
    if x.algebra is not y.algebra:
        raise ValueError("algebra mismatch")
    alg = x.algebra
    out = {}
    for i, ci in x.terms.items():
        for j, cj in y.terms.items():
            for g, c in alg.bracket_table[(i, j)].items():
                add_into(out, g, ci * cj * c)
    return LieElement(alg, out)


def pair_swaps(mask, k):
    """The element of K flipping the pairs {2s-1, 2s} selected by the bit mask."""
    img = list(range(1, 2 * k + 1))
    for s in range(k):
        if mask >> s & 1:
            img[2 * s], img[2 * s + 1] = img[2 * s + 1], img[2 * s]
    return Permutation(img)


def h_elements(k):
    """All of H = K semidirect S_k-bar, |H| = 2^k k!."""
    for g in symmetric_group(k):
        gbar = overline_embed(g)
        for mask in range(1 << k):
            yield pair_swaps(mask, k) * gbar


def all_types(k):
    """All partitions of k as sorted type vectors, sorted."""
    out = []

    def rec(remaining, mx, acc):
        if remaining == 0:
            out.append(tuple(sorted(acc)))
            return
        for part in range(1, min(remaining, mx) + 1):
            rec(remaining - part, part, acc + [part])

    rec(k, k, [])
    return sorted(out)


def count_by_type_reference(k: int) -> dict:
    """Walk all (k,k)-diagrams, one coset representative each, by closure type."""
    if k > MAX_COUNT_K:
        raise ValueError("k exceeds the bound %d" % MAX_COUNT_K)
    counts = {}
    total = 0
    for sigma in coset_reps(k):
        t = closure_type(sigma).type_vector
        counts[t] = counts.get(t, 0) + 1
        total += 1
    return {"counts": counts, "total": total}


def sym_monomial(alg, word, coeff=ONE):
    """The monomial of S(g) on word: sorted, signed, zero on an odd square."""
    res = _sym_sort(tuple(word), alg.parity)
    if res is None:
        return SymElement(alg)
    w, exp = res
    coeff = promote(coeff)
    return SymElement(alg, {w: coeff if not exp else -coeff})


# -- the Harish-Chandra predicates and the rho shift, one step at a time ----


def _swap_vars(p, i, j):
    out = {}
    for exp, coeff in p.terms.items():
        e = list(exp)
        e[i], e[j] = e[j], e[i]
        out[tuple(e)] = coeff
    return CartanPolynomial(p.names, out)


def _symmetric_in_block(p, start, size):
    return all(_swap_vars(p, i, i + 1) == p for i in range(start, start + size - 1))


def _pair_cancels(p, i, j, sign_j):
    """Setting var i = t, var j = sign_j*t leaves no power of t."""
    out = {}
    for exp, coeff in p.terms.items():
        if sign_j < 0 and exp[j] % 2:
            coeff = -coeff
        reduced = tuple(e for pos, e in enumerate(exp) if pos not in (i, j))
        add_into(out, (reduced, exp[i] + exp[j]), coeff)
    return all(t == 0 for (_, t), c in out.items() if c)


def is_supersymmetric_reference(p, m, n):
    if m + n != len(p.names):
        raise ValueError("block sizes do not cover the variables")
    if not _symmetric_in_block(p, 0, m) or not _symmetric_in_block(p, m, n):
        return False
    return m == 0 or n == 0 or _pair_cancels(p, m - 1, m + n - 1, -1)


def is_J_poly_reference(p, m, n):
    if any(e % 2 for exp in p.terms for e in exp):
        return False
    halved = CartanPolynomial(
        p.names, {tuple(e // 2 for e in exp): c for exp, c in p.terms.items()}
    )
    if not _symmetric_in_block(halved, 0, m) or not _symmetric_in_block(halved, m, n):
        return False
    return m == 0 or n == 0 or _pair_cancels(halved, m - 1, m + n - 1, 1)


def is_Q_poly_reference(p, n):
    if n != len(p.names):
        raise ValueError("variable count mismatch")
    if not _symmetric_in_block(p, 0, n):
        return False
    return n < 2 or _pair_cancels(p, n - 2, n - 1, -1)


def rho_shift_reference(p, alg):
    """h -> h - rho(h), one variable at a time, one term at a time."""
    if p.names != alg.var_names:
        raise ValueError("variable mismatch")
    for v, r in enumerate(alg.rho_coords):
        shifted = CartanPolynomial(p.names)
        for exp, coeff in p.terms.items():
            base = list(exp)
            for t in range(exp[v] + 1):
                base[v] = t
                c = coeff * Scalar(math.comb(exp[v], t) * (-r) ** (exp[v] - t))
                shifted = shifted + CartanPolynomial(p.names, {tuple(base): c})
        p = shifted
    return p


# -- the U(g) product and supercommutator, one rebuilt sum per term ---------


def u_multiply_reference(a, b):
    """ab, the normal form of every pair of words added by a rebinding +."""
    alg = a.algebra
    out = PBWElement(alg)
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            out = out + pbw_normalize(alg, wa + wb, ca * cb)
    return out


def _parity_components(u):
    even, odd = {}, {}
    for word, coeff in u.terms.items():
        (odd if u.word_parity(word) else even)[word] = coeff
    return PBWElement(u.algebra, even), PBWElement(u.algebra, odd)


def supercommutator_reference(a, b):
    """[a, b] = ab - (-1)^{|a||b|} ba on each pair of homogeneous components."""
    result = PBWElement(a.algebra)
    for pa, ca in enumerate(_parity_components(a)):
        for pb, cb in enumerate(_parity_components(b)):
            if ca.is_zero() or cb.is_zero():
                continue
            term = u_multiply_reference(ca, cb)
            swap = u_multiply_reference(cb, ca)
            if pa and pb:
                result = result + term + swap
            else:
                result = result + term - swap
    return result


def is_central_reference(u):
    """u supercommutes with every canonical generator, each supercommutator
    from its two products."""
    alg = u.algebra
    return all(
        supercommutator_reference(u, PBWElement.generator(alg, g)).is_zero()
        for g in range(alg.dim)
    )


# -- the Schur-Weyl signs, family test per word and one check per parity ---


def dualize_even_slots_reference(alg, vec):
    """V^(x 2k) -> End(V)^(x k), testing the family on every word; p(n)'s sign
    is sum |a_s| plus p((1,...,1), pair parities)."""
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


def noncommuting_generators_reference(alg, t, actions):
    """The generators g of the (g, action) pairs whose action does not
    supercommute with t, checked on each parity component of t on its own."""
    even, odd = {}, {}
    for key, coeff in t.terms.items():
        (odd if t.key_parity(key) else even)[key] = coeff
    parts = [(Tensor(t.space, t.k, comp), p) for p, comp in enumerate((even, odd)) if comp]
    failures = []
    for g, action in actions:
        for comp, p in parts:
            lhs = compose(action, comp)
            rhs = compose(comp, action)
            if (lhs + rhs if alg.parity[g] and p else lhs - rhs):
                failures.append(g)
                break
    return failures
