"""Test-only references that several test modules share.

None of these is on a path the CLI runs: each is an independent statement
of a convention or a count (the sign p(x, y), basis vectors, the module
action, the action of a PBW element on V^(x j) letter by letter and the
test that it commutes with an operator, the operator-to-tensor map on
basis words, the place permutation
of words by adjacent swaps and its operator, the supertranspose, the
partial supertrace, the flips of V x V, the split projection pi_tilde with
one Scalar product per slot, the Lie bracket, the rank of a dense matrix,
the group H, the Harish-Chandra predicates, the rho shift, the U(g)
product, the supercommutator, the full-basis centrality and invariance
checks, the S(g) monomial sorted by adjacent swaps, the quotient eta
word by word, the closure
circles by the alternating walk, the diagram count by closure type, the
dualization of theta's even slots, the
supercommutation test of an operator, Sergeev's recursion for the q(n)
trace family, the Harish-Chandra images of the gl(m|n) trace family
from a product formula, and the three trace families traced off their
full last product) that tests compare the package's own kernels
against.

The paper's T(g)^g and S(g)^g levels live here too, since no command
checks them: the symmetrizing section S(g) -> T(g) under its degree cap
``MAX_DEGREE``, the supersymmetrization psi: S(g) -> U(g) and psi eta pi,
the adjoint action of g on T(g) and S(g), and the invariance test that
reads h0 by weight and the rest of g from the set S.
"""

import itertools
import math
from fractions import Fraction

from superinv.algebras import phi_k
from superinv.brauer import (
    MAX_COUNT_K,
    closure_type,
    coset_reps,
    overline_embed,
)
from superinv.enveloping import (
    CartanPolynomial,
    PBWElement,
    eta_prime,
    pbw_normalize,
    u_multiply,
)
from superinv.scalars import ONE, Scalar, promote, sign_scalar
from superinv.signs import Permutation, _inversion_parity, gamma_exponent, symmetric_group
from superinv.sparse import add_into, add_terms
from superinv.tensoralg import SymElement, TensorAlgebraElement, eta, project_tensor
from superinv.schurweyl import (
    generator_matrix,
    scalar_tensor,
    sergeev_elements,
    tensor_is_invariant,
)
from superinv.tensors import Tensor, VectorTensor, compose, full_supertrace, slot_embed


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
    par = a.space.parity
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


def represent(u, j):
    """rho_j(u) on V^(x j) for a PBW element u: each basis word to the image
    of its basis vector.

    A word g1 ... gr acts as phi_j(g1) ... phi_j(gr), its letters applied
    right to left through ``apply``; no normal form or product in U(g) is
    taken.
    """
    alg = u.algebra
    space = alg.space
    actions = {}
    images = {}
    for word in itertools.product(space.indices, repeat=j):
        image = {}
        for letters, coeff in u.terms.items():
            v = basis_vector(space, word)
            for g in reversed(letters):
                if g not in actions:
                    actions[g] = phi_k(alg, g, j)
                v = apply(actions[g], v)
            add_terms(image, v.scale(coeff).terms)
        images[word] = VectorTensor(space, j, image)
    return images


def represented_commutes(rho, op):
    """True iff the operator rho, as ``represent`` gives it, commutes with the
    Tensor op on V^(x j): op rho and rho op agree on every basis word."""
    for word, image in rho.items():
        after = {}
        for w, c in apply(op, basis_vector(op.space, word)).terms.items():
            add_terms(after, rho[w].scale(c).terms)
        if apply(op, image).terms != after:
            return False
    return True


def omega_iso_reference(space, k, fn):
    """Turn an operator on V^(x k), given on basis words, into a Tensor.

    ``fn`` maps an index word to the VectorTensor image of that basis
    vector.  The resulting Tensor T acts on V^(x k), by ``apply``, as fn
    extended linearly.
    """
    par = space.parity
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


def permute_word_reference(sigma, w):
    """sigma . w by adjacent transpositions: letter s of each key moves to
    place sigma(s) by a bubble sort, and each swap of two odd letters
    negates the term."""
    par = w.space.parity
    out = {}
    for key, coeff in w.terms.items():
        letters = [(sigma(s), a) for s, a in enumerate(key, 1)]
        for end in range(len(letters) - 1, 0, -1):
            for i in range(end):
                (p, a), (q, b) = letters[i], letters[i + 1]
                if p > q:
                    letters[i], letters[i + 1] = letters[i + 1], letters[i]
                    if par[a] and par[b]:
                        coeff = -coeff
        add_into(out, tuple(a for _, a in letters), coeff)
    return w._like(out)


def perm_operator_reference(space, sigma):
    """The place-permutation operator for sigma, one basis word at a time."""
    return omega_iso_reference(
        space,
        sigma.size,
        lambda word: permute_word_reference(sigma, basis_vector(space, word)),
    )


def supertranspose(a):
    """Slotwise e_ij -> (-1)^{(|i|+|j|)|i|} e_ji; a super anti-automorphism."""
    par = a.space.parity
    out = {}
    for key, coeff in a.terms.items():
        exp = 0
        new_key = []
        for r, c in key:
            exp ^= ((par[r] + par[c]) & par[r]) & 1
            new_key.append((c, r))
        out[tuple(new_key)] = coeff if not exp else -coeff
    return Tensor(a.space, a.k, out)


def partial_supertrace(a: Tensor, pos: int) -> Tensor:
    """Supertrace on the pos-th factor (1-based), identity on the rest."""
    if not 1 <= pos <= a.k:
        raise ValueError("position out of range")
    par = a.space.parity
    out = {}
    for key, coeff in a.terms.items():
        r, c = key[pos - 1]
        if r == c:
            add_into(out, key[: pos - 1] + key[pos:], coeff if par[r] == 0 else -coeff)
    return a._of_degree(a.k - 1, out)


def super_transposition_tensor(space):
    """P = sum (-1)^{|j|} e_ij x e_ji, the flip of V x V in End(V)^(x 2)."""
    par = space.parity
    return Tensor(space, 2, {
        ((i, j), (j, i)): ONE if par[j] == 0 else Scalar(-1)
        for i in space.indices
        for j in space.indices
    })


def form_flip_tensor(space):
    """Q = sum (-1)^{|i||j|+|i|+|j|} eps_i eps_j e_ij x e_i'j' (osp only)."""
    if space.family != "osp":
        raise ValueError("the form flip exists for osp only")
    par = space.parity
    entries = {}
    for i in space.indices:
        for j in space.indices:
            c = Scalar(space.epsilon(i) * space.epsilon(j))
            if (par[i] * par[j] + par[i] + par[j]) & 1:
                c = -c
            entries[((i, j), (space.prime(i), space.prime(j)))] = c
    return Tensor(space, 2, entries)


def bracket(x, y):
    """The super-bracket of two elements of g, through the bracket table; an
    element of g is a degree-1 T(g) element, keyed by one-letter words."""
    x._check(y)
    alg = x.algebra
    out = {}
    for (i,), ci in x.terms.items():
        for (j,), cj in y.terms.items():
            for g, c in alg.bracket_table[i].get(j, ()):
                add_into(out, (g,), ci * cj * c)
    return TensorAlgebraElement(alg, out)


def row_reduce_rank(rows):
    """The rank of a dense matrix, by Gauss-Jordan elimination over its
    own entries (Fractions)."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


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


def closure_circles_reference(sigma):
    """The circles of sigma's closure, one dot per step: a matching edge and
    a fixed edge {2s-1, 2s} taken in turn, matching edge first from the
    least dot not yet on a circle."""
    img = sigma.images
    match = {}
    for s in range(0, len(img), 2):
        match[img[s]], match[img[s + 1]] = img[s + 1], img[s]
    red = lambda x: x + 1 if x % 2 else x - 1
    seen = set()
    circles = []
    for start in range(1, sigma.size + 1):
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
    return tuple(circles)


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
    """The monomial of S(g) on word: sorted, signed, zero on an odd square.

    A bubble sort by adjacent swaps, each swap of two odd letters flipping
    the sign: the supercommutation rule of S(g) applied one step at a time.
    """
    par = alg.parity
    w = list(word)
    coeff = promote(coeff)
    for end in range(len(w) - 1, 0, -1):
        for i in range(end):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                if par[w[i]] and par[w[i + 1]]:
                    coeff = -coeff
    if any(a == b and par[a] for a, b in zip(w, w[1:])):
        return SymElement(alg)
    return SymElement(alg, {tuple(w): coeff})


def eta_reference(t):
    """The quotient map T(g) -> S(g) word by word, with no table: each
    word's odd letters are checked for a repeat and their inversion parity
    is counted afresh."""
    par = t.algebra.parity
    out = {}
    for word, coeff in t.terms.items():
        odd = [g for g in word if par[g]]
        if len(set(odd)) < len(odd):
            continue
        add_into(out, tuple(sorted(word)), -coeff if _inversion_parity(odd) else coeff)
    return SymElement(t.algebra, out)


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


def gl_trace_images_closed_form(m, n, kmax):
    """HC(Str X^k) on gl(m|n) for k = 0..kmax, from the product formula

        1 - sum_{k>=0} HC(Str X^k) u^(-k-1)
            = prod_i (u - l_i - 1)/(u - l_i) * prod_j (u - l'_j + 1)/(u - l'_j)

    with l_i = h_i + c, l'_j = -h'_j + c + 1 and c = (m - n - 1)/2 (after
    Perelomov-Popov; Molev, Yangians and Classical Lie Algebras, ch. 7).
    A factor is 1 -+ 1/(u - l) = 1 -+ sum_r l^r u^(-r-1); the product is
    expanded as exact polynomial coefficients of u^-1, not at points.
    """
    names = ["h%d" % i for i in range(1, m + 1)] + ["h'%d" % j for j in range(1, n + 1)]
    zero = (0,) * (m + n)

    def affine(v, sign, const):
        unit = tuple(int(w == v) for w in range(m + n))
        return CartanPolynomial(names, {unit: Scalar(sign), zero: Scalar(const)})

    c = Fraction(m - n - 1, 2)
    roots = [(affine(i, 1, c), -1) for i in range(m)]
    roots += [(affine(m + j, -1, c + 1), 1) for j in range(n)]
    one = CartanPolynomial(names, {zero: ONE})
    series = [one] + [CartanPolynomial(names)] * (kmax + 1)  # coefficients of u^0..u^-(kmax+1)
    for root, sign in roots:
        factor = [one, one.scale(sign)]
        while len(factor) < kmax + 2:
            factor.append(factor[-1] * root)
        series = [
            sum((series[a] * factor[d - a] for a in range(d + 1)), CartanPolynomial(names))
            for d in range(kmax + 2)
        ]
    return [-series[k + 1] for k in range(kmax + 1)]


# -- the U(g) product and supercommutator, one rebuilt sum per term ---------


def u_multiply_reference(a, b):
    """ab, the normal form of every pair of words added by a rebinding +."""
    alg = a.algebra
    out = PBWElement(alg)
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            out = out + pbw_normalize(alg, [(wa + wb, ca * cb)])
    return out


def _parity_components(u):
    par, even, odd = u.algebra.parity, {}, {}
    for word, coeff in u.terms.items():
        (odd if sum(par[g] for g in word) & 1 else even)[word] = coeff
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
        supercommutator_reference(u, PBWElement(alg, {(g,): ONE})).is_zero()
        for g in range(alg.dim)
    )


def is_invariant_reference(t):
    """Every canonical generator acts on the T(g) or S(g) element t by zero."""
    alg = t.algebra
    return all(
        adjoint_act(TensorAlgebraElement(alg, {(g,): ONE}), t).is_zero()
        for g in range(alg.dim)
    )


# -- T(g)^g, S(g)^g and the supersymmetrization psi: S(g) -> U(g) ------------

# the degree past which symmetrize refuses to expand over S_k
MAX_DEGREE = 8


class DegreeCapExceeded(ValueError):
    pass


def symmetrize(s):
    """Each degree-d word w -> (1/d!) sum over S_d of gamma(w, sigma) sigma.w."""
    par = s.algebra.parity
    groups = {}  # degree -> all of S_k
    out = {}
    for word, coeff in s.terms.items():
        k = len(word)
        if k not in groups:
            if k > MAX_DEGREE:
                raise DegreeCapExceeded("degree %d exceeds the cap %d" % (k, MAX_DEGREE))
            groups[k] = list(symmetric_group(k))
        parities = tuple(par[g] for g in word)
        base = coeff * Scalar(Fraction(1, math.factorial(k)))
        for sigma in groups[k]:
            new_word = tuple(word[i - 1] for i in sigma.images)
            add_into(out, new_word, -base if gamma_exponent(parities, sigma) else base)
    return TensorAlgebraElement(s.algebra, out)


def omega_k(s, k):
    """The symmetrizing section S^k(g) -> g^(x k); eta o omega_k = id."""
    if any(len(w) != k for w in s.terms):
        raise ValueError("omega_k needs a homogeneous element of degree %d" % k)
    return symmetrize(s)


def psi_map(s):
    """Supersymmetrization S(g) -> U(g), eta' o symmetrize; a module isomorphism."""
    return eta_prime(symmetrize(s))


def psi_eta_pi(alg, t):
    """psi o eta o pi applied to an invariant tensor."""
    return psi_map(eta(project_tensor(alg, t)))


def adjoint_act(x, t):
    """The adjoint action of x in g, a degree-1 T(g) element, on a T(g) or
    S(g) element t.

    A super-derivation: each letter of a word is bracketed with a generator
    of x in turn, with the Koszul sign of moving that generator past the
    letters before it.
    """
    alg = t.algebra
    if x.algebra is not alg:
        raise ValueError("algebra mismatch")
    par = alg.parity
    terms = {}
    for (g,), cg in x.terms.items():
        for word, coeff in t.terms.items():
            c = coeff * cg
            for i, letter in enumerate(word):
                for h, ch in alg.bracket_table[g].get(letter, ()):
                    add_into(terms, word[:i] + (h,) + word[i + 1 :], c * ch)
                if par[g] and par[letter]:
                    c = -c
    out = TensorAlgebraElement(alg, terms)
    # on S(g) the derivation of T(g) passes to the quotient
    return eta(out) if isinstance(t, SymElement) else out


def is_invariant(t):
    """True iff g acts by zero; the generators that do span a Lie subalgebra, so
    h0 (by weight) and the set S of ``Algebra.generating_set`` stand in for g."""
    alg = t.algebra
    gens = alg.generating_set
    return all(map(gens.weight_zero, t.terms)) and all(
        adjoint_act(TensorAlgebraElement(alg, {(g,): ONE}), t).is_zero()
        for g in gens.probes
    )


# -- the split projection pi_tilde, one Scalar product per slot --------------


def pi_tilde_reference(alg, terms):
    """pi_tilde slot by slot as (generator word, coefficient) per key: e_ab is
    sent to g / (number of units of g * coefficient of e_ab), the coefficient
    multiplied in at every slot, and a key is dropped at its first slot
    outside iota(g)."""
    where = {}
    for g, mat in enumerate(alg.embed):
        for ((pair,), coeff) in mat.terms.items():
            where[pair] = (g, (Scalar(len(mat.terms)) * coeff).inv())
    for key, coeff in terms.items():
        word = []
        for pair in key:
            if pair not in where:
                break
            g, c = where[pair]
            word.append(g)
            coeff = coeff * c
        else:
            yield tuple(word), coeff


def project_tensor_reference(alg, tensor):
    """pi of an End(V)^(x k) tensor through ``pi_tilde_reference``, as a dict
    in first-appearance order."""
    out = {}
    for word, c in pi_tilde_reference(alg, tensor.terms):
        add_into(out, word, c)
    return out


# -- the Schur-Weyl signs, family test per word and one check per parity ---


def dualize_even_slots_reference(alg, vec):
    """V^(x 2k) -> End(V)^(x k), testing the family on every word; p(n)'s sign
    is sum |a_s| plus p((1,...,1), pair parities)."""
    space = alg.space
    if vec.k % 2:
        raise ValueError("even total degree required")
    k = vec.k // 2
    par = space.parity
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


# -- the q(n) trace family, by Sergeev's recursion ---------------------------


def sergeev_elements_reference(alg, m):
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
            e1[(i, j)] = PBWElement(alg, {(alg.gens.index("H[%d,%d]" % (i, j)),): ONE})
            f1[(i, j)] = PBWElement(alg, {(alg.gens.index("H[%d,%d]" % (i, -j)),): ONE})
    e, f = e1, f1
    for level in range(2, m + 1):
        sign = sign_scalar(level - 1)
        enew, fnew = {}, {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                acc_e = PBWElement(alg)
                acc_f = PBWElement(alg)
                for k_ in range(1, n + 1):
                    x, y = e1[(i, k_)], f1[(i, k_)]
                    # e' = e1 e + sign f1 f and f' = e1 f + sign f1 e, entry by entry
                    for acc, u, v in ((acc_e, e, f), (acc_f, f, e)):
                        add_terms(acc.terms, u_multiply(x, u[(k_, j)]).terms)
                        add_terms(acc.terms, u_multiply(y, v[(k_, j)]).scale(sign).terms)
                enew[(i, j)] = acc_e
                fnew[(i, j)] = acc_f
        e, f = enew, fnew
    return e, f


# -- the trace families, each traced off its full last product ---------------


def str_gelfand_reference(alg, k):
    """Str X^k, every power built in full by ``compose``."""
    x = generator_matrix(alg)
    acc = x
    for _ in range(k - 1):
        acc = compose(acc, x)
    return full_supertrace(acc)


def sergeev_Z_reference(alg, k):
    """The supertrace of the full matrix e^(k)."""
    return full_supertrace(sergeev_elements(alg, k))


def molev_element_reference(alg, s, shifts):
    """Str_{1..k} (u_1 + X_1)...(u_k + X_k) S, every factor multiplied in full."""
    if not tensor_is_invariant(alg, s):
        raise ValueError("input tensor is not invariant")
    x = generator_matrix(alg)
    prod = scalar_tensor(alg, s)
    for a in range(s.k, 0, -1):
        prod = compose(slot_embed(x, a, s.k), prod) + prod.scale(promote(shifts[a - 1]))
    return full_supertrace(prod)
