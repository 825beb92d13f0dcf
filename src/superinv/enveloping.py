"""U(g) in PBW normal form, plus the Harish-Chandra machinery.

A PBW monomial is a non-decreasing tuple of generator indices in the
global order LOWER < CARTAN < UPPER (so any monomial containing a
lowering generator starts with one, and any monomial containing a raising
generator ends with one; the Cartan projection below is therefore a plain
monomial filter).  Out-of-order adjacent pairs rewrite by

    x y -> (-1)^{|x||y|} y x + [x, y],

and an adjacent equal odd pair rewrites by x x -> (1/2)[x, x], uniformly,
whether or not the bracket vanishes.  Rewriting terminates by induction on
(degree, inversions), and ``pbw_normalize`` always rewrites the leftmost
pair.  The result is independent of the rewrite order: the test suite
checks, at every position where a rewrite applies, that the normal form of
a word equals the sum of the normal forms of that one step's results.
"""

from __future__ import annotations

import math

from .algebras import Algebra
from .scalars import HALF, ONE, Scalar, promote
from .sparse import Sparse, add_into, add_terms
from .tensoralg import SymElement, TensorAlgebraElement, _WordMap, symmetrize


class PBWElement(_WordMap):
    """Element of U(g) as a sparse map from normal monomials to Scalars."""

    __slots__ = ()

    @classmethod
    def unit(cls, algebra, coeff=ONE):
        coeff = promote(coeff)
        return cls(algebra, {(): coeff} if coeff else {})

    @classmethod
    def generator(cls, algebra, name_or_idx):
        idx = (
            name_or_idx
            if isinstance(name_or_idx, int)
            else algebra.gen_index[name_or_idx]
        )
        return cls(algebra, {(idx,): ONE})

    # defined here, not inherited, so that it stays an attribute of this class
    # that perfbench/tracer.py can wrap to count U(g) accumulation
    def __add__(self, other):
        return Sparse.__add__(self, other)

    def __mul__(self, other):
        return u_multiply(self, other)

    def is_scalar(self):
        return all(not w for w in self.terms)


def pbw_normalize(alg: Algebra, word, coeff=ONE) -> PBWElement:
    """Rewrite an arbitrary generator word into PBW normal form, leftmost pair first."""
    coeff = promote(coeff)
    par = alg.parity
    table = alg.bracket_table
    out = PBWElement(alg)
    stack = [(tuple(word), coeff)] if coeff else []
    while stack:
        w, c = stack.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a > b or (a == b and par[a]):
                break
        else:
            add_into(out.terms, w, c)
            continue
        head, tail = w[:i], w[i + 2 :]
        if a == b:
            # odd square: x x -> (1/2)[x, x]
            for g, cv in table[(a, a)].items():
                stack.append((head + (g,) + tail, c * cv * HALF))
        else:
            stack.append((head + (b, a) + tail, -c if (par[a] and par[b]) else c))
            for g, cv in table[(a, b)].items():
                stack.append((head + (g,) + tail, c * cv))
    return out


def u_multiply(a: PBWElement, b: PBWElement) -> PBWElement:
    a._check(b)
    alg = a.algebra
    out = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            add_terms(out, pbw_normalize(alg, wa + wb, ca * cb).terms)
    return a._like(out)


def eta_prime(t: TensorAlgebraElement) -> PBWElement:
    """The canonical algebra map T(g) -> U(g)."""
    alg = t.algebra
    out = PBWElement(alg)
    for word, coeff in t.terms.items():
        out = out + pbw_normalize(alg, word, coeff)
    return out


def psi_map(s: SymElement) -> PBWElement:
    """Supersymmetrization S(g) -> U(g), eta' o symmetrize; a module isomorphism."""
    return eta_prime(symmetrize(s))


def supercommutator(a: PBWElement, b: PBWElement) -> PBWElement:
    """[a, b] = ab - (-1)^{|a||b|} ba, extended bilinearly over the terms of a and b.

    Bracketing is a superderivation in each argument, so for words
    wa = x_1..x_p and wb = y_1..y_q

        [wa, wb] = sum_j (-1)^{|wa||y_1..y_{j-1}|} y_1..y_{j-1} [wa, y_j] y_{j+1}..y_q,
        [wa, y]  = sum_i (-1)^{|y||x_{i+1}..x_p|} x_1..x_{i-1} [x_i, y] x_{i+1}..x_p,

    with [x_i, y] read from the bracket table.  The words wa wb and wb wa,
    whose leading terms cancel, are never normalized: each word above is
    one letter shorter, and equal words are summed before their one
    normal form.
    """
    a._check(b)
    alg = a.algebra
    par, table = alg.parity, alg.bracket_table
    words = {}
    for wa, ca in a.terms.items():
        odd_a = a.word_parity(wa)
        for wb, cb in b.terms.items():
            c = ca * cb
            for j, y in enumerate(wb):
                head, tail = wb[:j], wb[j + 1 :]
                after = 0
                for i in range(len(wa) - 1, -1, -1):
                    x = wa[i]
                    ci = -c if par[y] and after else c
                    for g, cv in table[(x, y)].items():
                        add_into(words, head + wa[:i] + (g,) + wa[i + 1 :] + tail, ci * cv)
                    after ^= par[x]
                if odd_a and par[y]:
                    c = -c
    out = {}
    for w, c in words.items():
        add_terms(out, pbw_normalize(alg, w, c).terms)
    return a._like(out)


def is_central(u: PBWElement) -> bool:
    """True iff u supercommutes with all of g.

    Two checks, against ``Algebra.generating_set``.  u commutes with the
    even Cartan h0 iff each of its PBW monomials has h0-weight zero, which
    is read off the words with no product.  The generators u supercommutes
    with span a Lie subalgebra (super-Jacobi), so the rest of g needs only
    the supercommutators with the set S that, with h0, Lie-generates g.
    """
    alg = u.algebra
    gens = alg.generating_set
    for word in u.terms:
        # the monomial's h0-weight, one coordinate at a time
        if any(map(sum, zip(*(gens.weights[g] for g in word)))):
            return False
    return all(
        supercommutator(u, PBWElement.generator(alg, x)).is_zero() for x in gens.probes
    )


# -- Cartan polynomials and the Harish-Chandra projection -------------------


class CartanPolynomial(Sparse):
    """Polynomial in the Cartan variables (h_1..h_m; h'_1..h'_n)."""

    __slots__ = ("names",)
    _context = ("names",)

    def __init__(self, names, terms=None):
        self.names = tuple(names)
        Sparse.__init__(self, terms)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                add_into(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
        return CartanPolynomial(self.names, out)

    def __repr__(self):
        return self.render()

    def render(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            factors = []
            for name, e in zip(self.names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            mono = "*".join(factors) if factors else "1"
            coeff = self.terms[exp]
            bits.append("%s*%s" % (coeff, mono) if factors else str(coeff))
        return " + ".join(bits)

    def to_json(self):
        out = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e)):
            out.append({"exp": list(exp), "coeff": self.terms[exp].to_json()})
        return {"vars": list(self.names), "terms": out}


def zeta_project(u: PBWElement) -> CartanPolynomial:
    """Keep the pure-Cartan monomials; kills n- U(g) + U(g) n+."""
    alg = u.algebra
    if alg.family not in ("gl", "osp"):
        raise ValueError("Cartan projection is supported for gl and osp only")
    var_of = {g: v for v, g in enumerate(alg.cartan_vars)}
    names = alg.var_names
    out = {}
    for word, coeff in u.terms.items():
        if any(alg.tri_class[g] != "C" for g in word):
            continue
        exp = [0] * len(names)
        for g in word:
            exp[var_of[g]] += 1
        add_into(out, tuple(exp), coeff)
    return CartanPolynomial(names, out)


def rho_shift(p: CartanPolynomial, alg: Algebra) -> CartanPolynomial:
    """Substitute h -> h - rho(h) in every Cartan variable."""
    if alg.family not in ("gl", "osp"):
        raise ValueError("rho shift is supported for gl and osp only")
    if p.names != alg.var_names:
        raise ValueError("variable mismatch")
    terms = p.terms
    for v, r in enumerate(alg.rho_coords):
        if not r:
            continue
        shift = Scalar(-r)
        out = {}
        for exp, coeff in terms.items():
            # (h + shift)^e = sum_t C(e, t) shift^(e - t) h^t, from t = e down
            e, power = exp[v], coeff
            for t in range(e, -1, -1):
                add_into(out, exp[:v] + (t,) + exp[v + 1 :], power * Scalar(math.comb(e, t)))
                power = power * shift
        terms = out
    return CartanPolynomial(p.names, terms)


def harish_chandra_image(u: PBWElement) -> CartanPolynomial:
    return rho_shift(zeta_project(u), u.algebra)


def _stable_polynomial(terms, blocks, pair, sign) -> bool:
    """The membership test shared by the Harish-Chandra predicates.

    True iff the polynomial (exponent tuple -> coefficient) is symmetric in
    the variables of each (start, size) block and, for the pair (i, j) with
    i < j (None: no pair), substituting x_i = t, x_j = sign*t leaves no t.
    """
    for start, size in blocks:
        for v in range(start, start + size - 1):
            for exp, coeff in terms.items():
                if terms.get(exp[:v] + (exp[v + 1], exp[v]) + exp[v + 2 :]) != coeff:
                    return False
    if pair is None:
        return True
    i, j = pair
    grouped = {}
    for exp, coeff in terms.items():
        rest = exp[:i] + exp[i + 1 : j] + exp[j + 1 :]
        add_into(grouped, (rest, exp[i] + exp[j]), -coeff if sign < 0 and exp[j] % 2 else coeff)
    return all(t == 0 for _, t in grouped)


def is_supersymmetric(p: CartanPolynomial, m: int, n: int) -> bool:
    """Symmetric per block and stable under h_m = t, h'_n = -t.

    The cancellation substitution carries opposite signs on the two blocks;
    that is the convention under which the power sums
    sum h_i^r + (-1)^(r-1) sum h'_j^r pass for every r.
    """
    if m + n != len(p.names):
        raise ValueError("block sizes do not cover the variables")
    pair = (m - 1, m + n - 1) if m and n else None
    return _stable_polynomial(p.terms, ((0, m), (m, n)), pair, -1)


def is_J_poly(p: CartanPolynomial, m: int, n: int) -> bool:
    """Even in every variable, and supersymmetric in the squared variables.

    In the squared variables x = h^2, y = h'^2 the cancellation
    substitution is the unsigned x_m = y_n = t: both signs of the h-level
    substitution square to the same value.  Under this test the images of
    the even-degree traces (top degree 2 sum h^2k - 2 sum h'^2k) pass.
    """
    if any(e % 2 for exp in p.terms for e in exp):
        return False
    halved = {tuple(e // 2 for e in exp): c for exp, c in p.terms.items()}
    pair = (m - 1, m + n - 1) if m and n else None
    return _stable_polynomial(halved, ((0, m), (m, n)), pair, 1)


def is_Q_poly(p: CartanPolynomial, n: int) -> bool:
    """Symmetric, and stable under x_i = -x_j = t for one (hence any) pair."""
    if n != len(p.names):
        raise ValueError("variable count mismatch")
    return _stable_polynomial(p.terms, ((0, n),), (n - 2, n - 1) if n >= 2 else None, -1)
