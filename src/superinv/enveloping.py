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

from .algebras import Algebra, _ad_word
from .scalars import HALF, ONE, Scalar, promote
from .sparse import Sparse, add_into
from .tensoralg import TensorAlgebraElement, _WordMap


class PBWElement(_WordMap):
    """Element of U(g) as a sparse map from normal monomials to Scalars."""

    __slots__ = ()

    # defined here, not inherited, so that it stays an attribute of this class
    # that perfbench/tracer.py can wrap to count U(g) accumulation
    def __add__(self, other):
        return Sparse.__add__(self, other)

    def __mul__(self, other):
        return u_multiply(self, other)

    def is_scalar(self):
        return all(not w for w in self.terms)


def pbw_normalize(alg: Algebra, terms) -> PBWElement:
    """The normal form of the sum of a list (or dict view) of (word, coefficient)
    pairs: one stack rewrites them in their order into one element, each word
    leftmost pair first, and drops a zero coefficient."""
    par = alg.parity
    table = alg.bracket_table
    out = PBWElement(alg)
    stack = [(tuple(w), p) for w, c in reversed(terms) if (p := promote(c))]
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
            for g, cv in table[a].get(a, ()):
                stack.append((head + (g,) + tail, c * cv * HALF))
        else:
            stack.append((head + (b, a) + tail, -c if (par[a] and par[b]) else c))
            for g, cv in table[a].get(b, ()):
                stack.append((head + (g,) + tail, c * cv))
    return out


def u_multiply(a: PBWElement, b: PBWElement) -> PBWElement:
    """ab: every pair of words, concatenated, goes to one pbw_normalize call."""
    a._check(b)
    right = b.terms.items()
    pairs = [(wa + wb, ca * cb) for wa, ca in a.terms.items() for wb, cb in right]
    return pbw_normalize(a.algebra, pairs)


def eta_prime(t: TensorAlgebraElement) -> PBWElement:
    """The canonical algebra map T(g) -> U(g).

    A word's coefficient-one normal form is kept in ``Algebra.normal_forms``
    from the word's second use on, then read and scaled; only this function
    fills or reads that table.  pn-trivial at p(2), k = 4 passes 6,048
    words, 234 of them distinct; sergeev's one large element repeats none,
    so a first use records only the word (storing its forms took sergeev
    --n 3 --k 7 from 256 to 852 MB).  ``pbw_normalize`` keeps no memo: the
    words of products and supercommutators rarely repeat, and a memo there
    made str_gelfand slower.
    """
    alg = t.algebra
    forms = alg.normal_forms
    out = PBWElement(alg)
    for word, coeff in t.terms.items():
        form = forms.get(word, False)
        if form is False:
            forms[word] = None
            out = out + pbw_normalize(alg, [(word, coeff)])
            continue
        if form is None:
            form = forms[word] = pbw_normalize(alg, [(word, ONE)])
        out = out + form.scale(coeff)
    return out


def supercommutator(u: PBWElement, y: int) -> PBWElement:
    """[u, y] = uy - (-1)^{|u||y|} yu for u in U(g) and y a generator index.

    Per word w of u, [w, y] = -(-1)^{|w||y|} ad_y(w), and ad_y brackets one
    letter of w at a time (``algebras._ad_word``).  The words wy and yw,
    whose leading terms cancel, are never normalized: each word is as long
    as w, and equal words are summed before one ``pbw_normalize`` call.
    """
    alg = u.algebra
    par = alg.parity
    odd_y = par[y]
    words = {}
    for w, c in u.terms.items():
        c = c if odd_y and sum(par[g] for g in w) & 1 else -c
        for v, cv in _ad_word(alg, y, w):
            add_into(words, v, c * cv)
    return pbw_normalize(alg, words.items())


def is_central(u: PBWElement) -> bool:
    """True iff u supercommutes with all of g.

    Two checks, against ``Algebra.generating_set``.  u commutes with the
    even Cartan h0 iff each of its PBW monomials has h0-weight zero, which
    is read off the words with no product.  The generators u supercommutes
    with span a Lie subalgebra (super-Jacobi), so the rest of g needs only
    the supercommutators with the set S that, with h0, Lie-generates g.
    """
    gens = u.algebra.generating_set
    return all(map(gens.weight_zero, u.terms)) and all(
        supercommutator(u, y).is_zero() for y in gens.probes
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
    if m + n != len(p.names):
        raise ValueError("block sizes do not cover the variables")
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
