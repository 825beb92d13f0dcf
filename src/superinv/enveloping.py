"""U(g) in PBW normal form, plus the Harish-Chandra machinery.

A PBW monomial is a non-decreasing tuple of generator indices in the
global order LOWER < CARTAN < UPPER (so any monomial containing a
lowering generator starts with one, and any monomial containing a raising
generator ends with one; the Cartan projection below is therefore a plain
monomial filter).  Out-of-order adjacent pairs rewrite by

    x y -> (-1)^{|x||y|} y x + [x, y],

and an adjacent equal odd pair rewrites by x x -> (1/2)[x, x], uniformly,
whether or not the bracket vanishes.  Rewriting terminates by induction on
(degree, inversions) and the result is independent of the rewrite order;
the test suite checks leftmost-first against rightmost-first.
"""

from __future__ import annotations

import math

from .algebras import Algebra, LieElement
from .scalars import HALF, ONE, Scalar, promote
from .sparse import Sparse, add_into
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

    @classmethod
    def from_lie(cls, x: LieElement):
        return cls(x.algebra, {(g,): c for g, c in x.terms.items()})

    # defined here, not inherited, so that it stays an attribute of this class
    # that perfbench/tracer.py can wrap to count U(g) accumulation
    def __add__(self, other):
        return Sparse.__add__(self, other)

    def __mul__(self, other):
        return u_multiply(self, other)

    def degree(self):
        return max((len(w) for w in self.terms), default=0)

    def is_scalar(self):
        return all(not w for w in self.terms)

    def scalar_part(self) -> Scalar:
        return self.terms.get((), Scalar(0))

    def parity_components(self):
        even, odd = {}, {}
        for word, coeff in self.terms.items():
            (even if self.word_parity(word) == 0 else odd)[word] = coeff
        return PBWElement(self.algebra, even), PBWElement(self.algebra, odd)


def pbw_normalize(alg: Algebra, word, coeff=ONE, strategy="leftmost") -> PBWElement:
    """Rewrite an arbitrary generator word into PBW normal form."""
    coeff = promote(coeff)
    par = alg.parity
    table = alg.bracket_table
    out = {}
    stack = [(tuple(word), coeff)]
    positions_leftmost = strategy == "leftmost"
    while stack:
        w, c = stack.pop()
        idx_range = range(len(w) - 1)
        if not positions_leftmost:
            idx_range = reversed(idx_range)
        hit = -1
        for i in idx_range:
            a, b = w[i], w[i + 1]
            if a > b or (a == b and par[a]):
                hit = i
                break
        if hit < 0:
            add_into(out, w, c)
            continue
        i = hit
        a, b = w[i], w[i + 1]
        head, tail = w[:i], w[i + 2 :]
        if a == b:
            # odd square: x x -> (1/2)[x, x]
            for g, cv in table[(a, a)].items():
                stack.append((head + (g,) + tail, c * cv * HALF))
        else:
            sign = Scalar(-1) if (par[a] and par[b]) else ONE
            stack.append((head + (b, a) + tail, c * sign))
            for g, cv in table[(a, b)].items():
                stack.append((head + (g,) + tail, c * cv))
    return PBWElement(alg, out)


def u_multiply(a: PBWElement, b: PBWElement) -> PBWElement:
    a._check(b)
    alg = a.algebra
    out = PBWElement(alg)
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            out = out + pbw_normalize(alg, wa + wb, ca * cb)
    return out


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
    """[a, b] = ab - (-1)^{|a||b|} ba, per homogeneous component of both."""
    result = PBWElement(a.algebra)
    for pa, ca in enumerate(a.parity_components()):
        for pb, cb in enumerate(b.parity_components()):
            if ca.is_zero() or cb.is_zero():
                continue
            term = u_multiply(ca, cb)
            swap = u_multiply(cb, ca)
            if pa and pb:
                result = result + term + swap
            else:
                result = result + term - swap
    return result


def is_central(u: PBWElement) -> bool:
    """True iff u supercommutes with every canonical generator."""
    alg = u.algebra
    for g in range(alg.dim):
        x = PBWElement.generator(alg, g)
        if not supercommutator(u, x).is_zero():
            return False
    return True


# -- Cartan polynomials and the Harish-Chandra projection -------------------


class CartanPolynomial(Sparse):
    """Polynomial in the Cartan variables (h_1..h_m; h'_1..h'_n)."""

    __slots__ = ("names",)
    _context = ("names",)

    def __init__(self, names, terms=None):
        self.names = tuple(names)
        Sparse.__init__(self, terms)

    @property
    def nvars(self):
        return len(self.names)

    @classmethod
    def constant(cls, names, coeff):
        coeff = promote(coeff)
        zero = tuple(0 for _ in names)
        return cls(names, {zero: coeff} if coeff else {})

    @classmethod
    def variable(cls, names, v):
        exp = tuple(1 if i == v else 0 for i in range(len(names)))
        return cls(names, {exp: ONE})

    def __mul__(self, other):
        self._check(other)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                add_into(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
        return CartanPolynomial(self.names, out)

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def homogeneous_part(self, d):
        return CartanPolynomial(
            self.names, {e: c for e, c in self.terms.items() if sum(e) == d}
        )

    def top_degree_part(self):
        return self.homogeneous_part(self.degree())

    def swap_vars(self, i, j):
        out = {}
        for exp, coeff in self.terms.items():
            e = list(exp)
            e[i], e[j] = e[j], e[i]
            out[tuple(e)] = coeff
        return CartanPolynomial(self.names, out)

    def substitute_shift(self, v, shift) -> "CartanPolynomial":
        """Replace variable v by (variable v + shift)."""
        shift = promote(shift)
        if not shift:
            return self
        out = CartanPolynomial(self.names)
        for exp, coeff in self.terms.items():
            e = exp[v]
            base = list(exp)
            for t in range(e + 1):
                base[v] = t
                c = coeff * Scalar(math.comb(e, t)) * _power(shift, e - t)
                out = out + CartanPolynomial(self.names, {tuple(base): c})
        return out

    def collapse_pair(self, i, j, sign_j=1):
        """Set var i = t, var j = (sign_j)*t; group the rest by t-degree.

        Returns a dict (reduced exponent tuple, t degree) -> Scalar where
        the reduced tuple omits positions i and j.
        """
        out = {}
        for exp, coeff in self.terms.items():
            t_deg = exp[i] + exp[j]
            if sign_j < 0 and exp[j] % 2:
                coeff = -coeff
            reduced = tuple(e for pos, e in enumerate(exp) if pos not in (i, j))
            add_into(out, (reduced, t_deg), coeff)
        return out

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


def _power(s: Scalar, e: int) -> Scalar:
    out = ONE
    for _ in range(e):
        out = out * s
    return out


def zeta_project(u: PBWElement) -> CartanPolynomial:
    """Keep the pure-Cartan monomials; kills n- U(g) + U(g) n+."""
    alg = u.algebra
    if alg.family not in ("gl", "osp"):
        raise ValueError("Cartan projection is supported for gl and osp only")
    var_of = {g: v for v, g in enumerate(alg.cartan_vars)}
    names = alg.var_names
    out = CartanPolynomial(names)
    for word, coeff in u.terms.items():
        if any(alg.tri_class[g] != "C" for g in word):
            continue
        exp = [0] * len(names)
        for g in word:
            exp[var_of[g]] += 1
        out = out + CartanPolynomial(names, {tuple(exp): coeff})
    return out


def rho_shift(p: CartanPolynomial, alg: Algebra) -> CartanPolynomial:
    """Substitute h -> h - rho(h) in every Cartan variable."""
    if alg.family not in ("gl", "osp"):
        raise ValueError("rho shift is supported for gl and osp only")
    if p.names != alg.var_names:
        raise ValueError("variable mismatch")
    out = p
    for v, r in enumerate(alg.rho_coords):
        out = out.substitute_shift(v, Scalar(-r))
    return out


def harish_chandra_image(u: PBWElement) -> CartanPolynomial:
    return rho_shift(zeta_project(u), u.algebra)


def _symmetric_in_block(p: CartanPolynomial, start, size) -> bool:
    for i in range(start, start + size - 1):
        if p.swap_vars(i, i + 1) != p:
            return False
    return True


def is_supersymmetric(p: CartanPolynomial, m: int, n: int) -> bool:
    """Symmetric per block and stable under h_m = t, h'_n = -t.

    The cancellation substitution carries opposite signs on the two blocks;
    that is the convention under which the power sums
    sum h_i^r + (-1)^(r-1) sum h'_j^r pass for every r.
    """
    if m + n != p.nvars:
        raise ValueError("block sizes do not cover the variables")
    if not _symmetric_in_block(p, 0, m) or not _symmetric_in_block(p, m, n):
        return False
    if m == 0 or n == 0:
        return True
    grouped = p.collapse_pair(m - 1, m + n - 1, sign_j=-1)
    return all(t == 0 for (_, t), c in grouped.items() if c)


def is_J_poly(p: CartanPolynomial, m: int, n: int) -> bool:
    """Even in every variable, and supersymmetric in the squared variables.

    In the squared variables x = h^2, y = h'^2 the cancellation
    substitution is the unsigned x_m = y_n = t: both signs of the h-level
    substitution square to the same value.  Under this test the images of
    the even-degree traces (top degree 2 sum h^2k - 2 sum h'^2k) pass.
    """
    for exp in p.terms:
        if any(e % 2 for e in exp):
            return False
    halved = CartanPolynomial(
        p.names, {tuple(e // 2 for e in exp): c for exp, c in p.terms.items()}
    )
    if not _symmetric_in_block(halved, 0, m) or not _symmetric_in_block(halved, m, n):
        return False
    if m == 0 or n == 0:
        return True
    grouped = halved.collapse_pair(m - 1, m + n - 1, sign_j=1)
    return all(t == 0 for (_, t), c in grouped.items() if c)


def is_Q_poly(p: CartanPolynomial, n: int) -> bool:
    """Symmetric, and stable under x_i = -x_j = t for one (hence any) pair."""
    if n != p.nvars:
        raise ValueError("variable count mismatch")
    if not _symmetric_in_block(p, 0, n):
        return False
    if n < 2:
        return True
    grouped = p.collapse_pair(n - 2, n - 1, sign_j=-1)
    return all(t == 0 for (_, t), c in grouped.items() if c)
