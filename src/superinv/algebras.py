"""Matrix realizations of the four classical families.

Each algebra is realized inside End(V) for its natural module V, with a
canonical independent generating set:

* gl(m|n): all matrix units E[i,j].
* osp(m|2n): F[i,j] = e_ij - (-1)^{|j|(|i|+|j|)} eps_i eps_j e_{j'i'},
  kept for (i,j) lexicographically minimal in {(i,j), (j',i')} and nonzero.
* p(n): G[i,j] = e_ij - (-1)^{|j|(|i|+|j|)} e_{j'i'}, same canonical choice.
* q(n): H[i,j] = e_ij + e_{-i,-j} with i > 0 and j a signed index.

Generators are ordered LOWER < CARTAN < UPPER and lexicographically inside
each block; this global order is what the PBW layer sorts against, and it
makes the Cartan projection a plain monomial filter.  Brackets between
generators are tabulated once at build time from the matrix realization:
each generator is one or two matrix units, so xy and yx are read off the
unit products e_ab e_cd = delta_bc e_ad (y's units indexed by row), and
xy - (-1)^{|x||y|} yx is re-expressed through the split projection
pi_tilde (e_ij -> E, F/2, G/2, H/2), verified to satisfy
pi_tilde(iota(x)) = x on every generator.  ``bracket_table[x]`` is x's
row, {y: [x, y] as (generator, coefficient) pairs}, holding only the y
whose bracket with x is nonzero.
Each matrix unit's image is +-1 (gl) or +-1/2 (osp, p, q) times one
generator, so ``pi_table`` holds (generator, sign bit) per unit and
``pi_scale`` the family's 1 or 1/2: pi_tilde of a degree-k key is its
generator word, signed by the XOR of its sign bits, times pi_scale^k.  A
small Lie-generating set for the centrality and invariance checks is read
off the bracket table on first use (``Algebra.generating_set``), with the
even Cartan h0 and the weight of every generator; the Cartan variables,
their names and the Weyl vector rho are read off that one weight table,
also on first use and for every family (rho = 0 for q(n)).  The
realization is the only per-family statement: pi_tilde, the parities and
h0 are all read off its matrices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .scalars import HALF, ONE, ZERO, Scalar, sign_scalar
from .sparse import add_into, add_terms, echelon_extend, echelon_reduce
from .spaces import SuperSpace
from .tensors import Tensor, matrix_unit, slot_embed

_CLASS_ORDER = {"L": 0, "C": 1, "U": 2}

_LETTER = {"gl": "E", "osp": "F", "p": "G", "q": "H"}


class GeneratingSet:
    """Generators that Lie-generate g, split as centrality tests them.

    ``cartan`` is the even Cartan h0 (the even generators of class C),
    ``weights[g]`` the eigenvalues of h0 on generator g, and ``probes`` a
    set S of generators such that h0 and S together Lie-generate g.
    """

    # a plain class: a NamedTuple class costs about 0.3 ms to create at
    # import, which every command pays
    __slots__ = ("cartan", "weights", "probes")

    def __init__(self, cartan: tuple, weights: tuple, probes: tuple):
        self.cartan, self.weights, self.probes = cartan, weights, probes

    def weight_zero(self, word) -> bool:
        """True iff the generator word has h0-weight zero, i.e. h0 kills it."""
        return not any(map(sum, zip(*(self.weights[g] for g in word))))


class Algebra:
    """A realized classical Lie superalgebra with all derived tables."""

    def __init__(self, family, m, n):
        self.family = family
        self.m = m
        self.n = n
        self.space = SuperSpace(family, m, n)
        gens = _enumerate_generators(self.space)
        # global order: LOWER < CARTAN < UPPER, lex within each block
        gens.sort(key=lambda g: (_CLASS_ORDER[g[2]], g[0]))
        self.gens = tuple(
            "%s[%d,%d]" % (_LETTER[family], ij[0], ij[1]) for ij, _, _ in gens
        )
        self.gen_pairs = tuple(ij for ij, _, _ in gens)
        self.embed = tuple(mat for _, mat, _ in gens)
        self.tri_class = tuple(cls for _, _, cls in gens)
        # each generator matrix is homogeneous: any one key gives its parity
        self.parity = tuple(mat.key_parity(next(iter(mat.terms))) for mat in self.embed)
        self.dim = len(self.gens)
        self._build_pi_table()
        self._verify_split()
        self._build_bracket_table()

    # -- split projection --------------------------------------------------

    def _build_pi_table(self):
        # e_ab lies in at most one generator g = sum of its units; sending it
        # to g / (number of units of g * coefficient of e_ab) inverts iota on
        # g.  That factor is +-1 for gl and +-1/2 for the other families, so
        # the table keeps g and the sign bit, and pi_scale the magnitude
        self.pi_scale = c = ONE if self.family == "gl" else HALF
        minus_c = -c
        self._pi_signs_of = {}  # degree k -> +-c^k, each made on first use
        where = {}
        for g, mat in enumerate(self.embed):
            scale = Scalar(len(mat.terms))
            for (pair,), coeff in mat.terms.items():
                x = (scale * coeff).inv()
                neg = x != c
                if neg and x != minus_c:
                    raise AssertionError(
                        "pi_tilde coefficient %r of %s at %r is not +-%r"
                        % (x, self.gens[g], pair, c)
                    )
                where[pair] = (g, neg)
        indices = self.space.indices
        self.pi_table = {(a, b): where.get((a, b)) for a in indices for b in indices}

    def _verify_split(self):
        for g in range(self.dim):
            if self._project_units(self.embed[g].terms) != {g: ONE}:
                raise AssertionError(
                    "split projection failed on generator %s" % self.gens[g]
                )

    # -- bracket table -------------------------------------------------------

    def _project_units(self, terms: dict) -> dict:
        # a generator index has at most two preimages in pi_table, so a key
        # that cancels never comes back and the order is first appearance
        out = {}
        for (g,), c in self._pi_tilde(terms, 1):
            add_into(out, g, c)
        return out

    def _pi_tilde(self, terms: dict, k: int):
        """pi_tilde slot by slot on the terms of a tensor of End(V)^(x k):
        (generator word, coefficient) per key, dropping a key at its first
        slot outside iota(g).  The slots' sign bits are XORed, and a key is
        multiplied once, by +-pi_scale^k, or only negated for gl."""
        table = self.pi_table
        signs = self._pi_signs(k)
        for key, coeff in terms.items():
            word = []
            odd = 0
            for pair in key:
                hit = table[pair]
                if hit is None:
                    break
                word.append(hit[0])
                odd ^= hit[1]
            else:
                if signs:
                    coeff = coeff * signs[odd]
                elif odd:
                    coeff = -coeff
                yield tuple(word), coeff

    def _pi_signs(self, k: int):
        """(pi_scale^k, -pi_scale^k), or None for gl, whose pi_scale is one."""
        signs = self._pi_signs_of
        if k not in signs:
            c = Scalar(self.pi_scale.re**k)
            signs[k] = (c, -c) if c != ONE else None
        return signs[k]

    def _build_bracket_table(self):
        # [x, y] = pi_tilde(xy - (-1)^{|x||y|} yx) on matrix units, with
        # e_ab e_cd = delta_bc e_ad: a unit e_ab of x meets the units of y in
        # row b.  xy's units and then yx's are added in compose's order, so
        # each entry, key order included, is that of the projected compose;
        # a pair whose units never meet, or whose bracket cancels, is 0 and
        # has no entry
        units = [[(a, b, c) for ((a, b),), c in mat.terms.items()] for mat in self.embed]
        rows = [{} for _ in units]
        in_row, in_col = {}, {}  # index -> the generators with a unit in that row / column
        for g, us in enumerate(units):
            for a, b, c in us:
                rows[g].setdefault(a, []).append((b, c))
                in_row.setdefault(a, set()).add(g)
                in_col.setdefault(b, set()).add(g)
        table = [{} for _ in units]
        for x, ux in enumerate(units):
            rx, px = rows[x], self.parity[x]
            partners = set()
            for a, b, _ in ux:
                partners |= in_row.get(b, set()) | in_col.get(a, set())
            for y in partners:
                terms = {}
                ry = rows[y]
                for a, b, c in ux:
                    for d, cy in ry.get(b, ()):
                        add_into(terms, ((a, d),), c * cy)
                plus = px and self.parity[y]
                for a, b, c in units[y]:
                    for d, cx in rx.get(b, ()):
                        add_into(terms, ((a, d),), c * cx if plus else -(c * cx))
                br = self._project_units(terms)
                if br:
                    table[x][y] = tuple(br.items())
        self.bracket_table = table

    # -- Cartan variables / Weyl vector, read off h0 on first use -------------

    @cached_property
    def cartan_vars(self) -> tuple:
        """h0 as Cartan variables: even indices first, each in increasing i."""
        par, pairs = self.space.parity, self.gen_pairs
        return tuple(sorted(self.generating_set.cartan, key=lambda h: par[pairs[h][0]]))

    @cached_property
    def var_names(self) -> tuple:
        par = self.space.parity
        odd = sum(par[self.gen_pairs[h][0]] for h in self.cartan_vars)
        even = len(self.cartan_vars) - odd
        return tuple(
            ["h%d" % c for c in range(1, even + 1)] + ["h'%d" % c for c in range(1, odd + 1)]
        )

    @cached_property
    def rho_coords(self) -> tuple:
        """rho = 1/2 sum over the raising generators u of (-1)^|u| weight(u)."""
        gens = self.generating_set
        rho = dict.fromkeys(gens.cartan, Fraction(0))
        for u in range(self.dim):
            if self.tri_class[u] == "U":
                for h, w in zip(gens.cartan, gens.weights[u]):
                    rho[h] += Fraction(-w if self.parity[u] else w, 2)
        return tuple(rho[h] for h in self.cartan_vars)

    # -- normal forms of T(g) words, filled by enveloping.eta_prime ----------

    @cached_property
    def normal_forms(self) -> dict:
        """Generator word -> its PBW normal form with coefficient one, or
        None for a word that eta_prime has met once; empty until eta_prime
        first runs.  A stored form is never mutated."""
        return {}

    @cached_property
    def sym_forms(self) -> dict:
        """Generator word -> (its sorted word, the sign bit of the sort), or
        None for a word with a repeated odd letter; filled and read by
        tensoralg.eta alone, empty until it first runs."""
        return {}

    # -- a small Lie-generating set ------------------------------------------

    @cached_property
    def generating_set(self) -> GeneratingSet:
        """h0, the h0-weight of every generator, and a set S that with h0
        Lie-generates g; built on first use, not with the algebra.

        S starts as the simple root vectors: the raising and the lowering
        generators outside the span of the brackets within their own
        triangular class.  While the right-nested brackets of h0 and S do
        not span g, the first generator outside their span joins S, odd
        Cartan generators first (q(n) needs one).
        """
        gens = range(self.dim)
        table = self.bracket_table
        cartan = tuple(g for g in gens if self.tri_class[g] == "C" and not self.parity[g])
        probes = []
        for cls in "UL":
            block = [g for g in gens if self.tri_class[g] == cls]
            derived = {}
            for x in block:
                for y in block:
                    echelon_extend(derived, dict(table[x].get(y, ())))
            probes += [g for g in block if echelon_reduce(derived, {g: ONE})]
        odd_cartan = [g for g in gens if self.tri_class[g] == "C" and self.parity[g]]
        span = self._closure(cartan + tuple(probes))
        for g in odd_cartan + list(gens):
            if len(span) < self.dim and echelon_reduce(span, {g: ONE}):
                probes.append(g)
                span = self._closure(cartan + tuple(probes))
        weights = []
        for g in gens:
            brackets = [dict(table[h].get(g, ())) for h in cartan]
            if any(br and set(br) != {g} for br in brackets):
                raise AssertionError("generator %s is not a weight vector" % self.gens[g])
            lams = [br.get(g, ZERO) for br in brackets]
            if any(lam.b or lam.d != 1 for lam in lams):
                raise AssertionError("non-integral weight")
            weights.append(tuple(lam.a for lam in lams))
        return GeneratingSet(cartan, tuple(weights), tuple(probes))

    def _closure(self, gens) -> dict:
        """Echelon rows spanning the right-nested brackets [s1, [s2, .. sr]] of gens.

        Each new row's bracket with every s (ad_s on one-letter words) is reduced
        in turn, so the rows end closed under ad s and span the Lie subalgebra.
        """
        rows = {}
        stack = [{g: ONE} for g in gens]
        while stack and len(rows) < self.dim:
            v = echelon_extend(rows, stack.pop())
            if not v:
                continue
            for s in gens:
                w = {}
                for g, c in v.items():
                    for (h,), b in _ad_word(self, s, (g,)):
                        add_into(w, h, c * b)
                stack.append(w)
        return rows

    def __repr__(self):
        return "Algebra(%r, m=%d, n=%d, dim=%d)" % (
            self.family,
            self.m,
            self.n,
            self.dim,
        )


def _tri(i: int, j: int) -> str:
    """Triangular class of the position (i, j): Cartan, upper or lower."""
    return "C" if i == j else "U" if i < j else "L"


def _enumerate_generators(space: SuperSpace):
    """List (name pair, embedding matrix, triangular class) per family."""
    family = space.family
    par = space.parity
    out = []
    if family == "gl":
        for i in space.indices:
            for j in space.indices:
                out.append(((i, j), matrix_unit(space, i, j), _tri(i, j)))
        return out
    if family == "q":
        n = space.n
        for i in range(1, n + 1):
            for j in space.indices:
                mat = matrix_unit(space, i, j) + matrix_unit(space, -i, -j)
                out.append(((i, j), mat, _tri(i, abs(j))))
        return out
    # osp and p share the canonical-pair scheme
    for i in space.indices:
        for j in space.indices:
            partner = (space.prime(j), space.prime(i))
            if partner < (i, j):
                continue
            sign = sign_scalar(par[j] * ((par[i] + par[j]) & 1))
            if family == "osp":
                sign = sign * Scalar(space.epsilon(i) * space.epsilon(j))
            mat = matrix_unit(space, i, j) - matrix_unit(space, *partner).scale(sign)
            if mat.is_zero():
                continue
            # p(n): the odd block above the diagonal is upper, below it lower
            if family == "p" and not (i <= space.n and j <= space.n):
                cls = "U" if i <= space.n < j else "L"
            else:
                cls = _tri(i, j)
            out.append(((i, j), mat, cls))
    return out


def build_algebra(family: str, m: int = 0, n: int = 0) -> Algebra:
    """Realize one of gl(m|n), osp(m|2n), q(n), p(n)."""
    return Algebra(family, m, n)


def _ad_word(alg: Algebra, y: int, word):
    """The terms (word, coefficient) of ad_y on ``word`` = w, y a generator index.

    ad_y is a superderivation, so with [y, w_i] read from the bracket table

        ad_y(w) = sum_i (-1)^{|y||w_1..w_{i-1}|} w_1..w_{i-1} [y, w_i] w_{i+1}..w_k.

    Letters x with [y, x] = 0 have no entry in y's bracket table row and
    are passed over.
    """
    row = alg.bracket_table[y]
    par, odd_y = alg.parity, alg.parity[y]
    sign = 0
    for i, x in enumerate(word):
        for g, c in row.get(x, ()):
            yield word[:i] + (g,) + word[i + 1 :], -c if sign else c
        sign ^= odd_y & par[x]


def phi_k(alg: Algebra, g: int, k: int) -> Tensor:
    """The action of generator g on V^(x k): sum over slots of 1 x..x iota(g) x..x 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    mat = alg.embed[g]
    out = Tensor(alg.space, k)
    for slot in range(1, k + 1):
        add_terms(out.terms, slot_embed(mat, slot, k).terms)
    return out
