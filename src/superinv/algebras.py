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
generators are tabulated once at build time from the matrix realization,
re-expressed through the split projection pi_tilde (e_ij -> E, F/2, G/2,
H/2), tabulated as ``pi_table`` and verified to satisfy
pi_tilde(iota(x)) = x on every generator.  A small Lie-generating set for
the centrality and invariance checks is read off the bracket table on
first use (``Algebra.generating_set``).  The realization is the only
per-family statement: pi_tilde, the parities and the Cartan variables are
all read off its matrices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .scalars import ONE, Scalar, sign_scalar
from .sparse import Sparse, add_into, add_terms
from .spaces import SuperSpace
from .tensors import Tensor, compose, matrix_unit, slot_embed

_CLASS_ORDER = {"L": 0, "C": 1, "U": 2}

_LETTER = {"gl": "E", "osp": "F", "p": "G", "q": "H"}


class LieElement(Sparse):
    """Sparse linear combination of canonical generators."""

    __slots__ = ("algebra",)
    _context = ("algebra",)

    def __init__(self, algebra, coeffs=None):
        self.algebra = algebra
        Sparse.__init__(self, coeffs)

    def matrix(self) -> Tensor:
        """The realization iota(x) in End(V)."""
        out = Tensor(self.algebra.space, 1)
        for idx, c in self.terms.items():
            add_terms(out.terms, self.algebra.embed[idx].scale(c).terms)
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.algebra.gens
        return " + ".join(
            "%r*%s" % (c, names[i]) for i, c in sorted(self.terms.items())
        )


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
        self.gen_index = {name: i for i, name in enumerate(self.gens)}
        self.embed = tuple(mat for _, mat, _ in gens)
        self.tri_class = tuple(cls for _, _, cls in gens)
        self.parity = tuple(mat.parity() for mat in self.embed)
        self.dim = len(self.gens)
        self._build_pi_table()
        self._verify_split()
        self._build_bracket_table()
        self._build_cartan_data()

    # -- split projection --------------------------------------------------

    def _build_pi_table(self):
        # e_ab lies in at most one generator g = sum of its units; sending it
        # to g / (number of units of g * coefficient of e_ab) inverts iota on g
        where = {}
        for g, mat in enumerate(self.embed):
            scale = Scalar(len(mat.terms))
            for (pair,), coeff in mat.terms.items():
                where[pair] = (g, (scale * coeff).inv())
        indices = self.space.indices
        self.pi_table = {(a, b): where.get((a, b)) for a in indices for b in indices}

    def _verify_split(self):
        for g in range(self.dim):
            if self._project_matrix(self.embed[g]).terms != {g: ONE}:
                raise AssertionError(
                    "split projection failed on generator %s" % self.gens[g]
                )

    # -- bracket table -------------------------------------------------------

    def _project_matrix(self, mat: Tensor) -> LieElement:
        # a generator index has at most two preimages in pi_table, so a key
        # that cancels never comes back and the order is first appearance
        hits = ((self.pi_table[pair], coeff) for (pair,), coeff in mat.terms.items())
        return LieElement(self, ((hit[0], coeff * hit[1]) for hit, coeff in hits if hit))

    def _build_bracket_table(self):
        table = {}
        mats = self.embed
        # both orders of a pair share its two products; the table is only
        # ever indexed, so its own insertion order does not matter
        for x in range(self.dim):
            mx = mats[x]
            px = self.parity[x]
            for y in range(x, self.dim):
                sign = Scalar(-1) if px and self.parity[y] else ONE
                xy, yx = compose(mx, mats[y]), compose(mats[y], mx)
                table[(x, y)] = self._project_matrix(xy - yx.scale(sign)).terms
                table[(y, x)] = self._project_matrix(yx - xy.scale(sign)).terms
        self.bracket_table = table

    # -- Cartan data / Weyl vector -------------------------------------------

    def _build_cartan_data(self):
        if self.family in ("p", "q"):
            self.cartan_vars = self.var_names = self.rho_coords = None
            return
        # the diagonal generators, even indices first, each in increasing i
        par = self.space._parity
        diag = [(i, g) for g, (i, j) in enumerate(self.gen_pairs) if i == j]
        even = [g for i, g in diag if not par[i]]
        odd = [g for i, g in diag if par[i]]
        self.cartan_vars = tuple(even + odd)
        self.var_names = tuple(
            ["h%d" % (c + 1) for c in range(len(even))]
            + ["h'%d" % (c + 1) for c in range(len(odd))]
        )
        nvars = len(self.cartan_vars)
        rho = [Fraction(0)] * nvars
        for u in range(self.dim):
            if self.tri_class[u] != "U":
                continue
            weight = self._weight_of(u, self.cartan_vars)
            s = Fraction(1, 2) if self.parity[u] == 0 else Fraction(-1, 2)
            for c in range(nvars):
                rho[c] += s * weight[c]
        self.rho_coords = tuple(rho)

    def _weight_of(self, u: int, cartan):
        """Eigenvalue vector, in ints, of the Cartan generators ``cartan`` on generator u."""
        weight = []
        for h in cartan:
            br = self.bracket_table[(h, u)]
            if not br:
                weight.append(0)
                continue
            if set(br) != {u}:
                raise AssertionError("generator %s is not a weight vector" % self.gens[u])
            lam = br[u]
            if lam.b or lam.d != 1:
                raise AssertionError("non-integral weight")
            weight.append(lam.a)
        return weight

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
                    _extend(derived, table[(x, y)])
            probes += [g for g in block if _reduce(derived, {g: ONE})]
        odd_cartan = [g for g in gens if self.tri_class[g] == "C" and self.parity[g]]
        span = self._closure(cartan + tuple(probes))
        for g in odd_cartan + list(gens):
            if len(span) < self.dim and _reduce(span, {g: ONE}):
                probes.append(g)
                span = self._closure(cartan + tuple(probes))
        weights = tuple(tuple(self._weight_of(g, cartan)) for g in gens)
        return GeneratingSet(cartan, weights, tuple(probes))

    def _closure(self, gens) -> dict:
        """Echelon rows spanning the right-nested brackets [s1, [s2, .. sr]] of gens.

        Each new row's bracket with every s is reduced in turn, so the rows
        end closed under ad s and span the Lie subalgebra gens generate.
        """
        table = self.bracket_table
        rows = {}
        stack = [{g: ONE} for g in gens]
        while stack and len(rows) < self.dim:
            v = _extend(rows, stack.pop())
            if not v:
                continue
            for s in gens:
                w = {}
                for g, c in v.items():
                    for h, b in table[(s, g)].items():
                        add_into(w, h, c * b)
                stack.append(w)
        return rows

    # -- small helpers ---------------------------------------------------------

    def unit(self, name_or_idx) -> LieElement:
        idx = (
            name_or_idx
            if isinstance(name_or_idx, int)
            else self.gen_index[name_or_idx]
        )
        return LieElement(self, {idx: ONE})

    def __repr__(self):
        return "Algebra(%r, m=%d, n=%d, dim=%d)" % (
            self.family,
            self.m,
            self.n,
            self.dim,
        )


def _reduce(rows: dict, v: dict) -> dict:
    """v less its part in the span of rows, each row keyed by its least key,
    where it holds 1; empty iff v lies in that span."""
    v = dict(v)
    while v:
        pivot = min(v)
        row = rows.get(pivot)
        if row is None:
            break
        c = v[pivot]
        for key, rc in row.items():
            add_into(v, key, -(c * rc))
    return v


def _extend(rows: dict, v: dict) -> dict:
    """Add v's part outside the span of rows to rows as a new row, and return that part."""
    v = _reduce(rows, v)
    if v:
        pivot = min(v)
        scale = v[pivot].inv()
        rows[pivot] = {key: c * scale for key, c in v.items()}
    return v


def _tri(i: int, j: int) -> str:
    """Triangular class of the position (i, j): Cartan, upper or lower."""
    return "C" if i == j else "U" if i < j else "L"


def _enumerate_generators(space: SuperSpace):
    """List (name pair, embedding matrix, triangular class) per family."""
    family = space.family
    par = space._parity
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


def phi_k(alg: Algebra, x: LieElement, k: int) -> Tensor:
    """The action of x on V^(x k): sum over slots of 1 x..x iota(x) x..x 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    mat = x.matrix()
    out = Tensor(mat.space, k)
    for slot in range(1, k + 1):
        add_terms(out.terms, slot_embed(mat, slot, k).terms)
    return out
