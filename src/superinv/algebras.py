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
H/2), which is verified to satisfy pi_tilde(iota(x)) = x on every
generator.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import HALF, ONE, Scalar, sign_scalar
from .sparse import Sparse, add_into
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

    def parity(self):
        """Parity if homogeneous (0 for the zero element), else None."""
        ps = {self.algebra.parity[i] for i in self.terms}
        if not ps:
            return 0
        return ps.pop() if len(ps) == 1 else None

    def matrix(self) -> Tensor:
        """The realization iota(x) in End(V)."""
        out = Tensor(self.algebra.space, 1, {})
        for idx, c in self.terms.items():
            out = out + self.algebra.embed[idx].scale(c)
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.algebra.gens
        return " + ".join(
            "%r*%s" % (c, names[i]) for i, c in sorted(self.terms.items())
        )


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
        self._pair_index = {ij: i for i, (ij, _, _) in enumerate(gens)}
        self.embed = tuple(mat for _, mat, _ in gens)
        self.tri_class = tuple(cls for _, _, cls in gens)
        par = self.space._parity
        if family == "q":
            self.parity = tuple(par[j] for (_, j) in self.gen_pairs)
        else:
            self.parity = tuple((par[i] + par[j]) & 1 for (i, j) in self.gen_pairs)
        self.dim = len(self.gens)
        self._build_pi_table()
        self._verify_split()
        self._build_bracket_table()
        self._build_cartan_data()

    # -- split projection --------------------------------------------------

    def _build_pi_table(self):
        space = self.space
        table = {}
        par = space._parity
        for a in space.indices:
            for b in space.indices:
                if self.family == "gl":
                    table[(a, b)] = (self._pair_index[(a, b)], ONE)
                    continue
                if self.family == "q":
                    key = (a, b) if a > 0 else (-a, -b)
                    table[(a, b)] = (self._pair_index[key], HALF)
                    continue
                # osp / p: e_ab -> F_ab/2 resp. G_ab/2, expressed canonically
                idx = self._pair_index.get((a, b))
                if idx is not None:
                    table[(a, b)] = (idx, HALF)
                    continue
                partner = (space.prime(b), space.prime(a))
                idx = self._pair_index.get(partner)
                if idx is None:
                    table[(a, b)] = None  # the defining combination vanishes
                    continue
                c = -sign_scalar(par[b] * ((par[a] + par[b]) & 1))
                if self.family == "osp":
                    c = c * Scalar(space.epsilon(a) * space.epsilon(b))
                table[(a, b)] = (idx, c * HALF)
        self.pi_table = table

    def _verify_split(self):
        for g in range(self.dim):
            if self._project_matrix(self.embed[g]).terms != {g: ONE}:
                raise AssertionError(
                    "split projection failed on generator %s" % self.gens[g]
                )

    # -- bracket table -------------------------------------------------------

    def _project_matrix(self, mat: Tensor) -> LieElement:
        coeffs = {}
        for ((a, b),), coeff in mat.terms.items():
            hit = self.pi_table[(a, b)]
            if hit is None:
                continue
            idx, c = hit
            coeffs[idx] = coeffs.get(idx, Scalar(0)) + coeff * c
        return LieElement(self, coeffs)

    def _build_bracket_table(self):
        table = {}
        mats = self.embed
        for x in range(self.dim):
            mx = mats[x]
            px = self.parity[x]
            for y in range(self.dim):
                sign = Scalar(-1) if px and self.parity[y] else ONE
                b = compose(mx, mats[y]) - compose(mats[y], mx).scale(sign)
                table[(x, y)] = self._project_matrix(b).terms
        self.bracket_table = table

    # -- Cartan data / Weyl vector -------------------------------------------

    def _build_cartan_data(self):
        family = self.family
        if family == "gl":
            h_pairs = [(i, i) for i in range(1, self.m + 1)]
            hp_pairs = [(self.m + j, self.m + j) for j in range(1, self.n + 1)]
        elif family == "osp":
            mh = self.m // 2
            h_pairs = [(self.n + i, self.n + i) for i in range(1, mh + 1)]
            hp_pairs = [(j, j) for j in range(1, self.n + 1)]
        else:
            self.cartan_vars = None
            self.var_names = None
            self.rho_coords = None
            return
        self.cartan_vars = tuple(self._pair_index[p] for p in h_pairs + hp_pairs)
        self.var_names = tuple(
            ["h%d" % (i + 1) for i in range(len(h_pairs))]
            + ["h'%d" % (j + 1) for j in range(len(hp_pairs))]
        )
        nvars = len(self.cartan_vars)
        rho = [Fraction(0)] * nvars
        for u in range(self.dim):
            if self.tri_class[u] != "U":
                continue
            weight = self._weight_of(u)
            s = Fraction(1, 2) if self.parity[u] == 0 else Fraction(-1, 2)
            for c in range(nvars):
                rho[c] += s * weight[c]
        self.rho_coords = tuple(rho)

    def _weight_of(self, u: int):
        """Eigenvalue vector of the Cartan generators on generator u."""
        weight = []
        for h in self.cartan_vars:
            br = self.bracket_table[(h, u)]
            if not br:
                weight.append(Fraction(0))
                continue
            if set(br) != {u}:
                raise AssertionError("generator %s is not a weight vector" % self.gens[u])
            lam = br[u]
            if lam.im:
                raise AssertionError("non-rational weight")
            weight.append(lam.re)
        return weight

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


def _enumerate_generators(space: SuperSpace):
    """List (name pair, embedding matrix, triangular class) per family."""
    family = space.family
    par = space._parity
    out = []
    if family == "gl":
        for i in space.indices:
            for j in space.indices:
                cls = "C" if i == j else ("U" if i < j else "L")
                out.append(((i, j), matrix_unit(space, i, j), cls))
        return out
    if family == "q":
        n = space.n
        for i in range(1, n + 1):
            for j in space.indices:
                mat = matrix_unit(space, i, j) + matrix_unit(space, -i, -j)
                b = abs(j)
                cls = "C" if i == b else ("U" if i < b else "L")
                out.append(((i, j), mat, cls))
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
            if family == "p":
                n = space.n
                if i <= n and j <= n:
                    cls = "C" if i == j else ("U" if i < j else "L")
                elif i <= n < j:
                    cls = "U"
                else:
                    cls = "L"
            else:
                cls = "C" if i == j else ("U" if i < j else "L")
            out.append(((i, j), mat, cls))
    return out


def build_algebra(family: str, m: int = 0, n: int = 0) -> Algebra:
    """Realize one of gl(m|n), osp(m|2n), q(n), p(n)."""
    return Algebra(family, m, n)


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Super-bracket via the precomputed table."""
    if x.algebra is not y.algebra:
        raise ValueError("algebra mismatch")
    alg = x.algebra
    out = {}
    for i, ci in x.terms.items():
        for j, cj in y.terms.items():
            cij = ci * cj
            for g, c in alg.bracket_table[(i, j)].items():
                add_into(out, g, cij * c)
    return LieElement(alg, out)


def pi_tilde(alg: Algebra, a: int, b: int) -> LieElement:
    """Split projection of the matrix unit e_ab onto the algebra."""
    if a not in alg.space.indices or b not in alg.space.indices:
        raise ValueError("invalid index (%r, %r)" % (a, b))
    hit = alg.pi_table[(a, b)]
    if hit is None:
        return LieElement(alg)
    idx, c = hit
    return LieElement(alg, {idx: c})


def phi_k(alg: Algebra, x: LieElement, k: int) -> Tensor:
    """The action of x on V^(x k): sum over slots of 1 x..x iota(x) x..x 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    mat = x.matrix()
    out = slot_embed(mat, 1, k)
    for slot in range(2, k + 1):
        out = out + slot_embed(mat, slot, k)
    return out


def rho(alg: Algebra):
    """Weyl-vector coordinates in the dual Cartan basis (gl/osp; zero for q)."""
    if alg.family == "q":
        return tuple(Fraction(0) for _ in range(alg.n))
    if alg.family == "p":
        raise ValueError("no Harish-Chandra data for p(n)")
    return alg.rho_coords
