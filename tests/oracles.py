"""Test-only references that several test modules share.

None of these is on a path the CLI runs: each is an independent statement
of a convention (the module action, the supertranspose, the flips of
V x V, the Lie bracket, the group H) that tests compare the package's own
kernels against.
"""

from superinv.algebras import LieElement
from superinv.brauer import overline_embed
from superinv.scalars import ONE, Scalar
from superinv.signs import Permutation, symmetric_group
from superinv.sparse import add_into
from superinv.tensors import Tensor


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
