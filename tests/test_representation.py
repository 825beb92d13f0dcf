"""Central elements, checked by how they act on V x V.

``oracles.represent`` evaluates a PBW element on V^(x 2) letter by letter
through phi_2 of each generator, with no normal form, product in U(g) or
centrality test of the package.  A central even u then commutes with the
action of every generator of g; every even u commutes with the
centralizer generators, since they commute with all of g; and u x + u,
for an even x outside the centre of g, is caught.
"""

import pytest
from oracles import represent, represented_commutes

from superinv.algebras import build_algebra, phi_k
from superinv.enveloping import PBWElement, u_multiply
from superinv.scalars import ONE, Scalar
from superinv.schurweyl import _generator_operators, sergeev_Z, str_gelfand, z_sigma
from superinv.signs import Permutation, symmetric_group

GL11 = build_algebra("gl", 1, 1)
GL21 = build_algebra("gl", 2, 1)
GL22 = build_algebra("gl", 2, 2)
OSP32 = build_algebra("osp", 3, 1)
Q2 = build_algebra("q", 0, 2)


def noncommuting_generators(u):
    """The generators g of g whose action on V x V does not commute with u's."""
    alg = u.algebra
    rho = represent(u, 2)
    return [g for g in range(alg.dim) if not represented_commutes(rho, phi_k(alg, g, 2))]


def with_a_noncentral_factor(u):
    """u x + u, for the first even generator x with a nonzero bracket."""
    alg = u.algebra
    x = next(
        g
        for g in range(alg.dim)
        if not alg.parity[g] and any(alg.bracket_table[(g, y)] for y in range(alg.dim))
    )
    return u_multiply(u, PBWElement(alg, {(x,): ONE})) + u


# the elements the golden hc and sergeev jobs check
GOLDEN = {
    "hc gl(3|3) k=3": lambda: str_gelfand(build_algebra("gl", 3, 3), 3),
    "hc osp(3|2) k=5": lambda: str_gelfand(OSP32, 5),
    "sergeev q(2) Z_5": lambda: sergeev_Z(Q2, 5),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_elements_commute_with_every_generator_on_v_x_v(name):
    assert noncommuting_generators(GOLDEN[name]()) == []


def test_every_z_sigma_of_gl22_k4_commutes_with_every_generator_on_v_x_v():
    # the golden invariant jobs: one z_sigma per sigma in S_4
    for sigma in symmetric_group(4):
        assert noncommuting_generators(z_sigma(GL22, sigma)) == [], sigma


@pytest.mark.parametrize("alg", [GL21, OSP32, Q2], ids=repr)
def test_any_even_element_commutes_with_the_centralizer_generators(alg):
    # a non-central even element: the even words of length 1 and 2
    par = alg.parity
    words = [(a,) for a in range(alg.dim) if not par[a]]
    words += [(a, b) for a in range(alg.dim) for b in range(a, alg.dim) if par[a] == par[b]]
    u = PBWElement(alg, {w: Scalar(i + 1) for i, w in enumerate(words)})
    assert noncommuting_generators(u)
    rho = represent(u, 2)
    for name, op in _generator_operators(alg, 2).items():
        assert represented_commutes(rho, op), name


CONTROLS = {
    "Str X^4 of gl(1|1)": lambda: str_gelfand(GL11, 4),
    "Str X^3 of gl(2|1)": lambda: str_gelfand(GL21, 3),
    "Str X^3 of gl(2|2)": lambda: str_gelfand(GL22, 3),
    "Str X^4 of osp(3|2)": lambda: str_gelfand(OSP32, 4),
    "Z_3 of q(2)": lambda: sergeev_Z(Q2, 3),
    "z_(1 2 3) of gl(2|1)": lambda: z_sigma(GL21, Permutation.from_cycles([(1, 2, 3)], 3)),
}


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_a_noncentral_factor_is_caught_on_v_x_v(name):
    u = CONTROLS[name]()
    assert noncommuting_generators(u) == []
    assert noncommuting_generators(with_a_noncentral_factor(u))
