"""Exact invariants of the classical Lie superalgebras.

Constructs, in exact Gaussian-rational arithmetic, the central elements of
U(g) that arise from the centralizer algebras acting on tensor powers of
the natural module, for g one of gl(m|n), osp(m|2n), q(n), p(n); verifies
centrality, Harish-Chandra images, the defining relations of the
centralizer algebras, and the diagram combinatorics that forces the center
of U(p(n)) to be trivial.
"""

from .algebras import Algebra, LieElement, build_algebra, phi_k
from .enveloping import (
    CartanPolynomial,
    PBWElement,
    eta_prime,
    harish_chandra_image,
    is_central,
    is_J_poly,
    is_Q_poly,
    is_supersymmetric,
    pbw_normalize,
    rho_shift,
    u_multiply,
    zeta_project,
)
from .scalars import Scalar
from .signs import Permutation, symmetric_group
from .spaces import SuperSpace
from .tensoralg import (
    SymElement,
    TensorAlgebraElement,
    eta,
    project_tensor,
)
from .tensors import (
    Tensor,
    VectorTensor,
    compose,
    permute_word,
)
from .schurweyl import (
    UValuedTensor,
    check_duality_relations,
    generator_matrix,
    invariant_tensor,
    molev_element,
    omega_iso,
    sergeev_Z,
    sergeev_elements,
    str_gelfand,
    tensor_is_invariant,
    z_sigma,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
