import pytest

from superinv.algebras import LieElement, build_algebra
from superinv.enveloping import CartanPolynomial, PBWElement
from superinv.scalars import Scalar
from superinv.schurweyl import UValuedTensor
from superinv.tensoralg import SymElement, TensorAlgebraElement
from superinv.tensors import Tensor, VectorTensor

GL11 = build_algebra("gl", 1, 1)
OTHER = build_algebra("gl", 1, 1)  # equal sizes, but a different algebra
GL21 = build_algebra("gl", 2, 1)
NAMES = ("h1", "h'1")

# class -> (context, a context it must not combine with, a key, a nonzero value)
CASES = {
    Tensor: ((GL11.space, 1), (GL11.space, 2), ((1, 2),), Scalar(3)),
    VectorTensor: ((GL11.space, 1), (GL21.space, 1), (2,), Scalar(3)),
    LieElement: ((GL11,), (OTHER,), 0, Scalar(3)),
    TensorAlgebraElement: ((GL11,), (OTHER,), (0, 1), Scalar(3)),
    SymElement: ((GL11,), (OTHER,), (0, 1), Scalar(3)),
    PBWElement: ((GL11,), (OTHER,), (0, 1), Scalar(3)),
    CartanPolynomial: ((NAMES,), (("h1",),), (1, 0), Scalar(3)),
    UValuedTensor: ((GL11, 1), (GL11, 2), ((1, 2),), PBWElement.generator(GL11, 1)),
}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_sparse_core(cls):
    ctx, other_ctx, key, value = CASES[cls]
    zero_value = PBWElement(GL11) if cls is UValuedTensor else Scalar(0)
    empty = cls(*ctx)

    # a zero coefficient is never stored
    assert cls(*ctx, {key: zero_value}).terms == {}

    x = cls(*ctx, {key: value})
    assert x.terms == {key: value} and x and not x.is_zero()
    assert (x - x).is_zero() and x - x == empty and not (x - x)
    assert x + x == x.scale(Scalar(2)) == 2 * x == Scalar(2) * x
    assert -x + x == empty and x.scale(Scalar(0)) == empty

    # an entry whose accumulated value cancels is dropped; for UValuedTensor
    # the value is a PBW element
    assert cls(*ctx, [(key, value), (key, -value)]) == empty
    assert x != cls(*other_ctx, {})

    with pytest.raises(ValueError):
        x + cls(*other_ctx, {})
    with pytest.raises(ValueError):
        x - cls(*other_ctx, {})

