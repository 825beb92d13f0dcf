from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import row_reduce_rank

from superinv.algebras import build_algebra
from superinv.enveloping import CartanPolynomial, PBWElement
from superinv.scalars import ONE, ZERO, Scalar
from superinv.schurweyl import UValuedTensor
from superinv.sparse import echelon_extend, echelon_reduce
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
    TensorAlgebraElement: ((GL11,), (OTHER,), (0, 1), Scalar(3)),
    SymElement: ((GL11,), (OTHER,), (0, 1), Scalar(3)),
    PBWElement: ((GL11,), (OTHER,), (0, 1), Scalar(3)),
    CartanPolynomial: ((NAMES,), (("h1",),), (1, 0), Scalar(3)),
    UValuedTensor: ((GL11, 1), (GL11, 2), ((1, 2),), PBWElement(GL11, {(1,): ONE})),
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


# -- exact elimination against Gauss-Jordan on dense Fraction rows ------------

COLUMNS = 6
NONZERO = sorted({Fraction(a, d) for a in range(-6, 7) if a for d in range(1, 5)})
fractions = st.sampled_from([Fraction(0)] + NONZERO)
sparse_vectors = st.dictionaries(
    st.integers(0, COLUMNS - 1), st.sampled_from(NONZERO), max_size=3
)


@st.composite
def vector_lists(draw):
    """Random sparse rational vectors, then combinations of them, which lie
    in their span."""
    vectors = draw(st.lists(sparse_vectors, max_size=6))
    size = len(vectors)
    for coeffs in draw(st.lists(st.lists(fractions, min_size=size, max_size=size), max_size=3)):
        combo = {}
        for c, v in zip(coeffs, vectors):
            for col, x in v.items():
                combo[col] = combo.get(col, 0) + c * x
        vectors.append({col: x for col, x in combo.items() if x})
    return vectors


def _dense(v):
    """The dense Fraction row of a sparse vector with Scalar values."""
    return [v[col].re if col in v else Fraction(0) for col in range(COLUMNS)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(vector_lists())
def test_echelon_elimination_matches_dense_rank(vectors):
    rows, seen = {}, []
    for fv in vectors:
        v = {col: Scalar(x) for col, x in fv.items()}
        rank = row_reduce_rank(seen)
        rest = echelon_reduce(rows, v)
        assert v == {col: Scalar(x) for col, x in fv.items()}  # v is not changed
        # {} exactly when v lies in the span of the vectors so far
        assert (rest == {}) == (row_reduce_rank(seen + [_dense(v)]) == rank)
        # v - rest lies in that span, and rest's least key is no pivot
        diff = {col: v.get(col, ZERO) - rest.get(col, ZERO) for col in {*v, *rest}}
        assert row_reduce_rank(seen + [_dense(diff)]) == rank
        assert not rest or min(rest) not in rows
        assert echelon_extend(rows, v) == rest
        seen.append(_dense(v))
        # each stored row holds 1 at its least key, which keys it
        for pivot, row in rows.items():
            assert min(row) == pivot and row[pivot] == ONE
        assert len(rows) == row_reduce_rank(seen)
