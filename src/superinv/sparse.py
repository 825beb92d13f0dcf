"""The sparse linear-combination core shared by every element type.

Each element of the package (tensors, Lie, T(g), S(g) and U(g) elements,
Cartan polynomials, U(g)-valued tensors) is a dict ``terms`` from keys to
nonzero coefficients, plus a few context attributes naming the space it
lives in.  ``Sparse`` owns the linear structure over that dict; subclasses
add the keys' meaning and their products.
"""

from __future__ import annotations

from operator import attrgetter

from .scalars import Scalar, promote


def add_into(data: dict, key, coeff):
    """data[key] += coeff for a nonzero coeff, dropping the key on cancellation."""
    acc = data.get(key)
    if acc is None:
        data[key] = coeff
    else:
        acc = acc + coeff
        if acc:
            data[key] = acc
        else:
            del data[key]


class Sparse:
    """A sparse map key -> coefficient; zero coefficients are never stored.

    A subclass lists in ``_context`` the attributes that say which space an
    element lives in; two elements combine only when those agree.
    """

    __slots__ = ("terms",)
    _context = ()
    # coefficients are Scalars unless a subclass stores other values
    _coerce = staticmethod(promote)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the class belongs to the context: a Tensor never combines with a
        # VectorTensor of the same space and degree
        cls._context_of = attrgetter(*cls._context, "__class__")

    def __init__(self, terms=None):
        data = {}
        if terms:
            coerce = self._coerce
            for key, coeff in terms.items() if hasattr(terms, "items") else terms:
                coeff = coerce(coeff)
                if coeff:
                    add_into(data, key, coeff)
        self.terms = data

    def _like(self, terms: dict):
        """An element in self's space holding terms as given (no validation)."""
        out = object.__new__(type(self))
        for name in self._context:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def _check(self, other):
        if self._context_of(self) != self._context_of(other):
            raise ValueError("%s mismatch" % "/".join(self._context))

    def __add__(self, other):
        self._check(other)
        data = dict(self.terms)
        for key, coeff in other.terms.items():
            add_into(data, key, coeff)
        return self._like(data)

    def __sub__(self, other):
        # one pass, not self + (-other): building an algebra subtracts
        # about dim^2 times
        self._check(other)
        data = dict(self.terms)
        for key, coeff in other.terms.items():
            add_into(data, key, -coeff)
        return self._like(data)

    def __neg__(self):
        return self.scale(Scalar(-1))

    def scale(self, coeff):
        # coeff on the left: a coefficient that is itself an element (a U(g)
        # value) takes the Scalar through its own __rmul__
        coeff = promote(coeff)
        return self._like({k: coeff * c for k, c in self.terms.items()} if coeff else {})

    def __rmul__(self, coeff):
        return self.scale(coeff)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Sparse)
            and self._context_of(self) == self._context_of(other)
            and self.terms == other.terms
        )
