"""The sparse linear-combination core shared by every element type.

Each element of the package (tensors, T(g), S(g) and U(g) elements,
Cartan polynomials, U(g)-valued tensors) is a dict ``terms`` from keys to
nonzero coefficients, plus a few context attributes naming the space it
lives in.  ``Sparse`` owns the linear structure over that dict; subclasses
add the keys' meaning and their products.  Exact elimination over such
dicts is ``echelon_reduce``/``echelon_extend``.
"""

from __future__ import annotations

from operator import attrgetter

from .scalars import MINUS_ONE, promote


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


def add_terms(data: dict, terms: dict):
    """data += terms, one add_into per key, so cancelled keys are dropped."""
    for key, coeff in terms.items():
        add_into(data, key, coeff)


def echelon_reduce(rows: dict, v: dict) -> dict:
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


def echelon_extend(rows: dict, v: dict) -> dict:
    """Add v's part outside the span of rows to rows as a new row, and return that part."""
    v = echelon_reduce(rows, v)
    if v:
        pivot = min(v)
        scale = v[pivot].inv()
        rows[pivot] = {key: c * scale for key, c in v.items()}
    return v


class Sparse:
    """A sparse map key -> coefficient; zero coefficients are never stored.

    A subclass lists in ``_context`` the attributes that say which space an
    element lives in; two elements combine only when those agree.
    """

    __slots__ = ("terms",)
    _context = ()
    # None: coefficients go through the module's promote, found by name at each call
    _coerce = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the class belongs to the context: a Tensor never combines with a
        # VectorTensor of the same space and degree
        cls._context_of = attrgetter(*cls._context, "__class__")

    def __init__(self, terms=None):
        data = {}
        if terms:
            coerce = self._coerce or promote
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
        add_terms(data, other.terms)
        return self._like(data)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(MINUS_ONE)

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
