"""Index bookkeeping for the natural modules of the four matrix families.

Index conventions (all 1-based except the signed q-indices):

* gl(m|n):   indices 1..m+n, even iff i <= m.
* osp(m|2n): indices 1..m+2n, odd iff i <= n or i > m+n; i' = m+2n+1-i;
             epsilon(i) = +1 iff i <= m+n.  The invariant bilinear form is
             B(e_i, e_j) = epsilon(i) * delta(j, i').
* p(n):      indices 1..2n, even iff i <= n; i' = i+n resp. i-n.  The odd
             symmetric form is (e_i, e_j) = delta(j, i').
* q(n):      signed indices {1..n} u {-1..-n}, even iff i > 0; i' = -i.

q(n) and p(n) have no m: their spaces take m = 0.
"""

from __future__ import annotations

FAMILIES = ("gl", "osp", "q", "p")


def dimension(family: str, m: int, n: int) -> int:
    """dim V of the family at sizes m, n, or ValueError for sizes it does not take.

    Nothing here grows with m or n, so a bound on dim V can be checked
    before a SuperSpace is built.
    """
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    if m < 0 or n < 0:
        raise ValueError("sizes must be non-negative")
    if family in ("q", "p") and n < 1:
        raise ValueError("family %s requires n >= 1" % family)
    if family in ("q", "p") and m:
        raise ValueError("family %s requires m = 0, got %d" % (family, m))
    dim = {"gl": m + n, "osp": m + 2 * n}.get(family, 2 * n)
    if dim < 1:  # gl or osp: q and p have n >= 1
        raise ValueError("%s requires %s >= 1" % (family, "m+n" if family == "gl" else "m+2n"))
    return dim


class SuperSpace:
    """The indexed super vector space a family acts on."""

    __slots__ = ("family", "m", "n", "indices", "dim", "parity")

    def __init__(self, family: str, m: int, n: int):
        self.dim = dimension(family, m, n)
        self.family, self.m, self.n = family, m, n
        if family == "q":
            self.indices = tuple(range(1, n + 1)) + tuple(range(-1, -n - 1, -1))
        else:
            self.indices = tuple(range(1, self.dim + 1))
        # the even indices are lo < i <= hi
        lo, hi = {"gl": (0, m), "osp": (n, m + n)}.get(family, (0, n))
        self.parity = {i: 0 if lo < i <= hi else 1 for i in self.indices}

    def prime(self, i: int) -> int:
        """The pairing involution i -> i' (undefined for gl)."""
        if self.family == "osp":
            return self.m + 2 * self.n + 1 - i
        if self.family == "p":
            return i + self.n if i <= self.n else i - self.n
        if self.family == "q":
            return -i
        raise ValueError("gl has no pairing involution")

    def epsilon(self, i: int) -> int:
        """The osp form signs: +1 on the first m+n indices, -1 after."""
        if self.family != "osp":
            raise ValueError("epsilon is defined for osp only")
        return 1 if i <= self.m + self.n else -1

    def __eq__(self, other):
        return (
            isinstance(other, SuperSpace)
            and (self.family, self.m, self.n) == (other.family, other.m, other.n)
        )

    def __hash__(self):
        return hash((self.family, self.m, self.n))

    def __repr__(self):
        return "SuperSpace(%r, %d, %d)" % (self.family, self.m, self.n)

    def to_json(self):
        return {"family": self.family, "m": self.m, "n": self.n}
