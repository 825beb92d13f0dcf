"""Sign calculus on parity words, and permutations of {1..k}.

Conventions used throughout the package:

* A parity word is a tuple over {0, 1}.
* The sign gamma(x, s) is the product of (-1)**(x[s(i)]*x[s(j)]) over the
  inversions i < j, s(i) > s(j); it is the Koszul sign of reordering a
  supercommutative word x1...xk into x_{s(1)}...x_{s(k)}.
  ``gamma_exponent`` returns it as an exponent mod 2, so (-1)**exponent is
  the sign.  Every reordering sign is one inversion count,
  ``_inversion_parity``: gamma reads it on sigma's images at the odd
  places of x, ``Permutation.sign`` on all of sigma's images, and
  ``tensoralg.eta`` on a word's odd letters, the sign of sorting them.
  ``tensors.permute_word`` asks ``gamma_exponent`` for its sign (with
  sigma^-1) once per parity word of a call; the place permutations of
  ``schurweyl.invariant_tensor`` need no other sign.
* The sign p(x, y), the product of (-1)**(x[i]*y[j]) over all pairs i > j,
  in which these signs were first stated, lives in tests/oracles.py
  (``p_exponent``), beside the references that use it.
* Permutations are stored in one-line image form, 1-based.  Composition
  ``a * b`` applies b first: (a*b)(x) = a(b(x)).  Cycle-notation parsing
  lives only in the CLI layer.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence


def _inversion_parity(seq: Sequence) -> int:
    """Parity of the pairs i < j with seq[i] > seq[j]."""
    return sum(a > b for i, a in enumerate(seq) for b in seq[i + 1 :]) & 1


def gamma_exponent(x: Sequence[int], sigma: "Permutation") -> int:
    """Exponent (mod 2) of gamma(x, sigma) over the inversions of sigma."""
    if sigma.size != len(x):
        raise ValueError("parity word length does not match permutation size")
    return _inversion_parity([s for s in sigma.images if x[s - 1]])


class Permutation:
    """A permutation of {1..k} in one-line image form."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError("not a permutation of 1..%d: %r" % (len(images), images))
        self.images = images

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(range(1, k + 1))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Iterable[int]], k: int) -> "Permutation":
        """Build from disjoint-or-not cycles, applied rightmost first."""
        result = cls.identity(k)
        for cyc in cycles:
            cyc = list(cyc)
            img = list(range(1, k + 1))
            for pos, a in enumerate(cyc):
                img[a - 1] = cyc[(pos + 1) % len(cyc)]
            result = result * cls(img)
        return result

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (a*b)(x) = a(b(x)): apply b first.
        if self.size != other.size:
            raise ValueError("cannot compose permutations of different sizes")
        a, b = self.images, other.images
        return Permutation(a[b[i] - 1] for i in range(self.size))

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation(inv)

    def sign(self) -> int:
        return -1 if _inversion_parity(self.images) else 1

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least element."""
        seen = [False] * self.size
        out = []
        for start in range(1, self.size + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            cur = self(start)
            while cur != start:
                cyc.append(cur)
                seen[cur - 1] = True
                cur = self(cur)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)

    def to_json(self):
        return list(self.images)


def symmetric_group(k: int) -> Iterator[Permutation]:
    """All of S_k in lexicographic one-line order."""
    for img in itertools.permutations(range(1, k + 1)):
        yield Permutation(img)
