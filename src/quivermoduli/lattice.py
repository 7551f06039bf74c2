"""Integral lattices with a symmetric bilinear pairing.

A :class:`GramLattice` is an arbitrary integral symmetric Gram matrix;
:class:`LatticeVector` is an integer class in it.  The pairing is the
only structure anything downstream ever uses, so Mukai-type lattices
are simply instances with the appropriate Gram matrix.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Iterator, Optional

from .errors import InternalInvariantError, LatticeMismatchError, PrimitivityError


class ClassKind(enum.Enum):
    SPHERICAL = "spherical"      # v^2 = -2
    ISOTROPIC = "isotropic"      # v^2 = 0, v != 0
    POSITIVE = "positive"        # v^2 > 0
    OTHER_NEGATIVE = "other_negative"
    ZERO = "zero"


@dataclass(frozen=True)
class GramLattice:
    """An integral lattice given by its symmetric Gram matrix.

    ``even=True`` additionally asserts that all diagonal entries are
    even, which forces every vector square into 2Z.
    """

    gram: tuple[tuple[int, ...], ...]
    even: bool = False

    def __post_init__(self):
        gram = tuple(tuple(int(x) for x in row) for row in self.gram)
        object.__setattr__(self, "gram", gram)
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise LatticeMismatchError("Gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if gram[i][j] != gram[j][i]:
                    raise LatticeMismatchError("Gram matrix must be symmetric")
        if self.even and any(gram[i][i] % 2 != 0 for i in range(n)):
            raise LatticeMismatchError(
                "even lattice declared but a diagonal entry is odd"
            )

    @property
    def rank(self) -> int:
        return len(self.gram)

    def vector(self, coords: Iterable[int]) -> "LatticeVector":
        return LatticeVector(tuple(int(c) for c in coords), self)

    def basis_vector(self, k: int) -> "LatticeVector":
        return self.vector(tuple(1 if i == k else 0 for i in range(self.rank)))

    def zero(self) -> "LatticeVector":
        return self.vector((0,) * self.rank)


@dataclass(frozen=True)
class LatticeVector:
    coords: tuple[int, ...]
    lattice: GramLattice

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if len(self.coords) != self.lattice.rank:
            raise LatticeMismatchError(
                f"vector of length {len(self.coords)} in a rank-{self.lattice.rank} lattice"
            )

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        _same_lattice(self, other)
        return LatticeVector(
            tuple(a + b for a, b in zip(self.coords, other.coords)), self.lattice
        )

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        _same_lattice(self, other)
        return LatticeVector(
            tuple(a - b for a, b in zip(self.coords, other.coords)), self.lattice
        )

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(tuple(-a for a in self.coords), self.lattice)

    def __rmul__(self, c: int) -> "LatticeVector":
        return LatticeVector(tuple(int(c) * a for a in self.coords), self.lattice)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def _same_lattice(a: LatticeVector, b: LatticeVector) -> None:
    if a.lattice is not b.lattice and a.lattice != b.lattice:
        raise LatticeMismatchError("vectors belong to different lattices")


def _form(
    gram: tuple[tuple[int, ...], ...], a: tuple[int, ...], b: tuple[int, ...]
) -> int:
    """The bilinear form on raw coordinate tuples: transpose(a) . gram . b."""
    return sum(map(mul, a, [sum(map(mul, row, b)) for row in gram]))


def pairing(a: LatticeVector, b: LatticeVector) -> int:
    """Evaluate the bilinear form: transpose(a) . gram . b."""
    _same_lattice(a, b)
    return _form(a.lattice.gram, a.coords, b.coords)


def square(v: LatticeVector) -> int:
    return pairing(v, v)


def classify(v: LatticeVector) -> ClassKind:
    if v.is_zero():
        return ClassKind.ZERO
    sq = square(v)
    if sq == -2:
        return ClassKind.SPHERICAL
    if sq == 0:
        return ClassKind.ISOTROPIC
    if sq > 0:
        return ClassKind.POSITIVE
    return ClassKind.OTHER_NEGATIVE


def signature(lat: GramLattice) -> tuple[int, int, int]:
    """Counts of (positive, negative, zero) eigenvalues.

    Computed by exact symmetric congruence reduction over Q; by
    Sylvester's law of inertia the sign counts of the resulting
    diagonal agree with the eigenvalue sign counts.
    """
    n = lat.rank
    m = [[Fraction(x) for x in row] for row in lat.gram]
    pos = neg = zero = 0
    for k in range(n):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if swap is not None:
                for j in range(n):
                    m[k][j], m[swap][j] = m[swap][j], m[k][j]
                for i in range(n):
                    m[i][k], m[i][swap] = m[i][swap], m[i][k]
            else:
                other = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if other is None:
                    zero += 1
                    continue
                # Row/column addition keeps congruence and makes the
                # diagonal entry 2*m[k][other] != 0.
                for j in range(n):
                    m[k][j] += m[other][j]
                for i in range(n):
                    m[i][k] += m[i][other]
        pivot = m[k][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if m[i][k] != 0:
                c = m[i][k] / pivot
                for j in range(n):
                    m[i][j] -= c * m[k][j]
                for j in range(n):
                    m[j][i] -= c * m[j][k]
    return (pos, neg, zero)


def iter_box(rank: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Nonzero integer tuples with sup-norm <= bound.

    Deterministic order: shells of growing sup-norm, each shell in
    descending lexicographic order, so small "positive" witnesses such
    as (1, 0) or (1, 1) come out first.  Each shell is generated
    directly, never filtered out of its cube.
    """
    for radius in range(1, bound + 1):
        yield from _shell(rank, radius)


def _shell(rank: int, radius: int) -> Iterator[tuple[int, ...]]:
    """Tuples of sup-norm exactly ``radius``, in descending lex order:
    a first coordinate of +-radius leaves the rest free, any other
    first coordinate needs the rest on the rank - 1 shell."""
    if rank < 1:
        return
    side = range(radius, -radius - 1, -1)
    rest = tuple(_shell(rank - 1, radius))
    for first in side:
        if first == radius or first == -radius:
            yield from itertools.product((first,), *[side] * (rank - 1))
        else:
            for tail in rest:
                yield (first,) + tail


def find_isotropic(lat: GramLattice, bound: int) -> Optional[LatticeVector]:
    """First nonzero v with v^2 = 0 in the sup-norm box, or None.

    Exhaustive over the box: a None answer certifies that no isotropic
    vector with all |coords| <= bound exists.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    gram = lat.gram
    for cand in iter_box(lat.rank, bound):
        if _form(gram, cand, cand) == 0:
            return lat.vector(cand)
    return None


def sublattice_gram(
    ambient: GramLattice, basis: Iterable[LatticeVector], even: bool = False
) -> GramLattice:
    """Gram matrix of the sublattice spanned by ``basis``.

    Requires the basis to be primitively embedded: the gcd of the
    maximal minors of the coordinate matrix must be 1, so the span is
    saturated in the ambient lattice.
    """
    vecs = list(basis)
    for v in vecs:
        _same_lattice(v, ambient.basis_vector(0)) if ambient.rank else None
    k = len(vecs)
    coords = [v.coords for v in vecs]
    minors = []
    for cols in itertools.combinations(range(ambient.rank), k):
        minors.append(_int_det([[row[c] for c in cols] for row in coords]))
    g = 0
    for m in minors:
        g = gcd(g, abs(m))
    if g != 1:
        raise PrimitivityError(
            f"sublattice basis is not primitive (minor gcd = {g})"
        )
    gram = tuple(
        tuple(pairing(vecs[i], vecs[j]) for j in range(k)) for i in range(k)
    )
    return GramLattice(gram, even=even)


def _int_det(rows: list[list[int]]) -> int:
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                c = m[r][col] / m[col][col]
                m[r] = [x - c * y for x, y in zip(m[r], m[col])]
    if det.denominator != 1:
        raise InternalInvariantError(f"integer matrix with determinant {det}")
    return int(det)
