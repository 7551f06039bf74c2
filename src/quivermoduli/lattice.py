"""Integral lattices with a symmetric bilinear pairing.

A :class:`GramLattice` is an arbitrary integral symmetric Gram matrix;
:class:`LatticeVector` is an integer class in it.  The pairing is the
only structure anything downstream ever uses, so Mukai-type lattices
are simply instances with the appropriate Gram matrix.

Box searches certify a sup-norm box and answer in its order
(``iter_box``).  In rank 2 they solve the conic q(x, y) = c exactly,
row by row (``_conic_points``), instead of walking the box; the
totally-semistable wall detector in ``stratum`` shares that solver.
Everything here is integer arithmetic.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import gcd, isqrt
from operator import mul
from typing import Iterable, Iterator, Optional

from .errors import InternalInvariantError, LatticeMismatchError, PrimitivityError
from .linalg import ints


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
        gram = tuple(ints(row, "Gram matrix entries") for row in self.gram)
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
        return LatticeVector(coords, self)

    def basis_vector(self, k: int) -> "LatticeVector":
        return self.vector(tuple(1 if i == k else 0 for i in range(self.rank)))

    def zero(self) -> "LatticeVector":
        return self.vector((0,) * self.rank)


@dataclass(frozen=True)
class LatticeVector:
    coords: tuple[int, ...]
    lattice: GramLattice

    def __post_init__(self):
        object.__setattr__(self, "coords", ints(self.coords, "lattice vector coordinates"))
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
        (c,) = ints((c,), "scalars")
        return LatticeVector(tuple(c * a for a in self.coords), self.lattice)

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

    Computed by symmetric congruence reduction over Z.  Each pivot p
    replaces the trailing block by |p| times its Schur complement: the
    congruence that clears row and column k by multiplying the other
    rows and columns by p instead of dividing by it, up to the positive
    factor |p|.  The block is then divided by the positive gcd of its
    entries.  Positive rescaling and invertible congruence keep the
    inertia, so by Sylvester's law the sign counts of the pivots agree
    with the eigenvalue sign counts.
    """
    n = lat.rank
    m = [list(row) for row in lat.gram]
    pos = neg = zero = 0
    for k in range(n):
        # Only the trailing block m[k:][k:] is live; entries left of it
        # are never read again.
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if swap is not None:
                m[k], m[swap] = m[swap], m[k]
                for row in m:
                    row[k], row[swap] = row[swap], row[k]
            else:
                other = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if other is None:
                    zero += 1
                    continue
                # Row/column addition keeps congruence and makes the
                # diagonal entry 2*m[k][other] != 0.
                for j in range(k, n):
                    m[k][j] += m[other][j]
                for i in range(k, n):
                    m[i][k] += m[i][other]
        pivot = m[k][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        sign = 1 if pivot > 0 else -1
        scale = sign * pivot
        row_k = m[k]
        rest = range(k + 1, n)
        g = 0
        for i in rest:
            row, c = m[i], sign * m[i][k]
            for j in rest:
                row[j] = scale * row[j] - c * row_k[j]
                g = gcd(g, row[j])
        if g > 1:
            for i in rest:
                row = m[i]
                for j in rest:
                    row[j] //= g
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
    vector with all |coords| <= bound exists.  A nonzero rank-2 form
    solves the conic row by row and takes the first point in box order;
    other forms walk the box, where the zero form stops at its first
    cell.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    gram = lat.gram
    if lat.rank == 2 and any(map(any, gram)):
        (a, b), (_, d) = gram
        first = min(_conic_points(a, b, d, 0, bound), key=_box_key, default=None)
        return None if first is None else lat.vector(first)
    for cand in iter_box(lat.rank, bound):
        if _form(gram, cand, cand) == 0:
            return lat.vector(cand)
    return None


def _box_key(p: tuple[int, int]) -> tuple[int, int, int]:
    """The box order of ``iter_box`` in rank 2: shells of growing
    sup-norm, each in descending lexicographic order."""
    return max(abs(p[0]), abs(p[1])), -p[0], -p[1]


def _conic_points(a: int, b: int, d: int, c: int, bound: int) -> list[tuple[int, int]]:
    """The nonzero (x, y) with sup-norm <= bound on the conic
    a x^2 + 2 b x y + d y^2 = c, for any integers a, b, d and c.

    Solved exactly row by row, in no particular order.  For a != 0 the
    row y has the roots x = (-b y +- r) / a with r^2 = y^2 (b^2 - a d) + a c.
    For a = 0 the row y is linear, 2 b y x = c - d y^2; where its
    coefficient 2 b y vanishes the row is constant, d y^2, and lies on
    the conic along its whole length or not at all.
    """
    disc_step = b * b - a * d
    if a and c == 0 and (disc_step < 0 or isqrt(disc_step) ** 2 != disc_step):
        return []  # y^2 (b^2 - a d) is a square only at y = 0, where x = 0
    points = []
    for y in range(-bound, bound + 1):
        if a:
            disc = y * y * disc_step + a * c
            if disc < 0:
                continue
            r = isqrt(disc)
            if r * r != disc:
                continue
            for num in {-b * y + r, -b * y - r}:
                if num % a == 0 and abs(num // a) <= bound and (num or y):
                    points.append((num // a, y))
            continue
        num, den = c - d * y * y, 2 * b * y
        if den:
            if num % den == 0 and abs(num // den) <= bound:
                points.append((num // den, y))
        elif num == 0:
            points.extend((x, y) for x in range(-bound, bound + 1) if x or y)
    return points


def sublattice_gram(
    ambient: GramLattice, basis: Iterable[LatticeVector], even: bool = False
) -> GramLattice:
    """Gram matrix of the sublattice spanned by ``basis``.

    Requires the basis to be primitively embedded: the gcd of the
    maximal minors of the coordinate matrix must be 1, so the span is
    saturated in the ambient lattice.
    """
    vecs = list(basis)
    if any(v.lattice is not ambient and v.lattice != ambient for v in vecs):
        raise LatticeMismatchError("basis vector is not in the ambient lattice")
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
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every entry stays an integer, and each division by the
    previous pivot is exact by Sylvester's identity."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        row_k, p = m[k], m[k][k]
        for r in range(k + 1, n):
            row, c = m[r], m[r][k]
            for j in range(k + 1, n):
                q, rem = divmod(p * row[j] - c * row_k[j], prev)
                if rem:
                    raise InternalInvariantError(
                        f"inexact Bareiss division by the pivot {prev}"
                    )
                row[j] = q
        prev = p
    return sign * prev
