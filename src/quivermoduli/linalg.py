"""Exact rational linear algebra on tuple-based matrices.

Matrices are immutable tuples of row tuples with ``Fraction`` entries.
``RowSpace`` computes on integers and hands back rationals.  Everything
here is exact; nothing ever touches floating point.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import ShapeMismatchError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vector(entries: Iterable) -> Vec:
    return tuple(Fraction(e) for e in entries)


def matrix(rows: Iterable[Iterable]) -> Mat:
    mat = tuple(vector(row) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ShapeMismatchError("ragged matrix")
    return mat


def zeros(nrows: int, ncols: int) -> Mat:
    return tuple((Fraction(0),) * ncols for _ in range(nrows))


def shape(a: Mat) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def add(a: Mat, b: Mat) -> Mat:
    if shape(a) != shape(b):
        raise ShapeMismatchError(f"cannot add {shape(a)} and {shape(b)}")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a: Mat, b: Mat) -> Mat:
    if shape(a) != shape(b):
        raise ShapeMismatchError(f"cannot subtract {shape(a)} and {shape(b)}")
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def matmul(a: Mat, b: Mat) -> Mat:
    na, ma = shape(a)
    nb, mb = shape(b)
    if ma != nb:
        raise ShapeMismatchError(f"cannot multiply {shape(a)} by {shape(b)}")
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def matvec(a: Mat, v: Vec) -> Vec:
    if not a:
        return ()
    n, m = shape(a)
    if m != len(v):
        raise ShapeMismatchError(f"cannot apply {shape(a)} to length-{len(v)} vector")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a: Mat) -> Mat:
    n, m = shape(a)
    return tuple(tuple(a[i][j] for i in range(n)) for j in range(m))


def trace(a: Mat) -> Fraction:
    n, m = shape(a)
    if n != m:
        raise ShapeMismatchError("trace of a non-square matrix")
    return sum((a[i][i] for i in range(n)), Fraction(0))


def is_zero_matrix(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)


def _cleared(entries: Iterable) -> tuple[int, ...]:
    """Rational entries times the lcm of their denominators: a positive
    multiple of the vector in Z^n."""
    entries = [Fraction(x) for x in entries]
    den = lcm(*(x.denominator for x in entries))
    return tuple(x.numerator * (den // x.denominator) for x in entries)


class RowSpace:
    """A subspace of Q^n kept as primitive integer echelon rows.

    The rows are fully reduced: each row's pivot entry is positive, its
    entries have gcd 1, and every other row is zero in its pivot column.
    ``add`` eliminates fraction-free (Bareiss-style cross
    multiplication by the cofactors of the two pivot entries) and
    divides the gcd out of every row it stores or rewrites, so no
    ``Fraction`` is built until ``basis`` divides each row by its pivot
    to give the reduced row-echelon basis over Q.
    """

    def __init__(self, ambient_dim: int, rows: Iterable[Sequence] = ()):
        self.ambient_dim = ambient_dim
        # Sorted by pivot column.  A row is replaced, never edited in
        # place, so copies can share rows.
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []
        self._basis: Optional[Mat] = None
        for row in rows:
            self.add(row)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _integral(self, v: Sequence) -> tuple[int, ...]:
        if len(v) != self.ambient_dim:
            raise ShapeMismatchError(
                f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
            )
        return _cleared(v)

    def _reduce(self, w: Sequence[int]) -> Sequence[int]:
        """A positive multiple of ``w`` minus its part in the span; it
        vanishes on every pivot column."""
        for row, piv in zip(self._rows, self._pivots):
            c = w[piv]
            if c:
                d = row[piv]
                g = gcd(c, d)
                w = [d // g * a - c // g * b for a, b in zip(w, row)]
        return w

    def contains(self, v: Sequence) -> bool:
        return not any(self._reduce(self._integral(v)))

    def add(self, v: Sequence) -> bool:
        """Absorb ``v``; return True when the dimension grew."""
        return self._absorb(self._integral(v))

    def _absorb(self, w: Sequence[int]) -> bool:
        """``add`` for an integer vector of the right length."""
        w = self._reduce(w)
        for piv, x in enumerate(w):
            if x:
                break
        else:
            return False
        g = gcd(*w)
        if w[piv] < 0:
            g = -g
        w = [a // g for a in w]
        # Clear the new pivot column from the existing rows to stay
        # fully reduced; their own pivots keep their sign.
        for k, row in enumerate(self._rows):
            c = row[piv]
            if c:
                g = gcd(c, w[piv])
                c, d = c // g, w[piv] // g
                row = [d * a - c * b for a, b in zip(row, w)]
                g = gcd(*row)
                self._rows[k] = [a // g for a in row]
        at = bisect_left(self._pivots, piv)
        self._rows.insert(at, w)
        self._pivots.insert(at, piv)
        self._basis = None
        return True

    def basis(self) -> Mat:
        """The reduced row-echelon basis over Q."""
        if self._basis is None:
            self._basis = tuple(
                tuple(Fraction(a, row[piv]) for a in row)
                for row, piv in zip(self._rows, self._pivots)
            )
        return self._basis

    def copy(self) -> "RowSpace":
        out = RowSpace(self.ambient_dim)
        out._rows = self._rows[:]
        out._pivots = self._pivots[:]
        out._basis = self._basis
        return out
