"""Exact rational linear algebra on tuple-based matrices.

Matrices are immutable tuples of row tuples with ``Fraction`` entries.
Everything here is exact; nothing ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

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


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


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


def scale(c, a: Mat) -> Mat:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


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


class RowSpace:
    """A subspace of Q^n kept as a reduced row-echelon basis.

    Supports incremental growth: ``add`` reduces the incoming vector
    against the current basis and absorbs any nonzero residual.
    """

    def __init__(self, ambient_dim: int, rows: Iterable[Sequence] = ()):
        self.ambient_dim = ambient_dim
        self._rows: list[list[Fraction]] = []  # sorted by pivot column
        self._pivots: list[int] = []
        for row in rows:
            self.add(row)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, v: Sequence) -> list[Fraction]:
        if len(v) != self.ambient_dim:
            raise ShapeMismatchError(
                f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
            )
        w = [Fraction(x) for x in v]
        for row, piv in zip(self._rows, self._pivots):
            if w[piv] != 0:
                c = w[piv]
                for j in range(piv, self.ambient_dim):
                    w[j] -= c * row[j]
        return w

    def contains(self, v: Sequence) -> bool:
        return all(x == 0 for x in self._reduce(v))

    def add(self, v: Sequence) -> bool:
        """Absorb ``v``; return True when the dimension grew."""
        w = self._reduce(v)
        piv = next((j for j, x in enumerate(w) if x != 0), None)
        if piv is None:
            return False
        lead = w[piv]
        w = [x / lead for x in w]
        # Back-substitute into the existing rows to stay fully reduced.
        for row in self._rows:
            c = row[piv]
            if c != 0:
                for j in range(piv, self.ambient_dim):
                    row[j] -= c * w[j]
        at = next(
            (k for k, p in enumerate(self._pivots) if p > piv), len(self._pivots)
        )
        self._rows.insert(at, w)
        self._pivots.insert(at, piv)
        return True

    def basis(self) -> Mat:
        return tuple(tuple(row) for row in self._rows)

    def copy(self) -> "RowSpace":
        out = RowSpace(self.ambient_dim)
        out._rows = [row[:] for row in self._rows]
        out._pivots = self._pivots[:]
        return out

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim


def rank(a: Mat) -> int:
    n, m = shape(a)
    space = RowSpace(m)
    for row in a:
        space.add(row)
    return space.dim


def inverse(a: Mat) -> Mat:
    n, m = shape(a)
    if n != m:
        raise ShapeMismatchError("inverse of a non-square matrix")
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ShapeMismatchError("singular matrix has no inverse")
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)
