from __future__ import annotations

from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genutil import add, identity, inverse, matmul, matvec, sub, transpose
from quivermoduli import linalg
from quivermoduli.errors import ShapeMismatchError


def M(*rows):
    return linalg.matrix(rows)


class TestBasicOps:
    def test_matmul(self):
        a = M((1, 2), (3, 4))
        b = M((0, 1), (1, 0))
        assert matmul(a, b) == M((2, 1), (4, 3))

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeMismatchError):
            matmul(M((1, 2),), M((1, 2),))

    def test_add_sub_scale(self):
        a = M((1, 2), (3, 4))
        assert sub(add(a, a), a) == a
        assert add(a, a) == M((2, 4), (6, 8))

    def test_transpose_trace(self):
        a = M((1, 2), (3, 4))
        assert transpose(a) == M((1, 3), (2, 4))
        assert linalg.trace(a) == 5
        with pytest.raises(ShapeMismatchError):
            linalg.trace(M((1, 2),))

    def test_matvec(self):
        a = M((1, 2), (3, 4))
        assert matvec(a, (Q(1), Q(-1))) == (Q(-1), Q(-1))
        assert matvec((), (Q(1), Q(2))) == ()

    def test_ragged_rejected(self):
        with pytest.raises(ShapeMismatchError):
            linalg.matrix(((1, 2), (3,)))


@given(st.lists(st.fractions(max_denominator=30) | st.integers(-50, 50), max_size=6))
def test_clear_matches_fraction_reference(entries):
    den, nums = linalg.clear(entries)
    assert den > 0 and gcd(den, *nums) == 1
    assert tuple(Q(x, den) for x in nums) == tuple(Q(x) for x in entries)


@given(st.lists(st.integers(-60, 60), max_size=6))
def test_primitive_matches_fraction_reference(v):
    prim = linalg.primitive(v)
    if not any(v):
        assert prim == tuple(v)
        return
    assert gcd(*prim) == 1
    # A positive multiple: every entry scaled by one positive rational.
    ratios = {Q(a, b) for a, b in zip(v, prim) if b}
    assert len(ratios) == 1 and ratios.pop() > 0
    assert all(a == 0 for a, b in zip(v, prim) if b == 0)


class TestRowSpace:
    def test_incremental_growth(self):
        space = linalg.RowSpace(3)
        assert space.add((1, 1, 0))
        assert not space.add((2, 2, 0))
        assert space.add((0, 0, 1))
        assert space.dim == 2
        assert space.contains((3, 3, 5))
        assert not space.contains((1, 0, 0))

    def test_copy_is_independent(self):
        space = linalg.RowSpace(2, [(1, 0)])
        other = space.copy()
        other.add((0, 1))
        assert space.dim == 1 and other.dim == 2
        assert other.dim == other.ambient_dim

    def test_reduced_basis_is_canonical(self):
        a = linalg.RowSpace(3, [(1, 2, 3), (0, 1, 1)])
        b = linalg.RowSpace(3, [(2, 5, 7), (1, 3, 4)])
        assert a.basis() == b.basis()

    def test_length_checked(self):
        with pytest.raises(ShapeMismatchError):
            linalg.RowSpace(2).add((1, 0, 0))


class TestRankInverse:
    """Rank through ``RowSpace``; ``inverse`` is the test-suite helper
    the equivariance oracles rely on."""

    def test_rank(self):
        assert linalg.RowSpace(2, M((1, 2), (2, 4))).dim == 1
        assert linalg.RowSpace(2, M((1, 0), (0, 1))).dim == 2
        assert linalg.RowSpace(0, ()).dim == 0

    def test_inverse_roundtrip(self):
        a = M((1, 2), (3, 5))
        inv = inverse(a)
        assert matmul(a, inv) == identity(2)
        assert matmul(inv, a) == identity(2)

    def test_singular_rejected(self):
        with pytest.raises(ShapeMismatchError):
            inverse(M((1, 2), (2, 4)))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatchError):
            inverse(M((1, 2),))
