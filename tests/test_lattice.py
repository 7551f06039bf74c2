from __future__ import annotations

import itertools
import random
import tracemalloc
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quivermoduli import (
    ClassKind,
    GramLattice,
    classify,
    find_isotropic,
    pairing,
    signature,
    square,
    sublattice_gram,
)
from quivermoduli.errors import LatticeMismatchError, PrimitivityError
from quivermoduli.lattice import _int_det

from genutil import fraction_det, random_even_lattice


class TestPairing:
    def test_hyperbolic_basis(self, hyperbolic):
        assert pairing(hyperbolic.vector((1, 0)), hyperbolic.vector((0, 1))) == 1

    def test_hyperbolic_diagonal(self, hyperbolic):
        v = hyperbolic.vector((1, 1))
        assert pairing(v, v) == 2

    def test_mukai_style(self, mukai3):
        v = mukai3.vector((1, 0, 1))
        assert pairing(v, v) == -2

    def test_lattice_mismatch(self, hyperbolic, mukai3):
        with pytest.raises(LatticeMismatchError):
            pairing(hyperbolic.vector((1, 0)), mukai3.vector((1, 0, 0)))


class TestSquare:
    def test_positive(self, mukai3):
        assert square(mukai3.vector((1, 0, -1))) == 2

    def test_zero_vector(self, mukai3):
        assert square(mukai3.zero()) == 0

    def test_spherical(self, mukai3):
        assert square(mukai3.vector((1, 0, 1))) == -2


class TestClassify:
    def test_spherical(self, mukai3):
        assert classify(mukai3.vector((1, 0, 1))) == ClassKind.SPHERICAL

    def test_zero(self, mukai3):
        assert classify(mukai3.zero()) == ClassKind.ZERO

    def test_positive(self, mukai3):
        v = mukai3.vector((1, 1, -2))
        assert square(v) == 6
        assert classify(v) == ClassKind.POSITIVE

    def test_isotropic(self, hyperbolic):
        assert classify(hyperbolic.vector((1, 0))) == ClassKind.ISOTROPIC

    def test_other_negative(self, hyperbolic):
        v = hyperbolic.vector((1, -2))
        assert square(v) == -4
        assert classify(v) == ClassKind.OTHER_NEGATIVE


class TestSignature:
    def test_hyperbolic(self, hyperbolic):
        assert signature(hyperbolic) == (1, 1, 0)

    def test_rank_one(self):
        assert signature(GramLattice(((2,),))) == (1, 0, 0)

    def test_diagonal(self):
        assert signature(GramLattice(((-2, 0), (0, 2)))) == (1, 1, 0)

    def test_degenerate(self):
        assert signature(GramLattice(((0, 0), (0, 2)))) == (1, 0, 1)

    def test_counts_sum_to_rank(self):
        rng = random.Random(7)
        for _ in range(50):
            lat = random_even_lattice(rng)
            assert sum(signature(lat)) == lat.rank

    def test_invariant_under_unimodular_change(self):
        rng = random.Random(11)
        for _ in range(40):
            lat = random_even_lattice(rng)
            n = lat.rank
            # Random product of elementary row operations: unimodular.
            basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for _ in range(6):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    c = rng.randint(-2, 2)
                    for k in range(n):
                        basis[i][k] += c * basis[j][k]
            gram = tuple(
                tuple(
                    pairing(lat.vector(basis[i]), lat.vector(basis[j]))
                    for j in range(n)
                )
                for i in range(n)
            )
            assert signature(GramLattice(gram)) == signature(lat)


def fraction_signature(gram):
    """Reference: symmetric congruence reduction over Q with Fraction
    division, the sign counts of the diagonal it reaches."""
    n = len(gram)
    m = [[Q(x) for x in row] for row in gram]
    pos = neg = zero = 0
    for k in range(n):
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
                for j in range(n):
                    m[k][j] += m[other][j]
                for i in range(n):
                    m[i][k] += m[i][other]
        pivot = m[k][k]
        pos, neg = (pos + 1, neg) if pivot > 0 else (pos, neg + 1)
        for i in range(k + 1, n):
            c = m[i][k] / pivot
            m[i] = [x - c * y for x, y in zip(m[i], m[k])]
            for row in m:
                row[i] -= c * row[k]
    return pos, neg, zero


@st.composite
def symmetric_matrices(draw):
    """Ranks 1-5: symmetric matrices with many zero entries, or
    transpose(B) . diag(d) . B, often singular, with larger entries."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        entries = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -7))
        upper = {(i, j): draw(entries) for i in range(n) for j in range(i, n)}
        return tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))
    k = draw(st.integers(1, n))
    b = [[draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(k)]
    d = [draw(st.integers(-5, 5)) for _ in range(k)]
    return tuple(
        tuple(sum(b[r][i] * d[r] * b[r][j] for r in range(k)) for j in range(n))
        for i in range(n)
    )


@settings(max_examples=400, deadline=None)
@given(gram=symmetric_matrices())
def test_signature_matches_fraction_reference(gram):
    assert signature(GramLattice(gram)) == fraction_signature(gram)


@st.composite
def square_matrices(draw):
    """Sizes 0-6: free integer entries, or a matrix with one row a
    combination of two others, so singular ones are common."""
    n = draw(st.integers(0, 6))
    rows = [[draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
    if n >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[k] = [s * x + t * y for x, y in zip(rows[i], rows[j])]
    return rows


@settings(max_examples=400, deadline=None)
@given(rows=square_matrices())
@example(rows=[])
@example(rows=[[0, 1], [1, 0]])
@example(rows=[[0, 0, 1], [0, 1, 0], [1, 0, 0]])
@example(rows=[[2, 4], [1, 2]])
def test_int_det_matches_fraction_reference(rows):
    before = [list(row) for row in rows]
    assert _int_det(rows) == fraction_det(rows)
    assert rows == before  # the caller's matrix is not eliminated in place


class TestFindIsotropic:
    def test_hyperbolic(self, hyperbolic):
        v = find_isotropic(hyperbolic, 1)
        assert v is not None and square(v) == 0 and not v.is_zero()
        assert v.coords == (1, 0)

    def test_definite_has_none(self):
        assert find_isotropic(GramLattice(((2,),)), 10) is None

    def test_indefinite_diagonal(self):
        v = find_isotropic(GramLattice(((-2, 0), (0, 2))), 2)
        assert v.coords == (1, 1)

    def test_zero_form_answers_its_first_cell(self):
        # Every cell is isotropic, so nothing past the first is looked at.
        for rank in (1, 2, 3):
            tracemalloc.start()
            try:
                v = find_isotropic(GramLattice(((0,) * rank,) * rank), 499)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert v.coords == (1,) * rank
            assert peak < 1_000_000

    def test_bound_validation(self, hyperbolic):
        with pytest.raises(ValueError):
            find_isotropic(hyperbolic, 0)

    def test_agrees_with_brute_force(self):
        rng = random.Random(3)
        for _ in range(25):
            lat = random_even_lattice(rng, max_rank=3)
            bound = rng.randint(1, 2)
            got = find_isotropic(lat, bound)
            exists = any(
                square(lat.vector(c)) == 0
                for c in itertools.product(range(-bound, bound + 1), repeat=lat.rank)
                if any(c)
            )
            if got is None:
                assert not exists
            else:
                assert exists and square(got) == 0 and not got.is_zero()
                assert max(abs(c) for c in got.coords) <= bound


@st.composite
def lattice_and_vectors(draw, count=2):
    rank = draw(st.integers(1, 4))
    entries = st.integers(-5, 5)
    upper = draw(
        st.lists(
            st.lists(entries, min_size=rank, max_size=rank),
            min_size=rank,
            max_size=rank,
        )
    )
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = 2 * upper[i][i]  # keep the diagonal even
        for j in range(i + 1, rank):
            gram[i][j] = gram[j][i] = upper[i][j]
    lat = GramLattice(tuple(tuple(row) for row in gram), even=True)
    vecs = [
        lat.vector(draw(st.lists(entries, min_size=rank, max_size=rank)))
        for _ in range(count)
    ]
    return lat, vecs


@settings(max_examples=120, deadline=None)
@given(lattice_and_vectors(count=2))
def test_pairing_symmetry(data):
    _, (a, b) = data
    assert pairing(a, b) == pairing(b, a)


@settings(max_examples=120, deadline=None)
@given(lattice_and_vectors(count=3))
def test_pairing_bilinearity(data):
    _, (a, b, c) = data
    assert pairing(a + b, c) == pairing(a, c) + pairing(b, c)


@settings(max_examples=120, deadline=None)
@given(lattice_and_vectors(count=1))
def test_even_lattice_squares(data):
    _, (v,) = data
    assert square(v) % 2 == 0


class TestSublattice:
    def test_primitive_basis(self, mukai3):
        sub = sublattice_gram(
            mukai3, [mukai3.vector((1, 0, 0)), mukai3.vector((0, 1, 0))]
        )
        assert sub.gram == ((0, 0), (0, 2))

    def test_imprimitive_basis_rejected(self, mukai3):
        with pytest.raises(PrimitivityError):
            sublattice_gram(
                mukai3, [mukai3.vector((2, 0, 0)), mukai3.vector((0, 2, 0))]
            )

    def test_foreign_vector_rejected(self, mukai3, hyperbolic):
        with pytest.raises(LatticeMismatchError):
            sublattice_gram(mukai3, [hyperbolic.vector((1, 0))])

    def test_rank_zero_ambient(self):
        # A foreign vector is a lattice mismatch here too, not a
        # primitivity failure of an empty minor set.
        ambient = GramLattice(())
        assert sublattice_gram(ambient, []).gram == ()
        with pytest.raises(LatticeMismatchError):
            sublattice_gram(ambient, [GramLattice(((2,),)).vector((1,))])


def test_vector_arithmetic(mukai3):
    a = mukai3.vector((1, 2, 3))
    b = mukai3.vector((0, 1, -1))
    assert (a + b).coords == (1, 3, 2)
    assert (a - b).coords == (1, 1, 4)
    assert (2 * a).coords == (2, 4, 6)
    assert (-a).coords == (-1, -2, -3)


def test_vector_length_checked(mukai3):
    with pytest.raises(LatticeMismatchError):
        mukai3.vector((1, 2))


def test_gram_must_be_symmetric():
    with pytest.raises(LatticeMismatchError):
        GramLattice(((0, 1), (2, 0)))


def test_even_flag_checks_diagonal():
    with pytest.raises(LatticeMismatchError):
        GramLattice(((1,),), even=True)
