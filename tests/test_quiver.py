from __future__ import annotations

import random
import sys

import pytest

from quivermoduli import (
    ExtQuiver,
    GramLattice,
    PolystableDecomposition,
    build_ext_quiver,
    enumerate_positive_roots,
    expected_dimension,
    is_positive_root,
    num_parameters,
    pairwise_merge_check,
    quadratic_form,
    simple_rep_exists,
    square,
)
from quivermoduli.errors import (
    BudgetExceededError,
    HomNonvanishingError,
    MalformedSummandError,
)

from genutil import random_decomposition

AFFINE_A1 = ExtQuiver((0, 0), ((0, 1, 2),))
TWO_LOOPS = ExtQuiver((2,), ())


def spherical_pair(pairing_value):
    lat = GramLattice(((-2, pairing_value), (pairing_value, -2)), even=True)
    return PolystableDecomposition.of(
        [(lat.vector((1, 0)), 1), (lat.vector((0, 1)), 1)]
    )


class TestBuildExtQuiver:
    def test_single_positive_summand(self):
        lat = GramLattice(((2,),), even=True)
        q = build_ext_quiver(
            PolystableDecomposition.of([(lat.vector((1,)), 1)])
        )
        assert q.loops == (2,) and q.arrows == ()
        assert len(q.arrow_list()) == 2

    def test_affine_a1_shape(self):
        q = build_ext_quiver(spherical_pair(2))
        assert q.loops == (0, 0)
        assert q.arrows == ((0, 1, 2),)
        assert q.neg_cartan() == ((-2, 2), (2, -2))

    def test_orthogonal_summands_disconnect(self):
        q = build_ext_quiver(spherical_pair(0))
        assert q.arrows == ()
        assert q.components() == ((0,), (1,))

    def test_odd_square_rejected(self):
        lat = GramLattice(((1,),))
        with pytest.raises(MalformedSummandError):
            PolystableDecomposition.of([(lat.vector((1,)), 1)])

    def test_too_negative_square_rejected(self):
        lat = GramLattice(((-4,),), even=True)
        with pytest.raises(MalformedSummandError):
            PolystableDecomposition.of([(lat.vector((1,)), 1)])

    def test_negative_pairing_rejected(self):
        lat = GramLattice(((-2, -1), (-1, -2)), even=True)
        with pytest.raises(HomNonvanishingError):
            PolystableDecomposition.of(
                [(lat.vector((1, 0)), 1), (lat.vector((0, 1)), 1)]
            )


class TestExtQuiverCaches:
    def test_built_once_per_quiver(self):
        q = ExtQuiver((1, 0), ((0, 1, 2),))
        assert q.arrow_list() is q.arrow_list()
        assert q.neg_cartan() is q.neg_cartan()
        assert q.neg_cartan() == ((0, 2), (2, -2))
        assert [(a.source, a.target, a.copy) for a in q.arrow_list()] == [
            (0, 0, 0), (0, 1, 0), (0, 1, 1),
        ]

    def test_adjacency_built_once(self):
        q = ExtQuiver((2, 0, 0, 1), ((0, 2, 1), (1, 2, 3), (0, 1, 0)))
        assert [q.adjacent(i) for i in range(4)] == [(2,), (2,), (0, 1), ()]
        assert q.adjacent(2) is q.adjacent(2)
        assert q.components() == ((0, 1, 2), (3,))
        assert q.components([0, 1, 3]) == ((0,), (1,), (3,))

    def test_identity_is_the_fields_alone(self):
        used, fresh = ExtQuiver((1, 0), ((0, 1, 2),)), ExtQuiver((1, 0), ((0, 1, 2),))
        used.arrow_list(), used.neg_cartan(), used.adjacent(0)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == "ExtQuiver(loops=(1, 0), arrows=((0, 1, 2),))"


class TestQuadraticForm:
    def test_affine_a1(self):
        assert quadratic_form(AFFINE_A1, (1, 1)) == 0

    def test_two_loops(self):
        assert quadratic_form(TWO_LOOPS, (1,)) == 2

    def test_zero_vector(self):
        assert quadratic_form(AFFINE_A1, (0, 0)) == 0

    def test_dimensions(self):
        assert expected_dimension(AFFINE_A1, (1, 1)) == 2
        assert num_parameters(AFFINE_A1, (1, 1)) == 1
        assert expected_dimension(TWO_LOOPS, (1,)) == 4
        assert expected_dimension(AFFINE_A1, (0, 0)) == 2
        assert num_parameters(AFFINE_A1, (0, 0)) == 1

    def test_agrees_with_lattice_square(self):
        rng = random.Random(17)
        for _ in range(60):
            dec = random_decomposition(rng, max_summands=3, entry_bound=3)
            q = build_ext_quiver(dec)
            n = dec.multiplicities
            assert quadratic_form(q, n) == square(dec.total())


class TestPositiveRoots:
    def test_single_vertex_support(self):
        assert is_positive_root(AFFINE_A1, (1, 0), (1, 1))

    def test_bound_violation(self):
        assert not is_positive_root(AFFINE_A1, (2, 1), (1, 1))

    def test_disconnected_support(self):
        q = ExtQuiver((0, 0), ())
        assert not is_positive_root(q, (1, 1), (1, 1))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_positive_root(AFFINE_A1, (0, 0), (1, 1))

    def test_enumerate_affine_a1(self):
        assert enumerate_positive_roots(AFFINE_A1, (1, 1)) == ((0, 1), (1, 0), (1, 1))

    def test_enumerate_filters_negative_expected_dim(self):
        q = ExtQuiver((0,), ())
        # (2) has quadratic form -8, so only (1) survives.
        assert enumerate_positive_roots(q, (2,)) == ((1,),)

    def test_enumerate_empty_box(self):
        assert enumerate_positive_roots(AFFINE_A1, (0, 0)) == ()

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_positive_roots(AFFINE_A1, (100, 100), budget=100)


class TestSimpleRepExists:
    def test_affine_a1_yes(self):
        verdict = simple_rep_exists(AFFINE_A1, (1, 1))
        assert verdict.exists
        assert num_parameters(AFFINE_A1, (1, 1)) == 1

    def test_single_arrow_pair_no(self):
        q = ExtQuiver((0, 0), ((0, 1, 1),))
        verdict = simple_rep_exists(q, (1, 1))
        assert not verdict.exists
        assert verdict.violating_parts == ((1, 0), (0, 1))

    def test_no_proper_splitting_vacuous_yes(self):
        assert simple_rep_exists(TWO_LOOPS, (1,)).exists

    def test_not_a_root(self):
        q = ExtQuiver((0, 0), ())
        verdict = simple_rep_exists(q, (1, 1))
        assert not verdict.exists and verdict.reason == "not a positive root"

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            simple_rep_exists(AFFINE_A1, (0, 0))

    def test_box_deeper_than_the_recursion_limit(self):
        # One loop: every alpha is a root with one parameter, so the
        # splitting into n copies of (1,) wins and no simple rep exists.
        n = sys.getrecursionlimit() + 1
        verdict = simple_rep_exists(ExtQuiver((1,), ()), (n,))
        assert not verdict.exists
        assert verdict.violating_parts == ((1,),) * n

    def test_monotone_under_adding_arrows(self):
        # Adding an arrow never flips an existence verdict to No.
        rng = random.Random(23)
        for _ in range(60):
            s = rng.randint(2, 3)
            loops = tuple(rng.randint(0, 2) for _ in range(s))
            arrows = []
            for i in range(s):
                for j in range(i + 1, s):
                    m = rng.randint(0, 2)
                    if m:
                        arrows.append((i, j, m))
            q = ExtQuiver(loops, tuple(arrows))
            n = tuple(rng.randint(0, 2) for _ in range(s))
            if not any(n):
                continue
            before = simple_rep_exists(q, n)
            i, j = sorted(rng.sample(range(s), 2))
            bumped = [
                (a, b, m + 1) if (a, b) == (i, j) else (a, b, m)
                for a, b, m in q.arrows
            ]
            if (i, j) not in {(a, b) for a, b, _ in q.arrows}:
                bumped.append((i, j, 1))
            q2 = ExtQuiver(loops, tuple(bumped))
            after = simple_rep_exists(q2, n)
            if before.exists:
                assert after.exists


class TestPairwiseMergeCheck:
    @pytest.mark.parametrize("pairing_value,expected", [(2, True), (1, False), (0, False)])
    def test_threshold(self, pairing_value, expected):
        lat = GramLattice(((-2, pairing_value), (pairing_value, -2)), even=True)
        assert (
            pairwise_merge_check(lat.vector((1, 0)), lat.vector((0, 1))) is expected
        )

    def test_matches_two_vertex_simple_existence(self):
        # On spherical or positive pairs, merging is equivalent to the
        # existence of a simple representation at multiplicities (1, 1).
        rng = random.Random(29)
        for _ in range(60):
            s1 = rng.choice((-2, 0, 2, 4))
            s2 = rng.choice((-2, 0, 2, 4))
            c = rng.randint(0, 4)
            lat = GramLattice(((s1, c), (c, s2)), even=True)
            v1, v2 = lat.vector((1, 0)), lat.vector((0, 1))
            if s1 < -2 or s2 < -2:
                continue
            dec = PolystableDecomposition.of([(v1, 1), (v2, 1)])
            q = build_ext_quiver(dec)
            assert pairwise_merge_check(v1, v2) == simple_rep_exists(q, (1, 1)).exists


def test_neg_cartan_permutation_invariance():
    rng = random.Random(31)
    for _ in range(40):
        dec = random_decomposition(rng, max_summands=4, entry_bound=3)
        q = build_ext_quiver(dec)
        perm = list(range(dec.size))
        rng.shuffle(perm)
        shuffled = PolystableDecomposition.of(dec.summands[i] for i in perm)
        q2 = build_ext_quiver(shuffled)
        d1, d2 = q.neg_cartan(), q2.neg_cartan()
        for a in range(dec.size):
            for b in range(dec.size):
                assert d2[a][b] == d1[perm[a]][perm[b]]


def test_arrow_list_is_canonical():
    q = ExtQuiver((1, 0, 2), ((0, 1, 2), (1, 2, 1)))
    arrows = q.arrow_list()
    assert [(a.source, a.target) for a in arrows] == [
        (0, 0), (2, 2), (2, 2), (0, 1), (0, 1), (1, 2),
    ]
    assert [a.index for a in arrows] == list(range(6))
