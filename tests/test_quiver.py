from __future__ import annotations

import random
import sys
import tracemalloc
from fractions import Fraction as Q

import pytest

from quivermoduli import (
    CharacterPoint,
    DoubleQuiverRep,
    ExtQuiver,
    GramLattice,
    LatticeVector,
    PolystableDecomposition,
    WeightedFiltration,
    build_ext_quiver,
    enumerate_positive_roots,
    enumerate_walls,
    expected_dimension,
    is_positive_root,
    num_parameters,
    pairing,
    pairwise_merge_check,
    quadratic_form,
    simple_rep_exists,
    square,
    wall_correspondence_holds,
)
from quivermoduli.errors import (
    BudgetExceededError,
    DegenerateValueError,
    HomNonvanishingError,
    LatticeMismatchError,
    MalformedSummandError,
)

from quivermoduli.quiver import DEFAULT_ROOT_BUDGET, _cells, _connected
from quivermoduli.stability import GaussianRational

from genutil import (
    basis_decomposition,
    random_decomposition,
    random_gram_decomposition,
    reference_combination,
    reference_ext_quiver,
    reference_support,
    reference_validate,
    stratum_corpus,
)

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


def gram_decompositions():
    """The stratum corpus as decompositions, then 30 seeded ones of each
    size 1-5 whose classes are not basis classes."""
    rng = random.Random(23)
    yield from (basis_decomposition(gram, mults) for gram, mults, _ in stratum_corpus())
    for size in range(1, 6):
        for _ in range(30):
            yield random_gram_decomposition(rng, size)


def outcome(build, summands):
    """None when ``build`` accepts the summands, else the exception's
    type and message."""
    try:
        build(summands)
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestSummandGram:
    def test_gram_is_the_pairing_of_the_classes(self):
        sizes = set()
        for dec in gram_decompositions():
            sizes.add(dec.size)
            assert dec._gram == tuple(
                tuple(pairing(a, b) for b in dec.classes) for a in dec.classes
            )
            assert dec.classes == tuple(v for v, _ in dec.summands)
            assert dec.multiplicities == tuple(n for _, n in dec.summands)
            assert build_ext_quiver(dec) == reference_ext_quiver(dec)
        assert sizes == {1, 2, 3, 4, 5}

    def test_combination_matches_scalar_multiples(self):
        rng = random.Random(29)
        for dec in gram_decompositions():
            coeffs = [rng.randint(-3, 3) for _ in range(dec.size)]
            assert dec.combination(coeffs) == reference_combination(dec, coeffs)
            assert dec.total() == reference_combination(dec, dec.multiplicities)
        dec = spherical_pair(1)
        for coeffs in ((1,), (1, 2, 3)):
            expected = outcome(lambda c: reference_combination(dec, c), coeffs)
            assert outcome(dec.combination, coeffs) == expected
            assert expected[0] is MalformedSummandError

    @pytest.mark.parametrize("faults, expected", [
        ([((1, 0), 1), ((0, 1), 0)], "summand (1, 0) has square -4; need an even square >= -2"),
        ([((1, 0), 0), ((0, 1), 1)], "multiplicity 0 is not positive"),
        ([((1, 0), 1), ((1, 0), 1)], "summand (1, 0) has square -4; need an even square >= -2"),
        ([((0, 1), 1), ((0, 1), 1)], "duplicate summand class (0, 1)"),
        ([((0, 1), 1), ((1, 1), 1), ((1, 0), -1)], "summand (1, 1) has square -4; need an even square >= -2"),
        ([((0, 1), 1), ((0, 2), 1), ((1, 0), 2)], "summand (1, 0) has square -4; need an even square >= -2"),
    ])
    def test_the_first_fault_in_summand_order_is_reported(self, faults, expected):
        # Square -4 at (1, 0), square 2 at (0, 1), and they pair to -1.
        lat = GramLattice(((-4, -1), (-1, 2)))
        summands = [(lat.vector(c), n) for c, n in faults]
        assert outcome(PolystableDecomposition.of, summands) == (MalformedSummandError, expected)
        assert outcome(reference_validate, summands) == (MalformedSummandError, expected)

    def test_negative_pairings_are_reported_after_every_summand_check(self):
        lat = GramLattice(((-2, -1, 0), (-1, -2, 0), (0, 0, 0)))
        summands = [(lat.vector((1, 0, 0)), 1), (lat.vector((0, 1, 0)), 1)]
        expected = (HomNonvanishingError, "summands 0 and 1 pair to -1 < 0")
        assert outcome(PolystableDecomposition.of, summands) == expected
        summands.append((lat.vector((0, 0, 1)), 0))
        expected = (MalformedSummandError, "multiplicity 0 is not positive")
        assert outcome(PolystableDecomposition.of, summands) == expected

    def test_faults_match_the_reference_validation(self):
        # Random summand lists with several faults at once: odd and too
        # negative squares, multiplicities below 1, duplicates, a class
        # of another lattice and negative pairings.
        rng = random.Random(31)
        kinds = set()
        for _ in range(3000):
            r = rng.randint(1, 3)
            gram = [[0] * r for _ in range(r)]
            for i in range(r):
                gram[i][i] = rng.randint(-5, 4)
                for j in range(i):
                    gram[i][j] = gram[j][i] = rng.randint(-2, 2)
            lat = GramLattice(tuple(map(tuple, gram)))
            other = GramLattice(tuple(tuple(x + (i == j) for j, x in enumerate(row))
                                      for i, row in enumerate(lat.gram)))
            summands = []
            for _ in range(rng.randint(0, 4)):
                if summands and rng.random() < 0.15:
                    v = rng.choice(summands)[0]
                else:
                    v = (other if rng.random() < 0.1 else lat).vector(
                        rng.randint(-1, 1) for _ in range(r))
                summands.append((v, rng.choice((-1, 0, 1, 1, 2))))
            expected = outcome(reference_validate, summands)
            assert outcome(PolystableDecomposition.of, summands) == expected
            kinds.add(expected if expected is None else (expected[0], expected[1].split()[0]))
        assert kinds == {
            None,
            (HomNonvanishingError, "summands"),
            (MalformedSummandError, "decomposition"),
            (MalformedSummandError, "summands"),
            (MalformedSummandError, "multiplicity"),
            (MalformedSummandError, "duplicate"),
            (MalformedSummandError, "summand"),
        }


def support_quivers():
    """Seeded quivers of 1-8 vertices: random ones, and per size one
    without arrows or loops, one with loops only, and one made of two
    blocks with no arrow between them."""
    rng = random.Random(37)
    for s in range(1, 9):
        yield ExtQuiver((0,) * s, ())
        yield ExtQuiver(tuple(rng.randint(1, 2) for _ in range(s)), ())
        cut = rng.randint(1, s)
        yield ExtQuiver(tuple(rng.randint(0, 2) for _ in range(s)), tuple(
            (i, j, rng.randint(1, 2)) for i in range(s) for j in range(i + 1, s)
            if (i < cut) == (j < cut) and rng.random() < 0.5))
        for _ in range(3):
            yield ExtQuiver(tuple(rng.randint(0, 2) for _ in range(s)), tuple(
                (i, j, rng.randint(1, 3)) for i in range(s) for j in range(i + 1, s)
                if rng.random() < 0.4))


def union_find_components(q, verts):
    """The partition of ``verts`` by the arrows with both ends in it, by
    union-find, sorted as ``components`` sorts it."""
    parent = {i: i for i in verts}

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j, _ in q.arrows:
        if i in parent and j in parent:
            parent[find(i)] = find(j)
    blocks = {}
    for i in verts:
        blocks.setdefault(find(i), []).append(i)
    return tuple(sorted(tuple(sorted(block)) for block in blocks.values()))


class TestSupportTable:
    def test_every_mask_matches_components_and_the_term_scan(self):
        # _connected and components run the same closure, so components is
        # also held to a partition computed apart from the library.  The
        # form sums every term; the scan keeps the terms on the support.
        rng = random.Random(41)
        for q in support_quivers():
            s = q.num_vertices
            for mask in range(1 << s):
                verts = [i for i in range(s) if mask >> i & 1]
                connected, terms = reference_support(q, mask)
                assert _connected(q, mask) is connected
                assert q._connectivity[mask] is connected
                alpha = tuple(rng.randint(1, 3) if mask >> i & 1 else 0 for i in range(s))
                assert quadratic_form(q, alpha) == sum(
                    c * alpha[i] * alpha[j] for i, j, c in terms)
                assert connected == (len(q.components(verts)) == 1)
                assert q.components(verts) == union_find_components(q, verts)
            assert q.components() == union_find_components(q, range(s))
        assert _connected(ExtQuiver((1,), ()), 0) is False


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
        assert q._neighbour_masks == (0b100, 0b100, 0b011, 0)
        assert q._neighbour_masks is q._neighbour_masks
        assert not hasattr(q, "adjacent") and not hasattr(q, "_adjacency")
        assert q.components() == ((0, 1, 2), (3,))
        assert q.components([0, 1, 3]) == ((0,), (1,), (3,))

    def test_identity_is_the_fields_alone(self):
        used, fresh = ExtQuiver((1, 0), ((0, 1, 2),)), ExtQuiver((1, 0), ((0, 1, 2),))
        used.arrow_list(), used.neg_cartan(), used._neighbour_masks, used.components()
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
        with pytest.raises(DegenerateValueError):
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

    @pytest.mark.parametrize("n,budget", [((10**9,), DEFAULT_ROOT_BUDGET), ((10**6,), 1000)])
    def test_budget_is_checked_before_the_box_is_built(self, n, budget):
        # (n) is a positive root of the one-loop quiver, so the splitting
        # table is reached; its per-coordinate key lists would hold n + 1 ints.
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="root box of size"):
                simple_rep_exists(ExtQuiver((1,), ()), n, budget=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("walk,expected", [
        (lambda q, n: sum(1 for _ in _cells(q, n, DEFAULT_ROOT_BUDGET)), 401 * 401 - 1),
        (enumerate_positive_roots, ((0, 1, 0), (1, 0, 0))),
    ], ids=["cells", "roots"])
    def test_the_walk_streams(self, walk, expected):
        # 160 801 cells in rows of one, within the default budget: the walk
        # holds one prefix state per coordinate, never its rows or prefixes.
        q, n = ExtQuiver((0, 0, 0), ()), (400, 400, 0)
        tracemalloc.start()
        try:
            result = walk(q, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == expected
        assert peak < 100_000


ENTRY_QUIVER = ExtQuiver((1, 0), ((0, 1, 1),))
ZERO_MAPS = (((Q(0),),),) * 2  # 1 x 1, for the loop and the arrow at n = (1, 1)

# Every public entry point that takes a dimension vector, called at n.
ENTRY_POINTS = {
    "quadratic_form": lambda n: quadratic_form(ENTRY_QUIVER, n),
    "expected_dimension": lambda n: expected_dimension(ENTRY_QUIVER, n),
    "num_parameters": lambda n: num_parameters(ENTRY_QUIVER, n),
    "is_positive_root-alpha": lambda n: is_positive_root(ENTRY_QUIVER, n, (3, 3)),
    "is_positive_root-n": lambda n: is_positive_root(ENTRY_QUIVER, (1, 1), n),
    "enumerate_positive_roots": lambda n: enumerate_positive_roots(ENTRY_QUIVER, n),
    "simple_rep_exists": lambda n: simple_rep_exists(ENTRY_QUIVER, n),
    "enumerate_walls": lambda n: enumerate_walls(ENTRY_QUIVER, n),
    "DoubleQuiverRep": lambda n: DoubleQuiverRep(ENTRY_QUIVER, n, ZERO_MAPS, ZERO_MAPS),
    "DoubleQuiverRep.zero": lambda n: DoubleQuiverRep.zero(ENTRY_QUIVER, n),
    "CharacterPoint": lambda n: CharacterPoint((1, -1), n),
    "CharacterPoint.dot": lambda n: CharacterPoint((1, -1), (1, 1)).dot(n),
    "CharacterPoint.slope": lambda n: CharacterPoint((1, -1), (1, 1)).slope(n),
}


class TestDimensionVectorEntries:
    """An entry that is not an int is refused, never truncated to an
    answer about another vector, such as (1, 1) for (1.9, 1)."""

    @pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    @pytest.mark.parametrize("entry", [1.9, 1.0, True, "1", Q(1)],
                             ids=["float", "integral-float", "bool", "str", "Fraction"])
    def test_non_int_entry_is_refused(self, call, entry):
        call((1, 1))
        with pytest.raises(ValueError) as refused:
            call((entry, 1))
        assert str(refused.value) == f"dimension vector entries must be ints, not {entry!r}"

    def test_length_and_negativity_are_unchanged(self):
        with pytest.raises(LatticeMismatchError):
            quadratic_form(ENTRY_QUIVER, (1, 1, 1))
        with pytest.raises(LatticeMismatchError):
            CharacterPoint((1, -1), (1, 1, 1))
        assert quadratic_form(ENTRY_QUIVER, (-1, 1)) == -4
        assert enumerate_positive_roots(ENTRY_QUIVER, (-1, 3)) == ()
        assert simple_rep_exists(ENTRY_QUIVER, (-1, 1)).reason == "not a positive root"


FIELD_LAT = GramLattice(((2, 1), (1, -2)), even=True)
FIELD_DEC = PolystableDecomposition.of([(FIELD_LAT.vector((1, 0)), 1)])

# Every integer field of a value constructor, and every integer vector
# a method takes, other than a dimension vector, with the noun its
# refusal names; each is called with x in one entry, and x = 1 is valid.
INTEGER_FIELDS = {
    "GramLattice": (lambda x: GramLattice(((x, 0), (0, 1))), "Gram matrix entries"),
    "GramLattice.vector": (lambda x: FIELD_LAT.vector((x, 0)), "lattice vector coordinates"),
    "LatticeVector": (lambda x: LatticeVector((0, x), FIELD_LAT), "lattice vector coordinates"),
    "scalar-times-vector": (lambda x: x * FIELD_LAT.vector((1, 0)), "scalars"),
    "multiplicity": (lambda x: PolystableDecomposition.of([(FIELD_LAT.vector((1, 0)), x)]),
                     "multiplicities"),
    "combination": (lambda x: FIELD_DEC.combination((x,)), "coefficients"),
    "filtration-weight": (lambda x: WeightedFiltration(((x, FIELD_LAT.vector((1, 0))),)),
                          "filtration weights"),
    "loop-count": (lambda x: ExtQuiver((0, x), ()), "loop counts"),
    "arrow-source": (lambda x: ExtQuiver((0, 0, 0), ((x, 2, 1),)), "arrow entries"),
    "arrow-target": (lambda x: ExtQuiver((0, 0), ((0, x, 1),)), "arrow entries"),
    "arrow-multiplicity": (lambda x: ExtQuiver((0, 0), ((0, 1, x),)), "arrow entries"),
    "wall_correspondence_holds": (
        lambda x: wall_correspondence_holds((x,), (), GaussianRational.of(0, 1), FIELD_DEC),
        "coefficients"),
}


class TestIntegerFields:
    """The dimension-vector rule holds for every integer input: an entry
    that is not an int is refused, never truncated to an answer about
    another lattice, quiver or class."""

    @pytest.mark.parametrize("call, what", INTEGER_FIELDS.values(), ids=INTEGER_FIELDS.keys())
    @pytest.mark.parametrize("entry", [1.9, 1.0, True, "1", Q(1)],
                             ids=["float", "integral-float", "bool", "str", "Fraction"])
    def test_non_int_entry_is_refused(self, call, what, entry):
        call(1)
        with pytest.raises(ValueError) as refused:
            call(entry)
        assert str(refused.value) == f"{what} must be ints, not {entry!r}"


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
        with pytest.raises(DegenerateValueError):
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
