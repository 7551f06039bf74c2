from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as Q

import pytest

from quivermoduli import cli
from quivermoduli import (
    GramLattice,
    HyperbolicPair,
    PolystableDecomposition,
    StabilityFunction,
    analyze_stratum,
    detect_totally_semistable,
    pairing,
    pairwise_merge_check,
    product_shape,
    square,
    stable_deformation_exists,
)
from quivermoduli.errors import (
    InternalInvariantError,
    LatticeMismatchError,
    NormalizationError,
)
from quivermoduli.scenario import to_wire
from quivermoduli.stability import GaussianRational as G
from quivermoduli.stratum import (
    HasStableDeformation,
    Inconclusive,
    ProductSplit,
    TotallySemistableShape,
)

from genutil import (
    STRATUM_CASES,
    basis_decomposition,
    positive_cone_member,
    stratum_corpus,
)


def imaginary_reference(lat, coefficients):
    """Stability function with vanishing real part: the shape of a
    reference point sitting on a wall."""
    return StabilityFunction(lat, tuple(G.of(0, c) for c in coefficients))


class TestHyperbolicPair:
    def test_valid(self):
        lat = GramLattice(((0, 1), (1, 0)))
        HyperbolicPair(lat, lat.vector((1, 1)))

    def test_wrong_rank(self):
        lat = GramLattice(((2,),))
        with pytest.raises(LatticeMismatchError):
            HyperbolicPair(lat, lat.vector((1,)))

    def test_wrong_signature(self):
        lat = GramLattice(((2, 0), (0, 2)))
        with pytest.raises(LatticeMismatchError):
            HyperbolicPair(lat, lat.vector((1, 0)))

    def test_nonpositive_class(self):
        lat = GramLattice(((0, 1), (1, 0)))
        with pytest.raises(LatticeMismatchError):
            HyperbolicPair(lat, lat.vector((1, 0)))

    def test_positive_cone(self):
        lat = GramLattice(((0, 1), (1, 0)))
        hp = HyperbolicPair(lat, lat.vector((1, 1)))
        assert positive_cone_member(hp, lat.vector((1, 0)))
        assert not positive_cone_member(hp, lat.vector((-1, 0)))


class TestDetectTotallySemistable:
    def test_isotropic_witness(self):
        lat = GramLattice(((0, 1), (1, 0)))
        hp = HyperbolicPair(lat, lat.vector((1, 1)))
        z0 = imaginary_reference(lat, (Q(1, 2), Q(1, 2)))
        result = detect_totally_semistable(hp, z0, 1)
        assert result.detected
        assert result.witness.criterion == "isotropic-pairing-one"
        assert result.witness.witness.coords == (1, 0)

    def test_spherical_witness(self):
        lat = GramLattice(((-2, 0), (0, 2)))
        v = lat.vector((1, 2))
        assert square(v) == 6
        hp = HyperbolicPair(lat, v)
        z0 = imaginary_reference(lat, (Q(1, 5), Q(2, 5)))
        result = detect_totally_semistable(hp, z0, 2)
        assert result.detected
        assert result.witness.criterion == "effective-spherical"
        s = result.witness.witness
        assert square(s) == -2 and pairing(v, s) < 0
        # effectivity under the default predicate
        assert (z0(s) / z0(v)).re > 0

    def test_not_detected_in_box(self):
        lat = GramLattice(((2, 0), (0, -2)))
        v = lat.vector((1, 0))
        hp = HyperbolicPair(lat, v)
        z0 = imaginary_reference(lat, (Q(1, 2), Q(-1, 7)))
        result = detect_totally_semistable(hp, z0, 1)
        assert not result.detected
        assert result.searched_bound == 1

    def test_witnesses_reverify(self):
        rng = random.Random(97)
        checked = 0
        for _ in range(600):
            a, b, d = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
            lat = GramLattice(((a, b), (b, d)))
            from quivermoduli import signature

            if signature(lat) != (1, 1, 0):
                continue
            v = lat.vector((rng.randint(-3, 3), rng.randint(-3, 3)))
            if square(v) <= 0:
                continue
            z0 = StabilityFunction(
                lat, tuple(G.of(0, Q(c)) for c in v.coords)
            )
            if z0(v).im <= 0:
                continue
            result = detect_totally_semistable(HyperbolicPair(lat, v), z0, 3)
            if not result.detected:
                continue
            checked += 1
            w = result.witness.witness
            if result.witness.criterion == "isotropic-pairing-one":
                assert square(w) == 0 and pairing(v, w) == 1
            else:
                assert square(w) == -2 and pairing(v, w) < 0
                assert (z0(w) / z0(v)).re > 0
        assert checked > 20

    def test_custom_effectivity_predicate(self):
        lat = GramLattice(((-2, 0), (0, 2)))
        v = lat.vector((1, 2))
        hp = HyperbolicPair(lat, v)
        z0 = imaginary_reference(lat, (Q(1, 5), Q(2, 5)))
        nothing_effective = lambda s: False
        result = detect_totally_semistable(hp, z0, 2, effectivity=nothing_effective)
        assert not result.detected

    def test_default_effectivity_is_positivity_against_center(self):
        # With Z0(v) in i*Q>0 the default predicate, read off the integer
        # numerator of Im Z0(s), is Re(Z0(s)/Z0(v)) > 0.
        from quivermoduli.stratum import _effective_against

        rng = random.Random(211)
        checked = 0
        for _ in range(300):
            lat = GramLattice(((-2, 1), (1, 2)))
            a, b = rng.randint(1, 3), rng.randint(-3, 3)
            v = lat.vector((a, b))
            x2 = Q(rng.randint(-3, 3), rng.randint(1, 3))
            y1, y2 = (Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2))
            z0 = StabilityFunction(lat, (G(-b * x2 / a, y1), G(x2, y2)))
            if z0(v).re != 0 or z0(v).im <= 0:
                continue
            effective = _effective_against(z0)
            for x in range(-3, 4):
                for y in range(-3, 4):
                    s = lat.vector((x, y))
                    assert effective(s) == ((z0(s) / z0(v)).re > 0)
                    checked += 1
        assert checked > 2000

    def test_custom_predicate_sees_spherical_candidates_in_box_order(self):
        from quivermoduli.lattice import iter_box

        rng = random.Random(223)
        for _ in range(200):
            a, b, d = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
            lat = GramLattice(((a, b), (b, d)))
            if a * d - b * b >= 0:
                continue  # not hyperbolic
            v = lat.vector((rng.randint(-3, 3), rng.randint(-3, 3)))
            if square(v) <= 0:
                continue
            hp = HyperbolicPair(lat, v)
            z0 = StabilityFunction(lat, tuple(G.of(0, Q(c)) for c in v.coords))
            if z0(v).im <= 0:
                continue
            seen = []
            result = detect_totally_semistable(
                hp, z0, 3, effectivity=lambda s: seen.append(s.coords) or False
            )
            box = [lat.vector(c) for c in iter_box(2, 3)]
            if any(square(w) == 0 and pairing(v, w) == 1 for w in box):
                assert result.detected and seen == []
            else:
                assert not result.detected
                assert seen == [
                    w.coords for w in box if square(w) == -2 and pairing(v, w) < 0
                ]

    def test_reference_must_be_imaginary(self):
        lat = GramLattice(((0, 1), (1, 0)))
        hp = HyperbolicPair(lat, lat.vector((1, 1)))
        z0 = StabilityFunction(lat, (G.of(1, 1), G.of(0, 1)))
        with pytest.raises(NormalizationError):
            detect_totally_semistable(hp, z0, 1)

    def test_ambient_sublattice_workflow(self):
        # Cut a rank-2 wall lattice out of a rank-3 ambient lattice by
        # a primitive basis, then run the detector inside it.
        from quivermoduli import sublattice_gram

        ambient = GramLattice(
            ((0, 0, -1), (0, 2, 0), (-1, 0, 0)), even=True
        )
        b1 = ambient.vector((1, 0, 0))
        b2 = ambient.vector((0, 0, 1))
        wall_lattice = sublattice_gram(ambient, [b1, b2], even=True)
        assert wall_lattice.gram == ((0, -1), (-1, 0))
        v = wall_lattice.vector((1, -1))  # square 2 in the sublattice
        assert square(v) == 2
        hp = HyperbolicPair(wall_lattice, v)
        z0 = imaginary_reference(wall_lattice, (Q(1, 2), Q(-1, 2)))
        result = detect_totally_semistable(hp, z0, 2)
        # (1, 0) is isotropic with <v, (1,0)> = 1: criterion A fires.
        assert result.detected
        assert result.witness.criterion == "isotropic-pairing-one"


def tree_decomposition(w_square, parents):
    """Positive class w (vertex 0) plus spherical vertices 1..t whose
    tree edges (pairing 1) are given by the parent list."""
    t = len(parents)
    size = t + 1
    gram = [[0] * size for _ in range(size)]
    gram[0][0] = w_square
    for i in range(1, size):
        gram[i][i] = -2
    for child, parent in enumerate(parents, start=1):
        gram[child][parent] = gram[parent][child] = 1
    lat = GramLattice(tuple(tuple(row) for row in gram), even=True)
    classes = [lat.basis_vector(i) for i in range(size)]
    return PolystableDecomposition.of((c, 1) for c in classes)


class TestAnalyzeStratum:
    def test_merge_pair(self):
        lat = GramLattice(((2, 3), (3, 2)))
        dec = PolystableDecomposition.of(
            [(lat.vector((1, 0)), 1), (lat.vector((0, 1)), 1)]
        )
        report = analyze_stratum(dec)
        assert isinstance(report.verdict, HasStableDeformation)
        assert report.verdict.via == "merge"
        assert report.verdict.summand_indices == (0, 1)

    def test_leaf_shape(self):
        dec = tree_decomposition(2, [0])
        report = analyze_stratum(dec)
        assert isinstance(report.verdict, TotallySemistableShape)
        assert report.verdict.w.coords == (1, 0)
        assert [s.coords for s in report.verdict.spheres] == [(0, 1)]
        assert pairing(dec.total(), report.verdict.leaf) == -1

    def test_precondition_rejects_nonpositive_total(self):
        lat = GramLattice(((0,),))
        dec = PolystableDecomposition.of([(lat.vector((1,)), 2)])
        with pytest.raises(LatticeMismatchError):
            analyze_stratum(dec)

    def test_spherical_cycle_genus(self):
        gram = (
            (-2, 1, 1, 1),
            (1, -2, 1, 0),
            (1, 1, -2, 0),
            (1, 0, 0, 2),
        )
        lat = GramLattice(gram, even=True)
        dec = PolystableDecomposition.of(
            (lat.basis_vector(i), 1) for i in range(4)
        )
        report = analyze_stratum(dec)
        assert isinstance(report.verdict, HasStableDeformation)
        assert report.verdict.via == "genus"
        # lattice side: (s1+s2+s3)^2 = 2*genus - 2 = 0
        cycle = lat.basis_vector(0) + lat.basis_vector(1) + lat.basis_vector(2)
        assert square(cycle) == 0

    def test_multiplicity_on_positive(self):
        lat = GramLattice(((2,),))
        dec = PolystableDecomposition.of([(lat.vector((1,)), 2)])
        report = analyze_stratum(dec)
        assert isinstance(report.verdict, HasStableDeformation)
        assert report.verdict.via == "multiplicity"

    def test_isolated_isotropic_splits_off(self):
        lat = GramLattice(((2, 0), (0, 0)))
        dec = PolystableDecomposition.of(
            [(lat.vector((1, 0)), 1), (lat.vector((0, 1)), 2)]
        )
        report = analyze_stratum(dec)
        assert isinstance(report.verdict, ProductSplit)
        kinds = sorted((f.kind, f.multiplicity) for f in report.verdict.factors)
        assert kinds == [("positive", 1), ("symmetric_power", 2)]

    def test_isotropic_pairing_one_reports_wall(self):
        lat = GramLattice(((2, 1), (1, 0)))
        dec = PolystableDecomposition.of(
            [(lat.vector((1, 0)), 1), (lat.vector((0, 1)), 1)]
        )
        report = analyze_stratum(dec)
        assert isinstance(report.verdict, Inconclusive)
        assert "totally" in report.verdict.reason

    def test_positive_only(self):
        lat = GramLattice(((4,),))
        dec = PolystableDecomposition.of([(lat.vector((1,)), 1)])
        report = analyze_stratum(dec)
        assert isinstance(report.verdict, TotallySemistableShape)
        assert report.verdict.spheres == ()

    def test_two_positives_inconclusive(self):
        lat = GramLattice(((2, 1), (1, 2)))
        dec = PolystableDecomposition.of(
            [(lat.vector((1, 0)), 1), (lat.vector((0, 1)), 1)]
        )
        report = analyze_stratum(dec)
        assert isinstance(report.verdict, Inconclusive)

    def test_trace_records_steps_in_order(self):
        dec = tree_decomposition(2, [0, 0])
        report = analyze_stratum(dec)
        steps = [entry["step"] for entry in report.trace]
        assert steps == [
            "merge", "multiplicity", "pairing-range", "isotropic-isolation",
            "connectivity", "genus", "shape", "leaf",
        ]

    def test_permutation_invariance(self):
        rng = random.Random(101)
        for _ in range(30):
            t = rng.randint(1, 4)
            parents = [rng.randrange(i + 1) for i in range(t)]
            dec = tree_decomposition(rng.choice((2, 4)), parents)
            base = analyze_stratum(dec)
            perm = list(range(dec.size))
            rng.shuffle(perm)
            shuffled = PolystableDecomposition.of(dec.summands[i] for i in perm)
            other = analyze_stratum(shuffled)
            assert type(base.verdict) is type(other.verdict)
            if isinstance(base.verdict, TotallySemistableShape):
                # The summand classes themselves are unchanged, only
                # their listing order, so the sphere sets must agree.
                assert sorted(s.coords for s in base.verdict.spheres) == sorted(
                    s.coords for s in other.verdict.spheres
                )
                assert base.verdict.w.coords == other.verdict.w.coords

    def test_leaf_invariant_on_random_trees(self):
        rng = random.Random(103)
        for _ in range(60):
            t = rng.randint(1, 5)
            parents = [rng.randrange(i + 1) for i in range(t)]
            dec = tree_decomposition(rng.choice((2, 4, 6)), parents)
            assert square(dec.total()) > 0
            report = analyze_stratum(dec)
            assert isinstance(report.verdict, TotallySemistableShape)
            assert pairing(dec.total(), report.verdict.leaf) == -1

    def test_shape_verdict_confirmed_by_wall_detector(self):
        # The leaf of a certified tree shape pairs to -1 with the total
        # class, so the rank-2 lattice spanned by (total, leaf) carries
        # a totally semistable wall; the box detector must agree.
        rng = random.Random(113)
        for _ in range(40):
            t = rng.randint(1, 5)
            parents = [rng.randrange(i + 1) for i in range(t)]
            dec = tree_decomposition(rng.choice((2, 4, 6)), parents)
            report = analyze_stratum(dec)
            assert isinstance(report.verdict, TotallySemistableShape)
            total, leaf = dec.total(), report.verdict.leaf
            gram = (
                (square(total), pairing(total, leaf)),
                (pairing(total, leaf), square(leaf)),
            )
            wall_lattice = GramLattice(gram, even=True)
            hp = HyperbolicPair(wall_lattice, wall_lattice.vector((1, 0)))
            z0 = imaginary_reference(
                wall_lattice, (Q(1, square(total)), Q(1, 2))
            )
            result = detect_totally_semistable(hp, z0, 3)
            assert result.detected, (gram, result)

    def test_genus_agrees_with_lattice_square(self):
        # For a connected spherical graph with pairings in {0, 1}:
        # (sum s_i)^2 = 2 * (1 - |V| + |E|) - 2.
        rng = random.Random(107)
        for _ in range(60):
            size = rng.randint(2, 5)
            gram = [[0] * size for _ in range(size)]
            edges = 0
            for i in range(size):
                gram[i][i] = -2
            for i in range(size):
                for j in range(i + 1, size):
                    if rng.random() < 0.6:
                        gram[i][j] = gram[j][i] = 1
                        edges += 1
            lat = GramLattice(tuple(tuple(r) for r in gram), even=True)
            total = lat.vector((1,) * size)
            assert square(total) == 2 * (1 - size + edges) - 2


class TestProductShape:
    def test_shape_with_spheres(self):
        dec = tree_decomposition(2, [0, 0])
        factors = product_shape(analyze_stratum(dec))
        assert [f.kind for f in factors] == [
            "positive", "spherical_point", "spherical_point",
        ]

    def test_positive_only(self):
        lat = GramLattice(((2,),))
        dec = PolystableDecomposition.of([(lat.vector((1,)), 1)])
        factors = product_shape(analyze_stratum(dec))
        assert [f.kind for f in factors] == ["positive"]

    def test_symmetric_power_factor(self):
        lat = GramLattice(((2, 0), (0, 0)))
        dec = PolystableDecomposition.of(
            [(lat.vector((1, 0)), 1), (lat.vector((0, 1)), 2)]
        )
        factors = product_shape(analyze_stratum(dec))
        powers = [f for f in factors if f.kind == "symmetric_power"]
        assert len(powers) == 1 and powers[0].multiplicity == 2

    def test_wrong_verdict_kind(self):
        lat = GramLattice(((2, 3), (3, 2)))
        dec = PolystableDecomposition.of(
            [(lat.vector((1, 0)), 1), (lat.vector((0, 1)), 1)]
        )
        with pytest.raises(ValueError):
            product_shape(analyze_stratum(dec))


class TestStableDeformationBridge:
    def test_affine_a1_true(self):
        lat = GramLattice(((-2, 2), (2, -2)), even=True)
        dec = PolystableDecomposition.of(
            [(lat.vector((1, 0)), 1), (lat.vector((0, 1)), 1)]
        )
        assert stable_deformation_exists(dec)

    def test_leaf_chain_false(self):
        dec = tree_decomposition(2, [0])
        assert not stable_deformation_exists(dec)

    def test_single_positive_true(self):
        lat = GramLattice(((2,),))
        dec = PolystableDecomposition.of([(lat.vector((1,)), 1)])
        assert stable_deformation_exists(dec)

    def test_merge_soundness_cross_check(self):
        # Whenever the analyzer reports a merge, the two-summand
        # sub-decomposition really admits a simple representation.
        rng = random.Random(109)
        for _ in range(60):
            s1 = rng.choice((-2, 0, 2, 4))
            s2 = rng.choice((-2, 0, 2, 4))
            c = rng.randint(0, 4)
            lat = GramLattice(((s1, c), (c, s2)), even=True)
            dec = PolystableDecomposition.of(
                [(lat.vector((1, 0)), 1), (lat.vector((0, 1)), 1)]
            )
            if square(dec.total()) <= 0:
                continue
            report = analyze_stratum(dec)
            if (
                isinstance(report.verdict, HasStableDeformation)
                and report.verdict.via == "merge"
            ):
                i, j = report.verdict.summand_indices
                sub = PolystableDecomposition.of(
                    [(dec.classes[i], 1), (dec.classes[j], 1)]
                )
                assert stable_deformation_exists(sub)


def test_merge_check_agrees_with_the_summand_gram():
    for gram, mults, _ in stratum_corpus():
        dec = basis_decomposition(gram, mults)
        v = dec.classes
        for i in range(dec.size):
            for j in range(i + 1, dec.size):
                assert pairwise_merge_check(v[i], v[j]) == (dec._gram[i][j] >= 2)


def test_merge_step_rejects_a_gram_that_disagrees_with_the_classes():
    # The merge step squares v_i + v_j afresh; a Gram entry that does
    # not match it is an internal fault, not a merge.
    dec = basis_decomposition(((2, 1), (1, -2)), (1, 1))
    assert analyze_stratum(dec).verdict.kind == "totally_semistable_shape"
    object.__setattr__(dec, "_gram", ((2, 2), (2, -2)))
    with pytest.raises(InternalInvariantError, match="merge inequality"):
        analyze_stratum(dec)


def rank2_wall_corpus():
    """(lattice, multiplicities, Z0) for every even Gram ((a, b), (b, d))
    with a, d in {-2, 0, ..., 8}, 0 <= b <= 5 and ad - b^2 < 0, every
    e1^m1 + e2^m2 with 1 <= m_i <= 3 and positive square, and
    Z0 = i * x for x in (1, 1), (1, 2), (2, 1)."""
    for a in range(-2, 9, 2):
        for d in range(-2, 9, 2):
            for b in range(6):
                if a * d - b * b >= 0:
                    continue
                lat = GramLattice(((a, b), (b, d)), even=True)
                for mults in ((m1, m2) for m1 in range(1, 4) for m2 in range(1, 4)):
                    if square(lat.vector(mults)) <= 0:
                        continue
                    for x in ((1, 1), (1, 2), (2, 1)):
                        yield lat, mults, imaginary_reference(lat, x)


def test_stable_objects_exist_off_totally_semistable_walls():
    # The paper's theorem at a polystable point: off a totally
    # semistable wall, stable objects are dense, so the local quiver
    # has a simple representation of dimension n = (m_i).  A box answer
    # certifies only its box, hence the large bound.
    cases = undetected = 0
    for lat, mults, z0 in rank2_wall_corpus():
        cases += 1
        v = lat.vector(mults)
        if detect_totally_semistable(HyperbolicPair(lat, v), z0, 40):
            continue
        undetected += 1
        dec = basis_decomposition(lat.gram, mults)
        assert stable_deformation_exists(dec), (lat.gram, mults, z0.values)
    assert (cases, undetected) == (3156, 2131)


def shape_obj(report):
    """Wire form of ``product_shape`` of a report, or its error."""
    try:
        return to_wire([cli._factor_obj(f) for f in product_shape(report)])
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


# sha256 of the wire verdict, the trace and the product shape (or its
# error) of every case of genutil.stratum_corpus, one JSON line each.
STRATUM_DIGEST = "9b64e35ce02e31ddcfb6d753a4d4ed0fb3126afcbde54239239c505b69f76589"


def test_stratum_answers_match_recorded_digest():
    lines = [
        json.dumps([gram, mults, to_wire(cli._verdict_obj(report.verdict)),
                    list(report.trace), shape_obj(report)])
        for gram, mults, report in stratum_corpus()
    ]
    assert len(lines) == len(STRATUM_CASES) + 10_000
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == STRATUM_DIGEST


def analyze_case(name):
    return analyze_stratum(basis_decomposition(*STRATUM_CASES[name]))


def component_entries(report):
    """(component, step, outcome) of the trace entries of a recursion."""
    return [(e["component"], e["step"], e["outcome"])
            for e in report.trace if "component" in e]


class TestStratumCases:
    def test_deformation_found_inside_a_component(self):
        report = analyze_case("component-deformation")
        assert report.verdict == HasStableDeformation((2, 3, 1), via="component")
        assert component_entries(report)[-1] == ([1, 2, 3], "genus", "stable-deformation")

    def test_repeated_sphere_inside_a_component(self):
        report = analyze_case("component-repeated-sphere")
        assert isinstance(report.verdict, Inconclusive)
        assert "multiplicity > 1" in report.verdict.reason
        assert report.trace[-1]["detail"] == {"repeated_spheres": [1]}
        assert report.trace[-1]["component"] == [0, 1]

    def test_two_positives_inside_a_component(self):
        report = analyze_case("component-two-positives")
        assert isinstance(report.verdict, Inconclusive)
        assert "more than one positive" in report.verdict.reason
        assert report.trace[-1]["detail"] == {"positives": [0, 1]}
        assert report.trace[-1]["component"] == [0, 1]

    def test_point_shape_inside_a_component(self):
        report = analyze_case("component-point")
        assert component_entries(report)[-1] == ([0, 2], "shape", "point")
        assert [(f.kind, f.v.coords) for f in product_shape(report)] == [
            ("spherical_point", (1, 0, 0)),
            ("spherical_point", (0, 0, 1)),
            ("positive", (0, 1, 0)),
        ]

    def test_repeated_sphere_at_top_level(self):
        report = analyze_case("repeated-sphere")
        assert isinstance(report.verdict, Inconclusive)
        assert report.trace[-1] == {
            "step": "shape", "outcome": "violation",
            "detail": {"repeated_spheres": [1]},
        }

    def test_product_split_with_a_two_vertex_factor(self):
        report = analyze_case("two-vertex-factor")
        assert isinstance(report.verdict, ProductSplit)
        assert component_entries(report)[-1] == ([0, 2], "leaf", "found")
        assert report.trace[-1]["detail"] == {"leaf": 1, "pairing_with_total": -1}
        assert [(f.kind, f.v.coords) for f in product_shape(report)] == [
            ("positive", (1, 0, 0)),
            ("spherical_point", (0, 0, 1)),
            ("positive", (0, 1, 0)),
        ]

    def test_repeated_singleton_sphere_is_a_symmetric_power(self):
        report = analyze_case("sphere-power")
        assert report.trace[-1]["detail"] == {"components": [[0], [1], [2]]}
        assert [(f.kind, f.v.coords, f.multiplicity)
                for f in product_shape(report)] == [
            ("positive", (1, 0, 0), 1),
            ("symmetric_power", (0, 1, 0), 2),
            ("positive", (0, 0, 1), 1),
        ]
