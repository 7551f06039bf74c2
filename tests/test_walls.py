from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from quivermoduli import (
    CharacterPoint,
    ExtQuiver,
    GramLattice,
    PolystableDecomposition,
    StabilityFunction,
    build_ext_quiver,
    character_exponents,
    degree_vector,
    enumerate_walls,
    locate_chamber,
    on_slice,
    to_character,
    wall_correspondence_holds,
)
from quivermoduli.errors import DegenerateValueError, LatticeMismatchError
from quivermoduli.stability import GaussianRational as G
from quivermoduli.stability import I
from quivermoduli.walls import degree_of_class, wall_class

from genutil import random_decomposition, random_gaussian

HYP = GramLattice(((-2, 2), (2, -2)), even=True)
DEC = PolystableDecomposition.of([(HYP.vector((1, 0)), 1), (HYP.vector((0, 1)), 1)])
Z0 = StabilityFunction(HYP, (G.of(0, Q(1, 2)), G.of(0, Q(1, 2))))
Z0_V = Z0(DEC.total())


def on_slice_function(re1):
    """A stability function whose summand real parts are (re1, -re1),
    hence on the slice for multiplicities (1, 1)."""
    return StabilityFunction(HYP, (G.of(re1, Q(1, 2)), G.of(-re1, Q(1, 2))))


class TestDegreeVector:
    def test_reference_maps_to_zero(self):
        assert Z0_V == I
        assert degree_vector(Z0, Z0_V, DEC) == (Q(0), Q(0))

    def test_gaussian_division(self):
        z = StabilityFunction(HYP, (G.of(1, 1), G.of(0, 1)))
        assert degree_vector(z, I, DEC)[0] == Q(-1)

    def test_positive_scaling(self):
        z = on_slice_function(Q(1, 3))
        base = degree_vector(z, Z0_V, DEC)
        scaled = degree_vector(z.scaled(Q(5, 2)), Z0_V, DEC)
        assert scaled == tuple(Q(5, 2) * d for d in base)

    def test_zero_reference_rejected(self):
        with pytest.raises(DegenerateValueError):
            degree_vector(Z0, G.of(0, 0), DEC)


class TestOnSlice:
    def test_reference_is_on_slice(self):
        assert on_slice(Z0, Z0_V, DEC)

    def test_balanced_degrees(self):
        assert on_slice(on_slice_function(Q(1, 3)), Z0_V, DEC)

    def test_unbalanced_degrees(self):
        z = StabilityFunction(HYP, (G.of(Q(1, 3), Q(1, 2)), G.of(0, Q(1, 2))))
        assert not on_slice(z, Z0_V, DEC)


class TestToCharacter:
    def test_reference_to_origin(self):
        theta = to_character(Z0, Z0_V, DEC)
        assert theta.theta == (Q(0), Q(0))

    def test_negated_real_parts(self):
        z = on_slice_function(Q(1, 3))
        theta = to_character(z, Z0_V, DEC)
        assert theta.theta == (Q(-1, 3), Q(1, 3))

    def test_output_annihilates_n(self):
        rng = random.Random(73)
        for _ in range(40):
            z = on_slice_function(Q(rng.randint(-9, 9), rng.randint(1, 9)))
            theta = to_character(z, Z0_V, DEC)
            n = DEC.multiplicities
            assert sum(t * x for t, x in zip(theta.theta, n)) == 0

    def test_off_slice_rejected(self):
        z = StabilityFunction(HYP, (G.of(Q(1, 3), Q(1, 2)), G.of(0, Q(1, 2))))
        with pytest.raises(LatticeMismatchError):
            to_character(z, Z0_V, DEC)

    def test_matches_character_exponents(self):
        # With the reference value normalized to i, the character agrees
        # coordinatewise with the determinant-character exponents.
        rng = random.Random(79)
        for _ in range(60):
            dec = random_decomposition(rng, max_summands=3, entry_bound=3)
            lat = dec.lattice
            values = [random_gaussian(rng) for _ in range(lat.rank)]
            total = dec.total()
            k = next((i for i, c in enumerate(total.coords) if c in (1, -1)), None)
            if k is None:
                continue
            # Solve for Re Z(total) = 0 exactly at coordinate k.
            rest = sum(
                values[j].re * total.coords[j] for j in range(lat.rank) if j != k
            )
            values[k] = G.of(Q(-rest, total.coords[k]), values[k].im)
            z = StabilityFunction(lat, tuple(values))
            assert z(total).re == 0
            theta = to_character(z, I, dec)
            assert theta.theta == character_exponents(z, dec)

    def test_linearity_on_slice(self):
        z1 = on_slice_function(Q(1, 3))
        z2 = on_slice_function(Q(-1, 5))
        lhs = to_character(z1 + z2, Z0_V, DEC)
        rhs1 = to_character(z1, Z0_V, DEC)
        rhs2 = to_character(z2, Z0_V, DEC)
        assert lhs.theta == tuple(a + b for a, b in zip(rhs1.theta, rhs2.theta))


class TestEnumerateWalls:
    def test_affine_a1(self):
        q = build_ext_quiver(DEC)
        walls = enumerate_walls(q, (1, 1))
        assert [w.alpha for w in walls] == [(0, 1), (1, 0), (1, 1)]
        assert [w.degenerate for w in walls] == [False, False, True]
        assert all(w.at_bound for w in walls)

    def test_single_vertex(self):
        q = ExtQuiver((2,), ())
        walls = enumerate_walls(q, (1,))
        assert len(walls) == 1 and walls[0].degenerate

    def test_disconnected_roots_excluded(self):
        q = ExtQuiver((0, 0), ())
        walls = enumerate_walls(q, (1, 1))
        assert [w.alpha for w in walls] == [(0, 1), (1, 0)]

    def test_primitive_normals_deduplicate(self):
        q = ExtQuiver((2, 2), ((0, 1, 1),))
        walls = enumerate_walls(q, (2, 2))
        alphas = [w.alpha for w in walls]
        assert len(set(alphas)) == len(alphas)
        from math import gcd

        for alpha in alphas:
            assert gcd(*alpha) == 1

    def test_relabeling_invariance(self):
        q = ExtQuiver((1, 0), ((0, 1, 2),))
        swapped = ExtQuiver((0, 1), ((0, 1, 2),))
        walls1 = enumerate_walls(q, (2, 1))
        walls2 = enumerate_walls(swapped, (1, 2))
        flipped = sorted(tuple(reversed(w.alpha)) for w in walls2)
        assert sorted(w.alpha for w in walls1) == flipped


class TestLocateChamber:
    def setup_method(self):
        self.q = build_ext_quiver(DEC)
        self.walls = enumerate_walls(self.q, (1, 1))

    def test_origin_all_zero(self):
        theta = CharacterPoint((Q(0), Q(0)), (1, 1))
        assert locate_chamber(theta, self.walls).as_string() == "000"

    def test_generic_point(self):
        theta = CharacterPoint((Q(1), Q(-1)), (1, 1))
        sig = locate_chamber(theta, self.walls)
        assert sig.as_string() == "-+0"
        # The only zero is the degenerate wall, so the chamber is open.
        assert sig.open_chamber

    def test_on_wall_not_open(self):
        theta = CharacterPoint((Q(0), Q(0)), (1, 1))
        assert not locate_chamber(theta, self.walls).open_chamber

    def test_negation_flips_signs(self):
        theta = CharacterPoint((Q(1), Q(-1)), (1, 1))
        neg = CharacterPoint((Q(-1), Q(1)), (1, 1))
        s1 = locate_chamber(theta, self.walls).signs
        s2 = locate_chamber(neg, self.walls).signs
        assert s2 == tuple(-s for s in s1)

    def test_same_signature_means_no_crossing(self):
        # Matching sign vectors force every midpoint sample onto the
        # same signature.
        rng = random.Random(83)
        n = (2, 1, 1)
        q = ExtQuiver((1, 1, 0), ((0, 1, 1), (1, 2, 1)))
        walls = enumerate_walls(q, n)
        found = 0
        for _ in range(2000):
            a = _random_character(rng, n)
            sa = locate_chamber(a, walls)
            if not sa.open_chamber:
                continue
            # Perturb inside the chamber by a small rational step.
            step = _random_character(rng, n)
            b = CharacterPoint(
                tuple(x + Q(1, 100) * y for x, y in zip(a.theta, step.theta)), n
            )
            sb = locate_chamber(b, walls)
            if sb.signs != sa.signs:
                continue
            found += 1
            for num, den in ((1, 2), (1, 3), (2, 3), (1, 7)):
                t = Q(num, den)
                mid = CharacterPoint(
                    tuple((1 - t) * x + t * y for x, y in zip(a.theta, b.theta)), n
                )
                assert locate_chamber(mid, walls).signs == sa.signs
            if found >= 10:
                break
        assert found >= 3


def _random_character(rng, n):
    while True:
        theta = [Q(rng.randint(-6, 6)) for _ in n]
        live = [i for i, x in enumerate(n) if x]
        k = live[-1]
        rest = sum(theta[i] * n[i] for i in range(len(n)) if i != k)
        theta[k] = Q(-rest, n[k])
        if any(theta):
            return CharacterPoint(tuple(theta), n)


class TestWallCorrespondence:
    def test_on_wall_sample(self):
        # Z with equal real parts vanishes on the degree of v1 - v2...
        z = on_slice_function(Q(0))
        assert degree_of_class(z, Z0_V, DEC, (1, 0)) == 0
        assert wall_correspondence_holds((1, 0), [z], Z0_V, DEC)

    def test_off_wall_sample(self):
        z = on_slice_function(Q(1, 3))
        theta = to_character(z, Z0_V, DEC)
        assert theta.dot((1, 0)) != 0
        assert wall_correspondence_holds((1, 0), [z], Z0_V, DEC)

    def test_batch_of_samples(self):
        rng = random.Random(89)
        samples = [
            on_slice_function(Q(rng.randint(-10, 10), rng.randint(1, 7)))
            for _ in range(40)
        ]
        for alpha in ((1, 0), (0, 1), (1, 1)):
            assert wall_correspondence_holds(alpha, samples, Z0_V, DEC)

    def test_zero_reference_raises_before_off_slice(self):
        off_slice = StabilityFunction(HYP, (G.of(1, 1), G.of(1, 1)))
        with pytest.raises(DegenerateValueError):
            wall_correspondence_holds((1, 0), [off_slice], G.of(0, 0), DEC)

    def test_off_slice_sample_rejected(self):
        samples = [on_slice_function(Q(1)), StabilityFunction(HYP, (G.of(1, 1), G.of(1, 1)))]
        with pytest.raises(LatticeMismatchError):
            wall_correspondence_holds((1, 0), samples, Z0_V, DEC)

    def test_one_degree_vector_per_sample(self, monkeypatch):
        evaluations = []
        original = StabilityFunction.__call__

        def counting(self, v):
            evaluations.append(v)
            return original(self, v)

        monkeypatch.setattr(StabilityFunction, "__call__", counting)
        samples = [on_slice_function(Q(k, 3)) for k in range(-4, 5)]
        assert wall_correspondence_holds((1, 0), samples, Z0_V, DEC)
        assert len(evaluations) == len(samples) * DEC.size

    def test_wall_class_combination(self):
        assert wall_class(DEC, (1, 1)).coords == (1, 1)
        assert wall_class(DEC, (2, 0)).coords == (2, 0)

    def test_enumerated_walls_round_trip(self):
        # Three independent summands; construct on-slice samples lying
        # exactly on each enumerated wall and check the dictionary.
        gram = ((2, 1, 0), (1, -2, 1), (0, 1, -2))
        lat = GramLattice(gram, even=True)
        dec = PolystableDecomposition.of(
            (lat.basis_vector(i), 1) for i in range(3)
        )
        q = build_ext_quiver(dec)
        n = dec.multiplicities
        found = enumerate_walls(q, n)
        z0 = StabilityFunction(
            lat, tuple(G.of(0, Q(1, 3)) for _ in range(3))
        )
        z0_v = z0(dec.total())
        assert z0_v == I
        for wall in found:
            if wall.degenerate:
                continue
            alpha = wall.alpha
            # Degree vector orthogonal to both n and alpha: cross
            # product of the two constraint rows.
            a, b = tuple(Q(x) for x in n), tuple(Q(x) for x in alpha)
            d = (
                a[1] * b[2] - a[2] * b[1],
                a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0],
            )
            assert any(d)
            # Summands are basis vectors, so prescribing degrees is
            # prescribing real parts: deg_i = -Re Z(v_i) when Z0(v)=i.
            z = StabilityFunction(lat, tuple(G.of(-x, Q(1, 3)) for x in d))
            assert on_slice(z, z0_v, dec)
            assert degree_of_class(z, z0_v, dec, alpha) == 0
            theta = to_character(z, z0_v, dec)
            assert theta.dot(alpha) == 0
            assert wall_correspondence_holds(alpha, [z], z0_v, dec)


def test_character_point_validates():
    with pytest.raises(LatticeMismatchError):
        CharacterPoint((Q(1), Q(1)), (1, 1))
    with pytest.raises(LatticeMismatchError):
        CharacterPoint((Q(1),), (1, 1))
