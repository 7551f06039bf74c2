from __future__ import annotations

import itertools
import random
from fractions import Fraction as Q

import pytest

from quivermoduli import (
    GramLattice,
    INFINITE_SLOPE,
    PolystableDecomposition,
    StabilityFunction,
    WeightedFiltration,
    character_exponents,
    classical_git_weight,
    filtration_weight,
    k_class,
    normalize,
    slope,
    theta_unstable,
)
from quivermoduli.errors import (
    DegenerateValueError,
    NormalizationError,
    OutsideHeartError,
)
from quivermoduli.stability import GaussianRational as G
from quivermoduli.stability import I, Phase

from genutil import random_stability

FLAT2 = GramLattice(((2, 0), (0, 2)))
FLAT3 = GramLattice(((2, 0, 0), (0, 2, 0), (0, 0, 2)))


def zfun(lat, *vals):
    return StabilityFunction(lat, tuple(G.of(re, im) for re, im in vals))


class TestGaussianRational:
    def test_division(self):
        # i / (1 + i) = (1 + i) / 2
        assert I / G.of(1, 1) == G.of(Q(1, 2), Q(1, 2))

    def test_division_by_zero(self):
        with pytest.raises(DegenerateValueError):
            I / G.of(0, 0)

    def test_ring_ops(self):
        a, b = G.of(1, 2), G.of(Q(1, 3), -1)
        assert a * b == G.of(Q(1, 3) + 2, Q(2, 3) - 1)
        assert a - b == G.of(Q(2, 3), 3)


class TestEvaluate:
    def test_basis_values(self):
        z = zfun(FLAT2, (0, 1), (1, 0))
        assert z(FLAT2.vector((1, 1))) == G.of(1, 1)

    def test_zero_vector(self):
        z = zfun(FLAT2, (3, -2), (1, 7))
        assert z(FLAT2.zero()) == G.of(0, 0)

    def test_linearity(self):
        z = zfun(FLAT2, (0, 1), (1, 0))
        assert z(FLAT2.vector((2, -1))) == G.of(-1, 2)


class TestPhase:
    def test_purely_imaginary(self):
        assert Phase.of(G.of(0, 1)).as_fraction == Q(1, 2)

    def test_negative_real_axis(self):
        assert Phase.of(G.of(-1, 0)).as_fraction == Q(1)

    def test_comparison(self):
        assert Phase.of(G.of(-1, 1)) > Phase.of(G.of(1, 1))

    def test_quarter_phases(self):
        assert Phase.of(G.of(1, 1)).as_fraction == Q(1, 4)
        assert Phase.of(G.of(-1, 1)).as_fraction == Q(3, 4)

    def test_irrational_phase_stays_symbolic(self):
        ph = Phase.of(G.of(1, 2))
        assert ph.as_fraction is None
        assert ph.direction == (1, 2)

    def test_degenerate_value(self):
        with pytest.raises(DegenerateValueError):
            Phase.of(G.of(0, 0))

    def test_outside_heart(self):
        with pytest.raises(OutsideHeartError):
            Phase.of(G.of(1, -1))
        with pytest.raises(OutsideHeartError):
            Phase.of(G.of(1, 0))

    def test_order_is_total_on_samples(self):
        dirs = [(-3, 1), (-1, 1), (0, 1), (1, 1), (3, 1), (-1, 0)]
        phases = [Phase.of(G.of(a, b)) for a, b in dirs]
        # increasing angle order: (3,1) < (1,1) < (0,1) < (-1,1) < (-3,1) < (-1,0)
        order = sorted(phases)
        assert [p.direction for p in order] == [
            (3, 1), (1, 1), (0, 1), (-1, 1), (-3, 1), (-1, 0),
        ]


class TestSlope:
    def test_ratio(self):
        z = zfun(FLAT2, (3, 2), (0, 1))
        assert slope(z, FLAT2.vector((1, 0))) == Q(3, 2)

    def test_zero_slope(self):
        z = zfun(FLAT2, (0, 1), (0, 1))
        assert slope(z, FLAT2.vector((1, 0))) == 0

    def test_infinite(self):
        z = zfun(FLAT2, (-1, 0), (0, 1))
        assert slope(z, FLAT2.vector((1, 0))) is INFINITE_SLOPE
        assert INFINITE_SLOPE > Q(10**9)

    def test_degenerate(self):
        z = zfun(FLAT2, (0, 0), (0, 1))
        with pytest.raises(DegenerateValueError):
            slope(z, FLAT2.vector((1, 0)))


class TestNormalize:
    def test_scalar_halving(self):
        z = zfun(FLAT2, (0, 2), (1, 1))
        v = FLAT2.vector((1, 0))
        zn = normalize(z, v)
        assert zn(v) == I
        assert zn.values[1] == G.of(Q(1, 2), Q(1, 2))

    def test_identity_case(self):
        z = zfun(FLAT2, (0, 1), (5, -3))
        v = FLAT2.vector((1, 0))
        assert normalize(z, v).values == z.values

    def test_one_plus_i(self):
        z = zfun(FLAT2, (1, 1), (2, 0))
        v = FLAT2.vector((1, 0))
        zn = normalize(z, v)
        assert zn(v) == I
        # i/(1+i) = (1+i)/2, so the scalar is (1+i)/2
        assert zn.values[1] == G.of(1, 1)

    def test_idempotent(self):
        rng = random.Random(5)
        lat = FLAT3
        for _ in range(30):
            z = random_stability(rng, lat)
            v = lat.vector((1, 2, -1))
            if z(v).is_zero():
                continue
            once = normalize(z, v)
            twice = normalize(once, v)
            assert once.values == twice.values

    def test_degenerate(self):
        z = zfun(FLAT2, (0, 1), (0, 0))
        with pytest.raises(DegenerateValueError):
            normalize(z, FLAT2.vector((0, 1)))


class TestFiltrationWeight:
    def setup_method(self):
        # Z(e1) = 1/3 + i/3, Z(e2) = -1 + i/3, Z(e3) = 2/3 + i/3
        self.z = zfun(FLAT3, (Q(1, 3), Q(1, 3)), (-1, Q(1, 3)), (Q(2, 3), Q(1, 3)))
        self.a = FLAT3.vector((1, 0, 0))
        self.b = FLAT3.vector((0, 1, 0))
        self.total = FLAT3.vector((1, 1, 1))
        assert self.z(self.total) == I

    def test_two_step(self):
        z = zfun(FLAT2, (Q(-1, 2), Q(1, 2)), (Q(1, 2), Q(1, 2)))
        total = FLAT2.vector((1, 1))
        assert z(total) == I
        filt = WeightedFiltration(((1, FLAT2.vector((1, 0))), (0, FLAT2.vector((0, 1)))))
        assert filtration_weight(z, filt) == Q(1, 2)

    def test_single_step_is_zero(self):
        filt = WeightedFiltration(((0, self.total),))
        assert filtration_weight(self.z, filt) == 0

    def test_three_step(self):
        filt = WeightedFiltration(
            ((2, self.a), (1, self.b), (0, self.total - self.a - self.b))
        )
        assert filtration_weight(self.z, filt) == Q(1, 3)

    def test_zero_class_refinement_invariance(self):
        base = WeightedFiltration(((2, self.a), (0, self.total - self.a)))
        refined = WeightedFiltration(
            ((2, self.a), (1, FLAT3.zero()), (0, self.total - self.a))
        )
        assert filtration_weight(self.z, base) == filtration_weight(self.z, refined)

    def test_unnormalized_rejected(self):
        z = zfun(FLAT3, (1, 0), (0, 1), (0, 1))
        filt = WeightedFiltration(((0, self.total),))
        with pytest.raises(NormalizationError):
            filtration_weight(z, filt)

    def test_weights_must_strictly_decrease(self):
        with pytest.raises(ValueError):
            WeightedFiltration(((0, self.a), (1, self.b)))


class TestKClass:
    def test_single_step(self, hyperbolic):
        v = hyperbolic.vector((1, 1))
        kc = k_class(WeightedFiltration(((0, v),)))
        assert kc.terms == ((0, v),)

    def test_two_step(self, hyperbolic):
        a = hyperbolic.vector((1, 0))
        rest = hyperbolic.vector((0, 1))
        kc = k_class(WeightedFiltration(((1, a), (0, rest))))
        assert dict(kc.terms) == {-1: a, 0: rest}

    def test_at_one_recovers_total(self):
        rng = random.Random(9)
        for _ in range(30):
            steps = []
            weights = sorted(rng.sample(range(-4, 6), rng.randint(1, 4)), reverse=True)
            for w in weights:
                steps.append((w, FLAT3.vector([rng.randint(-3, 3) for _ in range(3)])))
            filt = WeightedFiltration(tuple(steps))
            assert k_class(filt).at_one().coords == filt.total().coords


def brute_force_instability(z, total, classes, weight_window=(-2, 3), max_chain=3):
    """Oracle: maximize filtration_weight over all weighted filtrations
    whose subobject chain is drawn from the declared classes."""
    best = Q(0)
    lo, hi = weight_window
    for k in range(1, min(len(classes), max_chain) + 1):
        for chain in itertools.permutations(classes, k):
            # chain[0] is the deepest subobject; classes of the terms
            # above the bottom term total.
            for weights in itertools.combinations(range(hi, lo - 1, -1), k + 1):
                # combinations of a descending range are descending
                steps = []
                prev = None
                layers = list(chain) + [total]
                for w, cls in zip(weights, layers):
                    stepcls = cls if prev is None else cls - prev
                    steps.append((w, stepcls))
                    prev = cls
                value = filtration_weight(z, WeightedFiltration(tuple(steps)))
                if value > best:
                    best = value
    return best


class TestThetaUnstable:
    def test_single_negative_class(self):
        z = zfun(FLAT2, (Q(-1, 2), Q(1, 2)), (Q(1, 2), Q(1, 2)))
        total = FLAT2.vector((1, 1))
        verdict = theta_unstable(z, total, [FLAT2.vector((1, 0))])
        assert verdict.unstable and verdict.weight == Q(1, 2)
        assert filtration_weight(z, verdict.witness) == Q(1, 2)

    def test_all_nonnegative_semistable(self):
        z = zfun(FLAT2, (Q(1, 2), Q(1, 2)), (Q(-1, 2), Q(1, 2)))
        total = FLAT2.vector((1, 1))
        verdict = theta_unstable(z, total, [FLAT2.vector((1, 0)), total])
        assert not verdict.unstable and verdict.witness is None

    def test_witness_maximizes_weight(self):
        z = zfun(FLAT3, (1, Q(1, 3)), (-2, Q(1, 3)), (1, Q(1, 3)))
        total = FLAT3.vector((1, 1, 1))
        assert z(total) == I
        a, b = FLAT3.vector((1, 0, 0)), FLAT3.vector((0, 1, 0))
        verdict = theta_unstable(z, total, [a, b])
        assert verdict.unstable
        assert verdict.witness.steps[0][1] == b
        assert verdict.weight == 2
        # Over two-step filtrations with weights (1, 0) the maximum is
        # attained at b and equals the reported witness weight.
        two_step = {
            cls: filtration_weight(
                z, WeightedFiltration(((1, cls), (0, total - cls)))
            )
            for cls in (a, b)
        }
        assert max(two_step.values()) == verdict.weight == two_step[b]
        # The windowed oracle agrees on the verdict.
        assert brute_force_instability(z, total, [a, b]) > 0

    def test_unnormalized_rejected(self):
        z = zfun(FLAT2, (1, 0), (0, 1))
        with pytest.raises(NormalizationError):
            theta_unstable(z, FLAT2.vector((1, 0)), [])

    def test_agrees_with_brute_force(self):
        rng = random.Random(21)
        lat = FLAT3
        total = lat.vector((1, 1, 1))
        for _ in range(40):
            z = random_stability(rng, lat)
            # Force Z(total) onto the positive imaginary axis.
            vals = list(z.values)
            vals[2] = G.of(
                -(vals[0].re + vals[1].re),
                Q(1) - (vals[0].im + vals[1].im) + Q(1),
            )
            z = StabilityFunction(lat, tuple(vals))
            assert z(total).re == 0 and z(total).im > 0
            classes = [
                lat.vector([rng.randint(-2, 2) for _ in range(3)]) for _ in range(3)
            ]
            verdict = theta_unstable(z, total, classes)
            oracle = brute_force_instability(z, total, classes, max_chain=2)
            assert verdict.unstable == (oracle > 0)

    def test_positive_scaling_preserves_verdict(self):
        rng = random.Random(33)
        z = zfun(FLAT2, (Q(-1, 3), Q(1, 2)), (Q(1, 3), Q(1, 2)))
        total = FLAT2.vector((1, 1))
        classes = [FLAT2.vector((1, 0)), FLAT2.vector((0, 1))]
        base = theta_unstable(z, total, classes)
        for _ in range(10):
            c = Q(rng.randint(1, 9), rng.randint(1, 9))
            scaled = z.scaled(c)
            verdict = theta_unstable(scaled, total, classes)
            assert verdict.unstable == base.unstable
            if verdict.unstable:
                assert verdict.weight == c * base.weight


class TestClassicalWeight:
    def test_symmetric_cancellation(self):
        assert classical_git_weight([(1, (0, 1)), (-1, (0, 1))], 5) == 0

    def test_linear(self):
        assert classical_git_weight([(2, (1, 1))], 3) == 8

    def test_mixed(self):
        assert classical_git_weight([(1, (0, 0, 1)), (0, (1,)), (-1, (0, 1))], 2) == 2

    def test_negative_point_rejected(self):
        with pytest.raises(ValueError):
            classical_git_weight([(1, (1,))], -1)

    @pytest.mark.parametrize("terms", [
        [(1.5, [1, 2])], [(True, [1, 2])], [(1, "12")], [(1, [2.9])],
        5, [(1, 5)], [(1,)], [[1, [1, 2], 3]], [(1, [False])], "[[1, [1]]]",
    ])
    def test_non_int_term_rejected(self, terms):
        # Each used to be truncated by int(): the first three gave 5 at ell = 2.
        with pytest.raises(ValueError, match="terms must be"):
            classical_git_weight(terms, 2)

    @pytest.mark.parametrize("ell", [True, 1.5, 2.0, "2", -1])
    def test_non_int_ell_rejected(self, ell):
        # True and 1.5 used to give a value (the second a float).
        with pytest.raises(ValueError, match="evaluation point"):
            classical_git_weight([(1, [1, 2])], ell)

class TestCharacterExponents:
    def test_wall_case_all_zero(self, hyperbolic):
        dec = PolystableDecomposition.of(
            [(hyperbolic.vector((1, 0)), 1), (hyperbolic.vector((0, 1)), 1)]
        )
        z = zfun(hyperbolic, (0, 1), (0, Q(1, 2)))
        assert character_exponents(z, dec) == (Q(0), Q(0))

    def test_sign_flip(self, hyperbolic):
        dec = PolystableDecomposition.of(
            [(hyperbolic.vector((1, 0)), 1), (hyperbolic.vector((0, 1)), 1)]
        )
        z = zfun(hyperbolic, (Q(1, 2), 1), (Q(-1, 2), 1))
        assert character_exponents(z, dec) == (Q(-1, 2), Q(1, 2))
