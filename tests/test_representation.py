from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from quivermoduli import (
    DoubleQuiverRep,
    ExtQuiver,
    SearchLimits,
    SubrepWitness,
    destabilizer_search,
    git_character,
    in_zero_fiber,
    integral_character,
    jordan_holder_search,
    moment_map,
    theta_slope,
    verify_subrep,
)
from quivermoduli import linalg, representation
from quivermoduli.errors import (
    BudgetExceededError,
    DegenerateValueError,
    InternalInvariantError,
    LatticeMismatchError,
    ShapeMismatchError,
)

from genutil import identity, inverse, orthogonal_character, random_rep

ONE_LOOP = ExtQuiver((1,), ())
AFFINE_A1 = ExtQuiver((0, 0), ((0, 1, 2),))


def mat(*rows):
    return tuple(tuple(Q(x) for x in row) for row in rows)


class TestMomentMap:
    def test_scalar_loop_commutes(self):
        rep = DoubleQuiverRep(ONE_LOOP, (1,), (mat([5]),), (mat([7]),))
        assert moment_map(rep) == (mat([0]),)

    def test_zero_rep(self):
        rep = DoubleQuiverRep.zero(AFFINE_A1, (2, 1))
        assert all(linalg.is_zero_matrix(b) for b in moment_map(rep))

    def test_one_by_one_blocks(self):
        a, b, c, d = Q(2), Q(3), Q(5), Q(7)
        rep = DoubleQuiverRep(
            AFFINE_A1, (1, 1),
            (mat([a]), mat([b])),
            (mat([c]), mat([d])),
        )
        blocks = moment_map(rep)
        assert blocks[0] == mat([-(c * a + d * b)])
        assert blocks[1] == mat([a * c + b * d])
        assert sum(linalg.trace(x) for x in blocks) == 0

    def test_trace_zero_on_random_reps(self):
        rng = random.Random(41)
        for _ in range(80):
            rep = random_rep(rng)
            total = sum(
                (linalg.trace(b) for b in moment_map(rep)), Q(0)
            )
            assert total == 0

    def test_conjugation_equivariance(self):
        rng = random.Random(43)
        for _ in range(40):
            rep = random_rep(rng, max_total_dim=6)
            gs = [_random_invertible(rng, m) for m in rep.n]
            moved = _act(rep, gs)
            lhs = moment_map(moved)
            rhs = tuple(
                linalg.matmul(linalg.matmul(g, b), inverse(g))
                for g, b in zip(gs, moment_map(rep))
            )
            assert lhs == rhs

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            DoubleQuiverRep(ONE_LOOP, (2,), (mat([1]),), (mat([1]),))


def _random_invertible(rng, m):
    if m == 0:
        return ()
    while True:
        g = tuple(
            tuple(Q(rng.randint(-2, 2)) for _ in range(m)) for _ in range(m)
        )
        try:
            inverse(g)
            return g
        except ShapeMismatchError:
            continue


def _act(rep, gs):
    xs, ys = [], []
    for arrow, x, y in zip(rep.arrows, rep.x_maps, rep.y_maps):
        gs_, gt = gs[arrow.source], gs[arrow.target]
        gs_inv = inverse(gs_) if rep.n[arrow.source] else ()
        gt_inv = inverse(gt) if rep.n[arrow.target] else ()
        xs.append(_triple(gt, x, gs_inv))
        ys.append(_triple(gs_, y, gt_inv))
    return DoubleQuiverRep(rep.quiver, rep.n, tuple(xs), tuple(ys))


def _triple(a, m, b):
    if not m or not m[0]:
        return m
    return linalg.matmul(linalg.matmul(a, m), b)


class TestZeroFiber:
    def test_zero_rep(self):
        assert in_zero_fiber(DoubleQuiverRep.zero(AFFINE_A1, (1, 1)))

    def test_nilpotent_commutator(self):
        rep = DoubleQuiverRep(
            ONE_LOOP, (2,),
            (mat([0, 1], [0, 0]),),
            (mat([0, 0], [1, 0]),),
        )
        assert moment_map(rep)[0] == mat([1, 0], [0, -1])
        assert not in_zero_fiber(rep)

    def test_vanishing_backward_maps(self):
        rng = random.Random(47)
        for _ in range(20):
            rep = random_rep(rng, max_total_dim=5)
            silenced = DoubleQuiverRep(
                rep.quiver, rep.n, rep.x_maps,
                tuple(linalg.zeros(*linalg.shape(y)) for y in rep.y_maps),
            )
            assert in_zero_fiber(silenced)


class TestThetaSlope:
    def test_basic(self):
        assert theta_slope((1, -1), (1, 0)) == 1

    def test_vanishes_on_total(self):
        assert theta_slope((2, -1), (1, 2)) == 0

    def test_rational(self):
        assert theta_slope((Q(1, 2), -1), (1, 1)) == Q(-1, 4)

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            theta_slope((1, -1), (0, 0))


class TestVerifySubrep:
    def test_full_spaces_valid(self):
        rng = random.Random(53)
        for _ in range(15):
            rep = random_rep(rng, max_total_dim=5)
            full = SubrepWitness(tuple(identity(m) for m in rep.n))
            check = verify_subrep(rep, full)
            assert check.valid and check.dims == rep.n

    def test_zero_spaces_valid(self):
        rng = random.Random(59)
        for _ in range(15):
            rep = random_rep(rng, max_total_dim=5)
            zero = SubrepWitness(tuple(() for _ in rep.n))
            check = verify_subrep(rep, zero)
            assert check.valid and check.dims == tuple(0 for _ in rep.n)

    def test_escaping_image_named(self):
        rep = DoubleQuiverRep(
            AFFINE_A1, (1, 1),
            (mat([1]), mat([0])),
            (mat([0]), mat([0])),
        )
        witness = SubrepWitness((mat([1]), ()))
        check = verify_subrep(rep, witness)
        assert not check.valid
        assert check.failing_map.direction == "x"
        assert check.failing_map.arrow.source == 0
        assert check.escaping_vector == (Q(1),)

    def test_dependent_witness_rejected(self):
        rep = DoubleQuiverRep.zero(AFFINE_A1, (2, 1))
        witness = SubrepWitness((mat([1, 0], [2, 0]), ()))
        with pytest.raises(ShapeMismatchError):
            verify_subrep(rep, witness)


class TestDestabilizerSearch:
    def test_zero_rep_coordinate_witness(self):
        rep = DoubleQuiverRep.zero(AFFINE_A1, (1, 1))
        result = destabilizer_search(rep, (1, -1))
        assert result.found and result.slope == 1
        assert result.witness.dims() == (1, 0)

    def test_simple_rep_none_found(self):
        # x sends V0 onto V1 along one arrow, y sends V1 onto V0 along
        # the other: no proper nonzero invariant pair exists.
        rep = DoubleQuiverRep(
            AFFINE_A1, (1, 1),
            (mat([1]), mat([0])),
            (mat([0]), mat([1])),
        )
        result = destabilizer_search(rep, (1, -1))
        assert not result.found
        assert result.certificate.budget_used > 0
        assert dict(result.certificate.seeds_tried)["basis"] == 2

    def test_invariant_kernel_line_found(self):
        # x = [1 1] kills the line (1, -1); theta rewards it.
        q = ExtQuiver((0, 0), ((0, 1, 1),))
        rep = DoubleQuiverRep(
            q, (2, 1),
            (mat([1, 1]),),
            (mat([0], [0]),),
        )
        result = destabilizer_search(rep, (1, -2))
        assert result.found
        assert result.slope > 0
        check = verify_subrep(rep, result.witness)
        assert check.valid

    def test_witnesses_always_reverify(self):
        rng = random.Random(61)
        found = 0
        for _ in range(60):
            rep = random_rep(rng, max_total_dim=5)
            theta = orthogonal_character(rng, rep.n)
            if theta is None:
                continue
            result = destabilizer_search(rep, theta)
            if result.found:
                found += 1
                check = verify_subrep(rep, result.witness)
                assert check.valid
                assert theta_slope(theta, check.dims) == result.slope > 0
        assert found > 0

    def test_scaling_theta_preserves_verdict(self):
        rng = random.Random(67)
        for _ in range(20):
            rep = random_rep(rng, max_total_dim=4)
            theta = orthogonal_character(rng, rep.n)
            if theta is None:
                continue
            base = destabilizer_search(rep, theta)
            scaled = destabilizer_search(rep, tuple(3 * t for t in theta))
            assert base.found == scaled.found

    def test_character_must_annihilate_n(self):
        rep = DoubleQuiverRep.zero(AFFINE_A1, (1, 1))
        with pytest.raises(LatticeMismatchError):
            destabilizer_search(rep, (1, 1))

    @pytest.mark.parametrize("search", [destabilizer_search, jordan_holder_search])
    def test_zero_dimension_vector_is_a_domain_error(self, search):
        with pytest.raises(DegenerateValueError):
            search(DoubleQuiverRep.zero(AFFINE_A1, (0, 0)), (0, 0))

    @pytest.mark.parametrize("search,theta", [
        (destabilizer_search, (1, -1)),
        (jordan_holder_search, (0, 0)),
    ])
    def test_failed_reverification_raises(self, monkeypatch, search, theta):
        # Independent of python -O: the check is not an assert.
        monkeypatch.setattr(representation, "verify_subrep",
                            lambda rep, witness: representation.SubrepCheck(False))
        with pytest.raises(InternalInvariantError):
            search(DoubleQuiverRep.zero(AFFINE_A1, (1, 1)), theta)

    def test_budget_error_is_distinct(self):
        rep = DoubleQuiverRep(
            AFFINE_A1, (1, 1),
            (mat([1]), mat([1])),
            (mat([1]), mat([1])),
        )
        with pytest.raises(BudgetExceededError):
            destabilizer_search(rep, (1, -1), SearchLimits(budget=1))


class TestJordanHolderSearch:
    def test_simple_rep_single_step(self):
        rep = DoubleQuiverRep(
            ONE_LOOP, (1,), (mat([2]),), (mat([3]),)
        )
        result = jordan_holder_search(rep, (0,))
        assert result.complete
        assert len(result.steps) == 1
        assert result.graded_dims == ((1,),)

    def test_direct_sum_two_steps(self):
        rep = DoubleQuiverRep.zero(AFFINE_A1, (1, 1))
        result = jordan_holder_search(rep, (0, 0))
        assert result.complete
        assert len(result.steps) == 2
        assert sorted(result.graded_dims) == [(0, 1), (1, 0)]

    def test_zero_budget_incomplete(self):
        rep = DoubleQuiverRep.zero(AFFINE_A1, (1, 1))
        result = jordan_holder_search(rep, (0, 0), SearchLimits(budget=0))
        assert not result.complete

    def test_graded_dims_sum_to_n(self):
        rng = random.Random(71)
        for _ in range(25):
            rep = random_rep(rng, max_total_dim=4)
            theta = tuple(0 for _ in rep.n)
            result = jordan_holder_search(rep, theta)
            if result.complete:
                totals = tuple(
                    sum(d[i] for d in result.graded_dims) for i in range(len(rep.n))
                )
                assert totals == rep.n
                for witness in result.steps:
                    assert verify_subrep(rep, witness).valid


class TestCharacters:
    def test_zero(self):
        assert git_character((0, 0)).exponents == (0, 0)

    def test_identity_embedding(self):
        assert git_character((1, -1)).exponents == (1, -1)

    def test_clearing_denominators(self):
        cleared = integral_character((Q(1, 2), Q(-1, 3)))
        assert cleared.exponents == (3, -2)
