"""Regressions for the integer kernel under the lattice box and the
totally-semistable wall detector.

The box order is part of the witness contract: the first isotropic
vector, the first criterion-A witness and the order in which a custom
effectivity predicate is consulted all follow it.  These tests pin the
enumeration to its defining filtered product, the predicate's calls to
the box order, and the detector's answers over the criterion-7 grid to
a digest recorded from the object-level implementation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivermoduli import (
    GramLattice,
    HyperbolicPair,
    PolystableDecomposition,
    StabilityFunction,
    degree_vector,
    detect_totally_semistable,
    find_isotropic,
    on_slice,
    pairing,
    to_character,
    wall_correspondence_holds,
)
from quivermoduli.errors import QuiverModuliError
from quivermoduli.lattice import iter_box
from quivermoduli.scenario import to_wire
from quivermoduli.stability import GaussianRational as G
from quivermoduli.walls import degree_of_class


def filtered_box(rank, bound):
    """The defining enumeration: each shell filtered out of its cube,
    shells of growing sup-norm, each in descending lexicographic order."""
    for radius in range(1, bound + 1):
        for cand in itertools.product(range(radius, -radius - 1, -1), repeat=rank):
            if max(abs(c) for c in cand) == radius:
                yield cand


def form2(gram, x, y):
    (a, b), (_, d) = gram
    return a * x[0] * y[0] + b * (x[0] * y[1] + x[1] * y[0]) + d * x[1] * y[1]


def reference_pair(lat, v):
    """Pair with the on-wall reference Z0 = i (v_x, v_y) of criterion 7."""
    hp = HyperbolicPair(lat, lat.vector(v))
    return hp, StabilityFunction(lat, (G.of(0, v[0]), G.of(0, v[1])))


def criterion_7_grid():
    """Every rank-2 Gram matrix with entries in [-3, 3] and negative
    determinant, with every class in [-3, 3]^2 of positive square."""
    for a, b, d in itertools.product(range(-3, 4), repeat=3):
        gram = ((a, b), (b, d))
        if a * d - b * b >= 0:
            continue
        lat = GramLattice(gram)
        for v in itertools.product(range(-3, 4), repeat=2):
            if form2(gram, v, v) > 0:
                yield lat, v


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_iter_box_matches_filtered_product(rank, bound):
    assert list(iter_box(rank, bound)) == list(filtered_box(rank, bound))


def test_rank_zero_box_is_empty():
    # The zero vector is the only class of a rank-0 lattice, and the box
    # holds nonzero classes only.
    assert list(iter_box(0, 3)) == []
    assert find_isotropic(GramLattice(()), 3) is None


# sha256 of the detector's answers over the criterion-7 grid at bounds
# 1, 2, 6 and 9 (5728 pairs each), one JSON line per answer.
GRID_DIGEST = "d8fa82d03f31005ed767043fc02f5f9cfc11e3e9f3494f25f9eeb7de4b3a78e3"


def test_detector_answers_match_recorded_digest():
    lines = []
    grid = list(criterion_7_grid())
    for bound in (1, 2, 6, 9):
        for lat, v in grid:
            hp, z0 = reference_pair(lat, v)
            got = detect_totally_semistable(hp, z0, bound)
            witness = got.witness
            lines.append(json.dumps([
                bound, lat.gram, v, got.detected,
                witness.criterion if witness else None,
                witness.witness.coords if witness else None,
                got.searched_bound,
            ]))
    assert len(lines) == 4 * 5728
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GRID_DIGEST


def expected_effectivity_calls(gram, v, bound, accept):
    """Criterion A over the whole box first; only without an A witness
    is the predicate consulted, on the criterion-B candidates in box
    order, up to and including the first it accepts."""
    box = list(filtered_box(2, bound))
    if any(form2(gram, w, w) == 0 and form2(gram, v, w) == 1 for w in box):
        return []
    calls = []
    for s in box:
        if form2(gram, s, s) == -2 and form2(gram, v, s) < 0:
            calls.append(s)
            if accept(s):
                break
    return calls


@pytest.mark.parametrize("accept", [
    lambda s: False,
    lambda s: (s[0] + 2 * s[1]) % 3 == 0,
], ids=["never", "mod-3"])
def test_effectivity_predicate_sees_the_box_order(accept):
    consulted = 0
    for k, (lat, v) in enumerate(criterion_7_grid()):
        if k % 7:
            continue
        bound = 1 + k % 5
        hp, z0 = reference_pair(lat, v)
        calls = []

        def predicate(s):
            assert s.lattice == lat
            calls.append(s.coords)
            return accept(s.coords)

        got = detect_totally_semistable(hp, z0, bound, effectivity=predicate)
        expected = expected_effectivity_calls(lat.gram, v, bound, accept)
        assert calls == expected, (lat.gram, v, bound)
        if expected and accept(expected[-1]):
            assert got.witness.criterion == "effective-spherical"
            assert got.witness.witness.coords == expected[-1]
        consulted += bool(calls)
    assert consulted > 100


@st.composite
def gram_matrices(draw, rank):
    entries = st.integers(-4, 4)
    upper = {(i, j): draw(entries) for i in range(rank) for j in range(i, rank)}
    return tuple(
        tuple(upper[min(i, j), max(i, j)] for j in range(rank)) for i in range(rank)
    )


def reference_isotropic(lat, bound):
    """First box vector of square zero, with the object-level pairing."""
    for cand in filtered_box(lat.rank, bound):
        w = lat.vector(cand)
        if pairing(w, w) == 0:
            return w
    return None


def reference_detect(hp, z0, bound):
    """Two full scans with the object-level pairing: A, then B."""
    box = [hp.lattice.vector(c) for c in filtered_box(2, bound)]
    for w in box:
        if pairing(w, w) == 0 and pairing(hp.v, w) == 1:
            return True, "isotropic-pairing-one", w, None
    for s in box:
        if pairing(s, s) == -2 and pairing(hp.v, s) < 0 and (z0(s) / z0(hp.v)).re > 0:
            return True, "effective-spherical", s, None
    return False, None, None, bound


@settings(max_examples=150, deadline=None)
@given(gram=st.sampled_from([2, 3]).flatmap(gram_matrices), bound=st.integers(1, 3))
def test_find_isotropic_matches_reference(gram, bound):
    lat = GramLattice(gram)
    assert find_isotropic(lat, bound) == reference_isotropic(lat, bound)


@st.composite
def wall_cases(draw):
    """A rank-2 Gram matrix of negative determinant, a class of positive
    square, and coefficients c of Z0 = i (c_x / 2, c_y / 3) with
    Z0(v) a positive multiple of i."""
    gram = draw(gram_matrices(2).filter(lambda g: g[0][0] * g[1][1] < g[0][1] ** 2))
    square_box = itertools.product(range(-4, 5), repeat=2)
    v = draw(st.sampled_from([v for v in square_box if form2(gram, v, v) > 0]))
    coefficients = itertools.product(range(-3, 4), repeat=2)
    c = draw(st.sampled_from([c for c in coefficients if 3 * c[0] * v[0] + 2 * c[1] * v[1] > 0]))
    return gram, v, c


@settings(max_examples=150, deadline=None)
@given(case=wall_cases(), bound=st.integers(1, 5))
def test_detector_matches_reference(case, bound):
    gram, v, c = case
    lat = GramLattice(gram)
    hp = HyperbolicPair(lat, lat.vector(v))
    z0 = StabilityFunction(lat, (G.of(0, Q(c[0], 2)), G.of(0, Q(c[1], 3))))
    got = detect_totally_semistable(hp, z0, bound)
    witness = got.witness
    assert (
        got.detected,
        witness.criterion if witness else None,
        witness.witness if witness else None,
        got.searched_bound,
    ) == reference_detect(hp, z0, bound)


# -- degree vectors and the wall dictionary ----------------------------

# Even lattices of ranks 1-4; rank 1 includes the degenerate form (0).
WALL_GRAMS = (
    ((2,),),
    ((-2,),),
    ((0,),),
    ((0, 1), (1, 0)),
    ((-2, 0), (0, 2)),
    ((2, 1), (1, -2)),
    ((0, 1, 0), (1, 0, 0), (0, 0, -2)),
    ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
)


def random_rational(rng):
    """Mostly small rationals, some zeros, and a share of numerators and
    denominators up to 10**12."""
    roll = rng.random()
    if roll < 0.15:
        return Q(0)
    if roll < 0.4:
        return Q(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
    return Q(rng.randint(-3, 3), rng.randint(1, 3))


def random_sample(rng, gram, dec, ref):
    """A stability function on a fresh copy of the lattice; three times
    in four it is moved onto the slice, Z(total) = t * ref."""
    lat = GramLattice(gram, even=True) if rng.random() < 0.5 else dec.lattice
    values = [G(random_rational(rng), random_rational(rng)) for _ in gram]
    total = dec.total().coords
    k = next((i for i, c in enumerate(total) if c), None)
    if k is not None and rng.random() < 0.75:
        rest = G.of(0)
        for j, (c, z) in enumerate(zip(total, values)):
            if j != k:
                rest = rest + z * c
        values[k] = (ref * random_rational(rng) - rest) / total[k]
    return StabilityFunction(lat, tuple(values))


def wall_dictionary_cases(count=300, seed=61):
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        # every (rank, number of summands) pair from 1-4 comes up
        rank, size = 1 + len(cases) % 4, 1 + len(cases) // 4 % 4
        gram = rng.choice([g for g in WALL_GRAMS if len(g) == rank])
        lat = GramLattice(gram, even=True)
        summands = [
            (lat.vector(rng.randint(-2, 2) for _ in gram), rng.randint(1, 3))
            for _ in range(size)
        ]
        try:
            dec = PolystableDecomposition.of(summands)
        except QuiverModuliError:
            continue
        roll = rng.random()
        if roll < 0.1:
            ref = G.of(0)
        elif roll < 0.5:
            ref = G.of(0, abs(random_rational(rng)) or 1)
        else:
            ref = G(random_rational(rng), random_rational(rng))
        samples = [random_sample(rng, gram, dec, ref) for _ in range(3)]
        alphas = [tuple(rng.randint(-2, 2) for _ in range(size)) for _ in range(2)]
        cases.append((dec, ref, samples, alphas))
    return cases


def outcome(call):
    """The wire form of a result, or the class name of the error raised."""
    try:
        return to_wire(call())
    except QuiverModuliError as exc:
        return ["raised", type(exc).__name__]


# sha256 of degree_vector, on_slice, to_character, degree_of_class and
# wall_correspondence_holds over 300 seeded cases, one JSON line per
# case, recorded from the per-coordinate Fraction evaluation.
WALL_DICTIONARY_DIGEST = "e65b63015f287c349789488726c30d69f4f7d600311a9ae437fe560f42c46d3a"


def test_wall_dictionary_matches_recorded_digest():
    lines = []
    for dec, ref, samples, alphas in wall_dictionary_cases():
        record = [dec.lattice.gram, [v.coords for v in dec.classes], dec.multiplicities]
        for z in samples:
            record.append([
                outcome(lambda: degree_vector(z, ref, dec)),
                outcome(lambda: on_slice(z, ref, dec)),
                outcome(lambda: to_character(z, ref, dec).theta),
                [outcome(lambda: degree_of_class(z, ref, dec, a)) for a in alphas],
            ])
        for a in alphas:
            record.append([
                outcome(lambda: wall_correspondence_holds(a, samples, ref, dec)),
                outcome(lambda: wall_correspondence_holds(a, samples[:1], ref, dec)),
            ])
        lines.append(json.dumps(record))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == WALL_DICTIONARY_DIGEST
