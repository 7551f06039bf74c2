"""Regressions for the integer kernels: the lattice box and the
totally-semistable wall detector, the wall dictionary, the root and
splitting-table kernel, and the moment map.

The box order is part of the witness contract: the first isotropic
vector, the first criterion-A witness and the order in which a custom
effectivity predicate is consulted all follow it.  These tests pin the
enumeration to its defining filtered product, the predicate's calls to
the box order, and the detector's answers over the criterion-7 grid to
a digest recorded from the object-level implementation.  The detector
solves its two conics row by row rather than walking the box, so it is
also compared with the brute-force box scan at Gram entries and bounds
up to 60, zero diagonals and planted witnesses included; the rank-2
conic solver it shares with ``find_isotropic`` is checked against a
box scan on forms of every kind.  The other
kernels are pinned the same way, each by a digest recorded from the
Fraction or per-cell tuple implementation it replaced; the incremental
root walk is compared cell by cell with a per-cell form and connectivity
oracle, the splitting table is also checked against a brute-force
multiset oracle, and its Sigma_0 classification of every cell against
``simple_rep_exists`` on that cell's own box.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quivermoduli import (
    CharacterPoint,
    DoubleQuiverRep,
    ExtQuiver,
    GramLattice,
    HyperbolicPair,
    PolystableDecomposition,
    StabilityFunction,
    degree_vector,
    detect_totally_semistable,
    enumerate_positive_roots,
    find_isotropic,
    is_positive_root,
    moment_map,
    on_slice,
    pairing,
    simple_rep_exists,
    to_character,
    wall_correspondence_holds,
)
from quivermoduli.errors import DegenerateValueError, LatticeMismatchError, QuiverModuliError
from quivermoduli.lattice import _conic_points, iter_box
from quivermoduli.quiver import DEFAULT_ROOT_BUDGET, _cells, _splitting_table
from quivermoduli.scenario import to_wire
from quivermoduli.stability import GaussianRational as G

from genutil import (
    degree_of_class,
    random_quiver,
    reference_on_slice,
    reference_to_character,
    reference_wall_correspondence_holds,
)
from oracles import connected, positive_roots, qform


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


# sha256 of find_isotropic over every rank-2 Gram matrix with entries in
# [-4, 4] at bounds 1-9 (729 forms each), recorded from the box walk.
ISOTROPIC_CUBE_DIGEST = "db7d7a6597175b06bee8d4d18e298b830f3472dd56f67695b62ec1fe8c888004"


def test_find_isotropic_matches_recorded_digest():
    lines = []
    for bound in range(1, 10):
        for a, b, d in itertools.product(range(-4, 5), repeat=3):
            found = find_isotropic(GramLattice(((a, b), (b, d))), bound)
            lines.append(json.dumps([bound, a, b, d, found.coords if found else None]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ISOTROPIC_CUBE_DIGEST


@st.composite
def rank_2_forms(draw):
    """(a, b, d) of every kind: free, definite, semidefinite (a
    multiple of a square), zero, a = 0, a = b = 0 and d = 0."""
    entries = st.integers(-30, 30)
    kind = draw(st.sampled_from(
        ["free", "definite", "semidefinite", "zero", "a", "ab", "d"]))
    if kind == "definite":
        sign = draw(st.sampled_from([1, -1]))
        a, d = sign * draw(st.integers(1, 30)), sign * draw(st.integers(1, 30))
        return a, draw(entries.filter(lambda b: b * b < a * d)), d
    if kind == "semidefinite":  # k (p x + q y)^2
        k, p, q = draw(st.integers(-3, 3)), draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        return k * p * p, k * p * q, k * q * q
    if kind == "zero":
        return 0, 0, 0
    a = 0 if kind in ("a", "ab") else draw(entries)
    b = 0 if kind == "ab" else draw(entries)
    d = 0 if kind == "d" else draw(entries)
    return a, b, d


@settings(max_examples=400, deadline=None)
@given(form=rank_2_forms(), c=st.one_of(st.just(0), st.just(-2), st.integers(-60, 60)),
       bound=st.integers(1, 15))
@example(form=(0, 0, 0), c=0, bound=3)
@example(form=(0, 0, -2), c=-2, bound=4)
@example(form=(0, 0, 2), c=0, bound=2)
@example(form=(2, 1, 2), c=0, bound=5)
@example(form=(1, 2, 4), c=0, bound=6)
def test_conic_points_match_box_scan(form, c, bound):
    a, b, d = form
    side = range(-bound, bound + 1)
    expected = sorted(
        (x, y) for x in side for y in side
        if (x or y) and a * x * x + 2 * b * x * y + d * y * y == c
    )
    assert sorted(_conic_points(a, b, d, c, bound)) == expected


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


# Forms of negative determinant with isotropic or spherical classes;
# moved by unimodular congruences they carry witnesses far from the
# coordinate axes.
PLANTED_GRAMS = (
    ((0, 1), (1, 0)),
    ((0, 1), (1, -2)),
    ((-2, 1), (1, 0)),
    ((2, 1), (1, -2)),
    ((-2, 0), (0, 2)),
    ((-2, 1), (1, 4)),
)


@st.composite
def large_grams(draw):
    """A Gram matrix with entries in [-60, 60] and negative determinant:
    free entries with a = 0, d = 0 or both drawn on purpose, or a
    planted form under a product of elementary congruences."""
    entries = st.integers(-60, 60)
    shape = draw(st.sampled_from(["planted", "free", "a", "d", "both"]))
    if shape != "planted":
        a = 0 if shape in ("a", "both") else draw(entries)
        d = 0 if shape in ("d", "both") else draw(entries)
        b = draw(entries.filter(lambda b: a * d < b * b))
        return ((a, b), (b, d))
    (a, b), (_, d) = draw(st.sampled_from(PLANTED_GRAMS))
    for t, lower in draw(st.lists(st.tuples(st.integers(-3, 3), st.booleans()), max_size=4)):
        if lower:  # e1 -> e1 + t e2
            a, b = a + 2 * t * b + t * t * d, b + t * d
        else:  # e2 -> e2 + t e1
            b, d = b + t * a, d + 2 * t * b + t * t * a
    assume(max(abs(a), abs(b), abs(d)) <= 60)
    return ((a, b), (b, d))


@st.composite
def large_wall_cases(draw):
    """A large-entry Gram matrix, a class of positive square and
    Z0 = i (c_x, c_y) with Z0(v) a positive multiple of i."""
    gram = draw(large_grams())
    positive = [v for v in itertools.product(range(-6, 7), repeat=2) if form2(gram, v, v) > 0]
    assume(positive)
    v = draw(st.sampled_from(positive))
    c = draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(
        lambda c: c[0] * v[0] + c[1] * v[1] > 0))
    return gram, v, c


@settings(max_examples=60, deadline=None)
@given(case=large_wall_cases(), bound=st.integers(1, 60))
@example(case=(((0, 1), (1, 0)), (1, 1), (1, 1)), bound=9)
@example(case=(((0, 3), (3, -2)), (1, 1), (1, 0)), bound=9)
@example(case=(((2, 3), (3, 0)), (1, 0), (1, 1)), bound=9)
def test_detector_matches_reference_on_large_entries(case, bound):
    gram, v, c = case
    lat = GramLattice(gram)
    hp = HyperbolicPair(lat, lat.vector(v))
    z0 = StabilityFunction(lat, (G.of(0, c[0]), G.of(0, c[1])))
    got = detect_totally_semistable(hp, z0, bound)
    witness = got.witness
    assert (
        got.detected,
        witness.criterion if witness else None,
        witness.witness if witness else None,
        got.searched_bound,
    ) == reference_detect(hp, z0, bound)
    for accept in (lambda s: False, lambda s: (s[0] + 2 * s[1]) % 3 == 0):
        calls = []

        def predicate(s):
            calls.append(s.coords)
            return accept(s.coords)

        detect_totally_semistable(hp, z0, bound, effectivity=predicate)
        assert calls == expected_effectivity_calls(gram, v, bound, accept)


@pytest.mark.parametrize("bound,expected", [
    (52, None),
    (53, (53, -22)),
    (120, (53, -22)),
])
def test_far_spherical_witness(bound, expected):
    # The first effective spherical class of this wall lies on the
    # shell of sup-norm 53; no smaller box holds a witness.
    lat = GramLattice(((-6, -1), (-1, 30)))
    hp, z0 = reference_pair(lat, (3, 2))
    got = detect_totally_semistable(hp, z0, bound)
    if expected is None:
        assert not got.detected and got.searched_bound == bound
    else:
        assert got.witness.criterion == "effective-spherical"
        assert got.witness.witness.coords == expected
        assert got.searched_bound is None


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
    except (QuiverModuliError, ValueError) as exc:
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


def full_outcome(call):
    """The result, or the type and message of the error raised."""
    try:
        return ["returned", call()]
    except Exception as exc:
        return ["raised", type(exc), str(exc)]


def slice_outcomes(dec, ref, samples, alphas, funcs):
    """Every slice answer of ``funcs`` = (on_slice, to_character,
    wall_correspondence_holds) on one case."""
    on, character, holds = funcs
    record = []
    for z in samples:
        record.append(full_outcome(lambda: on(z, ref, dec)))
        record.append(full_outcome(lambda: character(z, ref, dec)))
    for a in alphas:
        for prefix in range(len(samples) + 1):
            record.append(full_outcome(lambda: holds(a, samples[:prefix], ref, dec)))
    return record


LIBRARY_SLICE = (on_slice, to_character, wall_correspondence_holds)
REFERENCE_SLICE = (reference_on_slice, reference_to_character, reference_wall_correspondence_holds)


def fixed_slice_cases():
    """Cases with several faults at once: which error wins is the
    order of the checks."""
    lat = GramLattice(((-2, 2), (2, -2)), even=True)
    other = GramLattice(((0, 1), (1, 0)), even=True)
    dec = PolystableDecomposition.of([(lat.vector((1, 0)), 1), (lat.vector((0, 1)), 2)])
    i = G.of(0, 1)
    on = StabilityFunction(lat, (G.of(2, 1), G.of(-1, Q(1, 3))))
    off = StabilityFunction(lat, (G.of(1, 1), G.of(1, 1)))
    elsewhere = StabilityFunction(other, (G.of(2, 1), G.of(-1, Q(1, 3))))
    zero = G.of(0)
    return [
        (dec, zero, [], [(1, 0)]),
        (dec, zero, [on, off, elsewhere], [(1, 0)]),
        (dec, i, [on, elsewhere, off], [(1, 1)]),
        (dec, i, [on, off, elsewhere], [(0, 1)]),
        (dec, i, [off, on], [(1, 0, 0), (1,), ()]),
        (dec, zero, [off], [(1, 0, 0)]),
        (dec, i, [on, off], [("one", 0), (None, 1), (Q(1, 2), 1)]),
        (dec, zero, [on], [("one", 0)]),
    ]


def test_slice_matches_per_summand_reference():
    # The slice test on one evaluation at the total class gives what the
    # per-summand reference gives: results, error types and messages.
    cases = wall_dictionary_cases() + fixed_slice_cases()
    for dec, ref, samples, alphas in cases:
        assert dec.total() == dec.combination(dec.multiplicities)
        assert dec.total() is dec.total()
        assert slice_outcomes(dec, ref, samples, alphas, LIBRARY_SLICE) == slice_outcomes(
            dec, ref, samples, alphas, REFERENCE_SLICE
        )


def test_fixed_slice_cases_reach_every_outcome():
    # The fixed cases exercise each error of the slice, the early
    # ``True`` on no samples, and a wrong or non-integer ``alpha``.  Every
    # non-integer ``alpha`` entry ("one", None, 1/2) is a ValueError.
    seen = set()
    for case in fixed_slice_cases():
        for out in slice_outcomes(*case, LIBRARY_SLICE):
            seen.add(out[1] if out[0] == "raised" else type(out[1]))
    assert {bool, CharacterPoint, DegenerateValueError, LatticeMismatchError,
            ValueError} <= seen
    assert TypeError not in seen


# -- positive roots and the Crawley-Boevey splitting table -------------

ROOT_TOPS = (8, 4, 3, 2)  # per-coordinate box bound for 1-4 vertices


def root_table_grid(count=2000, seed=71):
    """Quivers of 1-4 vertices with 0-2 loops and arrow multiplicities
    0-3, a dimension vector in the box up to (4, 4) or (2, 2, 2, 2),
    and a root budget that is the default, the box, or one cell short."""
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        s = 1 + k % 4
        loops = tuple(rng.randint(0, 2) for _ in range(s))
        arrows = tuple(
            (i, j, rng.randint(0, 3)) for i, j in itertools.combinations(range(s), 2)
        )
        n = tuple(rng.randint(0, ROOT_TOPS[s - 1]) for _ in range(s))
        box = 1
        for b in n:
            box *= b + 1
        budget = rng.choice((DEFAULT_ROOT_BUDGET, DEFAULT_ROOT_BUDGET, box, box - 1))
        cases.append((ExtQuiver(loops, arrows), n, budget))
    return cases


def walk_cases(count=500, seed=97):
    """Quivers of rank 0-4 with 0-4 loops and arrow multiplicities 0-3, at
    n with entries 0-4 (zeros often); every third n with a rank gets
    n_last = 0, and every seventh a negative entry somewhere."""
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        s = k % 5
        loops = tuple(rng.randint(0, 4) for _ in range(s))
        arrows = tuple(
            (i, j, rng.randint(0, 3)) for i, j in itertools.combinations(range(s), 2)
        )
        n = [rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(s)]
        if s and k % 3 == 0:
            n[-1] = 0
        if s and k % 7 == 0:
            n[rng.randrange(s)] = -rng.randint(1, 2)
        cases.append((ExtQuiver(loops, arrows), tuple(n)))
    return cases


def test_cells_match_the_per_cell_oracle():
    # The incremental walk against the box product and the oracle's form
    # and connectivity, cell by cell: p = (q + 2) / 2 on a root, else -1.
    for q, n in walk_cases():
        box = itertools.product(*(range(b + 1) for b in n))
        next(box, None)  # the zero cell; nothing at a negative entry
        expected = []
        for alpha in box:
            value = qform(q.loops, q.arrows, alpha)
            root = connected(q.arrows, [i for i, a in enumerate(alpha) if a]) and value + 2 >= 0
            expected.append((alpha, (value + 2) // 2 if root else -1))
        assert list(_cells(q, n, DEFAULT_ROOT_BUDGET)) == expected, (q, n)


def verdict_fields(verdict):
    return verdict.exists, verdict.reason, verdict.violating_parts


# sha256 of enumerate_positive_roots and the full SimpleRepVerdict over
# the 2000-case grid, one JSON line per case, recorded from the per-cell
# tuple implementation.  Re-recorded once when the 93 zero dimension
# vectors of the grid started raising DegenerateValueError in place of a
# plain ValueError; every other line is byte-identical.
ROOT_TABLE_DIGEST = "bf2831176f6561240a17ede3fdb70baa1603e63322d1e4f33452e6e0c495b646"


def test_roots_and_splitting_table_match_recorded_digest():
    lines = []
    for q, n, budget in root_table_grid():
        lines.append(json.dumps([
            q.loops, q.arrows, n, budget,
            outcome(lambda: enumerate_positive_roots(q, n, budget=budget)),
            outcome(lambda: verdict_fields(simple_rep_exists(q, n, budget=budget))),
        ]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ROOT_TABLE_DIGEST


def root_multisets(roots, rest, start=0):
    """Every multiset of ``roots[start:]`` summing to ``rest``, each
    listed once with its parts in nondecreasing index order."""
    if not any(rest):
        yield ()
        return
    for k in range(start, len(roots)):
        beta = roots[k]
        if all(b <= r for b, r in zip(beta, rest)):
            smaller = tuple(r - b for r, b in zip(rest, beta))
            for tail in root_multisets(roots, smaller, k):
                yield (beta,) + tail


def oracle_cases():
    """2-vertex quivers at n <= (4, 4) and 3-vertex ones at n <= (2, 2, 2)."""
    rng = random.Random(73)
    cases = []
    for s, top, count in ((2, 4, 120), (3, 2, 60)):
        for _ in range(count):
            loops = tuple(rng.randint(0, 2) for _ in range(s))
            arrows = tuple(
                (i, j, rng.randint(0, 3)) for i, j in itertools.combinations(range(s), 2)
            )
            n = tuple(rng.randint(0, top) for _ in range(s))
            if any(n):
                cases.append((ExtQuiver(loops, arrows), n))
    return cases


@pytest.mark.parametrize("q,n", oracle_cases())
def test_splitting_table_matches_multiset_oracle(q, n):
    roots = tuple(positive_roots(q.loops, q.arrows, n))
    assert enumerate_positive_roots(q, n) == roots
    verdict = simple_rep_exists(q, n)
    if n not in roots:
        assert verdict_fields(verdict) == (False, "not a positive root", None)
        return
    p = {beta: qform(q.loops, q.arrows, beta) // 2 + 1 for beta in roots}
    values = [
        sum(p[beta] for beta in parts)
        for parts in root_multisets(roots, n) if len(parts) >= 2
    ]
    best = max(values, default=None)
    assert verdict.exists == (best is None or p[n] > best)
    if verdict.exists:
        assert verdict_fields(verdict) == (True, None, None)
        return
    parts = verdict.violating_parts
    assert len(parts) >= 2 and list(parts) == sorted(parts, reverse=True)
    assert all(beta in p for beta in parts)
    assert tuple(map(sum, zip(*parts))) == n
    assert sum(p[beta] for beta in parts) == best
    assert verdict.reason == (
        f"splitting drops no parameters: p{n} = {p[n]} <= {best} = sum over parts"
    )


def test_is_positive_root_matches_oracle_roots():
    # Every cell beta <= n, n included, of every oracle case.
    for q, n in oracle_cases():
        roots = set(positive_roots(q.loops, q.arrows, n))
        for beta in itertools.product(*(range(b + 1) for b in n)):
            if any(beta):
                assert is_positive_root(q, beta, n) == (beta in roots), (q, n, beta)


def splitting_cases():
    """Boxes past the grid's ROOT_TOPS, where many roots are not in
    Sigma_0: the loop-edge quiver up to (12, 12), one vertex with 0-3
    loops up to n = 300, the ``tree_wall`` quiver up to (20, 20), and
    seeded 3- and 4-vertex quivers up to (4, 4, 4) and (3, 3, 3, 3)."""
    loop_edge = ExtQuiver((1, 1), ((0, 1, 1),))
    tree_wall = ExtQuiver((2, 0), ((0, 1, 1),))
    cases = [(loop_edge, (a, b)) for a in range(13) for b in range(13)]
    cases += [(ExtQuiver((g,), ()), (k,)) for g in range(4)
              for k in (*range(21), 50, 99, 100, 101, 150, 200, 256, 299, 300)]
    cases += [(tree_wall, (a, b)) for a in range(21) for b in range(21)]
    rng = random.Random(83)
    for s, top, count in ((3, 4, 150), (4, 3, 150)):
        for _ in range(count):
            loops = tuple(rng.randint(0, 2) for _ in range(s))
            arrows = tuple(
                (i, j, rng.randint(0, 3)) for i, j in itertools.combinations(range(s), 2)
            )
            cases.append((ExtQuiver(loops, arrows), tuple(rng.randint(0, top) for _ in range(s))))
    return cases


# sha256 of the full SimpleRepVerdict over the 1030 splitting cases, at
# the default budget and at one cell short of the box, one JSON line
# per case, recorded from the table that tried every root as a part.
SPLITTING_DIGEST = "b2e29ff83c1539e4939140b772682ccfc3d0c23918e7762b249aefae52db20ad"


def test_splitting_table_on_large_boxes_matches_recorded_digest():
    lines = []
    for q, n in splitting_cases():
        box = 1
        for b in n:
            box *= b + 1
        lines.append(json.dumps([
            q.loops, q.arrows, n,
            outcome(lambda: verdict_fields(simple_rep_exists(q, n))),
            outcome(lambda: verdict_fields(simple_rep_exists(q, n, budget=box - 1))),
        ]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SPLITTING_DIGEST


def sigma0_cases(count=160, seed=89):
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        q = random_quiver(rng, 4)
        n = tuple(rng.randint(0, ROOT_TOPS[q.num_vertices - 1]) for _ in q.loops)
        if any(n):
            cases.append((q, n))
    return cases


@pytest.mark.parametrize("q,n", sigma0_cases())
def test_splitting_table_sigma0_matches_simple_rep_exists(q, n):
    """The table classifies each cell beta <= n, n included, as in
    Sigma_0 exactly when simple_rep_exists(beta) holds on its own box."""
    _, roots, sigma0, _ = _splitting_table(q, n, DEFAULT_ROOT_BUDGET)
    table = {roots[pb][0] for pb, _ in sigma0}
    for beta in itertools.product(*(range(b + 1) for b in n)):
        if any(beta):
            assert (beta in table) == simple_rep_exists(q, beta).exists, beta


# -- the moment map on cleared numerators ------------------------------

def moment_map_cases(count=150, seed=79):
    """Representations of random quivers of 1-3 vertices at n <= 3 per
    vertex, with entries from random_rational (zeros, small and large
    denominators)."""
    rng = random.Random(seed)
    reps = []
    for _ in range(count):
        q = random_quiver(rng)
        n = tuple(rng.randint(0, 3) for _ in range(q.num_vertices))

        def block(rows, cols):
            return tuple(
                tuple(random_rational(rng) for _ in range(cols)) for _ in range(rows)
            )

        arrows = q.arrow_list()
        xs = tuple(block(n[a.target], n[a.source]) for a in arrows)
        ys = tuple(block(n[a.source], n[a.target]) for a in arrows)
        reps.append(DoubleQuiverRep(q, n, xs, ys))
    return reps


# sha256 of repr(moment_map(rep)) over the 150 cases, one line each,
# recorded from the per-arrow Fraction matrix products.
MOMENT_MAP_DIGEST = "9e86f871ebb932b6982bee14b83e23cc0a0b015c3b2ada7ec9236e4a9be1a4ea"


def test_moment_map_matches_recorded_digest():
    # repr names each entry's type, so Fraction blocks stay Fractions
    lines = [repr(moment_map(rep)) for rep in moment_map_cases()]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == MOMENT_MAP_DIGEST
