"""Regressions for the fraction-free closures under the King-stability
searches.

``RowSpace`` keeps primitive integer echelon rows but answers in
rationals, so it is checked against a plain ``Fraction`` Gauss-Jordan
reference.  The searches' answers (witnesses, slopes, certificates,
filtration steps and the points where a budget runs out) are pinned to
a digest recorded from the ``Fraction`` closure.  The searches build
each closure as a sum of interned per-vector closures, one bit each,
memoised per seed-set mask; that sum is checked against the iterated
closure ``genutil.reference_closure`` in spaces and in budget charged.
Once a seed has closed to the whole representation, a closure that
fills that seed's vertex stops as the whole one; the closures after it
are checked against the same reference.  The seed sets come from one
lazily drawn plan shared per dimension vector, PRNG sample count and
seed; it is checked against copies of the seed generators the searches
used before, and for laziness, sharing and concurrent readers.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genutil import (
    _all_seeds,
    _basis_seeds,
    _prng_seeds,
    direction,
    orthogonal_character,
    random_rep,
    reference_closure,
)
from quivermoduli import (
    DoubleQuiverRep,
    ExtQuiver,
    SearchLimits,
    destabilizer_search,
    jordan_holder_search,
    representation,
)
from quivermoduli.errors import BudgetExceededError
from quivermoduli.linalg import RowSpace, clear
from quivermoduli.representation import (
    _BudgetMeter,
    _out_maps,
    _plans,
    _SeedClosures,
    _seed_plan,
    _SeedPlan,
    _unit,
)


def reference_rref(vectors, dim):
    """Nonzero rows of the reduced row-echelon form, by Gauss-Jordan."""
    rows = [[Q(x) for x in v] for v in vectors]
    out = []
    col = 0
    while rows and col < dim:
        pivot = next((r for r in rows if r[col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows.remove(pivot)
        pivot = [x / pivot[col] for x in pivot]
        rows = [[x - r[col] * y for x, y in zip(r, pivot)] for r in rows]
        out = [[x - r[col] * y for x, y in zip(r, pivot)] for r in out]
        out.append(pivot)
        col += 1
    return tuple(tuple(row) for row in out)


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def vector_streams(draw):
    """An ambient dimension and a stream of rational vectors holding
    fresh draws, duplicates and scaled copies of earlier vectors."""
    dim = draw(st.integers(0, 5))
    fresh = st.lists(fractions, min_size=dim, max_size=dim).map(tuple)
    stream = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["fresh", "zero", "duplicate", "scaled"]))
        if kind == "zero" or (kind != "fresh" and not stream):
            stream.append((Q(0),) * dim if kind == "zero" else draw(fresh))
        elif kind == "fresh":
            stream.append(draw(fresh))
        else:
            earlier = draw(st.sampled_from(stream))
            c = Q(1) if kind == "duplicate" else draw(fractions.filter(bool))
            stream.append(tuple(c * x for x in earlier))
    probes = draw(st.lists(fresh, max_size=3))
    return dim, stream, probes


@settings(max_examples=300, deadline=None)
@given(case=vector_streams())
def test_rowspace_matches_gauss_jordan(case):
    dim, stream, probes = case
    space = RowSpace(dim)
    seen = []
    for v in stream:
        before = len(reference_rref(seen, dim))
        seen.append(v)
        expected = reference_rref(seen, dim)
        assert space.add(v) == (len(expected) > before)
        assert space.dim == len(expected)
        basis = space.basis()
        assert basis == expected
        assert all(type(x) is Q for row in basis for x in row)
    span = reference_rref(seen, dim)
    for v in list(stream) + probes:
        assert space.contains(v) == (reference_rref(seen + [v], dim) == span)
    snapshot = space.basis()
    other = space.copy()
    for v in probes:
        other.add(v)
    assert space.basis() == snapshot
    assert RowSpace(dim, stream).basis() == snapshot


LIMITS = (
    SearchLimits(),
    SearchLimits(budget=7),
    SearchLimits(budget=60, prng_samples=3, seed=5),
    SearchLimits(budget=400, seed=11),
)


def search_cases():
    """Random representations (integer, rational and {-1, 0, 1}
    entries) with a character vanishing on n, under every limit set."""
    rng = random.Random(20261018)
    for k in range(36):
        if k % 3 == 0:
            rep = random_rep(rng, max_total_dim=5, max_denominator=3)
        else:
            rep = random_rep(rng, max_total_dim=5, grid_entries=k % 3 == 1)
        theta = orthogonal_character(rng, rep.n)
        if theta is None:
            theta = (Q(0),) * len(rep.n)
        for limits in LIMITS:
            yield rep, theta, limits


def destabilizer_outcome(rep, theta, limits):
    try:
        got = destabilizer_search(rep, theta, limits)
    except BudgetExceededError as exc:
        return ("budget", str(exc))
    spans = got.witness.spans if got.found else None
    return (got.found, spans, got.slope, got.certificate)


def jh_outcome(rep, theta, limits):
    got = jordan_holder_search(rep, theta, limits)
    return (got.complete, got.steps, got.graded_dims, got.reason)


# sha256 of every case's key (n, theta and the three limits) and the
# repr of its outcomes above, one line each; the outcomes were recorded
# from the Fraction closure.
SEARCH_DIGEST = "18a187f4bb551f603a534cc6d127d48a48802281790fa8078a17a796bdd1a024"


def test_search_answers_match_recorded_digest():
    lines = []
    for rep, theta, limits in search_cases():
        lines.append(repr((rep.n, theta, limits.budget, limits.prng_samples, limits.seed)))
        lines.append(repr(destabilizer_outcome(rep, theta, limits)))
        lines.append(repr(jh_outcome(rep, theta, limits)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SEARCH_DIGEST


UNMETERED = 10**9


def charge(build, budget):
    """The budget ``build(meter)`` spends, or None when it runs out."""
    meter = _BudgetMeter(budget)
    try:
        build(meter)
    except BudgetExceededError:
        return None
    return meter.used


@st.composite
def closure_cases(draw):
    """A representation with integer, rational or {-1, 0, 1} entries,
    seeds of a base subrepresentation (or None for no base), and seeds
    holding fresh, zero, duplicate and contained vectors; a contained
    vector lies in the subrepresentation generated by the base and the
    seeds before it."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["integer", "rational", "grid"]))
    if kind == "rational":
        rep = random_rep(rng, max_total_dim=6, max_denominator=3)
    else:
        rep = random_rep(rng, max_total_dim=6, grid_entries=kind == "grid")
    out_maps = _out_maps(rep)
    vertices = st.sampled_from([v for v, m in enumerate(rep.n) if m])

    def fresh():
        v = draw(vertices)
        return v, tuple(draw(st.lists(st.integers(-3, 3), min_size=rep.n[v], max_size=rep.n[v])))

    base_seeds = None
    if draw(st.booleans()):
        base_seeds = [fresh() for _ in range(draw(st.integers(0, 2)))]
    seeds = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["fresh", "zero", "duplicate", "contained"]))
        if kind == "zero":
            v = draw(vertices)
            seeds.append((v, (0,) * rep.n[v]))
        elif kind == "duplicate" and seeds:
            seeds.append(draw(st.sampled_from(seeds)))
        elif kind == "contained":
            spanned = reference_closure(
                out_maps, rep.n, (base_seeds or []) + seeds, _BudgetMeter(UNMETERED))
            v = draw(vertices)
            rows = spanned[v]._rows
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            seeds.append((v, tuple(
                sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(rep.n[v])
            )))
        else:
            seeds.append(fresh())
    return rep, base_seeds, seeds


def mask_of(closures, seeds):
    """The mask ``closures`` gives one seed set of (vertex, vector)
    seeds, each entered once in the seed list that ``closures`` numbers;
    the set is summed as ``_SeedClosures.masks`` sums each set it reads."""
    table = closures.seeds
    table.extend(seed for seed in dict.fromkeys(seeds) if seed not in table)
    return closures._sum(0, map(closures._bit, [table.index(seed) for seed in seeds]))


@settings(max_examples=300, deadline=None)
@given(case=closure_cases(), slack=st.integers(-2, 2))
def test_sum_of_closures_matches_reference(case, slack):
    rep, base_seeds, seeds = case
    out_maps = _out_maps(rep)
    closures = _SeedClosures(rep, _BudgetMeter(UNMETERED), [])
    mask_of(closures, seeds[::-1])  # later sums start from a warm memo
    base, base_spaces = 0, None
    if base_seeds is not None:
        base = mask_of(closures, base_seeds)
        base_spaces = closures.sums[base][0]
        base_bases = [space.basis() for space in base_spaces]
    expected_meter = _BudgetMeter(UNMETERED)
    expected = reference_closure(out_maps, rep.n, seeds, expected_meter, base_spaces)
    before = closures.meter.used
    given_seeds = list(seeds)
    _, spaces, dims = closures.generated(mask_of(closures, seeds), base)
    assert seeds == given_seeds
    assert [space.basis() for space in spaces] == [space.basis() for space in expected]
    assert dims == [space.dim for space in expected]
    assert closures.meter.used - before == expected_meter.used
    if base_spaces is not None:
        assert [space.basis() for space in base_spaces] == base_bases

    def build(meter):
        fresh = _SeedClosures(rep, meter, [])
        fresh_base = 0 if base_seeds is None else mask_of(fresh, base_seeds)
        fresh.generated(mask_of(fresh, seeds), fresh_base)

    # A budget near the charge runs out in both or in neither.
    budget = expected_meter.used + slack
    assert charge(build, budget) == charge(
        lambda m: reference_closure(out_maps, rep.n, seeds, m, base_spaces), budget)


def reference_parts(rep, vertex, vec):
    """cl(vec at vertex) by the iterated closure, as the (vertex, basis,
    dim) of its nonzero spaces."""
    spaces = reference_closure(_out_maps(rep), rep.n, [(vertex, vec)], _BudgetMeter(UNMETERED))
    return [(i, space.basis(), space.dim) for i, space in enumerate(spaces) if space.dim]


def parts_of(closures, seed):
    """The (vertex, basis, dim) of the parts ``closures`` holds for one
    seed, closed through ``_bit``."""
    bit = mask_of(closures, [seed])
    parts = closures.parts[bit.bit_length() - 1] if bit else ()
    return [(i, space.basis(), dim) for i, space, dim in parts]


def whole_seed(rep):
    """The first standard basis seed whose closure is the whole
    representation, or None."""
    for vertex, m in enumerate(rep.n):
        for k in range(m):
            if sum(dim for _, _, dim in reference_parts(rep, vertex, _unit(m, k))) == sum(rep.n):
                return vertex, _unit(m, k)
    return None


@st.composite
def after_whole_cases(draw):
    """A representation with integer, rational or {-1, 0, 1} entries and
    a seed that closes to all of it, then later seeds: fresh, zero and
    scaled copies of earlier ones."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["integer", "rational", "grid"]))
    if kind == "rational":
        rep = random_rep(rng, max_total_dim=6, max_denominator=3)
    else:
        rep = random_rep(rng, max_total_dim=6, grid_entries=kind == "grid")
    first = whole_seed(rep)
    assume(first is not None)
    vertices = st.sampled_from([v for v, m in enumerate(rep.n) if m])
    seeds = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["fresh", "zero", "scaled"]))
        if kind == "scaled" and seeds:
            v, vec = draw(st.sampled_from(seeds))
            c = draw(st.sampled_from([-2, -1, 3]))
            seeds.append((v, tuple(c * x for x in vec)))
        else:
            v = draw(vertices)
            entries = st.integers(0, 0) if kind == "zero" else st.integers(-3, 3)
            seeds.append((v, tuple(draw(st.lists(entries, min_size=rep.n[v], max_size=rep.n[v])))))
    return rep, first, seeds


@settings(max_examples=300, deadline=None)
@given(case=after_whole_cases())
def test_closures_after_a_whole_one_match_reference(case):
    rep, first, seeds = case
    closures = _SeedClosures(rep, _BudgetMeter(UNMETERED), [])
    assert closures.sums[mask_of(closures, [first])][1] == list(rep.n)
    for vertex, vec in seeds:
        assert parts_of(closures, (vertex, vec)) == reference_parts(rep, vertex, vec)


def test_vertex_of_dimension_one_is_whole_on_its_own_absorb(monkeypatch):
    """With a whole seed at a vertex of dimension 1, any nonzero vector
    there fills it at once: no map is applied."""
    quiver = ExtQuiver((0, 0), ((0, 1, 2),))
    rep = DoubleQuiverRep(quiver, (1, 2), (((1,), (0,)), ((0,), (1,))), (((1, 0),), ((0, 1),)))
    closures = _SeedClosures(rep, _BudgetMeter(UNMETERED), [(0, (1,)), (0, (-3,))])
    whole = closures.parts[closures._bit(0).bit_length() - 1]
    assert sum(dim for _, _, dim in whole) == 3
    calls = []
    absorb = RowSpace._absorb
    monkeypatch.setattr(RowSpace, "_absorb", lambda self, w: calls.append(w) or absorb(self, w))
    assert closures._of(0, (-3,)) is whole and calls == [(-3,)]
    assert closures._bit(1) == closures._bit(0)


def test_zero_seed_is_the_zero_closure_before_and_after_a_whole_one():
    quiver = ExtQuiver((0, 0), ((0, 1, 1),))
    rep = DoubleQuiverRep(quiver, (1, 1), (((1,),),), (((1,),),))
    closures = _SeedClosures(rep, _BudgetMeter(UNMETERED), [])
    assert mask_of(closures, [(0, (0,))]) == 0 and closures.parts == []
    whole = mask_of(closures, [(1, (1,))])
    assert closures.sums[whole][1] == [1, 1]
    assert mask_of(closures, [(1, (0,))]) == 0 and len(closures.parts) == 1
    assert mask_of(closures, [(0, (5,))]) == whole


def test_planted_closures_stay_proper_after_a_whole_one():
    """The maps keep span(e_0) + V_1, a subrepresentation that fills
    vertex 1, so the closures of e_0 and of V_1 stay proper, although
    e_1 at vertex 0 closes to the whole representation; a vector outside
    the planted part still closes to the whole one."""
    quiver = ExtQuiver((0, 0), ((0, 1, 1),))
    rep = DoubleQuiverRep(quiver, (2, 1), (((1, 1),),), (((1,), (0,)),))
    closures = _SeedClosures(rep, _BudgetMeter(UNMETERED), [])
    assert closures.sums[mask_of(closures, [(0, (0, 1))])][1] == [2, 1]
    seeds = [(0, (1, 0)), (1, (1,)), (1, (-2,)), (0, (1, 1)), (0, (3, 1))]
    got = [parts_of(closures, seed) for seed in seeds]
    assert got == [reference_parts(rep, *seed) for seed in seeds]
    assert [sum(dim for _, _, dim in parts) for parts in got] == [2, 2, 2, 3, 3]


def test_rep_without_arrows():
    """One vertex of dimension 1 closes to the whole representation from
    any nonzero vector; two vertices never do."""
    rep = DoubleQuiverRep.zero(ExtQuiver((0,), ()), (1,))
    closures = _SeedClosures(rep, _BudgetMeter(UNMETERED), [])
    assert mask_of(closures, [(0, (1,))]) == mask_of(closures, [(0, (-2,))]) == 1
    assert len(closures.parts) == 1
    rep = DoubleQuiverRep.zero(ExtQuiver((0, 0), ()), (1, 1))
    closures = _SeedClosures(rep, _BudgetMeter(UNMETERED), [])
    for seed in [(0, (1,)), (1, (1,)), (0, (-2,))]:
        assert parts_of(closures, seed) == reference_parts(rep, *seed)
    assert closures.sums[mask_of(closures, [(0, (1,)), (1, (1,))])][1] == [1, 1]


def test_closure_after_the_first_basis_seed_is_the_interned_whole(monkeypatch):
    """On a dense representation of the benchmark menu's (2, 2, 2)
    quiver, the first basis seed generates everything; every later seed
    then closes to the same interned parts with fewer absorbed vectors
    than a closure run to its fixed point."""
    rng = random.Random(7)
    quiver = ExtQuiver((0, 0, 0), ((0, 1, 2), (1, 2, 1)))

    def dense(rows, cols):
        return tuple(tuple(Q(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(cols))
                     for _ in range(rows))

    arrows = quiver.arrow_list()
    rep = DoubleQuiverRep(quiver, (2, 2, 2), tuple(dense(2, 2) for _ in arrows),
                          tuple(dense(2, 2) for _ in arrows))
    seeds = _seed_plan(rep.n, SearchLimits()).seeds
    closures = _SeedClosures(rep, _BudgetMeter(UNMETERED), seeds)
    whole = closures.parts[closures._bit(0).bit_length() - 1]
    assert sum(dim for _, _, dim in whole) == 6
    calls = []
    absorb = RowSpace._absorb
    monkeypatch.setattr(RowSpace, "_absorb", lambda self, w: calls.append(w) or absorb(self, w))
    for seed in range(1, 6):
        del calls[:]
        assert closures._of(*seeds[seed]) is whole
        shortcut = len(calls)
        del calls[:]
        fresh = _SeedClosures(rep, _BudgetMeter(UNMETERED), seeds)._of(*seeds[seed])
        assert sum(dim for _, _, dim in fresh) == 6
        assert shortcut < len(calls)


def test_budget_of_exactly_the_charge_completes(monkeypatch):
    """Each search completes on a budget of exactly what it charged and
    runs out on one unit less; a destabilizer search that finds nothing
    charges what the iterated closure charges over all its seed sets."""
    made = []

    class RecordingMeter(_BudgetMeter):
        def __init__(self, budget):
            super().__init__(budget)
            made.append(self)

    monkeypatch.setattr(representation, "_BudgetMeter", RecordingMeter)
    rng = random.Random(9)
    checked = {"destabilizer": 0, "unfound": 0, "jh": 0}
    for _ in range(30):
        rep = random_rep(rng, max_total_dim=5)
        theta = orthogonal_character(rng, rep.n) or (Q(0),) * len(rep.n)
        limits = SearchLimits(prng_samples=3)
        got = destabilizer_search(rep, theta, limits)
        used = made[-1].used
        if not got.found:
            out_maps = _out_maps(rep)
            meter = _BudgetMeter(UNMETERED)
            for _, seeds in _all_seeds(rep, limits):
                reference_closure(out_maps, rep.n, seeds, meter)
            assert got.certificate.budget_used == used == meter.used
            checked["unfound"] += 1
        if used:
            exact = SearchLimits(budget=used, prng_samples=3)
            assert destabilizer_search(rep, theta, exact) == got
            with pytest.raises(BudgetExceededError):
                destabilizer_search(rep, theta, SearchLimits(budget=used - 1, prng_samples=3))
            checked["destabilizer"] += 1
        filtration = jordan_holder_search(rep, theta, limits)
        used = made[-1].used
        if filtration.complete and used > 1:
            exact = SearchLimits(budget=used, prng_samples=3)
            assert jordan_holder_search(rep, theta, exact) == filtration
            short = jordan_holder_search(rep, theta, SearchLimits(budget=used - 1, prng_samples=3))
            assert short.reason == "search budget exhausted"
            checked["jh"] += 1
    assert min(checked.values()) >= 5, checked


def test_space_filled_from_memo_reports_its_own_basis():
    """A vertex left empty by one sum, its (empty) basis read, and then
    filled from a memoised per-vector closure reports that closure's
    basis; the base it grew from keeps its own."""
    rep = DoubleQuiverRep.zero(ExtQuiver((0, 0), ((0, 1, 2),)), (1, 1))
    closures = _SeedClosures(rep, _BudgetMeter(UNMETERED), [])
    right = mask_of(closures, [(1, (1,))])
    left, first, _ = closures.generated(mask_of(closures, [(0, (1,))]))
    assert [space.basis() for space in first] == [((Q(1),),), ()]
    _, second, dims = closures.generated(right, base=left)
    assert dims == [1, 1]
    assert [space.basis() for space in second] == [((Q(1),),), ((Q(1),),)]
    assert [space.basis() for space in first] == [((Q(1),),), ()]
    assert jordan_holder_search(rep, (0, 0)).graded_dims == ((1, 0), (0, 1))


def count_of_calls(monkeypatch):
    """The (vertex, vector) arguments of every per-vector closure built."""
    calls = []
    of = _SeedClosures._of

    def counted(self, vertex, vec):
        calls.append((vertex, vec))
        return of(self, vertex, vec)

    monkeypatch.setattr(_SeedClosures, "_of", counted)
    return calls


def test_each_closure_is_built_once_per_search(monkeypatch):
    """Neither search iterates the maps twice from one seed direction,
    although the filtration passes over its seed sets once per step."""
    calls = count_of_calls(monkeypatch)
    rng = random.Random(14)
    steps = 0
    for k in range(20):
        rep = random_rep(rng, max_total_dim=5, grid_entries=True)
        theta = (k % 2 and orthogonal_character(rng, rep.n)) or (Q(0),) * len(rep.n)
        limits = SearchLimits(prng_samples=3)
        distinct = {
            (vertex, direction(vec)) for _, seeds in _all_seeds(rep, limits)
            for vertex, vec in seeds}
        for search in (destabilizer_search, jordan_holder_search):
            del calls[:]
            got = search(rep, theta, limits)
            assert len(calls) == len(set(calls)) and set(calls) <= distinct
        steps += len(got.steps)
    assert steps > 20  # some filtrations take several steps


def test_seed_set_stops_at_the_first_seed_that_fills(monkeypatch):
    """A seed set whose first seed generates the whole representation
    is that seed's bit alone, and the later seeds are never closed."""
    calls = count_of_calls(monkeypatch)
    quiver = ExtQuiver((0, 0), ((0, 1, 1),))
    rep = DoubleQuiverRep(quiver, (1, 1), (((1,),),), (((1,),),))
    closures = _SeedClosures(rep, _BudgetMeter(UNMETERED), [])
    mask = mask_of(closures, [(0, (1,)), (1, (1,)), (0, (2,))])
    assert calls == [(0, (1,))]
    assert mask == closures.bit_of[closures.seeds.index((0, (1,)))]
    assert closures.sums[mask][1] == [1, 1]


def test_filtration_steps_after_the_first_close_no_seed(monkeypatch):
    """With a first step that reads every seed set, the later steps
    replay masks: they look up no seed and build no per-vector closure."""
    calls = count_of_calls(monkeypatch)
    lookups = []
    bit = _SeedClosures._bit
    monkeypatch.setattr(
        _SeedClosures, "_bit", lambda self, seed: lookups.append(seed) or bit(self, seed))
    per_step = []
    verify = representation.verify_subrep

    def counted(rep, witness):
        per_step.append((len(calls), len(lookups)))
        return verify(rep, witness)

    monkeypatch.setattr(representation, "verify_subrep", counted)
    # No arrows: every slope-zero extension pairs a vertex of weight 1
    # with one of weight -1, so no step stops before its last seed set.
    rep = DoubleQuiverRep.zero(ExtQuiver((0, 0, 0, 0), ()), (1, 1, 1, 1))
    got = jordan_holder_search(rep, (1, -1, 1, -1))
    assert got.complete and got.graded_dims == ((1, 1, 0, 0), (0, 0, 1, 1))
    assert len(per_step) == 2 and per_step[0] == per_step[1] == (len(calls), len(lookups))
    assert len(calls) > 0


def test_one_closure_reached_from_different_seeds_is_one_bit(monkeypatch):
    """Two seeds with the same closure share its bit, so the seed sets
    holding them, in either order, are one mask with one sum."""
    calls = count_of_calls(monkeypatch)
    # Vertices 0 and 1 are swapped by inverse maps; vertex 2 hangs off
    # vertex 1 by zero maps, so the shared closure is proper.
    quiver = ExtQuiver((0, 0, 0), ((0, 1, 1), (1, 2, 1)))
    rep = DoubleQuiverRep(quiver, (1, 1, 1), (((1,),), ((0,),)), (((1,),), ((0,),)))
    closures = _SeedClosures(rep, _BudgetMeter(UNMETERED), [(0, (1,)), (1, (1,))])
    masks = [mask for _, mask in closures.masks([
        ("basis", (0,)), ("basis", (1,)), ("subset", (0, 1)), ("subset", (1, 0)),
    ])]
    assert calls == [(0, (1,)), (1, (1,))]
    assert len(closures.parts) == 1 and set(masks) == {1}
    assert sorted(closures.sums) == [0, 1]
    assert closures.sums[1][1] == [1, 1, 0]


def test_negative_budget_with_nothing_to_charge():
    """A search whose closures never apply a map charges nothing, so a
    negative budget does not run out."""
    rep = DoubleQuiverRep.zero(ExtQuiver((0,), ()), (1,))
    got = destabilizer_search(rep, (0,), SearchLimits(budget=-1))
    assert not got.found
    assert got.certificate.seeds_tried == (("basis", 1), ("grid", 1), ("grid-tuple", 1), ("prng", 6))
    assert got.certificate.budget_used == 0


def fraction_prng_seeds(n, limits):
    """The PRNG seed sets built from ``Fraction`` entries."""
    rng = random.Random(limits.seed)
    for _ in range(limits.prng_samples):
        seeds = []
        for vertex, m in enumerate(n):
            vec = tuple(Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m))
            if any(vec):
                seeds.append((vertex, clear(vec)[1]))
        if seeds:
            yield "prng", seeds


def expanded(plan, categories=None):
    """A plan's seed sets, each seed number replaced by its seed."""
    return [(category, [plan.seeds[k] for k in seeds]) for category, seeds in plan
            if categories is None or category in categories]


def directions(seed_sets):
    """(vertex, vector) seed sets, each vector replaced by its direction."""
    return [(category, [(vertex, direction(vec)) for vertex, vec in seeds])
            for category, seeds in seed_sets]


def test_prng_seeds_match_fraction_construction():
    for n in ((1,), (3,), (2, 0, 1), (4, 4), (0, 2, 3, 1)):
        rep = DoubleQuiverRep.zero(ExtQuiver((0,) * len(n), ()), n)
        for seed in range(300):
            limits = SearchLimits(seed=seed, prng_samples=4)
            fraction = list(fraction_prng_seeds(n, limits))
            assert list(_prng_seeds(rep, limits)) == fraction
            assert expanded(_seed_plan(n, limits), {"prng"}) == directions(fraction)


# Dimension vectors with zero entries and vertex dimensions up to 4.
PLAN_DIMENSIONS = ((1,), (4,), (0, 2), (3, 0, 1), (1, 1, 1), (2, 2), (0, 1, 0, 4), (3, 3))


def test_seed_plan_expands_to_the_seed_generators():
    """Every plan lists what the copies of the former seed
    generators yield, in category, order and count, each vector
    replaced by its direction; its seeds are distinct directions with
    the standard basis vectors first."""
    for n in PLAN_DIMENSIONS:
        rep = DoubleQuiverRep.zero(ExtQuiver((0,) * len(n), ()), n)
        for limits in LIMITS:
            for seed in range(51):
                limits = replace(limits, seed=seed)
                plan = _seed_plan(n, limits)
                assert expanded(plan) == directions(_all_seeds(rep, limits))
                assert plan.seeds[:sum(n)] == [seed for _, [seed] in _basis_seeds(rep)]
                assert len(set(plan.seeds)) == len(plan.seeds)
                assert all(direction(vec) == vec for _, vec in plan.seeds)


@pytest.fixture
def drawn(monkeypatch):
    """Every seed set drawn while the test runs, as (plan, seed set),
    starting from an empty plan cache."""
    record = []
    draw = _SeedPlan._draw

    def counted(self):
        for seed_set in draw(self):
            record.append((self, seed_set))
            yield seed_set

    monkeypatch.setattr(_SeedPlan, "_draw", counted)
    _plans.cache_clear()
    yield record
    _plans.cache_clear()


def rep_on(rng, quiver, n):
    """A ``random_rep`` of ``quiver`` with dimension vector ``n``."""
    while True:
        rep = random_rep(rng, quiver)
        if rep.n == n:
            return rep


def test_searches_on_one_dimension_vector_share_one_plan(drawn):
    """Once one search has read a plan to its end, searches on other
    representations of the same n, with other characters and budgets,
    read the same plan and draw nothing new."""
    rng = random.Random(3)
    quiver = ExtQuiver((1, 0), ((0, 1, 1),))
    n = (2, 1)
    limits = SearchLimits(prng_samples=20)
    first = rep_on(rng, quiver, n)
    # No seed set has positive slope under theta = 0, so all are read.
    assert not destabilizer_search(first, (0, 0), limits).found
    plan = _seed_plan(n, limits)
    assert [seed_set for _, seed_set in drawn] == plan.sets
    assert len(plan.sets) == len(list(_all_seeds(first, limits)))
    for budget in (limits.budget, 3, 10**6):
        other = replace(limits, budget=budget)
        rep, theta = rep_on(rng, quiver, n), orthogonal_character(rng, n)
        destabilizer_outcome(rep, theta, other)
        jh_outcome(rep, theta, other)
        assert _seed_plan(n, other) is plan
    assert len(drawn) == len(plan.sets)


def test_early_witness_draws_only_the_sets_it_read(drawn, monkeypatch):
    reads = []
    generated = _SeedClosures.generated
    monkeypatch.setattr(
        _SeedClosures, "generated",
        lambda self, mask, base=0: reads.append(mask) or generated(self, mask, base))
    rep = DoubleQuiverRep.zero(ExtQuiver((0, 0, 0), ()), (1, 1, 1))
    got = destabilizer_search(rep, (-1, -1, 2))
    assert got.found and got.witness.dims() == (0, 0, 1)
    assert len(drawn) == len(reads) == 3


def test_planted_search_draws_no_more_than_the_generators(drawn):
    """On a plan of 40 basis, 4096 subset and 4096 PRNG seed sets, a
    witness closed from the 31st basis vector ends the draw where the
    seed generators stopped."""
    n = (1,) * 40
    # A chain 0 -> 1 -> ... -> 39 of identities: the closure of basis
    # vector i is vertices i..39, of positive slope exactly for i >= 30.
    quiver = ExtQuiver((0,) * 40, tuple((i, i + 1, 1) for i in range(39)))
    one, zero = ((Q(1),),), ((Q(0),),)
    rep = DoubleQuiverRep(quiver, n, (one,) * 39, (zero,) * 39)
    theta = tuple(-1 if i == 29 else 1 if i == 39 else 0 for i in range(40))
    limits = SearchLimits(prng_samples=4096)
    out_maps = _out_maps(rep)
    generators = next(
        k + 1 for k, (_, seeds) in enumerate(_all_seeds(rep, limits))
        if sum(t * space.dim for t, space in zip(
            theta, reference_closure(out_maps, n, seeds, _BudgetMeter(UNMETERED)))) > 0)
    got = destabilizer_search(rep, theta, limits)
    assert got.found and sum(got.witness.dims()) == 10
    assert len(drawn) <= generators == 31


def test_replay_draws_only_what_its_passes_read(drawn):
    """Passes of one search over its plan re-read the masks of the sets
    read before and draw a set only when they run past them."""
    rep = DoubleQuiverRep.zero(ExtQuiver((0, 0), ((0, 1, 1),)), (1, 2))
    limits = SearchLimits(prng_samples=3)
    plan = _seed_plan(rep.n, limits)
    closures = _SeedClosures(rep, _BudgetMeter(UNMETERED), plan.seeds)
    first = list(itertools.islice(closures.masks(plan), 2))
    assert len(drawn) == len(closures.set_masks) == 2
    full = list(closures.masks(plan))
    assert len(full) == len(drawn) == len(plan.sets) == len(list(_all_seeds(rep, limits)))
    assert list(itertools.islice(closures.masks(plan), 2)) == first
    assert list(closures.masks(plan)) == full
    assert [seed_set for _, seed_set in drawn] == plan.sets


def test_filtration_draws_its_seed_sets_once(drawn):
    """Every filtration step replays one draw of the seed sets rather
    than building the seeds (and redrawing the PRNG ones) afresh."""
    rep = DoubleQuiverRep.zero(ExtQuiver((0, 0), ((0, 1, 2),)), (2, 1))
    got = jordan_holder_search(rep, (0, 0))
    assert got.complete and got.graded_dims == ((1, 0), (1, 0), (0, 1))
    plan = _seed_plan(rep.n, SearchLimits())
    assert [seed_set for _, seed_set in drawn] == plan.sets
    assert {id(drawn_by) for drawn_by, _ in drawn} == {id(plan)}


def test_a_draw_that_raises_leaves_the_plan_whole(drawn, monkeypatch):
    """A draw that raises once leaves a plan that the next search reads
    in full; one that raises every time raises in every search."""
    rep = DoubleQuiverRep.zero(ExtQuiver((0, 0), ()), (1, 1))
    limits = SearchLimits(prng_samples=5)
    expected = destabilizer_search(rep, (0, 0), limits)
    _plans.cache_clear()
    grid = representation._grid_directions
    failures = [RuntimeError("draw interrupted")]

    def flaky(dim):
        if failures:
            raise failures.pop()
        return grid(dim)

    monkeypatch.setattr(representation, "_grid_directions", flaky)
    with pytest.raises(RuntimeError):
        destabilizer_search(rep, (0, 0), limits)
    assert destabilizer_search(rep, (0, 0), limits) == expected
    _plans.cache_clear()

    def broken(dim):
        raise RuntimeError("draw broken")

    monkeypatch.setattr(representation, "_grid_directions", broken)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="draw broken"):
            destabilizer_search(rep, (0, 0), limits)


@pytest.mark.parametrize("bad", [8.0, True, "8", None])
def test_search_limits_take_only_ints(drawn, bad):
    """A limit that is not an int is refused when the limits are built,
    whether or not a search with equal int limits has run before."""
    rep = DoubleQuiverRep.zero(ExtQuiver((0, 0), ()), (1, 1))
    for field in ("budget", "prng_samples", "seed"):
        with pytest.raises(TypeError, match=f"SearchLimits.{field} must be an int"):
            SearchLimits(**{field: bad})
        limits = SearchLimits(**{field: 8})
        assert not destabilizer_search(rep, (0, 0), limits).found
        with pytest.raises(TypeError, match=f"SearchLimits.{field} must be an int"):
            replace(limits, **{field: bad})


def test_concurrent_searches_on_one_plan_match_one_thread():
    """Four threads, more than the cores of a small machine, running
    both searches on one (n, limits) while its plan is being drawn
    neither raise nor answer differently from one thread."""
    rng = random.Random(21)
    quiver = ExtQuiver((1, 0, 0), ((0, 1, 1), (0, 2, 1)))
    n = (2, 1, 1)
    limits = SearchLimits(prng_samples=1500)
    cases = []
    for _ in range(3):
        rep = rep_on(rng, quiver, n)
        cases += [(rep, (Q(0),) * 3), (rep, orthogonal_character(rng, n))]

    def run(order):
        return [(destabilizer_outcome(rep, theta, limits), jh_outcome(rep, theta, limits))
                for rep, theta in order]

    expected = run(cases)
    orders = (cases, cases[::-1]) * 2
    for _ in range(3):  # each round races on a fresh plan
        results, errors = {}, []
        barrier = threading.Barrier(len(orders))

        def worker(k):
            try:
                barrier.wait(timeout=60)
                results[k] = run(orders[k])
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(orders))]
        interval = sys.getswitchinterval()
        _plans.cache_clear()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            _plans.cache_clear()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == {k: run_order for k, run_order in enumerate(
            [expected, expected[::-1]] * 2)}
