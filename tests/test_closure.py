"""Regressions for the fraction-free closures under the King-stability
searches.

``RowSpace`` keeps primitive integer echelon rows but answers in
rationals, so it is checked against a plain ``Fraction`` Gauss-Jordan
reference.  The searches' answers (witnesses, slopes, certificates,
filtration steps and the points where a budget runs out) are pinned to
a digest recorded from the ``Fraction`` closure.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from genutil import orthogonal_character, random_rep
from quivermoduli import SearchLimits, destabilizer_search, jordan_holder_search
from quivermoduli.errors import BudgetExceededError
from quivermoduli.linalg import RowSpace


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
    SearchLimits(budget=400, max_subset_seeds=5, grid_dim_cap=0, seed=11),
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


# sha256 of the repr of every outcome above, one line each, recorded
# from the Fraction closure.
SEARCH_DIGEST = "2ee5b952c499b85c087cde4026a334f6e7750057ae86a36461754c298e359b4e"


def test_search_answers_match_recorded_digest():
    lines = []
    for rep, theta, limits in search_cases():
        lines.append(repr((rep.n, theta, limits)))
        lines.append(repr(destabilizer_outcome(rep, theta, limits)))
        lines.append(repr(jh_outcome(rep, theta, limits)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SEARCH_DIGEST
