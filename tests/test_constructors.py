"""The value constructors normalise each field once: the same values,
field types and exceptions as a two-pass reference coercion, and the
same ``repr``, ``hash`` and ``==`` as recorded before the single pass.
An integer field (Gram entries, coordinates, a dimension vector) is not
coerced: an entry that is not an int is refused."""

from __future__ import annotations

import dataclasses
import hashlib
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quivermoduli import (
    CharacterPoint,
    GramLattice,
    PolystableDecomposition,
    StabilityFunction,
)
from quivermoduli.lattice import LatticeVector
from quivermoduli.stability import GaussianRational as G

from genutil import FractionSubclass, orthogonal_character, reference_rational, strict_ints

FRACTIONS = st.fractions(min_value=-1000, max_value=1000, max_denominator=60)
SCALARS = st.one_of(
    st.integers(-10**12, 10**12),
    st.booleans(),
    FRACTIONS,
    FRACTIONS.map(lambda q: FractionSubclass(q.numerator, q.denominator)),
    st.integers(-999, 999).map(str),
    FRACTIONS.map(str),
    st.integers(-2**53, 2**53).map(float),
    st.sampled_from(["a", None]),
)
ZEROS = st.sampled_from([0, False, "0", 0.0, Q(0), FractionSubclass(0), "a", None])


def parts(build):
    """The values ``build()`` returns with the exact type of each, or
    the type and message of what it raises."""
    try:
        values = build()
    except Exception as exc:
        return "raised", type(exc), str(exc)
    return "built", values, tuple(type(x) for x in values)


def re_im(z: G) -> tuple:
    return z.re, z.im


@given(SCALARS, SCALARS)
def test_gaussian_rational_matches_reference(re, im):
    expected = parts(lambda: (reference_rational(re), reference_rational(im)))
    assert parts(lambda: re_im(G(re, im))) == expected
    assert parts(lambda: re_im(G.of(re, im))) == expected
    assert parts(lambda: re_im(G.of(re))) == parts(lambda: (reference_rational(re), Q(0)))


@given(st.lists(SCALARS, min_size=1, max_size=4))
def test_lattice_entries_match_reference(entries):
    rank = len(entries)
    lat = GramLattice(tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank)))
    expected = parts(lambda: strict_ints(entries, "lattice vector coordinates"))
    assert parts(lambda: lat.vector(entries).coords) == expected
    assert parts(lambda: lat.vector(iter(entries)).coords) == expected
    assert parts(lambda: LatticeVector(tuple(entries), lat).coords) == expected
    diagonal = [[x if i == j else 0 for j in range(rank)] for i, x in enumerate(entries)]
    assert parts(lambda: sum(GramLattice(diagonal).gram, ())) == parts(
        lambda: sum((strict_ints(row, "Gram matrix entries") for row in diagonal), ()))


def theta_and_n(point: CharacterPoint) -> tuple:
    return point.theta + point.n


@given(st.data())
def test_character_point_matches_reference(data):
    # theta is coerced as a rational; n is never truncated to ints.
    theta = data.draw(st.lists(SCALARS, min_size=1, max_size=4))
    n = data.draw(st.lists(ZEROS, min_size=len(theta), max_size=len(theta)))
    expected = parts(lambda: tuple(reference_rational(t) for t in theta)
                     + strict_ints(n, "dimension vector entries"))
    assert parts(lambda: theta_and_n(CharacterPoint(theta, n))) == expected


def _dress(rng: random.Random, x: Q):
    """The rational x as one of the input types the constructors accept."""
    dressings = [Q, lambda q: FractionSubclass(q.numerator, q.denominator), str]
    if x.denominator == 1:
        dressings += [int, float, lambda q: str(int(q))]
        if x in (0, 1):
            dressings.append(bool)
    return rng.choice(dressings)(x)


def _built_or_refused(build, dressed, plain, entries, what):
    """build(dressed) when its integer ``entries`` are all ints.  Otherwise
    build must refuse them, not truncate them, and the value is
    build(plain), so the corpus records the plain ints."""
    if all(type(x) is int for x in entries):
        return build(dressed)
    with pytest.raises(ValueError, match=f"{what} must be ints"):
        build(dressed)
    return build(plain)


def _corpus_lines() -> list[str]:
    """repr, hash and == of values built from mixed input types over a
    seeded corpus."""
    rng = random.Random(16016)
    lines = []

    def record(obj, plain, previous):
        lines.append(f"{obj!r} {hash(obj)} {obj == plain} {obj == previous}")

    def rational():
        return Q(rng.randint(-9, 9), rng.randint(1, 4))

    previous = {}
    for _ in range(150):
        re, im = rational(), rational()
        z = G(_dress(rng, re), _dress(rng, im)) if rng.random() < 0.5 else G.of(
            _dress(rng, re), _dress(rng, im))
        record(z, G(re, im), previous.get("z"))
        rank = rng.randint(1, 3)
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                gram[i][j] = gram[j][i] = rng.randint(-4, 4)
        gram = tuple(map(tuple, gram))
        dressed_gram = tuple(tuple(_dress(rng, Q(x)) for x in row) for row in gram)
        lat = _built_or_refused(GramLattice, dressed_gram, gram, sum(dressed_gram, ()),
                                "Gram matrix entries")
        record(lat, GramLattice(gram), previous.get("lat"))
        coords = tuple(rng.randint(-6, 6) for _ in range(rank))
        dressed_coords = tuple(_dress(rng, Q(c)) for c in coords)
        v = _built_or_refused(lat.vector, dressed_coords, coords, dressed_coords,
                              "lattice vector coordinates")
        record(v, LatticeVector(coords, lat), previous.get("v"))
        values = [G(rational(), rational()) for _ in range(rank)]
        f = StabilityFunction(lat, tuple(G.of(_dress(rng, w.re), _dress(rng, w.im))
                                         for w in values))
        record(f, StabilityFunction(lat, tuple(values)), previous.get("f"))
        n = [rng.randint(0, 3) for _ in range(rng.randint(2, 4))]
        theta = orthogonal_character(rng, n) or tuple(Q(0) for _ in n)
        dressed_theta = tuple(_dress(rng, t) for t in theta)
        dressed_n = tuple(_dress(rng, Q(x)) for x in n)
        point = _built_or_refused(lambda n: CharacterPoint(dressed_theta, n), dressed_n,
                                  tuple(n), dressed_n, "dimension vector entries")
        record(point, CharacterPoint(theta, tuple(n)), previous.get("point"))
        previous = {"z": z, "lat": lat, "v": v, "f": f, "point": point}
    return lines


# sha256 of the corpus lines, recorded from the two-pass constructors.
CONSTRUCTOR_DIGEST = "bf0f2fa4af8a05a43eb4bce85c9158314e24611a02c4904cb00c8cd60544fffb"


def test_repr_hash_and_eq_match_recorded_digest():
    digest = hashlib.sha256("\n".join(_corpus_lines()).encode()).hexdigest()
    assert digest == CONSTRUCTOR_DIGEST


LAT2 = GramLattice(((2, 1), (1, -2)))


@pytest.mark.parametrize("obj", [
    StabilityFunction(LAT2, (G.of(1, 2), G.of(Q(1, 3), -1))),
    CharacterPoint((Q(1, 2), Q(-1, 3)), (2, 3)),
])
def test_cleared_is_set_at_construction_outside_the_fields(obj):
    assert "_cleared" not in {f.name for f in dataclasses.fields(obj)}
    assert "_cleared" in vars(obj)
    assert "_cleared" not in repr(obj)


def test_decomposition_sets_its_gram_and_summand_tuples_outside_the_fields():
    lat = GramLattice(((2, 1), (1, -2)), even=True)
    dec = PolystableDecomposition.of(iter([(lat.vector((1, 0)), 2), (lat.vector((0, 1)), 1)]))
    assert [f.name for f in dataclasses.fields(dec)] == ["summands"]
    assert vars(dec)["_gram"] == ((2, 1), (1, -2))
    assert vars(dec)["classes"] == (lat.vector((1, 0)), lat.vector((0, 1)))
    assert vars(dec)["multiplicities"] == (2, 1)
    assert repr(dec) == f"PolystableDecomposition(summands={dec.summands!r})"
    again = PolystableDecomposition(dec.summands)
    assert dec == again and hash(dec) == hash(again)


def test_stability_function_stores_its_values_as_a_tuple():
    values = [G.of(1), G.of(0, 1)]
    from_list = StabilityFunction(LAT2, values)
    from_tuple = StabilityFunction(LAT2, tuple(values))
    assert type(from_list.values) is tuple
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)
    assert StabilityFunction(LAT2, iter(values)) == from_tuple


def test_stability_function_rejects_other_values_at_construction():
    with pytest.raises(AttributeError):
        StabilityFunction(LAT2, (1, 2))
