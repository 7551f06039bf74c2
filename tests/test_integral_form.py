"""The integer form of a representation: every map cleared once, and
the moment map, the search closures and witness re-verification all
reading it."""

from __future__ import annotations

import random
from fractions import Fraction as Q

from quivermoduli import (
    DoubleQuiverRep,
    SearchLimits,
    SubrepWitness,
    destabilizer_search,
    moment_map,
    verify_subrep,
)
from quivermoduli import representation
from quivermoduli.errors import BudgetExceededError, ShapeMismatchError
from quivermoduli.representation import _BudgetMeter, _out_maps

from genutil import (
    orthogonal_character,
    random_rep,
    reference_closure,
    reference_verify_subrep,
)


def random_row(rng, m):
    return tuple(Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m))


def random_witness(rng, rep) -> tuple[str, SubrepWitness]:
    """A witness of a random kind: a closure (valid), random rows
    (mostly invalid), a dependent basis, a row of the wrong length or
    the wrong number of vertices."""
    kind = rng.choice(("closure", "closure", "random", "random", "dependent",
                       "wrong-length", "wrong-vertices"))
    if kind == "closure":
        seeds = []
        for vertex, m in enumerate(rep.n):
            if m and rng.random() < 0.5:
                seeds.append((vertex, tuple(rng.randint(-2, 2) for _ in range(m))))
        spaces = reference_closure(_out_maps(rep), rep.n, seeds, _BudgetMeter(10**9))
        return kind, SubrepWitness(tuple(space.basis() for space in spaces))
    spans = [
        [random_row(rng, m) for _ in range(rng.randint(0, m))] for m in rep.n
    ]
    live = [i for i, span in enumerate(spans) if span]
    if kind == "dependent" and live:
        span = spans[rng.choice(live)]
        span.append(tuple(2 * x for x in rng.choice(span)))
    elif kind == "wrong-length" and live:
        span = spans[rng.choice(live)]
        row = span[-1]
        span[-1] = row + (Q(1),) if rng.random() < 0.5 else row[:-1]
    elif kind == "wrong-vertices":
        spans.append([])
    return kind, SubrepWitness(tuple(tuple(span) for span in spans))


def outcome(check, rep, witness):
    try:
        return repr(check(rep, witness))
    except ShapeMismatchError as exc:
        return f"raised {exc}"


def test_verify_subrep_matches_rational_reference():
    # The same SubrepCheck, field for field and down to the entry types
    # of an escaping vector, or the same error, as the re-verification
    # on the rational maps.
    rng = random.Random(4099)
    seen = {"valid": 0, "escaping": 0, "raised": 0, "zero-dimension vertex": 0}
    for _ in range(600):
        rep = random_rep(rng, max_denominator=rng.choice((1, 2, 3)))
        seen["zero-dimension vertex"] += 0 in rep.n
        for _ in range(3):
            _, witness = random_witness(rng, rep)
            want = outcome(reference_verify_subrep, rep, witness)
            assert outcome(verify_subrep, rep, witness) == want
            if want.startswith("raised"):
                seen["raised"] += 1
            elif "valid=True" in want:
                seen["valid"] += 1
            else:
                seen["escaping"] += 1
    assert min(seen.values()) > 150, seen


def test_integer_form_leaves_equality_hash_and_repr_alone():
    rng = random.Random(4127)
    for _ in range(40):
        rep = random_rep(rng, max_denominator=3)
        twin = DoubleQuiverRep(rep.quiver, rep.n, rep.x_maps, rep.y_maps)
        before = (repr(rep), hash(rep))
        moment_map(rep)
        assert "_integral_maps" in vars(rep)
        assert "_integral_maps" not in vars(twin)
        assert (repr(rep), hash(rep)) == before == (repr(twin), hash(twin))
        assert rep == twin and twin == rep


def test_each_map_is_cleared_once(monkeypatch):
    calls = []
    integral = representation._integral

    def counted(mat):
        calls.append(mat)
        return integral(mat)

    monkeypatch.setattr(representation, "_integral", counted)
    rng = random.Random(4129)
    for _ in range(20):
        rep = random_rep(rng, max_denominator=3)
        theta = orthogonal_character(rng, rep.n)
        calls.clear()
        moment_map(rep)
        verify_subrep(rep, SubrepWitness(tuple(() for _ in rep.n)))
        if theta is not None:
            try:
                destabilizer_search(rep, theta, SearchLimits(budget=2_000))
            except BudgetExceededError:
                pass
        moment_map(rep)
        assert len(calls) == 2 * len(rep.arrows)
