"""Explicit representations of a double quiver over exact rationals.

A representation assigns to every arrow of the base quiver a forward
matrix ``x`` and a backward matrix ``y``.  The moment map, membership
in its zero fiber, slope semistability in King's sense (via verified
subrepresentation witnesses and bounded destabilizer search) and a
bounded Jordan-Holder-style filtration search all live here.

Semistability itself quantifies over all subrepresentations, so the
searches are honest but bounded: a ``NoneFound`` return carries a
certificate of what was searched and is not a proof of semistability.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul
from typing import Iterator, NamedTuple, Optional, Sequence

from . import linalg
from .errors import (
    BudgetExceededError,
    DegenerateValueError,
    InternalInvariantError,
    LatticeMismatchError,
    ShapeMismatchError,
)
from .linalg import Mat, RowSpace, Vec, _cleared
from .quiver import Arrow, DimVector, ExtQuiver

DEFAULT_SEARCH_BUDGET = 100_000


@dataclass(frozen=True)
class DoubleQuiverRep:
    """Matrices (x_e, y_e) for every arrow e of the base quiver.

    ``x_maps[k]`` acts V_source -> V_target for the k-th arrow of the
    canonical arrow list (shape n_target x n_source); ``y_maps[k]`` is
    the opposite-direction matrix (shape n_source x n_target).
    """

    quiver: ExtQuiver
    n: DimVector
    x_maps: tuple[Mat, ...]
    y_maps: tuple[Mat, ...]

    def __post_init__(self):
        n = tuple(int(x) for x in self.n)
        object.__setattr__(self, "n", n)
        if len(n) != self.quiver.num_vertices:
            raise LatticeMismatchError(
                f"dimension vector of length {len(n)} for "
                f"{self.quiver.num_vertices} vertices"
            )
        arrows = self.quiver.arrow_list()
        x_maps = tuple(linalg.matrix(m) for m in self.x_maps)
        y_maps = tuple(linalg.matrix(m) for m in self.y_maps)
        object.__setattr__(self, "x_maps", x_maps)
        object.__setattr__(self, "y_maps", y_maps)
        if len(x_maps) != len(arrows) or len(y_maps) != len(arrows):
            raise ShapeMismatchError(
                f"{len(arrows)} arrows but {len(x_maps)} x-maps / {len(y_maps)} y-maps"
            )
        for arrow, x, y in zip(arrows, x_maps, y_maps):
            for name, m, want in (
                ("x", x, (n[arrow.target], n[arrow.source])),
                ("y", y, (n[arrow.source], n[arrow.target])),
            ):
                # A matrix with zero rows carries no column count, so
                # only the row count is checkable there.
                ok = len(m) == want[0] and all(len(row) == want[1] for row in m)
                if not ok:
                    raise ShapeMismatchError(
                        f"{name}-map {arrow.index} has shape {linalg.shape(m)}, "
                        f"expected {want}"
                    )

    @property
    def arrows(self) -> tuple[Arrow, ...]:
        return self.quiver.arrow_list()

    @property
    def total_dim(self) -> int:
        return sum(self.n)

    @classmethod
    def zero(cls, quiver: ExtQuiver, n: Sequence[int]) -> "DoubleQuiverRep":
        n = tuple(int(x) for x in n)
        xs, ys = [], []
        for arrow in quiver.arrow_list():
            xs.append(linalg.zeros(n[arrow.target], n[arrow.source]))
            ys.append(linalg.zeros(n[arrow.source], n[arrow.target]))
        return cls(quiver, n, tuple(xs), tuple(ys))


BlockEndomorphism = tuple[Mat, ...]


def moment_map(rep: DoubleQuiverRep) -> BlockEndomorphism:
    """Blockwise value of sum of commutators [x_e, y_e].

    The block at vertex i collects x_e y_e over arrows ending at i
    minus y_e x_e over arrows starting at i; for a loop this is the
    literal commutator.  The blockwise traces always sum to zero.
    """
    blocks = [linalg.zeros(m, m) for m in rep.n]
    for arrow, x, y in zip(rep.arrows, rep.x_maps, rep.y_maps):
        if rep.n[arrow.source] == 0 or rep.n[arrow.target] == 0:
            continue  # both products vanish identically
        blocks[arrow.target] = linalg.add(blocks[arrow.target], linalg.matmul(x, y))
        blocks[arrow.source] = linalg.sub(blocks[arrow.source], linalg.matmul(y, x))
    return tuple(blocks)


def in_zero_fiber(rep: DoubleQuiverRep) -> bool:
    return all(linalg.is_zero_matrix(b) for b in moment_map(rep))


def theta_slope(theta: Sequence, m: Sequence[int]) -> Fraction:
    """(theta . m) / sum(m); undefined on the zero dimension vector."""
    m = tuple(int(x) for x in m)
    total = sum(m)
    if total == 0:
        raise ZeroDivisionError("slope of the zero dimension vector")
    theta = tuple(Fraction(t) for t in theta)
    if len(theta) != len(m):
        raise LatticeMismatchError(
            f"character of length {len(theta)} against dimension vector of length {len(m)}"
        )
    return sum((t * x for t, x in zip(theta, m)), Fraction(0)) / total


@dataclass(frozen=True)
class SubrepWitness:
    """Per-vertex bases of a candidate subrepresentation."""

    spans: tuple[Mat, ...]  # rows span the subspace at each vertex

    def dims(self) -> DimVector:
        return tuple(len(span) for span in self.spans)


class ArrowRef(NamedTuple):
    """Names one map of the double quiver: direction 'x' or 'y' plus
    the canonical arrow it belongs to."""

    direction: str
    arrow: Arrow


@dataclass(frozen=True)
class SubrepCheck:
    valid: bool
    dims: Optional[DimVector] = None
    failing_map: Optional[ArrowRef] = None
    escaping_vector: Optional[Vec] = None


def verify_subrep(rep: DoubleQuiverRep, witness: SubrepWitness) -> SubrepCheck:
    """Exact closure check: every map of the double quiver must send
    the witness span at its source into the witness span at its target."""
    if len(witness.spans) != len(rep.n):
        raise ShapeMismatchError(
            f"witness over {len(witness.spans)} vertices, representation has {len(rep.n)}"
        )
    spaces = []
    for i, span in enumerate(witness.spans):
        space = RowSpace(rep.n[i])
        for row in span:
            if len(row) != rep.n[i]:
                raise ShapeMismatchError(
                    f"witness vector of length {len(row)} at vertex {i} "
                    f"of dimension {rep.n[i]}"
                )
            if not space.add(row):
                raise ShapeMismatchError(
                    f"witness basis at vertex {i} is linearly dependent"
                )
        spaces.append(space)
    for arrow, x, y in zip(rep.arrows, rep.x_maps, rep.y_maps):
        for row in spaces[arrow.source].basis():
            image = linalg.matvec(x, row)
            if not spaces[arrow.target].contains(image):
                return SubrepCheck(
                    False, failing_map=ArrowRef("x", arrow), escaping_vector=image
                )
        for row in spaces[arrow.target].basis():
            image = linalg.matvec(y, row)
            if not spaces[arrow.source].contains(image):
                return SubrepCheck(
                    False, failing_map=ArrowRef("y", arrow), escaping_vector=image
                )
    return SubrepCheck(True, dims=tuple(space.dim for space in spaces))


@dataclass(frozen=True)
class SearchLimits:
    """Budgets for the bounded searches.

    ``budget`` counts map applications performed inside closures; it is
    the hard guarantee that a search terminates.  The seed categories:
    single standard basis vectors, coordinate subspace combinations,
    small-grid seeds (only when the total dimension is at most
    ``grid_dim_cap``), then ``prng_samples`` seeded random vectors.
    """

    budget: int = DEFAULT_SEARCH_BUDGET
    max_subset_seeds: int = 4096
    prng_samples: int = 8
    seed: int = 0
    grid_radius: int = 1
    grid_dim_cap: int = 8
    max_grid_tuples: int = 1024


@dataclass(frozen=True)
class SearchCertificate:
    """What a completed search actually looked at."""

    seeds_tried: tuple[tuple[str, int], ...]
    budget_used: int


@dataclass(frozen=True)
class DestabilizerResult:
    found: bool
    witness: Optional[SubrepWitness] = None
    slope: Optional[Fraction] = None
    certificate: Optional[SearchCertificate] = None


class _BudgetMeter:
    def __init__(self, budget: int):
        self.remaining = budget
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        if self.remaining < amount:
            raise BudgetExceededError(
                "search budget exhausted mid-closure; raise the budget to certify"
            )
        self.remaining -= amount
        self.used += amount


IntVec = Sequence[int]
OutMaps = list[list[tuple[tuple[tuple[int, ...], ...], int]]]


def _out_maps(rep: DoubleQuiverRep) -> OutMaps:
    """Per vertex, every map leaving it with its target vertex, each
    cleared to an integer matrix by the lcm of its denominators.  A
    positive multiple of a map has the same invariant subspaces, so the
    closures see the same subrepresentations."""
    out: OutMaps = [[] for _ in rep.n]
    for arrow, x, y in zip(rep.arrows, rep.x_maps, rep.y_maps):
        for mat, source, target in ((x, arrow.source, arrow.target),
                                    (y, arrow.target, arrow.source)):
            den = lcm(*(e.denominator for row in mat for e in row))
            cleared = tuple(
                tuple(e.numerator * (den // e.denominator) for e in row) for row in mat
            )
            out[source].append((cleared, target))
    return out


def _closure(
    out_maps: OutMaps,
    n: DimVector,
    seeds: Sequence[tuple[int, IntVec]],
    meter: _BudgetMeter,
    base: Optional[Sequence[RowSpace]] = None,
) -> list[RowSpace]:
    """Smallest subrepresentation containing ``base`` and the integer
    seed vectors, by iterating every map of the double quiver to a fixed
    point.  Each map application costs one budget unit."""
    if base is None:
        spaces = [RowSpace(m) for m in n]
    else:
        spaces = [space.copy() for space in base]
    worklist: list[tuple[int, IntVec]] = []
    for vertex, vec in seeds:
        if spaces[vertex]._absorb(vec):
            worklist.append((vertex, vec))
    while worklist:
        vertex, vec = worklist.pop()
        for mat, target in out_maps[vertex]:
            meter.spend()
            space = spaces[target]
            if space.dim == space.ambient_dim:
                continue  # a full space absorbs every image
            image = [sum(map(mul, row, vec)) for row in mat]
            if space._absorb(image):
                worklist.append((target, image))
    return spaces


def _witness_from_spaces(spaces: Sequence[RowSpace]) -> SubrepWitness:
    return SubrepWitness(tuple(space.basis() for space in spaces))


def _unit(m: int, k: int) -> tuple[int, ...]:
    return tuple(1 if c == k else 0 for c in range(m))


def _basis_seeds(rep: DoubleQuiverRep) -> Iterator[tuple[str, list[tuple[int, IntVec]]]]:
    for vertex, m in enumerate(rep.n):
        for k in range(m):
            yield "basis", [(vertex, _unit(m, k))]


def _subset_seeds(
    rep: DoubleQuiverRep, limits: SearchLimits
) -> Iterator[tuple[str, list[tuple[int, IntVec]]]]:
    coords = [
        (vertex, k) for vertex, m in enumerate(rep.n) for k in range(m)
    ]
    count = 0
    for size in range(2, len(coords) + 1):
        for subset in itertools.combinations(coords, size):
            if count >= limits.max_subset_seeds:
                return
            count += 1
            yield "subset", [(vertex, _unit(rep.n[vertex], k)) for vertex, k in subset]


@cache
def _grid_directions(dim: int, radius: int) -> tuple[tuple[int, ...], ...]:
    """Primitive grid vectors up to positive scaling, first nonzero
    coordinate positive, in deterministic order."""
    seen = set()
    out = []
    for cand in itertools.product(range(-radius, radius + 1), repeat=dim):
        if all(c == 0 for c in cand):
            continue
        lead = next(c for c in cand if c != 0)
        if lead < 0:
            cand = tuple(-c for c in cand)
        g = 0
        for c in cand:
            g = gcd(g, abs(c))
        cand = tuple(c // g for c in cand)
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    return tuple(out)


@cache
def _grid_subspaces(dim: int, radius: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Distinct subspaces of Q^dim spanned by grid vectors, including
    the zero and full subspace, ordered by their reduced bases; each is
    given by that basis with every row cleared to integers."""
    directions = _grid_directions(dim, radius)
    seen = set()
    for size in range(0, dim + 1):
        for combo in itertools.combinations(directions, size):
            space = RowSpace(dim)
            for vec in combo:
                space._absorb(vec)
            if space.dim == size:
                seen.add(space.basis())
    ordered = sorted(seen, key=lambda basis: (len(basis), basis))
    return tuple(tuple(_cleared(row) for row in basis) for basis in ordered)


def _grid_seeds(
    rep: DoubleQuiverRep, limits: SearchLimits
) -> Iterator[tuple[str, list[tuple[int, IntVec]]]]:
    if rep.total_dim > limits.grid_dim_cap:
        return
    for vertex, m in enumerate(rep.n):
        if m > 4:
            continue  # direction count grows as 3^m
        for vec in _grid_directions(m, limits.grid_radius):
            yield "grid", [(vertex, vec)]
    if any(m > 3 for m in rep.n):
        return  # subspace enumeration is only cheap in low vertex dimension
    per_vertex = [_grid_subspaces(m, limits.grid_radius) for m in rep.n]
    total = 1
    for options in per_vertex:
        total *= len(options)
    if total > limits.max_grid_tuples:
        return
    for choice in itertools.product(*per_vertex):
        seeds = [
            (vertex, vec) for vertex, basis in enumerate(choice) for vec in basis
        ]
        if seeds:
            yield "grid-tuple", seeds


def _prng_seeds(
    rep: DoubleQuiverRep, limits: SearchLimits
) -> Iterator[tuple[str, list[tuple[int, IntVec]]]]:
    rng = random.Random(limits.seed)
    for _ in range(limits.prng_samples):
        seeds = []
        for vertex, m in enumerate(rep.n):
            vec = tuple(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)
            )
            if any(vec):
                seeds.append((vertex, _cleared(vec)))
        if seeds:
            yield "prng", seeds


def _all_seeds(rep, limits) -> Iterator[tuple[str, list[tuple[int, IntVec]]]]:
    yield from _basis_seeds(rep)
    yield from _subset_seeds(rep, limits)
    yield from _grid_seeds(rep, limits)
    yield from _prng_seeds(rep, limits)


def _vanishing_character(rep: DoubleQuiverRep, theta: Sequence) -> tuple[Fraction, ...]:
    """theta as rationals, checked to vanish on the dimension vector."""
    if rep.total_dim == 0:
        raise DegenerateValueError("the zero representation has no subrepresentations to search")
    theta = tuple(Fraction(t) for t in theta)
    if theta_slope(theta, rep.n) != 0:
        raise LatticeMismatchError("character must vanish on the dimension vector")
    return theta


def destabilizer_search(
    rep: DoubleQuiverRep,
    theta: Sequence,
    limits: SearchLimits = SearchLimits(),
) -> DestabilizerResult:
    """Look for a subrepresentation with strictly positive slope.

    Every returned witness is re-verified (closure plus slope) before
    it is handed back.  A ``found=False`` result certifies only that no
    closure of any tried seed has positive slope.
    """
    theta = _vanishing_character(rep, theta)
    signs = _cleared(theta)
    out_maps = _out_maps(rep)
    meter = _BudgetMeter(limits.budget)
    counts: dict[str, int] = {}
    for category, seeds in _all_seeds(rep, limits):
        counts[category] = counts.get(category, 0) + 1
        spaces = _closure(out_maps, rep.n, seeds, meter)
        m = tuple(space.dim for space in spaces)
        if sum(m) == 0:
            continue
        if sum(map(mul, signs, m)) > 0:  # positive slope
            witness = _witness_from_spaces(spaces)
            check = verify_subrep(rep, witness)
            if not (check.valid and theta_slope(theta, check.dims) > 0):
                raise InternalInvariantError("destabilizing witness failed re-verification")
            return DestabilizerResult(
                True, witness=witness, slope=theta_slope(theta, m)
            )
    return DestabilizerResult(
        False,
        certificate=SearchCertificate(
            seeds_tried=tuple(sorted(counts.items())), budget_used=meter.used
        ),
    )


@dataclass(frozen=True)
class FiltrationResult:
    complete: bool
    steps: tuple[SubrepWitness, ...] = ()
    graded_dims: tuple[DimVector, ...] = ()
    reason: Optional[str] = None


def jordan_holder_search(
    rep: DoubleQuiverRep,
    theta: Sequence,
    limits: SearchLimits = SearchLimits(),
) -> FiltrationResult:
    """Greedy bounded filtration by slope-zero subrepresentations.

    Repeatedly grows the current term by the smallest slope-zero
    closure found among all seeds.  When the budget dies first, returns
    an honest Incomplete instead of a partial claim.
    """
    theta = _vanishing_character(rep, theta)
    if limits.budget <= 0:
        return FiltrationResult(False, reason="zero search budget")
    signs = _cleared(theta)
    out_maps = _out_maps(rep)
    meter = _BudgetMeter(limits.budget)
    current = [RowSpace(m) for m in rep.n]
    steps: list[SubrepWitness] = []
    dims: list[DimVector] = [tuple(0 for _ in rep.n)]
    try:
        while sum(space.dim for space in current) < rep.total_dim:
            cur_total = sum(space.dim for space in current)
            best: Optional[list[RowSpace]] = None
            best_total = None
            for _, seeds in _all_seeds(rep, limits):
                spaces = _closure(out_maps, rep.n, seeds, meter, base=current)
                total = sum(space.dim for space in spaces)
                if total <= cur_total:
                    continue
                m = tuple(space.dim for space in spaces)
                if sum(map(mul, signs, m)):
                    continue  # nonzero slope
                if best is None or total < best_total:
                    best, best_total = spaces, total
                    if best_total == cur_total + 1:
                        break
            if best is None:
                return FiltrationResult(
                    False, reason="no slope-zero extension found among tried seeds"
                )
            current = best
            witness = _witness_from_spaces(current)
            check = verify_subrep(rep, witness)
            if not check.valid:
                raise InternalInvariantError("filtration step failed re-verification")
            steps.append(witness)
            dims.append(check.dims)
    except BudgetExceededError:
        return FiltrationResult(False, reason="search budget exhausted")
    graded = tuple(
        tuple(b - a for a, b in zip(prev, cur))
        for prev, cur in zip(dims, dims[1:])
    )
    return FiltrationResult(True, steps=tuple(steps), graded_dims=graded)


@dataclass(frozen=True)
class GitCharacter:
    """Integer exponents of a determinant character on the gauge group."""

    exponents: tuple[int, ...]


def git_character(theta: Sequence[int]) -> GitCharacter:
    """Tag an integer vector as determinant-character exponents."""
    return GitCharacter(tuple(int(t) for t in theta))


def integral_character(exponents: Sequence) -> GitCharacter:
    """Clear denominators of rational exponents by their lcm."""
    return GitCharacter(_cleared(exponents))
