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
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from math import lcm, prod
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import linalg
from .errors import (
    BudgetExceededError,
    DegenerateValueError,
    InternalInvariantError,
    ShapeMismatchError,
)
from .linalg import Mat, RowSpace, Vec, clear, primitive
from .quiver import Arrow, DimVector, ExtQuiver, _check_length
from .walls import CharacterPoint

DEFAULT_SEARCH_BUDGET = 100_000
_ZERO_REP = "the zero representation has no subrepresentations to search"


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
        n = _check_length(self.quiver, self.n)
        object.__setattr__(self, "n", n)
        x_maps = tuple(linalg.matrix(m) for m in self.x_maps)
        y_maps = tuple(linalg.matrix(m) for m in self.y_maps)
        object.__setattr__(self, "x_maps", x_maps)
        object.__setattr__(self, "y_maps", y_maps)
        # Counted before the arrow list is built: a loop count can be far
        # larger than any list of maps.
        count = sum(self.quiver.loops) + sum(m for _, _, m in self.quiver.arrows)
        if len(x_maps) != count or len(y_maps) != count:
            raise ShapeMismatchError(
                f"{count} arrows but {len(x_maps)} x-maps / {len(y_maps)} y-maps"
            )
        for arrow, x, y in zip(self.quiver.arrow_list(), x_maps, y_maps):
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

    # Built once per representation from the frozen maps; the cache
    # lives outside the fields, which alone make up __eq__, __hash__ and
    # __repr__.
    @cached_property
    def _integral_maps(self) -> tuple[tuple[tuple[IntMat, int], tuple[IntMat, int]], ...]:
        """Per arrow, (x_e, y_e) each as an integer matrix with its least
        common denominator.  The only place a map is cleared."""
        return tuple((_integral(x), _integral(y)) for x, y in zip(self.x_maps, self.y_maps))

    @property
    def total_dim(self) -> int:
        return sum(self.n)

    @classmethod
    def zero(cls, quiver: ExtQuiver, n: Sequence[int]) -> "DoubleQuiverRep":
        n = _check_length(quiver, n)
        xs, ys = [], []
        for arrow in quiver.arrow_list():
            xs.append(linalg.zeros(n[arrow.target], n[arrow.source]))
            ys.append(linalg.zeros(n[arrow.source], n[arrow.target]))
        return cls(quiver, n, tuple(xs), tuple(ys))


BlockEndomorphism = tuple[Mat, ...]
IntMat = tuple[tuple[int, ...], ...]


def _integral(mat: Mat) -> tuple[IntMat, int]:
    """``mat`` as an integer matrix of the same shape and its least
    common denominator, which divides it back."""
    den, flat = clear([e for row in mat for e in row])
    width = len(mat[0]) if mat else 0
    return tuple(flat[k * width:(k + 1) * width] for k in range(len(mat))), den


def _int_matmul(a: IntMat, b: IntMat) -> IntMat:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _block_sums(rep: DoubleQuiverRep) -> Iterator[tuple[int, list[list[int]]]]:
    """Per vertex, the moment map block as a denominator and its integer
    numerators, summed on the cleared maps over one common denominator."""
    terms: list[list[tuple[int, IntMat, int]]] = [[] for _ in rep.n]
    for arrow, ((xi, dx), (yi, dy)) in zip(rep.arrows, rep._integral_maps):
        if rep.n[arrow.source] == 0 or rep.n[arrow.target] == 0:
            continue  # both products vanish identically
        terms[arrow.target].append((1, _int_matmul(xi, yi), dx * dy))
        terms[arrow.source].append((-1, _int_matmul(yi, xi), dx * dy))
    for m, vertex_terms in zip(rep.n, terms):
        den = lcm(*(d for _, _, d in vertex_terms))
        scaled = [(sign * (den // d), p) for sign, p, d in vertex_terms]
        yield den, [[sum([k * p[r][c] for k, p in scaled]) for c in range(m)] for r in range(m)]


def moment_map(rep: DoubleQuiverRep) -> BlockEndomorphism:
    """Blockwise value of sum of commutators [x_e, y_e].

    The block at vertex i collects x_e y_e over arrows ending at i
    minus y_e x_e over arrows starting at i; for a loop this is the
    literal commutator.  The blockwise traces always sum to zero.
    """
    return tuple(
        tuple(tuple([Fraction(a, den) for a in row]) for row in block)
        for den, block in _block_sums(rep)
    )


def in_zero_fiber(rep: DoubleQuiverRep) -> bool:
    return not any(a for _, block in _block_sums(rep) for row in block for a in row)


class SubrepWitness(NamedTuple):
    """Per-vertex bases of a candidate subrepresentation."""

    spans: tuple[Mat, ...]  # rows span the subspace at each vertex

    def dims(self) -> DimVector:
        return tuple(len(span) for span in self.spans)


class ArrowRef(NamedTuple):
    """Names one map of the double quiver: direction 'x' or 'y' plus
    the canonical arrow it belongs to."""

    direction: str
    arrow: Arrow


class SubrepCheck(NamedTuple):
    valid: bool
    dims: Optional[DimVector] = None
    failing_map: Optional[ArrowRef] = None
    escaping_vector: Optional[Vec] = None


def verify_subrep(rep: DoubleQuiverRep, witness: SubrepWitness) -> SubrepCheck:
    """Exact closure check: every map of the double quiver must send
    the witness span at its source into the witness span at its target.

    The cleared maps act on the spaces' primitive integer echelon rows,
    positive multiples of the basis rows; a positive multiple of a map
    has the same invariant subspaces.  An escaping vector is the exact
    image of the reduced basis row under the rational map."""
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
    for arrow, ((x, dx), (y, dy)) in zip(rep.arrows, rep._integral_maps):
        for direction, mat, den, source, target in (
            ("x", x, dx, arrow.source, arrow.target),
            ("y", y, dy, arrow.target, arrow.source),
        ):
            space = spaces[source]
            for row, piv in zip(space._rows, space._pivots):
                image = [sum(map(mul, r, row)) for r in mat]
                if any(spaces[target]._reduce(image)):
                    scale = den * row[piv]
                    return SubrepCheck(
                        False,
                        failing_map=ArrowRef(direction, arrow),
                        escaping_vector=tuple(Fraction(a, scale) for a in image),
                    )
    return SubrepCheck(True, dims=tuple(space.dim for space in spaces))


@dataclass(frozen=True)
class SearchLimits:
    """Budgets for the bounded searches.

    ``budget`` counts map applications of closures; it is the hard
    guarantee that a search terminates.  A closure grown from a
    subrepresentation B is charged what a worklist applying every map
    to each new vector spends: T = sum over vertices v of (dimension
    gained at v) times (number of maps leaving v), unchanged by the
    bitmask sums of ``_SeedClosures`` and by its stop at the whole
    representation.  When T exceeds what remains, the
    closure raises ``BudgetExceededError`` (which
    ``jordan_holder_search`` reports as incomplete) after at most the
    per-vector closures of its own seed set.  Every search on one
    dimension vector with equal ``prng_samples`` and ``seed``, whatever
    its budget, reads its seed sets from one shared ``_SeedPlan`` (see
    there).  Every field must be an ``int`` (a ``bool`` is not one);
    anything else raises ``TypeError``.
    """

    budget: int = DEFAULT_SEARCH_BUDGET
    prng_samples: int = 8
    seed: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            if type(value) is not int:
                raise TypeError(f"SearchLimits.{name} must be an int, not {value!r}")


class SearchCertificate(NamedTuple):
    """What a completed search actually looked at."""

    seeds_tried: tuple[tuple[str, int], ...]
    budget_used: int


class DestabilizerResult(NamedTuple):
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
OutMaps = list[list[tuple[IntMat, int]]]
SeedSet = tuple[str, tuple[int, ...]]  # (category, seed numbers in a _SeedPlan)
MaskSet = tuple[str, int]  # (category, mask of the seeds' closures)


def _out_maps(rep: DoubleQuiverRep) -> OutMaps:
    """Per vertex, every cleared map leaving it with its target vertex.
    A positive multiple of a map has the same invariant subspaces, so
    the closures see the same subrepresentations."""
    out: OutMaps = [[] for _ in rep.n]
    for arrow, ((x, _), (y, _)) in zip(rep.arrows, rep._integral_maps):
        out[arrow.source].append((x, arrow.target))
        out[arrow.target].append((y, arrow.source))
    return out


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


class _SeedClosures:
    """The closures of one search, as sums of interned per-vector closures.

    The subrepresentation generated by seed vectors s_1..s_k is
    cl(s_1) + ... + cl(s_k), since a sum of subrepresentations is one.
    Seeds are numbers into ``seeds``, a ``_SeedPlan``'s list of
    (vertex, direction) pairs, so the maps are iterated once per
    distinct direction, and each distinct closure gets one bit: equal
    closures share it, keyed by their primitive echelon rows, which are
    unique for a subspace.  A seed set is the OR of its seeds' bits,
    taken in seed order up to the first seed after which the sum fills
    the representation.  Each distinct mask's sum is built once, with
    its weight w = sum over vertices v of dim_v times the maps leaving
    v.  The sum over a base mask B is charged w(B | mask) - w(B) each
    time it is asked for: what the worklist of the closure from B would
    spend (see ``SearchLimits``).  All of this lives as long as the
    search; only the plan is shared.

    Once a seed at vertex v has closed to the whole representation, a
    later closure whose space at v fills contains that seed, hence all
    of cl(seed): ``_of`` stops there and returns the interned whole
    parts, whose bit ``_bit`` hands back unkeyed.  On a generic
    representation every closure after the first is the whole one.
    Charges are read off dimension vectors, not off the maps a worklist
    applied, so the shortcut leaves every charge as it was.
    """

    def __init__(self, rep: DoubleQuiverRep, meter: _BudgetMeter,
                 seeds: Sequence[tuple[int, IntVec]]):
        self.out_maps = _out_maps(rep)
        self.out_degree = [len(maps) for maps in self.out_maps]
        self.n = list(rep.n)
        self.meter = meter
        self.seeds = seeds
        self.bit_of: dict[int, int] = {}  # seed number -> bit
        self.set_masks: list[int] = []  # the masks of the seed sets read so far
        self.interned: dict[tuple, int] = {(): 0}  # the zero closure adds no bit
        self.parts: list[tuple[tuple[int, RowSpace, int], ...]] = []
        self.total = sum(rep.n)
        self.whole: Optional[tuple[tuple[int, RowSpace, int], ...]] = None  # interned parts
        self.whole_bit: Optional[int] = None
        self.whole_at = [False] * len(rep.n)  # vertices with a seed that closes to the whole
        # mask -> (spaces, dims, weight) of its sum
        self.sums = {0: ([RowSpace(m) for m in rep.n], [0] * len(rep.n), 0)}

    def _of(self, vertex: int, vec: IntVec) -> tuple[tuple[int, RowSpace, int], ...]:
        """The nonzero spaces of cl(vec at vertex) as (vertex, space,
        dim), by iterating every map to a fixed point, or ``whole`` as
        soon as a space fills at a vertex in ``whole_at``."""
        whole_at = self.whole_at
        spaces = [RowSpace(m) for m in self.n]
        space = spaces[vertex]
        if not space._absorb(vec):
            return ()
        if whole_at[vertex] and space.dim == space.ambient_dim:
            return self.whole
        worklist = [(vertex, vec)]
        while worklist:
            vertex, vec = worklist.pop()
            for mat, target in self.out_maps[vertex]:
                space = spaces[target]
                if space.dim == space.ambient_dim:
                    continue  # a full space absorbs every image
                image = [sum(map(mul, row, vec)) for row in mat]
                if space._absorb(image):
                    if whole_at[target] and space.dim == space.ambient_dim:
                        return self.whole
                    worklist.append((target, image))
        return tuple((i, space, space.dim) for i, space in enumerate(spaces) if space.dim)

    def _bit(self, seed: int) -> int:
        bit = self.bit_of.get(seed)
        if bit is None:
            vertex, vec = self.seeds[seed]
            parts = self._of(vertex, vec)
            if parts is self.whole:
                bit = self.whole_bit
            else:
                key = tuple((i, tuple(map(tuple, space._rows))) for i, space, _ in parts)
                bit = self.interned.get(key)
                if bit is None:
                    bit = self.interned[key] = 1 << len(self.parts)
                    self.parts.append(parts)
                    if parts and sum(dim for _, _, dim in parts) == self.total:
                        self.whole, self.whole_bit = parts, bit
            if bit == self.whole_bit:
                self.whole_at[vertex] = True
            self.bit_of[seed] = bit
        return bit

    def _sum(self, mask: int, bits: Iterable[int]) -> int:
        """``mask`` ORed with single ``bits`` in turn until its sum fills;
        later bits (and the closures behind them) are never asked for.
        Only the final sum is memoised, but memoised ones met on the way
        are adopted.  Spaces are shared and copied before they grow."""
        spaces, dims, _ = self.sums[mask]
        owned: Optional[list[bool]] = None  # None while the lists are memoised ones
        n = self.n
        for bit in bits:
            if mask | bit == mask:
                continue
            mask |= bit
            entry = self.sums.get(mask)
            if entry is not None:
                spaces, dims, _ = entry
                owned = None
            else:
                if owned is None:
                    spaces, dims, owned = spaces[:], dims[:], [False] * len(spaces)
                for i, part, dim in self.parts[bit.bit_length() - 1]:
                    if dims[i] == n[i]:
                        continue
                    if dims[i] == 0 or dim == n[i]:
                        spaces[i], dims[i], owned[i] = part, dim, False
                        continue
                    if not owned[i]:
                        spaces[i], owned[i] = spaces[i].copy(), True
                    space = spaces[i]
                    for row in part._rows:
                        space._absorb(row)
                    dims[i] = space.dim
            if dims == n:
                break
        if mask not in self.sums:
            self.sums[mask] = (spaces, dims, sum(map(mul, dims, self.out_degree)))
        return mask

    def masks(self, seed_sets: Iterable[SeedSet]) -> Iterator[MaskSet]:
        """Each seed set as (category, mask).  Every pass of a search
        reads its plan from the start, so the k-th mask is kept and read
        back on later passes, which close no seed."""
        for k, (category, seeds) in enumerate(seed_sets):
            if k == len(self.set_masks):
                self.set_masks.append(self._sum(0, map(self._bit, seeds)))
            yield category, self.set_masks[k]

    def generated(self, mask: int, base: int = 0) -> tuple[int, list[RowSpace], list[int]]:
        """``base | mask`` with its sum and dimension vector (memoised
        lists), charged over the base."""
        joined = base | mask
        if joined not in self.sums:  # the sum may fill before the last bit
            self.sums[joined] = self.sums[self._sum(base, _bits(mask & ~base))]
        spaces, dims, weight = self.sums[joined]
        cost = weight - self.sums[base][2]
        if cost:
            self.meter.spend(cost)
        return joined, spaces, dims


def _witness_from_spaces(spaces: Sequence[RowSpace]) -> SubrepWitness:
    return SubrepWitness(tuple(space.basis() for space in spaces))


@cache
def _unit(m: int, k: int) -> tuple[int, ...]:
    return tuple(1 if c == k else 0 for c in range(m))


def _direction(vec: IntVec) -> tuple[int, ...]:
    """The primitive multiple of a nonzero integer vector whose first
    nonzero entry is positive; every vector on a line has the same."""
    vec = primitive(vec)
    return vec if next(filter(None, vec)) > 0 else tuple(-x for x in vec)


@cache
def _grid_directions(dim: int) -> tuple[tuple[int, ...], ...]:
    """The directions of the nonzero grid vectors, in deterministic order."""
    grid = itertools.product(_GRID_ENTRIES, repeat=dim)
    return tuple(dict.fromkeys(_direction(vec) for vec in grid if any(vec)))


@cache
def _grid_subspaces(dim: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Distinct subspaces of Q^dim spanned by grid vectors, including
    the zero and full subspace, ordered by their reduced bases; each is
    given by that basis with every row cleared to integers."""
    directions = _grid_directions(dim)
    seen = set()
    for size in range(0, dim + 1):
        for combo in itertools.combinations(directions, size):
            space = RowSpace(dim)
            for vec in combo:
                space._absorb(vec)
            if space.dim == size:
                seen.add(space.basis())
    ordered = sorted(seen, key=lambda basis: (len(basis), basis))
    return tuple(tuple(clear(row)[1] for row in basis) for basis in ordered)


# The fixed shape of every seed plan (see ``_SeedPlan._draw``).
MAX_SUBSET_SEEDS = 4096
_GRID_DIM_CAP = 8
_GRID_ENTRIES = (-1, 0, 1)
_MAX_GRID_TUPLES = 1024
# The 21 values a PRNG seed entry a/b can take, a in [-3, 3], b in [1, 3].
_PRNG_ENTRIES = {(a, b): Fraction(a, b) for a in range(-3, 4) for b in range(1, 4)}


class _SeedPlan:
    """The seed sets of every search on one dimension vector with one
    ``prng_samples`` and ``seed``, drawn lazily and shared.

    ``seeds`` lists the distinct seeds as (vertex, direction) in
    first-seen order; a direction is a primitive integer vector whose
    first nonzero entry is positive, and it closes to what every nonzero
    multiple of it closes to.  The standard basis vectors are seeds
    0..d-1, so a subset seed set is a combination of their indices.
    ``sets`` holds the seed sets drawn so far as (category, seed
    indices).  A reader past its end draws the next set under the
    plan's lock, so no search draws a set it does not read and
    concurrent searches draw each set once.
    """

    def __init__(self, n: DimVector, prng_samples: int, seed: int):
        self.n, self.prng_samples, self.seed = n, prng_samples, seed
        self.seeds = [(vertex, _unit(m, k)) for vertex, m in enumerate(n) for k in range(m)]
        self._index = {seed: k for k, seed in enumerate(self.seeds)}
        self.sets: list[SeedSet] = []
        self._lock = threading.Lock()
        self._draws = self._draw()

    def __iter__(self) -> Iterator[SeedSet]:
        sets = self.sets
        k = 0
        while True:
            if k == len(sets):
                with self._lock:
                    if k == len(sets):  # no other reader drew it meanwhile
                        try:
                            seed_set = next(self._draws, None)
                        except BaseException:
                            # Leave no dead generator behind: the next
                            # reader redraws from the sets already held.
                            self._draws = itertools.islice(self._draw(), len(sets), None)
                            raise
                        if seed_set is None:
                            return
                        sets.append(seed_set)
            yield sets[k]
            k += 1

    def _indices(self, seeds: Iterable[tuple[int, IntVec]]) -> tuple[int, ...]:
        """The seed numbers of nonzero integer seed vectors, each entered
        as its direction when first seen."""
        out = []
        for vertex, vec in seeds:
            seed = (vertex, _direction(vec))
            if seed not in self._index:
                self._index[seed] = len(self.seeds)
                self.seeds.append(seed)
            out.append(self._index[seed])
        return tuple(out)

    def _draw(self) -> Iterator[SeedSet]:
        """In order: single standard basis vectors, at most
        ``MAX_SUBSET_SEEDS`` coordinate subspace combinations, grid seeds
        with entries in ``_GRID_ENTRIES`` (only up to total dimension
        ``_GRID_DIM_CAP``, and at most ``_MAX_GRID_TUPLES`` grid tuples),
        then ``prng_samples`` seeded random vectors."""
        n = self.n
        d = sum(n)
        for k in range(d):
            yield "basis", (k,)
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(d), size) for size in range(2, d + 1))
        for subset in itertools.islice(subsets, MAX_SUBSET_SEEDS):
            yield "subset", subset
        if d <= _GRID_DIM_CAP:
            for vertex, m in enumerate(n):
                if m <= 4:  # direction count grows as 3^m
                    for vec in _grid_directions(m):
                        yield "grid", self._indices([(vertex, vec)])
            # Subspace enumeration is only cheap in low vertex dimension.
            per_vertex = [_grid_subspaces(m) for m in n] if max(n) <= 3 else []
            if per_vertex and prod(map(len, per_vertex)) <= _MAX_GRID_TUPLES:
                for choice in itertools.product(*per_vertex):
                    if any(choice):
                        yield "grid-tuple", self._indices(
                            (vertex, vec) for vertex, basis in enumerate(choice) for vec in basis)
        rng = random.Random(self.seed)
        for _ in range(self.prng_samples):
            seeds = []
            for vertex, m in enumerate(n):
                _, vec = clear([_PRNG_ENTRIES[rng.randint(-3, 3), rng.randint(1, 3)]
                                for _ in range(m)])
                if any(vec):
                    seeds.append((vertex, vec))
            if seeds:
                yield "prng", self._indices(seeds)


_plans = lru_cache(maxsize=16)(_SeedPlan)


def _seed_plan(n: DimVector, limits: SearchLimits) -> _SeedPlan:
    """The plan every search on ``n`` under ``limits`` shares, whatever
    its budget; the last 16 plans asked for are kept."""
    return _plans(n, limits.prng_samples, limits.seed)


def destabilizer_search(
    rep: DoubleQuiverRep,
    theta: Sequence,
    limits: SearchLimits = SearchLimits(),
) -> DestabilizerResult:
    """Look for a subrepresentation with strictly positive slope.

    Every returned witness is re-verified (closure plus slope) before
    it is handed back.  A ``found=False`` result certifies only that no
    closure of any tried seed has positive slope.  The zero
    representation raises ``DegenerateValueError``; a theta of the wrong
    length, or one that does not vanish on the dimension vector, raises
    ``LatticeMismatchError`` from ``CharacterPoint``.
    """
    if rep.total_dim == 0:
        raise DegenerateValueError(_ZERO_REP)
    point = CharacterPoint(theta, rep.n)
    signs = point._cleared[1]
    meter = _BudgetMeter(limits.budget)
    plan = _seed_plan(rep.n, limits)
    closures = _SeedClosures(rep, meter, plan.seeds)
    counts: dict[str, int] = {}
    for category, mask in closures.masks(plan):
        counts[category] = counts.get(category, 0) + 1
        _, spaces, m = closures.generated(mask)
        if sum(map(mul, signs, m)) > 0:  # positive slope
            witness = _witness_from_spaces(spaces)
            check = verify_subrep(rep, witness)
            if not (check.valid and point._dot_numerator(check.dims) > 0):
                raise InternalInvariantError("destabilizing witness failed re-verification")
            return DestabilizerResult(True, witness=witness, slope=point.slope(m))
    return DestabilizerResult(
        False,
        certificate=SearchCertificate(
            seeds_tried=tuple(sorted(counts.items())), budget_used=meter.used
        ),
    )


class FiltrationResult(NamedTuple):
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
    an honest Incomplete instead of a partial claim.  The zero
    representation and theta raise as in ``destabilizer_search``.
    """
    if rep.total_dim == 0:
        raise DegenerateValueError(_ZERO_REP)
    signs = CharacterPoint(theta, rep.n)._cleared[1]
    if limits.budget <= 0:
        return FiltrationResult(False, reason="zero search budget")
    meter = _BudgetMeter(limits.budget)
    plan = _seed_plan(rep.n, limits)
    closures = _SeedClosures(rep, meter, plan.seeds)
    current = cur_total = 0  # the current term as a mask, and its total dimension
    steps: list[SubrepWitness] = []
    dims: list[DimVector] = [tuple(0 for _ in rep.n)]
    try:
        while cur_total < rep.total_dim:
            best: Optional[int] = None
            best_total = None
            for _, mask in closures.masks(plan):
                joined, _, m = closures.generated(mask, base=current)
                total = sum(m)
                if total <= cur_total:
                    continue
                if sum(map(mul, signs, m)):
                    continue  # nonzero slope
                if best is None or total < best_total:
                    best, best_total = joined, total
                    if best_total == cur_total + 1:
                        break
            if best is None:
                return FiltrationResult(
                    False, reason="no slope-zero extension found among tried seeds"
                )
            current, cur_total = best, best_total
            # No later step asks for a sum that misses the current term.
            closures.sums = {
                k: v for k, v in closures.sums.items() if k & current == current or not k}
            witness = _witness_from_spaces(closures.sums[current][0])
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
