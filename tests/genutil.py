"""Shared PRNG generators for the test suite.

All generators take an explicit random.Random so each test controls
its own seed and stays deterministic.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd
from operator import mul
from typing import Iterable, Iterator, Sequence

from quivermoduli import (
    DoubleQuiverRep,
    ExtQuiver,
    CharacterPoint,
    GramLattice,
    PolystableDecomposition,
)
from quivermoduli.errors import (
    DegenerateValueError,
    HomNonvanishingError,
    LatticeMismatchError,
    MalformedSummandError,
    QuiverModuliError,
    ShapeMismatchError,
)
from quivermoduli.lattice import LatticeVector, pairing, square
from quivermoduli.linalg import Mat, RowSpace, clear, primitive, shape
from quivermoduli.representation import ArrowRef, SearchLimits, SubrepCheck
from quivermoduli.stability import GaussianRational, StabilityFunction
from quivermoduli.stratum import HyperbolicPair, analyze_stratum
from quivermoduli.walls import _coefficients, _degree_numerators, _dot

# Even lattices with enough isotropic/spherical/positive classes to
# make rejection sampling productive.
EVEN_GRAMS = (
    ((0, 1), (1, 0)),
    ((-2, 0), (0, 2)),
    ((0, 0, -1), (0, 2, 0), (-1, 0, 0)),
    ((0, 1, 0), (1, 0, 0), (0, 0, -2)),
    ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
)


def random_even_lattice(rng: random.Random, max_rank: int = 4) -> GramLattice:
    grams = [g for g in EVEN_GRAMS if len(g) <= max_rank]
    return GramLattice(rng.choice(grams), even=True)


def random_vector(rng: random.Random, lat: GramLattice, bound: int = 6):
    while True:
        coords = tuple(rng.randint(-bound, bound) for _ in range(lat.rank))
        if any(coords):
            return lat.vector(coords)


def random_decomposition(
    rng: random.Random,
    max_summands: int = 4,
    entry_bound: int = 6,
    max_mult: int = 3,
    max_rank: int = 4,
) -> PolystableDecomposition:
    """Rejection-sample a valid polystable decomposition."""
    while True:
        lat = random_even_lattice(rng, max_rank)
        s = rng.randint(1, max_summands)
        classes = []
        for _ in range(s):
            classes.append(random_vector(rng, lat, entry_bound))
        mults = [rng.randint(1, max_mult) for _ in range(s)]
        try:
            return PolystableDecomposition.of(zip(classes, mults))
        except QuiverModuliError:
            continue


def random_quiver(rng: random.Random, max_vertices: int = 3) -> ExtQuiver:
    s = rng.randint(1, max_vertices)
    loops = tuple(rng.randint(0, 2) for _ in range(s))
    arrows = []
    for i, j in combinations(range(s), 2):
        m = rng.randint(0, 2)
        if m:
            arrows.append((i, j, m))
    return ExtQuiver(loops, tuple(arrows))


def random_rep(
    rng: random.Random,
    quiver: ExtQuiver | None = None,
    max_total_dim: int = 8,
    entry_bound: int = 3,
    grid_entries: bool = False,
    max_denominator: int = 1,
) -> DoubleQuiverRep:
    """A random representation; ``max_denominator > 1`` draws each
    entry's denominator from 1..max_denominator."""
    if quiver is None:
        quiver = random_quiver(rng)
    while True:
        n = tuple(rng.randint(0, 3) for _ in range(quiver.num_vertices))
        if 0 < sum(n) <= max_total_dim:
            break
    xs, ys = [], []
    for arrow in quiver.arrow_list():
        rows_x, cols_x = n[arrow.target], n[arrow.source]
        if grid_entries:
            entry = lambda: Fraction(rng.randint(-1, 1))
        elif max_denominator > 1:
            entry = lambda: Fraction(
                rng.randint(-entry_bound, entry_bound), rng.randint(1, max_denominator)
            )
        else:
            entry = lambda: Fraction(rng.randint(-entry_bound, entry_bound))
        xs.append(tuple(tuple(entry() for _ in range(cols_x)) for _ in range(rows_x)))
        ys.append(tuple(tuple(entry() for _ in range(rows_x)) for _ in range(cols_x)))
    return DoubleQuiverRep(quiver, n, tuple(xs), tuple(ys))


def random_gaussian(rng: random.Random, bound: int = 3) -> GaussianRational:
    def frac():
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 3))

    return GaussianRational(frac(), frac())


class FractionSubclass(Fraction):
    """A ``Fraction`` subtype; value constructors store plain ``Fraction``s."""


# Reference normalisers.  A rational field is coerced twice, as the
# value constructors once did (``GaussianRational.of`` converted to
# ``Fraction`` before ``__post_init__`` converted again); an integer
# field is never coerced, only refused unless each entry is an int.  The
# constructors must agree with them on value, field type and exception.


def reference_rational(x) -> Fraction:
    return Fraction(Fraction(x))


def strict_ints(entries, what: str) -> tuple[int, ...]:
    """The entries as a tuple, refused unless each is an int; ``what``
    names them in the message."""
    for x in entries:
        if type(x) is not int:
            raise ValueError(f"{what} must be ints, not {x!r}")
    return tuple(entries)


def random_stability(rng: random.Random, lat: GramLattice) -> StabilityFunction:
    return StabilityFunction(lat, tuple(random_gaussian(rng) for _ in range(lat.rank)))


def add_stability(z1: StabilityFunction, z2: StabilityFunction) -> StabilityFunction:
    """The pointwise sum of two stability functions on one lattice."""
    return StabilityFunction(
        z1.lattice, tuple(a + b for a, b in zip(z1.values, z2.values))
    )


def orthogonal_character(rng: random.Random, n, bound: int = 4):
    """A nonzero rational vector with theta . n = 0, or None if n has
    fewer than two nonzero entries."""
    live = [i for i, x in enumerate(n) if x != 0]
    if len(live) < 2:
        return None
    for _ in range(200):
        theta = [Fraction(rng.randint(-bound, bound)) for _ in n]
        # Fix up one live coordinate to land exactly on the hyperplane.
        k = rng.choice(live)
        rest = sum(theta[i] * n[i] for i in range(len(n)) if i != k)
        theta[k] = Fraction(-rest, n[k])
        if any(theta):
            return tuple(theta)
    return None


def identity(n: int):
    """The n x n identity matrix over Q."""
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def inverse(a):
    """Inverse of a square rational matrix by Gauss-Jordan elimination;
    ``ShapeMismatchError`` when it is singular or not square."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ShapeMismatchError("inverse of a non-square matrix")
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ShapeMismatchError("singular matrix has no inverse")
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


# Rational matrix arithmetic for the oracles; the library runs on integers.


def fraction_det(rows) -> Fraction:
    """Determinant of a square matrix by Gaussian elimination with
    Fraction division: the reference for the library's fraction-free
    integer determinant."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            c = m[r][col] / m[col][col]
            m[r] = [x - c * y for x, y in zip(m[r], m[col])]
    return det


def add(a: Mat, b: Mat) -> Mat:
    if shape(a) != shape(b):
        raise ShapeMismatchError(f"cannot add {shape(a)} and {shape(b)}")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a: Mat, b: Mat) -> Mat:
    if shape(a) != shape(b):
        raise ShapeMismatchError(f"cannot subtract {shape(a)} and {shape(b)}")
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def matmul(a: Mat, b: Mat) -> Mat:
    na, ma = shape(a)
    nb, mb = shape(b)
    if ma != nb:
        raise ShapeMismatchError(f"cannot multiply {shape(a)} by {shape(b)}")
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def transpose(a: Mat) -> Mat:
    n, m = shape(a)
    return tuple(tuple(a[i][j] for i in range(n)) for j in range(m))


def matvec(a: Mat, v):
    if not a:
        return ()
    if shape(a)[1] != len(v):
        raise ShapeMismatchError(f"cannot apply {shape(a)} to length-{len(v)} vector")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def reference_verify_subrep(rep, witness) -> SubrepCheck:
    """``verify_subrep`` on the rational maps: every map applied to
    every reduced basis row of the witness space at its source, each
    image tested for membership at its target.  The library applies the
    cleared integer maps to the primitive integer rows instead."""
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
            image = matvec(x, row)
            if not spaces[arrow.target].contains(image):
                return SubrepCheck(
                    False, failing_map=ArrowRef("x", arrow), escaping_vector=image
                )
        for row in spaces[arrow.target].basis():
            image = matvec(y, row)
            if not spaces[arrow.source].contains(image):
                return SubrepCheck(
                    False, failing_map=ArrowRef("y", arrow), escaping_vector=image
                )
    return SubrepCheck(True, dims=tuple(space.dim for space in spaces))


def reference_closure(out_maps, n, seeds, meter, base=None):
    """Smallest subrepresentation containing ``base`` and the integer
    seed vectors, by iterating every map of the double quiver to a fixed
    point from the seeds; each map application costs one budget unit.
    ``out_maps`` lists per vertex the integer maps leaving it with their
    targets.  The searches build the same spaces as sums of per-vector
    closures."""
    if base is None:
        spaces = [RowSpace(m) for m in n]
    else:
        spaces = [space.copy() for space in base]
    worklist = []
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


def degree_of_class(
    z: StabilityFunction,
    z0_of_total: GaussianRational,
    decomp: PolystableDecomposition,
    coeffs,
) -> Fraction:
    """Degree of the combination sum(a_i v_i), extended linearly."""
    coeffs = _coefficients(coeffs, decomp)
    nums, den = _degree_numerators(z, z0_of_total, decomp)
    return Fraction(_dot(coeffs, nums), den)


# The slice functions of ``walls`` on the whole degree vector: Z is
# evaluated at every summand and Z0(v) is cleared again for each sample,
# and the slice test is sum(n_i N_i) == 0.  Oracles for the results,
# exception types and messages of the one-evaluation library versions.


def reference_degree_numerators(
    z: StabilityFunction,
    z0_of_total: GaussianRational,
    decomp: PolystableDecomposition,
) -> tuple[tuple[int, ...], int]:
    """The degrees Im(Z(v_i)/Z0(v)) as integer numerators over one
    positive denominator.

    With Z(v_i) = (x_i + i*y_i)/D and Z0(v) = (p + i*q)/E cleared to
    integers, Im(Z(v_i)/Z0(v)) = E*(y_i*p - x_i*q) / (D*(p^2 + q^2)).
    """
    if z0_of_total.is_zero():
        raise DegenerateValueError("reference value Z0(v) must be nonzero")
    e, (p, q) = clear((z0_of_total.re, z0_of_total.im))
    nums = []
    for v in decomp.classes:
        x, y = z._numerators(v)
        nums.append(e * (y * p - x * q))
    return tuple(nums), z._cleared[0] * (p * p + q * q)


def reference_require_on_slice(
    nums: Sequence[int], decomp: PolystableDecomposition
) -> None:
    if _dot(decomp.multiplicities, nums) != 0:
        raise LatticeMismatchError(
            "stability function is off the slice: total degree is nonzero"
        )


def reference_on_slice(
    z: StabilityFunction,
    z0_of_total: GaussianRational,
    decomp: PolystableDecomposition,
) -> bool:
    """Whether the degree of the total class vanishes, i.e. the degree
    vector is a legal character for the multiplicity vector."""
    nums, _ = reference_degree_numerators(z, z0_of_total, decomp)
    return _dot(decomp.multiplicities, nums) == 0


def reference_to_character(
    z: StabilityFunction,
    z0_of_total: GaussianRational,
    decomp: PolystableDecomposition,
) -> CharacterPoint:
    """Send an on-slice stability function to its quiver character.

    With Z0(v) = i the coordinates are -Re Z(v_i), matching the
    determinant-character exponents.
    """
    nums, den = reference_degree_numerators(z, z0_of_total, decomp)
    reference_require_on_slice(nums, decomp)
    return CharacterPoint(tuple(Fraction(n, den) for n in nums), decomp.multiplicities)


def reference_wall_correspondence_holds(
    alpha: Sequence[int],
    samples: Iterable[StabilityFunction],
    z0_of_total: GaussianRational,
    decomp: PolystableDecomposition,
) -> bool:
    """Regression guard for the wall dictionary: a sample lies on the
    stability-side wall of sum(alpha_i v_i) exactly when its character
    lies on the root's hyperplane.  This is an identity; any failure
    means a bug.

    On the cleared numerators N_i of the degree vector the two sides are
    one integer: the degree of sum(alpha_i v_i) and theta . alpha are
    both sum(alpha_i N_i) over the same positive denominator.  So every
    sample on the slice satisfies the dictionary, and what is left to
    check is that each sample lies on the slice, after ``alpha`` has
    one coefficient per summand.
    """
    _coefficients(alpha, decomp)
    for z in samples:
        nums, _ = reference_degree_numerators(z, z0_of_total, decomp)
        reference_require_on_slice(nums, decomp)
    return True


def positive_cone_member(hp: HyperbolicPair, u: LatticeVector) -> bool:
    """Membership in the positive cone: integral u with u^2 >= 0 and
    <u, v> > 0.  Useful for building custom effectivity predicates."""
    return square(u) >= 0 and pairing(u, hp.v) > 0


# Basis-class decompositions, as (Gram, multiplicities), that reach
# cascade branches the random stratum corpus reaches rarely or never.
STRATUM_CASES = {
    "component-deformation": (
        ((2, 0, 0, 0), (0, 2, 1, 1), (0, 1, -2, 1), (0, 1, 1, -2)), (1, 1, 2, 1)),
    "component-repeated-sphere": (((4, 1, 0), (1, -2, 0), (0, 0, 2)), (1, 2, 1)),
    "component-two-positives": (((6, 1, 0), (1, 8, 0), (0, 0, 2)), (1, 1, 1)),
    "component-point": (((-2, 0, 1), (0, 4, 0), (1, 0, -2)), (1, 1, 1)),
    "repeated-sphere": (((8, 1), (1, -2)), (1, 2)),
    "two-vertex-factor": (((8, 0, 1), (0, 8, 0), (1, 0, -2)), (1, 1, 1)),
    "sphere-power": (((6, 0, 0), (0, -2, 0), (0, 0, 4)), (1, 2, 1)),
}


def basis_decomposition(gram, mults) -> PolystableDecomposition:
    """The basis classes of an even Gram matrix with multiplicities."""
    lat = GramLattice(tuple(map(tuple, gram)), even=True)
    return PolystableDecomposition.of(
        (lat.basis_vector(i), m) for i, m in enumerate(mults)
    )


def random_stratum_case(rng: random.Random):
    """(Gram, multiplicities) with positive total square: an even Gram
    of rank 1-5 with diagonal in {-2, 0, ..., 8} and off-diagonal
    entries in {0, 1, 2}, and multiplicities 1-3."""
    while True:
        r = rng.randint(1, 5)
        gram = [[0] * r for _ in range(r)]
        for i in range(r):
            gram[i][i] = rng.choice((-2, 0, 2, 4, 6, 8))
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.choice((0, 1, 2))
        mults = [rng.randint(1, 3) for _ in range(r)]
        total = sum(mults[i] * gram[i][j] * mults[j] for i in range(r) for j in range(r))
        if total > 0:
            return gram, mults


@cache
def stratum_corpus(seed: int = 17, count: int = 10_000) -> tuple[tuple, ...]:
    """(Gram, multiplicities, report) for the STRATUM_CASES and then
    ``count`` seeded random cases; computed once per session."""
    rng = random.Random(seed)
    cases = [*STRATUM_CASES.values(), *(random_stratum_case(rng) for _ in range(count))]
    return tuple((gram, mults, analyze_stratum(basis_decomposition(gram, mults)))
                 for gram, mults in cases)


# The summand validation, ext-quiver, combination and support table as
# they were before the decomposition owned one summand Gram, copied as
# they were: the oracles for PolystableDecomposition._gram, its error
# order, build_ext_quiver, combination, quiver._connected and the
# support's terms of quiver.quadratic_form.
def reference_validate(summands) -> None:
    """PolystableDecomposition's checks, one pairing call per entry."""
    summands = tuple((v, int(n)) for v, n in summands)
    if not summands:
        raise MalformedSummandError("decomposition needs at least one summand")
    lat = summands[0][0].lattice
    seen = set()
    for v, n in summands:
        if v.lattice != lat:
            raise MalformedSummandError("summands live in different lattices")
        if n < 1:
            raise MalformedSummandError(f"multiplicity {n} is not positive")
        if v.coords in seen:
            raise MalformedSummandError(f"duplicate summand class {v.coords}")
        seen.add(v.coords)
        sq = square(v)
        if sq < -2 or sq % 2 != 0:
            raise MalformedSummandError(
                f"summand {v.coords} has square {sq}; need an even square >= -2"
            )
    for i in range(len(summands)):
        for j in range(i + 1, len(summands)):
            p = pairing(summands[i][0], summands[j][0])
            if p < 0:
                raise HomNonvanishingError(
                    f"summands {i} and {j} pair to {p} < 0"
                )


def reference_ext_quiver(decomp: PolystableDecomposition) -> ExtQuiver:
    loops = []
    for v, _ in decomp.summands:
        sq = square(v)
        # PolystableDecomposition already rejects sq < -2 or odd sq.
        loops.append((sq + 2) // 2)
    arrows = []
    for i in range(decomp.size):
        for j in range(i + 1, decomp.size):
            m = pairing(decomp.summands[i][0], decomp.summands[j][0])
            if m > 0:
                arrows.append((i, j, m))
    return ExtQuiver(tuple(loops), tuple(arrows))


def reference_combination(decomp: PolystableDecomposition, coeffs) -> LatticeVector:
    coeffs = tuple(int(a) for a in coeffs)
    if len(coeffs) != decomp.size:
        raise MalformedSummandError(
            f"{len(coeffs)} coefficients for {decomp.size} summands"
        )
    out = decomp.lattice.zero()
    for a, (v, _) in zip(coeffs, decomp.summands):
        out = out + a * v
    return out


def reference_support(q: ExtQuiver, mask: int) -> tuple[bool, tuple[tuple[int, int, int], ...]]:
    """The per-mask scan over vertex pairs, without the per-quiver cache."""
    verts = [i for i in range(q.num_vertices) if mask >> i & 1]
    # Grow the lowest vertex by its neighbours inside the mask.
    nbrs = q._neighbour_masks
    reached, grown = 0, mask & -mask
    while grown != reached:
        reached = grown
        for i in verts:
            if reached >> i & 1:
                grown |= nbrs[i] & mask
    d = q.neg_cartan()
    return bool(mask) and reached == mask, tuple(
        (i, j, d[i][j] if i == j else 2 * d[i][j])
        for i in verts for j in verts if i <= j and d[i][j]
    )


def random_gram_decomposition(rng: random.Random, size: int) -> PolystableDecomposition:
    """Rejection-sample a decomposition of ``size`` summands whose
    classes are small integer vectors, not basis classes, in an even
    lattice of rank 1-5 with mostly nonnegative entries."""
    while True:
        r = rng.randint(1, 5)
        gram = [[0] * r for _ in range(r)]
        for i in range(r):
            gram[i][i] = rng.choice((-2, 0, 2, 4, 6))
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.choice((-1, 0, 0, 1, 1, 2))
        lat = GramLattice(tuple(map(tuple, gram)), even=True)
        summands = [(random_vector(rng, lat, 1), rng.randint(1, 3)) for _ in range(size)]
        try:
            return PolystableDecomposition.of(summands)
        except QuiverModuliError:
            continue


# The seed generators the searches drew from before they shared one
# ``representation._SeedPlan`` per dimension vector and limits, copied
# as they were: the oracle for the plan's stream.  The plan's fixed
# shape, once set by limits, is written here as literals (4096 subset
# seed sets; grid entries in {-1, 0, 1}, up to total dimension 8, with at
# most 1024 grid tuples), apart from the library's constants.  Seeds are
# (vertex, integer vector) pairs, where the plan keeps each vector's
# direction.
SeedSet = tuple[str, list[tuple[int, tuple[int, ...]]]]


@cache
def _unit(m: int, k: int) -> tuple[int, ...]:
    return tuple(1 if c == k else 0 for c in range(m))


def _basis_seeds(rep: DoubleQuiverRep) -> Iterator[SeedSet]:
    for vertex, m in enumerate(rep.n):
        for k in range(m):
            yield "basis", [(vertex, _unit(m, k))]


def _subset_seeds(rep: DoubleQuiverRep) -> Iterator[SeedSet]:
    coords = [
        (vertex, k) for vertex, m in enumerate(rep.n) for k in range(m)
    ]
    count = 0
    for size in range(2, len(coords) + 1):
        for subset in itertools.combinations(coords, size):
            if count >= 4096:
                return
            count += 1
            yield "subset", [(vertex, _unit(rep.n[vertex], k)) for vertex, k in subset]


@cache
def _grid_directions(dim: int) -> tuple[tuple[int, ...], ...]:
    """Primitive grid vectors with entries in {-1, 0, 1} up to positive
    scaling, first nonzero coordinate positive, in deterministic order."""
    seen = set()
    out = []
    for cand in itertools.product(range(-1, 2), repeat=dim):
        if all(c == 0 for c in cand):
            continue
        lead = next(c for c in cand if c != 0)
        if lead < 0:
            cand = tuple(-c for c in cand)
        cand = primitive(cand)
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    return tuple(out)


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


def _grid_seeds(rep: DoubleQuiverRep) -> Iterator[SeedSet]:
    if rep.total_dim > 8:
        return
    for vertex, m in enumerate(rep.n):
        if m > 4:
            continue  # direction count grows as 3^m
        for vec in _grid_directions(m):
            yield "grid", [(vertex, vec)]
    if any(m > 3 for m in rep.n):
        return  # subspace enumeration is only cheap in low vertex dimension
    per_vertex = [_grid_subspaces(m) for m in rep.n]
    total = 1
    for options in per_vertex:
        total *= len(options)
    if total > 1024:
        return
    for choice in itertools.product(*per_vertex):
        seeds = [
            (vertex, vec) for vertex, basis in enumerate(choice) for vec in basis
        ]
        if seeds:
            yield "grid-tuple", seeds


# The 21 values a PRNG seed entry a/b can take, a in [-3, 3], b in [1, 3].
_PRNG_ENTRIES = {(a, b): Fraction(a, b) for a in range(-3, 4) for b in range(1, 4)}


def _prng_seeds(
    rep: DoubleQuiverRep, limits: SearchLimits
) -> Iterator[SeedSet]:
    rng = random.Random(limits.seed)
    for _ in range(limits.prng_samples):
        seeds = []
        for vertex, m in enumerate(rep.n):
            _, vec = clear(
                [_PRNG_ENTRIES[rng.randint(-3, 3), rng.randint(1, 3)] for _ in range(m)]
            )
            if any(vec):
                seeds.append((vertex, vec))
        if seeds:
            yield "prng", seeds


def _all_seeds(rep, limits) -> Iterator[SeedSet]:
    yield from _basis_seeds(rep)
    yield from _subset_seeds(rep)
    yield from _grid_seeds(rep)
    yield from _prng_seeds(rep, limits)


def direction(vec) -> tuple[int, ...]:
    """The primitive integer vector with first nonzero entry positive
    that spans the same line as the nonzero integer vector ``vec``."""
    g = gcd(*vec)
    if next(x for x in vec if x) < 0:
        g = -g
    return tuple(x // g for x in vec)
