"""Shared PRNG generators for the test suite.

All generators take an explicit random.Random so each test controls
its own seed and stays deterministic.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from quivermoduli import (
    DoubleQuiverRep,
    ExtQuiver,
    GramLattice,
    PolystableDecomposition,
)
from quivermoduli.errors import QuiverModuliError, ShapeMismatchError
from quivermoduli.stability import GaussianRational, StabilityFunction

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


def random_stability(rng: random.Random, lat: GramLattice) -> StabilityFunction:
    return StabilityFunction(lat, tuple(random_gaussian(rng) for _ in range(lat.rank)))


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
