"""Character space of a dimension vector: walls, chambers, and the map
from stability functions to quiver characters.

Characters live in the rational orthogonal complement of the dimension
vector.  Every positive root cuts a potential wall there; chambers are
located by exact sign vectors.  On the stability side, the degree
vector Im(Z(v_i)/Z0(v)) carries a normalized-slice stability function
to a character, and wall equations correspond exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .decomposition import PolystableDecomposition
from .errors import DegenerateValueError, LatticeMismatchError
from .lattice import LatticeVector
from .quiver import DEFAULT_ROOT_BUDGET, DimVector, ExtQuiver, enumerate_positive_roots
from .stability import GaussianRational, StabilityFunction


@dataclass(frozen=True)
class CharacterPoint:
    """A rational character theta with theta . n = 0."""

    theta: tuple[Fraction, ...]
    n: DimVector

    def __post_init__(self):
        theta = tuple(Fraction(t) for t in self.theta)
        n = tuple(int(x) for x in self.n)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "n", n)
        if len(theta) != len(n):
            raise LatticeMismatchError(
                f"character of length {len(theta)} against dimension vector of length {len(n)}"
            )
        if sum((t * x for t, x in zip(theta, n)), Fraction(0)) != 0:
            raise LatticeMismatchError(
                "character does not annihilate the dimension vector"
            )

    def dot(self, alpha: Sequence[int]) -> Fraction:
        return sum((t * int(a) for t, a in zip(self.theta, alpha)), Fraction(0))


@dataclass(frozen=True)
class Wall:
    """Potential wall cut by a positive root: the hyperplane where the
    character annihilates the (primitive) root.

    ``degenerate`` marks roots annihilated by the whole character
    space; ``at_bound`` marks roots touching the box bound somewhere.
    """

    alpha: DimVector
    degenerate: bool
    at_bound: bool


def _primitive(alpha: Sequence[int]) -> DimVector:
    g = 0
    for a in alpha:
        g = gcd(g, abs(int(a)))
    return tuple(int(a) // g for a in alpha)


def enumerate_walls(
    q: ExtQuiver, n: Sequence[int], budget: int = DEFAULT_ROOT_BUDGET
) -> tuple[Wall, ...]:
    """All potential walls for roots in the box below n, deduplicated
    to primitive normals and canonically sorted.

    Whether a potential wall carries an actual strictly semistable
    representation is not decided here; that question belongs to the
    representation-level searches.
    """
    n = tuple(int(x) for x in n)
    roots = enumerate_positive_roots(q, n, budget=budget)
    walls: dict[DimVector, Wall] = {}
    for alpha in roots:
        prim = _primitive(alpha)
        at_bound = any(a == b for a, b in zip(alpha, n) if b > 0)
        # alpha cuts nothing on the character space exactly when it is
        # proportional to n.
        degenerate = all(
            prim[i] * n[j] == prim[j] * n[i]
            for i in range(len(n))
            for j in range(i + 1, len(n))
        ) and any(prim)
        prev = walls.get(prim)
        if prev is None:
            walls[prim] = Wall(prim, degenerate, at_bound)
        elif at_bound and not prev.at_bound:
            walls[prim] = Wall(prim, prev.degenerate, True)
    return tuple(walls[key] for key in sorted(walls))


@dataclass(frozen=True)
class ChamberSignature:
    """Signs of theta against the canonical wall list; a signature with
    no zeros on the proper walls is an open chamber, a zero there puts
    theta on a wall.  Degenerate walls vanish identically on the whole
    character space and are excluded from the openness test."""

    signs: tuple[int, ...]
    walls: tuple[Wall, ...]

    def as_string(self) -> str:
        return "".join("+" if s > 0 else "-" if s < 0 else "0" for s in self.signs)

    @property
    def open_chamber(self) -> bool:
        return all(
            s != 0 for s, wall in zip(self.signs, self.walls) if not wall.degenerate
        )


def locate_chamber(theta: CharacterPoint, walls: Sequence[Wall]) -> ChamberSignature:
    signs = []
    for wall in walls:
        value = theta.dot(wall.alpha)
        signs.append(0 if value == 0 else (1 if value > 0 else -1))
    return ChamberSignature(tuple(signs), tuple(walls))


def degree_vector(
    z: StabilityFunction,
    z0_of_total: GaussianRational,
    decomp: PolystableDecomposition,
) -> tuple[Fraction, ...]:
    """Per-summand degrees Im(Z(v_i)/Z0(v)); zero at the reference
    function, since its summand values all share the total's phase."""
    if z0_of_total.is_zero():
        raise DegenerateValueError("reference value Z0(v) must be nonzero")
    return tuple((z(v) / z0_of_total).im for v in decomp.classes)


def degree_of_class(
    z: StabilityFunction,
    z0_of_total: GaussianRational,
    decomp: PolystableDecomposition,
    coeffs: Sequence[int],
) -> Fraction:
    """Degree of the combination sum(a_i v_i), extended linearly."""
    return _degree(coeffs, degree_vector(z, z0_of_total, decomp))


def _degree(coeffs: Sequence[int], degrees: Sequence[Fraction]) -> Fraction:
    return sum((int(a) * d for a, d in zip(coeffs, degrees)), Fraction(0))


def on_slice(
    z: StabilityFunction,
    z0_of_total: GaussianRational,
    decomp: PolystableDecomposition,
) -> bool:
    """Whether the degree of the total class vanishes, i.e. the degree
    vector is a legal character for the multiplicity vector."""
    degrees = degree_vector(z, z0_of_total, decomp)
    return _degree(decomp.multiplicities, degrees) == 0


def to_character(
    z: StabilityFunction,
    z0_of_total: GaussianRational,
    decomp: PolystableDecomposition,
) -> CharacterPoint:
    """Send an on-slice stability function to its quiver character.

    With Z0(v) = i the coordinates are -Re Z(v_i), matching the
    determinant-character exponents.
    """
    return _character(degree_vector(z, z0_of_total, decomp), decomp)


def _character(degrees: tuple[Fraction, ...], decomp: PolystableDecomposition) -> CharacterPoint:
    if _degree(decomp.multiplicities, degrees) != 0:
        raise LatticeMismatchError(
            "stability function is off the slice: total degree is nonzero"
        )
    return CharacterPoint(degrees, decomp.multiplicities)


def wall_class(decomp: PolystableDecomposition, alpha: Sequence[int]) -> LatticeVector:
    """The lattice class sum(alpha_i * v_i) attached to a root."""
    return decomp.combination(alpha)


def wall_correspondence_holds(
    alpha: Sequence[int],
    samples: Iterable[StabilityFunction],
    z0_of_total: GaussianRational,
    decomp: PolystableDecomposition,
) -> bool:
    """Regression guard for the wall dictionary: a sample lies on the
    stability-side wall of sum(alpha_i v_i) exactly when its character
    lies on the root's hyperplane.  This is an identity; any failure
    means a bug."""
    alpha = tuple(int(a) for a in alpha)
    for z in samples:
        degrees = degree_vector(z, z0_of_total, decomp)
        theta = _character(degrees, decomp)
        lhs = _degree(alpha, degrees) == 0
        rhs = theta.dot(alpha) == 0
        if lhs != rhs:
            return False
    return True
