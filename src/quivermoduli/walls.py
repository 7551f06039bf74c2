"""Character space of a dimension vector: walls, chambers, and the map
from stability functions to quiver characters.

Characters live in the rational orthogonal complement of the dimension
vector.  Every positive root cuts a potential wall there; chambers are
located by exact sign vectors.  On the stability side, the degree
vector Im(Z(v_i)/Z0(v)) carries a normalized-slice stability function
to a character, and wall equations correspond exactly.

Degree vectors are computed on cleared integer numerators over one
positive denominator; the slice test (one evaluation of Z, at the total
class) and the wall guard are zero tests on integers.  Only returned
values become ``Fraction``s, identical to those of a per-coordinate
``Fraction`` evaluation.  A character point is cleared the same way
once, so its annihilation check, its dot products, chamber signs and
King slopes are integer too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .decomposition import PolystableDecomposition
from .errors import DegenerateValueError, LatticeMismatchError
from .linalg import clear, ints, primitive
from .quiver import (
    DEFAULT_ROOT_BUDGET,
    DimVector,
    ExtQuiver,
    _check_length,
    enumerate_positive_roots,
)
from .stability import GaussianRational, StabilityFunction


@dataclass(frozen=True)
class CharacterPoint:
    """A rational character theta with theta . n = 0."""

    theta: tuple[Fraction, ...]
    n: DimVector

    def __post_init__(self):
        theta = tuple(t if type(t) is Fraction else Fraction(t) for t in self.theta)
        n = ints(self.n, "dimension vector entries")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "n", n)
        if len(theta) != len(n):
            raise LatticeMismatchError(
                f"character of length {len(theta)} against dimension vector of length {len(n)}"
            )
        # _cleared = (D, nums): theta as nums / D over the least common
        # positive denominator D.  It is set outside the fields, which
        # alone make up __eq__, __hash__ and __repr__.
        object.__setattr__(self, "_cleared", clear(theta))
        if _dot(self._cleared[1], n) != 0:
            raise LatticeMismatchError(
                "character does not annihilate the dimension vector"
            )

    def _dot_numerator(self, alpha: Sequence[int]) -> int:
        """theta . alpha times the positive denominator of ``_cleared``."""
        nums = self._cleared[1]
        alpha = ints(alpha, "dimension vector entries")
        if len(alpha) != len(nums):
            raise LatticeMismatchError(
                f"vector of length {len(alpha)} against a character of length {len(nums)}"
            )
        return _dot(nums, alpha)

    def dot(self, alpha: Sequence[int]) -> Fraction:
        return Fraction(self._dot_numerator(alpha), self._cleared[0])

    def slope(self, m: Sequence[int]) -> Fraction:
        """King's theta-slope (theta . m) / sum(m); undefined on the zero
        dimension vector."""
        m = ints(m, "dimension vector entries")
        total = sum(m)
        if total == 0:
            raise ZeroDivisionError("slope of the zero dimension vector")
        return Fraction(self._dot_numerator(m), self._cleared[0] * total)


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


def enumerate_walls(
    q: ExtQuiver, n: Sequence[int], budget: int = DEFAULT_ROOT_BUDGET
) -> tuple[Wall, ...]:
    """All potential walls for roots in the box below n, deduplicated
    to primitive normals and canonically sorted.

    Whether a potential wall carries an actual strictly semistable
    representation is not decided here; that question belongs to the
    representation-level searches.
    """
    n = _check_length(q, n)
    roots = enumerate_positive_roots(q, n, budget=budget)
    # A root cuts nothing on the character space exactly when it is a
    # positive multiple of n.
    n_prim = primitive(n)
    walls: dict[DimVector, Wall] = {}
    for alpha in roots:
        prim = primitive(alpha)
        at_bound = any(a == b for a, b in zip(alpha, n) if b > 0)
        degenerate = prim == n_prim
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
        value = theta._dot_numerator(wall.alpha)
        signs.append(0 if value == 0 else (1 if value > 0 else -1))
    return ChamberSignature(tuple(signs), tuple(walls))


def _degree_numerators(
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
    nums = tuple(e * (y * p - x * q) for x, y in map(z._numerators, decomp.classes))
    return nums, z._cleared[0] * (p * p + q * q)


def _slice_holds(
    z: StabilityFunction, pq: tuple[int, int], decomp: PolystableDecomposition
) -> bool:
    """The slice test, on Z at the total class v only: with Z(v) = (X + i*Y)/D
    and ``pq`` = (p, q), the numerators N_i above sum to E*(Y*p - X*q), so
    the total degree vanishes exactly when Y*p == X*q."""
    p, q = pq
    if p == q == 0:
        raise DegenerateValueError("reference value Z0(v) must be nonzero")
    x, y = z._numerators(decomp.total())
    return y * p == x * q


_OFF_SLICE = "stability function is off the slice: total degree is nonzero"


def _dot(coeffs: Sequence[int], nums: Sequence[int]) -> int:
    return sum(map(mul, coeffs, nums))


def _coefficients(coeffs: Sequence[int], decomp: PolystableDecomposition) -> tuple[int, ...]:
    """Integer coefficients, one per summand of ``decomp``."""
    coeffs = ints(coeffs, "coefficients")
    if len(coeffs) != decomp.size:
        raise LatticeMismatchError(
            f"{len(coeffs)} coefficients for {decomp.size} summands"
        )
    return coeffs


def degree_vector(
    z: StabilityFunction,
    z0_of_total: GaussianRational,
    decomp: PolystableDecomposition,
) -> tuple[Fraction, ...]:
    """Per-summand degrees Im(Z(v_i)/Z0(v)); zero at the reference
    function, since its summand values all share the total's phase."""
    nums, den = _degree_numerators(z, z0_of_total, decomp)
    return tuple(Fraction(n, den) for n in nums)


def on_slice(
    z: StabilityFunction,
    z0_of_total: GaussianRational,
    decomp: PolystableDecomposition,
) -> bool:
    """Whether the degree of the total class v vanishes, i.e. the degree
    vector is a legal character: one evaluation of Z, at the cached v."""
    return _slice_holds(z, clear((z0_of_total.re, z0_of_total.im))[1], decomp)


def to_character(
    z: StabilityFunction,
    z0_of_total: GaussianRational,
    decomp: PolystableDecomposition,
) -> CharacterPoint:
    """Send an on-slice stability function to its quiver character.

    With Z0(v) = i the coordinates are -Re Z(v_i), matching the
    determinant-character exponents.
    """
    if not on_slice(z, z0_of_total, decomp):
        raise LatticeMismatchError(_OFF_SLICE)
    nums, den = _degree_numerators(z, z0_of_total, decomp)
    return CharacterPoint(tuple(Fraction(n, den) for n in nums), decomp.multiplicities)


def wall_correspondence_holds(
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
    sample on the slice satisfies the dictionary.  Left to check: that
    ``alpha`` has one coefficient per summand, then, clearing Z0(v) once,
    that each sample lies on the slice (one evaluation of Z, at v).
    """
    _coefficients(alpha, decomp)
    pq = clear((z0_of_total.re, z0_of_total.im))[1]
    for z in samples:
        if not _slice_holds(z, pq, decomp):
            raise LatticeMismatchError(_OFF_SLICE)
    return True
