"""Lattice-level stability functions over the Gaussian rationals.

A stability function is a linear map from a lattice to Q[i], recorded
by its values on the basis and evaluated on their cleared integer
numerators.  Phases are kept as exact directions and compared by
cross-multiplication; slopes are exact rationals with an infinity
marker; filtration weights, the instability test against declared
subobject classes, the classical one-parameter weight and the
determinant-character exponents are all computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul
from typing import Optional, Sequence, Union

from .decomposition import PolystableDecomposition
from .errors import (
    DegenerateValueError,
    LatticeMismatchError,
    NormalizationError,
    OutsideHeartError,
)
from .lattice import GramLattice, LatticeVector
from .linalg import clear, ints, primitive


@dataclass(frozen=True)
class GaussianRational:
    """An element of Q[i] with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        if type(self.re) is not Fraction:
            object.__setattr__(self, "re", Fraction(self.re))
        if type(self.im) is not Fraction:
            object.__setattr__(self, "im", Fraction(self.im))

    @classmethod
    def of(cls, re, im=0) -> "GaussianRational":
        return cls(re, im)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        c = Fraction(other)
        return GaussianRational(self.re * c, self.im * c)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            den = other.re * other.re + other.im * other.im
            if den == 0:
                raise DegenerateValueError("division by zero in Q[i]")
            return GaussianRational(
                (self.re * other.re + self.im * other.im) / den,
                (self.im * other.re - self.re * other.im) / den,
            )
        c = Fraction(other)
        if c == 0:
            raise DegenerateValueError("division by zero in Q[i]")
        return GaussianRational(self.re / c, self.im / c)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __repr__(self):
        return f"({self.re})+({self.im})i"


I = GaussianRational(Fraction(0), Fraction(1))


class _InfiniteSlope:
    """Marker for vanishing imaginary part: the maximal slope."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE_SLOPE"

    def __gt__(self, other):
        return not isinstance(other, _InfiniteSlope)

    def __lt__(self, other):
        return False

    def __ge__(self, other):
        return True

    def __le__(self, other):
        return isinstance(other, _InfiniteSlope)


INFINITE_SLOPE = _InfiniteSlope()

Slope = Union[Fraction, _InfiniteSlope]


@dataclass(frozen=True)
class Phase:
    """An exact phase in (0, 1], i.e. a direction in the closed upper
    half-plane minus the nonnegative real axis.

    The direction is stored as a primitive integer pair; two phases
    compare by the sign of the cross product, never through arccot.
    """

    direction: tuple[int, int]

    @classmethod
    def of(cls, value: GaussianRational) -> "Phase":
        if value.is_zero():
            raise DegenerateValueError("zero value has no phase")
        if value.im < 0 or (value.im == 0 and value.re > 0):
            raise OutsideHeartError(
                f"value {value!r} lies outside the heart's half-plane"
            )
        return cls(primitive(clear((value.re, value.im))[1]))

    @property
    def as_fraction(self) -> Optional[Fraction]:
        """Exact rational value when the angle is a multiple of pi/4;
        all other phases are irrational and stay symbolic."""
        a, b = self.direction
        if b == 0:
            return Fraction(1)
        if a == 0:
            return Fraction(1, 2)
        if a == b:
            return Fraction(1, 4)
        if a == -b:
            return Fraction(3, 4)
        return None

    def _cross(self, other: "Phase") -> int:
        a1, b1 = self.direction
        a2, b2 = other.direction
        return a1 * b2 - b1 * a2

    def __lt__(self, other: "Phase") -> bool:
        return self._cross(other) > 0

    def __le__(self, other: "Phase") -> bool:
        return self._cross(other) >= 0

    def __gt__(self, other: "Phase") -> bool:
        return self._cross(other) < 0

    def __ge__(self, other: "Phase") -> bool:
        return self._cross(other) <= 0


@dataclass(frozen=True)
class StabilityFunction:
    """A linear map Z: lattice -> Q[i], stored basis-value by basis-value."""

    lattice: GramLattice
    values: tuple[GaussianRational, ...]

    def __post_init__(self):
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.lattice.rank:
            raise LatticeMismatchError(
                f"{len(values)} basis values for a rank-{self.lattice.rank} lattice"
            )
        # _cleared = (D, xs, ys): the basis values as (xs[k] + i*ys[k]) / D
        # over their least common positive denominator D.  It is set
        # outside the fields, which alone make up __eq__, __hash__ and
        # __repr__.
        den, nums = clear([x for z in values for x in (z.re, z.im)])
        object.__setattr__(self, "_cleared", (den, nums[0::2], nums[1::2]))

    def __call__(self, v: LatticeVector) -> GaussianRational:
        x, y = self._numerators(v)
        den = self._cleared[0]
        return GaussianRational(Fraction(x, den), Fraction(y, den))

    def _numerators(self, v: LatticeVector) -> tuple[int, int]:
        """Z(v) = (x + i*y) / D as the integer pair (x, y), with D the
        common denominator of ``_cleared``."""
        if v.lattice is not self.lattice and v.lattice != self.lattice:
            raise LatticeMismatchError("vector is not in this function's lattice")
        _, xs, ys = self._cleared
        return sum(map(mul, xs, v.coords)), sum(map(mul, ys, v.coords))

    def scaled(self, c) -> "StabilityFunction":
        c = c if isinstance(c, GaussianRational) else GaussianRational.of(c)
        return StabilityFunction(self.lattice, tuple(z * c for z in self.values))


def phase(z: StabilityFunction, v: LatticeVector) -> Phase:
    return Phase.of(z(v))


def slope(z: StabilityFunction, v: LatticeVector) -> Slope:
    """Re/Im of Z(v); a vanishing imaginary part marks the maximal slope."""
    value = z(v)
    if value.is_zero():
        raise DegenerateValueError("slope of a vanishing value")
    if value.im == 0:
        return INFINITE_SLOPE
    return value.re / value.im


def normalize(z: StabilityFunction, v: LatticeVector) -> StabilityFunction:
    """Rescale by the complex scalar i/Z(v), so the result sends v to i.

    Complex rescaling is orientation-preserving, so stability verdicts
    are unchanged; the result stays over the Gaussian rationals.
    """
    value = z(v)
    if value.is_zero():
        raise DegenerateValueError("cannot normalize: Z(v) = 0")
    return z.scaled(I / value)


def _check_normalized(z: StabilityFunction, total: LatticeVector) -> None:
    # Z(total) = (re + i*im) / D with D > 0, so it lies in i*Q>0 exactly
    # when re == 0 and im > 0.
    re, im = z._numerators(total)
    if re != 0 or im <= 0:
        raise NormalizationError(
            f"Z(total) = {z(total)!r}; expected a positive multiple of i"
        )


def _class_sum(pairs: Sequence[tuple[int, LatticeVector]]) -> LatticeVector:
    """The sum of the classes of nonempty (integer, class) pairs."""
    return reduce(add, (v for _, v in pairs))


@dataclass(frozen=True)
class WeightedFiltration:
    """Steps (w_j, class of the j-th graded piece), weights strictly
    decreasing in the order written."""

    steps: tuple[tuple[int, LatticeVector], ...]

    def __post_init__(self):
        steps = tuple((w, v) for w, v in self.steps)
        ints([w for w, _ in steps], "filtration weights")
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise ValueError("a weighted filtration needs at least one step")
        for (w1, _), (w2, _) in zip(steps, steps[1:]):
            if w1 <= w2:
                raise ValueError(f"weights must strictly decrease; got {w1} then {w2}")

    def total(self) -> LatticeVector:
        return _class_sum(self.steps)


def filtration_weight(z: StabilityFunction, filt: WeightedFiltration) -> Fraction:
    """The one-parameter weight -sum(w_j * Re Z(gr_j)).

    Requires Z to send the filtration's total class to a positive
    multiple of i; then -Re Z is the exact degree of each piece and the
    weight equals sum(w_j * deg(gr_j)).
    """
    _check_normalized(z, filt.total())
    out = Fraction(0)
    for w, v in filt.steps:
        out -= w * z(v).re
    return out


@dataclass(frozen=True)
class FormalKClass:
    """A finite Laurent expression sum(u^e * class_e) over the lattice."""

    terms: tuple[tuple[int, LatticeVector], ...]  # sorted by exponent

    def at_one(self) -> LatticeVector:
        """Specialize u = 1: the sum of all coefficients."""
        return _class_sum(self.terms)


def k_class(filt: WeightedFiltration) -> FormalKClass:
    """K-class of a weighted filtration: the piece of weight w sits in
    degree -w, and setting u = 1 recovers the total class."""
    terms = sorted(((-w, v) for w, v in filt.steps), key=lambda t: t[0])
    return FormalKClass(tuple(terms))


@dataclass(frozen=True)
class ThetaVerdict:
    """Outcome of the instability test against declared subobject classes."""

    unstable: bool
    witness: Optional[WeightedFiltration] = None
    weight: Optional[Fraction] = None


def theta_unstable(
    z: StabilityFunction,
    total: LatticeVector,
    subobject_classes: Sequence[LatticeVector],
) -> ThetaVerdict:
    """Decide instability of the class ``total`` against a declared
    finite set of admissible subobject classes.

    Unstable iff some declared class F' has Re Z(F') < 0; the witness
    is the two-step filtration (F' at weight 1, total at weight 0),
    whose weight -Re Z(F') is maximal over the declared set.
    """
    _check_normalized(z, total)
    best: Optional[LatticeVector] = None
    best_re: Optional[Fraction] = None
    for cls in subobject_classes:
        re = z(cls).re
        if re < 0 and (best_re is None or re < best_re):
            best, best_re = cls, re
    if best is None:
        return ThetaVerdict(unstable=False)
    witness = WeightedFiltration(((1, best), (0, total - best)))
    return ThetaVerdict(unstable=True, witness=witness, weight=-best_re)


def classical_git_weight(
    weighted_polynomials: Sequence[tuple[int, Sequence[int]]], ell: int
) -> int:
    """One-parameter weight sum(w * P_w(ell)) for Hilbert polynomials P_w,
    given as (w, ascending coefficients), at ell; all exact ints, never bools."""
    if type(ell) is not int or ell < 0:
        raise ValueError(f"the evaluation point must be an int >= 0, not {ell!r}")
    if not isinstance(weighted_polynomials, (list, tuple)) or not all(
            isinstance(t, (list, tuple)) and len(t) == 2 and isinstance(t[1], (list, tuple))
            and all(type(x) is int for x in (t[0], *t[1])) for t in weighted_polynomials):
        raise ValueError(f"terms must be (int, [ints]) pairs, not {weighted_polynomials!r}")
    out = 0
    for w, coeffs in weighted_polynomials:
        value = 0
        for c in reversed(coeffs):
            value = value * ell + c
        out += w * value
    return out


def character_exponents(
    z: StabilityFunction, decomp: PolystableDecomposition
) -> tuple[Fraction, ...]:
    """Exponents (-Re Z(v_1), ..., -Re Z(v_s)) of the determinant
    character attached to a stability function over Q[i]."""
    return tuple(-z(v).re for v in decomp.classes)
