"""Exception types shared across the package."""

from __future__ import annotations


class QuiverModuliError(Exception):
    """Base class for all domain errors raised by this package."""


class LatticeMismatchError(QuiverModuliError, ValueError):
    """Vectors from different lattices, or a length/rank mismatch."""


class ShapeMismatchError(QuiverModuliError, ValueError):
    """A matrix or block does not have the required shape."""


class DegenerateValueError(QuiverModuliError, ValueError):
    """A stability value vanishes where a nonzero value is required."""


class OutsideHeartError(QuiverModuliError, ValueError):
    """A stability value lies outside the closed upper half-plane minus
    the nonnegative real axis, so it has no phase in (0, 1]."""


class NormalizationError(QuiverModuliError, ValueError):
    """The stability function is not normalized on the total class."""


class MalformedSummandError(QuiverModuliError, ValueError):
    """A summand class has odd square or square below -2."""


class HomNonvanishingError(QuiverModuliError, ValueError):
    """Two distinct summand classes pair negatively, which is impossible
    for stable summands of equal phase."""


class BudgetExceededError(QuiverModuliError, RuntimeError):
    """An enumeration or search ran out of its configured budget before
    its result could be certified."""


class InternalInvariantError(QuiverModuliError, RuntimeError):
    """A result failed a check the library makes on its own output, such
    as the re-verification of a witness; this always means a bug."""


class PrimitivityError(QuiverModuliError, ValueError):
    """A sublattice basis is not primitively embedded in the ambient
    lattice (gcd of maximal minors != 1)."""


class ScenarioError(QuiverModuliError, ValueError):
    """A scenario file failed validation.

    ``violations`` is a list of (json_path, message) pairs.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.violations)
        super().__init__(f"invalid scenario: {lines}")


class UnknownCommandError(QuiverModuliError, ValueError):
    """The CLI was asked to run a command outside the fixed command set."""
