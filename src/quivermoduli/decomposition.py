"""Polystable decompositions v = sum(n_i * v_i) at lattice level."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable

from .errors import HomNonvanishingError, MalformedSummandError
from .lattice import GramLattice, LatticeVector
from .linalg import ints


@dataclass(frozen=True)
class PolystableDecomposition:
    """Classes and multiplicities of the stable summands of a polystable
    object: pairwise distinct classes v_i with multiplicities n_i >= 1.

    Stable summands of equal phase force the invariants checked here:
    every square is even and >= -2, and distinct classes pair >= 0.
    It owns its total class v = sum(n_i * v_i), built on the first
    ``total()`` and cached outside the fields for the slice test.
    """

    summands: tuple[tuple[LatticeVector, int], ...]

    def __post_init__(self):
        summands = tuple((v, n) for v, n in self.summands)
        multiplicities = ints([n for _, n in summands], "multiplicities")
        object.__setattr__(self, "summands", summands)
        if not summands:
            raise MalformedSummandError("decomposition needs at least one summand")
        lat = summands[0][0].lattice
        seen, images = set(), []
        for v, n in summands:
            if v.lattice != lat:
                raise MalformedSummandError("summands live in different lattices")
            if n < 1:
                raise MalformedSummandError(f"multiplicity {n} is not positive")
            if v.coords in seen:
                raise MalformedSummandError(f"duplicate summand class {v.coords}")
            seen.add(v.coords)
            images.append([sum(map(mul, row, v.coords)) for row in lat.gram])  # G.v
            sq = sum(map(mul, v.coords, images[-1]))
            if sq < -2 or sq % 2 != 0:
                raise MalformedSummandError(
                    f"summand {v.coords} has square {sq}; need an even square >= -2"
                )
        # classes, multiplicities and the summand Gram _gram[i][j] =
        # <v_i, v_j> are set outside the fields, which alone make up
        # __eq__, __hash__ and __repr__.
        classes = tuple(v for v, _ in summands)
        gram = tuple(tuple(sum(map(mul, v.coords, g)) for g in images) for v in classes)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "multiplicities", multiplicities)
        object.__setattr__(self, "_gram", gram)
        for i, row in enumerate(gram):
            for j in range(i + 1, len(gram)):
                if row[j] < 0:
                    raise HomNonvanishingError(
                        f"summands {i} and {j} pair to {row[j]} < 0"
                    )

    @classmethod
    def of(cls, pairs: Iterable[tuple[LatticeVector, int]]) -> "PolystableDecomposition":
        return cls(tuple(pairs))

    @property
    def lattice(self) -> GramLattice:
        return self.summands[0][0].lattice

    @property
    def size(self) -> int:
        return len(self.summands)

    def total(self) -> LatticeVector:
        return self._total

    @cached_property
    def _total(self) -> LatticeVector:
        return self.combination(self.multiplicities)

    def combination(self, coeffs: Iterable[int]) -> LatticeVector:
        """The class sum(a_i * v_i) for integer coefficients a_i."""
        coeffs = ints(coeffs, "coefficients")
        if len(coeffs) != self.size:
            raise MalformedSummandError(
                f"{len(coeffs)} coefficients for {self.size} summands"
            )
        columns = zip(*(v.coords for v in self.classes))
        return self.lattice.vector(sum(map(mul, coeffs, col)) for col in columns)
