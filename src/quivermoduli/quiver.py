"""Ext-quivers of polystable decompositions and their root combinatorics.

The quiver of a decomposition carries (v_i^2 + 2)/2 loops at vertex i
and <v_i, v_j> arrows between distinct vertices, so representations of
its double have the dimension of the full self-extension space.  The
quadratic form of the negative Cartan matrix drives the dimension
formulas and Crawley-Boevey's criterion for the existence of a simple
representation.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from .decomposition import PolystableDecomposition
from .errors import (
    BudgetExceededError,
    HomNonvanishingError,
    InternalInvariantError,
    LatticeMismatchError,
    MalformedSummandError,
)
from .lattice import pairing, square

DEFAULT_ROOT_BUDGET = 200_000

DimVector = tuple[int, ...]


class Arrow(NamedTuple):
    """One arrow of the base quiver, in the canonical enumeration:
    loops first (by vertex), then arrows between distinct vertices by
    (source, target) with source < target, each with a copy index."""

    index: int
    source: int
    target: int
    copy: int

    @property
    def is_loop(self) -> bool:
        return self.source == self.target


@dataclass(frozen=True)
class ExtQuiver:
    """A quiver given by per-vertex loop counts and symmetric arrow
    multiplicities between distinct vertices."""

    loops: tuple[int, ...]
    arrows: tuple[tuple[int, int, int], ...]  # (i, j, multiplicity) with i < j

    def __post_init__(self):
        loops = tuple(int(g) for g in self.loops)
        object.__setattr__(self, "loops", loops)
        s = len(loops)
        if any(g < 0 for g in loops):
            raise MalformedSummandError("negative loop count")
        cleaned = []
        seen = set()
        for i, j, m in self.arrows:
            i, j, m = int(i), int(j), int(m)
            if not (0 <= i < s and 0 <= j < s) or i == j:
                raise LatticeMismatchError(f"arrow ({i},{j}) out of range")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise LatticeMismatchError(f"duplicate arrow entry ({i},{j})")
            if m < 0:
                raise HomNonvanishingError(f"negative arrow multiplicity at ({i},{j})")
            seen.add((i, j))
            if m > 0:
                cleaned.append((i, j, m))
        object.__setattr__(self, "arrows", tuple(sorted(cleaned)))

    @property
    def num_vertices(self) -> int:
        return len(self.loops)

    def neg_cartan(self) -> tuple[tuple[int, ...], ...]:
        """The symmetric matrix D with D_ii = 2*loops_i - 2 and
        D_ij the arrow multiplicity; diagonal entries are even."""
        return self._neg_cartan

    def arrow_list(self) -> tuple[Arrow, ...]:
        return self._arrow_list

    # All three are fixed by the frozen fields, so each is built once per
    # quiver; the caches live outside the fields, which alone make up
    # __eq__, __hash__ and __repr__.

    @cached_property
    def _neg_cartan(self) -> tuple[tuple[int, ...], ...]:
        s = self.num_vertices
        d = [[0] * s for _ in range(s)]
        for i in range(s):
            d[i][i] = 2 * self.loops[i] - 2
        for i, j, m in self.arrows:
            d[i][j] = m
            d[j][i] = m
        return tuple(tuple(row) for row in d)

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        out: list[set[int]] = [set() for _ in self.loops]
        for i, j, _ in self.arrows:
            out[i].add(j)
            out[j].add(i)
        return tuple(tuple(sorted(nbrs)) for nbrs in out)

    @cached_property
    def _arrow_list(self) -> tuple[Arrow, ...]:
        out = []
        for i, g in enumerate(self.loops):
            for k in range(g):
                out.append(Arrow(len(out), i, i, k))
        for i, j, m in self.arrows:
            for k in range(m):
                out.append(Arrow(len(out), i, j, k))
        return tuple(out)

    def adjacent(self, i: int) -> tuple[int, ...]:
        """Neighbours of vertex ``i`` along arrows, loops aside, sorted."""
        return self._adjacency[i]

    def components(self, vertices: Optional[Iterable[int]] = None) -> tuple[tuple[int, ...], ...]:
        """Connected components of the underlying graph restricted to
        ``vertices`` (all vertices when omitted)."""
        verts = set(range(self.num_vertices)) if vertices is None else set(vertices)
        comps = []
        remaining = set(verts)
        while remaining:
            start = min(remaining)
            comp = {start}
            frontier = [start]
            while frontier:
                cur = frontier.pop()
                for nxt in self.adjacent(cur):
                    if nxt in verts and nxt not in comp:
                        comp.add(nxt)
                        frontier.append(nxt)
            comps.append(tuple(sorted(comp)))
            remaining -= comp
        return tuple(sorted(comps))


def build_ext_quiver(decomp: PolystableDecomposition) -> ExtQuiver:
    """Quiver of a decomposition: (v_i^2 + 2)/2 loops, <v_i, v_j> arrows.

    With these counts the double quiver's representation space matches
    the self-extension space of the polystable object summand by
    summand, which is what pins the formulas down.
    """
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


def _check_length(q: ExtQuiver, n: Iterable[int]) -> DimVector:
    n = tuple(int(x) for x in n)
    if len(n) != q.num_vertices:
        raise LatticeMismatchError(
            f"dimension vector of length {len(n)} for {q.num_vertices} vertices"
        )
    return n


def quadratic_form(q: ExtQuiver, n: Iterable[int]) -> int:
    """Value of the negative-Cartan quadratic form at n."""
    n = _check_length(q, n)
    d = q.neg_cartan()
    return sum(n[i] * d[i][j] * n[j] for i in range(len(n)) for j in range(len(n)))


def expected_dimension(q: ExtQuiver, n: Iterable[int]) -> int:
    """Dimension of the local quiver variety: quadratic_form + 2."""
    return quadratic_form(q, n) + 2


def num_parameters(q: ExtQuiver, n: Iterable[int]) -> int:
    """Half the expected dimension (always an integer: the diagonal of
    the negative Cartan matrix is even)."""
    d = expected_dimension(q, n)
    if d % 2:
        raise InternalInvariantError(f"odd expected dimension {d} at {tuple(n)}")
    return d // 2


def is_positive_root(q: ExtQuiver, alpha: Iterable[int], n: Iterable[int]) -> bool:
    """Positive root in the working sense: 0 <= alpha <= n, connected
    support, and quadratic_form(alpha) + 2 >= 0."""
    alpha = _check_length(q, alpha)
    n = _check_length(q, n)
    if all(a == 0 for a in alpha):
        raise ValueError("the zero vector is not a root candidate")
    if any(a < 0 or a > b for a, b in zip(alpha, n)):
        return False
    support = [i for i, a in enumerate(alpha) if a != 0]
    if len(q.components(support)) != 1:
        return False
    return quadratic_form(q, alpha) + 2 >= 0


def enumerate_positive_roots(
    q: ExtQuiver, n: Iterable[int], budget: int = DEFAULT_ROOT_BUDGET
) -> tuple[DimVector, ...]:
    """All positive roots alpha <= n, in lexicographic order."""
    n = _check_length(q, n)
    box = 1
    for b in n:
        box *= b + 1
    if box > budget:
        raise BudgetExceededError(
            f"root box of size {box} exceeds the budget {budget}"
        )
    out = []
    for alpha in itertools.product(*(range(b + 1) for b in n)):
        if any(alpha) and is_positive_root(q, alpha, n):
            out.append(alpha)
    return tuple(out)


@dataclass(frozen=True)
class SimpleRepVerdict:
    """Outcome of Crawley-Boevey's existence test for a simple
    representation of the deformed zero fiber at dimension vector n."""

    exists: bool
    reason: Optional[str] = None
    violating_parts: Optional[tuple[DimVector, ...]] = None

    def __bool__(self) -> bool:
        return self.exists


def simple_rep_exists(
    q: ExtQuiver, n: Iterable[int], budget: int = DEFAULT_ROOT_BUDGET
) -> SimpleRepVerdict:
    """Crawley-Boevey's criterion: n must be a positive root and every
    splitting of n into two or more positive roots must strictly drop
    num_parameters.  Splittings are explored exhaustively with a
    best-splitting table over the box below n."""
    n = _check_length(q, n)
    if all(x == 0 for x in n):
        raise ValueError("the zero dimension vector has no representations")
    if not is_positive_root(q, n, n):
        return SimpleRepVerdict(False, reason="not a positive root")
    roots = enumerate_positive_roots(q, n, budget=budget)
    p = {alpha: num_parameters(q, alpha) for alpha in roots}

    # best[m] = (max total num_parameters over splittings of m into
    # one or more positive roots, first part of an optimal splitting).
    # The box is filled in product order, which visits every m - beta
    # before m; n itself comes last and is handled below.
    best: dict[DimVector, Optional[tuple[int, Optional[DimVector]]]] = {}
    cells = itertools.product(*(range(b + 1) for b in n))
    best[next(cells)] = (0, None)
    for m in cells:
        if m == n:
            break
        result = None
        for beta in roots:
            rest = tuple(map(operator.sub, m, beta))
            if min(rest) < 0:
                continue
            sub = best[rest]
            if sub is None:
                continue
            value = p[beta] + sub[0]
            if result is None or value > result[0]:
                result = (value, beta)
        best[m] = result

    # Splittings with at least two parts: peel off one proper part.
    champion: Optional[tuple[int, DimVector]] = None
    for beta in roots:
        if beta == n:
            continue
        rest = tuple(x - b for x, b in zip(n, beta))
        if all(x == 0 for x in rest):
            continue
        sub = best[rest]
        if sub is None:
            continue
        value = p[beta] + sub[0]
        if champion is None or value > champion[0]:
            champion = (value, beta)
    if champion is None:
        return SimpleRepVerdict(True)
    p_n = num_parameters(q, n)
    if p_n > champion[0]:
        return SimpleRepVerdict(True)
    parts = [champion[1]]
    rest = tuple(x - b for x, b in zip(n, champion[1]))
    while any(rest):
        _, beta = best[rest]
        parts.append(beta)
        rest = tuple(x - b for x, b in zip(rest, beta))
    parts.sort(reverse=True)
    return SimpleRepVerdict(
        False,
        reason=(
            f"splitting drops no parameters: p{tuple(n)} = {p_n} <= "
            f"{champion[0]} = sum over parts"
        ),
        violating_parts=tuple(parts),
    )


def pairwise_merge_check(v_i, v_j) -> bool:
    """Whether two summand classes merge into a class with strictly
    superadditive parameter count: (v_i+v_j)^2 + 2 > (v_i^2+2) + (v_j^2+2),
    which reduces to <v_i, v_j> >= 2.  Both sides are evaluated."""
    lhs = square(v_i + v_j) + 2
    rhs = (square(v_i) + 2) + (square(v_j) + 2)
    result = lhs > rhs
    if result != (pairing(v_i, v_j) >= 2):
        raise InternalInvariantError("merge inequality disagrees with <v_i, v_j> >= 2")
    return result
