"""Ext-quivers of polystable decompositions and their root combinatorics.

The quiver of a decomposition carries (v_i^2 + 2)/2 loops at vertex i
and <v_i, v_j> arrows between distinct vertices, so representations of
its double have the dimension of the full self-extension space.  The
quadratic form of the negative Cartan matrix drives the dimension
formulas and Crawley-Boevey's criterion for the existence of a simple
representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Iterable, NamedTuple, Optional

from .decomposition import PolystableDecomposition
from .errors import (
    BudgetExceededError,
    DegenerateValueError,
    HomNonvanishingError,
    InternalInvariantError,
    LatticeMismatchError,
    MalformedSummandError,
)
from .lattice import pairing, square
from .linalg import ints

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


@dataclass(frozen=True)
class ExtQuiver:
    """A quiver given by per-vertex loop counts and symmetric arrow
    multiplicities between distinct vertices."""

    loops: tuple[int, ...]
    arrows: tuple[tuple[int, int, int], ...]  # (i, j, multiplicity) with i < j

    def __post_init__(self):
        loops = ints(self.loops, "loop counts")
        object.__setattr__(self, "loops", loops)
        s = len(loops)
        if any(g < 0 for g in loops):
            raise MalformedSummandError("negative loop count")
        cleaned = []
        seen = set()
        for i, j, m in self.arrows:
            i, j, m = ints((i, j, m), "arrow entries")
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

    # These are fixed by the frozen fields, so each is built once per
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
    def _connectivity(self) -> dict[int, bool]:
        return {}  # filled per support bitmask by _connected

    @cached_property
    def _neighbour_masks(self) -> tuple[int, ...]:
        # Per vertex, the bitmask of its neighbours along arrows, loops aside.
        out = [0] * self.num_vertices
        for i, j, _ in self.arrows:
            out[i] |= 1 << j
            out[j] |= 1 << i
        return tuple(out)

    @cached_property
    def _terms(self) -> tuple[tuple[int, int, int], ...]:
        # The nonzero terms (i, j, c), i <= j, of the quadratic form:
        # c = D_ii, or 2 D_ij off the diagonal.
        d = self._neg_cartan
        return tuple((i, j, d[i][j] if i == j else 2 * d[i][j])
                     for i in range(len(d)) for j in range(i, len(d)) if d[i][j])

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

    def components(self, vertices: Optional[Iterable[int]] = None) -> tuple[tuple[int, ...], ...]:
        """Connected components of the underlying graph restricted to
        ``vertices`` (all vertices when omitted), by lowest vertex."""
        rest = sum(1 << v for v in set(range(self.num_vertices) if vertices is None else vertices))
        comps = []
        while rest:
            comp = _closure(self, rest)
            comps.append(tuple(i for i in range(comp.bit_length()) if comp >> i & 1))
            rest ^= comp
        return tuple(comps)


def build_ext_quiver(decomp: PolystableDecomposition) -> ExtQuiver:
    """Quiver of a decomposition: (v_i^2 + 2)/2 loops, <v_i, v_j> arrows.

    With these counts the double quiver's representation space matches
    the self-extension space of the polystable object summand by
    summand, which is what pins the formulas down.
    """
    gram = decomp._gram
    # PolystableDecomposition already rejects odd squares and squares < -2.
    loops = tuple((row[i] + 2) // 2 for i, row in enumerate(gram))
    arrows = tuple((i, j, m) for i, row in enumerate(gram)
                   for j, m in enumerate(row) if j > i and m > 0)
    return ExtQuiver(loops, arrows)


def _check_length(q: ExtQuiver, n: Iterable[int]) -> DimVector:
    """n as a tuple of ints, one entry per vertex."""
    n = ints(n, "dimension vector entries")
    if len(n) != q.num_vertices:
        raise LatticeMismatchError(
            f"dimension vector of length {len(n)} for {q.num_vertices} vertices"
        )
    return n


def _closure(q: ExtQuiver, mask: int) -> int:
    """The vertices of a bitmask that its lowest vertex reaches inside it,
    expanding only the vertices reached in the last step."""
    nbrs = q._neighbour_masks
    reached = frontier = mask & -mask
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= nbrs[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & mask & ~reached
        reached |= frontier
    return reached


def _connected(q: ExtQuiver, mask: int) -> bool:
    """Whether the vertices of a support bitmask span a connected graph;
    cached per quiver."""
    known = q._connectivity
    if mask not in known:
        known[mask] = bool(mask) and _closure(q, mask) == mask
    return known[mask]


def _form(q: ExtQuiver, n: DimVector) -> int:
    # A term on a vertex outside the support of n contributes 0.
    return sum(c * n[i] * n[j] for i, j, c in q._terms)


def _root_p(connected: bool, form: int) -> int:
    """p(alpha) = form // 2 + 1 for a nonzero alpha >= 0 with quadratic form
    ``form`` if alpha is a positive root in the working sense (connected
    support, p >= 0), else -1."""
    p = form // 2 + 1 if connected else -1
    return p if p >= 0 else -1


def _cells(q: ExtQuiver, n: DimVector, budget: int):
    """Each nonzero cell alpha <= n in lex order with its _root_p; the box is
    checked against the budget on the call, before anything is built.

    The walk carries the quadratic form along the lex order.  Each prefix
    (every coordinate but the last, l) carries its support bitmask, q on
    the prefix and its pairing (D alpha)_j with each later coordinate j,
    built from its parent prefix in O(rank).  Along the last coordinate,
    q(alpha) = q_prefix + a * (2 (D alpha)_l + a D_ll), so p costs O(1) per
    cell, and a row reads the connectivity of two masks: the prefix's, and
    that mask plus l.  It streams: beyond the cells it yields, it holds one
    prefix state per coordinate."""
    box = prod(b + 1 for b in n)
    if box > budget:
        raise BudgetExceededError(f"root box of size {box} exceeds the budget {budget}")
    return _walk(q, n)


def _walk(q: ExtQuiver, n: DimVector):
    # The box is empty at a negative entry; at rank 0 it is the zero cell.
    if not n or min(n) < 0:
        return
    d = q._neg_cartan
    last = len(n) - 1
    bit, d_ll, row = 1 << last, d[last][last], range(1, n[last] + 1)
    # The prefixes run as an odometer.  states[k] holds the mask, q and D alpha
    # of alpha[:k]; a moved coordinate k resets every later one to 0, so the
    # states past k are all the new state of alpha[:k + 1].  The row needs
    # only (D alpha)_last of its prefix.
    alpha = [0] * last
    states = [(0, 0, (0,) * len(n))] * last
    mask = form = d_l = 0
    while True:
        prefix = tuple(alpha)
        if mask:  # else the a = 0 cell is the zero cell
            yield prefix + (0,), _root_p(_connected(q, mask), form)
        lin, connected = 2 * d_l, _connected(q, mask | bit)
        for a in row:
            yield prefix + (a,), _root_p(connected, form + a * (lin + a * d_ll))
        k = last - 1
        while k >= 0 and alpha[k] == n[k]:
            alpha[k] = 0
            k -= 1
        if k < 0:
            return
        a = alpha[k] = alpha[k] + 1
        mask, form, dv = states[k]
        d_k = d[k]
        mask |= 1 << k
        form += a * (2 * dv[k] + a * d_k[k])
        if k + 1 < last:
            dv = [v + a * c for v, c in zip(dv, d_k)]
            states[k + 1:] = [(mask, form, dv)] * (last - k - 1)
            d_l = dv[last]
        else:
            d_l = dv[last] + a * d_k[last]


def quadratic_form(q: ExtQuiver, n: Iterable[int]) -> int:
    """Value of the negative-Cartan quadratic form at n: the sum of every
    nonzero term c n_i n_j, i <= j, with c = D_ii or 2 D_ij off the
    diagonal."""
    return _form(q, _check_length(q, n))


def expected_dimension(q: ExtQuiver, n: Iterable[int]) -> int:
    """quadratic_form(n) + 2 = 2 p(n): dim M_0(Q, n) where the moment
    map is flat at n (Crawley-Boevey 2001); off that locus they can differ."""
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
        raise DegenerateValueError("the zero vector is not a root candidate")
    return all(0 <= a <= b for a, b in zip(alpha, n)) and _root_p(
        _connected(q, sum(1 << i for i, a in enumerate(alpha) if a)), _form(q, alpha)) >= 0


def enumerate_positive_roots(
    q: ExtQuiver, n: Iterable[int], budget: int = DEFAULT_ROOT_BUDGET
) -> tuple[DimVector, ...]:
    """All positive roots alpha <= n, in lexicographic order."""
    return tuple(alpha for alpha, p in _cells(q, _check_length(q, n), budget) if p >= 0)


@dataclass(frozen=True)
class SimpleRepVerdict:
    """Outcome of Crawley-Boevey's existence test for a simple
    representation of the deformed zero fiber at dimension vector n."""

    exists: bool
    reason: Optional[str] = None
    violating_parts: Optional[tuple[DimVector, ...]] = None

    def __bool__(self) -> bool:
        return self.exists


def _splitting_table(q: ExtQuiver, n: DimVector, budget: int) -> tuple:
    """Crawley-Boevey's best-splitting table over the box below n: value
    (packed m -> the largest total p over splittings of m into positive
    roots, m alone counting when in Sigma_0), the roots (packed -> (root,
    p)) and Sigma_0 as (packed, p), both in lex order, and the guards."""
    # A cell packs into one int, coordinate 0 highest, in fields topped by
    # a guard bit: packed order is lex order, and m - beta >= 0 iff (packed(m)
    # | guards) - packed(beta) keeps every guard, the rest packed(m - beta).
    # The last coordinate has shift 0, so a row's keys are its prefix's key
    # plus a; the first row, the zero cell skipped, starts at a = 1 with key 0.
    cells = _cells(q, n, budget)  # checks the budget before anything is built
    width = max(n).bit_length() + 1
    shifts = [width * i for i in reversed(range(len(n)))]
    guards = sum(1 << (s + width - 1) for s in shifts)
    value, roots, sigma0 = {0: 0}, {}, []
    key = 0
    for alpha, p in cells:
        a = alpha[-1]
        if not a:
            key = sum(x << s for x, s in zip(alpha, shifts))
        m = key + a
        top, x = -1, m | guards
        for pb, p_beta in sigma0:
            rest = x - pb
            if rest & guards == guards:
                v = p_beta + value[rest ^ guards]
                if v > top:
                    top = v
        if p >= 0:
            roots[m] = alpha, p
            if p > top:  # a root beating its best splitting is in Sigma_0
                sigma0.append((m, p))
                top = p
        value[m] = top
    return value, roots, sigma0, guards


def simple_rep_exists(
    q: ExtQuiver, n: Iterable[int], budget: int = DEFAULT_ROOT_BUDGET
) -> SimpleRepVerdict:
    """Crawley-Boevey's criterion (Compositio Math. 2001, Thm 1.2): n is a
    positive root in Sigma_0, i.e. every splitting of n into two or more
    positive roots strictly drops num_parameters p.  A root outside Sigma_0
    splits into roots whose p sum to at least its own, so one lex walk of
    the box tries as parts only the Sigma_0 roots found so far.  Only on a
    failure is the first optimal splitting in lex order rebuilt, from n down:
    the lex-first root beta with p(beta) + value[rest - beta] == value[rest]."""
    n = _check_length(q, n)
    if all(x == 0 for x in n):
        raise DegenerateValueError("the zero dimension vector has no representations")
    if min(n) < 0 or _root_p(
            _connected(q, sum(1 << i for i, x in enumerate(n) if x)), _form(q, n)) < 0:
        return SimpleRepVerdict(False, reason="not a positive root")
    value, roots, sigma0, guards = _splitting_table(q, n, budget)
    pn = next(reversed(value))
    if sigma0[-1][0] == pn:
        return SimpleRepVerdict(True)
    parts, rest = [], pn
    while rest:
        for pb, (beta, p) in roots.items():
            left = (rest | guards) - pb
            if left & guards == guards and p + value[left ^ guards] == value[rest]:
                break
        parts.append(beta)
        rest = left ^ guards
    parts.sort(reverse=True)
    reason = f"splitting drops no parameters: p{n} = {roots[pn][1]} <= {value[pn]} = sum over parts"
    return SimpleRepVerdict(False, reason=reason, violating_parts=tuple(parts))


def pairwise_merge_check(v_i, v_j) -> bool:
    """Whether two summand classes merge into a class with strictly
    superadditive parameter count: (v_i+v_j)^2 + 2 > (v_i^2+2) + (v_j^2+2),
    which reduces to <v_i, v_j> >= 2.  Both sides are evaluated."""
    return _merge_inequality(square(v_i + v_j), square(v_i), square(v_j), pairing(v_i, v_j))


def _merge_inequality(sum_square: int, square_i: int, square_j: int, pair: int) -> bool:
    """The merge inequality on the squares of v_i + v_j, v_i and v_j,
    checked against <v_i, v_j> >= 2."""
    result = sum_square + 2 > (square_i + 2) + (square_j + 2)
    if result != (pair >= 2):
        raise InternalInvariantError("merge inequality disagrees with <v_i, v_j> >= 2")
    return result
