"""Totally-semistable wall detection and the polystable stratum cascade.

A rank-2 hyperbolic pair models the lattice of a wall together with a
positive class on it.  The detector searches a coordinate box for an
isotropic class pairing to 1 with the positive class (criterion A) or
an effective spherical class pairing negatively (criterion B), solving
for the box points of square 0 and -2 row by row with the lattice's
rank-2 conic solver.

The stratum analyzer runs the full case cascade on a polystable
decomposition: merge and multiplicity tests backed by the existence of
simple representations, isotropic isolation, connectivity splitting,
the genus test on spherical subgraphs, and finally the tree-shape leaf
test that certifies the product form of a totally semistable stratum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .decomposition import PolystableDecomposition
from .errors import (
    DegenerateValueError,
    InternalInvariantError,
    LatticeMismatchError,
)
from .lattice import (
    GramLattice,
    LatticeVector,
    _box_key,
    _conic_points,
    pairing,
    signature,
    square,
)
from .quiver import (
    DEFAULT_ROOT_BUDGET,
    _merge_inequality,
    build_ext_quiver,
    simple_rep_exists,
)
from .stability import StabilityFunction, _check_normalized


@dataclass(frozen=True)
class HyperbolicPair:
    """A rank-2 indefinite nondegenerate lattice with a positive class."""

    lattice: GramLattice
    v: LatticeVector

    def __post_init__(self):
        if self.lattice.rank != 2:
            raise LatticeMismatchError("hyperbolic pair needs a rank-2 lattice")
        # A rank-2 form has signature (1, 1, 0) exactly when its
        # determinant is negative.
        (a, b), (_, d) = self.lattice.gram
        if a * d - b * b >= 0:
            raise LatticeMismatchError(
                f"lattice signature {signature(self.lattice)} is not (1, 1, 0)"
            )
        if self.v.lattice != self.lattice:
            raise LatticeMismatchError("class lives in a different lattice")
        if square(self.v) <= 0:
            raise LatticeMismatchError(
                f"class has square {square(self.v)}; need a positive square"
            )


EffectivityPredicate = Callable[[LatticeVector], bool]


def _effective_against(z0: StabilityFunction) -> EffectivityPredicate:
    """The default effectivity, positivity against the wall's normalized
    center Z0(v): a class s is effective when Re(Z0(s)/Z0(v)) > 0.  With
    Z0(v) in i*Q>0 that is Im Z0(s) > 0, read off the integer numerator
    over the positive common denominator.  Overridable because the
    bookkeeping of effective classes is a convention of the ambient
    geometry, not of the lattice."""
    def effective(s: LatticeVector) -> bool:
        return z0._numerators(s)[1] > 0

    return effective


class TssWitness(NamedTuple):
    criterion: str  # "isotropic-pairing-one" or "effective-spherical"
    witness: LatticeVector


class TssSearch(NamedTuple):
    detected: bool
    witness: Optional[TssWitness] = None
    searched_bound: Optional[int] = None

    def __bool__(self) -> bool:
        return self.detected


def detect_totally_semistable(
    hp: HyperbolicPair,
    z0: StabilityFunction,
    bound: int,
    effectivity: Optional[EffectivityPredicate] = None,
) -> TssSearch:
    """Box search for a witness that the wall is totally semistable.

    Criterion A: an isotropic w with <v, w> = 1.  Criterion B: an
    effective spherical s with <v, s> < 0.  The box points of square 0
    and -2 are solved for exactly, row by row, and tested on raw
    integers.  The first A witness in box order wins; only when the
    whole box has none is ``effectivity`` consulted, on the spherical
    candidates with <v, s> < 0 in box order, up to the first it
    accepts.  A negative answer certifies only the box.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    _check_normalized(z0, hp.v)
    if effectivity is None:
        effectivity = _effective_against(z0)
    (a, b), (_, d) = hp.lattice.gram
    vx, vy = hp.v.coords
    v0, v1 = vx * a + vy * b, vx * b + vy * d  # the row v . G: <v, (x, y)> = v0 x + v1 y
    isotropic = [p for p in _conic_points(a, b, d, 0, bound) if v0 * p[0] + v1 * p[1] == 1]
    if isotropic:
        w = hp.lattice.vector(min(isotropic, key=_box_key))
        return TssSearch(True, TssWitness("isotropic-pairing-one", w))
    spherical = [p for p in _conic_points(a, b, d, -2, bound) if v0 * p[0] + v1 * p[1] < 0]
    for coords in sorted(spherical, key=_box_key):
        s = hp.lattice.vector(coords)
        if effectivity(s):
            return TssSearch(True, TssWitness("effective-spherical", s))
    return TssSearch(False, searched_bound=bound)


# ---------------------------------------------------------------------------
# Stratum analysis


class HasStableDeformation(NamedTuple):
    """Some sub-sum of the decomposition, taken with multiplicity one,
    deforms to a stable object.  ``summand_indices`` lists, by ``via``:
    "merge", the pair that merges, which deforms; "multiplicity", the
    repeated positive-square summand; "genus", the whole vertex set the
    genus test found a cycle in (a spherical component, then the
    adjacent positive vertex if added), in which the cycle deforms but
    the set itself need not; "component", one component's verdict with
    its indices lifted to the whole decomposition."""

    kind = "has_stable_deformation"
    summand_indices: tuple[int, ...]
    via: str  # "merge" | "multiplicity" | "genus" | "component"


class TotallySemistableShape(NamedTuple):
    """Tree shape v = w + sum(s_i): one optional positive class and
    pairwise spherical leaves; the stratum is a product accordingly."""

    kind = "totally_semistable_shape"
    w: Optional[LatticeVector]
    spheres: tuple[LatticeVector, ...]
    leaf: Optional[LatticeVector] = None


class ProductSplit(NamedTuple):
    """Disconnected ext-graph: the stratum is a product over components."""

    kind = "product_split"
    factors: tuple["Factor", ...]


class Inconclusive(NamedTuple):
    kind = "inconclusive"
    reason: str


Verdict = Union[HasStableDeformation, TotallySemistableShape, ProductSplit, Inconclusive]


class Factor(NamedTuple):
    """One factor of a product-shaped stratum."""

    kind: str  # "positive" | "spherical_point" | "symmetric_power"
    v: LatticeVector
    multiplicity: int = 1


class StratumReport(NamedTuple):
    verdict: Verdict
    trace: tuple[dict, ...]


def _trace(step: str, outcome: str, **detail) -> dict:
    entry = {"step": step, "outcome": outcome}
    if detail:
        entry["detail"] = detail
    return entry


def analyze_stratum(decomp: PolystableDecomposition) -> StratumReport:
    """Run the full case cascade on a polystable decomposition with
    positive total square.  Every test is recorded in the trace in
    order; ties between failing pairs break lexicographically."""
    total = decomp.total()
    if square(total) <= 0:
        raise LatticeMismatchError(
            f"total class has square {square(total)}; need a positive square"
        )
    return _analyze(decomp)


def _analyze(decomp: PolystableDecomposition) -> StratumReport:
    trace: list[dict] = []
    classes = decomp.classes
    mults = decomp.multiplicities
    s = decomp.size
    pair = decomp._gram
    squares = [pair[i][i] for i in range(s)]

    # (1) merge test: a pair that merges superadditively deforms.  The
    # square of v_i + v_j is computed afresh and checked against the Gram.
    for i in range(s):
        for j in range(i + 1, s):
            sum_square = square(classes[i] + classes[j])
            if _merge_inequality(sum_square, squares[i], squares[j], pair[i][j]):
                trace.append(
                    _trace("merge", "stable-deformation", pair=[i, j],
                           pairing=pair[i][j])
                )
                return StratumReport(
                    HasStableDeformation((i, j), via="merge"), tuple(trace)
                )
    trace.append(_trace("merge", "passed"))

    # (2) multiplicity test: a repeated positive-square summand deforms.
    for i in range(s):
        if squares[i] > 0 and mults[i] > 1:
            trace.append(
                _trace("multiplicity", "stable-deformation", summand=i,
                       multiplicity=mults[i])
            )
            return StratumReport(
                HasStableDeformation((i,), via="multiplicity"), tuple(trace)
            )
    trace.append(_trace("multiplicity", "passed"))

    # (3) pairing range: after the merge test all distinct pairings are
    # 0 or 1; the lower bound is a decomposition invariant.
    if not all(0 <= pair[i][j] <= 1 for i in range(s) for j in range(i + 1, s)):
        raise InternalInvariantError("a pairing outside [0, 1] survived the merge test")
    trace.append(_trace("pairing-range", "passed"))

    # (4) isotropic isolation: an isotropic summand pairing to 1 forces
    # a totally semistable wall for its partner; report it rather than
    # assume it away.
    for j in range(s):
        if squares[j] == 0:
            partner = next(
                (i for i in range(s) if i != j and pair[i][j] == 1), None
            )
            if partner is not None:
                trace.append(
                    _trace("isotropic-isolation", "wall-signal",
                           isotropic=j, partner=partner)
                )
                return StratumReport(
                    Inconclusive(
                        f"isotropic summand {j} pairs to 1 with summand {partner}: "
                        f"the ambient stability condition lies on a totally "
                        f"semistable wall for that summand's class"
                    ),
                    tuple(trace),
                )
    trace.append(_trace("isotropic-isolation", "passed"))

    # (5) connectivity: a disconnected ext-graph splits the stratum
    # into a product, analyzed component by component.
    quiver = build_ext_quiver(decomp)
    comps = quiver.components()
    if len(comps) > 1:
        trace.append(_trace("connectivity", "split", components=[list(c) for c in comps]))
        factors: list[Factor] = []
        for comp in comps:
            if len(comp) == 1:
                i = comp[0]
                factors.append(_single_vertex_factor(classes[i], squares[i], mults[i]))
                continue
            sub_report = _analyze(
                PolystableDecomposition.of((classes[i], mults[i]) for i in comp)
            )
            trace.extend(
                {**entry, "component": list(comp)} for entry in sub_report.trace
            )
            if isinstance(sub_report.verdict, HasStableDeformation):
                lifted = tuple(comp[k] for k in sub_report.verdict.summand_indices)
                return StratumReport(
                    HasStableDeformation(lifted, via="component"), tuple(trace)
                )
            if isinstance(sub_report.verdict, Inconclusive):
                return StratumReport(sub_report.verdict, tuple(trace))
            factors.extend(product_shape(sub_report))
        return StratumReport(ProductSplit(tuple(factors)), tuple(trace))
    trace.append(_trace("connectivity", "passed"))

    # (6) genus test: every component of the spherical subgraph, and
    # that component together with an adjacent positive vertex, must be
    # a tree.
    spherical = [i for i in range(s) if squares[i] == -2]
    positives = [i for i in range(s) if squares[i] > 0]
    for comp in quiver.components(spherical):
        vertex_sets = [list(comp)]
        for p in positives:
            if any(pair[p][i] > 0 for i in comp):
                vertex_sets.append(list(comp) + [p])
        for verts in vertex_sets:
            g = _graph_genus(verts, pair)
            if g >= 1:
                trace.append(
                    _trace("genus", "stable-deformation", vertices=verts, genus=g)
                )
                return StratumReport(
                    HasStableDeformation(tuple(verts), via="genus"), tuple(trace)
                )
    trace.append(_trace("genus", "passed"))

    # (7) shape: the surviving data must be one optional positive class
    # plus multiplicity-one spherical classes.  No isotropic summand is
    # left: after (4) one pairs 0 with every other summand, so (5) split
    # it off, and a lone one has total square 0.
    if len(positives) > 1:
        trace.append(_trace("shape", "violation", positives=positives))
        return StratumReport(
            Inconclusive(
                "more than one positive-square summand survived the merge "
                "test; such data cannot sit on a rank-2 wall"
            ),
            tuple(trace),
        )
    heavy = [i for i in spherical if mults[i] > 1]
    if heavy:
        trace.append(_trace("shape", "violation", repeated_spheres=heavy))
        return StratumReport(
            Inconclusive(
                "a spherical summand has multiplicity > 1; outside the "
                "tree-shape analysis"
            ),
            tuple(trace),
        )
    w = classes[positives[0]] if positives else None
    sphere_classes = tuple(classes[i] for i in spherical)
    if not spherical:
        trace.append(_trace("shape", "positive-only"))
        return StratumReport(TotallySemistableShape(w, ()), tuple(trace))
    if w is None:
        trace.append(_trace("shape", "point"))
        return StratumReport(TotallySemistableShape(None, sphere_classes), tuple(trace))
    trace.append(_trace("shape", "passed"))

    # (8) leaf test: by (5) and (6) the graph is a tree on w and at
    # least one sphere, so it has a spherical leaf; the leaf pairs to -1
    # with the total class, certifying the wall criteria.
    leaf = next((i for i in spherical
                 if sum(pair[i][j] for j in range(s) if j != i) == 1), None)
    leaf_pairing = None if leaf is None else pairing(decomp.total(), classes[leaf])
    if leaf_pairing != -1:
        raise InternalInvariantError(
            f"spherical leaf {leaf} pairs to {leaf_pairing} with the total class, not -1"
        )
    trace.append(_trace("leaf", "found", leaf=leaf, pairing_with_total=leaf_pairing))
    return StratumReport(
        TotallySemistableShape(w, sphere_classes, leaf=classes[leaf]), tuple(trace)
    )


def _graph_genus(vertices: Sequence[int], pair: Sequence[Sequence[int]]) -> int:
    """First Betti number 1 - |V| + |E| with edges counted with
    pairing multiplicity, for a connected vertex set."""
    verts = list(vertices)
    edges = sum(pair[a][b] for k, a in enumerate(verts) for b in verts[k + 1:])
    return 1 - len(verts) + edges


def _single_vertex_factor(v: LatticeVector, sq: int, mult: int) -> Factor:
    if sq > 0:
        return Factor("positive", v, mult)
    if sq < 0 and mult == 1:
        return Factor("spherical_point", v, 1)
    return Factor("symmetric_power", v, mult)


def product_shape(report: StratumReport) -> tuple[Factor, ...]:
    """Flat factor list of a product-shaped verdict: the positive
    factor, spherical factors (each a reduced point), and symmetric
    powers of isotropic factors."""
    verdict = report.verdict
    if isinstance(verdict, TotallySemistableShape):
        w = () if verdict.w is None else (Factor("positive", verdict.w, 1),)
        return w + tuple(Factor("spherical_point", s, 1) for s in verdict.spheres)
    if isinstance(verdict, ProductSplit):
        return verdict.factors
    raise DegenerateValueError(f"verdict {verdict.kind} has no product shape")


def stable_deformation_exists(
    decomp: PolystableDecomposition, budget: int = DEFAULT_ROOT_BUDGET
) -> bool:
    """Bridge to the quiver side: a stable object exists near the
    polystable point exactly when the local model has a simple
    representation, decided by Crawley-Boevey's criterion."""
    quiver = build_ext_quiver(decomp)
    return bool(simple_rep_exists(quiver, decomp.multiplicities, budget=budget))
