"""Independent oracles for the benchmark's correctness checks.

Everything here is written apart from the library: raw integers and
``fractions.Fraction`` only, no import of ``quivermoduli``.  A check
raises ``CheckError`` with a message naming the input.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd


class CheckError(AssertionError):
    """An output of the program disagrees with an oracle or a law."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# --- rank-2 lattices -------------------------------------------------------


def form2(gram, u, w) -> int:
    (a, b), (_, d) = gram
    return a * u[0] * w[0] + b * (u[0] * w[1] + u[1] * w[0]) + d * u[1] * w[1]


def box2(bound: int):
    """Every nonzero integer pair with sup-norm <= bound (any order)."""
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if x or y:
                yield (x, y)


def tss_oracle(gram, v, bound):
    """Criterion of the first totally-semistable witness in the box:
    an isotropic w with <v, w> = 1 anywhere in the box wins over an
    effective spherical s with <v, s> < 0.  With the reference function
    Z0 = i * (v_x, v_y), effectivity is the coordinate dot product
    v . s > 0."""
    if any(form2(gram, w, w) == 0 and form2(gram, v, w) == 1 for w in box2(bound)):
        return "isotropic-pairing-one"
    for s in box2(bound):
        if (form2(gram, s, s) == -2 and form2(gram, v, s) < 0
                and v[0] * s[0] + v[1] * s[1] > 0):
            return "effective-spherical"
    return None


def check_tss(gram, v, bound, detected, criterion, witness, searched_bound):
    where = f"gram={gram} v={v} bound={bound}"
    expected = tss_oracle(gram, v, bound)
    if expected is None:
        require(not detected, f"detected a wall the oracle rules out: {where}")
        require(searched_bound == bound, f"certificate bound {searched_bound}: {where}")
        return
    require(detected, f"missed a {expected} witness: {where}")
    require(criterion == expected, f"criterion {criterion}, oracle {expected}: {where}")
    w = tuple(witness)
    require(w != (0, 0) and max(map(abs, w)) <= bound, f"witness {w} outside box: {where}")
    if criterion == "isotropic-pairing-one":
        require(form2(gram, w, w) == 0 and form2(gram, v, w) == 1,
                f"witness {w} fails w^2=0, <v,w>=1: {where}")
    else:
        require(form2(gram, w, w) == -2 and form2(gram, v, w) < 0
                and v[0] * w[0] + v[1] * w[1] > 0,
                f"witness {w} fails s^2=-2, <v,s><0, effective: {where}")


def min_isotropic_norm(gram, bound):
    """Smallest sup-norm of a nonzero isotropic vector in the box, or None."""
    norms = [max(abs(w[0]), abs(w[1])) for w in box2(bound) if form2(gram, w, w) == 0]
    return min(norms) if norms else None


def check_isotropic(gram, bound, found):
    best = min_isotropic_norm(gram, bound)
    if found is None:
        require(best is None, f"missed isotropic vector of norm {best}: gram={gram}")
        return
    w = tuple(found)
    require(w != (0, 0) and form2(gram, w, w) == 0, f"{w} is not isotropic: gram={gram}")
    require(max(map(abs, w)) == best, f"{w} is not of minimal norm {best}: gram={gram}")


def signature2(gram):
    """(positive, negative, zero) eigenvalue counts of a symmetric 2x2."""
    (a, b), (_, d) = gram
    det, tr = a * d - b * b, a + d
    if det < 0:
        return (1, 1, 0)
    if det > 0:
        return (2, 0, 0) if tr > 0 else (0, 2, 0)
    if tr == 0:
        return (0, 0, 2)
    return (1, 0, 1) if tr > 0 else (0, 1, 1)


# --- exact row reduction ---------------------------------------------------


def rref(rows, ncols):
    """Reduced row-echelon basis (list of Fraction lists) of the span."""
    basis: list[list[Fraction]] = []
    pivots: list[int] = []
    for row in rows:
        w = [Fraction(x) for x in row]
        for b, p in zip(basis, pivots):
            if w[p]:
                c = w[p]
                w = [x - c * y for x, y in zip(w, b)]
        lead = next((j for j in range(ncols) if w[j]), None)
        if lead is None:
            continue
        w = [x / w[lead] for x in w]
        for k, b in enumerate(basis):
            if b[lead]:
                c = b[lead]
                basis[k] = [x - c * y for x, y in zip(b, w)]
        basis.append(w)
        pivots.append(lead)
    order = sorted(range(len(basis)), key=lambda k: pivots[k])
    return [basis[k] for k in order]


def in_span(basis, vec) -> bool:
    w = [Fraction(x) for x in vec]
    for b in basis:
        lead = next(j for j, x in enumerate(b) if x)
        if w[lead]:
            c = w[lead]
            w = [x - c * y for x, y in zip(w, b)]
    return not any(w)


def apply(mat, vec):
    return [sum((Fraction(a) * b for a, b in zip(row, vec)), Fraction(0)) for row in mat]


# --- double-quiver representations -----------------------------------------


def arrow_list(loops, arrows):
    """Canonical arrows as (source, target): loops first by vertex, then
    arrows between distinct vertices by endpoint pair, one per copy."""
    out = [(i, i) for i, g in enumerate(loops) for _ in range(g)]
    out += [(i, j) for i, j, m in arrows for _ in range(m)]
    return out


def is_invariant(rep, spans) -> bool:
    """Whether per-vertex bases ``spans`` are closed under every x_e, y_e."""
    bases = [rref(span, m) for span, m in zip(spans, rep["n"])]
    for (s, t), x, y in zip(arrow_list(rep["loops"], rep["arrows"]), rep["x"], rep["y"]):
        if rep["n"][s] == 0 or rep["n"][t] == 0:
            continue
        if not all(in_span(bases[t], apply(x, u)) for u in bases[s]):
            return False
        if not all(in_span(bases[s], apply(y, u)) for u in bases[t]):
            return False
    return True


def check_spans_shape(rep, spans, where):
    require(len(spans) == len(rep["n"]), f"witness over wrong vertex count: {where}")
    for span, m in zip(spans, rep["n"]):
        require(all(len(row) == m for row in span), f"witness row length: {where}")
        require(len(rref(span, m)) == len(span), f"witness basis is dependent: {where}")


def dot(theta, dims):
    return sum((Fraction(t) * d for t, d in zip(theta, dims)), Fraction(0))


def check_witness(rep, theta, spans, where):
    check_spans_shape(rep, spans, where)
    dims = [len(span) for span in spans]
    require(sum(dims) > 0, f"zero witness: {where}")
    require(is_invariant(rep, spans), f"witness is not a subrepresentation: {where}")
    require(dot(theta, dims) > 0, f"witness slope is not positive: {where}")


def check_filtration(rep, theta, steps, graded, where):
    n = rep["n"]
    prev_dims = [0] * len(n)
    prev = [[] for _ in n]
    diffs = []
    for spans in steps:
        check_spans_shape(rep, spans, where)
        require(is_invariant(rep, spans), f"filtration step is not invariant: {where}")
        dims = [len(span) for span in spans]
        require(sum(dims) > sum(prev_dims), f"filtration does not increase: {where}")
        for old, new, m in zip(prev, spans, n):
            basis = rref(new, m)
            require(all(in_span(basis, u) for u in old), f"filtration step shrinks: {where}")
        diffs.append(tuple(b - a for a, b in zip(prev_dims, dims)))
        prev_dims, prev = dims, spans
    require(tuple(prev_dims) == tuple(n), f"filtration does not reach n: {where}")
    require(tuple(map(tuple, graded)) == tuple(diffs), f"graded dims disagree: {where}")
    require(all(dot(theta, g) == 0 for g in diffs), f"graded piece of nonzero slope: {where}")


def grid_subspaces(dim):
    """Every subspace of Q^dim spanned by vectors with entries in {-1,0,1}."""
    vectors = [v for v in itertools.product((-1, 0, 1), repeat=dim) if any(v)]
    seen = {}
    for size in range(dim + 1):
        for combo in itertools.combinations(vectors, size):
            basis = rref(combo, dim)
            if len(basis) == size:
                seen.setdefault(tuple(map(tuple, basis)), basis)
    return list(seen.values())


def grid_destabilizer_exists(rep, theta) -> bool:
    """Exhaustive over grid-spanned subspace tuples: is one of them a
    subrepresentation of positive slope?"""
    for choice in itertools.product(*(grid_subspaces(m) for m in rep["n"])):
        dims = [len(b) for b in choice]
        if sum(dims) and dot(theta, dims) > 0 and is_invariant(rep, choice):
            return True
    return False


def moment_blocks(rep):
    """Blockwise sum of x_e y_e over arrows into a vertex minus y_e x_e
    over arrows out of it."""
    n = rep["n"]
    blocks = [[[Fraction(0)] * m for _ in range(m)] for m in n]

    def product(a, b, rows, inner, cols):
        return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
                 for j in range(cols)] for i in range(rows)]

    for (s, t), x, y in zip(arrow_list(rep["loops"], rep["arrows"]), rep["x"], rep["y"]):
        xy = product(x, y, n[t], n[s], n[t])
        yx = product(y, x, n[s], n[t], n[s])
        for i in range(n[t]):
            for j in range(n[t]):
                blocks[t][i][j] += xy[i][j]
        for i in range(n[s]):
            for j in range(n[s]):
                blocks[s][i][j] -= yx[i][j]
    return blocks


# --- quivers, roots and splittings -----------------------------------------


def form(gram, u, w) -> int:
    """The bilinear form <u, w> of an integer Gram matrix."""
    return sum(u[i] * gram[i][j] * w[j] for i in range(len(u)) for j in range(len(w)))


def lattice_square(gram, v) -> int:
    return form(gram, v, v)


def ext_quiver(gram, classes):
    """Loops (v^2+2)/2 and arrows <v_i, v_j> of a decomposition."""
    loops = tuple((form(gram, v, v) + 2) // 2 for v in classes)
    arrows = tuple(
        (i, j, form(gram, classes[i], classes[j]))
        for i in range(len(classes)) for j in range(i + 1, len(classes))
        if form(gram, classes[i], classes[j]) > 0
    )
    return loops, arrows


def qform(loops, arrows, alpha) -> int:
    value = sum((2 * g - 2) * a * a for g, a in zip(loops, alpha))
    return value + sum(2 * m * alpha[i] * alpha[j] for i, j, m in arrows)


def connected(arrows, support) -> bool:
    support = set(support)
    if not support:
        return False
    seen, todo = set(), [min(support)]
    while todo:
        cur = todo.pop()
        if cur in seen:
            continue
        seen.add(cur)
        for i, j, m in arrows:
            if not m:
                continue
            if i == cur and j in support:
                todo.append(j)
            elif j == cur and i in support:
                todo.append(i)
    return seen == support


def positive_roots(loops, arrows, n):
    """Nonzero alpha <= n with connected support and q(alpha) + 2 >= 0,
    in lexicographic order."""
    return [
        alpha for alpha in itertools.product(*(range(b + 1) for b in n))
        if any(alpha)
        and connected(arrows, [i for i, a in enumerate(alpha) if a])
        and qform(loops, arrows, alpha) + 2 >= 0
    ]


def simple_exists(loops, arrows, n) -> bool:
    """Crawley-Boevey's criterion by a bottom-up table: n must be a root
    and p(n) must beat every splitting into two or more roots, where
    p = (q + 2) / 2.  The table is filled in lexicographic order, so every
    remainder m - beta is final before m needs it."""
    n = tuple(n)
    roots = positive_roots(loops, arrows, n)
    if n not in roots:
        return False
    p = {a: (qform(loops, arrows, a) + 2) // 2 for a in roots}
    best = {}
    for m in itertools.product(*(range(b + 1) for b in n)):
        if not any(m):
            best[m] = 0
            continue
        top = None
        for beta in roots:
            if all(b <= x for b, x in zip(beta, m)):
                rest = best.get(tuple(x - b for x, b in zip(m, beta)))
                if rest is not None and (top is None or p[beta] + rest > top):
                    top = p[beta] + rest
        best[m] = top
    split = None
    for beta in roots:
        rest = tuple(x - b for x, b in zip(n, beta))
        if beta != n and any(rest) and best[rest] is not None:
            value = p[beta] + best[rest]
            split = value if split is None else max(split, value)
    return split is None or p[n] > split


def primitive(alpha):
    g = 0
    for a in alpha:
        g = gcd(g, abs(a))
    return tuple(a // g for a in alpha)


def sign(x) -> int:
    return (x > 0) - (x < 0)
