"""cb_roots: positive roots, Crawley-Boevey splittings, walls and chambers.

Inputs, part (a): 96 seeded random polystable decompositions over a
fixed list of even lattices (coordinates in [-3, 3]), eight for each of
twelve fixed multiplicity vectors of 1 to 4 summands, so every seed
scans the same root boxes; each comes with its ext-quiver and two
seeded stability functions on the slice.  Every decomposition gets four
operations: ``enumerate_positive_roots`` with ``quadratic_form``,
``simple_rep_exists``, ``enumerate_walls`` with ``locate_chamber``, and
``degree_vector`` / ``to_character`` with ``wall_correspondence_holds``
on every wall.  Their boxes are small, so this part is mostly per-call
cost.

Part (b), the same for every seed: the two-vertex quiver with one loop
at each vertex and one edge at n = (8, 8), (12, 12) and (16, 16), whose
cost is the memoised splitting table (about the square of the box), and
its walls at (16, 16); single vertices with 0, 1 and 3 loops; two
vertices with 0 to 3 edges at n = (1, 1).  The boxes stop at (16, 16):
one call takes 0.4 s at (20, 20) and 1.3 to 1.8 s at (30, 30), and
calls that long cannot be timed steadily on a shared machine.

Each round also runs the known-fault probe: ``simple_rep_exists`` on a
single vertex with one loop at n just above the interpreter's recursion
limit.  The recursive splitting table raises ``RecursionError`` there;
the probe counts as attempted and failed and stays out of the timing
metrics.  Its oracle (one loop, n > 1) expects ``exists = False``.

Cold: ``quiver simple-exists`` and ``walls enumerate`` on one seeded
decomposition each.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

from harness import Op, cold_op, write_scenario
from oracles import (
    ext_quiver, form, lattice_square, positive_roots, primitive, qform, require, sign,
    simple_exists,
)

EVEN_GRAMS = (
    ((0, 1), (1, 0)),
    ((-2, 0), (0, 2)),
    ((2, 1), (1, -2)),
    ((0, 1, 0), (1, 0, 0), (0, 0, -2)),
    ((0, 0, 1), (0, 2, 0), (1, 0, 0)),
    ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
)
# multiplicity vectors of part (a); each is used PER_SHAPE times
SHAPES = ((1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 2), (1, 1, 1), (2, 1, 1),
          (2, 2, 1), (1, 1, 1, 1), (2, 1, 1, 1))
PER_SHAPE = 8
LOOP_EDGE = ((1, 1), ((0, 1, 1),))
# (loops, arrows, n, closed-form verdict or None for the table oracle)
EDGE_N = (16, 16)   # where the walls of the loop-edge quiver are enumerated
LARGE = (
    LOOP_EDGE + ((8, 8), None),
    LOOP_EDGE + ((12, 12), None),
    LOOP_EDGE + (EDGE_N, None),
    # single vertex: <= 1 loop has a simple representation only at n = 1,
    # >= 2 loops at every n
    ((0,), (), (1,), True),
    ((0,), (), (40,), False),
    ((1,), (), (1,), True),
    ((1,), (), (100,), False),
    ((3,), (), (100,), True),
    # two vertices with c edges: a simple representation at (1, 1)
    # exactly when c >= 2
    ((0, 0), ((0, 1, 0),), (1, 1), False),
    ((1, 0), ((0, 1, 1),), (1, 1), False),
    ((0, 2), ((0, 1, 2),), (1, 1), True),
    ((1, 1), ((0, 1, 3),), (1, 1), True),
)


def random_decomposition(rng, mults):
    """Classes for the multiplicities ``mults`` meeting the stable-summand
    invariants (even squares >= -2, distinct classes pairing >= 0), with
    nonzero total."""
    while True:
        gram = rng.choice(EVEN_GRAMS)
        rank = len(gram)
        classes = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in mults]
        if (len(set(classes)) < len(classes) or not all(any(v) for v in classes)
                or any(form(gram, v, v) < -2 for v in classes)
                or any(form(gram, u, w) < 0 for k, u in enumerate(classes) for w in classes[k + 1:])):
            continue
        total = tuple(sum(m * v[i] for v, m in zip(classes, mults)) for i in range(rank))
        if any(total):
            return gram, tuple(classes), tuple(mults), total


def slice_values(rng, total):
    """Basis values (re, im) of a stability function with Re Z(total) = 0."""
    values = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
               Fraction(rng.randint(-3, 3), rng.randint(1, 3))] for _ in total]
    k = next(i for i, t in enumerate(total) if t)
    values[k][0] = -sum(values[i][0] * total[i] for i in range(len(total)) if i != k) / total[k]
    return values


def decomposition_doc(gram, classes, mults):
    names = [f"e{k}" for k in range(len(classes))]
    return {
        "lattice": {"gram": [list(row) for row in gram], "even": True},
        "vectors": {name: list(v) for name, v in zip(names, classes)},
        "decomposition": [{"vector": name, "multiplicity": m} for name, m in zip(names, mults)],
    }


def prepare(seed, workdir):
    rng = random.Random(seed)
    decs = []
    for index, shape in enumerate(SHAPES * PER_SHAPE):
        gram, classes, mults, total = random_decomposition(rng, shape)
        loops, arrows = ext_quiver(gram, classes)
        roots = positive_roots(loops, arrows, mults)
        values = [slice_values(rng, total) for _ in range(2)]
        decs.append({
            "index": index, "gram": gram, "classes": classes, "n": mults, "total": total,
            "loops": loops, "arrows": arrows, "roots": roots,
            "walls": sorted({primitive(a) for a in roots}),
            "simple": simple_exists(loops, arrows, mults), "values": values,
            # with Z0(v) = i the degree of v_i is -Re Z(v_i)
            "theta": tuple(-sum(c * re for c, (re, _) in zip(v, values[0])) for v in classes),
        })
    large = [(loops, arrows, n, simple_exists(loops, arrows, n) if want is None else want)
             for loops, arrows, n, want in LARGE]
    cold = []
    for d, command in zip(rng.sample(decs, 2), ("quiver simple-exists", "walls enumerate")):
        doc = decomposition_doc(d["gram"], d["classes"], d["n"])
        cold.append((d, command, write_scenario(workdir, f"cb-{d['index']}", doc)))
    edge_walls = sorted({primitive(a) for a in positive_roots(*LOOP_EDGE, EDGE_N)})
    return decs, large, edge_walls, cold


def make(qm, prepared):
    decs, large, edge_walls, cold = prepared
    ops = []
    for d in decs:
        ops += small_ops(qm, d)
    for loops, arrows, n, want in large:
        ops.append(simple_op(qm, loops, arrows, n, want))
    ops.append(edge_walls_op(qm, edge_walls))
    ops.append(probe(qm))
    for d, command, path in cold:
        ops.append(cold_dec(qm, d, command, path))
    return ops


def small_ops(qm, d):
    lat = qm.GramLattice(d["gram"], even=True)
    dec = qm.PolystableDecomposition.of(
        (lat.vector(v), m) for v, m in zip(d["classes"], d["n"]))
    quiver = qm.build_ext_quiver(dec)
    G = qm.GaussianRational
    samples = [qm.StabilityFunction(lat, tuple(G.of(re, im) for re, im in vals))
               for vals in d["values"]]
    i = G.of(0, 1)
    n, theta, walls = d["n"], d["theta"], d["walls"]
    where = f"decomposition {d['index']}: classes={d['classes']} n={n}"

    def check_roots(result):
        found, q = result
        require((quiver.loops, quiver.arrows) == (d["loops"], d["arrows"]),
                f"ext-quiver disagrees: {where}")
        require(list(found) == d["roots"], f"roots disagree with enumeration: {where}")
        require(q == lattice_square(d["gram"], d["total"]) == qform(d["loops"], d["arrows"], n),
                f"quadratic form {q} is not the square of the total: {where}")

    def check_simple(result):
        require(result.exists == d["simple"],
                f"simple_rep_exists {result.exists} disagrees with the table: {where}")

    def walls_call():
        found = qm.enumerate_walls(quiver, n)
        return found, qm.locate_chamber(qm.CharacterPoint(theta, n), found)

    def check_walls(result):
        found, chamber = result
        check_wall_list(found, walls, n, where)
        require(list(chamber.signs) == [sign(sum(t * a for t, a in zip(theta, w.alpha)))
                                        for w in found], f"chamber signs: {where}")

    def character_call():
        z = samples[0]
        return (qm.degree_vector(z, i, dec), qm.to_character(z, i, dec),
                [qm.wall_correspondence_holds(a, samples, i, dec) for a in walls])

    def check_character(result):
        degrees, point, holds = result
        require(tuple(degrees) == theta and tuple(point.theta) == theta,
                f"degree vector {degrees} is not -Re Z(v_i) = {theta}: {where}")
        require(tuple(point.n) == n, f"character point n: {where}")
        require(all(holds), f"wall correspondence fails: {where}")

    return [
        Op("warm", lambda: (qm.enumerate_positive_roots(quiver, n), qm.quadratic_form(quiver, n)),
           check_roots),
        Op("warm", lambda: qm.simple_rep_exists(quiver, n), check_simple),
        Op("warm", walls_call, check_walls),
        Op("warm", character_call, check_character),
    ]


def simple_op(qm, loops, arrows, n, want):
    quiver = qm.ExtQuiver(loops, arrows)

    def check(result):
        require(result.exists == want,
                f"simple_rep_exists {result.exists} at n={n}, loops={loops}, arrows={arrows}")

    return Op("warm", lambda: qm.simple_rep_exists(quiver, n), check)


def edge_walls_op(qm, walls):
    quiver = qm.ExtQuiver(*LOOP_EDGE)
    n = EDGE_N

    def call():
        found = qm.enumerate_walls(quiver, n)
        return found, qm.locate_chamber(qm.CharacterPoint((1, -1), n), found)

    def check(result):
        found, chamber = result
        check_wall_list(found, walls, n, f"loop-edge quiver at {n}")
        require(list(chamber.signs) == [sign(w.alpha[0] - w.alpha[1]) for w in found],
                f"chamber signs at {n}")

    return Op("warm", call, check)


def probe(qm):
    quiver = qm.ExtQuiver((1,), ())
    n = (sys.getrecursionlimit() + 1,)

    def check(result):
        require(result.exists is False, f"probe at n={n} expected exists=False")

    return Op("probe", lambda: qm.simple_rep_exists(quiver, n), check)


def cold_dec(qm, d, command, path):
    where = f"cold {command} on decomposition {d['index']}"

    def check(results):
        if command == "quiver simple-exists":
            require(results["exists"] == d["simple"], f"exists {results['exists']}: {where}")
        else:
            got = [tuple(w["alpha"]) for w in results["walls"]]
            require(got == d["walls"], f"walls {got} != {d['walls']}: {where}")

    return cold_op(qm, path, command, {}, check)


def check_wall_list(found, walls, n, where):
    alphas = [tuple(w.alpha) for w in found]
    require(alphas == walls, f"walls {alphas} are not the primitive roots {walls}: {where}")
    for w in found:
        require(primitive(w.alpha) == tuple(w.alpha), f"wall {w.alpha} not primitive: {where}")
        flat = all(w.alpha[i] * n[j] == w.alpha[j] * n[i]
                   for i in range(len(n)) for j in range(i + 1, len(n)))
        require(w.degenerate == flat, f"wall {w.alpha} degenerate flag: {where}")
