"""king_search: bounded King-stability searches on explicit representations.

Inputs: seeded random representations of the double quiver over a
fixed menu of eight quivers and dimension vectors (total dimension 2
to 6),
each with a seeded character theta orthogonal to n, searched with the
default ``SearchLimits``.  Every representation gets
``destabilizer_search``, ``jordan_holder_search``, ``moment_map`` and
``in_zero_fiber``.  The menu stops at dimension 6, with one quiver
there: one search at dimension 6 takes about 0.2 s and at dimension 7 or
8 0.3 to 1.3 s, and so few long calls cannot be timed steadily on a
shared machine.

Two kinds of input, in a fixed share (8 of 25):

* planted: every map preserves a coordinate subrepresentation whose
  slope under theta is positive, so a witness exists among the search's
  subset seeds and the search returns early;
* generic: dense random entries, so almost always no proper
  subrepresentation exists and the search exhausts every seed category
  before it returns a "not found" certificate.

Holding the menu and the share of each kind fixed keeps the cost of a
round steady across seeds; the seed draws the entries, theta and the
planted subspace.  Shapes of total dimension <= 3 use entries in
{-1, 0, 1}; there the verdict is also compared with an exhaustive grid
oracle.

Cold: ``rep destabilize`` on two of the small representations.
"""

from __future__ import annotations

import random
from fractions import Fraction

from harness import Op, cold_op, write_scenario
from oracles import (
    arrow_list, check_filtration, check_witness, dot, grid_destabilizer_exists,
    moment_blocks, require,
)

# (loops, arrows (i, j, multiplicity), dimension vector, kinds: True = planted)
MENU = (
    ((0, 0), ((0, 1, 1),), (1, 1), (True, False, False)),
    ((1, 0), ((0, 1, 1),), (2, 1), (False, True, False)),
    ((0, 0, 0), ((0, 1, 1), (1, 2, 1)), (1, 1, 1), (False, False, True)),
    ((0, 1), ((0, 1, 2),), (1, 2), (True, False, False)),
    ((1, 1), ((0, 1, 1),), (2, 2), (False, True, False, False)),
    ((0, 0), ((0, 1, 2),), (2, 2), (False, False, True, False)),
    ((1, 0, 0), ((0, 1, 1), (0, 2, 1)), (2, 1, 1), (True, False, False)),
    ((0, 0, 0), ((0, 1, 2), (1, 2, 1)), (2, 2, 2), (True, False)),
)
TINY = 3        # total dimension up to which the grid oracle runs
COLD = (0, 3)   # menu rows whose first representation also runs cold


def character(rng, n, planted):
    """theta with theta . n = 0; for planted dimensions m also theta . m > 0."""
    live = [i for i, x in enumerate(n) if x]
    while True:
        theta = [Fraction(rng.randint(-4, 4)) for _ in n]
        k = rng.choice(live)
        theta[k] = -sum(theta[i] * n[i] for i in range(len(n)) if i != k) / n[k]
        if not any(theta):
            continue
        if planted is None:
            return tuple(theta)
        value = dot(theta, planted)
        if value:
            return tuple(t if value > 0 else -t for t in theta)


def generate(rng, loops, arrows, n, planted):
    """A representation as plain data: entries, theta, planted dims."""
    bound = 1 if sum(n) <= TINY else 3
    m = None
    if planted:
        while True:
            m = tuple(rng.randint(0, x) for x in n)
            # proper, nonzero and not proportional to n (else theta . m = 0)
            if 0 < sum(m) < sum(n) and any(a * sum(n) != x * sum(m) for a, x in zip(m, n)):
                break

    def block(rows, cols, keep_rows, keep_cols):
        # with a planted m, rows >= keep_rows vanish on columns < keep_cols
        return tuple(
            tuple(Fraction(0) if m is not None and i >= keep_rows and j < keep_cols
                  else Fraction(rng.randint(-bound, bound)) for j in range(cols))
            for i in range(rows)
        )

    xs, ys = [], []
    for s, t in arrow_list(loops, arrows):
        ms, mt = (m[s], m[t]) if m else (0, 0)
        xs.append(block(n[t], n[s], mt, ms))
        ys.append(block(n[s], n[t], ms, mt))
    return {"loops": loops, "arrows": arrows, "n": n, "x": tuple(xs), "y": tuple(ys),
            "theta": character(rng, n, m), "planted": m}


def scenario_doc(data):
    text = lambda maps: [[[str(v) for v in row] for row in mat] for mat in maps]
    return {
        "lattice": {"gram": [[0]]},
        "quiver": {"loops": list(data["loops"]), "arrows": [list(a) for a in data["arrows"]]},
        "representations": {"R": {"n": list(data["n"]), "x": text(data["x"]),
                                  "y": text(data["y"])}},
        "characters": {"theta": [str(t) for t in data["theta"]]},
    }


def prepare(seed, workdir):
    rng = random.Random(seed)
    reps = [generate(rng, loops, arrows, n, planted)
            for loops, arrows, n, kinds in MENU for planted in kinds]
    for data in reps:
        data["blocks"] = moment_blocks(data)
    cold = []
    for row in COLD:
        data = reps[sum(len(kinds) for *_, kinds in MENU[:row])]
        cold.append((data, write_scenario(workdir, f"king-{row}", scenario_doc(data))))
    return reps, cold


def make(qm, prepared):
    reps, cold = prepared
    ops = []
    for data in reps:
        rep = qm.DoubleQuiverRep(qm.ExtQuiver(data["loops"], data["arrows"]), data["n"],
                                 data["x"], data["y"])
        ops += rep_ops(qm, data, rep)
    for data, path in cold:
        ops.append(cold_rep(qm, data, path))
    return ops


def rep_ops(qm, data, rep):
    theta, blocks = data["theta"], data["blocks"]
    where = f"n={data['n']} loops={data['loops']} arrows={data['arrows']}"

    def check_destabilizer(result):
        if result.found:
            check_witness(data, theta, result.witness.spans, where)
            dims = result.witness.dims()
            require(result.slope == dot(theta, dims) / sum(dims),
                    f"reported slope {result.slope}: {where}")
        else:
            require(data["planted"] is None, f"planted witness missed: {where}")
            require(result.certificate is not None, f"no certificate: {where}")
        if sum(data["n"]) <= TINY:
            require(result.found == grid_destabilizer_exists(data, theta),
                    f"verdict {result.found} disagrees with the grid oracle: {where}")

    def check_jh(result):
        if result.complete:
            check_filtration(data, theta, [w.spans for w in result.steps],
                             result.graded_dims, where)
        else:
            require(bool(result.reason), f"incomplete without reason: {where}")

    def check_moment(result):
        require([[list(row) for row in b] for b in result] == blocks,
                f"moment map blocks: {where}")
        require(sum(b[i][i] for b in blocks for i in range(len(b))) == 0,
                f"moment map traces do not sum to 0: {where}")

    def check_fiber(result):
        require(result == all(x == 0 for b in blocks for row in b for x in row),
                f"in_zero_fiber {result}: {where}")

    return [
        Op("warm", lambda: qm.destabilizer_search(rep, theta), check_destabilizer),
        Op("warm", lambda: qm.jordan_holder_search(rep, theta), check_jh),
        Op("warm", lambda: qm.moment_map(rep), check_moment),
        Op("warm", lambda: qm.in_zero_fiber(rep), check_fiber),
    ]


def cold_rep(qm, data, path):
    theta = data["theta"]
    where = f"cold rep destabilize n={data['n']}"

    def check(results):
        if results["found"]:
            spans = [[[Fraction(v) for v in row] for row in span] for span in results["witness"]]
            check_witness(data, theta, spans, where)
        else:
            require(data["planted"] is None, f"planted witness missed: {where}")

    return cold_op(qm, path, "rep destabilize", {"rep": "R", "theta": "theta"}, check)
