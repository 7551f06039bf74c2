"""cli_scenarios: the scenario and CLI layers, cold and warm.

Inputs: the 32 commands on ``scenarios/tree_wall.json``, plus five
commands (``stratum analyze``, ``stratum simple-bridge``, ``quiver
simple-exists``, ``quiver roots``, ``walls enumerate``) on each of 28
generated scenarios: 14 seeded random decompositions of positive total
square, two for each of seven fixed multiplicity vectors, and 14 seeded
tree-shaped wall decompositions of 2 to 5 summands (one positive class w
and spheres, pairing 1 along the edges of a random tree).  That is 172
warm operations, each one ``load_scenario`` + ``run_command`` +
``Report.as_json`` in process.

Cold: four seeded cases, two tree_wall commands and two commands on
generated scenarios, also run as ``python -m quivermoduli``
subprocesses; their results must equal the warm ones.  Import, load,
digest and encode carry the cost here; the handlers take well under a
millisecond.
"""

from __future__ import annotations

import json
import random

from harness import ROOT, Op, check_report, cold_op, run_warm, write_scenario
from oracles import (
    ext_quiver, form, lattice_square, positive_roots, primitive, require, simple_exists,
)
from workloads.cb_roots import decomposition_doc, random_decomposition

TREE_WALL = ROOT / "scenarios" / "tree_wall.json"
TREE_WALL_CASES = {
    "lattice pair": {"a": "w", "b": "s"},
    "lattice square": {"v": "v"},
    "lattice classify": {"v": "v"},
    "lattice signature": {},
    "lattice isotropic": {},
    "quiver build": {},
    "quiver dim": {},
    "quiver roots": {},
    "quiver simple-exists": {},
    "quiver merge-check": {"a": "w", "b": "s"},
    "rep moment-map": {"rep": "R"},
    "rep check-fiber": {"rep": "R"},
    "rep destabilize": {"rep": "R", "theta": "theta"},
    "rep jh": {"rep": "R", "theta": "theta"},
    "stability normalize": {"z": "Z0", "v": "v"},
    "stability phase": {"z": "Z0", "v": "v"},
    "stability slope": {"z": "Z", "v": "w"},
    "stability weight": {"z": "Z0", "filtration": "F"},
    "stability theta-unstable": {"z": "Z0", "v": "v", "classes": "w,s"},
    "stability chi-sigma": {"z": "Z"},
    "stability classical-weight": {"terms": "[[1,[0,1]],[-1,[0,1]]]", "ell": "5"},
    "stability kclass": {"filtration": "F"},
    "walls enumerate": {},
    "walls locate": {"theta": "theta"},
    "walls xi": {"z": "Z"},
    "walls gamma": {"z": "Z"},
    "walls slice-check": {"z": "Z"},
    "walls correspondence": {"alpha": "1,0", "samples": "Z"},
    "wall classify-tss": {"v": "v"},
    "stratum analyze": {},
    "stratum product-shape": {},
    "stratum simple-bridge": {},
}
GENERATED_COMMANDS = (
    "stratum analyze", "stratum simple-bridge", "quiver simple-exists", "quiver roots",
    "walls enumerate",
)
RANDOM_SHAPES = ((1,), (2,), (1, 1), (2, 1), (1, 1, 1), (2, 1, 1), (1, 1, 1, 1))
TREE_SIZES = (2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5)
COLD_TREE_WALL = 2
COLD_GENERATED = 2


def tree_decomposition(rng, size):
    """Gram matrix of w (square 2, 4 or 6) and size - 1 spheres, pairing 1
    along the edges of a random tree; the classes are the basis."""
    gram = [[0] * size for _ in range(size)]
    gram[0][0] = 2 * rng.randint(1, 3)
    for j in range(1, size):
        gram[j][j] = -2
        parent = rng.randrange(j)
        gram[parent][j] = gram[j][parent] = 1
    order = list(range(size))
    rng.shuffle(order)   # the positive class need not come first
    gram = tuple(tuple(gram[a][b] for b in order) for a in order)
    classes = tuple(tuple(int(i == k) for i in range(size)) for k in range(size))
    return gram, classes, (1,) * size


class Case:
    """One command on one scenario, with what its results must satisfy."""

    def __init__(self, name, path, command, args, gram, classes, mults, tree):
        self.name, self.path, self.command, self.args = name, path, command, args
        self.gram, self.classes, self.n, self.tree = gram, classes, mults, tree

    def check(self, results):
        where = f"{self.command} on {self.name}"
        loops, arrows = ext_quiver(self.gram, self.classes)
        if self.command == "stratum analyze":
            verdict = results["verdict"]
            total = tuple(sum(m * v[i] for v, m in zip(self.classes, self.n))
                          for i in range(len(self.gram)))
            if verdict["kind"] == "totally_semistable_shape" and verdict["leaf"] is not None:
                require(form(self.gram, total, verdict["leaf"]) == -1,
                        f"leaf {verdict['leaf']} does not pair to -1 with the total: {where}")
            if verdict["kind"] == "has_stable_deformation" and verdict["via"] == "merge":
                i, j = verdict["summands"]
                require(form(self.gram, self.classes[i], self.classes[j]) >= 2,
                        f"merge pair pairs below 2: {where}")
            if self.tree:
                require(verdict["kind"] == "totally_semistable_shape",
                        f"tree-shaped input gave {verdict['kind']}: {where}")
        elif self.command in ("quiver simple-exists", "stratum simple-bridge"):
            key = "exists" if self.command == "quiver simple-exists" else "stable_deformation"
            require(results[key] == simple_exists(loops, arrows, self.n), f"{key}: {where}")
        elif self.command == "quiver roots":
            require([tuple(a) for a in results["roots"]] == positive_roots(loops, arrows, self.n),
                    f"roots: {where}")
        elif self.command == "walls enumerate":
            walls = sorted({primitive(a) for a in positive_roots(loops, arrows, self.n)})
            require([tuple(w["alpha"]) for w in results["walls"]] == walls, f"walls: {where}")

    def check_text(self, text):
        doc = json.loads(text)
        check_report(doc, self.name)
        require(doc["command"] == self.command, f"command echo: {self.name}")
        self.check(doc["results"])


def prepare(seed, workdir):
    rng = random.Random(seed)
    tree_wall = json.loads(TREE_WALL.read_text())
    names = [entry["vector"] for entry in tree_wall["decomposition"]]
    gram = tuple(map(tuple, tree_wall["lattice"]["gram"]))
    classes = tuple(tuple(tree_wall["vectors"][name]) for name in names)
    mults = tuple(entry["multiplicity"] for entry in tree_wall["decomposition"])
    cases = [Case("tree_wall", TREE_WALL, command, args, gram, classes, mults, True)
             for command, args in TREE_WALL_CASES.items()]
    inputs = []
    for shape in RANDOM_SHAPES * 2:
        while True:
            gram, classes, mults, total = random_decomposition(rng, shape)
            if lattice_square(gram, total) > 0:
                break
        inputs.append((gram, classes, mults, False))
    inputs += [tree_decomposition(rng, size) + (True,) for size in TREE_SIZES]
    for k, (gram, classes, mults, tree) in enumerate(inputs):
        name = f"{'tree' if tree else 'random'}-{k}"
        path = write_scenario(workdir, name, decomposition_doc(gram, classes, mults))
        cases += [Case(name, path, command, {}, gram, classes, mults, tree)
                  for command in GENERATED_COMMANDS]
    cold = (rng.sample(cases[:len(TREE_WALL_CASES)], COLD_TREE_WALL)
            + rng.sample(cases[len(TREE_WALL_CASES):], COLD_GENERATED))
    return cases, cold


def make(qm, prepared):
    cases, cold = prepared
    digest = lambda text: json.loads(text)["results_digest"]
    ops = [Op("warm", lambda c=c: run_warm(qm, c.path, c.command, c.args), c.check_text,
              fingerprint=digest) for c in cases]
    return ops + [cold_op(qm, c.path, c.command, c.args, c.check) for c in cold]
