"""tss_wall_sweep: totally-semistable wall detection over a rank-2 grid.

Inputs: the grid of every rank-2 Gram matrix with entries in [-3, 3]
and negative determinant (256 lattices) and every class in [-3, 3]^2 of
positive square (5728 pairs in all).  A round holds, per lattice, one
seeded class at the default box bound 6; 40 seeded pairs at bound 12
and 4 at bound 24, each chosen among pairs with no witness in that box,
so the larger bounds are full scans that separate per-cell cost from
per-call cost (and the 90th percentile falls among the bound-12 scans); and 32 seeded Gram matrices from the whole cube [-3, 3]^3
for ``find_isotropic`` (bound 6) and ``signature``.  Each detection
builds its ``HyperbolicPair`` and reference function, then calls
``detect_totally_semistable``.  About a fifth of the bound-6 calls
return an early witness; the rest scan the whole box and certify it.

Cold: ``wall classify-tss`` on two seeded pairs.
"""

from __future__ import annotations

import itertools
import random

from harness import Op, cold_op, write_scenario
from oracles import check_isotropic, check_tss, form2, require, signature2, tss_oracle

BOUND = 6
LARGE = {12: 40, 24: 4}     # full-box detections per round, by bound
LATTICE_OPS = 32            # Gram matrices with find_isotropic + signature
COLD = 2


def prepare(seed, workdir):
    rng = random.Random(seed)
    grid = {}
    for a, b, d in itertools.product(range(-3, 4), repeat=3):
        gram = ((a, b), (b, d))
        if a * d - b * b < 0:
            grid[gram] = [v for v in itertools.product(range(-3, 4), repeat=2)
                          if form2(gram, v, v) > 0]
    detect = [(gram, rng.choice(classes), BOUND) for gram, classes in grid.items()]
    pairs = [(gram, v) for gram, classes in grid.items() for v in classes]
    for bound, count in LARGE.items():
        chosen = 0
        while chosen < count:
            gram, v = rng.choice(pairs)
            if tss_oracle(gram, v, bound) is None:
                detect.append((gram, v, bound))
                chosen += 1
    cube = [((a, b), (b, d)) for a, b, d in itertools.product(range(-3, 4), repeat=3)]
    lattices = rng.sample(cube, LATTICE_OPS)
    cold = []
    for k, (gram, v) in enumerate(rng.sample(pairs, COLD)):
        doc = {
            "lattice": {"gram": [list(row) for row in gram]},
            "vectors": {"v": list(v)},
            "stability": {"Z0": [{"re": "0", "im": str(v[0])}, {"re": "0", "im": str(v[1])}]},
        }
        cold.append((gram, v, write_scenario(workdir, f"tss-{k}", doc)))
    return detect, lattices, cold


def make(qm, prepared):
    detect, lattices, cold = prepared
    G = qm.GaussianRational

    def detect_op(gram, v, bound):
        def call():
            lat = qm.GramLattice(gram)
            pair = qm.HyperbolicPair(lat, lat.vector(v))
            z0 = qm.StabilityFunction(lat, (G.of(0, v[0]), G.of(0, v[1])))
            return qm.detect_totally_semistable(pair, z0, bound)

        def check(result):
            witness = result.witness
            check_tss(gram, v, bound, result.detected,
                      witness.criterion if witness else None,
                      witness.witness.coords if witness else None, result.searched_bound)

        return Op("warm", call, check)

    def lattice_ops(gram):
        def check_signature(sig):
            require(tuple(sig) == signature2(gram), f"signature {sig} of {gram}")

        return [
            Op("warm", lambda: qm.find_isotropic(qm.GramLattice(gram), BOUND),
               lambda found: check_isotropic(gram, BOUND, found.coords if found else None)),
            Op("warm", lambda: qm.signature(qm.GramLattice(gram)), check_signature),
        ]

    def cold_tss(gram, v, path):
        def check(results):
            check_tss(gram, v, BOUND, results["detected"], results.get("criterion"),
                      results.get("witness"), results.get("searched_bound"))

        return cold_op(qm, path, "wall classify-tss", {"v": "v"}, check,
                       overrides={"bound": BOUND})

    ops = [detect_op(*case) for case in detect]
    for gram in lattices:
        ops += lattice_ops(gram)
    return ops + [cold_tss(*case) for case in cold]
