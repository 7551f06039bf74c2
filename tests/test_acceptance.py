"""Acceptance suite: one test per criterion, each printed as a single
pass/fail line with its runtime.  All comparisons are exact (tolerance
zero); the stated time limits are asserted as hard bounds."""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction as Q

from quivermoduli import (
    DoubleQuiverRep,
    ExtQuiver,
    GramLattice,
    HyperbolicPair,
    PolystableDecomposition,
    StabilityFunction,
    analyze_stratum,
    build_ext_quiver,
    character_exponents,
    destabilizer_search,
    detect_totally_semistable,
    moment_map,
    pairing,
    pairwise_merge_check,
    quadratic_form,
    signature,
    simple_rep_exists,
    square,
    theta_slope,
    theta_unstable,
    to_character,
    verify_subrep,
)
from quivermoduli import linalg
from quivermoduli.cli import COMMANDS, _verdict_obj, run_command
from quivermoduli.errors import LatticeMismatchError
from quivermoduli.scenario import load_scenario
from quivermoduli.stability import GaussianRational as G
from quivermoduli.stability import I, WeightedFiltration, filtration_weight

from genutil import inverse, random_decomposition, random_gaussian, random_rep
from test_scenario_cli import base_doc


class Criterion:
    """Context manager printing one pass/fail line per criterion."""

    def __init__(self, number: int, label: str, limit_seconds: float):
        self.number = number
        self.label = label
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number}] {status} {self.label} "
              f"({elapsed:.2f}s, limit {self.limit:.0f}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s limit"
            )
        return False


def test_criterion_1_dimension_agreement():
    with Criterion(1, "quiver form equals lattice square on 500 decompositions", 5.0):
        rng = random.Random(2024)
        for _ in range(500):
            dec = random_decomposition(
                rng, max_summands=4, entry_bound=6, max_mult=3
            )
            q = build_ext_quiver(dec)
            assert quadratic_form(q, dec.multiplicities) == square(dec.total())


def _brute_force_unstable(z, total, classes, window=(-2, 3), max_chain=3):
    """Oracle for criterion 2: does any weighted filtration drawn from
    chains over the declared classes have positive weight?"""
    lo, hi = window
    for k in range(1, min(len(classes), max_chain) + 1):
        for chain in itertools.permutations(classes, k):
            for weights in itertools.combinations(range(hi, lo - 1, -1), k + 1):
                steps = []
                prev = None
                for w, cls in zip(weights, list(chain) + [total]):
                    steps.append((w, cls if prev is None else cls - prev))
                    prev = cls
                if filtration_weight(z, WeightedFiltration(tuple(steps))) > 0:
                    return True
    return False


def test_criterion_2_instability_equivalence():
    with Criterion(2, "declared-subobject instability equals filtration oracle", 30.0):
        rng = random.Random(2025)
        lat = GramLattice(((2, 0, 0), (0, 2, 0), (0, 0, 2)), even=True)
        total = lat.vector((1, 1, 1))
        for _ in range(200):
            values = [random_gaussian(rng) for _ in range(3)]
            # pin Z(total) = i exactly through the last coordinate
            values[2] = G.of(
                -(values[0].re + values[1].re),
                Q(1) - (values[0].im + values[1].im),
            )
            z = StabilityFunction(lat, tuple(values))
            assert z(total) == I
            count = rng.randint(1, 5)
            classes = [
                lat.vector([rng.randint(-2, 2) for _ in range(3)])
                for _ in range(count)
            ]
            verdict = theta_unstable(z, total, classes)
            oracle = _brute_force_unstable(z, total, classes)
            assert verdict.unstable == oracle
            if verdict.unstable:
                assert filtration_weight(z, verdict.witness) == verdict.weight > 0


def _random_invertible(rng, m):
    if m == 0:
        return ()
    while True:
        g = tuple(tuple(Q(rng.randint(-2, 2)) for _ in range(m)) for _ in range(m))
        try:
            inverse(g)
            return g
        except Exception:
            continue


def _act(rep, gs):
    xs, ys = [], []
    for arrow, x, y in zip(rep.arrows, rep.x_maps, rep.y_maps):
        gs_, gt = gs[arrow.source], gs[arrow.target]
        inv_s = inverse(gs_) if rep.n[arrow.source] else ()
        inv_t = inverse(gt) if rep.n[arrow.target] else ()
        if rep.n[arrow.source] and rep.n[arrow.target]:
            xs.append(linalg.matmul(linalg.matmul(gt, x), inv_s))
            ys.append(linalg.matmul(linalg.matmul(gs_, y), inv_t))
        else:
            xs.append(x)
            ys.append(y)
    return DoubleQuiverRep(rep.quiver, rep.n, tuple(xs), tuple(ys))


def test_criterion_3_moment_map_laws():
    with Criterion(3, "trace-zero and equivariance on 500 representations", 10.0):
        rng = random.Random(2026)
        for _ in range(500):
            rep = random_rep(rng, max_total_dim=8)
            blocks = moment_map(rep)
            assert sum((linalg.trace(b) for b in blocks), Q(0)) == 0
            gs = [_random_invertible(rng, m) for m in rep.n]
            moved = moment_map(_act(rep, gs))
            for g, old, new in zip(gs, blocks, moved):
                if not g:
                    continue
                assert new == linalg.matmul(
                    linalg.matmul(g, old), inverse(g)
                )


# --- criterion 4: oracle machinery -----------------------------------------


def _grid_directions(dim):
    out = []
    seen = set()
    for cand in itertools.product((-1, 0, 1), repeat=dim):
        if not any(cand):
            continue
        lead = next(c for c in cand if c)
        if lead < 0:
            cand = tuple(-c for c in cand)
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    return out


def _reduce_rows(rows):
    """Row-reduce a small list of rational tuples (test-local)."""
    rows = [list(map(Q, r)) for r in rows]
    basis = []
    for row in rows:
        for b in basis:
            piv = next(i for i, x in enumerate(b) if x != 0)
            if row[piv] != 0:
                c = row[piv] / b[piv]
                row = [x - c * y for x, y in zip(row, b)]
        if any(row):
            basis.append(row)
    return basis


def _member(basis, vec):
    vec = list(map(Q, vec))
    for b in basis:
        piv = next(i for i, x in enumerate(b) if x != 0)
        if vec[piv] != 0:
            c = vec[piv] / b[piv]
            vec = [x - c * y for x, y in zip(vec, b)]
    return not any(vec)


def _grid_subspaces(dim):
    if dim == 0:
        return [()]
    dirs = _grid_directions(dim)
    seen = {}
    for size in range(dim + 1):
        for combo in itertools.combinations(dirs, size):
            basis = _reduce_rows(combo)
            if len(basis) != size:
                continue
            key = tuple(tuple(x) for x in basis)
            seen.setdefault(key, key)
    return list(seen.values())


def _oracle_positive_subrep_exists(rep, theta):
    """Exhaustive: is there a grid-spanned invariant subspace tuple of
    positive slope?  Independent of the closure-driven search."""
    per_vertex = [_grid_subspaces(m) for m in rep.n]
    for choice in itertools.product(*per_vertex):
        dims = tuple(len(b) for b in choice)
        if sum(dims) == 0:
            continue
        if sum(t * d for t, d in zip(theta, dims)) <= 0:
            continue
        ok = True
        for arrow, x, y in zip(rep.arrows, rep.x_maps, rep.y_maps):
            for vec in choice[arrow.source]:
                if not _member(list(choice[arrow.target]), linalg.matvec(x, vec)):
                    ok = False
                    break
            if not ok:
                break
            for vec in choice[arrow.target]:
                if not _member(list(choice[arrow.source]), linalg.matvec(y, vec)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def test_criterion_4_king_witness_soundness_and_tiny_oracle():
    with Criterion(4, "witness soundness and tiny-grid oracle agreement", 60.0):
        rng = random.Random(2027)
        instances = 0
        returned_witnesses = 0
        while instances < 50:
            s = rng.randint(2, 3)
            loops = tuple(rng.randint(0, 1) for _ in range(s))
            arrows = []
            for i in range(s):
                for j in range(i + 1, s):
                    m = rng.randint(0, 2)
                    if m:
                        arrows.append((i, j, m))
            quiver = ExtQuiver(loops, tuple(arrows))
            n = tuple(rng.randint(0, 2) for _ in range(s))
            if not (0 < sum(n) <= 3):
                continue
            live = [i for i in range(s) if n[i]]
            if len(live) < 2:
                continue
            i, j = live[0], live[1]
            theta = [0] * s
            theta[i], theta[j] = n[j], -n[i]
            if rng.random() < 0.5:
                theta = [-t for t in theta]
            rep = DoubleQuiverRep(
                quiver, tuple(n),
                tuple(
                    tuple(tuple(Q(rng.randint(-1, 1)) for _ in range(n[a.source]))
                          for _ in range(n[a.target]))
                    for a in quiver.arrow_list()
                ),
                tuple(
                    tuple(tuple(Q(rng.randint(-1, 1)) for _ in range(n[a.target]))
                          for _ in range(n[a.source]))
                    for a in quiver.arrow_list()
                ),
            )
            instances += 1
            result = destabilizer_search(rep, theta)
            oracle = _oracle_positive_subrep_exists(rep, theta)
            if result.found:
                returned_witnesses += 1
                check = verify_subrep(rep, result.witness)
                assert check.valid
                assert theta_slope(theta, check.dims) > 0
                assert oracle, "search found a witness the oracle missed"
            else:
                assert not oracle, "oracle found a witness the search missed"
        assert instances == 50
        assert returned_witnesses > 0


def test_criterion_5_crawley_boevey_cross_check():
    with Criterion(5, "two-vertex simple existence equals the merge threshold", 1.0):
        for s1, s2, c in itertools.product((-2, 0, 2), (-2, 0, 2), (0, 1, 2, 3)):
            lat = GramLattice(((s1, c), (c, s2)), even=True)
            v1, v2 = lat.vector((1, 0)), lat.vector((0, 1))
            dec = PolystableDecomposition.of([(v1, 1), (v2, 1)])
            quiver = build_ext_quiver(dec)
            exists = simple_rep_exists(quiver, (1, 1)).exists
            assert exists == (c >= 2)
            assert pairwise_merge_check(v1, v2) == (c >= 2)


def test_criterion_6_character_identity():
    with Criterion(6, "determinant-character exponents equal slice characters", 5.0):
        rng = random.Random(2028)
        done = 0
        while done < 200:
            dec = random_decomposition(rng, max_summands=3, entry_bound=3)
            lat = dec.lattice
            total = dec.total()
            k = next(
                (i for i, c in enumerate(total.coords) if c in (1, -1)), None
            )
            if k is None:
                continue
            values = [random_gaussian(rng) for _ in range(lat.rank)]
            rest = sum(
                values[j].re * total.coords[j] for j in range(lat.rank) if j != k
            )
            values[k] = G.of(Q(-rest, total.coords[k]), values[k].im)
            z = StabilityFunction(lat, tuple(values))
            assert z(total).re == 0
            theta = to_character(z, I, dec)
            assert theta.theta == character_exponents(z, dec)
            done += 1


def _oracle_tss(gram, v, bound):
    """Independent box search with raw integer arithmetic."""
    (a, b), (_, d) = gram
    vx, vy = v

    def form(x1, y1, x2, y2):
        return a * x1 * x2 + b * (x1 * y2 + y1 * x2) + d * y1 * y2

    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if (x or y) and form(x, y, x, y) == 0 and form(vx, vy, x, y) == 1:
                return "isotropic-pairing-one"
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if (
                (x or y)
                and form(x, y, x, y) == -2
                and form(vx, vy, x, y) < 0
                and vx * x + vy * y > 0  # fixed effectivity: dot(v, s) > 0
            ):
                return "effective-spherical"
    return None


def test_criterion_7_totally_semistable_vs_brute_force():
    with Criterion(7, "wall detector agrees with exhaustive rank-2 oracle", 60.0):
        bound = 6
        pairs = 0
        for a, b, d in itertools.product(range(-3, 4), repeat=3):
            gram = ((a, b), (b, d))
            if a * d - b * b >= 0:
                continue  # signature (1,1,0) means negative determinant
            lat = GramLattice(gram)
            assert signature(lat) == (1, 1, 0)
            for vx, vy in itertools.product(range(-3, 4), repeat=2):
                if not (vx or vy):
                    continue
                v = lat.vector((vx, vy))
                if square(v) <= 0:
                    continue
                pairs += 1
                hp = HyperbolicPair(lat, v)
                # On-wall reference: purely imaginary, effectivity is
                # the sign of the coordinate dot product with v.
                z0 = StabilityFunction(lat, (G.of(0, vx), G.of(0, vy)))
                got = detect_totally_semistable(hp, z0, bound)
                expected = _oracle_tss(gram, (vx, vy), bound)
                if expected is None:
                    assert not got.detected, (gram, (vx, vy))
                else:
                    assert got.detected and got.witness.criterion == expected, (
                        gram, (vx, vy), expected,
                    )
        assert pairs > 500


FROZEN_VERDICTS = {
    "merge": '{"kind":"has_stable_deformation","summands":[0,1],"via":"merge"}',
    "leaf": '{"kind":"totally_semistable_shape","leaf":[0,1],"spheres":[[0,1]],"w":[1,0]}',
    "cycle": '{"kind":"has_stable_deformation","summands":[0,1,2],"via":"genus"}',
    "reject": '{"error":"total class has square 0; need a positive square"}',
}


def _verdict_bytes(gram, summands, even=True):
    lat = GramLattice(gram, even=even)
    dec = PolystableDecomposition.of((lat.vector(c), n) for c, n in summands)
    report = analyze_stratum(dec)
    return json.dumps(_verdict_obj(report.verdict), sort_keys=True,
                      separators=(",", ":"))


def test_criterion_8_stratum_regressions():
    with Criterion(8, "stratum analyzer regressions and leaf invariant", 30.0):
        assert _verdict_bytes(
            ((2, 3), (3, 2)), [((1, 0), 1), ((0, 1), 1)]
        ) == FROZEN_VERDICTS["merge"]
        assert _verdict_bytes(
            ((2, 1), (1, -2)), [((1, 0), 1), ((0, 1), 1)]
        ) == FROZEN_VERDICTS["leaf"]
        assert _verdict_bytes(
            ((-2, 1, 1, 1), (1, -2, 1, 0), (1, 1, -2, 0), (1, 0, 0, 2)),
            [((1, 0, 0, 0), 1), ((0, 1, 0, 0), 1),
             ((0, 0, 1, 0), 1), ((0, 0, 0, 1), 1)],
        ) == FROZEN_VERDICTS["cycle"]
        lat0 = GramLattice(((0,),), even=True)
        try:
            analyze_stratum(PolystableDecomposition.of([(lat0.vector((1,)), 2)]))
            raise AssertionError("nonpositive square must be rejected")
        except LatticeMismatchError as exc:
            got = json.dumps({"error": str(exc)}, sort_keys=True,
                             separators=(",", ":"))
            assert got == FROZEN_VERDICTS["reject"]

        # leaf invariant across random tree-shaped decompositions
        rng = random.Random(2029)
        from quivermoduli.stratum import TotallySemistableShape

        for _ in range(100):
            t = rng.randint(1, 5)
            parents = [rng.randrange(i + 1) for i in range(t)]
            size = t + 1
            gram = [[0] * size for _ in range(size)]
            gram[0][0] = rng.choice((2, 4, 6))
            for i in range(1, size):
                gram[i][i] = -2
            for child, parent in enumerate(parents, start=1):
                gram[child][parent] = gram[parent][child] = 1
            lat = GramLattice(tuple(tuple(r) for r in gram), even=True)
            dec = PolystableDecomposition.of(
                (lat.basis_vector(i), 1) for i in range(size)
            )
            report = analyze_stratum(dec)
            assert isinstance(report.verdict, TotallySemistableShape)
            assert pairing(dec.total(), report.verdict.leaf) == -1


def test_criterion_9_cli_determinism():
    with Criterion(9, "identical payload hashes on repeated CLI runs", 30.0):
        scenario = load_scenario(base_doc())
        cases = {
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
            "stability classical-weight": {
                "terms": "[[1,[0,1]],[-1,[0,1]]]", "ell": "5"},
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
        assert set(cases) == set(COMMANDS)
        for command, args in cases.items():
            first = run_command(scenario, command, args)
            second = run_command(scenario, command, args)
            assert first.results_digest() == second.results_digest(), command
