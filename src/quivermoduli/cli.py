"""Batch command-line front end.

Every invocation loads one scenario file, dispatches a single command
from the fixed command set, and emits one deterministic JSON report:
identical scenario + seed + command always produce an identical
results payload (timing is reported but excluded from the digest).

Exit codes: 0 success (honest not-found/incomplete results included),
1 domain error, 2 usage or schema error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import linalg, representation, stability, stratum, walls
from .errors import QuiverModuliError, ScenarioError, UnknownCommandError
from .lattice import classify, find_isotropic, pairing, signature, square
from .quiver import (
    enumerate_positive_roots,
    expected_dimension,
    num_parameters,
    pairwise_merge_check,
    quadratic_form,
    simple_rep_exists,
)
from .scenario import Scenario, load_scenario, to_wire
from .stability import WeightedFiltration, normalize
from .stratum import HyperbolicPair, analyze_stratum, detect_totally_semistable


@dataclass
class Overrides:
    seed: Optional[int] = None
    budget: Optional[int] = None
    bound: Optional[int] = None


@dataclass
class Report:
    command: str
    args: dict
    scenario_digest: str
    results: dict
    trace: list
    timing_ms: float

    def payload(self) -> dict:
        return {
            "command": self.command,
            "args": self.args,
            "scenario_digest": self.scenario_digest,
            "results": self.results,
            "trace": self.trace,
        }

    def results_digest(self) -> str:
        blob = json.dumps(self.results, sort_keys=True, separators=(",", ":"))
        return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()

    def as_json(self, pretty: bool = False) -> str:
        doc = dict(self.payload(), timing_ms=self.timing_ms,
                   results_digest=self.results_digest())
        if pretty:
            return json.dumps(doc, indent=2, sort_keys=True)
        return json.dumps(doc, sort_keys=True)


# kind of named entry -> the Scenario section holding it
_SECTIONS = {
    "vector": "vectors",
    "stability function": "stability",
    "character": "characters",
    "filtration": "filtrations",
    "representation": "representations",
}


def _named(sc: Scenario, kind: str, name: str):
    entries = getattr(sc, _SECTIONS[kind])
    if name not in entries:
        raise UnknownCommandError(f"unknown {kind} {name!r}")
    return entries[name]


# positional argument -> kind of named entry it refers to
_ARG_KINDS = {
    "a": "vector",
    "b": "vector",
    "v": "vector",
    "z": "stability function",
    "theta": "character",
    "rep": "representation",
}


def _arg(sc: Scenario, args: dict, key: str):
    return _named(sc, _ARG_KINDS[key], args[key])


def _decomp(sc: Scenario):
    if sc.decomposition is None:
        raise UnknownCommandError("scenario has no decomposition")
    return sc.decomposition


def _filtration(sc: Scenario, name: str) -> WeightedFiltration:
    steps = _named(sc, "filtration", name)
    return WeightedFiltration(tuple((w, _named(sc, "vector", v)) for w, v in steps))


def _quiver_and_n(sc: Scenario, args: dict):
    """The effective quiver, then the dimension vector: ``--n`` or else
    the decomposition's multiplicities."""
    q = sc.effective_quiver()
    if args.get("n"):
        return q, tuple(int(x) for x in args["n"].split(","))
    return q, _decomp(sc).multiplicities


def _root_budget(sc: Scenario, ov: Overrides) -> int:
    return ov.budget if ov.budget is not None else sc.budgets["root_budget"]


def _box_bound(sc: Scenario, ov: Overrides) -> int:
    return ov.bound if ov.bound is not None else sc.budgets["box_bound"]


def _walls(sc: Scenario, args: dict, ov: Overrides):
    q, n = _quiver_and_n(sc, args)
    return n, walls.enumerate_walls(q, n, budget=_root_budget(sc, ov))


def _z0_value(sc: Scenario, args: dict):
    decomp = _decomp(sc)
    return _named(sc, "stability function", args.get("z0") or "Z0")(decomp.total())


def _slice(sc: Scenario, args: dict):
    """(Z, Z0(total), decomposition): the arguments of the slice maps."""
    z = _arg(sc, args, "z")
    return z, _z0_value(sc, args), _decomp(sc)


# --- handlers ---------------------------------------------------------------
# Each handler returns its results as library objects (``to_wire`` encodes
# them), or (results, trace) for the commands that keep a trace.


def _h_lattice_pair(sc, args, ov):
    return {"value": pairing(_arg(sc, args, "a"), _arg(sc, args, "b"))}


def _h_lattice_square(sc, args, ov):
    return {"value": square(_arg(sc, args, "v"))}


def _h_lattice_classify(sc, args, ov):
    return {"kind": classify(_arg(sc, args, "v"))}


def _h_lattice_signature(sc, args, ov):
    return dict(zip(("positive", "negative", "zero"), signature(sc.lattice)))


def _h_lattice_isotropic(sc, args, ov):
    bound = _box_bound(sc, ov)
    found = find_isotropic(sc.lattice, bound)
    return {"found": found is not None, "vector": found, "searched_bound": bound}


def _h_quiver_build(sc, args, ov):
    q = sc.effective_quiver()
    return {
        "vertices": q.num_vertices,
        "loops": q.loops,
        "arrows": q.arrows,
        "neg_cartan": q.neg_cartan(),
    }


def _h_quiver_dim(sc, args, ov):
    q, n = _quiver_and_n(sc, args)
    return {
        "n": n,
        "quadratic_form": quadratic_form(q, n),
        "expected_dimension": expected_dimension(q, n),
        "num_parameters": num_parameters(q, n),
        "degenerate": all(x == 0 for x in n),
    }


def _h_quiver_roots(sc, args, ov):
    q, n = _quiver_and_n(sc, args)
    roots = enumerate_positive_roots(q, n, budget=_root_budget(sc, ov))
    return {"n": n, "roots": roots}


def _h_quiver_simple_exists(sc, args, ov):
    q, n = _quiver_and_n(sc, args)
    verdict = simple_rep_exists(q, n, budget=_root_budget(sc, ov))
    return {
        "exists": verdict.exists,
        "reason": verdict.reason,
        "violating_parts": verdict.violating_parts,
    }


def _h_quiver_merge_check(sc, args, ov):
    return {"merges": pairwise_merge_check(_arg(sc, args, "a"), _arg(sc, args, "b"))}


def _h_rep_moment_map(sc, args, ov):
    blocks = representation.moment_map(_arg(sc, args, "rep"))
    return {
        "blocks": blocks,
        "trace_sum": sum((linalg.trace(b) for b in blocks), Fraction(0)),
    }


def _h_rep_check_fiber(sc, args, ov):
    rep = _arg(sc, args, "rep")
    return {"in_zero_fiber": representation.in_zero_fiber(rep)}


def _search(sc, args, ov, search):
    rep = _arg(sc, args, "rep")
    theta = _arg(sc, args, "theta")
    return search(rep, theta, sc.search_limits(seed=ov.seed, budget=ov.budget))


def _h_rep_destabilize(sc, args, ov):
    result = _search(sc, args, ov, representation.destabilizer_search)
    if result.found:
        return {"found": True, "witness": result.witness.spans, "slope": result.slope}
    return {
        "found": False,
        "certificate": {
            "seeds_tried": result.certificate.seeds_tried,
            "budget_used": result.certificate.budget_used,
        },
    }


def _h_rep_jh(sc, args, ov):
    result = _search(sc, args, ov, representation.jordan_holder_search)
    if result.complete:
        return {
            "complete": True,
            "steps": [w.spans for w in result.steps],
            "graded_dims": result.graded_dims,
        }
    return {"complete": False, "reason": result.reason}


def _h_stab_normalize(sc, args, ov):
    return {"values": normalize(_arg(sc, args, "z"), _arg(sc, args, "v")).values}


def _h_stab_phase(sc, args, ov):
    ph = stability.phase(_arg(sc, args, "z"), _arg(sc, args, "v"))
    return {"direction": ph.direction, "value": ph.as_fraction}


def _h_stab_slope(sc, args, ov):
    sl = stability.slope(_arg(sc, args, "z"), _arg(sc, args, "v"))
    return {"slope": "infinite" if sl is stability.INFINITE_SLOPE else sl}


def _h_stab_weight(sc, args, ov):
    filt = _filtration(sc, args["filtration"])
    return {"weight": stability.filtration_weight(_arg(sc, args, "z"), filt)}


def _h_stab_theta_unstable(sc, args, ov):
    z = _arg(sc, args, "z")
    total = _arg(sc, args, "v")
    classes = [_named(sc, "vector", n) for n in args["classes"].split(",") if n]
    verdict = stability.theta_unstable(z, total, classes)
    if not verdict.unstable:
        return {"unstable": False}
    return {
        "unstable": True,
        "weight": verdict.weight,
        "witness_steps": [{"weight": w, "class": v} for w, v in verdict.witness.steps],
    }


def _h_stab_chi_sigma(sc, args, ov):
    return {"exponents": stability.character_exponents(_arg(sc, args, "z"), _decomp(sc))}


def _h_stab_classical_weight(sc, args, ov):
    try:
        terms = [(int(w), [int(c) for c in coeffs]) for w, coeffs in json.loads(args["terms"])]
    except (TypeError, OverflowError) as exc:
        # a non-list term or coefficient list, or an infinite number
        raise ValueError(f"terms must be [[weight, [coefficients]], ...]: {exc}") from exc
    return {"value": stability.classical_git_weight(terms, int(args["ell"]))}


def _h_stab_kclass(sc, args, ov):
    kc = stability.k_class(_filtration(sc, args["filtration"]))
    return {
        "terms": [{"exponent": e, "class": v} for e, v in kc.terms],
        "at_one": kc.at_one(),
    }


def _h_walls_enumerate(sc, args, ov):
    _, found = _walls(sc, args, ov)
    return {
        "walls": [
            {"alpha": w.alpha, "degenerate": w.degenerate, "at_bound": w.at_bound}
            for w in found
        ]
    }


def _h_walls_locate(sc, args, ov):
    n, found = _walls(sc, args, ov)
    theta = walls.CharacterPoint(_arg(sc, args, "theta"), n)
    sig = walls.locate_chamber(theta, found)
    return {
        "signature": sig.as_string(),
        "open_chamber": sig.open_chamber,
        "walls": [w.alpha for w in found],
    }


def _h_walls_gamma(sc, args, ov):
    return {"degrees": walls.degree_vector(*_slice(sc, args))}


def _h_walls_slice_check(sc, args, ov):
    return {"on_slice": walls.on_slice(*_slice(sc, args))}


def _h_walls_xi(sc, args, ov):
    theta = walls.to_character(*_slice(sc, args))
    return {"theta": theta.theta, "n": theta.n}


def _h_walls_correspondence(sc, args, ov):
    alpha = tuple(int(x) for x in args["alpha"].split(","))
    samples = [_named(sc, "stability function", name)
               for name in args["samples"].split(",") if name]
    holds = walls.wall_correspondence_holds(
        alpha, samples, _z0_value(sc, args), _decomp(sc)
    )
    return {"alpha": alpha, "holds": holds}


def _h_wall_classify_tss(sc, args, ov):
    hp = HyperbolicPair(sc.lattice, _arg(sc, args, "v"))
    z0 = _named(sc, "stability function", args.get("z0") or "Z0")
    result = detect_totally_semistable(hp, z0, _box_bound(sc, ov))
    if not result.detected:
        return {"detected": False, "searched_bound": result.searched_bound}
    return {
        "detected": True,
        "criterion": result.witness.criterion,
        "witness": result.witness.witness,
    }


def _verdict_obj(verdict) -> dict:
    """Wire form of a stratum verdict."""
    if isinstance(verdict, stratum.HasStableDeformation):
        obj = {"kind": verdict.kind, "summands": verdict.summand_indices, "via": verdict.via}
    elif isinstance(verdict, stratum.TotallySemistableShape):
        obj = {
            "kind": verdict.kind,
            "w": verdict.w,
            "spheres": verdict.spheres,
            "leaf": verdict.leaf,
        }
    elif isinstance(verdict, stratum.ProductSplit):
        obj = {"kind": verdict.kind, "factors": [_factor_obj(f) for f in verdict.factors]}
    else:
        obj = {"kind": verdict.kind, "reason": verdict.reason}
    return to_wire(obj)


def _factor_obj(factor) -> dict:
    return {"kind": factor.kind, "class": factor.v, "multiplicity": factor.multiplicity}


def _h_stratum_analyze(sc, args, ov):
    report = analyze_stratum(_decomp(sc))
    return {"verdict": _verdict_obj(report.verdict)}, list(report.trace)


def _h_stratum_product_shape(sc, args, ov):
    report = analyze_stratum(_decomp(sc))
    factors = stratum.product_shape(report)
    return {"factors": [_factor_obj(f) for f in factors]}, list(report.trace)


def _h_stratum_simple_bridge(sc, args, ov):
    exists = stratum.stable_deformation_exists(_decomp(sc), budget=_root_budget(sc, ov))
    return {"stable_deformation": exists}


Handler = Callable[[Scenario, dict, Overrides], dict | tuple[dict, list]]

# command -> (handler, positional argument names, optional flag names)
COMMANDS: dict[str, tuple[Handler, tuple[str, ...], tuple[str, ...]]] = {
    "lattice pair": (_h_lattice_pair, ("a", "b"), ()),
    "lattice square": (_h_lattice_square, ("v",), ()),
    "lattice classify": (_h_lattice_classify, ("v",), ()),
    "lattice signature": (_h_lattice_signature, (), ()),
    "lattice isotropic": (_h_lattice_isotropic, (), ()),
    "quiver build": (_h_quiver_build, (), ()),
    "quiver dim": (_h_quiver_dim, (), ("n",)),
    "quiver roots": (_h_quiver_roots, (), ("n",)),
    "quiver simple-exists": (_h_quiver_simple_exists, (), ("n",)),
    "quiver merge-check": (_h_quiver_merge_check, ("a", "b"), ()),
    "rep moment-map": (_h_rep_moment_map, ("rep",), ()),
    "rep check-fiber": (_h_rep_check_fiber, ("rep",), ()),
    "rep destabilize": (_h_rep_destabilize, ("rep", "theta"), ()),
    "rep jh": (_h_rep_jh, ("rep", "theta"), ()),
    "stability normalize": (_h_stab_normalize, ("z", "v"), ()),
    "stability phase": (_h_stab_phase, ("z", "v"), ()),
    "stability slope": (_h_stab_slope, ("z", "v"), ()),
    "stability weight": (_h_stab_weight, ("z", "filtration"), ()),
    "stability theta-unstable": (
        _h_stab_theta_unstable, ("z", "v", "classes"), ()),
    "stability chi-sigma": (_h_stab_chi_sigma, ("z",), ()),
    "stability classical-weight": (
        _h_stab_classical_weight, ("terms", "ell"), ()),
    "stability kclass": (_h_stab_kclass, ("filtration",), ()),
    "walls enumerate": (_h_walls_enumerate, (), ("n",)),
    "walls locate": (_h_walls_locate, ("theta",), ("n",)),
    "walls xi": (_h_walls_xi, ("z",), ("z0",)),
    "walls gamma": (_h_walls_gamma, ("z",), ("z0",)),
    "walls slice-check": (_h_walls_slice_check, ("z",), ("z0",)),
    "walls correspondence": (
        _h_walls_correspondence, ("alpha", "samples"), ("z0",)),
    "wall classify-tss": (_h_wall_classify_tss, ("v",), ("z0",)),
    "stratum analyze": (_h_stratum_analyze, (), ()),
    "stratum product-shape": (_h_stratum_product_shape, (), ()),
    "stratum simple-bridge": (_h_stratum_simple_bridge, (), ()),
}


def run_command(
    scenario: Scenario,
    command: str,
    args: Optional[dict] = None,
    overrides: Optional[Overrides] = None,
) -> Report:
    """Dispatch one command against a loaded scenario."""
    if command not in COMMANDS:
        raise UnknownCommandError(f"unknown command {command!r}")
    handler, positionals, flags = COMMANDS[command]
    args = dict(args or {})
    overrides = overrides or Overrides()
    missing = [p for p in positionals if p not in args]
    if missing:
        raise UnknownCommandError(
            f"command {command!r} is missing arguments: {', '.join(missing)}"
        )
    start = time.perf_counter()
    out = handler(scenario, args, overrides)
    results, trace = out if type(out) is tuple else (out, [])
    results = to_wire(results)
    elapsed = (time.perf_counter() - start) * 1000.0
    shown_args = {k: args[k] for k in sorted(args) if args[k] is not None}
    return Report(
        command=command,
        args=shown_args,
        scenario_digest=scenario.digest(),
        results=results,
        trace=trace,
        timing_ms=elapsed,
    )


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises on a malformed argument list instead of printing usage
    text and exiting, so ``main`` can answer with one JSON line.
    Subparsers are built from the same class."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quivermoduli",
        description="Exact lattice / quiver / wall computations over scenario files",
    )
    parser.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    parser.add_argument("--out", default=None, help="write the report here (default stdout)")
    parser.add_argument("--seed", type=int, default=None, help="override the PRNG seed")
    parser.add_argument("--budget", type=int, default=None, help="override the search/root budget")
    parser.add_argument("--bound", type=int, default=None, help="override the box bound")
    style = parser.add_mutually_exclusive_group()
    style.add_argument("--json", action="store_true", help="compact JSON output (default)")
    style.add_argument("--pretty", action="store_true", help="indented JSON output")

    groups = parser.add_subparsers(dest="group", required=True)
    tree: dict[str, list[str]] = {}
    for command in COMMANDS:
        group, action = command.split(" ", 1)
        tree.setdefault(group, []).append(action)
    for group, actions in tree.items():
        gp = groups.add_parser(group)
        sub = gp.add_subparsers(dest="action", required=True)
        for action in actions:
            handler, positionals, flags = COMMANDS[f"{group} {action}"]
            ap = sub.add_parser(action)
            for pos in positionals:
                ap.add_argument(pos)
            for flag in flags:
                ap.add_argument(f"--{flag}", default=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0, None) else 0
    command = f"{ns.group} {ns.action}"
    handler, positionals, flags = COMMANDS[command]
    args = {name: getattr(ns, name) for name in positionals}
    for flag in flags:
        value = getattr(ns, flag, None)
        if value is not None:
            args[flag] = value
    overrides = Overrides(seed=ns.seed, budget=ns.budget, bound=ns.bound)
    try:
        scenario = load_scenario(ns.scenario)
        report = run_command(scenario, command, args, overrides)
    except ScenarioError as exc:
        print(json.dumps({"error": "schema", "violations": exc.violations}),
              file=sys.stderr)
        return 2
    except UnknownCommandError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return 2
    except QuiverModuliError as exc:
        print(json.dumps({"error": "domain", "message": str(exc)}), file=sys.stderr)
        return 1
    except (ValueError, json.JSONDecodeError) as exc:
        # Malformed inline arguments (numbers, comma lists, JSON terms).
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return 2
    text = report.as_json(pretty=ns.pretty)
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
