"""Batch command-line front end.

Every invocation loads one scenario file, dispatches a single command
from the fixed command set, and emits one deterministic JSON report:
identical scenario + seed + command always produce an identical
results payload (timing is reported but excluded from the digest).

``COMMANDS`` maps each command to its handler and the names of its
positional arguments and flags.  ``run_command`` turns each argument
string into its library value once, by the lookup that ``_LOOKUPS``
keeps under the argument's name (a vector name into its vector, a comma
list into ints, ...), and passes the values to the handler as keywords;
an absent flag is left out.  The values a scenario implies (its
decomposition, quiver and dimension vector, root budget, box bound and
Z0) come from one helper each.

Exit codes: 0 success (honest not-found/incomplete results included),
1 domain error, 2 usage or schema error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import linalg, representation, stability, stratum, walls
from .errors import BudgetExceededError, QuiverModuliError, ScenarioError, UnknownCommandError
from .lattice import classify, find_isotropic, pairing, signature, square
from .quiver import (
    enumerate_positive_roots,
    expected_dimension,
    num_parameters,
    pairwise_merge_check,
    quadratic_form,
    simple_rep_exists,
)
from .scenario import Scenario, json_digest, load_scenario, to_wire
from .stability import WeightedFiltration, normalize
from .stratum import HyperbolicPair, analyze_stratum, detect_totally_semistable


# The most cells past the origin, (2 * bound + 1) ** rank - 1, that a box
# scan started by the CLI (``lattice isotropic``, ``wall classify-tss``)
# may visit.  A full scan of 10**6 cells takes a few seconds.
MAX_BOX_CELLS = 1_000_000


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
        return json_digest(self.results)

    def as_json(self, pretty: bool = False) -> str:
        doc = dict(self.payload(), timing_ms=self.timing_ms,
                   results_digest=self.results_digest())
        if pretty:
            return json.dumps(doc, indent=2, sort_keys=True)
        return json.dumps(doc, sort_keys=True)


def _entry(kind: str, section: str) -> Callable:
    """The lookup of a named entry of ``kind`` in a Scenario section."""
    def lookup(sc: Scenario, name: str):
        entries = getattr(sc, section)
        if name not in entries:
            raise UnknownCommandError(f"unknown {kind} {name!r}")
        return entries[name]
    return lookup


def _entries(lookup: Callable) -> Callable:
    """The lookup of a comma list of names, each by ``lookup``."""
    return lambda sc, names: [lookup(sc, name) for name in names.split(",") if name]


_vector = _entry("vector", "vectors")
_function = _entry("stability function", "stability")


def _ints(sc: Scenario, text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _filtration(sc: Scenario, name: str) -> WeightedFiltration:
    steps = _entry("filtration", "filtrations")(sc, name)
    return WeightedFiltration(tuple((w, _vector(sc, v)) for w, v in steps))


# argument or flag name -> its lookup (scenario, string) -> library value
_LOOKUPS: dict[str, Callable] = {
    "a": _vector,
    "b": _vector,
    "v": _vector,
    "z": _function,
    "z0": _function,
    "theta": _entry("character", "characters"),
    "rep": _entry("representation", "representations"),
    "filtration": _filtration,
    "classes": _entries(_vector),
    "samples": _entries(_function),
    "alpha": _ints,
    "n": _ints,
    "terms": lambda sc, text: json.loads(text),  # classical_git_weight checks it
    "ell": lambda sc, text: int(text),
}


def _decomp(sc: Scenario):
    if sc.decomposition is None:
        raise UnknownCommandError("scenario has no decomposition")
    return sc.decomposition


def _quiver_and_n(sc: Scenario, n: Optional[tuple[int, ...]]):
    """The effective quiver, then the dimension vector: ``--n`` or else
    the decomposition's multiplicities."""
    q = sc.effective_quiver()
    return q, n if n is not None else _decomp(sc).multiplicities


def _root_budget(sc: Scenario, ov: Overrides) -> int:
    return ov.budget if ov.budget is not None else sc.budgets["root_budget"]


def _box_bound(sc: Scenario, ov: Overrides) -> int:
    bound = ov.bound if ov.bound is not None else sc.budgets["box_bound"]
    if (2 * max(bound, 0) + 1) ** sc.lattice.rank - 1 > MAX_BOX_CELLS:
        raise BudgetExceededError(
            f"box bound {bound} in rank {sc.lattice.rank} spans more than "
            f"{MAX_BOX_CELLS} cells"
        )
    return bound


def _z0(sc: Scenario, z0: Optional[stability.StabilityFunction]):
    """``--z0``, else the scenario's stability function ``Z0``."""
    return z0 if z0 is not None else _function(sc, "Z0")


def _slice(sc: Scenario, z0: Optional[stability.StabilityFunction] = None, **values):
    """The given values, then Z0 at the total class and the decomposition:
    the arguments of the slice maps and of the wall dictionary."""
    decomp = _decomp(sc)
    return *values.values(), _z0(sc, z0)(decomp.total()), decomp


# --- handlers ---------------------------------------------------------------
# Each handler returns its results as library objects (``to_wire`` encodes
# them), or (results, trace) for the commands that keep a trace.

Handler = Callable[..., dict | tuple[dict, list]]


def _answer(key: str, fn: Callable, arguments: Optional[Callable] = None) -> Handler:
    """The handler answering ``{key: fn(...)}`` on the looked-up values in
    table order, or on ``arguments(sc, **values)``."""
    def handler(sc, ov, **values):
        return {key: fn(*(arguments(sc, **values) if arguments else values.values()))}
    return handler


def _h_lattice_signature(sc, ov):
    return dict(zip(("positive", "negative", "zero"), signature(sc.lattice)))


def _h_lattice_isotropic(sc, ov):
    bound = _box_bound(sc, ov)
    found = find_isotropic(sc.lattice, bound)
    return {"found": found is not None, "vector": found, "searched_bound": bound}


def _h_quiver_build(sc, ov):
    q = sc.effective_quiver()
    return {
        "vertices": q.num_vertices,
        "loops": q.loops,
        "arrows": q.arrows,
        "neg_cartan": q.neg_cartan(),
    }


def _h_quiver_dim(sc, ov, n=None):
    q, n = _quiver_and_n(sc, n)
    return {
        "n": n,
        "quadratic_form": quadratic_form(q, n),
        "expected_dimension": expected_dimension(q, n),
        "num_parameters": num_parameters(q, n),
        "degenerate": all(x == 0 for x in n),
    }


def _h_quiver_roots(sc, ov, n=None):
    q, n = _quiver_and_n(sc, n)
    roots = enumerate_positive_roots(q, n, budget=_root_budget(sc, ov))
    return {"n": n, "roots": roots}


def _h_quiver_simple_exists(sc, ov, n=None):
    q, n = _quiver_and_n(sc, n)
    verdict = simple_rep_exists(q, n, budget=_root_budget(sc, ov))
    return {
        "exists": verdict.exists,
        "reason": verdict.reason,
        "violating_parts": verdict.violating_parts,
    }


def _h_rep_moment_map(sc, ov, rep):
    blocks = representation.moment_map(rep)
    return {
        "blocks": blocks,
        "trace_sum": sum((linalg.trace(b) for b in blocks), Fraction(0)),
    }


def _h_rep_destabilize(sc, ov, rep, theta):
    limits = sc.search_limits(seed=ov.seed, budget=ov.budget)
    result = representation.destabilizer_search(rep, theta, limits)
    if result.found:
        return {"found": True, "witness": result.witness.spans, "slope": result.slope}
    return {
        "found": False,
        "certificate": {
            "seeds_tried": result.certificate.seeds_tried,
            "budget_used": result.certificate.budget_used,
        },
    }


def _h_rep_jh(sc, ov, rep, theta):
    limits = sc.search_limits(seed=ov.seed, budget=ov.budget)
    result = representation.jordan_holder_search(rep, theta, limits)
    if result.complete:
        return {
            "complete": True,
            "steps": [w.spans for w in result.steps],
            "graded_dims": result.graded_dims,
        }
    return {"complete": False, "reason": result.reason}


def _h_stab_normalize(sc, ov, z, v):
    return {"values": normalize(z, v).values}


def _h_stab_phase(sc, ov, z, v):
    ph = stability.phase(z, v)
    return {"direction": ph.direction, "value": ph.as_fraction}


def _h_stab_slope(sc, ov, z, v):
    sl = stability.slope(z, v)
    return {"slope": "infinite" if sl is stability.INFINITE_SLOPE else sl}


def _h_stab_theta_unstable(sc, ov, z, v, classes):
    verdict = stability.theta_unstable(z, v, classes)
    if not verdict.unstable:
        return {"unstable": False}
    return {
        "unstable": True,
        "weight": verdict.weight,
        "witness_steps": [{"weight": w, "class": v} for w, v in verdict.witness.steps],
    }


def _h_stab_chi_sigma(sc, ov, z):
    return {"exponents": stability.character_exponents(z, _decomp(sc))}


def _h_stab_kclass(sc, ov, filtration):
    kc = stability.k_class(filtration)
    return {
        "terms": [{"exponent": e, "class": v} for e, v in kc.terms],
        "at_one": kc.at_one(),
    }


def _h_walls_enumerate(sc, ov, n=None):
    q, n = _quiver_and_n(sc, n)
    found = walls.enumerate_walls(q, n, budget=_root_budget(sc, ov))
    return {
        "walls": [
            {"alpha": w.alpha, "degenerate": w.degenerate, "at_bound": w.at_bound}
            for w in found
        ]
    }


def _h_walls_locate(sc, ov, theta, n=None):
    q, n = _quiver_and_n(sc, n)
    found = walls.enumerate_walls(q, n, budget=_root_budget(sc, ov))
    sig = walls.locate_chamber(walls.CharacterPoint(theta, n), found)
    return {
        "signature": sig.as_string(),
        "open_chamber": sig.open_chamber,
        "walls": [w.alpha for w in found],
    }


def _h_walls_xi(sc, ov, z, z0=None):
    theta = walls.to_character(*_slice(sc, z0, z=z))
    return {"theta": theta.theta, "n": theta.n}


def _h_walls_correspondence(sc, ov, alpha, samples, z0=None):
    holds = walls.wall_correspondence_holds(*_slice(sc, z0, alpha=alpha, samples=samples))
    return {"alpha": alpha, "holds": holds}


def _h_wall_classify_tss(sc, ov, v, z0=None):
    hp = HyperbolicPair(sc.lattice, v)
    result = detect_totally_semistable(hp, _z0(sc, z0), _box_bound(sc, ov))
    if not result.detected:
        return {"detected": False, "searched_bound": result.searched_bound}
    return {
        "detected": True,
        "criterion": result.witness.criterion,
        "witness": result.witness.witness,
    }


def _verdict_obj(verdict) -> dict:
    """A stratum verdict as a dict for ``to_wire``."""
    if isinstance(verdict, stratum.HasStableDeformation):
        return {"kind": verdict.kind, "summands": verdict.summand_indices, "via": verdict.via}
    if isinstance(verdict, stratum.TotallySemistableShape):
        return {
            "kind": verdict.kind,
            "w": verdict.w,
            "spheres": verdict.spheres,
            "leaf": verdict.leaf,
        }
    if isinstance(verdict, stratum.ProductSplit):
        return {"kind": verdict.kind, "factors": [_factor_obj(f) for f in verdict.factors]}
    return {"kind": verdict.kind, "reason": verdict.reason}


def _factor_obj(factor) -> dict:
    return {"kind": factor.kind, "class": factor.v, "multiplicity": factor.multiplicity}


def _h_stratum_analyze(sc, ov):
    report = analyze_stratum(_decomp(sc))
    return {"verdict": _verdict_obj(report.verdict)}, list(report.trace)


def _h_stratum_product_shape(sc, ov):
    report = analyze_stratum(_decomp(sc))
    factors = stratum.product_shape(report)
    return {"factors": [_factor_obj(f) for f in factors]}, list(report.trace)


def _h_stratum_simple_bridge(sc, ov):
    exists = stratum.stable_deformation_exists(_decomp(sc), budget=_root_budget(sc, ov))
    return {"stable_deformation": exists}


# command -> (handler, positional argument names, optional flag names)
COMMANDS: dict[str, tuple[Handler, tuple[str, ...], tuple[str, ...]]] = {
    "lattice pair": (_answer("value", pairing), ("a", "b"), ()),
    "lattice square": (_answer("value", square), ("v",), ()),
    "lattice classify": (_answer("kind", classify), ("v",), ()),
    "lattice signature": (_h_lattice_signature, (), ()),
    "lattice isotropic": (_h_lattice_isotropic, (), ()),
    "quiver build": (_h_quiver_build, (), ()),
    "quiver dim": (_h_quiver_dim, (), ("n",)),
    "quiver roots": (_h_quiver_roots, (), ("n",)),
    "quiver simple-exists": (_h_quiver_simple_exists, (), ("n",)),
    "quiver merge-check": (_answer("merges", pairwise_merge_check), ("a", "b"), ()),
    "rep moment-map": (_h_rep_moment_map, ("rep",), ()),
    "rep check-fiber": (_answer("in_zero_fiber", representation.in_zero_fiber), ("rep",), ()),
    "rep destabilize": (_h_rep_destabilize, ("rep", "theta"), ()),
    "rep jh": (_h_rep_jh, ("rep", "theta"), ()),
    "stability normalize": (_h_stab_normalize, ("z", "v"), ()),
    "stability phase": (_h_stab_phase, ("z", "v"), ()),
    "stability slope": (_h_stab_slope, ("z", "v"), ()),
    "stability weight": (_answer("weight", stability.filtration_weight), ("z", "filtration"), ()),
    "stability theta-unstable": (
        _h_stab_theta_unstable, ("z", "v", "classes"), ()),
    "stability chi-sigma": (_h_stab_chi_sigma, ("z",), ()),
    "stability classical-weight": (
        _answer("value", stability.classical_git_weight), ("terms", "ell"), ()),
    "stability kclass": (_h_stab_kclass, ("filtration",), ()),
    "walls enumerate": (_h_walls_enumerate, (), ("n",)),
    "walls locate": (_h_walls_locate, ("theta",), ("n",)),
    "walls xi": (_h_walls_xi, ("z",), ("z0",)),
    "walls gamma": (_answer("degrees", walls.degree_vector, _slice), ("z",), ("z0",)),
    "walls slice-check": (_answer("on_slice", walls.on_slice, _slice), ("z",), ("z0",)),
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
    values = {name: _LOOKUPS[name](scenario, args[name])
              for name in positionals + flags if name in positionals or args.get(name)}
    out = handler(scenario, overrides, **values)
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


class _Parser(argparse.ArgumentParser):
    """Raises on a malformed argument list instead of printing usage
    text and exiting, so ``main`` can answer with one JSON line.
    Subparsers are built from the same class."""

    def error(self, message):
        raise UnknownCommandError(f"{self.prog}: {message}")


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
    parser.add_argument("--pretty", action="store_true", help="indented JSON output")

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
    try:
        ns = build_parser().parse_args(argv)
        command = f"{ns.group} {ns.action}"
        _, positionals, flags = COMMANDS[command]
        args = {name: getattr(ns, name) for name in positionals + flags}
        overrides = Overrides(seed=ns.seed, budget=ns.budget, bound=ns.bound)
        report = run_command(load_scenario(ns.scenario), command, args, overrides)
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0, None) else 0
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
    except ValueError as exc:
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
