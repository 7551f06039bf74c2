"""Scenario files: one JSON document bundling a lattice, named vectors,
an optional decomposition, stability functions, characters, filtrations
and representations, plus search budgets.

Everything on the wire is exact: rationals are "p/q" strings, Gaussian
rationals are {"re": "p/q", "im": "p/q"} objects and lattice vectors are
coordinate lists.  ``to_wire`` is the one encoder for that format, used
for scenarios and CLI results alike.  Scenarios have a canonical
serialized form whose SHA-256 digest keys reports.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .decomposition import PolystableDecomposition
from .errors import QuiverModuliError, ScenarioError
from .lattice import GramLattice, LatticeVector
from .quiver import DEFAULT_ROOT_BUDGET, ExtQuiver, build_ext_quiver
from .representation import DEFAULT_SEARCH_BUDGET, MAX_SUBSET_SEEDS, DoubleQuiverRep, SearchLimits
from .stability import GaussianRational, StabilityFunction, WeightedFiltration

# Largest sum(n_i^2) of a representation's dimension vector.  The
# moment map builds an n_i x n_i block at every vertex whatever the
# arrows, and ``rep moment-map`` prints them, so the cap bounds that
# work where no budget reaches.
MAX_REP_SQUARES = 1024
# Largest ``budgets.prng_samples``.  A seed set whose closures apply no
# map is charged nothing, so the search budget cannot bound the PRNG
# seed sets; the cap is the most subset seed sets a plan holds.
MAX_PRNG_SAMPLES = MAX_SUBSET_SEEDS

DEFAULT_BUDGETS = {
    "root_budget": DEFAULT_ROOT_BUDGET,
    "search_budget": DEFAULT_SEARCH_BUDGET,
    "box_bound": 6,
    "prng_seed": SearchLimits.seed,
    "prng_samples": SearchLimits.prng_samples,
}


def to_wire(obj):
    """JSON-ready copy of ``obj``: Fraction -> "p/q", GaussianRational ->
    {"re", "im"}, LatticeVector -> coordinate list, Enum -> its value,
    tuples and lists -> lists and dicts -> dicts, recursively; anything
    else is returned unchanged."""
    return _wire(obj)


# Leaves that are already JSON; containers pass them through without a
# call, which keeps digests of integer-heavy scenarios cheap.
_PLAIN = frozenset({int, str, bool, float, type(None)})


def _wire(obj):
    # Exact type tests, most frequent first: this runs on every result
    # and every scenario digest.
    kind = type(obj)
    if kind is tuple or kind is list:
        return [x if type(x) in _PLAIN else _wire(x) for x in obj]
    if kind is Fraction:
        return str(obj)
    if kind is dict:
        return {k: v if type(v) in _PLAIN else _wire(v) for k, v in obj.items()}
    if kind is LatticeVector:
        return list(obj.coords)
    if kind is GaussianRational:
        return {"re": str(obj.re), "im": str(obj.im)}
    if isinstance(obj, Enum):
        return obj.value
    return obj


def _parse_int(raw, path: str, violations: list) -> int:
    # A JSON integer, or a float with an integral value; not a bool or a string.
    if isinstance(raw, int) and not isinstance(raw, bool) or (
            isinstance(raw, float) and raw.is_integer()):
        return int(raw)
    violations.append((path, f"not an integer: {raw!r}"))
    return 0


def _parse_ints(raw, path: str, violations: list) -> tuple[int, ...]:
    if not isinstance(raw, (list, tuple)):
        violations.append((path, f"not a list of integers: {raw!r}"))
        return ()
    return tuple(_parse_int(x, path, violations) for x in raw)


def _parse_frac(raw, path: str, violations: list) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        violations.append((path, f"not a rational: {raw!r}"))
        return Fraction(0)


def _parse_gauss(raw, path: str, violations: list) -> GaussianRational:
    if not isinstance(raw, dict) or set(raw) - {"re", "im"}:
        violations.append((path, "expected an object with keys 're' and 'im'"))
        return GaussianRational.of(0)
    return GaussianRational(
        _parse_frac(raw.get("re", "0"), f"{path}.re", violations),
        _parse_frac(raw.get("im", "0"), f"{path}.im", violations),
    )


@dataclass
class Scenario:
    lattice: GramLattice
    vectors: dict[str, LatticeVector]
    decomposition: Optional[PolystableDecomposition] = None
    stability: dict[str, StabilityFunction] = field(default_factory=dict)
    characters: dict[str, tuple[Fraction, ...]] = field(default_factory=dict)
    filtrations: dict[str, tuple[tuple[int, str], ...]] = field(default_factory=dict)
    quiver: Optional[ExtQuiver] = None
    representations: dict[str, DoubleQuiverRep] = field(default_factory=dict)
    budgets: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_BUDGETS))

    def effective_quiver(self) -> ExtQuiver:
        if self.quiver is not None:
            return self.quiver
        if self.decomposition is not None:
            return build_ext_quiver(self.decomposition)
        raise QuiverModuliError(
            "scenario has neither an explicit quiver nor a decomposition"
        )

    def search_limits(self, seed: Optional[int] = None, budget: Optional[int] = None) -> SearchLimits:
        return SearchLimits(
            budget=budget if budget is not None else self.budgets["search_budget"],
            prng_samples=self.budgets["prng_samples"],
            seed=seed if seed is not None else self.budgets["prng_seed"],
        )

    def canonical(self) -> dict:
        doc: dict = {
            "lattice": {"gram": self.lattice.gram, "even": self.lattice.even},
            "vectors": self.vectors,
            "budgets": self.budgets,
        }
        if self.decomposition is not None:
            doc["decomposition"] = [
                {"vector": self._vector_name(v), "multiplicity": n}
                for v, n in self.decomposition.summands
            ]
        if self.stability:
            doc["stability"] = {name: fn.values for name, fn in self.stability.items()}
        if self.characters:
            doc["characters"] = self.characters
        if self.filtrations:
            doc["filtrations"] = {
                name: [{"weight": w, "class": v} for w, v in steps]
                for name, steps in self.filtrations.items()
            }
        if self.quiver is not None:
            doc["quiver"] = {"loops": self.quiver.loops, "arrows": self.quiver.arrows}
        if self.representations:
            doc["representations"] = {
                name: {"n": rep.n, "x": rep.x_maps, "y": rep.y_maps}
                for name, rep in self.representations.items()
            }
        return to_wire(doc)

    def _vector_name(self, v: LatticeVector) -> str:
        for name, vec in self.vectors.items():
            if vec.coords == v.coords:
                return name
        raise QuiverModuliError(f"decomposition class {v.coords} has no name")

    def digest(self) -> str:
        return json_digest(self.canonical())


def json_digest(doc) -> str:
    """SHA-256 of the canonical JSON bytes of ``doc``: sorted keys, no
    whitespace."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def _section(doc: dict, key: str, entries: str, violations: list) -> dict:
    """The name -> entry object at ``$.key``; absent means empty, and any
    other JSON type is a violation."""
    section = doc.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        violations.append((f"$.{key}", f"must be an object of name -> {entries}"))
        return {}
    return section


def load_scenario(source: Union[str, Path, dict]) -> Scenario:
    """Parse and fully validate a scenario; raise ScenarioError with a
    list of (json_path, message) violations if anything is off."""
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        try:
            text, from_file = Path(text).read_text(), True
        except (OSError, ValueError):
            from_file = False  # not a readable file; treat as inline JSON text
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError([("$", f"invalid JSON: {exc}" if from_file else
                                  f"no readable scenario file at {text!r} and not inline JSON")])
    if not isinstance(doc, dict):
        raise ScenarioError([("$", "top level must be an object")])

    violations: list[tuple[str, str]] = []

    lat_doc = doc.get("lattice")
    if not isinstance(lat_doc, dict) or "gram" not in lat_doc:
        raise ScenarioError([("$.lattice", "missing lattice.gram")])
    even, rows = lat_doc.get("even", False), lat_doc["gram"]
    if not isinstance(even, bool):
        violations.append(("$.lattice.even", f"not a boolean: {even!r}"))
    gram = tuple(_parse_ints(row, "$.lattice.gram", violations)
                 for row in (rows if isinstance(rows, (list, tuple)) else [rows]))
    if violations:
        raise ScenarioError(violations)
    try:
        lattice = GramLattice(gram, even=even)
    except QuiverModuliError as exc:
        raise ScenarioError([("$.lattice.gram", str(exc))])

    vectors: dict[str, LatticeVector] = {}
    for name, coords in _section(doc, "vectors", "coords", violations).items():
        path, found = f"$.vectors.{name}", len(violations)
        coords = _parse_ints(coords, path, violations)
        if len(violations) == found:
            try:
                vectors[name] = lattice.vector(coords)
            except QuiverModuliError as exc:
                violations.append((path, str(exc)))

    decomposition = None
    dec_doc = doc.get("decomposition")
    if dec_doc is not None and not isinstance(dec_doc, list):
        violations.append(("$.decomposition", "expected a list of {vector, multiplicity}"))
    elif dec_doc is not None:
        summands = []
        for k, entry in enumerate(dec_doc):
            path = f"$.decomposition[{k}]"
            if not isinstance(entry, dict) or "vector" not in entry:
                violations.append((path, "expected {vector, multiplicity}"))
                continue
            name = entry["vector"]
            if not isinstance(name, str) or name not in vectors:
                violations.append((f"{path}.vector", f"unknown vector {name!r}"))
                continue
            mult = _parse_int(entry.get("multiplicity", 1), f"{path}.multiplicity", violations)
            summands.append((vectors[name], mult))
        if summands and not violations:
            try:
                decomposition = PolystableDecomposition.of(summands)
            except QuiverModuliError as exc:
                violations.append(("$.decomposition", str(exc)))

    stability: dict[str, StabilityFunction] = {}
    for name, values in _section(doc, "stability", "basis values", violations).items():
        path = f"$.stability.{name}"
        if not isinstance(values, list) or len(values) != lattice.rank:
            violations.append(
                (path, f"expected {lattice.rank} basis values, got {values!r}")
            )
            continue
        parsed = tuple(
            _parse_gauss(v, f"{path}[{k}]", violations) for k, v in enumerate(values)
        )
        stability[name] = StabilityFunction(lattice, parsed)

    characters: dict[str, tuple[Fraction, ...]] = {}
    for name, values in _section(doc, "characters", "rationals", violations).items():
        path = f"$.characters.{name}"
        if not isinstance(values, list):
            violations.append((path, "expected a list of rationals"))
            continue
        characters[name] = tuple(
            _parse_frac(v, f"{path}[{k}]", violations) for k, v in enumerate(values)
        )

    filtrations: dict[str, tuple[tuple[int, str], ...]] = {}
    for name, steps in _section(doc, "filtrations", "steps", violations).items():
        path = f"$.filtrations.{name}"
        if not isinstance(steps, list):
            violations.append((path, "expected a list of {weight, vector}"))
            continue
        parsed_steps = []
        found = len(violations)
        for k, step in enumerate(steps):
            if not isinstance(step, dict) or "weight" not in step or "class" not in step:
                violations.append((f"{path}[{k}]", "expected {weight, class}"))
                continue
            if not isinstance(step["class"], str) or step["class"] not in vectors:
                violations.append(
                    (f"{path}[{k}].class", f"unknown vector {step['class']!r}")
                )
                continue
            weight = _parse_int(step["weight"], f"{path}[{k}].weight", violations)
            parsed_steps.append((weight, step["class"]))
        if len(violations) == found:
            try:
                WeightedFiltration(tuple((w, vectors[v]) for w, v in parsed_steps))
            except ValueError as exc:
                violations.append((path, str(exc)))
        filtrations[name] = tuple(parsed_steps)

    quiver = None
    q_doc = doc.get("quiver")
    if q_doc is not None and not isinstance(q_doc, dict):
        violations.append(("$.quiver", "expected {loops, arrows}"))
    elif q_doc is not None:
        loops, arrows = q_doc.get("loops", []), q_doc.get("arrows", [])
        if not (isinstance(loops, (list, tuple)) and isinstance(arrows, (list, tuple))
                and all(isinstance(a, (list, tuple)) and len(a) == 3 for a in arrows)):
            violations.append(("$.quiver", "expected {loops, arrows} with arrows [i, j, m]"))
        else:
            found = len(violations)
            loops = _parse_ints(loops, "$.quiver", violations)
            arrows = tuple(_parse_ints(a, "$.quiver", violations) for a in arrows)
            if len(violations) == found:
                try:
                    quiver = ExtQuiver(loops, arrows)
                except QuiverModuliError as exc:
                    violations.append(("$.quiver", str(exc)))

    budgets = dict(DEFAULT_BUDGETS)
    for key, value in _section(doc, "budgets", "integer", violations).items():
        if key not in DEFAULT_BUDGETS:
            violations.append((f"$.budgets.{key}", "unknown budget key"))
            continue
        budgets[key] = _parse_int(value, f"$.budgets.{key}", violations)
        if key == "prng_samples" and budgets[key] > MAX_PRNG_SAMPLES:
            violations.append((f"$.budgets.{key}", f"exceeds {MAX_PRNG_SAMPLES}"))

    scenario = Scenario(
        lattice=lattice,
        vectors=vectors,
        decomposition=decomposition,
        stability=stability,
        characters=characters,
        filtrations=filtrations,
        quiver=quiver,
        budgets=budgets,
    )

    for name, rep_doc in _section(doc, "representations", "{n, x, y}", violations).items():
        path = f"$.representations.{name}"
        try:
            q = scenario.effective_quiver()
        except QuiverModuliError as exc:
            violations.append((path, f"no quiver available: {exc}"))
            break
        if not isinstance(rep_doc, dict) or not isinstance(rep_doc.get("n"), (list, tuple)):
            violations.append((path, "expected {n, x, y}"))
            continue
        found = len(violations)
        n = _parse_ints(rep_doc["n"], f"{path}.n", violations)
        if len(violations) > found:
            continue
        try:
            squares = sum(x * x for x in n)
            if squares > MAX_REP_SQUARES:
                violations.append((f"{path}.n", f"sum of squared dimensions "
                                   f"{squares} exceeds {MAX_REP_SQUARES}"))
                continue
            scenario.representations[name] = DoubleQuiverRep(
                q, n, rep_doc.get("x", ()), rep_doc.get("y", ())
            )
        except (QuiverModuliError, TypeError, ValueError, ZeroDivisionError,
                OverflowError) as exc:
            violations.append((path, str(exc)))

    if violations:
        raise ScenarioError(violations)
    return scenario
