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
from .quiver import ExtQuiver, build_ext_quiver
from .representation import DoubleQuiverRep, SearchLimits
from .stability import GaussianRational, StabilityFunction

DEFAULT_BUDGETS = {
    "root_budget": 200_000,
    "search_budget": 100_000,
    "box_bound": 6,
    "prng_seed": 0,
    "prng_samples": 8,
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
    try:
        value = int(raw)
    except (ValueError, TypeError, OverflowError):
        value = None
    if value is None or (isinstance(raw, float) and value != raw):
        violations.append((path, f"not an integer: {raw!r}"))
        return 0
    return value


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
            prng_samples=self.budgets.get("prng_samples", 8),
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
        payload = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        ).encode()
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
            path = Path(text)
            if path.exists():
                text = path.read_text()
        except (OSError, ValueError):
            pass  # not a usable path; treat as inline JSON text
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError([("$", f"invalid JSON: {exc}")])
    if not isinstance(doc, dict):
        raise ScenarioError([("$", "top level must be an object")])

    violations: list[tuple[str, str]] = []

    lat_doc = doc.get("lattice")
    if not isinstance(lat_doc, dict) or "gram" not in lat_doc:
        raise ScenarioError([("$.lattice", "missing lattice.gram")])
    try:
        lattice = GramLattice(
            tuple(tuple(row) for row in lat_doc["gram"]),
            even=bool(lat_doc.get("even", False)),
        )
    except (QuiverModuliError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError([("$.lattice.gram", str(exc))])

    vectors: dict[str, LatticeVector] = {}
    for name, coords in _section(doc, "vectors", "coords", violations).items():
        if name in vectors:
            violations.append((f"$.vectors.{name}", "duplicate vector name"))
            continue
        try:
            vectors[name] = lattice.vector(coords)
        except (QuiverModuliError, TypeError, ValueError, OverflowError) as exc:
            violations.append((f"$.vectors.{name}", str(exc)))

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
            if name not in vectors:
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
        for k, step in enumerate(steps):
            if not isinstance(step, dict) or "weight" not in step or "class" not in step:
                violations.append((f"{path}[{k}]", "expected {weight, class}"))
                continue
            if step["class"] not in vectors:
                violations.append(
                    (f"{path}[{k}].class", f"unknown vector {step['class']!r}")
                )
                continue
            weight = _parse_int(step["weight"], f"{path}[{k}].weight", violations)
            parsed_steps.append((weight, step["class"]))
        filtrations[name] = tuple(parsed_steps)

    quiver = None
    q_doc = doc.get("quiver")
    if q_doc is not None and not isinstance(q_doc, dict):
        violations.append(("$.quiver", "expected {loops, arrows}"))
    elif q_doc is not None:
        try:
            quiver = ExtQuiver(
                tuple(q_doc.get("loops", ())),
                tuple(tuple(a) for a in q_doc.get("arrows", ())),
            )
        except (QuiverModuliError, TypeError, OverflowError) as exc:
            violations.append(("$.quiver", str(exc)))

    budgets = dict(DEFAULT_BUDGETS)
    for key, value in _section(doc, "budgets", "integer", violations).items():
        if key not in DEFAULT_BUDGETS:
            violations.append((f"$.budgets.{key}", "unknown budget key"))
            continue
        budgets[key] = _parse_int(value, f"$.budgets.{key}", violations)

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
        if not isinstance(rep_doc, dict) or "n" not in rep_doc:
            violations.append((path, "expected {n, x, y}"))
            continue
        try:
            n = tuple(int(x) for x in rep_doc["n"])
            xs = tuple(
                tuple(tuple(Fraction(x) for x in row) for row in m)
                for m in rep_doc.get("x", ())
            )
            ys = tuple(
                tuple(tuple(Fraction(x) for x in row) for row in m)
                for m in rep_doc.get("y", ())
            )
            scenario.representations[name] = DoubleQuiverRep(q, n, xs, ys)
        except (QuiverModuliError, TypeError, ValueError, ZeroDivisionError,
                OverflowError) as exc:
            violations.append((path, str(exc)))

    if violations:
        raise ScenarioError(violations)
    return scenario
