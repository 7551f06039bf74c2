"""Golden reports: the CLI's output for a fixed set of cases, byte for byte.

``tests/golden/reports.jsonl`` holds one line per case: the case name,
the exit code of ``main``, the report printed on stdout (without
``timing_ms``) and the error object printed on stderr.  Reports are
compared after a round trip through ``json.dumps(..., sort_keys=True)``,
the same encoding ``Report.as_json`` uses, so a line matches only when
the report's bytes do; ``results_digest`` pins the ``results`` bytes as
well.

Regenerate the file (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from quivermoduli.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.jsonl"
TREE_WALL = ROOT / "scenarios" / "tree_wall.json"

TREE_WALL_COMMANDS = (
    "lattice pair w s",
    "lattice square v",
    "lattice classify v",
    "lattice signature",
    "lattice isotropic",
    "quiver build",
    "quiver dim",
    "quiver roots",
    "quiver simple-exists",
    "quiver merge-check w s",
    "rep moment-map R",
    "rep check-fiber R",
    "rep destabilize R theta",
    "rep jh R theta",
    "stability normalize Z0 v",
    "stability phase Z0 v",
    "stability slope Z w",
    "stability weight Z0 F",
    "stability theta-unstable Z0 v w,s",
    "stability chi-sigma Z",
    "stability classical-weight [[1,[0,1]],[-1,[0,1]]] 5",
    "stability kclass F",
    "walls enumerate",
    "walls locate theta",
    "walls xi Z",
    "walls gamma Z",
    "walls slice-check Z",
    "walls correspondence 1,0 Z",
    "wall classify-tss v",
    "stratum analyze",
    "stratum product-shape",
    "stratum simple-bridge",
)
OVERRIDES = "--seed 3 --budget 5 --bound 2"


def _tree_wall() -> dict:
    return json.loads(TREE_WALL.read_text())


def _variant(gram=None, vectors=None, decomposition=None, drop=(), **sections) -> dict:
    doc = _tree_wall()
    if gram is not None:
        doc["lattice"]["gram"] = gram
    if vectors is not None:
        doc["vectors"] = vectors
    if decomposition is not None:
        doc["decomposition"] = [
            {"vector": name, "multiplicity": m} for name, m in decomposition
        ]
    for key in drop:
        doc.pop(key, None)
    for key, value in sections.items():
        doc.setdefault(key, {}).update(value)
    return doc


# name -> (scenario document, commands); the comment names the branch reached.
VARIANTS = {
    # Disconnected ext-graph: ProductSplit with positive and spherical factors.
    "split": (
        _variant(gram=[[4, 0], [0, -2]]),
        ("stratum analyze", "stratum product-shape", "stratum simple-bridge",
         "quiver build", "quiver simple-exists", "walls enumerate"),
    ),
    # Isotropic summand pairing to 1: Inconclusive; found isotropic vector.
    "isotropic": (
        _variant(gram=[[2, 1], [1, 0]], drop=("representations",)),
        ("stratum analyze", "stratum product-shape", "lattice isotropic",
         "lattice classify s"),
    ),
    # Pairing 2: the merge test fires; violating Crawley-Boevey parts.
    "merge": (
        _variant(gram=[[2, 2], [2, -2]], drop=("representations",)),
        ("stratum analyze", "quiver simple-exists --n 2,2",
         "quiver merge-check w s", "walls enumerate --n 2,1"),
    ),
    # A repeated positive summand: the multiplicity test fires.
    "repeated": (
        _variant(decomposition=[("w", 2), ("s", 1)], drop=("representations",)),
        ("stratum analyze", "quiver simple-exists", "quiver dim --n 1,2",
         "quiver roots --n 2,2", "quiver dim --n 0,0", "stratum simple-bridge"),
    ),
    # Zero character, theta-unstable witness, infinite slope, irrational phase.
    "charts": (
        _variant(
            characters={"zero": ["0", "0"]},
            stability={
                "H": [{"re": "-1", "im": "0"}, {"re": "0", "im": "1"}],
                "P": [{"re": "1", "im": "2"}, {"re": "0", "im": "1"}],
            },
        ),
        ("rep destabilize R zero", "--seed 7 rep destabilize R zero", "rep jh R zero",
         "stability theta-unstable Z v w,s", "stability slope H w",
         "stability phase H w", "stability phase P w", "stability normalize P w",
         "walls slice-check P", "walls xi P", "walls locate theta --n 2,2"),
    ),
    # No isotropic or spherical class at all: the detector certifies the box.
    "no-tss": (
        _variant(gram=[[2, 0], [0, -6]], vectors={"v": [1, 0], "s": [0, 1]},
                 drop=("decomposition", "representations", "filtrations")),
        ("wall classify-tss v", "lattice isotropic", "lattice classify s"),
    ),
}

# Argument lists that end in exit code 1 or 2, plus budget-bound runs.
ERROR_CASES = {
    "unknown-vector": "lattice square nope",
    "unknown-stability": "stability slope nope w",
    "unknown-character": "rep destabilize R nope",
    "unknown-rep": "rep jh nope theta",
    "unknown-filtration": "stability weight Z0 nope",
    "bad-classical-terms": "stability classical-weight not-json 5",
    "bad-dimension-flag": "quiver dim --n a,b",
    "not-normalized": "stability theta-unstable Z w w,s",
    "roots-budget": "--budget 1 quiver roots",
    "destabilize-budget": "--budget 1 rep destabilize R theta",
    "jh-zero-budget": "--budget 0 rep jh R theta",
    "bad-bound": "--bound 0 wall classify-tss v",
}
ERROR_SCENARIOS = {
    "schema-gram": ({"lattice": {"gram": [[0, 1], [2, 0]]}}, "lattice signature"),
    "schema-budget": (_variant(budgets={"nope": 1}), "lattice signature"),
    "domain-total": (
        _variant(gram=[[-2, 2], [2, -2]], drop=("representations",)), "stratum analyze"),
    "no-quiver": (_variant(drop=("decomposition", "representations")), "quiver build"),
}


def cases() -> list[tuple[str, list[str]]]:
    """(name, argv) for every golden case, in file order."""
    tree_wall = ["--scenario", str(TREE_WALL)]
    out = []
    for command in TREE_WALL_COMMANDS:
        out.append((f"tree_wall/{command}", tree_wall + command.split()))
    for command in TREE_WALL_COMMANDS:
        argv = tree_wall + OVERRIDES.split() + command.split()
        out.append((f"tree_wall+overrides/{command}", argv))
    for name, (doc, commands) in VARIANTS.items():
        inline = ["--scenario", json.dumps(doc)]
        out += [(f"{name}/{command}", inline + command.split()) for command in commands]
    for name, command in ERROR_CASES.items():
        out.append((f"error/{name}", tree_wall + command.split()))
    for name, (doc, command) in ERROR_SCENARIOS.items():
        out.append((f"error/{name}", ["--scenario", json.dumps(doc)] + command.split()))
    return out


def render(name: str, argv: list[str]) -> str:
    """Run ``main(argv)`` and encode what it printed as one golden line."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    line = {"case": name, "exit": code}
    if stdout.getvalue():
        report = json.loads(stdout.getvalue())
        del report["timing_ms"]
        line["report"] = report
    if stderr.getvalue():
        line["stderr"] = json.loads(stderr.getvalue())
    return json.dumps(line, sort_keys=True)


def _golden_lines() -> dict[str, str]:
    lines = GOLDEN.read_text().splitlines()
    return {json.loads(line)["case"]: line for line in lines}


CASES = cases()


def test_golden_covers_every_case():
    assert list(_golden_lines()) == [name for name, _ in CASES]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_report(name, argv):
    assert render(name, argv) == _golden_lines()[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(render(name, argv) + "\n" for name, argv in CASES))
