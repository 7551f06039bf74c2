"""Rules for the library source itself and its README."""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path

from quivermoduli import SearchLimits
from quivermoduli.cli import COMMANDS
from quivermoduli.scenario import DEFAULT_BUDGETS, load_scenario

from genutil import stratum_corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quivermoduli"


def test_no_assert_in_library():
    # python -O strips assert statements, so a runtime invariant written
    # as one would silently stop being checked; such checks raise
    # InternalInvariantError instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_linalg_has_no_function_only_tests_use():
    # Every public function of linalg must have a caller in the library
    # itself, through ``linalg.name`` or an import of the name.
    tree = ast.parse((SRC / "linalg.py").read_text())
    public = {
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    used = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                used.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "linalg"):
                used.add(node.attr)
    assert public and sorted(public - used) == []


def test_library_has_no_function_only_tests_use():
    # Every public module-level function must be read somewhere in the
    # library, by name or as an attribute, or be re-exported from the
    # package __init__; helpers only tests call live in tests/genutil.py.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exported = {alias.name for node in trees.pop("__init__.py").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unused = [
        f"{name[:-3]}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in exported | read
    ]
    assert unused == []


def test_library_has_no_unused_imports():
    # Every name a module imports must be read in that module; the
    # package __init__ imports only to re-export.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unused == []


def test_search_limits_are_the_scenario_search_keys():
    # Every field of SearchLimits comes from a scenario budget key with
    # the same default, so a search has no setting that a scenario cannot
    # set and digest; the seed plan's fixed shape stays constants.
    scenario = load_scenario({"lattice": {"gram": [[2]]}})
    scenario.budgets = {key: 10**6 + k for k, key in enumerate(DEFAULT_BUDGETS)}
    limits = scenario.search_limits()
    key_of = {value: key for key, value in scenario.budgets.items()}
    sources = {field.name: key_of.get(getattr(limits, field.name))
               for field in dataclasses.fields(SearchLimits)}
    assert None not in sources.values(), sources
    assert {name: DEFAULT_BUDGETS[key] for name, key in sources.items()} == {
        field.name: field.default for field in dataclasses.fields(SearchLimits)}


def test_lattice_imports_nothing_from_fractions():
    # The lattice kernels are integer arithmetic throughout.
    found = [
        node.lineno
        for node in ast.walk(ast.parse((SRC / "lattice.py").read_text()))
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import)
            and any(alias.name == "fractions" for alias in node.names))
    ]
    assert found == []


def int_coercions(source: str) -> list[int]:
    """Lines that call ``int(...)`` or pass ``int`` to ``map``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and (node.func.id == "int" or node.func.id == "map" and node.args
             and isinstance(node.args[0], ast.Name) and node.args[0].id == "int")
    ]


def test_int_coercions_are_found():
    source = "a = int(x)\nb = tuple(map(int, y))\nc = isinstance(x, int)\nd = map(str, y)\n"
    assert int_coercions(source) == [1, 2]


def test_only_text_and_json_readers_coerce_to_int():
    # Integer inputs go through linalg.ints, which refuses what is not an
    # int; only the CLI and the scenario loader parse text and JSON.
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("cli.py", "scenario.py")
        for line in int_coercions(path.read_text())
    ]
    assert found == []


def test_root_box_budget_is_checked_once_in_the_box_walk():
    # One lexicographic walk of the box below n serves every root question;
    # a second copy of its budget check means a second walk.
    sites = [
        func.name
        for func in ast.walk(ast.parse((SRC / "quiver.py").read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "BudgetExceededError"
        and "root box of size" in ast.unparse(node.exc)
    ]
    assert sites == ["_cells"]


def _functions(path: Path) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)}


def _called(func: ast.FunctionDef) -> set[str]:
    return {node.func.id for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_the_box_is_walked_only_inside_cells():
    # Roots, walls and the splitting table read the one incremental walk;
    # no product over the box runs beside it, so a change of the root
    # notion changes _cells and _root_p alone.
    tree = ast.parse((SRC / "quiver.py").read_text())
    products = [node.lineno for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute))
                and "product" in (getattr(node, "id", None), getattr(node, "attr", None))]
    assert products == []
    functions = _functions(SRC / "quiver.py")
    assert sorted(name for name, func in functions.items() if "_walk" in _called(func)) == ["_cells"]
    assert "_cells" in _called(functions["enumerate_positive_roots"])
    assert "_cells" in _called(functions["_splitting_table"])


def _is_working_sense(node: ast.AST) -> bool:
    """Whether ``node`` is ``x // 2 + 1``."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and isinstance(node.right, ast.Constant) and node.right.value == 1
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.FloorDiv)
            and isinstance(node.left.right, ast.Constant) and node.left.right.value == 2)


def test_the_working_sense_rule_is_written_once():
    # p = q // 2 + 1 and its root test live in _root_p alone: the walk,
    # is_positive_root and simple_rep_exists call it.
    sites = [
        f"{path.name}:{func.name}"
        for path in sorted(SRC.rglob("*.py"))
        for func in _functions(path).values()
        for node in ast.walk(func)
        if _is_working_sense(node)
    ]
    assert sites == ["quiver.py:_root_p"]
    functions = _functions(SRC / "quiver.py")
    for name in ("_walk", "is_positive_root", "simple_rep_exists"):
        assert "_root_p" in _called(functions[name]), name


_CACHE_DECORATORS = {"cache", "lru_cache"}
_DICT_WRITES = {"setdefault", "update", "pop", "popitem", "clear"}


def _is_cache(node: ast.expr) -> bool:
    """Whether ``node`` is ``cache``/``lru_cache``, bare, as a
    ``functools`` attribute, or called with its options."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in _CACHE_DECORATORS


def module_caches(source: str) -> set[str]:
    """The module-level names of ``source`` that keep state across calls:
    functions under a ``cache``/``lru_cache`` decorator, names bound to
    such a wrapper, and dicts that a function writes into."""
    tree = ast.parse(source)
    found, dicts = set(), set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and any(map(_is_cache, node.decorator_list)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            value = node.value
            if isinstance(value, ast.Call) and _is_cache(value.func):
                found |= names
            elif isinstance(value, (ast.Dict, ast.DictComp)) or (
                    isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict"):
                dicts |= names
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _DICT_WRITES):
            target = node.func.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id in dicts:
            found.add(target.id)
    return found


def test_module_caches_are_found():
    source = """
import functools
from functools import cache, lru_cache
TABLE = {1: 2}
_memo = {}
_other: dict = dict()
@cache
def a(): return TABLE[1]
@functools.lru_cache(maxsize=4)
def b(): _memo[1] = 2
def c(): _other.setdefault(1, 2)
d = lru_cache(maxsize=8)(a)
"""
    assert module_caches(source) == {"a", "b", "d", "_memo", "_other"}


def test_representation_keeps_no_state_across_searches():
    # Closure state lives in one search's _SeedClosures; only the seed
    # plans and pure tables of vectors are shared.  A memo of closures
    # across searches would make repeated benchmark rounds free without
    # making a single CLI call any faster.
    assert module_caches((SRC / "representation.py").read_text()) == {
        "_plans", "_unit", "_grid_directions", "_grid_subspaces"}


def cascade_branches() -> set[tuple[str, str, tuple[str, ...]]]:
    """(step, outcome, sorted detail keys) of every ``_trace`` call in
    the stratum cascade: one per branch that ends or passes a step."""
    tree = ast.parse((SRC / "stratum.py").read_text())
    return {
        (node.args[0].value, node.args[1].value,
         tuple(sorted(k.arg for k in node.keywords)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_trace"
    }


def test_stratum_corpus_reaches_every_cascade_branch():
    # A cascade branch whose trace entry no corpus case emits is code
    # that no test runs: give it a case, or delete it.
    emitted = {
        (entry["step"], entry["outcome"], tuple(sorted(entry.get("detail", ()))))
        for _, _, report in stratum_corpus()
        for entry in report.trace
    }
    branches = cascade_branches()
    assert len(branches) > 10
    assert sorted(branches - emitted) == []


def readme_commands() -> list[tuple[str, int, tuple[str, ...]]]:
    """(``group action``, number of positionals, flags) for each entry of
    the README's "Commands:" block, in order."""
    text = (ROOT / "README.md").read_text()
    block = text.split("Commands:\n\n```\n", 1)[1].split("```", 1)[0]
    found = []
    for line in block.splitlines():
        if not line.startswith(" "):
            group, line = line.split(None, 1)
        for entry in line.split("|"):
            flags = tuple(re.findall(r"\[--(\S+)", entry))
            words = re.sub(r"\[--[^\]]*\]", "", entry).split()
            if words:
                found.append((f"{group} {words[0]}", len(words) - 1, flags))
    return found


def test_readme_lists_every_command():
    assert sorted(readme_commands()) == sorted(
        (command, len(positionals), flags)
        for command, (_, positionals, flags) in COMMANDS.items()
    )
