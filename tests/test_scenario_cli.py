from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivermoduli.cli import COMMANDS, Overrides, main, run_command
from quivermoduli.errors import ScenarioError, UnknownCommandError
from quivermoduli.scenario import load_scenario


def base_doc():
    """Scenario around the tree shape w + s on a rank-2 lattice."""
    return {
        "lattice": {"gram": [[2, 1], [1, -2]], "even": True},
        "vectors": {"w": [1, 0], "s": [0, 1], "v": [1, 1]},
        "decomposition": [
            {"vector": "w", "multiplicity": 1},
            {"vector": "s", "multiplicity": 1},
        ],
        "stability": {
            "Z0": [{"re": "0", "im": "1/2"}, {"re": "0", "im": "1/2"}],
            "Z": [{"re": "1/4", "im": "1/2"}, {"re": "-1/4", "im": "1/2"}],
        },
        "characters": {"theta": ["1", "-1"]},
        "filtrations": {
            "F": [{"weight": 1, "class": "s"}, {"weight": 0, "class": "w"}]
        },
        "representations": {
            "R": {
                "n": [1, 1],
                "x": [[["0"]], [["0"]], [["0"]]],
                "y": [[["0"]], [["0"]], [["0"]]],
            }
        },
        "budgets": {"box_bound": 3},
    }


@pytest.fixture
def scenario():
    return load_scenario(base_doc())


class TestLoadScenario:
    def test_minimal(self):
        sc = load_scenario({"lattice": {"gram": [[2]]}, "vectors": {"v": [1]}})
        assert sc.lattice.rank == 1 and sc.vectors["v"].coords == (1,)

    def test_round_trip(self, scenario):
        again = load_scenario(scenario.canonical())
        assert again.canonical() == scenario.canonical()
        assert again.digest() == scenario.digest()

    def test_wrong_vector_length(self):
        with pytest.raises(ScenarioError) as err:
            load_scenario({"lattice": {"gram": [[2]]}, "vectors": {"v": [1, 0]}})
        paths = [p for p, _ in err.value.violations]
        assert "$.vectors.v" in paths

    def test_unknown_decomposition_vector(self):
        doc = base_doc()
        doc["decomposition"].append({"vector": "nope", "multiplicity": 1})
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc)
        assert any("nope" in msg for _, msg in err.value.violations)

    def test_bad_rational(self):
        doc = base_doc()
        doc["characters"]["theta"] = ["1", "x"]
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc)
        assert any(path.startswith("$.characters.theta") for path, _ in err.value.violations)

    def test_stability_length_checked(self):
        doc = base_doc()
        doc["stability"]["Z0"] = [{"re": "0", "im": "1"}]
        with pytest.raises(ScenarioError):
            load_scenario(doc)

    def test_asymmetric_gram_rejected(self):
        with pytest.raises(ScenarioError):
            load_scenario({"lattice": {"gram": [[0, 1], [2, 0]]}, "vectors": {}})

    @pytest.mark.parametrize("section,value", [
        ("vectors", [[1, 0]]),
        ("stability", [{"re": "0", "im": "1"}]),
        ("characters", [["1", "-1"]]),
        ("filtrations", [{"weight": 1, "class": "s"}]),
        ("representations", [{"n": [1, 1]}]),
        ("budgets", [6]),
        ("decomposition", 5),
        ("quiver", 5),
    ])
    def test_section_type_is_a_violation(self, section, value):
        doc = base_doc()
        doc[section] = value
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc)
        assert f"$.{section}" in [path for path, _ in err.value.violations]

    @pytest.mark.parametrize("field,path,value", [
        (("decomposition", 0, "multiplicity"), "$.decomposition[0].multiplicity", "x"),
        (("decomposition", 0, "multiplicity"), "$.decomposition[0].multiplicity", 1.5),
        (("filtrations", "F", 0, "weight"), "$.filtrations.F[0].weight", "x"),
        (("budgets", "box_bound"), "$.budgets.box_bound", 2.5),
    ])
    def test_non_integer_is_a_violation(self, field, path, value):
        doc = base_doc()
        *parents, key = field
        entry = doc
        for part in parents:
            entry = entry[part]
        entry[key] = value
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc)
        assert (path, f"not an integer: {value!r}") in err.value.violations

    @pytest.mark.parametrize("field,path", [
        (("representations", "R", "x", 0, 0, 0), "$.representations.R"),
        (("representations", "R", "n", 0), "$.representations.R"),
        (("characters", "theta", 0), "$.characters.theta[0]"),
        (("vectors", "w", 0), "$.vectors.w"),
        (("quiver", "loops", 0), "$.quiver"),
        (("lattice", "gram", 0, 0), "$.lattice.gram"),
    ])
    def test_infinity_is_a_violation(self, field, path):
        # JSON parsers accept Infinity; no exact value corresponds to it.
        doc = base_doc()
        doc["quiver"] = {"loops": [1, 1], "arrows": [[0, 1, 1]]}
        *parents, key = field
        entry = doc
        for part in parents:
            entry = entry[part]
        entry[key] = float("inf")
        with pytest.raises(ScenarioError) as err:
            load_scenario(json.dumps(doc))
        assert path in [p for p, _ in err.value.violations]

    def test_budget_keys_validated(self):
        doc = base_doc()
        doc["budgets"]["bogus"] = 1
        with pytest.raises(ScenarioError):
            load_scenario(doc)

    def test_file_source(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(base_doc()))
        sc = load_scenario(path)
        assert sc.lattice.rank == 2

    def test_text_source(self):
        sc = load_scenario(json.dumps(base_doc()))
        assert sc.lattice.rank == 2


class TestRunCommand:
    def test_every_command_is_deterministic(self, scenario):
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
            json.dumps(first.payload())  # payload must be JSON-safe

    def test_unknown_command(self, scenario):
        with pytest.raises(UnknownCommandError):
            run_command(scenario, "lattice frobnicate", {})

    def test_missing_argument(self, scenario):
        with pytest.raises(UnknownCommandError):
            run_command(scenario, "lattice pair", {"a": "w"})

    def test_jh_result(self, scenario):
        report = run_command(
            scenario, "rep jh", {"rep": "R", "theta": "theta"}
        )
        # theta = (1, -1) destabilizes the zero representation, so the
        # greedy slope-zero chain can only produce the full space.
        assert report.results["complete"] in (True, False)

    def test_stratum_analyze_results(self, scenario):
        report = run_command(scenario, "stratum analyze", {})
        assert report.results["verdict"]["kind"] == "totally_semistable_shape"
        assert report.trace[-1]["step"] == "leaf"

    def test_classify_tss_results(self, scenario):
        report = run_command(scenario, "wall classify-tss", {"v": "v"})
        assert report.results["detected"] is True
        assert report.results["criterion"] == "effective-spherical"

    def test_bound_override(self, scenario):
        report = run_command(
            scenario, "lattice isotropic", {}, Overrides(bound=1)
        )
        assert report.results["searched_bound"] == 1


class TestMainEntry:
    def test_success_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(base_doc()))
        rc = main(["--scenario", str(path), "lattice", "pair", "w", "s"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["value"] == 1

    def test_out_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(base_doc()))
        out = tmp_path / "report.json"
        rc = main([
            "--scenario", str(path), "--out", str(out), "--pretty",
            "stratum", "analyze",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["verdict"]["kind"] == "totally_semistable_shape"

    def test_domain_error_exit_one(self, tmp_path, capsys):
        doc = base_doc()
        # Make the analyzed total class have nonpositive square.  The
        # bundled representation no longer matches the new quiver, so
        # drop it; the failure must come from the analyzer itself.
        doc["lattice"]["gram"] = [[-2, 2], [2, -2]]
        del doc["representations"]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        rc = main(["--scenario", str(path), "stratum", "analyze"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "domain"

    def test_schema_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"lattice": {"gram": [[0, 1], [2, 0]]}}))
        rc = main(["--scenario", str(path), "lattice", "signature"])
        assert rc == 2

    def test_section_type_exit_two(self, tmp_path, capsys):
        doc = base_doc()
        doc["stability"] = [{"re": "0", "im": "1"}]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        rc = main(["--scenario", str(path), "lattice", "signature"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "schema",
            "violations": [["$.stability", "must be an object of name -> basis values"]],
        }

    @pytest.mark.parametrize("action", ["destabilize", "jh"])
    def test_zero_dimension_search_exit_one(self, tmp_path, capsys, action):
        doc = base_doc()
        doc["representations"]["R"] = {"n": [0, 0], "x": [[]] * 3, "y": [[]] * 3}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        rc = main(["--scenario", str(path), "rep", action, "R", "theta"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "domain"

    def test_inconclusive_product_shape_exit_one(self, tmp_path, capsys):
        # An isotropic summand pairing to 1 with the positive one leaves
        # the analyzer inconclusive, which has no product shape.
        doc = base_doc()
        doc["lattice"]["gram"] = [[2, 1], [1, 0]]
        del doc["representations"]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        rc = main(["--scenario", str(path), "stratum", "product-shape"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in err] == [
            {"error": "domain", "message": "verdict inconclusive has no product shape"}
        ]

    def test_usage_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(base_doc()))
        rc = main(["--scenario", str(path), "lattice", "square", "nope"])
        assert rc == 2

    @pytest.mark.parametrize("argv, message", [
        (["lattice", "frobnicate"], "quivermoduli lattice: argument action: invalid choice: 'frobnicate'"),
        (["lattice"], "quivermoduli lattice: the following arguments are required: action"),
        (["lattice", "pair", "w"], "quivermoduli lattice pair: the following arguments are required: b"),
        (["--bound", "x", "lattice", "signature"], "quivermoduli: argument --bound: invalid int value: 'x'"),
        (["lattice", "signature", "extra"], "quivermoduli: unrecognized arguments: extra"),
    ], ids=["unknown-action", "missing-action", "missing-positional", "bad-int", "extra"])
    def test_argparse_failure_is_one_json_line(self, tmp_path, capsys, argv, message):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(base_doc()))
        rc = main(["--scenario", str(path)] + argv)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "usage" and err["message"].startswith(message)

    def test_argparse_failure_in_subprocess(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(base_doc()))
        proc = subprocess.run(
            [sys.executable, "-m", "quivermoduli",
             "--scenario", str(path), "lattice", "frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage"

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: quivermoduli")

    def test_malformed_inline_args_exit_two(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(base_doc()))
        rc = main([
            "--scenario", str(path),
            "stability", "classical-weight", "not-json", "5",
        ])
        assert rc == 2
        rc = main(["--scenario", str(path), "quiver", "dim", "--n", "a,b"])
        assert rc == 2

    def test_subprocess_invocation(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(base_doc()))
        proc = subprocess.run(
            [sys.executable, "-m", "quivermoduli.cli",
             "--scenario", str(path), "quiver", "dim"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["results"]["expected_dimension"] == 4


# --- fuzzing the rep commands ----------------------------------------------

WIRE_RATIONALS = st.one_of(
    st.integers(-2, 2),
    st.sampled_from(["1/2", "-2/3", "3", "0"]),
    st.sampled_from(["x", "1/0", None, 1.5, [], {}, True, "1e3", " 2 ",
                     float("inf"), float("nan")]),
)
NAMES = ("R", "S", "T")  # T is never defined


@st.composite
def rep_scenarios(draw):
    """A scenario document with a small quiver, ``representations`` and
    ``characters`` sections (well-formed or mutated), and an argv for
    one of the ``rep`` commands."""
    vertices = draw(st.integers(1, 2))
    loops = draw(st.lists(st.integers(0, 1), min_size=vertices, max_size=vertices))
    edges = draw(st.integers(0, 2)) if vertices == 2 else 0
    ends = [(i, i) for i, g in enumerate(loops) for _ in range(g)] + [(0, 1)] * edges

    def block(rows, cols):
        return [[draw(WIRE_RATIONALS) for _ in range(cols)] for _ in range(rows)]

    reps = {}
    for name in draw(st.lists(st.sampled_from(NAMES[:2]), unique=True, max_size=2)):
        n = draw(st.lists(st.integers(0, 2), min_size=vertices, max_size=vertices))
        rep = {"n": n, "x": [block(n[t], n[s]) for s, t in ends],
               "y": [block(n[s], n[t]) for s, t in ends]}
        mutation = draw(st.sampled_from([None, None, "n", "x", "drop-y", "scalar"]))
        if mutation == "n":
            rep["n"] = draw(st.one_of(st.lists(WIRE_RATIONALS, max_size=3), WIRE_RATIONALS))
        elif mutation == "x":
            rep["x"] = draw(st.one_of(st.lists(WIRE_RATIONALS, max_size=2), WIRE_RATIONALS))
        elif mutation == "drop-y":
            del rep["y"]
        elif mutation == "scalar":
            rep = draw(WIRE_RATIONALS)
        reps[name] = rep
    characters = {
        name: draw(st.one_of(
            st.lists(WIRE_RATIONALS, min_size=vertices, max_size=vertices),
            st.lists(WIRE_RATIONALS, max_size=3),
            WIRE_RATIONALS,
        ))
        for name in draw(st.lists(st.sampled_from(NAMES[:2]), unique=True, max_size=2))
    }
    doc = {
        "lattice": {"gram": [[2]]},
        "quiver": {"loops": loops, "arrows": [[0, 1, edges]] if edges else []},
        "representations": reps,
        "characters": characters,
    }
    action, arity = draw(st.sampled_from(
        [("moment-map", 1), ("check-fiber", 1), ("destabilize", 2), ("jh", 2)]
    ))
    arity += draw(st.sampled_from([0, 0, 0, -1, 1]))  # mostly the right count
    argv = ["rep", action] + [draw(st.sampled_from(NAMES)) for _ in range(arity)]
    for flag in draw(st.lists(st.sampled_from(["--seed", "--budget"]), unique=True)):
        argv = [flag, str(draw(st.integers(-1, 40)))] + argv
    return doc, argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=rep_scenarios())
def test_rep_commands_end_in_one_verdict(case):
    doc, argv = case
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["--scenario", json.dumps(doc)] + argv)
    assert rc in (0, 1, 2)
    if rc == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] in ("usage", "schema", "domain")
