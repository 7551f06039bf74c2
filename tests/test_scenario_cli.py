from __future__ import annotations

import argparse
import io
import json
import math
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quivermoduli import cli
from quivermoduli.cli import COMMANDS, Overrides, main, run_command
from quivermoduli.errors import BudgetExceededError, ScenarioError, UnknownCommandError
from quivermoduli.scenario import MAX_PRNG_SAMPLES, MAX_REP_SQUARES, load_scenario


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


def diagonal_doc(rank):
    """A scenario with the Gram matrix 2 * I of the given rank."""
    gram = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    return {"lattice": {"gram": gram}}


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

    @pytest.mark.parametrize("field,path,value", [
        (("lattice", "gram", 0, 1), "$.lattice.gram", 1.5),
        (("lattice", "gram", 1, 1), "$.lattice.gram", True),
        (("lattice", "gram", 1, 0), "$.lattice.gram", "1"),
        (("vectors", "v", 0), "$.vectors.v", 1.5),
        (("vectors", "v", 1), "$.vectors.v", True),
        (("vectors", "v", 0), "$.vectors.v", "1"),
    ])
    def test_lattice_entry_is_read_as_an_exact_int(self, field, path, value):
        # int() would read the Gram [[2, 1.5], [1.5, -2]] as ((2, 1), (1, -2)),
        # and the vectors [1.5, true] and ["1", 2] as (1, 1) and (1, 2).
        doc = base_doc()
        *parents, key = field
        entry = doc
        for part in parents:
            entry = entry[part]
        entry[key] = value
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc)
        assert (path, f"not an integer: {value!r}") in err.value.violations

    @pytest.mark.parametrize("gram", [5, [5], ["12"]])
    def test_gram_rows_must_be_lists(self, gram):
        doc = base_doc()
        doc["lattice"]["gram"] = gram
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc)
        assert [path for path, _ in err.value.violations] == ["$.lattice.gram"]

    def test_vector_string_is_a_violation(self):
        # Iterating a string would read "11" as the coordinates (1, 1).
        doc = base_doc()
        doc["vectors"]["v"] = "11"
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc)
        assert ("$.vectors.v", "not a list of integers: '11'") in err.value.violations

    @pytest.mark.parametrize("even", ["no", 0, 1, None, "true"])
    def test_even_must_be_a_json_boolean(self, even):
        # bool("no") is True, so reading the flag with bool() declares it.
        doc = base_doc()
        doc["lattice"]["even"] = even
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc)
        assert err.value.violations == [("$.lattice.even", f"not a boolean: {even!r}")]

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
        (("decomposition", 0, "multiplicity"), "$.decomposition[0].multiplicity", True),
        (("budgets", "search_budget"), "$.budgets.search_budget", True),
        (("representations", "R", "n", 0), "$.representations.R.n", 1.5),
        (("representations", "R", "n", 1), "$.representations.R.n", False),
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

    def test_dimension_vector_string_is_a_violation(self):
        # Iterating a string would read "11" as the dimension vector (1, 1).
        doc = base_doc()
        doc["representations"]["R"]["n"] = "11"
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc)
        assert ("$.representations.R", "expected {n, x, y}") in err.value.violations

    @pytest.mark.parametrize("field,path", [
        (("decomposition", 0, "vector"), "$.decomposition[0].vector"),
        (("filtrations", "F", 1, "class"), "$.filtrations.F[1].class"),
    ])
    @pytest.mark.parametrize("name", [["w"], {"w": 1}, [], {}])
    def test_non_string_name_is_a_violation(self, field, path, name):
        doc = base_doc()
        *parents, key = field
        entry = doc
        for part in parents:
            entry = entry[part]
        entry[key] = name
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc)
        assert path in [p for p, _ in err.value.violations]

    @pytest.mark.parametrize("quiver", [
        {"loops": ["x", 0]},
        {"loops": [1.5, 0]},
        {"loops": "12"},
        {"loops": [1, 0], "arrows": [[0, 1]]},
        {"loops": [1, 0], "arrows": [5]},
        {"loops": [1, 0], "arrows": [[0, 1, "x"]]},
        {"loops": [1, 0], "arrows": [[0, 1, 0.5]]},
    ])
    def test_malformed_quiver_is_a_violation(self, quiver):
        # Entries that int() would truncate, split or reject are reported,
        # not read.
        doc = base_doc()
        doc["quiver"] = quiver
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc)
        assert "$.quiver" in [path for path, _ in err.value.violations]

    @pytest.mark.parametrize("field,path", [
        (("representations", "R", "x", 0, 0, 0), "$.representations.R"),
        (("representations", "R", "n", 0), "$.representations.R.n"),
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

    def test_representation_size_is_capped(self):
        # One vertex and no arrows: the moment map alone would build a
        # 20000 x 20000 block.
        doc = {"lattice": {"gram": [[2]]}, "quiver": {"loops": [0], "arrows": []},
               "representations": {"R": {"n": [20000]}}}
        started = time.perf_counter()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["--scenario", json.dumps(doc), "rep", "check-fiber", "R"])
        assert time.perf_counter() - started < 1.0
        assert rc == 2 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "schema"
        assert "$.representations.R.n" in json.dumps(error)

    def test_representation_at_the_cap_loads(self):
        side = math.isqrt(MAX_REP_SQUARES // 4)
        doc = {"lattice": {"gram": [[2]]}, "quiver": {"loops": [0] * 4, "arrows": []},
               "representations": {"R": {"n": [side] * 4}}}
        assert load_scenario(doc).representations["R"].n == (side,) * 4
        doc["representations"]["R"]["n"][0] += 1
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc)
        assert [path for path, _ in err.value.violations] == ["$.representations.R.n"]

    def test_prng_samples_are_capped(self):
        # One vertex and no arrows: no closure applies a map, so the
        # search budget of 1 would stop none of the PRNG seed sets.
        doc = {"lattice": {"gram": [[2]]}, "quiver": {"loops": [0], "arrows": []},
               "representations": {"R": {"n": [1]}}, "characters": {"theta": ["0"]},
               "budgets": {"search_budget": 1, "prng_samples": 200_000}}
        started = time.perf_counter()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["--scenario", json.dumps(doc), "rep", "destabilize", "R", "theta"])
        assert time.perf_counter() - started < 1.0
        assert rc == 2 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "schema"
        assert "$.budgets.prng_samples" in json.dumps(error)
        doc["budgets"]["prng_samples"] = MAX_PRNG_SAMPLES
        assert load_scenario(doc).budgets["prng_samples"] == MAX_PRNG_SAMPLES

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

    @pytest.mark.parametrize("steps,message", [
        ([{"weight": 0, "class": "s"}, {"weight": 1, "class": "w"}],
         "weights must strictly decrease; got 0 then 1"),
        ([], "a weighted filtration needs at least one step"),
    ])
    @pytest.mark.parametrize("command", [
        ["stability", "weight", "Z0", "F"],
        ["stability", "kclass", "F"],
    ])
    def test_malformed_filtration_exit_two(self, capsys, steps, message, command):
        doc = base_doc()
        doc["filtrations"]["F"] = steps
        rc = main(["--scenario", json.dumps(doc), *command])
        assert rc == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "schema", "violations": [["$.filtrations.F", message]],
        }

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_scenario_path_exit_two(self, tmp_path, capsys, where):
        source = str(tmp_path / "no" / "such.json" if where == "missing" else tmp_path)
        rc = main(["--scenario", source, "lattice", "signature"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "schema",
            "violations": [["$", f"no readable scenario file at {source!r} "
                                 "and not inline JSON"]],
        }

    def test_scenario_file_of_bad_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text("{")
        rc = main(["--scenario", str(path), "lattice", "signature"])
        assert rc == 2
        [[where, message]] = json.loads(capsys.readouterr().err)["violations"]
        assert where == "$" and message.startswith("invalid JSON: ")

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

    def test_zero_dimension_simple_exists_exit_one(self, capsys):
        rc = main(["--scenario", json.dumps(base_doc()), "quiver", "simple-exists",
                   "--n", "0,0"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "domain"

    def test_huge_loop_count_exit_two(self, capsys):
        # A summand of square 2k - 2 carries k loops; the representation's
        # three maps are rejected before any arrow list is built.
        doc = base_doc()
        doc["lattice"]["gram"][0][0] = 2 * 10**30 - 2
        start = time.perf_counter()
        rc = main(["--scenario", json.dumps(doc), "quiver", "build"])
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "schema"

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

    @pytest.mark.parametrize("doc, argv", [
        (diagonal_doc(10), ["lattice", "isotropic"]),
        (base_doc(), ["--bound", "100000", "lattice", "isotropic"]),
        (base_doc(), ["--bound", "100000", "wall", "classify-tss", "v"]),
    ], ids=["rank-10", "isotropic-bound", "classify-tss-bound"])
    def test_box_past_the_cap_exit_one(self, capsys, doc, argv):
        # Each box would take hours to scan; the refusal comes first.
        start = time.perf_counter()
        rc = main(["--scenario", json.dumps(doc)] + argv)
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "domain"

    def test_box_at_the_cap_is_scanned(self, scenario, monkeypatch):
        # In rank 2, bound 2 spans 24 cells and bound 3 spans 48.
        monkeypatch.setattr(cli, "MAX_BOX_CELLS", 24)
        report = run_command(scenario, "lattice isotropic", {}, Overrides(bound=2))
        assert report.results["searched_bound"] == 2
        with pytest.raises(BudgetExceededError):
            run_command(scenario, "lattice isotropic", {}, Overrides(bound=3))

    @pytest.mark.parametrize("alpha", ["7", "1,0,0,0,0,0"])
    def test_alpha_of_the_wrong_length_exit_one(self, tmp_path, capsys, alpha):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(base_doc()))
        rc = main(["--scenario", str(path), "walls", "correspondence", alpha, "Z"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "domain"

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
        (["--json", "lattice", "signature"], "quivermoduli: unrecognized arguments: --json"),
        (["--out", "/nonexistent/dir/r.json", "lattice", "signature"],
         "[Errno 2] No such file or directory: '/nonexistent/dir/r.json'"),
        (["--out", ".", "lattice", "signature"], "[Errno 21] Is a directory: '.'"),
    ], ids=["unknown-action", "missing-action", "missing-positional", "bad-int", "extra",
            "removed-json-flag", "out-in-missing-directory", "out-is-a-directory"])
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
        for argv, usage in ((["--help"], "quivermoduli [-h] --scenario"),
                            (["lattice", "--help"], "quivermoduli lattice [-h]"),
                            (["lattice", "pair", "--help"], "quivermoduli lattice pair [-h] a b")):
            assert main(argv) == 0
            assert capsys.readouterr().out.startswith(f"usage: {usage}")

    def test_one_command_builds_three_parsers(self, tmp_path, monkeypatch):
        # The top parser, the group parser and the command parser: none
        # for the other groups and commands.
        path = tmp_path / "s.json"
        path.write_text(json.dumps(base_doc()))
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["--scenario", str(path), "walls", "xi", "Z", "--z0", "Z0"]) == 0
        assert built == ["quivermoduli", "quivermoduli walls", "quivermoduli walls xi"]

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
        # A non-list term or coefficient list and an infinite coefficient
        # used to escape as TypeError and OverflowError tracebacks; a
        # fractional, boolean or string entry used to be truncated or split.
        for terms in ("5", "[[1,5]]", "[[1,[1e400]]]", "[[1]]", '[["a",[1]]]',
                      "[[1.5,[1,2]]]", '[[1,"12"]]', "[[true,[1,2]]]", "[[1,[2.9]]]"):
            capsys.readouterr()
            rc = main(["--scenario", str(path), "stability", "classical-weight", terms, "5"])
            assert rc == 2
            assert json.loads(capsys.readouterr().err)["error"] == "usage"

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


def assert_one_verdict(doc, argv):
    """Exit code 0, 1 or 2, and one JSON document: the report on
    stdout, or one error line on stderr; never a traceback."""
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


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=rep_scenarios())
def test_rep_commands_end_in_one_verdict(case):
    assert_one_verdict(*case)


# --- fuzzing the walls and stability commands ------------------------------

VECTOR_NAMES = ("w", "s", "v", "u")   # u is never defined
WIRE_NAMES = st.one_of(st.sampled_from(VECTOR_NAMES),
                       st.sampled_from([["w"], {"w": 1}, [], {}, 5, None, True]))
FUNCTION_NAMES = ("Z0", "Z", "Y")     # Y is never defined
EXACT_RATIONALS = st.sampled_from(["0", "1/2", "-1/4", "3", "-2/3", "1", "-1", 2, 0])
INLINE = st.one_of(
    st.sampled_from(["1,0", "0,1", "1,1", "2,-1", "1", "1,0,0", "", ",", "x", "1,,2",
                     "1.5,0", "w,s", "w", "s,v,u", "-1,-1", "0,0"]),
    st.text(alphabet="0123456789,-x ", max_size=6),
)
SAMPLE_LISTS = st.sampled_from(["Z", "Z0", "Z,Z0", "Z0,Z,Z", "Z,Y", "", ",", "Z,,Z0"])
CLASSICAL_TERMS = st.sampled_from([
    "[[1,[0,1]],[-1,[0,1]]]", "[]", "[[1,5]]", "5", "[[1]]", "[[1,[1e400]]]",
    '[["a",[1]]]', "[[1,[1,2,3],4]]", "{}", "[[1,{}]]", "x", "[[1.5,[2]]]",
])
ELLS = st.sampled_from(["5", "0", "-1", "x", "1.5", "", "99"])


@st.composite
def walls_and_stability_scenarios(draw):
    """The tree scenario with well-formed replacements in its
    ``vectors``, ``stability`` and ``characters`` sections, at most one
    of these, ``decomposition`` or the filtration classes mutated, and
    an argv for one ``walls`` or ``stability`` action."""
    doc = base_doc()
    del doc["representations"]
    target = draw(st.sampled_from(
        [None, None, "vectors", "decomposition", "stability", "characters", "filtrations"]))

    def pick(exact, wire, section):
        return draw(wire if section == target else exact)

    gaussian = st.fixed_dictionaries({"re": EXACT_RATIONALS, "im": EXACT_RATIONALS})
    wire_gaussian = st.one_of(
        st.fixed_dictionaries({"re": WIRE_RATIONALS, "im": WIRE_RATIONALS}),
        st.sampled_from([{"re": "1"}, {"re": "1", "im": "0", "x": "1"}, [], "1/2", None]),
    )
    wire_entries = st.one_of(st.lists(WIRE_RATIONALS, max_size=3), WIRE_RATIONALS)
    # w and s carry the decomposition, so they are replaced less often
    for name in draw(st.lists(st.sampled_from("vvuuws"), unique=True, max_size=2)):
        doc["vectors"][name] = pick(
            st.lists(st.integers(-3, 3), min_size=2, max_size=2), wire_entries, "vectors")
    if target == "decomposition":
        mutation = draw(st.sampled_from(["drop", "mults", "names", "scalar"]))
        if mutation == "drop":
            del doc["decomposition"]
        elif mutation == "mults":
            for entry in doc["decomposition"]:
                entry["multiplicity"] = draw(st.one_of(st.integers(-1, 3), WIRE_RATIONALS))
        elif mutation == "names":
            doc["decomposition"] = [{"vector": draw(WIRE_NAMES),
                                     "multiplicity": draw(st.integers(1, 2))}
                                    for _ in range(draw(st.integers(0, 3)))]
        else:
            doc["decomposition"] = draw(WIRE_RATIONALS)
    if target == "filtrations":
        for step in doc["filtrations"]["F"]:
            step["class"] = draw(WIRE_NAMES)
    for name in draw(st.lists(st.sampled_from(FUNCTION_NAMES), unique=True, max_size=3)):
        doc["stability"][name] = pick(
            st.lists(gaussian, min_size=2, max_size=2),
            st.one_of(st.lists(wire_gaussian, max_size=3), wire_gaussian), "stability")
    for name in draw(st.lists(st.sampled_from(("theta", "phi")), unique=True, max_size=2)):
        doc["characters"][name] = pick(
            st.lists(EXACT_RATIONALS, min_size=2, max_size=2), wire_entries, "characters")
    z, v = st.sampled_from(FUNCTION_NAMES), st.sampled_from(VECTOR_NAMES)
    action = draw(st.sampled_from([
        ["walls", "gamma", z], ["walls", "slice-check", z], ["walls", "xi", z],
        ["walls", "correspondence", INLINE, SAMPLE_LISTS],
        ["walls", "locate", st.sampled_from(("theta", "phi", "psi"))],
        ["stability", "normalize", z, v], ["stability", "phase", z, v],
        ["stability", "slope", z, v], ["stability", "weight", z, st.sampled_from(("F", "G"))],
        ["stability", "theta-unstable", z, v, INLINE], ["stability", "chi-sigma", z],
        ["stability", "classical-weight", CLASSICAL_TERMS, ELLS],
        ["stability", "kclass", st.sampled_from(("F", "G"))],
    ]))
    argv = [part if isinstance(part, str) else draw(part) for part in action]
    argv = argv[:len(argv) + draw(st.sampled_from([0, 0, 0, -1]))]  # mostly complete
    if argv[0] == "walls" and draw(st.booleans()):
        argv += ["--n", draw(INLINE)] if argv[1] == "locate" else ["--z0", draw(z)]
    return doc, argv


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=walls_and_stability_scenarios())
def test_walls_and_stability_commands_end_in_one_verdict(case):
    assert_one_verdict(*case)


# --- fuzzing the quiver commands -------------------------------------------

COUNTS = st.one_of(st.integers(-1, 3), WIRE_RATIONALS)
DIMENSION_FLAGS = st.one_of(
    # wrong lengths, negative and non-integer entries, and boxes just past
    # the default root budget of 200 000 cells (200 001 and 200 704)
    st.sampled_from(["1,1", "2,1", "1", "1,1,1", "0,0", "-1,2", "2,-1", "1.5,1", "x",
                     "", ",", "1,,1", " 1,1", "200000", "447,447", "1,1,1,1,1"]),
    st.lists(st.integers(-1, 5), min_size=1, max_size=4).map(
        lambda n: ",".join(map(str, n))),
)


@st.composite
def quiver_scenarios(draw):
    """The tree scenario with an explicit ``quiver`` section, well-formed
    or mutated (loops, an extra or malformed arrow, a bad multiplicity,
    a scalar section), a root budget, and an argv for ``quiver build``,
    ``dim``, ``roots`` or ``simple-exists``."""
    doc = base_doc()
    del doc["representations"]
    vertices = draw(st.integers(1, 3))
    loops = draw(st.lists(st.integers(0, 2), min_size=vertices, max_size=vertices))
    arrows = [[i, j, draw(st.integers(0, 3))]
              for i in range(vertices) for j in range(i + 1, vertices)]
    mutation = draw(st.sampled_from(
        [None, None, None, "loops", "arrow", "multiplicity", "scalar"]))
    if mutation == "loops":
        loops = draw(st.one_of(st.lists(COUNTS, max_size=3), COUNTS))
    elif mutation == "arrow":
        # out of range, self-arrows, duplicates, wrong lengths, scalars
        arrows.append(draw(st.one_of(st.lists(st.integers(-1, 3), max_size=4), COUNTS)))
    elif mutation == "multiplicity" and arrows:
        draw(st.sampled_from(arrows))[2] = draw(COUNTS)
    doc["quiver"] = draw(COUNTS) if mutation == "scalar" else {"loops": loops, "arrows": arrows}
    doc["budgets"]["root_budget"] = draw(st.sampled_from([200_000, 200_000, 50, 1, 0]))
    action = draw(st.sampled_from(["build", "dim", "roots", "simple-exists"]))
    argv = ["quiver", action]
    if action != "build" and draw(st.booleans()):
        argv += ["--n", draw(DIMENSION_FLAGS)]
    if draw(st.booleans()):
        argv = ["--budget", str(draw(st.integers(-1, 300)))] + argv
    return doc, argv


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=quiver_scenarios())
def test_quiver_commands_end_in_one_verdict(case):
    assert_one_verdict(*case)


# --- fuzzing the lattice, wall and stratum commands ------------------------

GRAM_ENTRIES = st.one_of(
    st.integers(-3, 3), st.sampled_from([10**30, -(10**40)]), WIRE_RATIONALS)
# Rank-2 Gram matrices on which w = (1, 0) and s = (0, 1) form a valid
# decomposition: the tree, split, merge, isotropic and hyperbolic shapes.
DECOMPOSABLE_GRAMS = (((2, 1), (1, -2)), ((2, 0), (0, -2)), ((2, 2), (2, -2)),
                      ((2, 1), (1, 0)), ((4, 1), (1, -2)))
# Mostly small boxes; the large values are past MAX_BOX_CELLS in every
# rank from 1 up, and -1 is below every search's minimum bound.
BOUNDS = st.one_of(st.integers(-1, 3), st.sampled_from([24, 100_000, 10**6]))
BUDGETS = st.one_of(st.integers(-1, 300), st.just(10**6))


@st.composite
def lattice_scenarios(draw):
    """A scenario with a symmetric integer Gram matrix of rank 0 to 10
    (mostly 2), the basis vectors w and s as a decomposition, at most
    one of ``lattice.gram``, ``vectors`` and ``decomposition`` mutated,
    box and root budgets, and an argv for one ``lattice``, ``wall`` or
    ``stratum`` action."""
    rank = draw(st.sampled_from([0, 1, 2, 2, 2, 2, 2, 3, 4, 10]))
    even = draw(st.booleans())
    decomposable = rank == 2 and even and draw(st.booleans())
    if decomposable:
        gram = [list(row) for row in draw(st.sampled_from(DECOMPOSABLE_GRAMS))]
    else:
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            gram[i][i] = draw(st.integers(-2, 2).map(lambda x: 2 * x) if even
                              else st.integers(-3, 3))
            for j in range(i + 1, rank):
                gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    target = draw(st.sampled_from(
        [None, None, "gram", "vectors", "decomposition"]))
    if target == "gram":
        mutation = draw(st.sampled_from(["entry", "asymmetric", "ragged", "scalar"]))
        if mutation == "entry" and rank:
            gram[draw(st.integers(0, rank - 1))][draw(st.integers(0, rank - 1))] = draw(
                GRAM_ENTRIES)
        elif mutation == "asymmetric" and rank > 1:
            gram[0][1] = gram[1][0] + draw(st.integers(1, 3))
        elif mutation == "ragged" and rank:
            gram[draw(st.integers(0, rank - 1))].append(draw(st.integers(-3, 3)))
        elif mutation == "scalar":
            gram = draw(GRAM_ENTRIES)
    vectors = {name: [int(i == k) for i in range(rank)] for k, name in enumerate("ws")}
    vectors["v"] = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
    if target == "vectors":
        for name in draw(st.lists(st.sampled_from("wsv"), unique=True, min_size=1)):
            vectors[name] = draw(st.one_of(
                st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
                st.lists(GRAM_ENTRIES, max_size=3), GRAM_ENTRIES))
    doc = {
        "lattice": {"gram": gram, "even": even},
        "vectors": vectors,
        "decomposition": [{"vector": "w", "multiplicity": 1},
                          {"vector": "s", "multiplicity": draw(st.integers(1, 2))}],
        "stability": {"Z0": [{"re": draw(EXACT_RATIONALS), "im": "1/2"}] * rank},
        "budgets": {"box_bound": draw(st.sampled_from([1, 2, 6])),
                    "root_budget": draw(st.sampled_from([200_000, 50, 1]))},
    }
    if target == "decomposition":
        mutation = draw(st.sampled_from(["drop", "mults", "names", "scalar"]))
        if mutation == "drop":
            del doc["decomposition"]
        elif mutation == "mults":
            for entry in doc["decomposition"]:
                entry["multiplicity"] = draw(st.one_of(st.integers(-1, 3), WIRE_RATIONALS))
        elif mutation == "names":
            doc["decomposition"] = [{"vector": draw(st.sampled_from(VECTOR_NAMES)),
                                     "multiplicity": draw(st.integers(1, 2))}
                                    for _ in range(draw(st.integers(0, 3)))]
        else:
            doc["decomposition"] = draw(WIRE_RATIONALS)
    elif not decomposable and draw(st.booleans()):
        del doc["decomposition"]  # w and s rarely make a valid one here
    v = st.sampled_from(VECTOR_NAMES)
    action = draw(st.sampled_from([
        ["lattice", "pair", v, v], ["lattice", "square", v], ["lattice", "classify", v],
        ["lattice", "signature"], ["lattice", "isotropic"], ["wall", "classify-tss", v],
        ["stratum", "analyze"], ["stratum", "product-shape"], ["stratum", "simple-bridge"],
    ]))
    argv = [part if isinstance(part, str) else draw(part) for part in action]
    argv = argv[:len(argv) + draw(st.sampled_from([0, 0, 0, 0, 0, -1]))]  # mostly complete
    if argv[:2] == ["wall", "classify-tss"] and draw(st.booleans()):
        argv += ["--z0", draw(st.sampled_from(FUNCTION_NAMES))]
    if draw(st.booleans()):
        argv = ["--bound", str(draw(BOUNDS))] + argv
    if draw(st.booleans()):
        argv = ["--budget", str(draw(BUDGETS))] + argv
    return doc, argv


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=lattice_scenarios())
# boxes past MAX_BOX_CELLS: 5 764 800 cells, 1 002 000 cells and about 4 * 10**12
@example(case=(diagonal_doc(4), ["--bound", "24", "lattice", "isotropic"]))
@example(case=(base_doc(), ["--bound", "500", "wall", "classify-tss", "v"]))
@example(case=(base_doc(), ["--bound", "1000000", "lattice", "isotropic"]))
def test_lattice_wall_and_stratum_commands_end_in_one_verdict(case):
    assert_one_verdict(*case)
