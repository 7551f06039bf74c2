from __future__ import annotations

import json
import subprocess
import sys

import pytest

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

    def test_usage_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(base_doc()))
        rc = main(["--scenario", str(path), "lattice", "square", "nope"])
        assert rc == 2

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
