import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bivariant.workbench import build_subsets_instance, bundle_to_json

HERE = Path(__file__).parent
SRC = HERE.parent / "src"
TERMINAL = HERE / "fixtures" / "terminal.json"


def run_cli(*argv, check=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "bivariant.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    if check and result.returncode != 0:
        raise AssertionError(f"cli failed: {result.stderr}\n{result.stdout}")
    return result


@pytest.fixture(scope="module")
def subsets_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("instances") / "subsets2.json"
    doc = bundle_to_json(build_subsets_instance(2))
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def mutated_unit_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("instances") / "mutated_unit.json"
    doc = bundle_to_json(build_subsets_instance(2))
    doc["theories"]["B"]["units"]["01"] = [0, 0]
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return path


class TestValidate:
    def test_ok(self, subsets_file):
        result = run_cli("validate", str(subsets_file))
        assert result.returncode == 0
        assert "OK" in result.stdout

    def test_violation_exit_code(self, mutated_unit_file):
        result = run_cli("validate", str(mutated_unit_file))
        assert result.returncode == 1


class TestCoopCommand:
    def test_terminal_json_group(self):
        result = run_cli("--json", "coop", str(TERMINAL), "--functor", "F", "--morphism", "E>E", "--degree", "0")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["result"]["group"] == {"free_rank": 1, "torsion": []}
        assert doc["violations"] == []
        assert doc["timing_ms"] is None

    def test_subsets_text(self, subsets_file):
        result = run_cli("coop", str(subsets_file), "--functor", "F", "--morphism", "01>01", "--degree", "0")
        assert result.returncode == 0
        assert "Z^2" in result.stdout

    def test_unknown_functor_is_input_error(self, subsets_file):
        result = run_cli("coop", str(subsets_file), "--functor", "nope", "--morphism", "01>01", "--degree", "0")
        assert result.returncode == 2


class TestOpCommand:
    def test_terminal(self):
        result = run_cli("--json", "op", str(TERMINAL), "--functor", "h", "--morphism", "E>E", "--degree", "0")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["result"]["group"] == {"free_rank": 1, "torsion": []}

    def test_subsets(self, subsets_file):
        result = run_cli("--json", "op", str(subsets_file), "--functor", "h", "--morphism", "0>01", "--degree", "0")
        doc = json.loads(result.stdout)
        assert doc["result"]["group"] == {"free_rank": 1, "torsion": []}


class TestAxiomsCommand:
    def test_pass(self, subsets_file):
        result = run_cli("axioms", str(subsets_file), "--theory", "B")
        assert result.returncode == 0
        assert "PASS" in result.stdout

    def test_mutated_unit_names_axiom_and_object(self, mutated_unit_file):
        result = run_cli("axioms", str(mutated_unit_file), "--theory", "B")
        assert result.returncode == 1
        assert "units" in result.stdout
        assert "01" in result.stdout

    def test_json_violations(self, mutated_unit_file):
        result = run_cli("--json", "axioms", str(mutated_unit_file), "--theory", "B")
        assert result.returncode == 1
        doc = json.loads(result.stdout)
        kinds = {v["kind"] for v in doc["violations"]}
        assert "units" in kinds


class TestGrothCommand:
    def test_pass(self, subsets_file):
        result = run_cli("groth", str(subsets_file), "--map", "gamma")
        assert result.returncode == 0


class TestBcooptCommand:
    def test_mod_two(self, subsets_file):
        result = run_cli(
            "--json", "bcoopt", str(subsets_file), "--nat", "T", "--morphism", "01>01", "--degree", "0"
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["result"]["subgroup"] == {"free_rank": 2, "torsion": []}
        assert all(g["companion_unique"] for g in doc["result"]["generators"])


class TestDemoCommand:
    def test_demo_subsets_two(self):
        result = run_cli("demo", "subsets", "--n", "2")
        assert result.returncode == 0
        assert "7 axioms + Units" in result.stdout
        assert "PASS" in result.stdout
        assert "all checks passed" in result.stdout


class TestExitCodes:
    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json", encoding="utf-8")
        result = run_cli("validate", str(bad))
        assert result.returncode == 2
        assert "input error" in result.stderr

    def test_schema_error_has_location(self, tmp_path, subsets_file):
        doc = json.loads(Path(subsets_file).read_text())
        doc["morphisms"][0]["src"] = "nope"
        bad = tmp_path / "badref.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        result = run_cli("validate", str(bad))
        assert result.returncode == 2
        assert "morphisms[0].src" in result.stderr

    def test_missing_file(self):
        result = run_cli("validate", "/nonexistent/instance.json")
        assert result.returncode == 2


class TestDeterminism:
    def test_byte_identical_runs(self, subsets_file):
        a = run_cli("--json", "coop", str(subsets_file), "--functor", "F", "--morphism", "01>01", "--degree", "0")
        b = run_cli("--json", "coop", str(subsets_file), "--functor", "F", "--morphism", "01>01", "--degree", "0")
        assert a.stdout == b.stdout
        assert a.stdout.endswith("\n")

    def test_demo_deterministic(self):
        a = run_cli("demo", "subsets", "--n", "1")
        b = run_cli("demo", "subsets", "--n", "1")
        assert a.stdout == b.stdout


def broken_functor_file(tmp_path, subsets_file, functor):
    doc = json.loads(Path(subsets_file).read_text())
    # break functoriality of a non-identity map on purpose
    doc["functors"][functor]["maps"]["01>01@0"] = [[1, 1], [0, 1]]
    bad = tmp_path / "badfunctor.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    return bad


class TestUsedComponentValidation:
    def test_coop_on_broken_functor_exits_one(self, tmp_path, subsets_file):
        bad = broken_functor_file(tmp_path, subsets_file, "F")
        result = run_cli("coop", str(bad), "--functor", "F", "--morphism", "01>01", "--degree", "0")
        assert result.returncode == 1
        assert "identity-map" in result.stdout or "functoriality" in result.stdout

    @pytest.mark.parametrize(
        "command, functor, args",
        [
            ("coop", "F", ["--functor", "F"]),
            ("op", "h", ["--functor", "h"]),
            ("bcoopt", "F", ["--nat", "T"]),
        ],
    )
    def test_precheck_failure_reports_inputs(self, tmp_path, subsets_file, command, functor, args):
        bad = broken_functor_file(tmp_path, subsets_file, functor)
        argv = [*args, "--morphism", "01>01", "--degree", "0"]
        result = run_cli("--json", command, str(bad), *argv)
        assert result.returncode == 1
        doc = json.loads(result.stdout)
        assert doc["violations"]
        expected = {"file": str(bad), "morphism": "01>01", "degree": 0}
        expected.update({args[0].lstrip("-"): args[1]})
        assert doc["inputs"] == expected

    def test_timings_flag(self, subsets_file):
        result = run_cli("--json", "--timings", "axioms", str(subsets_file), "--theory", "B")
        doc = json.loads(result.stdout)
        assert isinstance(doc["timing_ms"], int)


class TestBrokenSite:
    """A chosen square that does not commute is reported, never pasted."""

    @pytest.fixture(scope="class")
    def flip_file(self, tmp_path_factory):
        from bivariant.workbench import InstanceBundle
        from test_nonposet_and_degrees import constant_theory, flip_site

        site = flip_site()
        doc = bundle_to_json(InstanceBundle(site, theories={"B": constant_theory(site)}))
        for entry in doc["pullbacks"]:
            if entry["f"] == "e" and entry["g"] == "e":
                entry.update(apex="x", top="e", left="s")
        path = tmp_path_factory.mktemp("instances") / "flip_broken.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("argv", [["axioms", "--theory", "B"], ["validate"]])
    def test_reports_square_commutes(self, flip_file, argv):
        command, *rest = argv
        result = run_cli("--json", command, str(flip_file), *rest)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        doc = json.loads(result.stdout)
        assert "square-commutes" in {v["kind"] for v in doc["violations"]}
