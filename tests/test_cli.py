import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bivariant import cli
from bivariant.workbench import build_graded_instance, build_subsets_instance, bundle_to_json

HERE = Path(__file__).parent
SRC = HERE.parent / "src"
TERMINAL = HERE / "fixtures" / "terminal.json"
CLI_OUTPUTS = HERE / "fixtures" / "cli_outputs.json"


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

    def test_timings_in_text_mode(self):
        result = run_cli("--timings", "demo", "subsets", "--n", "1")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        timings = [l for l in lines if l.startswith("timing_ms")]
        assert len(timings) == 1
        assert re.fullmatch(r"timing_ms: \d+", timings[0])
        assert lines[-1] == timings[0]


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


@pytest.mark.parametrize(
    "command, functor, message",
    [
        ("op", "F", "operational classes need a covariant functor"),
        ("coop", "h", "co-operational classes need a contravariant functor"),
    ],
    ids=["op", "coop"],
)
def test_a_functor_of_the_other_variance_is_an_input_error(subsets_file, capsys, command, functor, message):
    code = cli.main([command, str(subsets_file), "--functor", functor, "--morphism", "0>01", "--degree", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"input error: {message}\n"
    assert captured.out == ""


def cli_outputs(directory):
    """{command line: sha256 of stdout} for coop, op and bcoopt, in text and
    --json, at every morphism of subsets(2) and graded(2) at degree 0: coop for
    every contravariant functor, op for every covariant one and bcoopt for every
    transformation, graded psi also at degree 2.

    The commands run in-process with directory as the working directory, where
    the instance files are written, so the file names they print are relative.
    """
    bundles = {"subsets2.json": build_subsets_instance(2), "graded2.json": build_graded_instance(2)}
    runs = []
    for fname, bundle in bundles.items():
        morphisms = [m.name for m in bundle.site.morphisms]
        for functor in sorted(bundle.functors):
            command = "coop" if bundle.functors[functor].variance == "contra" else "op"
            runs += [[command, fname, "--functor", functor, "--morphism", m, "--degree", "0"] for m in morphisms]
        for nat in sorted(bundle.transformations):
            for degree in ("0", "2") if nat == "psi" else ("0",):
                runs += [["bcoopt", fname, "--nat", nat, "--morphism", m, "--degree", degree] for m in morphisms]
    out = {}
    with contextlib.chdir(directory):
        for fname, bundle in bundles.items():
            Path(fname).write_text(json.dumps(bundle_to_json(bundle), sort_keys=True, indent=1) + "\n", encoding="utf-8")
        for argv in runs:
            for flags in ([], ["--json"]):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    cli.main([*flags, *argv])
                out[" ".join([*flags, *argv])] = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
    return out


def test_cli_outputs_match_fixture(tmp_path):
    """coop, op and bcoopt print exactly what tests/record_golden.py recorded."""
    expected = json.loads(CLI_OUTPUTS.read_text(encoding="utf-8"))
    assert cli_outputs(tmp_path) == expected
