"""Rewrite the golden report fixtures from the current code.

Run from the repository root, only after an intended change of a report:

    PYTHONPATH=src python tests/record_golden.py

It writes tests/fixtures/axiom_reports.json and
tests/fixtures/comparison_reports.json, which TestGoldenReports in
tests/test_bivcore.py compares against, tests/fixtures/snf_digests.json,
the digests of the Smith forms on tests/fixtures/snf_corpus.json, which
TestSnfIdentity in tests/test_exactalg.py compares against, and
tests/fixtures/instance_digests.json, which
test_reader_and_writer_match_pinned_digests in tests/test_instance_fuzz.py
compares against, and tests/fixtures/cli_outputs.json, the digests of the
coop, op and bcoopt outputs that test_cli_outputs_match_fixture in
tests/test_cli.py compares against, and tests/fixtures/constraint_digests.json,
the digests of the assembled constraint maps and their kernels that
test_constraint_maps_match_pinned_digests in tests/test_famsolve.py
compares against.
"""

import json
import tempfile
from pathlib import Path

from test_bivcore import comparison_reports, golden_reports
from test_cli import cli_outputs
from test_exactalg import snf_digests
from test_famsolve import constraint_digests
from test_instance_fuzz import instance_digests

FIXTURES = Path(__file__).parent / "fixtures"


def write(name: str, doc) -> None:
    (FIXTURES / name).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write("axiom_reports.json", golden_reports())
    write("comparison_reports.json", comparison_reports())
    write("snf_digests.json", snf_digests())
    write("instance_digests.json", instance_digests())
    write("constraint_digests.json", constraint_digests())
    with tempfile.TemporaryDirectory() as directory:
        write("cli_outputs.json", cli_outputs(directory))
