"""The benchmark records at the root of the repository stay readable.

Each BENCH_*.json is the saved output of `perfbench/compare.py run`: ten
alternated parent/change pairs per workload.  Every record must load, name
the end-to-end metrics of BENCHMARK.json, and score all ten pairs of every
workload in compare.py's report.  compare.py is imported as it is, read-only.
"""

import json
import re
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def load_compare():
    """compare.py as a module, compiled from its text, so that no bytecode
    is written next to it."""
    path = ROOT / "perfbench" / "compare.py"
    module = types.ModuleType("perfbench_compare")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


COMPARE = load_compare()
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]]


def test_there_are_records():
    assert len(RECORDS) >= 19


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_a_record_loads_names_the_metrics_and_scores_every_pair(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert [m["name"] for m in doc["spec"]["end_to_end"]] == END_TO_END
    lines = COMPARE.report(doc)
    scored = {m.group(1): (int(m.group(2)), int(m.group(3))) for m in map(re.compile(r"## (\S+): (\d+) of (\d+) pairs scored").match, lines) if m}
    assert list(scored) == doc["workloads"] and doc["workloads"]
    assert all(counts == (COMPARE.MIN_PAIRS, COMPARE.MIN_PAIRS) for counts in scored.values()), scored
