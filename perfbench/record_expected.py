"""Record expected.json: the digest of every operation a workload can draw.

    python3 perfbench/record_expected.py

Runs each operation once on the unshuffled instances (about a minute) and
writes the table the benchmark checks every run against.  Record it only on
a commit whose outputs are known to be right; a later change that alters a
digest is a change of behaviour, not of the table.
"""

import itertools
import json
import os
import shutil
import sys
import tempfile

import run
import workloads as wl


class _KeepOrder:
    """Stands in for the seeded rng: leaves every order as it is."""

    def shuffle(self, seq):
        pass


def main() -> int:
    lib = run.import_library()
    os.makedirs(run.WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=run.WORK_DIR)
    try:
        _, text = run.subsets_n3_setup(lib, None)
        ops = wl.class_algebra_ops(lib, wl.parse_text(lib, text))
        transf = wl.parse_text(lib, text).transformations["T"]
        bases = [b for cls in wl.TRANSFER_BASE_CLASSES for b in cls]
        paths, launch = run.CliOneshot().setup(lib, None, workdir, None)
        cli = [wl.cli_op(entry, m, paths, launch) for entry in wl.CLI_MIX for m in entry[3] or (None,)]
        table = {}
        # transfer_round creates the companion operations of a base only once its
        # transfer operation has run, so each operation runs as it is drawn
        for op in itertools.chain(ops, wl.transfer_round(lib, transf, bases, _KeepOrder()), cli):
            table[op.key] = wl.normalise(op.check(op.run()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(table)} digests in {wl.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
