"""Check the Smith form against its full-rescan reference on a demo run.

    python tests/smith_check.py --n 4

Runs demo_checks(N) once (1 <= N <= 4) and records every distinct matrix
handed to exactalg.smith_decomposition.  It then computes each one again,
uncached, with the library's elimination and with oracles.smith_reference,
and prints the count of inputs, every mismatch and the two total times.
The exit status is 1 if any input mismatches.  It needs only the standard
library and this repository's src/ and tests/ directories, which it puts
on sys.path itself.
"""

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bivariant import exactalg  # noqa: E402
from bivariant.workbench import demo_checks  # noqa: E402
from oracles import dense_transforms, smith_reference  # noqa: E402


def smith_inputs(run) -> list:
    """The distinct matrices handed to exactalg.smith_decomposition while
    run() runs, cache hits included, in the order of their first call."""
    seen = {}
    solve = exactalg.smith_decomposition

    def recorded(m):
        seen.setdefault(m, None)
        return solve(m)

    exactalg.smith_decomposition = recorded
    try:
        run()
    finally:
        exactalg.smith_decomposition = solve
    return list(seen)


def dense_form(s) -> tuple:
    """The diagonal and the dense u, v and u_inv of a Smith decomposition."""
    return (s.diagonal, *dense_transforms(s))


def compare(inputs) -> tuple:
    """(indices of the inputs whose library and reference Smith forms differ,
    library seconds, reference seconds), each form computed uncached."""
    library = exactalg.smith_decomposition.__wrapped__
    bad, spent = [], [0.0, 0.0]
    for k, m in enumerate(inputs):
        forms = []
        for side, solve in enumerate((library, smith_reference)):
            start = time.perf_counter()
            forms.append(solve(m))
            spent[side] += time.perf_counter() - start
        if dense_form(forms[0]) != dense_form(forms[1]):
            bad.append(k)
    return bad, *spent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, choices=range(1, 5), default=3, help="subset lattice size (1 to 4)")
    n = parser.parse_args(argv).n
    inputs = smith_inputs(lambda: list(demo_checks(n)))
    bad, library_s, reference_s = compare(inputs)
    print(f"demo_checks({n}): {len(inputs)} distinct Smith inputs, {len(bad)} mismatches")
    for k in bad:
        print(f"  mismatch: input {k}, {inputs[k].rows} x {inputs[k].cols}")
    print(f"smith_decomposition {library_s:.3f} s, smith_reference {reference_s:.3f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
