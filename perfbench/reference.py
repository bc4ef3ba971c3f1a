"""Times at reference speed: each timing is rescaled by a probe of the machine's speed.

A shared machine can change speed by 20-40% from one
minute to the next, and by about 15% within a second, in CPU time as much as
in wall time.  A wall-clock figure then moves with the machine, not with the
program.  So every timed interval is bracketed by two probes: each probe times
a fixed pure-Python routine (integer row operations, list comprehensions,
a dict of tuples and a sort, the same kinds of work the library does), and
the interval is rescaled by ``REFERENCE_S`` / (mean of the two probes).  The
result is the interval's length on a machine on which the routine takes
exactly ``REFERENCE_S``: a time at reference speed.

The routine is the benchmark's own code and never calls the library, so a
change to the library moves the rescaled times as it moves the measured
ones.  What it removes is the machine's drift.  A probe costs under 1 ms
and runs outside the timed interval.
"""

from __future__ import annotations

import statistics
import time

# The routine's duration on the machine the benchmark was tuned on, in a
# typical minute (its readings ranged from about 0.2 to 0.4 ms).
REFERENCE_S = 250e-6
PROBE_REPEATS = 3


def routine() -> object:
    rows = [[(i * 7 + j * 13) % 97 - 48 for j in range(10)] for i in range(10)]
    for i in range(10):
        pivot = rows[i][i] or 1
        for k in range(10):
            if k != i:
                f = rows[k][i]
                rows[k] = [(a * pivot - f * b) % 1000003 for a, b in zip(rows[k], rows[i])]
    table = {(i, i % 7): [i] for i in range(300)}
    return sorted(table)[-1], rows[9][9]


def probe() -> float:
    """Seconds the routine takes now: the median of a few timings."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        routine()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """An interval measured between probes `before` and `after`, rescaled."""
    return seconds * REFERENCE_S * 2.0 / (before + after)

