"""Compare the benchmark on a parent and a change checkout.

    python3 perfbench/compare.py run --parent ../parent --change . --save pairs.json
    python3 perfbench/compare.py report pairs.json

``run`` makes ten alternated pairs per workload: pair i runs both checkouts
with seed ``SEED_BASE + i`` for ``run_seconds`` of BENCHMARK.json, the
parent first when i is even and the change first when i is odd, each in its
own process.  ``report`` applies this rule to every
end-to-end metric, one row per workload and metric:

- gain: over at least ten pairs, the change wins at least nine tenths
  (ties count for neither), its median is better, and the medians differ
  by more than the parent's interquartile range;
- unresolved: the spread (interquartile range over median) of either side
  exceeds the metric's bound, unless every change run reads better than
  every parent run;
- regression: the change's median is worse than the parent's by more than
  the bound;
- within bound: anything else.

Bounds and directions come from BENCHMARK.json of the change checkout.  A
pair in which either side failed an operation is reported and not scored.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

WIN_SHARE = 0.9
MIN_PAIRS = 10  # a gain is never claimed from fewer pairs; `run` makes this many
SEED_BASE = 1000


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound) -> dict:
    """Score paired samples of one metric; parent[i] and change[i] form pair i."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    worse_by = -sign * (c_med - p_med) / abs(p_med)
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1:
        status = "gain"
    elif spread > bound and not separated:
        status = "unresolved"
    elif worse_by > bound:
        status = "regression"
    else:
        status = "within bound"
    return {
        "status": status,
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "parent": [p_q1, p_med, p_q3],
        "change": [c_q1, c_med, c_q3],
        "spread": spread,
        "worse_by": worse_by,
    }


def report(doc) -> list[str]:
    spec = {m["name"]: m for m in doc["spec"]["end_to_end"]}
    lines = []
    for workload in doc["workloads"]:
        pairs = [p for p in doc["pairs"] if p["workload"] == workload]
        scored = [p for p in pairs if p["parent"]["correct"] and p["change"]["correct"]]
        lines.append(f"## {workload}: {len(scored)} of {len(pairs)} pairs scored")
        for p in pairs:
            if p not in scored:
                lines.append(
                    f"   seed {p['seed']}: failed operations, parent {p['parent']['failed']}, change {p['change']['failed']}"
                )
        if len(scored) < 2:
            continue
        lines.append(f"   {'metric':12s} {'parent q1/median/q3':>30s} {'change q1/median/q3':>30s}  wins  verdict")
        for name, m in spec.items():
            parent = [p["parent"]["metrics"][name]["value"] for p in scored]
            change = [p["change"]["metrics"][name]["value"] for p in scored]
            v = verdict(parent, change, m["better"], m["bound"])
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            lines.append(
                f"   {name:12s} {fmt(v['parent']):>30s} {fmt(v['change']):>30s}  "
                f"{v['wins']:2d}/{v['pairs']:<2d} {v['status']} "
                f"(worse by {v['worse_by']:+.1%}, spread {v['spread']:.1%}, bound {m['bound']:.0%})"
            )
    return lines


def run_once(checkout, workload, seed, seconds) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]  # fmt: skip
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cmd_run(args) -> int:
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    doc = {"spec": spec, "workloads": workloads, "pairs": []}
    for workload in workloads:
        for i in range(MIN_PAIRS):
            seed = SEED_BASE + i
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"workload": workload, "seed": seed, "first": sides[0]}
            for side in sides:
                pair[side] = run_once(getattr(args, side), workload, seed, seconds)
            doc["pairs"].append(pair)
            print(f"{workload} seed {seed}: done ({sides[0]} first)", file=sys.stderr)
    with open(args.save, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print("\n".join(report(doc)))
    return 0


def cmd_report(args) -> int:
    with open(args.results, encoding="utf-8") as fh:
        doc = json.load(fh)
    print("\n".join(report(doc)))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="alternated-pair comparison of two checkouts")
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run alternated pairs, save them and report")
    r.add_argument("--parent", required=True, help="checkout of the parent commit")
    r.add_argument("--change", required=True, help="checkout of the change")
    r.add_argument("--workload", action="append", help="workload to run (default: all)")
    r.add_argument("--save", required=True, help="where to write the raw pairs (JSON)")
    r.set_defaults(func=cmd_run)
    s = sub.add_parser("report", help="report saved pairs")
    s.add_argument("results")
    s.set_defaults(func=cmd_report)
    args = p.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
