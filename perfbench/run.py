"""Benchmark of the bivariant engine: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload class-algebra --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ``bivariant`` from ``src/``
of that checkout and nothing else.  With ``--trace 0`` it prints the
end-to-end metrics, every time rescaled to reference speed
(see reference.py); with ``--trace 1`` it runs the workload untraced for a
third of ``--seconds``, then replays the same rounds in a fresh traced
process and prints the per-layer metrics.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The lines before it give the same numbers for a reader, and ``error_rate``.

See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import reference
import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, ".out")
WORK_DIR = os.path.join(HERE, ".work")
SHIM = os.path.join(HERE, "cli_shim.py")

# setup_s is the median of this many set-ups, half before and half after the
# loop, so that a short slow spell of the machine does not set it.
SETUP_REPEATS = 16
MIN_OPS = 100  # so at least ten latency samples lie beyond op_p90_ms
UNTRACED_SHARE = 1 / 3  # share of --seconds a traced run spends untraced
CLI_TIMEOUT = 60.0
RUN_DEADLINE = 170.0  # the whole run ends within this many seconds

class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def import_library() -> SimpleNamespace:
    """Import bivariant afresh from this checkout's src/ (drops any loaded copy)."""
    if not os.path.isfile(os.path.join(SRC, "bivariant", "__init__.py")):
        raise BenchError(f"no bivariant package under {SRC}; run from a checkout of the repository")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "bivariant" or m.startswith("bivariant.")]:
        del sys.modules[name]
    package = importlib.import_module("bivariant")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported bivariant from {package.__file__}, not from {SRC}")
    importlib.import_module("bivariant.workbench")
    return SimpleNamespace(
        **{n: sys.modules[f"bivariant.{n}"] for n in ("bivcore", "cooperational", "operational", "workbench")}
    )


# ---------------------------------------------------------------------------
# workloads


def _instance_rng(seed):
    """Shuffles the instance documents; seed None keeps them unshuffled."""
    return None if seed is None else random.Random(f"instance:{seed}")


def _ops_rng(seed):
    return random.Random(f"ops:{seed}")


def subsets_n3_setup(lib, seed):
    """The seed-shuffled n = 3 subset instance as text, parsed once to check it."""
    text = json.dumps(wl.instance_doc(lib, "build_subsets_instance", 3, _instance_rng(seed)))
    wl.parse_text(lib, text)
    return lib, text


class ClassAlgebra:
    """Group, image-transfer and axiom checks at every base of the n = 3 lattice."""

    def setup(self, lib, seed, workdir, tracer):
        return subsets_n3_setup(lib, seed)

    def round(self, state, rng):
        """Each round parses the instance afresh, so no object carries a memo into it."""
        lib, text = state
        ops = wl.class_algebra_ops(lib, wl.parse_text(lib, text))
        rng.shuffle(ops)
        return ops


class TransferN3:
    """Transfer subgroups and companion solves over a seeded sample of n = 3 bases."""

    def setup(self, lib, seed, workdir, tracer):
        return subsets_n3_setup(lib, seed)

    def round(self, state, rng):
        lib, text = state
        transf = wl.parse_text(lib, text).transformations["T"]
        return wl.transfer_round(lib, transf, wl.draw_transfer_bases(rng), rng)


class CliOneshot:
    """One fresh ``python -m bivariant.cli --json`` process per operation."""

    def setup(self, lib, seed, workdir, tracer):
        rng = _instance_rng(seed)
        paths = {}
        for name, (factory, arg) in sorted(wl.CLI_FILES.items()):
            paths[name] = os.path.join(workdir, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(wl.instance_doc(lib, factory, arg, rng), fh)
            lib.workbench.load_instance(paths[name])
        return paths, self._launcher(tracer, workdir)

    @staticmethod
    def _launcher(tracer, workdir):
        env = wl.cli_env(SRC)
        if tracer is None:
            return lambda argv: wl.run_cli(["-m", "bivariant.cli"], argv, env, ROOT, CLI_TIMEOUT)
        out = os.path.join(workdir, "child-trace.json")
        env = dict(env, PERFBENCH_TRACE_OUT=out)

        def launch(argv):
            start = time.perf_counter()
            result = wl.run_cli([SHIM], argv, env, ROOT, CLI_TIMEOUT)
            wall = time.perf_counter() - start
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            os.remove(out)
            tracer.merge(doc)
            tracer.add("cli.startup_s", wall - doc["busy"].get("cli.main", 0.0))
            return result

        return launch

    def round(self, state, rng):
        paths, launch = state
        return [wl.cli_op(entry, mor, paths, launch) for entry, mor in wl.draw_cli_round(rng)]


WORKLOADS = {
    "class-algebra": ClassAlgebra,
    "transfer-n3": TransferN3,
    "cli-oneshot": CliOneshot,
}


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)  # seconds at reference speed
    measured: list = field(default_factory=list)  # the same intervals, as measured
    failures: list = field(default_factory=list)
    rounds: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def record(self, elapsed: float, before: float) -> None:
        """One operation's interval; `before` is the probe taken just before it."""
        self.measured.append(elapsed)
        self.latencies.append(reference.at_reference_speed(elapsed, before, reference.probe()))


def run_loop(workload, state, expected, seed, seconds=None, min_ops=0, rounds=None, tracer=None):
    """Whole rounds until `seconds` have passed and `min_ops` ran; or `rounds` rounds.

    Only the library call of an operation is timed, between two speed
    probes; reducing its result to a digest and checking it happens between
    operations.  Each round starts cold: the library's lru caches are
    cleared and the workload builds its round's objects afresh, outside the
    timed calls.
    """
    rng = _ops_rng(seed)
    res = LoopResult()
    start = time.perf_counter()
    while True:
        if rounds is not None:
            if res.rounds >= rounds:
                break
        elif time.perf_counter() - start >= seconds and res.attempted >= min_ops:
            break
        tracing.clear_caches(tracer)
        for op in workload.round(state, rng):
            op_id = res.attempted
            before = reference.probe()
            t0 = time.perf_counter()
            try:
                value = op.run() if tracer is None else tracer.operation(op_id, op.key, op.run)
            except Exception as exc:  # a failed operation is counted, and the loop goes on
                res.record(time.perf_counter() - t0, before)
                res.failures.append((op.key, f"{type(exc).__name__}: {exc}"))
                continue
            res.record(time.perf_counter() - t0, before)
            problem = check_op(op, value, expected)
            if problem:
                res.failures.append((op.key, problem))
        res.rounds += 1
    return res


def check_op(op, value, expected) -> str | None:
    """None when the operation's digest matches the table, else the reason."""
    try:
        digest = wl.normalise(op.check(value))
    except wl.InvariantError as exc:
        return f"invariant: {exc}"
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"
    if op.key not in expected:
        return "no expected digest for this operation"
    if digest != expected[op.key]:
        return f"digest {json.dumps(digest, sort_keys=True)} != expected {json.dumps(expected[op.key], sort_keys=True)}"
    return None


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def percentile(values, p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile of `values`.

    A mean of all order statistics, the i-th of n weighted by the mass of
    the Beta((n+1)p, (n+1)(1-p)) density over [i/n, (i+1)/n].  It moves with
    the samples on both sides of the quantile's rank, so it varies less from
    run to run than the one or two order statistics ``statistics.quantiles``
    interpolates, most where the samples lie sparse, as around op_p90_ms.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t):
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) if 0.0 < t < 1.0 else 0.0

    steps = 32  # trapezoid steps per order statistic
    grid = [density(k / (steps * n)) for k in range(steps * n + 1)]
    weights = [sum(grid[k] + grid[k + 1] for k in range(i * steps, (i + 1) * steps)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(latencies: list, setups: list, rss_mb: float) -> dict:
    """Timed metrics pool every operation of the run's whole, equally cold rounds."""
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": percentile(latencies, 0.5) * 1000.0,
        "op_p90_ms": percentile(latencies, 0.9) * 1000.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }


# ---------------------------------------------------------------------------
# the three kinds of process


def timed_setups(workload, seed, workdir, count) -> tuple:
    """Set up `count` times, each from a fresh import.

    Returns ([(seconds as measured, at reference speed)], the last state).
    """
    times, state = [], None
    for _ in range(count):
        state = None
        before = reference.probe()
        t0 = time.perf_counter()
        state = workload.setup(import_library(), seed, workdir, None)
        elapsed = time.perf_counter() - t0
        times.append((elapsed, reference.at_reference_speed(elapsed, before, reference.probe())))
    return times, state


def untraced_run(args, workdir) -> tuple:
    workload = WORKLOADS[args.workload]()
    setups, state = timed_setups(workload, args.seed, workdir, SETUP_REPEATS // 2)
    res = run_loop(workload, state, wl.load_expected(), args.seed, args.seconds, MIN_OPS)
    rss_mb = peak_rss_mb(children=args.workload == "cli-oneshot")
    state = None
    setups += timed_setups(workload, args.seed, workdir, SETUP_REPEATS - len(setups))[0]
    metrics = end_to_end(res.latencies, [t for _, t in setups], rss_mb)
    measured = end_to_end(res.measured, [t for t, _ in setups], rss_mb)
    print("as measured, before rescaling to reference speed:")
    for name in ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s"):
        print(f"  {name:40s} {measured[name]:14.6g}")
    units = metric_units("end_to_end")
    return res.attempted, res.failures, {k: (metrics[k], units[k]) for k in units}, res.rounds


def traced_run(args, workdir) -> tuple:
    """Untraced pass here, then the same rounds traced in a fresh process."""
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]()
    state = workload.setup(import_library(), args.seed, workdir, None)
    res = run_loop(workload, state, wl.load_expected(), args.seed, args.seconds * UNTRACED_SHARE)
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1",
        "--traced-rounds", str(res.rounds), "--trace-out", out,
    ]  # fmt: skip
    # its own session, so that a timeout also stops the CLI processes it runs
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)  # fmt: skip
    try:
        _, stderr = proc.communicate(timeout=RUN_DEADLINE - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"traced pass failed with exit code {proc.returncode}:\n{stderr}")
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    metrics = dict(doc["metrics"])
    metrics["trace.overhead_ratio"] = doc["busy_s"] / sum(res.latencies)
    doc["metrics"] = metrics
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    units = metric_units("per_layer")
    failures = res.failures + [tuple(f) for f in doc["failures"]]
    return res.attempted + doc["attempted"], failures, {k: (metrics[k], units[k]) for k in units}, res.rounds


def traced_pass(args, workdir) -> int:
    """Child of a traced run: install spans, set up, replay the rounds, write the trace."""
    workload = WORKLOADS[args.workload]()
    lib = import_library()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    state = workload.setup(lib, args.seed, workdir, tracer)
    res = run_loop(workload, state, wl.load_expected(), args.seed, rounds=args.traced_rounds, tracer=tracer)
    tracing.clear_caches(tracer)  # adds the last round's hits and misses
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": res.rounds,
        "attempted": res.attempted,
        "failures": res.failures,
        "busy_s": sum(res.latencies),
        "metrics": tracing.layer_metrics(tracer, overhead_ratio=0.0),
        "trace": tracer.to_json(),
    }
    with open(args.trace_out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return 0


def metric_units(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def report(workload, seed, attempted, failures, metrics, rounds) -> None:
    failed = len(failures)
    print(f"workload {workload} seed {seed}: {attempted} operations, {failed} failed, {rounds} rounds timed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'error_rate':40s} {failed / attempted if attempted else 1.0:14.6g} ratio")
    for key, reason in failures[:20]:
        print(f"FAILED {key}: {reason}", file=sys.stderr)
    doc = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(doc, sort_keys=True))


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The CPUs of a shared machine change speed independently of each other,
    so the speed probes must run on the CPU the timed work runs on; a CLI
    child inherits the pinning.  Only one process runs at a time.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--traced-rounds", type=int, help=argparse.SUPPRESS)
    p.add_argument("--trace-out", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        if args.traced_rounds is not None:
            return traced_pass(args, workdir)
        run = traced_run if args.trace else untraced_run
        attempted, failures, metrics, rounds = run(args, workdir)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args.workload, args.seed, attempted, failures, metrics, rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
