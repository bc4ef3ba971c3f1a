"""Tests of the benchmark itself: seeded generation, the digest gate, span arithmetic.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def _bundle(lib, seed):
    rng = None if seed is None else run._instance_rng(seed)
    return wl.parse_text(lib, json.dumps(wl.instance_doc(lib, "build_subsets_instance", 3, rng)))


# ---------------------------------------------------------------------------
# seeded generator


def test_same_seed_same_instance_and_operations(lib):
    docs = [wl.instance_doc(lib, "build_subsets_instance", 3, run._instance_rng(7)) for _ in range(2)]
    assert docs[0] == docs[1]
    other = wl.instance_doc(lib, "build_subsets_instance", 3, run._instance_rng(8))
    assert other["morphisms"] != docs[0]["morphisms"]
    assert sorted(m["name"] for m in other["morphisms"]) == sorted(m["name"] for m in docs[0]["morphisms"])

    workload = run.ClassAlgebra()
    state = workload.setup(lib, 7, None, None)
    keys = [[op.key for op in workload.round(state, run._ops_rng(7))] for _ in range(2)]
    assert keys[0] == keys[1]
    assert keys[0] != [op.key for op in workload.round(state, run._ops_rng(8))]
    assert sorted(keys[0]) == sorted(op.key for op in wl.class_algebra_ops(lib, _bundle(lib, 7)))

    assert wl.draw_transfer_bases(run._ops_rng(7)) == wl.draw_transfer_bases(run._ops_rng(7))
    assert wl.draw_cli_round(run._ops_rng(7)) == wl.draw_cli_round(run._ops_rng(7))


def test_every_drawable_operation_has_an_expected_digest(lib):
    expected = wl.load_expected()
    keys = {op.key for op in wl.class_algebra_ops(lib, _bundle(lib, None))}
    for cls in wl.TRANSFER_BASE_CLASSES:
        keys |= {f"transfer_subgroup:{b}" for b in cls} | {f"companions:{b}" for b in cls}
    for entry in wl.CLI_MIX:
        keys |= {wl.cli_key(entry, m) for m in entry[3] or (None,)}
    assert keys == set(expected)


def test_shuffled_instance_keeps_canonical_invariants(lib):
    plain, shuffled = _bundle(lib, None), _bundle(lib, 3)
    assert [m.name for m in plain.site.morphisms] != [m.name for m in shuffled.site.morphisms]
    for base in ("0>012", "01>012", "012>012"):
        a = lib.cooperational.coop_group(plain.functors["F"], base, 0).group.canonical()
        b = lib.cooperational.coop_group(shuffled.functors["F"], base, 0).group.canonical()
        assert a == b


def test_every_round_starts_with_empty_caches(lib):
    bundle = _bundle(lib, None)
    snf = sys.modules["bivariant.exactalg"].smith_decomposition
    sizes = []
    op = wl.Op("coop", lambda: lib.cooperational.coop_group(bundle.functors["F"], "0>01", 0), lambda v: v)

    class Probe:
        def round(self, state, rng):
            sizes.append(snf.cache_info().currsize)
            return [op]

    tracer = tracing.Tracer()
    run.run_loop(Probe(), None, {}, seed=0, rounds=2, tracer=tracer)
    assert sizes == [0, 0]
    tracing.clear_caches(tracer)
    assert tracer.totals["exactalg.snf.misses"] > 0  # counts of both rounds reach the tracer
    assert snf.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# the digest gate


class _OneRound:
    def __init__(self, ops):
        self.ops = ops

    def round(self, state, rng):
        return list(self.ops)


def test_wrong_expected_digest_is_counted_as_a_failure(lib):
    ops = [op for op in wl.class_algebra_ops(lib, _bundle(lib, 5)) if op.key in ("coop_group:0>01", "op_group:1>12")]
    expected = wl.load_expected()
    good = run.run_loop(_OneRound(ops), None, expected, seed=5, rounds=1)
    assert good.attempted == 2 and good.failures == []

    tampered = dict(expected)
    tampered["coop_group:0>01"] = dict(expected["coop_group:0>01"], group=[9, []])
    bad = run.run_loop(_OneRound(ops), None, tampered, seed=5, rounds=1)
    assert bad.attempted == 2
    assert [key for key, _reason in bad.failures] == ["coop_group:0>01"]
    assert "digest" in bad.failures[0][1]


def test_exceptions_and_broken_invariants_are_failures():
    def boom():
        raise RuntimeError("boom")

    def broken(_value):
        raise wl.InvariantError("no")

    ops = [wl.Op("a", boom, lambda v: v), wl.Op("b", lambda: 1, broken), wl.Op("c", lambda: 1, lambda v: v)]
    res = run.run_loop(_OneRound(ops), None, {"c": 2}, seed=0, rounds=1)
    assert res.attempted == 3
    assert [(k, r.split(":")[0]) for k, r in res.failures] == [("a", "RuntimeError"), ("b", "invariant"), ("c", "digest 1 != expected 2")]


def test_times_are_rescaled_by_the_probes_around_them():
    ref = reference.REFERENCE_S
    assert reference.at_reference_speed(0.1, ref, ref) == pytest.approx(0.1)
    # a machine running the routine at half speed halves the interval's rescaled length
    assert reference.at_reference_speed(0.1, 2 * ref, 2 * ref) == pytest.approx(0.05)
    assert reference.at_reference_speed(0.1, ref, 3 * ref) == pytest.approx(0.05)
    assert reference.probe() > 0
    res = run.run_loop(_OneRound([wl.Op("c", lambda: 1, lambda v: v)]), None, {"c": 1}, seed=0, rounds=3)
    assert len(res.latencies) == len(res.measured) == 3 and all(t > 0 for t in res.latencies)

def test_percentile_is_the_harrell_davis_estimate():
    assert run.percentile([0.25] * 12, 0.9) == pytest.approx(0.25)
    # symmetric samples: the median estimate is the middle value
    assert run.percentile(range(1, 102), 0.5) == pytest.approx(51.0)
    # the Beta weights centre on 0.9 of the way through 1..100, half a rank up
    assert run.percentile(range(1, 101), 0.9) == pytest.approx(90.5, abs=0.01)

def test_cli_digest_rejects_tracebacks_and_ignores_generator_order():
    with pytest.raises(wl.InvariantError):
        wl.cli_digest(1, "", "Traceback (most recent call last):\n")
    a = {"result": {"generators": [{"x": [[1]]}, {"y": [[0]]}]}, "violations": []}
    b = {"result": {"generators": [{"y": [[0]]}, {"x": [[1]]}]}, "violations": []}
    assert wl.cli_digest(0, json.dumps(a), "") == wl.cli_digest(0, json.dumps(b), "")


# ---------------------------------------------------------------------------
# span arithmetic


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_child_coverage():
    clock = _Clock()
    t = tracing.Tracer(clock)

    def leaf(dt):
        clock.now += dt

    def mid():  # 3 s long: 1 s own, then a 1 s leaf, then 1 s own
        clock.now += 1
        t.span("exactalg.leaf", leaf, 1)
        clock.now += 1

    def root():  # 10 s long: mid (3 s), a 2 s leaf, a nested root of 1 s, 4 s own
        t.span("site.mid", mid)
        t.span("exactalg.leaf", leaf, 2)
        t.span("site.root", leaf, 1)
        clock.now += 4

    t.operation(0, "synthetic", lambda: t.span("site.root", root))

    assert t.spans[("site.root", "op")] == [1, 10.0, 4.0]
    assert t.spans[("site.root", "site.root")] == [1, 1.0, 1.0]
    assert t.spans[("site.mid", "site.root")] == [1, 3.0, 2.0]
    assert t.spans[("exactalg.leaf", "site.mid")] == [1, 1.0, 1.0]
    assert t.spans[("exactalg.leaf", "site.root")] == [1, 2.0, 2.0]
    assert t.spans[("op", None)] == [1, 10.0, 0.0]
    assert t.busy["site.root"] == 10.0  # the nested call is not counted twice
    assert t.calls("site.root") == 2 and t.calls("exactalg.leaf") == 2
    assert t.layer_self("site") == 7.0 and t.layer_self("exactalg") == 3.0
    assert t.ops == [[0, "synthetic", 0.0, 10.0]]

    merged = tracing.Tracer(clock)
    merged.merge(t.to_json())
    merged.merge(t.to_json())
    assert merged.layer_self("site") == 14.0 and merged.busy["site.root"] == 20.0


def test_install_sees_calls_through_imported_names_and_uninstalls(lib):
    bundle = _bundle(lib, None)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        lib.cooperational.coop_group(bundle.functors["F"], "0>01", 0)
    finally:
        tracing.uninstall(undo)
    parents = {name: parent for name, parent in tracer.spans}
    assert parents["cooperational.group"] is None
    assert parents["famsolve.solve"] == "cooperational.group"  # imported by name into cooperational
    assert tracer.calls("exactalg.hom_group") > 0  # called through famsolve's own name for it
    assert tracer.calls("exactalg.hom_check") > 0 and tracer.calls("site.paste") > 0
    assert tracer.maxima["famsolve.solve.unknown_gens_max"] > 0
    assert not hasattr(lib.cooperational.coop_group, "__wrapped__")
    assert hasattr(sys.modules["bivariant.famsolve"].hom_group, "cache_info")


# ---------------------------------------------------------------------------
# compare mode


def test_compare_rule():
    rng = random.Random(0)
    parent = [100 + rng.uniform(-1, 1) for _ in range(10)]
    assert compare.verdict(parent, [80 + rng.uniform(-1, 1) for _ in range(10)], "lower", 0.1)["status"] == "gain"
    assert compare.verdict(parent, [130 + rng.uniform(-1, 1) for _ in range(10)], "lower", 0.1)["status"] == "regression"
    assert compare.verdict(parent, [101 + rng.uniform(-1, 1) for _ in range(10)], "lower", 0.1)["status"] == "within bound"
    noisy = [100 * rng.choice((0.7, 1.3)) for _ in range(10)]
    assert compare.verdict(parent, noisy, "lower", 0.1)["status"] == "unresolved"
    assert compare.verdict(parent[:5], [80.0] * 5, "lower", 0.1)["status"] != "gain"  # too few pairs
    # higher is better: a higher change median with 9/10 wins is a gain
    assert compare.verdict(parent, [120 + rng.uniform(-1, 1) for _ in range(10)], "higher", 0.1)["status"] == "gain"
