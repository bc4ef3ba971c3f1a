"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Each criterion prints a single pass/fail line (visible with pytest -s).
Runtime limits are asserted with a wall clock around the criterion body.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bivariant.bivcore import TabulatedBivTheory, validate_axioms
from bivariant.cooperational import (
    coop_group,
    coop_product,
    coop_pullback,
    coop_pushforward,
    cup_class,
    non_additivity_witness,
    power_family,
    power_naturality_report,
    transfer_subgroup,
    verify_coop_axioms,
    verify_coop_transform_identities,
    verify_identity_isomorphism,
)
from bivariant.exactalg import GroupHom, IntMatrix, snf
from bivariant.operational import (
    op_group,
    verify_op_axioms,
    verify_op_transform_identities,
    verify_point_isomorphism,
)
from bivariant.workbench import (
    build_graded_instance,
    build_subsets_instance,
    bundle_to_json,
    family_from_self_transformation,
    subsets_site,
)

from oracles import determinantal_divisors, rational_rank
from test_cooperational import brute_force_membership

HERE = Path(__file__).parent
SRC = HERE.parent / "src"


def announce(number, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {text}")
    assert ok, f"criterion {number} failed: {text}"


@pytest.fixture(scope="module")
def bundle():
    return build_subsets_instance(2)


def test_criterion_01_snf_suite():
    started = time.monotonic()
    rng = random.Random(20240817)
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        d, u, v = snf(m)
        assert (u @ m @ v) == d
        assert abs(u.det()) == 1 and abs(v.det()) == 1
        diag = [d.entries[i][i] for i in range(min(rows, cols))]
        assert all(
            d.entries[i][j] == 0 for i in range(rows) for j in range(cols) if i != j
        )
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        assert diag == determinantal_divisors(m.entries, cols)
    elapsed = time.monotonic() - started
    announce(1, elapsed < 5.0, f"500 random SNF checks with divisor oracle in {elapsed:.2f}s")


def mutation_fixtures(theory):
    """(axiom kind, theory) pairs: B with one table entry broken per axiom."""

    def rebuild(**over):
        return TabulatedBivTheory(
            theory.site,
            theory.window,
            theory._groups,
            over.get("products", theory._products),
            over.get("pushforwards", theory._pushforwards),
            over.get("pullbacks", theory._pullbacks),
            over.get("units", theory._units),
        )

    mutations = []
    products = dict(theory._products)
    table = [list(r) for r in products[("0>01", "01>01", 0, 0)]]
    table[0][1] = (1,)
    products[("0>01", "01>01", 0, 0)] = tuple(tuple(r) for r in table)
    mutations.append(("associativity", rebuild(products=products)))

    pf = dict(theory._pushforwards)
    pf[("0>0", "0>01", 0)] = pf[("0>0", "0>01", 0)].scaled(2)
    mutations.append(("pushforward-functorial", rebuild(pushforwards=pf)))

    pb = dict(theory._pullbacks)
    pb[("0>01", "01>01", 0)] = pb[("0>01", "01>01", 0)].scaled(2)
    mutations.append(("pullback-functorial", rebuild(pullbacks=pb)))

    pf = dict(theory._pushforwards)
    swap = pf[("0>01", "01>01", 0)]
    pf[("0>01", "01>01", 0)] = GroupHom(swap.src, swap.tgt, IntMatrix.from_rows([[0], [1]]))
    mutations.append(("product-pushforward", rebuild(pushforwards=pf)))

    pb = dict(theory._pullbacks)
    old = pb[("01>01", "0>01", 0)]
    pb[("01>01", "0>01", 0)] = GroupHom(old.src, old.tgt, IntMatrix.from_rows([[1, 1]]))
    mutations.append(("product-pullback", rebuild(pullbacks=pb)))

    pf = dict(theory._pushforwards)
    pf[("0>01", "01>01", 0)] = pf[("0>01", "01>01", 0)].scaled(2)
    mutations.append(("pushforward-pullback", rebuild(pushforwards=pf)))

    pf = dict(theory._pushforwards)
    pf[("1>01", "01>01", 0)] = pf[("1>01", "01>01", 0)].scaled(3)
    mutations.append(("projection-formula", rebuild(pushforwards=pf)))

    units = dict(theory._units)
    units["01"] = theory.group("01>01", 0).zero_element()
    mutations.append(("units", rebuild(units=units)))
    return mutations


def test_criterion_02_axiom_suite(bundle):
    started = time.monotonic()
    ok = validate_axioms(build_subsets_instance(1).theories["B"]).ok
    ok = ok and validate_axioms(bundle.theories["B"]).ok
    ok = ok and validate_axioms(bundle.theories["B2"]).ok
    site1 = subsets_site(1)
    zero = TabulatedBivTheory(site1, (0, 0), {}, {}, {}, {}, {x: () for x in site1.objects})
    ok = ok and validate_axioms(zero).ok

    mutations = mutation_fixtures(bundle.theories["B"])

    from bivariant.bivcore import AXIOM_NAMES

    assert tuple(kind for kind, _ in mutations) == AXIOM_NAMES
    for kind, mutated in mutations:
        report = validate_axioms(mutated)
        ok = ok and report.has(kind)
        witnessed = any(v.kind == kind and v.witness for v in report.violations)
        ok = ok and witnessed

    elapsed = time.monotonic() - started
    announce(
        2,
        ok and elapsed < 30.0,
        f"axiom suite on 4 instances plus 8 witnessed mutation fixtures in {elapsed:.2f}s",
    )


def test_criterion_03_computed_coop_axioms(bundle):
    started = time.monotonic()
    report = verify_coop_axioms(bundle.functors["F"])
    elapsed = time.monotonic() - started
    announce(
        3,
        report.ok and elapsed < 60.0,
        f"computed co-operational theory satisfies 7 axioms + Units in {elapsed:.2f}s",
    )


def test_criterion_04_op_mirror(bundle):
    started = time.monotonic()
    h = bundle.functors["h"]
    report = verify_op_axioms(h)
    ok = report.ok
    site = bundle.site
    # groups against the naive rational-kernel oracle, for every base morphism
    for mor in site.morphisms:
        result = op_group(h, mor.name, 0)
        mat = result.solution.constraint_hom.mat
        nullity = result.solution.unknowns.group.ngens - rational_rank(mat.entries, mat.cols)
        ok = ok and result.group.canonical() == (nullity, ())
    # the defining formulas, recomputed by raw matrix bookkeeping
    from bivariant.operational import op_product, op_pullback, op_pushforward

    rng = random.Random(77)
    res_f = op_group(h, "0>01", 0)
    res_g = op_group(h, "01>01", 0)
    for _ in range(4):
        c = res_f.decode(res_f.group.element([rng.randint(-3, 3) for _ in range(res_f.group.ngens)]))
        d = res_g.decode(res_g.group.element([rng.randint(-3, 3) for _ in range(res_g.group.ngens)]))
        prod = op_product(c, d)
        for hmor in site.morphisms_into("01"):
            hp = site.chosen_pullback("01>01", hmor).top
            direct = c.component(hp, 0).mat @ d.component(hmor, 0).mat
            ok = ok and prod.component(hmor, 0).mat == direct
        pushed = op_pushforward(c, "0>01", "01>01")
        for hmor in site.morphisms_into("01"):
            fp = site.chosen_pullback("0>01", site.chosen_pullback("01>01", hmor).top).left
            direct = h.map(fp, 0).mat @ c.component(hmor, 0).mat
            ok = ok and pushed.component(hmor, 0).mat == direct
        pulled = op_pullback(c, "0>01")
        for kmor in site.morphisms_into("0"):
            gk = site.compose("0>01", kmor)
            ok = ok and pulled.component(kmor, 0).mat == c.component(gk, 0).mat
    elapsed = time.monotonic() - started
    announce(
        4,
        ok and elapsed < 60.0,
        f"computed operational theory, oracle groups and defining formulas in {elapsed:.2f}s",
    )


def test_criterion_05_comparison_identities(bundle):
    b = bundle.theories["B"]
    ok = verify_op_transform_identities(b).ok
    ok = ok and verify_coop_transform_identities(b).ok
    announce(5, ok, "op and coop comparison maps preserve all three operations on generators")


def test_criterion_06_isomorphisms(bundle):
    b = bundle.theories["B"]
    ok = verify_point_isomorphism(b).ok
    ok = ok and verify_identity_isomorphism(b).ok
    announce(6, ok, "point and identity isomorphisms hold with codec round-trips")


def test_criterion_07_transfer_subgroup(bundle):
    transf = bundle.transformations["T"]
    site = bundle.site
    ok = True
    cache = {}

    def tsr_for(base):
        if base not in cache:
            cache[base] = transfer_subgroup(transf, base, 0)
        return cache[base]

    for mor in site.morphisms:
        tsr = tsr_for(mor.name)
        for cls in tsr.source_result.decoded_gens():
            ok = ok and tsr.contains(cls) == brute_force_membership(tsr, cls)
        for x in tsr.subgroup.group.gens():
            cls = tsr.source_result.decode(tsr.subgroup.inclusion(x))
            sols = tsr.companions(cls)
            ok = ok and sols.is_unique

    def members(base):
        tsr = tsr_for(base)
        return [
            tsr.source_result.decode(tsr.subgroup.inclusion(x))
            for x in tsr.subgroup.group.gens()
        ]

    def companion(base, cls):
        sols = tsr_for(base).companions(cls)
        return sols.particular

    for f, g in site.composable_pairs():
        gf = site.compose(g, f)
        for c in members(f):
            for d in members(g):
                cd = coop_product(c, d)
                ok = ok and tsr_for(gf).contains(cd)
                ok = ok and companion(gf, cd) == coop_product(companion(f, c), companion(g, d))
    for f, g in site.composable_pairs():
        gf = site.compose(g, f)
        for c in members(gf):
            pushed = coop_pushforward(c, f, g)
            ok = ok and tsr_for(g).contains(pushed)
            ok = ok and companion(g, pushed) == coop_pushforward(companion(gf, c), f, g)
    for mor in site.morphisms:
        for g in site.morphisms_into(mor.tgt):
            fprime = site.chosen_pullback(mor.name, g).left
            for c in members(mor.name):
                pulled = coop_pullback(c, g)
                ok = ok and tsr_for(fprime).contains(pulled)
                ok = ok and companion(fprime, pulled) == coop_pullback(companion(mor.name, c), g)
    announce(7, ok, "transfer subgroup: oracle membership, closure, unique companions, identities")


def test_criterion_08_cup_and_power(bundle):
    b = bundle.theories["B"]
    site = bundle.site
    ok = True
    for x in site.objects:
        idx = site.identity(x)
        for alpha in b.group(idx, 0).gens():
            cls = cup_class(b, x, 0, alpha)  # raises if any component is not cup
            for g in site.morphisms_into(x):
                galpha = b.pullback(idx, g, 0, alpha)
                xp = site.src(g)
                for xgen in b.group(site.identity(xp), 0).gens():
                    expected = b.product(site.identity(xp), site.identity(xp), 0, 0, xgen, galpha)
                    ok = ok and cls.component(g, 0)(xgen) == expected
    fam = power_family(b, "01", 2)
    ok = ok and power_naturality_report(fam).ok
    witness = non_additivity_witness(fam)
    ok = ok and witness is not None
    # the witness certifies no additive class agrees with the square family
    comp = fam.component("01>01", 0)
    e0 = b.group("01>01", 0).element((1, 0))
    ok = ok and comp(e0 + e0) != comp(e0) + comp(e0)
    announce(8, ok, "cup components equal the ring product; square family natural but not additive")


def test_criterion_09_graded_family():
    ok = True
    for k in (1, 2, 3):
        bundle = build_graded_instance(k)
        fam = family_from_self_transformation(bundle.transformations["psi"], "0")
        for r in (0, 1, 2):
            ok = ok and fam.component("0>0", 2 * r).mat == IntMatrix.from_rows([[k**r]])
        result = coop_group(bundle.functors["Heven"], bundle.site.identity("0"), 0)
        encoded = result.encode(fam)
        ok = ok and result.decode(encoded) == fam
    announce(9, ok, "grade-2r component is multiplication by k^r and the family is a coop class")


def test_criterion_10_cli(tmp_path, bundle):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "bivariant.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
        )

    started = time.monotonic()
    demo = run("demo", "subsets", "--n", "2")
    elapsed = time.monotonic() - started
    ok = demo.returncode == 0 and elapsed < 120.0

    doc = bundle_to_json(bundle)
    doc["theories"]["B"]["units"]["01"] = [0, 0]
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc), encoding="utf-8")
    res = run("axioms", str(mutated), "--theory", "B")
    ok = ok and res.returncode == 1 and "units" in res.stdout

    doc2 = bundle_to_json(bundle)
    for entry in doc2["theories"]["B"]["pullbacks"]:
        if entry["f"] == "0>01" and entry["g"] == "01>01":
            entry["matrix"] = [[2]]
    mutated2 = tmp_path / "mutated2.json"
    mutated2.write_text(json.dumps(doc2), encoding="utf-8")
    res2 = run("axioms", str(mutated2), "--theory", "B")
    ok = ok and res2.returncode == 1 and "pullback-functorial" in res2.stdout

    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    res3 = run("validate", str(bad))
    ok = ok and res3.returncode == 2

    announce(10, ok, f"demo exits 0 in {elapsed:.1f}s; mutations exit 1 with witnesses; malformed exits 2")
