import json
import random
from pathlib import Path

import pytest

from bivariant.bivcore import (
    GrothTransf,
    InvalidTransformationError,
    TabulatedBivTheory,
    image_subtheory,
    validate_axioms,
    validate_groth,
)
from bivariant.exactalg import FgAbGroup, GroupHom, IntMatrix
from bivariant.workbench import (
    build_subsets_instance,
    subsets_site,
    subsets_theory,
)


@pytest.fixture(scope="module")
def bundle():
    return build_subsets_instance(2)


@pytest.fixture(scope="module")
def theory(bundle):
    return bundle.theories["B"]


def rebuild(theory, products=None, pushforwards=None, pullbacks=None, units=None):
    return TabulatedBivTheory(
        theory.site,
        theory.window,
        theory._groups,
        products if products is not None else theory._products,
        pushforwards if pushforwards is not None else theory._pushforwards,
        pullbacks if pullbacks is not None else theory._pullbacks,
        units if units is not None else theory._units,
    )


class TestAxiomsPass:
    def test_subsets_one(self):
        assert validate_axioms(build_subsets_instance(1).theories["B"]).ok

    def test_subsets_two(self, theory):
        assert validate_axioms(theory).ok

    def test_subsets_two_mod_two(self, bundle):
        assert validate_axioms(bundle.theories["B2"]).ok

    def test_all_zero_theory(self):
        site = subsets_site(1)
        zero = TabulatedBivTheory(site, (0, 0), {}, {}, {}, {}, {x: () for x in site.objects})
        assert validate_axioms(zero).ok

    def test_identities_only_confined(self):
        site = subsets_site(2, confined="identities")
        assert validate_axioms(subsets_theory(site)).ok


class TestMutationFixtures:
    """Each of the eight clauses has a fixture that trips it with a witness."""

    def test_associativity(self, theory):
        products = dict(theory._products)
        table = [list(row) for row in products[("0>01", "01>01", 0, 0)]]
        table[0][1] = (1,)  # e0 . e1 should vanish on restriction to {0}
        products[("0>01", "01>01", 0, 0)] = tuple(tuple(r) for r in table)
        report = validate_axioms(rebuild(theory, products=products))
        assert report.has("associativity")
        witness = next(v for v in report.violations if v.kind == "associativity")
        assert witness.witness_dict()["f"] == "0>01"

    def test_pushforward_functorial(self, theory):
        pushforwards = dict(theory._pushforwards)
        key = ("0>0", "0>01", 0)
        pushforwards[key] = pushforwards[key].scaled(2)
        report = validate_axioms(rebuild(theory, pushforwards=pushforwards))
        assert report.has("pushforward-functorial")

    def test_pullback_functorial(self, theory):
        pullbacks = dict(theory._pullbacks)
        key = ("0>01", "01>01", 0)
        pullbacks[key] = pullbacks[key].scaled(2)
        report = validate_axioms(rebuild(theory, pullbacks=pullbacks))
        assert report.has("pullback-functorial")

    def test_product_pushforward(self, theory):
        pushforwards = dict(theory._pushforwards)
        key = ("0>01", "01>01", 0)
        src, tgt = pushforwards[key].src, pushforwards[key].tgt
        pushforwards[key] = GroupHom(src, tgt, IntMatrix.from_rows([[0], [1]]))
        report = validate_axioms(rebuild(theory, pushforwards=pushforwards))
        assert report.has("product-pushforward")

    def test_product_pullback(self, theory):
        pullbacks = dict(theory._pullbacks)
        key = ("01>01", "0>01", 0)
        src, tgt = pullbacks[key].src, pullbacks[key].tgt
        pullbacks[key] = GroupHom(src, tgt, IntMatrix.from_rows([[1, 1]]))
        report = validate_axioms(rebuild(theory, pullbacks=pullbacks))
        assert report.has("product-pullback")

    def test_pushforward_pullback(self, theory):
        pushforwards = dict(theory._pushforwards)
        key = ("0>01", "01>01", 0)
        pushforwards[key] = pushforwards[key].scaled(2)
        report = validate_axioms(rebuild(theory, pushforwards=pushforwards))
        assert report.has("pushforward-pullback")

    def test_projection_formula(self, theory):
        pushforwards = dict(theory._pushforwards)
        key = ("1>01", "01>01", 0)
        pushforwards[key] = pushforwards[key].scaled(3)
        report = validate_axioms(rebuild(theory, pushforwards=pushforwards))
        assert report.has("projection-formula")

    def test_units(self, theory):
        units = dict(theory._units)
        units["01"] = theory.group("01>01", 0).zero_element()
        report = validate_axioms(rebuild(theory, units=units))
        assert report.has("units")
        witness = next(v for v in report.violations if v.kind == "units")
        assert witness.witness_dict()["obj"] == "01"


class TestGeneratorChecksAreComplete:
    """Spot-check that generator-level identities extend to random elements."""

    def test_random_elements(self, theory):
        rng = random.Random(5)
        site = theory.site
        triples = list(site.composable_triples())
        for _ in range(40):
            f, g, h = rng.choice(triples)
            gf = site.compose(g, f)
            hg = site.compose(h, g)
            ga, gb, gc = theory.group(f, 0), theory.group(g, 0), theory.group(h, 0)
            a = ga.element([rng.randint(-4, 4) for _ in range(ga.ngens)])
            b = gb.element([rng.randint(-4, 4) for _ in range(gb.ngens)])
            c = gc.element([rng.randint(-4, 4) for _ in range(gc.ngens)])
            ab = theory.product(f, g, 0, 0, a, b)
            bc = theory.product(g, h, 0, 0, b, c)
            assert theory.product(gf, h, 0, 0, ab, c) == theory.product(f, hg, 0, 0, a, bc)
            # product-pushforward law on random data
            gab = theory.group(gf, 0)
            a2 = gab.element([rng.randint(-4, 4) for _ in range(gab.ngens)])
            lhs = theory.pushforward(f, hg, 0, theory.product(gf, h, 0, 0, a2, c))
            rhs = theory.product(g, h, 0, 0, theory.pushforward(f, g, 0, a2), c)
            assert lhs == rhs


class TestGrothendieck:
    def test_identity_transformation(self, theory):
        comps = {
            (m.name, 0): GroupHom.identity(theory.group(m.name, 0))
            for m in theory.site.morphisms
        }
        t = GrothTransf(theory, theory, comps)
        assert validate_groth(t).ok

    def test_mod_two_reduction(self, bundle):
        assert validate_groth(bundle.groth["gamma"]).ok

    def test_doubling_fails_product(self, theory):
        comps = {
            (m.name, 0): GroupHom.identity(theory.group(m.name, 0)).scaled(2)
            for m in theory.site.morphisms
        }
        t = GrothTransf(theory, theory, comps)
        report = validate_groth(t)
        assert report.has("preserves-product")

    def test_window_mismatch(self, theory):
        other = TabulatedBivTheory(theory.site, (0, 1), theory._groups, theory._products, theory._pushforwards, theory._pullbacks, theory._units)
        with pytest.raises(InvalidTransformationError):
            GrothTransf(theory, other, {})


class TestImageSubtheory:
    def test_identity_gives_same_groups(self, theory):
        comps = {
            (m.name, 0): GroupHom.identity(theory.group(m.name, 0))
            for m in theory.site.morphisms
        }
        im = image_subtheory(GrothTransf(theory, theory, comps))
        for m in theory.site.morphisms:
            assert im.group(m.name, 0).canonical() == theory.group(m.name, 0).canonical()
        assert validate_axioms(im).ok

    def test_zero_into_zero_theory(self, theory):
        site = theory.site
        zero = TabulatedBivTheory(site, (0, 0), {}, {}, {}, {}, {x: () for x in site.objects})
        comps = {
            (m.name, 0): GroupHom.zero(theory.group(m.name, 0), FgAbGroup.zero())
            for m in site.morphisms
        }
        im = image_subtheory(GrothTransf(theory, zero, comps))
        for m in site.morphisms:
            assert im.group(m.name, 0).is_trivial
        assert validate_axioms(im).ok

    def test_mod_two_image_is_everything(self, bundle):
        gamma = bundle.groth["gamma"]
        im = image_subtheory(gamma)
        b2 = bundle.theories["B2"]
        for m in bundle.site.morphisms:
            assert im.group(m.name, 0).canonical() == b2.group(m.name, 0).canonical()
        assert validate_axioms(im).ok

    def test_rejects_invalid_transformation(self, theory):
        comps = {
            (m.name, 0): GroupHom.identity(theory.group(m.name, 0)).scaled(2)
            for m in theory.site.morphisms
        }
        with pytest.raises(InvalidTransformationError):
            image_subtheory(GrothTransf(theory, theory, comps))


class TestAssociatedFunctors:
    def test_covariant_part(self, theory):
        h = theory.covariant_part
        assert h.variance == "cov"
        assert h.group("01", 0).canonical() == (2, ())
        assert h.validate().ok

    def test_contravariant_part(self, theory):
        f = theory.contravariant_part
        assert f.variance == "contra"
        assert f.group("0", 0).canonical() == (1, ())
        assert f.validate().ok


def golden_reports():
    """Axiom reports of the criterion-2 mutation fixtures and the flip-site constant theory."""
    from test_acceptance import mutation_fixtures
    from test_nonposet_and_degrees import constant_theory, flip_site

    cases = mutation_fixtures(build_subsets_instance(2).theories["B"])
    cases.append(("nonstrict-pasting", constant_theory(flip_site())))
    return {kind: validate_axioms(theory).to_json() for kind, theory in cases}


class TestGoldenReports:
    """Kinds, messages, witnesses and order of tabulated axiom reports are pinned.

    Regenerate the fixture only for an intended change of a report.
    """

    def test_reports_match_fixture(self):
        path = Path(__file__).parent / "fixtures" / "axiom_reports.json"
        expected = json.loads(path.read_text(encoding="utf-8"))
        assert normalise(golden_reports()) == expected


def normalise(doc):
    """The document as it reads back from JSON, so tuples compare as lists."""
    return json.loads(json.dumps(doc, sort_keys=True))
