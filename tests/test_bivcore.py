import json
import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from bivariant import bivcore
from bivariant.bivcore import (
    GrothTransf,
    InvalidTransformationError,
    TabulatedBivTheory,
    image_subtheory,
    validate_axioms,
    validate_groth,
)
from bivariant.cooperational import verify_coop_transform_identities, verify_identity_isomorphism
from bivariant.exactalg import FgAbGroup, GroupHom, IntMatrix
from bivariant.operational import verify_op_transform_identities, verify_point_isomorphism
from bivariant.workbench import (
    build_subsets_instance,
    reduction_groth,
    subsets_site,
    subsets_theory,
)

from oracles import identities_confined, preimage_image_subtheory


@pytest.fixture(scope="module")
def bundle():
    return build_subsets_instance(2)


@pytest.fixture(scope="module")
def theory(bundle):
    return bundle.theories["B"]


def rebuild(theory, products=None, pushforwards=None, pullbacks=None, units=None, groups=None):
    return TabulatedBivTheory(
        theory.site,
        theory.window,
        groups if groups is not None else theory._groups,
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
        site = identities_confined(subsets_site(2))
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


class TestProductTableChecks:
    """The product-table checks that run before the axioms: kind, message, witness."""

    WHERE = {"f": "0>0", "g": "0>0", "i": 0, "j": 0}

    def test_missing_product(self):
        base = subsets_theory(subsets_site(1))
        products = {key: table for key, table in base._products.items() if key != ("0>0", "0>0", 0, 0)}
        assert validate_axioms(rebuild(base, products=products)).to_json() == [
            {"kind": "missing-product", "message": "no product table", "witness": self.WHERE}
        ]

    def test_product_shape(self):
        base = subsets_theory(subsets_site(1))
        rows = rebuild(base, products={**base._products, ("0>0", "0>0", 0, 0): ()})
        assert validate_axioms(rows).to_json() == [
            {"kind": "product-shape", "message": "product table shape mismatch", "witness": self.WHERE}
        ]
        cells = rebuild(base, products={**base._products, ("0>0", "0>0", 0, 0): (((1, 0),),)})
        assert validate_axioms(cells).to_json() == [
            {"kind": "product-shape", "message": "product entries have wrong length", "witness": self.WHERE}
        ]

    def test_product_well_defined_left_then_right(self):
        # Z/2 x Z/2 -> Z with 1 . 1 = 1 breaks the relation 2 = 0 on both sides
        z2 = FgAbGroup.from_invariants(0, [2])
        base = subsets_theory(subsets_site(2))
        theory = rebuild(
            base,
            groups={**base._groups, ("E>0", 0): z2, ("0>01", 0): z2, ("E>01", 0): FgAbGroup.free(1)},
            products={**base._products, ("E>0", "0>01", 0, 0): (((1,),),)},
        )
        where = {"f": "E>0", "g": "0>01", "i": 0, "j": 0, "relation": 0, "generator": 0}
        report = validate_axioms(theory)
        assert [v for v in report.to_json() if v["kind"] == "product-well-defined"] == [
            {"kind": "product-well-defined", "message": "table does not respect left relations", "witness": where},
            {"kind": "product-well-defined", "message": "table does not respect right relations", "witness": where},
        ]

    def test_product_well_defined_names_the_other_generator(self):
        # Z/2 x Z^2 -> Z with both cells 1 breaks the relation 2 = 0 once
        # per generator of Z^2, and Z^2 has no relation to break
        base = subsets_theory(subsets_site(2))
        theory = rebuild(
            base,
            groups={**base._groups, ("E>0", 0): FgAbGroup.from_invariants(0, [2]), ("0>01", 0): FgAbGroup.free(2), ("E>01", 0): FgAbGroup.free(1)},
            products={**base._products, ("E>0", "0>01", 0, 0): (((1,), (1,)),)},
        )
        report = validate_axioms(theory)
        assert [v for v in report.to_json() if v["kind"] == "product-well-defined"] == [
            {
                "kind": "product-well-defined",
                "message": "table does not respect left relations",
                "witness": {"f": "E>0", "g": "0>01", "i": 0, "j": 0, "relation": 0, "generator": k},
            }
            for k in (0, 1)
        ]

    @pytest.mark.parametrize("cell", [1.9, Fraction(3, 2)], ids=["float", "fraction"])
    def test_a_cell_that_is_not_an_integer_raises(self, cell):
        base = subsets_theory(subsets_site(1))
        with pytest.raises(TypeError):
            rebuild(base, products={**base._products, ("0>0", "0>0", 0, 0): (((cell,),),)})


class TestStructuralChecks:
    """The table and unit checks that run before the axioms: kind, message, witness."""

    def test_missing_pushforward(self, theory):
        pushforwards = {k: h for k, h in theory._pushforwards.items() if k != ("0>01", "01>01", 0)}
        assert validate_axioms(rebuild(theory, pushforwards=pushforwards)).to_json() == [
            {"kind": "missing-pushforward", "message": "no pushforward stored", "witness": {"f": "0>01", "g": "01>01", "i": 0}}
        ]

    def test_missing_pullback(self, theory):
        pullbacks = {k: h for k, h in theory._pullbacks.items() if k != ("01>01", "0>01", 0)}
        assert validate_axioms(rebuild(theory, pullbacks=pullbacks)).to_json() == [
            {"kind": "missing-pullback", "message": "no pullback stored", "witness": {"f": "01>01", "g": "0>01", "i": 0}}
        ]

    def test_no_unit_stored(self, theory):
        units = {x: u for x, u in theory._units.items() if x != "01"}
        assert validate_axioms(rebuild(theory, units=units)).to_json() == [
            {"kind": "units", "message": "no unit stored", "witness": {"obj": "01"}}
        ]

    def test_unit_in_wrong_group(self, theory):
        units = {**theory._units, "01": theory.group("0>0", 0).zero_element()}
        assert validate_axioms(rebuild(theory, units=units)).to_json() == [
            {"kind": "units", "message": "unit lives in the wrong group", "witness": {"obj": "01"}}
        ]


class TestTableMemo:
    """The checkers evaluate each table operation once per run for each
    (structural arguments, operand coordinates); test_famsolve's
    TestCheckerCounts counts them over whole runs."""

    def test_distinct_elements_of_one_value_are_evaluated_once(self, theory):
        calls = []

        def product(*args):
            calls.append(args)
            return theory.product(*args)

        product = bivcore._remembered(product, 4, theory.value)
        a, b = theory.group("0>01", 0).gens()[0], theory.group("01>01", 0).gens()[0]
        twin = theory.group("0>01", 0).element(a.coords)
        assert twin is not a and twin == a
        assert product("0>01", "01>01", 0, 0, a, b) is product("0>01", "01>01", 0, 0, twin, b)
        assert len(calls) == 1
        product("0>01", "01>01", 0, 0, a + a, b)
        assert len(calls) == 2


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

    def test_missing_component(self, bundle):
        gamma = bundle.groth["gamma"]
        comps = {k: c for k, c in gamma._components.items() if k != ("0>01", 0)}
        assert validate_groth(GrothTransf(gamma.src, gamma.tgt, comps)).to_json() == [
            {"kind": "missing-component", "message": "no component stored", "witness": {"f": "0>01", "i": 0}}
        ]

    def test_component_typing(self, bundle):
        gamma = bundle.groth["gamma"]
        comps = {**gamma._components, ("0>01", 0): GroupHom.identity(gamma.src.group("0>01", 0))}
        assert validate_groth(GrothTransf(gamma.src, gamma.tgt, comps)).to_json() == [
            {"kind": "component-typing", "message": "component endpoints mismatch", "witness": {"f": "0>01", "i": 0}}
        ]

    def test_a_component_off_the_site_raises(self, bundle):
        # validate_groth reads components by the site's morphisms, so it would never see this one
        gamma = bundle.groth["gamma"]
        comps = {**gamma._components, ("nowhere", 0): gamma.component("0>01", 0)}
        with pytest.raises(InvalidTransformationError, match="^component at nowhere, which is not a morphism of the site$"):
            GrothTransf(gamma.src, gamma.tgt, comps)

    def test_window_mismatch(self, theory):
        other = TabulatedBivTheory(theory.site, (0, 1), theory._groups, theory._products, theory._pushforwards, theory._pullbacks, theory._units)
        with pytest.raises(InvalidTransformationError):
            GrothTransf(theory, other, {})


def zero_groth(src, tgt):
    comps = {(m.name, i): GroupHom.zero(src.group(m.name, i), tgt.group(m.name, i)) for m in src.site.morphisms for i in src.degrees()}
    return GrothTransf(src, tgt, comps)


IMAGE_CASES = ("gamma", "identity-B", "identity-B2", "zero-B-B2", "zero-theory", "unreduced-B2")


@cache
def image_cases(n):
    """Transformations on subsets(n) by name.  unreduced-B2 writes each
    product cell of B2 with 3 in place of 1, which is the same class mod 2."""
    bundle = build_subsets_instance(n)
    site, b, b2 = bundle.site, bundle.theories["B"], bundle.theories["B2"]
    zero = TabulatedBivTheory(site, (0, 0), {}, {}, {}, {}, {x: () for x in site.objects})
    unreduced = {key: tuple(tuple(tuple(3 if x == 1 else x for x in cell) for cell in row) for row in table) for key, table in b2._products.items()}
    return {
        "gamma": bundle.groth["gamma"],
        "identity-B": reduction_groth(b, b),
        "identity-B2": reduction_groth(b2, b2),
        "zero-B-B2": zero_groth(b, b2),
        "zero-theory": zero_groth(b, zero),
        "unreduced-B2": reduction_groth(rebuild(b2, products=unreduced), b2),
    }


def tables(theory):
    """Every entry of a tabulated theory: groups, product cells, the
    endpoints and matrix of each pushforward and pullback, unit coordinates."""
    return (
        theory._groups,
        theory._products,
        {key: (h.src, h.tgt, h.mat) for key, h in theory._pushforwards.items()},
        {key: (h.src, h.tgt, h.mat) for key, h in theory._pullbacks.items()},
        {x: u.coords for x, u in theory._units.items()},
    )


class TestImageSubtheory:
    @pytest.mark.parametrize("name", IMAGE_CASES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_preimage_reference(self, n, name):
        t = image_cases(n)[name]
        assert tables(image_subtheory(t)) == tables(preimage_image_subtheory(t))

    @pytest.mark.parametrize("n, window", [(2, (-1, 1)), (1, (0, 1))])
    def test_degree_sums_outside_the_window_read_as_zero(self, n, window):
        b = build_subsets_instance(n).theories["B"]
        wide = TabulatedBivTheory(b.site, window, b._groups, b._products, b._pushforwards, b._pullbacks, b._units)
        t = reduction_groth(wide, wide)
        im = image_subtheory(t)
        assert validate_axioms(im).ok
        assert tables(im) == tables(preimage_image_subtheory(t))

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

    def test_mod_two_image_groups_reduce_as_b2_does(self):
        """At n = 3 every nontrivial image group has relations 2 * I, not
        -2 * I, so it reduces on the diagonal path to B2's representatives."""
        bundle = build_subsets_instance(3)
        im, b2 = image_subtheory(bundle.groth["gamma"]), bundle.theories["B2"]
        pairs = [(im.group(m.name, i), b2.group(m.name, i)) for m in bundle.site.morphisms for i in im.degrees()]
        nontrivial = [(g, h) for g, h in pairs if not g.is_trivial]
        assert len(nontrivial) == 19
        for g, h in nontrivial:
            assert g._reduction[0] == "diagonal"
            coords = tuple(range(1, g.ngens + 1))
            assert g.reduce(coords) == h.reduce(coords)

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

    def test_comparison_reports_match_fixture(self):
        path = Path(__file__).parent / "fixtures" / "comparison_reports.json"
        expected = json.loads(path.read_text(encoding="utf-8"))
        assert normalise(comparison_reports()) == expected


def normalise(doc):
    """The document as it reads back from JSON, so tuples compare as lists."""
    return json.loads(json.dumps(doc, sort_keys=True))


def identity_transformation(src, tgt):
    """The Grothendieck map with identity matrices between theories whose
    groups have the same generators."""
    comps = {}
    for m in src.site.morphisms:
        for i in src.degrees():
            a, b = src.group(m.name, i), tgt.group(m.name, i)
            comps[(m.name, i)] = GroupHom(a, b, IntMatrix.identity(a.ngens))
    return GrothTransf(src, tgt, comps)


def comparison_reports():
    """Reports of validate_groth, the op and coop comparison identities and the
    point and identity isomorphisms over the criterion-2 mutation fixtures, B,
    B2 and Im gamma."""
    from test_acceptance import mutation_fixtures

    bundle = build_subsets_instance(2)
    b, b2 = bundle.theories["B"], bundle.theories["B2"]
    mutations = mutation_fixtures(b)
    doc = {}
    for kind, theory in mutations:
        doc[kind] = {
            "groth-to-B2": validate_groth(identity_transformation(theory, b2)).to_json(),
            "groth-from-B": validate_groth(identity_transformation(b, theory)).to_json(),
        }
    # every product zero: op and coop are zero, so both have a kernel and a small image
    zero = {key: tuple(tuple((0,) * len(cell) for cell in row) for row in table) for key, table in b._products.items()}
    cases = mutations + [
        ("B", b),
        ("B2", b2),
        ("Im gamma", image_subtheory(bundle.groth["gamma"])),
        ("zero-products", rebuild(b, products=zero)),
    ]
    for name, theory in cases:
        doc.setdefault(name, {}).update(
            {
                "op-identities": verify_op_transform_identities(theory).to_json(),
                "coop-identities": verify_coop_transform_identities(theory).to_json(),
                "point-isomorphism": verify_point_isomorphism(theory).to_json(),
                "identity-isomorphism": verify_identity_isomorphism(theory).to_json(),
            }
        )
    return doc
