import random

import pytest

from bivariant.bivcore import GrothTransf, TabulatedBivTheory
from bivariant.cooperational import (
    CoopClass,
    MapFamily,
    RingStructureError,
    coop_from_bivariant,
    coop_group,
    coop_hom,
    coop_image_transfer,
    coop_product,
    coop_pullback,
    coop_pushforward,
    coop_unit,
    cup_class,
    cup_transform_compatibility,
    naturality_cube_report,
    non_additivity_witness,
    power_family,
    power_naturality_report,
    transfer_subgroup,
    verify_coop_axioms,
    verify_coop_transform_identities,
    verify_identity_isomorphism,
)
from bivariant.exactalg import FgAbGroup, GroupHom, IntMatrix, image, kernel
from bivariant.famsolve import recover
from bivariant.site import GradedFunctor, NaturalTransf, NonConfinedError
from bivariant.workbench import (
    build_subsets_instance,
    subsets_presheaf,
    subsets_site,
    subsets_theory,
)

from oracles import identities_confined, in_transfer_subgroup, is_zero_hom, rational_rank


@pytest.fixture(scope="module")
def bundle():
    return build_subsets_instance(2)


@pytest.fixture(scope="module")
def F(bundle):
    return bundle.functors["F"]


def terminal_presheaf():
    site = subsets_site(0)
    grp = FgAbGroup.free(1)
    return GradedFunctor(site, "contra", (0, 0), {("E", 0): grp}, {("E>E", 0): GroupHom.identity(grp)})


def constant_presheaf(site):
    grp = FgAbGroup.free(1)
    groups = {(obj, 0): grp for obj in site.objects}
    maps = {(m.name, 0): GroupHom.identity(grp) for m in site.morphisms}
    return GradedFunctor(site, "contra", (0, 0), groups, maps)


class TestCoopGroup:
    def test_terminal_site(self):
        result = coop_group(terminal_presheaf(), "E>E", 0)
        assert result.group.canonical() == (1, ())

    def test_constant_presheaf_forces_equal_components(self):
        site = subsets_site(2)
        result = coop_group(constant_presheaf(site), "01>01", 0)
        assert result.group.canonical() == (1, ())
        cls = result.decoded_gens()[0]
        comps = [cls.component(g, 0).mat for g in site.morphisms_into("01")]
        assert all(m == comps[0] for m in comps)

    def test_subsets_cross_checked(self, F):
        result = coop_group(F, "0>01", 0)
        sol = result.solution
        mat = sol.constraint_hom.mat
        nullity = sol.unknowns.group.ngens - rational_rank(mat.entries, mat.cols)
        assert result.group.canonical() == (nullity, ())
        assert result.group.canonical() == (1, ())

    def test_all_bases_cross_checked(self, F):
        for mor in F.site.morphisms:
            result = coop_group(F, mor.name, 0)
            sol = result.solution
            mat = sol.constraint_hom.mat
            nullity = sol.unknowns.group.ngens - rational_rank(mat.entries, mat.cols)
            assert result.group.canonical() == (nullity, ())

    def test_codec(self, F):
        rng = random.Random(4)
        for mor in ["01>01", "0>01"]:
            result = coop_group(F, mor, 0)
            for e, cls in zip(result.group.gens(), result.decoded_gens()):
                assert cls.compatibility_report().ok
                assert result.encode(cls) == e
            for _ in range(3):
                e = result.group.element([rng.randint(-3, 3) for _ in range(result.group.ngens)])
                assert result.encode(result.decode(e)) == e


class TestCoopOperations:
    def test_product_with_unit(self, F):
        result = coop_group(F, "0>01", 0)
        unit = coop_unit(F, "01")
        unit0 = coop_unit(F, "0")
        for cls in result.decoded_gens():
            assert coop_product(cls, unit) == cls
            assert coop_product(unit0, cls) == cls

    def test_pushforward_along_identity(self, F):
        result = coop_group(F, "0>01", 0)
        for cls in result.decoded_gens():
            assert coop_pushforward(cls, "0>0", "0>01") == cls

    def test_pushforward_needs_no_confinedness(self):
        site = identities_confined(subsets_site(2))
        F = subsets_presheaf(site)
        result = coop_group(F, "0>01", 0)
        for cls in result.decoded_gens():
            pushed = coop_pushforward(cls, "0>01", "01>01")
            assert pushed.base == "01>01"
            assert pushed.compatibility_report().ok

    def test_associativity_subsets_three(self):
        site = subsets_site(3)
        F3 = subsets_presheaf(site)
        rng = random.Random(17)

        def sample(base, count=2):
            result = coop_group(F3, base, 0)
            out = list(result.decoded_gens())[:2]
            for _ in range(count):
                coords = [rng.randint(-2, 2) for _ in range(result.group.ngens)]
                out.append(result.decode(result.group.element(coords)))
            return out

        cs = sample("0>01")
        ds = sample("01>012")
        es = sample("012>012")
        for c in cs:
            for d in ds:
                cd = coop_product(c, d)
                for e in es:
                    assert coop_product(cd, e) == coop_product(c, coop_product(d, e))

    def test_unit_pulls_back_to_unit(self, F):
        unit = coop_unit(F, "01")
        assert coop_pullback(unit, "0>01") == coop_unit(F, "0")


class TestCoopFromBivariant:
    def test_unit_gives_identity_family(self, bundle):
        b = bundle.theories["B"]
        for x in b.site.objects:
            idx = b.site.identity(x)
            cls = coop_from_bivariant(b, idx, 0, b.unit(x))
            assert cls == coop_unit(cls.functor, x)

    def test_pointwise_closed_form(self, bundle):
        # coop(e0)_g multiplies by the restriction of e0
        b = bundle.theories["B"]
        site = b.site
        alpha = b.group("01>01", 0).element((1, 0))
        cls = coop_from_bivariant(b, "01>01", 0, alpha)
        for g in site.morphisms_into("01"):
            members = [] if site.src(g) == "E" else [int(c) for c in site.src(g)]
            expected = IntMatrix(
                len(members),
                len(members),
                tuple(
                    tuple(1 if x == y and x == 0 else 0 for y in members) for x in members
                ),
            )
            assert cls.component(g, 0).mat == expected

    def test_zero_maps_to_zero_family(self, bundle):
        b = bundle.theories["B"]
        zero = b.group("0>01", 0).zero_element()
        cls = coop_from_bivariant(b, "0>01", 0, zero)
        for key in list(cls.components):
            assert is_zero_hom(cls.components[key])

    def test_non_confined_rejected(self):
        site = identities_confined(subsets_site(2))
        b = subsets_theory(site)
        alpha = b.group("0>01", 0).element((1,))
        with pytest.raises(NonConfinedError):
            coop_from_bivariant(b, "0>01", 0, alpha)

    def test_injectivity_over_identities(self, bundle):
        b = bundle.theories["B"]
        for x in b.site.objects:
            idx = b.site.identity(x)
            ch = coop_hom(b, idx, 0)
            assert kernel(ch).group.is_trivial

    def test_recovery(self, bundle):
        b = bundle.theories["B"]
        for a in b.group("01>01", 0).gens():
            cls = coop_from_bivariant(b, "01>01", 0, a)
            assert recover(b, cls) == a


class TestComputedTheoryAxioms:
    def test_seven_axioms_plus_units(self, F):
        assert verify_coop_axioms(F).ok

    def test_mod_two_axioms(self, bundle):
        assert verify_coop_axioms(bundle.functors["F2"]).ok


class TestComparisonIdentities:
    def test_comparison_map_identities(self, bundle):
        assert verify_coop_transform_identities(bundle.theories["B"]).ok

    def test_identity_isomorphism(self, bundle):
        assert verify_identity_isomorphism(bundle.theories["B"]).ok

    def test_image_subgroup_matches(self, bundle):
        b = bundle.theories["B"]
        for x in b.site.objects:
            idx = b.site.identity(x)
            sub = image(coop_hom(b, idx, 0))
            assert sub.group.canonical() == b.group(idx, 0).canonical()

    def test_contravariant_surjectivity(self, bundle):
        assert bundle.groth["gamma"].surjectivity_witness("contra") is None
        for mor in bundle.site.morphisms:
            coop_image_transfer(bundle.groth["gamma"], mor.name, 0, mode="full")


def brute_force_membership(tsr, cls):
    """Enumerate the finite target group and test the linking equations."""
    transf, site = tsr.transf, tsr.transf.site
    for e in tsr.target_result.group.elements():
        d = tsr.target_result.decode(e)
        good = True
        for g in site.morphisms_into(site.tgt(tsr.base)):
            apex = site.chosen_pullback(tsr.base, g).apex
            for m in transf.src.grades():
                lhs = transf.component(site.src(g), m + tsr.degree) @ cls.component(g, m)
                rhs = d.component(g, m) @ transf.component(apex, m)
                if not lhs.equals(rhs):
                    good = False
                    break
            if not good:
                break
        if good:
            return True
    return False


class TestTransferSubgroup:
    def test_identity_transformation_full(self, F):
        ident = NaturalTransf(F, F, {
            (obj, 0): GroupHom.identity(F.group(obj, 0)) for obj in F.site.objects
        })
        tsr = transfer_subgroup(ident, "0>01", 0)
        assert tsr.subgroup.group.canonical() == tsr.source_result.group.canonical()
        for cls in tsr.source_result.decoded_gens():
            sols = tsr.companions(cls)
            assert sols.is_unique
            assert sols.particular == cls

    def test_zero_functor_target(self, F):
        site = F.site
        zero = GradedFunctor(site, "contra", (0, 0), {}, {})
        t = NaturalTransf(F, zero, {})
        tsr = transfer_subgroup(t, "0>01", 0)
        assert tsr.subgroup.group.canonical() == tsr.source_result.group.canonical()
        for cls in tsr.source_result.decoded_gens():
            sols = tsr.companions(cls)
            assert sols.is_unique  # coop of the zero functor is trivial
            assert tsr.target_result.encode(sols.particular).is_zero

    def test_mod_two_membership_against_oracle(self, bundle):
        transf = bundle.transformations["T"]
        for mor in bundle.site.morphisms:
            tsr = transfer_subgroup(transf, mor.name, 0)
            for cls in tsr.source_result.decoded_gens():
                assert in_transfer_subgroup(tsr, cls) == brute_force_membership(tsr, cls)

    def test_mod_two_solutions_are_singletons(self, bundle):
        transf = bundle.transformations["T"]
        for mor in ["01>01", "0>01", "1>01"]:
            tsr = transfer_subgroup(transf, mor, 0)
            for x in tsr.subgroup.group.gens():
                cls = tsr.source_result.decode(tsr.subgroup.inclusion(x))
                sols = tsr.companions(cls)
                assert sols.is_unique

    def test_closure_under_the_three_operations(self, bundle):
        transf = bundle.transformations["T"]
        site = bundle.site
        cache = {}

        def tsr_for(base):
            if base not in cache:
                cache[base] = transfer_subgroup(transf, base, 0)
            return cache[base]

        def members(base):
            tsr = tsr_for(base)
            return [
                tsr.source_result.decode(tsr.subgroup.inclusion(x))
                for x in tsr.subgroup.group.gens()
            ]

        for f, g in site.composable_pairs():
            gf = site.compose(g, f)
            for c in members(f):
                for d in members(g):
                    assert in_transfer_subgroup(tsr_for(gf), coop_product(c, d))
        for f, g in site.composable_pairs():
            gf = site.compose(g, f)
            for c in members(gf):
                assert in_transfer_subgroup(tsr_for(g), coop_pushforward(c, f, g))
        for mor in site.morphisms:
            for g in site.morphisms_into(mor.tgt):
                fprime = site.chosen_pullback(mor.name, g).left
                for c in members(mor.name):
                    assert in_transfer_subgroup(tsr_for(fprime), coop_pullback(c, g))

    def test_transfer_identities_surjective(self, bundle):
        # with unique companions the transfer respects all three operations
        transf = bundle.transformations["T"]
        site = bundle.site
        cache = {}

        def tsr_for(base):
            if base not in cache:
                cache[base] = transfer_subgroup(transf, base, 0)
            return cache[base]

        def companion(base, cls):
            sols = tsr_for(base).companions(cls)
            assert sols.is_unique
            return sols.particular

        for f, g in site.composable_pairs():
            gf = site.compose(g, f)
            for c in tsr_for(f).source_result.decoded_gens():
                for d in tsr_for(g).source_result.decoded_gens():
                    lhs = companion(gf, coop_product(c, d))
                    rhs = coop_product(companion(f, c), companion(g, d))
                    assert lhs == rhs
        for f, g in site.composable_pairs():
            gf = site.compose(g, f)
            for c in tsr_for(gf).source_result.decoded_gens():
                assert companion(g, coop_pushforward(c, f, g)) == coop_pushforward(
                    companion(gf, c), f, g
                )
        for mor in ["01>01", "0>01"]:
            for g in site.morphisms_into(site.tgt(mor)):
                fprime = site.chosen_pullback(mor, g).left
                for c in tsr_for(mor).source_result.decoded_gens():
                    assert companion(fprime, coop_pullback(c, g)) == coop_pullback(
                        companion(mor, c), g
                    )

    def test_naturality_cube(self, bundle):
        transf = bundle.transformations["T"]
        for mor in bundle.site.morphisms:
            assert naturality_cube_report(transfer_subgroup(transf, mor.name, 0)).ok

    def test_coset_structure(self, bundle):
        # the homogeneous subgroup does not depend on the chosen member
        transf = bundle.transformations["T"]
        tsr = transfer_subgroup(transf, "01>01", 0)
        shapes = set()
        for x in tsr.subgroup.group.gens():
            cls = tsr.source_result.decode(tsr.subgroup.inclusion(x))
            shapes.add(tsr.companions(cls).homogeneous.group.canonical())
        assert len(shapes) <= 1


class TestCupAndPower:
    def test_cup_with_ring_unit(self, bundle):
        b = bundle.theories["B"]
        cls = cup_class(b, "01", 0, b.unit("01"))
        assert cls == coop_unit(cls.functor, "01")

    def test_cup_pointwise(self, bundle):
        b = bundle.theories["B"]
        e0 = b.group("01>01", 0).element((1, 0))
        cls = cup_class(b, "01", 0, e0)
        # e0 cup e0 = e0 in the pointwise ring
        got = cls.component("01>01", 0)(e0)
        assert got == b.group("01>01", 0).element((1, 0))

    def test_square_naturality(self, bundle):
        fam = power_family(bundle.theories["B"], "01", 2)
        assert power_naturality_report(fam).ok

    def test_square_non_additivity_witness(self, bundle):
        fam = power_family(bundle.theories["B"], "01", 2)
        witness = non_additivity_witness(fam)
        assert witness is not None
        # x = y = e0: (x + y)^2 = 4 e0 while x^2 + y^2 = 2 e0
        b = bundle.theories["B"]
        grp = b.group(f"{witness.g.split('>')[0]}>{witness.g.split('>')[0]}", 0)
        lhs = grp.element(witness.lhs)
        rhs = grp.element(witness.rhs)
        assert lhs != rhs

    def test_square_not_encodable_as_class(self, bundle):
        # the family disagrees with every additive family at x + x
        b = bundle.theories["B"]
        fam = power_family(b, "01", 2)
        comp = fam.component("01>01", 0)
        grp = b.group("01>01", 0)
        e0 = grp.element((1, 0))
        assert comp(e0 + e0) != comp(e0) + comp(e0)

    def test_power_one_is_identity(self, bundle):
        b = bundle.theories["B"]
        fam = power_family(b, "01", 1)
        grp = b.group("01>01", 0)
        for g in grp.gens():
            assert fam.component("01>01", 0)(g) == g
        assert non_additivity_witness(fam) is None

    def test_cup_compatible_with_reduction(self, bundle):
        assert cup_transform_compatibility(bundle.groth["gamma"], "01", 0).ok

    def test_a_component_that_is_not_natural_is_reported(self, bundle):
        # the square's component at 0>01 made the identity: along h = 0>01,
        # the pulled-back square (h^*x)^2 and h^*x differ exactly where the
        # coordinate at 0 is neither 0 nor 1, which on the degree-2 grid
        # {0, 1, 2}^2 is x = (2, *)
        fam = power_family(bundle.theories["B"], "01", 2)
        comps = {**fam.components, ("0>01", 0): lambda x: x}
        broken = MapFamily(fam.functor, fam.base, comps, fam.grade_out, fam.poly_degree)
        message = "family does not commute with pullback"
        assert power_naturality_report(broken).to_json() == [
            {"kind": "power-naturality", "message": message, "witness": {"g": "01>01", "grade": 0, "h": "0>01", "x": (2, y)}}
            for y in range(3)
        ]

    def test_a_transformation_that_breaks_the_cup_is_reported(self, bundle):
        # gamma made zero over id_01 only: t(a) = 0, so the right side
        # vanishes, while t(x cup g^*a) = x cup g^*a mod 2 is nonzero exactly
        # where g^*a is, that is at g = 0>01 for e0 and g = 1>01 for e1; over
        # g = 01>01 both sides read t over id_01, and B(E) is trivial
        gamma = bundle.groth["gamma"]
        b, b2 = gamma.src, gamma.tgt
        zero = GroupHom.zero(b.group("01>01", 0), b2.group("01>01", 0))
        broken = GrothTransf(b, b2, {**gamma._components, ("01>01", 0): zero})
        message = "t(x cup g^*a) != t(x) cup g^*t(a)"
        assert cup_transform_compatibility(broken, "01", 0).to_json() == [
            {"kind": "cup-compatibility", "message": message, "witness": {"a": (1, 0), "g": "0>01", "obj": "01", "x": (1,)}},
            {"kind": "cup-compatibility", "message": message, "witness": {"a": (0, 1), "g": "1>01", "obj": "01", "x": (1,)}},
        ]

    def test_transfer_recovers_reduction_on_cup_classes(self, bundle):
        # companion of coop(alpha) under the reduction is coop(alpha mod 2)
        b, b2 = bundle.theories["B"], bundle.theories["B2"]
        gamma = bundle.groth["gamma"]
        transf = bundle.transformations["T"]
        tsr = transfer_subgroup(transf, "01>01", 0)
        for a in b.group("01>01", 0).gens():
            cls = coop_from_bivariant(b, "01>01", 0, a)
            sols = tsr.companions(cls)
            assert sols.is_unique
            expected = coop_from_bivariant(b2, "01>01", 0, gamma("01>01", 0, a))
            assert sols.particular == expected

    def test_missing_ring_structure(self):
        # a theory whose identity products are not commutative
        site = subsets_site(1)
        b = subsets_theory(site)
        groups = dict(b._groups)
        products = dict(b._products)
        z2 = FgAbGroup.free(2)
        groups[("0>0", 0)] = z2
        # product table on the doubled group: (x, y) -> x * sigma(y), not commutative
        products[("0>0", "0>0", 0, 0)] = (
            (((1, 0)), ((0, 0))),
            (((0, 1)), ((0, 0))),
        )
        broken = TabulatedBivTheory(site, (0, 0), groups, products, b._pushforwards, b._pullbacks, b._units)
        with pytest.raises(RingStructureError):
            cup_class(broken, "0", 0, broken.group("0>0", 0).element((1, 0)))


class TestDegreeWindowAndQuarantine:
    def test_product_degree_overflow(self, F):
        from bivariant.bivcore import DegreeWindowError

        result = coop_group(F, "0>01", 0)
        cls = result.decoded_gens()[0]
        shifted = CoopClass(F, "01>01", 1, {})
        with pytest.raises(DegreeWindowError):
            coop_product(cls, shifted)

    def test_map_family_rejected_by_encoder(self, bundle):
        b = bundle.theories["B"]
        fam = power_family(b, "01", 2)
        result = coop_group(b.contravariant_part, "01>01", 0)
        with pytest.raises(TypeError):
            result.encode(fam)


class TestPastingError:
    def test_broken_universal_property_raises(self):
        from bivariant.site import PastingError, Site

        full = subsets_site(2)
        pb = dict(full._pullbacks)
        pb[("0>01", "01>01")] = ("E", "E>0", "E>01")  # commutes but not universal
        site = Site(
            full.objects,
            full.morphisms,
            {x: full.identity(x) for x in full.objects},
            full._comp,
            full.confined,
            pb,
            full.final_object,
        )
        with pytest.raises(PastingError):
            site.cospan_paste("0>01", "01>01", "0>01")
