"""Coverage beyond posets and beyond degree zero.

The flip site is the two-element group as a one-object category: two
parallel endomorphisms, chosen pullbacks (x, e, g^{-1} f) with the two
degenerate forms special-cased.  It exercises mediator searches in
hom-sets of size two and functors that permute coordinates.
"""

import pytest

from bivariant.cooperational import (
    coop_group,
    coop_product,
    coop_pullback,
    coop_pushforward,
    coop_unit,
    verify_coop_axioms,
)
from bivariant.exactalg import FgAbGroup, GroupHom, IntMatrix
from bivariant.operational import op_group, verify_op_axioms
from bivariant.site import GradedFunctor, Site, validate_site
from bivariant.workbench import build_graded_instance


def flip_site() -> Site:
    objects = ["x"]
    morphisms = [("e", "x", "x"), ("s", "x", "x")]
    comp = {
        ("e", "e"): "e",
        ("e", "s"): "s",
        ("s", "e"): "s",
        ("s", "s"): "e",
    }
    pullbacks = {}
    for f in ("e", "s"):
        for g in ("e", "s"):
            if f == "e" and g != "e":
                pullbacks[(f, g)] = ("x", g, "e")
            else:
                inverse_g = g  # every element is its own inverse here
                left = comp[(inverse_g, f)]
                pullbacks[(f, g)] = ("x", "e", left)
    return Site(objects, morphisms, {"x": "e"}, comp, {"e", "s"}, pullbacks)


def swap_presheaf(site: Site) -> GradedFunctor:
    grp = FgAbGroup.free(2)
    swap = GroupHom(grp, grp, IntMatrix.from_rows([[0, 1], [1, 0]]))
    return GradedFunctor(
        site,
        "contra",
        (0, 0),
        {("x", 0): grp},
        {("e", 0): GroupHom.identity(grp), ("s", 0): swap},
    )


def swap_homology(site: Site) -> GradedFunctor:
    grp = FgAbGroup.free(2)
    swap = GroupHom(grp, grp, IntMatrix.from_rows([[0, 1], [1, 0]]))
    return GradedFunctor(
        site,
        "cov",
        (0, 0),
        {("x", 0): grp},
        {("e", 0): GroupHom.identity(grp), ("s", 0): swap},
    )


class TestFlipSite:
    def test_site_is_valid(self):
        assert validate_site(flip_site()).ok

    def test_pastes_invert(self):
        # some pastes here are genuinely non-strict; the comparison is still
        # a two-sided inverse pair
        site = flip_site()
        nonstrict = 0
        for f in ("e", "s"):
            for g in ("e", "s"):
                for h in ("e", "s"):
                    for paste in (site.cospan_paste(f, g, h), site.tower_paste(f, g, h)):
                        assert site.is_identity(site.compose(paste.to_direct, paste.to_pasted))
                        assert site.is_identity(site.compose(paste.to_pasted, paste.to_direct))
                        if not paste.is_identity(site):
                            nonstrict += 1
        assert nonstrict > 0

    def test_functor_validates(self):
        site = flip_site()
        assert swap_presheaf(site).validate().ok
        assert swap_homology(site).validate().ok

    def test_coop_group_is_conjugation_constrained(self):
        # c_s is the swap-conjugate of c_e, so the group is one free Hom space
        site = flip_site()
        F = swap_presheaf(site)
        result = coop_group(F, "e", 0)
        assert result.group.canonical() == (4, ())
        swap = F.map("s", 0)
        for cls in result.decoded_gens():
            conj = swap @ cls.component("e", 0) @ swap
            assert cls.component("s", 0).equals(conj)

    def test_coop_group_over_the_flip(self):
        site = flip_site()
        F = swap_presheaf(site)
        result = coop_group(F, "s", 0)
        assert result.group.canonical() == (4, ())
        for cls in result.decoded_gens():
            assert cls.compatibility_report().ok
            assert result.decode(result.encode(cls)) == cls

    def test_coop_axioms_hold(self):
        assert verify_coop_axioms(swap_presheaf(flip_site())).ok

    def test_op_group_and_axioms(self):
        site = flip_site()
        h = swap_homology(site)
        result = op_group(h, "e", 0)
        assert result.group.canonical() == (4, ())
        assert verify_op_axioms(h).ok

    def test_unit_and_operations(self):
        site = flip_site()
        F = swap_presheaf(site)
        unit = coop_unit(F, "x")
        result = coop_group(F, "s", 0)
        for cls in result.decoded_gens():
            assert coop_product(cls, unit) == cls
            assert coop_product(unit, cls) == cls
            pulled = coop_pullback(cls, "s")
            assert pulled.compatibility_report().ok
            pushed = coop_pushforward(cls, "s", "e")
            assert pushed.compatibility_report().ok


class TestNonzeroDegrees:
    def test_degree_two_group(self):
        # one free scaling per grade whose shift stays inside the window
        bundle = build_graded_instance(2)
        F = bundle.functors["Heven"]
        result = coop_group(F, "0>0", 2)
        assert result.group.canonical() == (2, ())
        for cls in result.decoded_gens():
            assert cls.compatibility_report().ok
            src0 = cls.component("0>0", 0)
            assert src0.src == F.group("0", 0) and src0.tgt == F.group("0", 2)

    def test_degree_minus_two_group(self):
        bundle = build_graded_instance(2)
        F = bundle.functors["Heven"]
        result = coop_group(F, "0>0", -2)
        assert result.group.canonical() == (2, ())

    def test_degrees_add_under_product(self):
        bundle = build_graded_instance(2)
        F = bundle.functors["Heven"]
        up = coop_group(F, "0>0", 2).decoded_gens()
        down = coop_group(F, "0>0", -2).decoded_gens()
        for c in up:
            for d in down:
                prod = coop_product(c, d)
                assert prod.degree == 0
                assert prod.compatibility_report().ok

    def test_infeasible_degree_is_trivial(self):
        bundle = build_graded_instance(2)
        F = bundle.functors["Heven"]
        assert coop_group(F, "0>0", 5).group.is_trivial


def constant_theory(site):
    """The constant theory Z with every table the identity."""
    from bivariant.bivcore import TabulatedBivTheory

    grp = FgAbGroup.free(1)
    groups = {(m.name, 0): grp for m in site.morphisms}
    products = {}
    for f, g in site.composable_pairs():
        products[(f, g, 0, 0)] = (((1,),),)
    pushforwards = {
        (f, g, 0): GroupHom.identity(grp) for f, g in site.composable_pairs()
    }
    pullbacks = {
        (f, g, 0): GroupHom.identity(grp) for (f, g) in site._pullbacks
    }
    units = {x: (1,) for x in site.objects}
    return TabulatedBivTheory(site, (0, 0), groups, products, pushforwards, pullbacks, units)


class TestTabulatedOnNonStrictSite:
    def test_zero_theory_passes_vacuously(self):
        from bivariant.bivcore import TabulatedBivTheory, validate_axioms

        site = flip_site()
        zero = TabulatedBivTheory(site, (0, 0), {}, {}, {}, {}, {"x": ()})
        assert validate_axioms(zero).ok

    def test_nontrivial_theory_reports_nonstrict_pasting(self):
        from bivariant.bivcore import validate_axioms

        site = flip_site()
        report = validate_axioms(constant_theory(site))
        kinds = set(report.kinds())
        assert kinds <= {"nonstrict-pasting"}
        assert "nonstrict-pasting" in kinds
