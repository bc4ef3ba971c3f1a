import pytest

from bivariant.exactalg import GroupHom, IntMatrix
from bivariant.site import (
    CospanMismatchError,
    GradedFunctor,
    MissingFinalObjectError,
    NaturalTransf,
    NonConfinedError,
    Site,
    SiteStructureError,
    validate_site,
)
from bivariant.workbench import (
    reduction_transformation,
    subsets_presheaf,
    subsets_homology,
    subsets_site,
)


@pytest.fixture(scope="module")
def s2():
    return subsets_site(2)


def chain_site(confined):
    """Poset a <= b <= c with meets, parameterized by the confined class."""
    objects = ["a", "b", "c"]
    morphisms = [
        ("a>a", "a", "a"),
        ("b>b", "b", "b"),
        ("c>c", "c", "c"),
        ("a>b", "a", "b"),
        ("b>c", "b", "c"),
        ("a>c", "a", "c"),
    ]
    order = {"a": 0, "b": 1, "c": 2}

    def arrow(x, y):
        return f"{x}>{y}"

    composition = {}
    for f, fs, ft in morphisms:
        for g, gs, gt in morphisms:
            if ft == gs:
                composition[(g, f)] = arrow(fs, gt)
    identities = {x: arrow(x, x) for x in objects}
    pullbacks = {}
    for f, fs, ft in morphisms:
        for g, gs, gt in morphisms:
            if ft != gt:
                continue
            apex = fs if order[fs] <= order[gs] else gs
            pullbacks[(f, g)] = (apex, arrow(apex, fs), arrow(apex, gs))
    return Site(objects, morphisms, identities, composition, confined, pullbacks, final_object="c")


class TestValidateSite:
    def test_subsets_all_confined(self, s2):
        assert validate_site(s2).ok

    def test_subsets_identities_confined(self):
        assert validate_site(subsets_site(2, confined="identities")).ok

    def test_subsets_three(self):
        assert validate_site(subsets_site(3)).ok

    def test_confined_not_closed_under_composition(self):
        site = chain_site({"a>a", "b>b", "c>c", "a>b", "b>c"})
        report = validate_site(site)
        assert report.has("confined-composition")
        v = next(v for v in report.violations if v.kind == "confined-composition")
        assert v.witness_dict()["composite"] == "a>c"

    def test_confined_missing_identity(self):
        site = chain_site(set())
        assert validate_site(site).has("confined-identities")

    def test_confined_base_change(self):
        full = subsets_site(2)
        confined = {full.identity(x) for x in full.objects} | {"0>01"}
        site = Site(
            full.objects,
            full.morphisms,
            {x: full.identity(x) for x in full.objects},
            full._comp,
            confined,
            full._pullbacks,
            full.final_object,
        )
        report = validate_site(site)
        assert report.has("confined-base-change")

    def test_identity_neutral_violation(self):
        objects = ["x", "y"]
        morphisms = [("ix", "x", "x"), ("iy", "y", "y"), ("f", "x", "y"), ("g", "x", "y")]
        comp = {
            ("iy", "f"): "g",  # wrong on purpose
            ("iy", "g"): "g",
            ("f", "ix"): "f",
            ("g", "ix"): "g",
            ("ix", "ix"): "ix",
            ("iy", "iy"): "iy",
        }
        pb = {}
        for f in ("f", "g", "iy"):
            for g in ("f", "g", "iy"):
                apex = "x" if "f" in (f, g) or "g" in (f, g) else "y"
                if f == "iy" and g == "iy":
                    pb[(f, g)] = ("y", "iy", "iy")
                elif f == "iy":
                    pb[(f, g)] = ("x", g, "ix")
                elif g == "iy":
                    pb[(f, g)] = ("x", "ix", f)
                else:
                    pb[(f, g)] = ("x", "ix", "ix")
        pb[("ix", "ix")] = ("x", "ix", "ix")
        site = Site(objects, morphisms, {"x": "ix", "y": "iy"}, comp, {"ix", "iy", "f", "g"}, pb)
        assert validate_site(site).has("identity-neutral")

    def test_square_commutes_violation(self):
        objects = ["x", "y"]
        morphisms = [("ix", "x", "x"), ("iy", "y", "y"), ("f", "x", "y"), ("g", "x", "y")]
        comp = {
            ("iy", "f"): "f",
            ("iy", "g"): "g",
            ("f", "ix"): "f",
            ("g", "ix"): "g",
            ("ix", "ix"): "ix",
            ("iy", "iy"): "iy",
        }
        pb = {
            ("f", "f"): ("x", "ix", "ix"),
            ("g", "g"): ("x", "ix", "ix"),
            ("f", "g"): ("x", "ix", "ix"),  # f o ix != g o ix
            ("g", "f"): ("x", "ix", "ix"),
            ("f", "iy"): ("x", "ix", "f"),
            ("iy", "f"): ("x", "f", "ix"),
            ("g", "iy"): ("x", "ix", "g"),
            ("iy", "g"): ("x", "g", "ix"),
            ("iy", "iy"): ("y", "iy", "iy"),
            ("ix", "ix"): ("x", "ix", "ix"),
        }
        site = Site(objects, morphisms, {"x": "ix", "y": "iy"}, comp, {"ix", "iy", "f", "g"}, pb)
        assert validate_site(site).has("square-commutes")

    def test_universal_property_and_degenerate_violation(self):
        full = subsets_site(2)
        pb = dict(full._pullbacks)
        pb[("0>01", "01>01")] = ("E", "E>0", "E>01")  # commutes, but too small
        site = Site(
            full.objects,
            full.morphisms,
            {x: full.identity(x) for x in full.objects},
            full._comp,
            full.confined,
            pb,
            full.final_object,
        )
        report = validate_site(site)
        assert report.has("degenerate-square")
        assert report.has("universal-property")

    def test_associativity_violation(self):
        objects = ["x"]
        morphisms = [("i", "x", "x"), ("a", "x", "x"), ("b", "x", "x"), ("c", "x", "x")]
        table = {
            ("a", "a"): "b",
            ("b", "a"): "c",
            ("a", "b"): "i",  # makes (a.a).a != a.(a.a)
            ("a", "c"): "a",
            ("b", "b"): "b",
            ("b", "c"): "b",
            ("c", "a"): "a",
            ("c", "b"): "b",
            ("c", "c"): "c",
        }
        comp = {}
        for f in ("i", "a", "b", "c"):
            for g in ("i", "a", "b", "c"):
                if f == "i":
                    comp[(g, f)] = g
                elif g == "i":
                    comp[(g, f)] = f
                else:
                    comp[(g, f)] = table[(g, f)]
        pb = {}
        for f in ("i", "a", "b", "c"):
            for g in ("i", "a", "b", "c"):
                if f == "i":
                    pb[(f, g)] = ("x", g, "i")
                elif g == "i":
                    pb[(f, g)] = ("x", "i", f)
                else:
                    pb[(f, g)] = ("x", "i", "i")
        site = Site(objects, morphisms, {"x": "i"}, comp, {"i", "a", "b", "c"}, pb)
        assert validate_site(site).has("associativity")

    def test_final_object_violation(self):
        full = subsets_site(2)
        site = Site(
            full.objects,
            full.morphisms,
            {x: full.identity(x) for x in full.objects},
            full._comp,
            full.confined,
            full._pullbacks,
            final_object="0",
        )
        assert validate_site(site).has("final-object")

    def test_structural_errors(self):
        with pytest.raises(SiteStructureError):
            Site(["x"], [("f", "x", "q")], {"x": "f"}, {}, set(), {})
        with pytest.raises(SiteStructureError):
            Site(["x"], [("i", "x", "x")], {"x": "i"}, {}, set(), {})  # missing composition


class TestChosenPullback:
    def test_degenerate(self, s2):
        sq = s2.chosen_pullback("0>01", "01>01")
        assert (sq.apex, sq.top, sq.left) == ("0", "0>0", "0>01")

    def test_intersection(self, s2):
        sq = s2.chosen_pullback("0>01", "1>01")
        assert sq.apex == "E"

    def test_identity_cospan(self, s2):
        sq = s2.chosen_pullback("01>01", "01>01")
        assert sq.apex == "01"

    def test_cospan_mismatch(self, s2):
        with pytest.raises(CospanMismatchError):
            s2.chosen_pullback("E>0", "E>1")


class TestPasteComparison:
    def test_posets_identity(self, s2):
        count = 0
        for f in s2.morphisms:
            for g in s2.morphisms_into(f.tgt):
                for h in s2.morphisms_into(s2.src(g)):
                    pc = s2.cospan_paste(f.name, g, h)
                    assert pc.is_identity(s2)
                    count += 1
        assert count > 0

    def test_degenerate_chain(self, s2):
        pc = s2.cospan_paste("0>01", "01>01", "01>01")
        assert pc.is_identity(s2)

    def test_three_element_lattice(self):
        s3 = subsets_site(3)
        # nested inclusions: intersections associate strictly
        pc = s3.cospan_paste("01>012", "12>012", "2>12")
        assert pc.is_identity(s3)
        assert pc.direct.apex == "E"

    def test_tower_identity(self, s2):
        for f, g in s2.composable_pairs():
            for h in s2.morphisms_into(s2.tgt(g)):
                assert s2.tower_paste(f, g, h).is_identity(s2)


class TestGradedFunctor:
    def test_presheaf_validates(self, s2):
        assert subsets_presheaf(s2).validate().ok

    def test_homology_validates(self, s2):
        assert subsets_homology(s2).validate().ok

    def test_functoriality_violation(self):
        s3 = subsets_site(3)
        f = subsets_presheaf(s3)
        maps = dict(f._maps)
        maps[("01>012", 0)] = maps[("01>012", 0)].scaled(2)
        broken = GradedFunctor(s3, "contra", (0, 0), f._groups, maps)
        assert broken.validate().has("functoriality")

    def test_identity_map_violation(self, s2):
        f = subsets_presheaf(s2)
        maps = dict(f._maps)
        maps[("01>01", 0)] = maps[("01>01", 0)].scaled(-1)
        broken = GradedFunctor(s2, "contra", (0, 0), f._groups, maps)
        assert broken.validate().has("identity-map")

    def test_cov_rejects_non_confined(self):
        site = subsets_site(2, confined="identities")
        h = subsets_homology(site)
        with pytest.raises(NonConfinedError):
            h.map("0>01", 0)

    def test_window_zero_outside(self, s2):
        f = subsets_presheaf(s2)
        assert f.group("01", 5).is_trivial


class TestNaturalTransf:
    def test_reduction_validates(self, s2):
        f = subsets_presheaf(s2)
        f2 = subsets_presheaf(s2, modulus=2)
        assert reduction_transformation(f, f2).validate().ok

    def test_naturality_violation(self, s2):
        f = subsets_presheaf(s2)
        f2 = subsets_presheaf(s2, modulus=2)
        t = reduction_transformation(f, f2)
        comps = dict(t._components)
        g01 = f.group("01", 0)
        comps[("01", 0)] = GroupHom(g01, f2.group("01", 0), IntMatrix.from_rows([[1, 1], [0, 1]]))
        broken = NaturalTransf(f, f2, comps)
        assert broken.validate().has("naturality")


class TestFinalObject:
    def test_to_point(self, s2):
        assert s2.to_point("0") == "0>01"
        assert s2.to_point("01") == "01>01"

    def test_missing_final(self):
        full = subsets_site(2)
        site = Site(
            full.objects,
            full.morphisms,
            {x: full.identity(x) for x in full.objects},
            full._comp,
            full.confined,
            full._pullbacks,
            final_object=None,
        )
        with pytest.raises(MissingFinalObjectError):
            site.to_point("0")
