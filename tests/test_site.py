import pytest

from bivariant.cooperational import verify_coop_axioms
from bivariant.exactalg import FgAbGroup, GroupHom, IntMatrix
from bivariant.operational import verify_op_axioms
from bivariant.site import (
    CospanMismatchError,
    GradedFunctor,
    MissingFinalObjectError,
    MissingMapError,
    NaturalTransf,
    NonConfinedError,
    PastingError,
    Site,
    SiteStructureError,
    validate_site,
)
from bivariant.workbench import (
    build_subsets_instance,
    bundle_to_json,
    parse_instance,
    reduction_transformation,
    subsets_presheaf,
    subsets_homology,
    subsets_site,
)

from oracles import identities_confined


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
        assert validate_site(identities_confined(subsets_site(2))).ok

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


def paste_keys(site):
    """Every (kind, f, g, h) with a defined paste on the site."""
    for f in site.morphisms:
        for g in site.morphisms_into(f.tgt):
            for h in site.morphisms_into(site.src(g)):
                yield ("cospan", f.name, g, h)
    for f, g in site.composable_pairs():
        for h in site.morphisms_into(site.tgt(g)):
            yield ("tower", f, g, h)


def count_builds(monkeypatch):
    """Count the calls of the two private paste builders, by key."""
    built = []
    for kind in ("cospan", "tower"):
        attr = f"_build_{kind}_paste"
        original = getattr(Site, attr)

        def counted(self, f, g, h, kind=kind, original=original):
            built.append((kind, f, g, h))
            return original(self, f, g, h)

        monkeypatch.setattr(Site, attr, counted)
    return built


def paste(site, key):
    kind, f, g, h = key
    return (site.cospan_paste if kind == "cospan" else site.tower_paste)(f, g, h)


def non_universal_site():
    """subsets(2) with the chosen square of (0>01, 01>01) shrunk to apex E."""
    full = subsets_site(2)
    pb = dict(full._pullbacks)
    pb[("0>01", "01>01")] = ("E", "E>0", "E>01")
    identities = {x: full.identity(x) for x in full.objects}
    return Site(full.objects, full.morphisms, identities, full._comp, full.confined, pb, full.final_object)


class TestPasteTables:
    """Each site computes a paste once per key, on first use, and keeps it."""

    def test_each_paste_is_built_once_per_key(self, monkeypatch):
        built = count_builds(monkeypatch)
        site = subsets_site(2)
        assert built == []  # nothing is built at construction
        keys = list(paste_keys(site))
        first = [paste(site, key) for key in keys]
        second = [paste(site, key) for key in keys]
        assert sorted(built) == sorted(keys)
        assert all(a is b for a, b in zip(first, second))

    def test_a_failing_paste_raises_on_every_call(self, monkeypatch):
        built = count_builds(monkeypatch)
        site = non_universal_site()
        for _ in range(3):
            with pytest.raises(PastingError):
                site.cospan_paste("0>01", "01>01", "0>01")
        assert built == [("cospan", "0>01", "01>01", "0>01")] * 3
        assert ("cospan", "0>01", "01>01", "0>01") not in site._pastes

    def test_sites_built_from_the_same_data_share_no_table(self, monkeypatch):
        built = count_builds(monkeypatch)
        a, b = subsets_site(2), subsets_site(2)
        assert a._pastes is not b._pastes
        pa = a.tower_paste("E>0", "0>01", "1>01")
        assert b._pastes == {}
        pb = b.tower_paste("E>0", "0>01", "1>01")
        assert pa == pb and pa is not pb
        assert len(built) == 2


def parsed_subsets(n):
    """subsets(n) read back from its instance document, which stores no map
    that a functor supplies by default: those of the empty set E."""
    return parse_instance(bundle_to_json(build_subsets_instance(n)))


class TestFunctorTables:
    """A functor keeps exactly the maps it was given: a missing or
    non-confined map raises on every call, and verifying adds no map."""

    def test_a_missing_or_non_confined_map_raises_on_every_call(self, s2):
        f = subsets_presheaf(s2)
        maps = {key: hom for key, hom in f._maps.items() if key != ("0>01", 0)}
        missing = GradedFunctor(s2, "contra", (0, 0), f._groups, maps)
        h = subsets_homology(identities_confined(subsets_site(2)))
        for _ in range(3):
            with pytest.raises(MissingMapError):
                missing.map("0>01", 0)
            with pytest.raises(NonConfinedError):
                h.map("0>01", 0)
        assert missing._maps == maps
        assert missing._defaults == {}

    def test_a_default_map_is_built_once_and_kept_apart(self):
        # the document stores neither E's maps, which end at the zero group,
        # nor an identity map that is dropped below
        f = parsed_subsets(2).functors["F"]
        maps = {key: hom for key, hom in f._maps.items() if key != ("01>01", 0)}
        functor = GradedFunctor(f.site, "contra", (0, 0), f._groups, maps)
        identity, zero = functor.map("01>01", 0), functor.map("E>0", 0)
        assert identity.equals(GroupHom.identity(functor.group("01", 0)))
        assert zero.tgt.is_trivial
        assert functor.map("01>01", 0) is identity and functor.map("E>0", 0) is zero
        assert functor._defaults == {("01>01", 0): identity, ("E>0", 0): zero}
        assert functor._maps == maps
        # a grade outside the window reads the zero map, which is not kept
        assert functor.map("01>01", 1).src.is_trivial
        assert ("01>01", 1) not in functor._defaults

    def test_verifying_leaves_the_given_maps_and_the_report_unchanged(self):
        bundle = parsed_subsets(2)
        functors = [bundle.functors["F"], bundle.functors["h"]]
        before = [(dict(f._maps), f.validate().to_json()) for f in functors]
        assert verify_coop_axioms(functors[0]).ok and verify_op_axioms(functors[1]).ok
        assert [(dict(f._maps), f.validate().to_json()) for f in functors] == before


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
        site = identities_confined(subsets_site(2))
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

    def test_a_component_off_the_site_raises(self, s2):
        # validate() reads components by the site's objects, so it would never see this one
        f = subsets_presheaf(s2)
        f2 = subsets_presheaf(s2, modulus=2)
        t = reduction_transformation(f, f2)
        comps = {**t._components, ("nowhere", 0): t.component("0", 0)}
        with pytest.raises(SiteStructureError, match="^component at nowhere, which is not an object of the site$"):
            NaturalTransf(f, f2, comps)

    def test_covariant_reduction_validates(self, s2):
        h = subsets_homology(s2)
        h2 = subsets_homology(s2, modulus=2)
        assert reduction_transformation(h, h2).validate().ok

    def test_covariant_naturality_violation(self, s2):
        # c_01 o k_* == k_* o c_src along every confined k; the shear at 01
        # fixes e_0 and moves e_1, so only the square along 1>01 breaks
        h = subsets_homology(s2)
        h2 = subsets_homology(s2, modulus=2)
        comps = dict(reduction_transformation(h, h2)._components)
        comps[("01", 0)] = GroupHom(h.group("01", 0), h2.group("01", 0), IntMatrix.from_rows([[1, 1], [0, 1]]))
        assert NaturalTransf(h, h2, comps).validate().to_json() == [
            {"kind": "naturality", "message": "naturality square does not commute", "witness": {"grade": 0, "morphism": "1>01"}}
        ]


def one_object_site(confined=("E>E",)):
    return Site(["E"], [("E>E", "E", "E")], {"E": "E>E"}, {("E>E", "E>E"): "E>E"}, confined, {("E>E", "E>E"): ("E", "E>E", "E>E")})


def arrow_site(**changes):
    """Site(**args) of the arrow f: x -> y with its identities, after
    replacing the arguments named in changes."""
    args = {
        "objects": ["x", "y"],
        "morphisms": [("ix", "x", "x"), ("iy", "y", "y"), ("f", "x", "y")],
        "identities": {"x": "ix", "y": "iy"},
        "composition": {("ix", "ix"): "ix", ("iy", "iy"): "iy", ("f", "ix"): "f", ("iy", "f"): "f"},
        "confined": ["ix", "iy", "f"],
        "pullbacks": {
            ("ix", "ix"): ("x", "ix", "ix"),
            ("iy", "iy"): ("y", "iy", "iy"),
            ("f", "iy"): ("x", "ix", "f"),
            ("iy", "f"): ("x", "f", "ix"),
            ("f", "f"): ("x", "ix", "ix"),
        },
    }
    return Site(**{**args, **changes})


class TestStructureErrors:
    """Structure checks of Site and GradedFunctor that no single-mutation
    document of the fuzz corpus reaches.  An instance file can reach each of
    them, and the reader then reports it at the constructor's location."""

    def test_the_arrow_site_is_valid(self):
        assert validate_site(arrow_site()).ok

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"objects": ["x", "y", "x"]}, "duplicate object names"),
            (
                {"morphisms": [("ix", "x", "x"), ("iy", "y", "y"), ("f", "x", "y"), ("f", "x", "y")]},
                "duplicate morphism names",
            ),
            ({"identities": {"x": "f", "y": "iy"}}, "identity of x is not an endomorphism of x"),
            ({"composition": {("f", "f"): "f"}}, "(f, f) is not a composable pair"),
            ({"composition": {("iy", "f"): "ix"}}, "composite of (iy, f) has wrong endpoints"),
            ({"pullbacks": {("f", "ix"): ("x", "ix", "ix")}}, "(f, ix) is not a cospan"),
            ({"pullbacks": {("f", "iy"): ("x", "ix", "ix")}}, "left leg of (f, iy) is ill-typed"),
        ],
        ids=["objects", "morphisms", "identity", "composable", "composite", "cospan", "left-leg"],
    )
    def test_site(self, changes, message):
        with pytest.raises(SiteStructureError) as err:
            arrow_site(**changes)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "groups, maps, message",
        [
            ({("x", 1): FgAbGroup.free(1)}, {}, "functor group at grade 1 outside window"),
            ({}, {("f", -1): GroupHom.identity(FgAbGroup.free(1))}, "functor map at grade -1 outside window"),
        ],
        ids=["group", "map"],
    )
    def test_functor_grade_outside_the_window(self, groups, maps, message):
        with pytest.raises(SiteStructureError) as err:
            GradedFunctor(arrow_site(), "contra", (0, 0), groups, maps)
        assert str(err.value) == message


class TestStructuralReports:
    """Missing and ill-typed maps and components: kind, message, witness."""

    def test_missing_map(self, s2):
        f = subsets_presheaf(s2)
        maps = {key: hom for key, hom in f._maps.items() if key != ("0>01", 0)}
        assert GradedFunctor(s2, "contra", (0, 0), f._groups, maps).validate().to_json() == [
            {"kind": "missing-map", "message": "no map stored", "witness": {"grade": 0, "morphism": "0>01"}}
        ]

    @pytest.mark.parametrize("variance", ["contra", "cov"])
    def test_map_typing(self, variance):
        z, z2 = FgAbGroup.free(1), FgAbGroup.from_invariants(0, (2,))
        wrong = GroupHom.identity(z2)
        functor = GradedFunctor(one_object_site(), variance, (0, 0), {("E", 0): z}, {("E>E", 0): wrong})
        assert functor.validate().to_json() == [
            {"kind": "map-typing", "message": "map endpoints do not match groups", "witness": {"grade": 0, "morphism": "E>E"}}
        ]

    def test_ill_typed_map_in_a_functoriality_square(self, s2):
        # 0>01 composes with E>0, 0>0 and 01>01: every square it is in is skipped
        f = subsets_presheaf(s2)
        maps = dict(f._maps)
        z2 = FgAbGroup.from_invariants(0, (2,))
        stored = maps[("0>01", 0)]
        maps[("0>01", 0)] = GroupHom(stored.src, z2, stored.mat)
        assert GradedFunctor(s2, "contra", (0, 0), f._groups, maps).validate().to_json() == [
            {"kind": "map-typing", "message": "map endpoints do not match groups", "witness": {"grade": 0, "morphism": "0>01"}}
        ]

    def test_ill_typed_component_in_a_naturality_square(self, s2):
        f = subsets_presheaf(s2)
        f2 = subsets_presheaf(s2, modulus=2)
        comps = dict(reduction_transformation(f, f2)._components)
        comps[("0", 0)] = GroupHom.identity(f.group("0", 0))  # into Z, not Z/2
        assert NaturalTransf(f, f2, comps).validate().to_json() == [
            {"kind": "component-typing", "message": "component endpoints mismatch", "witness": {"grade": 0, "obj": "0"}}
        ]

    def test_ill_typed_functor_map_in_a_naturality_square(self, s2):
        # the functor's own validate reports the map; the transformation
        # skips the squares along it
        f = subsets_presheaf(s2)
        f2 = subsets_presheaf(s2, modulus=2)
        maps = dict(f._maps)
        stored = maps[("0>01", 0)]
        maps[("0>01", 0)] = GroupHom(stored.src, f2.group("0", 0), stored.mat)
        broken = GradedFunctor(s2, "contra", (0, 0), f._groups, maps)
        assert broken.validate().has("map-typing")
        assert NaturalTransf(broken, f2, reduction_transformation(f, f2)._components).validate().ok

    def test_missing_component(self, s2):
        f = subsets_presheaf(s2)
        f2 = subsets_presheaf(s2, modulus=2)
        comps = {key: c for key, c in reduction_transformation(f, f2)._components.items() if key != ("0", 0)}
        assert NaturalTransf(f, f2, comps).validate().to_json() == [
            {"kind": "missing-component", "message": "no component stored", "witness": {"grade": 0, "obj": "0"}}
        ]

    def test_component_typing(self):
        # nothing is confined, so the covariant functors act along no morphism
        # and no naturality square composes the ill-typed component
        site = one_object_site(confined=())
        z, z2 = FgAbGroup.free(1), FgAbGroup.from_invariants(0, (2,))
        h = GradedFunctor(site, "cov", (0, 0), {("E", 0): z}, {})
        h2 = GradedFunctor(site, "cov", (0, 0), {("E", 0): z2}, {})
        t = NaturalTransf(h, h2, {("E", 0): GroupHom.identity(z)})
        assert t.validate().to_json() == [
            {"kind": "component-typing", "message": "component endpoints mismatch", "witness": {"grade": 0, "obj": "E"}}
        ]


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
