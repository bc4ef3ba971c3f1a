"""Every structure check of an instance has one home: a constructor.

Site, GradedFunctor, NaturalTransf, TabulatedBivTheory and GrothTransf check
every name their tables hold, a theory checks that it would read every entry
it holds, and the instance reader only types JSON.
CASES sends each check that the constructors make one input that fails it,
and asserts the exact error; test_every_constructor_check_is_reached shows
that the cases reach every raise the constructors make.  An instance file
that names nothing with a well-typed name exits 2 with the name in its
message, at the location of the entry that holds it.
"""

import ast
import contextlib
import copy
import inspect
import io
import json
import sys
import time

import pytest

from bivariant import bivcore, cli, site as site_module
from bivariant.bivcore import GrothTransf, InvalidTransformationError, TabulatedBivTheory
from bivariant.exactalg import FgAbGroup, GroupHom
from bivariant.site import GradedFunctor, NaturalTransf, SiteStructureError
from bivariant.workbench import build_subsets_instance, bundle_to_json, parse_instance
from test_instance_fuzz import at, written_instances
from test_site import arrow_site

Z = FgAbGroup.free(1)
ONE = GroupHom.identity(Z)
ARROW = arrow_site()
SUBSETS = build_subsets_instance(1)
B, B2 = SUBSETS.theories["B"], SUBSETS.theories["B2"]


def functor(variance="contra", window=(0, 0), groups=(), maps=(), on=ARROW):
    return GradedFunctor(on, variance, window, dict(groups), dict(maps))


def theory(window=(0, 0), of=B, **tables):
    """A theory on of's site with of's tables, each table given in tables
    replacing of's own."""
    own = {"groups": of._groups, "products": of._products, "pushforwards": of._pushforwards, "pullbacks": of._pullbacks, "units": of._units}
    t = {**own, **tables}
    return TabulatedBivTheory(of.site, window, t["groups"], t["products"], t["pushforwards"], t["pullbacks"], t["units"])


# (id, input that fails one check, the error, its exact message)
CASES = [
    # Site
    ("site-duplicate-objects", lambda: arrow_site(objects=["x", "y", "x"]), SiteStructureError, "duplicate object names"),
    (
        "site-duplicate-morphisms",
        lambda: arrow_site(morphisms=[("ix", "x", "x"), ("iy", "y", "y"), ("f", "x", "y"), ("f", "x", "y")]),
        SiteStructureError,
        "duplicate morphism names",
    ),
    (
        "site-morphism-end",
        lambda: arrow_site(morphisms=[("ix", "x", "x"), ("iy", "y", "y"), ("f", "x", "zz")]),
        SiteStructureError,
        "morphism f has the unknown tgt object 'zz'",
    ),
    (
        "site-identity-key",
        lambda: arrow_site(identities={"x": "ix", "y": "iy", "zz": "ix"}),
        SiteStructureError,
        "identity given for the unknown object 'zz'",
    ),
    ("site-identity-value", lambda: arrow_site(identities={"x": "zz", "y": "iy"}), SiteStructureError, "identity of x is the unknown morphism 'zz'"),
    ("site-identity-missing", lambda: arrow_site(identities={"x": "ix"}), SiteStructureError, "missing identity for object y"),
    ("site-identity-endo", lambda: arrow_site(identities={"x": "f", "y": "iy"}), SiteStructureError, "identity of x is not an endomorphism of x"),
    (
        "site-composition-name",
        lambda: arrow_site(composition={("zz", "ix"): "ix"}),
        SiteStructureError,
        "composition of (zz, ix) names the unknown morphism 'zz'",
    ),
    ("site-composable", lambda: arrow_site(composition={("f", "f"): "f"}), SiteStructureError, "(f, f) is not a composable pair"),
    ("site-composite", lambda: arrow_site(composition={("iy", "f"): "ix"}), SiteStructureError, "composite of (iy, f) has wrong endpoints"),
    ("site-composition-total", lambda: arrow_site(composition={("ix", "ix"): "ix"}), SiteStructureError, "composition table is missing (f, ix)"),
    ("site-confined-name", lambda: arrow_site(confined=["ix", "zz"]), SiteStructureError, "confined class names the unknown morphism 'zz'"),
    (
        "site-pullback-name",
        lambda: arrow_site(pullbacks={("f", "zz"): ("x", "ix", "f")}),
        SiteStructureError,
        "chosen pullback of (f, zz) names the unknown morphism 'zz'",
    ),
    (
        "site-pullback-apex",
        lambda: arrow_site(pullbacks={("f", "iy"): ("zz", "ix", "f")}),
        SiteStructureError,
        "chosen pullback of (f, iy) has the unknown apex 'zz'",
    ),
    ("site-cospan", lambda: arrow_site(pullbacks={("f", "ix"): ("x", "ix", "ix")}), SiteStructureError, "(f, ix) is not a cospan"),
    ("site-top-leg", lambda: arrow_site(pullbacks={("f", "iy"): ("x", "f", "f")}), SiteStructureError, "top leg of (f, iy) is ill-typed"),
    ("site-left-leg", lambda: arrow_site(pullbacks={("f", "iy"): ("x", "ix", "ix")}), SiteStructureError, "left leg of (f, iy) is ill-typed"),
    (
        "site-pullbacks-total",
        lambda: arrow_site(pullbacks={("ix", "ix"): ("x", "ix", "ix")}),
        SiteStructureError,
        "pullback table is missing the cospan (iy, iy)",
    ),
    ("site-final-object", lambda: arrow_site(final_object="zz"), SiteStructureError, "final object 'zz' is not an object"),
    # GradedFunctor
    ("functor-variance", lambda: functor(variance="both"), SiteStructureError, "variance must be 'contra' or 'cov', not 'both'"),
    ("functor-window", lambda: functor(window=(1, 0)), ValueError, "empty grade window"),
    ("functor-group-name", lambda: functor(groups={("zz", 0): Z}), SiteStructureError, "functor group at the unknown object 'zz'"),
    ("functor-group-grade", lambda: functor(groups={("x", 1): Z}), SiteStructureError, "functor group at grade 1 outside window"),
    ("functor-map-name", lambda: functor(maps={("zz", 0): ONE}), SiteStructureError, "functor map along the unknown morphism 'zz'"),
    ("functor-map-grade", lambda: functor(maps={("f", -1): ONE}), SiteStructureError, "functor map at grade -1 outside window"),
    (
        "functor-non-confined",
        lambda: functor(variance="cov", maps={("f", 0): ONE}, on=arrow_site(confined=["ix", "iy"])),
        SiteStructureError,
        "covariant functor map along non-confined f",
    ),
    # NaturalTransf
    ("transformation-sites", lambda: NaturalTransf(functor(), functor(on=arrow_site()), {}), SiteStructureError, "functors live on different sites"),
    ("transformation-variance", lambda: NaturalTransf(functor(), functor(variance="cov"), {}), SiteStructureError, "functors have different variance"),
    ("transformation-windows", lambda: NaturalTransf(functor(), functor(window=(0, 1)), {}), SiteStructureError, "functors have different grade windows"),
    ("transformation-grade", lambda: NaturalTransf(functor(), functor(), {("x", 1): ONE}), SiteStructureError, "component at grade 1 outside window"),
    (
        "transformation-name",
        lambda: NaturalTransf(functor(), functor(), {("zz", 0): ONE}),
        SiteStructureError,
        "component at zz, which is not an object of the site",
    ),
    # TabulatedBivTheory
    ("theory-window", lambda: theory(window=(1, 0)), ValueError, "empty degree window"),
    ("theory-group-name", lambda: theory(groups={("zz", 0): Z}), SiteStructureError, "theory group at the unknown morphism 'zz'"),
    (
        "theory-product-name",
        lambda: theory(products={("zz", "0>0", 0, 0): (((1,),),)}),
        SiteStructureError,
        "product entry ('zz', '0>0', 0, 0) names the unknown morphism 'zz'",
    ),
    (
        "theory-pushforward-name",
        lambda: theory(pushforwards={("0>0", "zz", 0): ONE}),
        SiteStructureError,
        "pushforward entry ('0>0', 'zz', 0) names the unknown morphism 'zz'",
    ),
    (
        "theory-pullback-name",
        lambda: theory(pullbacks={("zz", "0>0", 0): ONE}),
        SiteStructureError,
        "pullback entry ('zz', '0>0', 0) names the unknown morphism 'zz'",
    ),
    (
        "theory-entry-degree",
        lambda: theory(pullbacks={("0>0", "0>0", 1): ONE}),
        bivcore.DegreeWindowError,
        "pullback entry ('0>0', '0>0', 1) has a degree outside the window (0, 0)",
    ),
    ("theory-group-degree", lambda: theory(groups={("0>0", 3): Z}), SiteStructureError, "theory group at degree 3 outside the window (0, 0)"),
    (
        "theory-product-composable",
        lambda: theory(products={**B._products, ("0>0", "E>0", 0, 0): (((1,),),)}),
        SiteStructureError,
        "product entry ('0>0', 'E>0', 0, 0) is not at a composable pair",
    ),
    (
        "theory-pushforward-composable",
        lambda: theory(pushforwards={("0>0", "E>0", 0): ONE}),
        SiteStructureError,
        "pushforward entry ('0>0', 'E>0', 0) is not at a composable pair",
    ),
    (
        "theory-pushforward-confined",
        lambda: TabulatedBivTheory(arrow_site(confined=["ix", "iy"]), (0, 0), {}, {}, {("f", "iy", 0): ONE}, {}, {}),
        SiteStructureError,
        "pushforward entry ('f', 'iy', 0) is along the non-confined morphism 'f'",
    ),
    ("theory-pullback-cospan", lambda: theory(pullbacks={("0>0", "E>E", 0): ONE}), SiteStructureError, "pullback entry ('0>0', 'E>E', 0) is not at a cospan"),
    ("theory-unit-name", lambda: theory(units={"zz": (1,)}), SiteStructureError, "unit at the unknown object 'zz'"),
    # GrothTransf
    (
        "groth-sites",
        lambda: GrothTransf(B, build_subsets_instance(1).theories["B2"], {}),
        InvalidTransformationError,
        "theories live on different sites",
    ),
    ("groth-windows", lambda: GrothTransf(B, theory(window=(0, 1), of=B2), {}), InvalidTransformationError, "theories have different degree windows"),
    ("groth-degree", lambda: GrothTransf(B, B2, {("0>0", 1): ONE}), InvalidTransformationError, "component at degree 1 outside window"),
    (
        "groth-name",
        lambda: GrothTransf(B, B2, {("zz", 0): ONE}),
        InvalidTransformationError,
        "component at zz, which is not a morphism of the site",
    ),
]


@pytest.mark.parametrize("make, error, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_each_constructor_check_raises_its_error(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == message


def test_an_unknown_name_carries_its_table_and_key():
    # what the instance reader maps to the location of the entry
    for make, table, key in [
        (lambda: arrow_site(pullbacks={("f", "iy"): ("zz", "ix", "f")}), "pullbacks", ("f", "iy")),
        (lambda: arrow_site(final_object="zz"), "final_object", None),
        (lambda: functor(groups={("zz", 0): Z}), "groups", ("zz", 0)),
        (lambda: theory(products={("zz", "0>0", 0, 0): (((1,),),)}), "products", ("zz", "0>0", 0, 0)),
    ]:
        with pytest.raises(SiteStructureError) as err:
            make()
        assert (err.value.table, err.value.key) == (table, key)
    with pytest.raises(SiteStructureError) as err:
        arrow_site(pullbacks={("f", "ix"): ("x", "ix", "ix")})
    assert (err.value.table, err.value.key) == (None, None)


def test_a_theory_entry_that_is_never_read_carries_its_table_and_key():
    # a group outside the window, a product off a composable pair, a
    # pushforward along a non-confined morphism and a pullback off a cospan
    for case_id, table, key in [
        ("theory-group-degree", "groups", ("0>0", 3)),
        ("theory-product-composable", "products", ("0>0", "E>0", 0, 0)),
        ("theory-pushforward-confined", "pushforwards", ("f", "iy", 0)),
        ("theory-pullback-cospan", "pullbacks", ("0>0", "E>E", 0)),
    ]:
        make = next(case[1] for case in CASES if case[0] == case_id)
        with pytest.raises(SiteStructureError) as err:
            make()
        assert (err.value.table, err.value.key) == (table, key)


def test_every_bundled_instance_reads_back():
    """The writer writes only entries the constructors accept, so the reader
    accepts every bundled instance as written."""
    for name, doc in written_instances():
        assert bundle_to_json(parse_instance(doc)) == doc, name


@pytest.mark.parametrize(
    "lookup, args, message",
    [
        ("src", ("zz",), "unknown morphism 'zz'"),
        ("tgt", ("zz",), "unknown morphism 'zz'"),
        ("compose", ("zz", "f"), "unknown morphism 'zz'"),
        ("compose", ("iy", "zz"), "unknown morphism 'zz'"),
        ("identity", ("zz",), "unknown object 'zz'"),
        ("chosen_pullback", ("f", "zz"), "unknown morphism 'zz'"),
    ],
)
def test_a_site_lookup_of_an_unknown_name_raises_a_structure_error(lookup, args, message):
    with pytest.raises(SiteStructureError) as err:
        getattr(ARROW, lookup)(*args)
    assert str(err.value) == message


def test_a_component_at_an_unknown_name_is_not_read_as_zero():
    gamma = SUBSETS.groth["gamma"]
    with pytest.raises(InvalidTransformationError, match="^component at zz, which is not a morphism of the site$"):
        gamma.component("zz", 0)
    T = SUBSETS.transformations["T"]
    with pytest.raises(SiteStructureError, match="^component at zz, which is not an object of the site$"):
        T.component("zz", 0)


# ---------------------------------------------------------------------------
# the constructors' checks are all reached

CHECKED = {site_module: ("Site", "GradedFunctor", "NaturalTransf"), bivcore: ("TabulatedBivTheory", "GrothTransf")}
CHECKS = ("__init__", "_endpoints")  # a transformation checks a component's key in _endpoints


def constructor_raises() -> dict:
    """{code object: line numbers of its raise statements} for the check
    functions CHECKS of the classes CHECKED, found in their syntax trees."""
    found = {}
    for module, names in CHECKED.items():
        tree = ast.parse(inspect.getsource(module))
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in names):
                continue
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name in CHECKS:
                    code = getattr(module, cls.name).__dict__[fn.name].__code__
                    assert code.co_firstlineno == fn.lineno
                    found[code] = {node.lineno for node in ast.walk(fn) if isinstance(node, ast.Raise)}
    return found


def test_every_constructor_check_is_reached():
    raises = constructor_raises()
    assert {code.co_qualname for code in raises} >= {f"{name}.__init__" for names in CHECKED.values() for name in names}
    reached = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code in raises else None

    start, previous = time.perf_counter(), sys.gettrace()
    sys.settrace(calls)
    try:
        for _, make, error, _ in CASES:
            with contextlib.suppress(error):
                make()
    finally:
        sys.settrace(previous)
    missed = sorted(f"{code.co_qualname}:{line}" for code, lines in raises.items() for line in lines if (code, line) not in reached)
    assert missed == []
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# instance files: a well-typed name that names nothing


def set_zz(*path):
    def edit(doc):
        at(doc, path[:-1])[path[-1]] = "zz"

    return edit


def rename_zz(*path, key, new):
    def edit(doc):
        parent = at(doc, path[:-1])
        parent[path[-1]] = {new if k == key else k: value for k, value in parent[path[-1]].items()}

    return edit


# (id, one name of subsets(1) changed to "zz", the location the reader reports)
UNKNOWN_NAMES = [
    ("morphism-src", set_zz("morphisms", 1, "src"), "morphisms[1].src"),
    ("morphism-tgt", set_zz("morphisms", 1, "tgt"), "morphisms[1].tgt"),
    ("identity-key", rename_zz("identities", key="0", new="zz"), "identities.zz"),
    ("identity-value", set_zz("identities", "0"), "identities.0"),
    ("composition-first", set_zz("composition", 1, "first"), "composition[1]"),
    ("composition-then", set_zz("composition", 1, "then"), "composition[1]"),
    ("composition-equals", set_zz("composition", 1, "equals"), "composition[1]"),
    ("confined", set_zz("confined", 1), "confined"),
    ("pullback-f", set_zz("pullbacks", 2, "f"), "pullbacks[2]"),
    ("pullback-g", set_zz("pullbacks", 2, "g"), "pullbacks[2]"),
    ("pullback-top", set_zz("pullbacks", 2, "top"), "pullbacks[2]"),
    ("pullback-left", set_zz("pullbacks", 2, "left"), "pullbacks[2]"),
    ("pullback-apex", set_zz("pullbacks", 2, "apex"), "pullbacks[2]"),
    ("final-object", set_zz("final_object"), "final_object"),
    ("functor-variance", set_zz("functors", "F", "variance"), "functors.F.variance"),
    ("functor-group-key", rename_zz("functors", "F", "groups", key="0@0", new="zz@0"), "functors.F.groups.zz@0"),
    ("functor-map-key", rename_zz("functors", "F", "maps", key="0>0@0", new="zz@0"), "functors.F.maps.zz@0"),
    ("component-key", rename_zz("transformations", "T", "components", key="0@0", new="zz@0"), "transformations.T.components.zz@0"),
    ("groth-component-key", rename_zz("groth", "gamma", "components", key="0>0@0", new="zz@0"), "groth.gamma.components.zz@0"),
    ("theory-group-key", rename_zz("theories", "B", "groups", key="0>0@0", new="zz@0"), "theories.B.groups.zz@0"),
    ("product-f", set_zz("theories", "B", "products", 1, "f"), "theories.B.products[1]"),
    ("product-g", set_zz("theories", "B", "products", 1, "g"), "theories.B.products[1]"),
    ("pushforward-f", set_zz("theories", "B", "pushforwards", 1, "f"), "theories.B.pushforwards[1]"),
    ("pushforward-g", set_zz("theories", "B", "pushforwards", 1, "g"), "theories.B.pushforwards[1]"),
    ("theory-pullback-f", set_zz("theories", "B", "pullbacks", 1, "f"), "theories.B.pullbacks[1]"),
    ("theory-pullback-g", set_zz("theories", "B", "pullbacks", 1, "g"), "theories.B.pullbacks[1]"),
    ("unit-key", rename_zz("theories", "B", "units", key="0", new="zz"), "theories.B.units.zz"),
]


def validate_exit(tmp_path, doc) -> tuple:
    """(exit code, standard error) of the CLI's validate on doc."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["validate", str(path)])
    return code, err.getvalue()


@pytest.mark.parametrize("edit, location", [case[1:] for case in UNKNOWN_NAMES], ids=[case[0] for case in UNKNOWN_NAMES])
def test_an_unknown_name_is_an_input_error_at_its_entry(tmp_path, edit, location):
    doc = copy.deepcopy(bundle_to_json(SUBSETS))
    edit(doc)
    code, err = validate_exit(tmp_path, doc)
    assert code == 2
    prefix = f"input error: {location}: "
    assert err.startswith(prefix)
    assert "zz" in err[len(prefix) :]


def test_a_dead_theory_entry_is_an_input_error_at_its_entry(tmp_path):
    # both documents used to parse and validate, and the writer dropped the
    # group or wrote the pushforward back
    doc = copy.deepcopy(bundle_to_json(SUBSETS))
    doc["theories"]["B"]["groups"]["0>0@3"] = {"free_rank": 1}
    code, err = validate_exit(tmp_path, doc)
    assert (code, err) == (2, "input error: theories.B.groups.0>0@3: theory group at degree 3 outside the window (0, 0)\n")

    doc = copy.deepcopy(bundle_to_json(SUBSETS))
    doc["confined"].remove("E>0")
    del doc["functors"], doc["transformations"]
    idx = next(k for k, e in enumerate(doc["theories"]["B"]["pushforwards"]) if e["f"] == "E>0")
    code, err = validate_exit(tmp_path, doc)
    assert code == 2
    assert err.startswith(f"input error: theories.B.pushforwards[{idx}]: pushforward entry ('E>0', ")
    assert err.endswith(" is along the non-confined morphism 'E>0'\n")
