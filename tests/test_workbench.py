import gc
import json
import weakref

import pytest

from bivariant import bivcore, workbench
from bivariant.bivcore import InvalidTransformationError
from bivariant.cooperational import coop_group, transfer_subgroup
from bivariant.exactalg import IntMatrix
from bivariant.operational import op_group
from bivariant.site import SiteStructureError
from bivariant.workbench import (
    InstanceFileError,
    InstanceViolationError,
    build_graded_instance,
    build_subsets_instance,
    bundle_to_json,
    load_instance,
    parse_instance,
    run_demo,
)

from oracles import family_from_self_transformation, rational_rank
from test_cli import run_cli


@pytest.fixture(scope="module")
def bundle():
    return build_subsets_instance(2)


class TestBuilders:
    def test_subsets_one_shape(self):
        b = build_subsets_instance(1)
        assert len(b.site.objects) == 2
        assert len(b.site.morphisms) == 3
        assert b.validate().ok

    def test_subsets_two_shape(self, bundle):
        assert len(bundle.site.objects) == 4
        assert len(bundle.site.morphisms) == 9
        assert bundle.validate().ok

    def test_out_of_range(self):
        for n in (0, 5):
            with pytest.raises(ValueError):
                build_subsets_instance(n)

    def test_projection_formula_spot_instance(self, bundle):
        # g'_*(g^* alpha . beta) = alpha . g_* beta with alpha = e0 + e1 over
        # id_U and beta = e0 over {0} <= U; both sides are e0 extended by zero
        b = bundle.theories["B"]
        site = b.site
        alpha = b.group("01>01", 0).element((1, 1))
        beta = b.group("0>01", 0).element((1,))
        g = "0>01"
        sq = site.chosen_pullback("01>01", g)
        ga = b.pullback("01>01", g, 0, alpha)
        prod = b.product(sq.left, "0>01", 0, 0, ga, beta)
        lhs = b.pushforward(sq.top, "01>01", 0, prod)
        rhs = b.product("01>01", "01>01", 0, 0, alpha, b.pushforward(g, "01>01", 0, beta))
        expected = b.group("01>01", 0).element((1, 0))
        assert lhs == expected
        assert rhs == expected

    def test_mod_two_companion(self, bundle):
        from bivariant.bivcore import validate_groth

        assert validate_groth(bundle.groth["gamma"]).ok


class TestSubsetsFour:
    """n = 4 (16 objects, 81 morphisms): groups at every base and one transfer
    base; the whole n = 4 demo is left to the CLI."""

    @pytest.fixture(scope="class")
    def four(self):
        return build_subsets_instance(4)

    def test_groups_at_every_base_match_the_rational_rank_oracle(self, four):
        assert len(four.site.morphisms) == 81
        for mor in four.site.morphisms:
            for result in (op_group(four.functors["h"], mor.name, 0), coop_group(four.functors["F"], mor.name, 0)):
                mat = result.solution.constraint_hom.mat
                nullity = result.solution.unknowns.group.ngens - rational_rank(mat.entries, mat.cols)
                assert result.group.canonical() == (nullity, ()), mor.name

    def test_transfer_base_has_unique_companions(self, four):
        tsr = transfer_subgroup(four.transformations["T"], "01>012", 0)
        gens = tsr.subgroup.group.gens()
        assert gens
        for x in gens:
            sols = tsr.companions(tsr.source_result.decode(tsr.subgroup.inclusion(x)))
            assert sols.particular is not None and sols.is_unique


class TestGradedInstance:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_grade_components_scale_by_powers(self, k):
        bundle = build_graded_instance(k)
        psi = bundle.transformations["psi"]
        fam = family_from_self_transformation(psi, "0")
        for r in range(3):
            comp = fam.component("0>0", 2 * r)
            assert comp.mat == IntMatrix.from_rows([[k**r]])

    def test_identity_family_for_k_one(self):
        bundle = build_graded_instance(1)
        fam = family_from_self_transformation(bundle.transformations["psi"], "0")
        for r in range(3):
            assert fam.component("0>0", 2 * r).mat == IntMatrix.from_rows([[1]])

    def test_grade_zero_component_is_identity(self):
        for k in (1, 2, 3):
            bundle = build_graded_instance(k)
            fam = family_from_self_transformation(bundle.transformations["psi"], "0")
            assert fam.component("0>0", 0).mat == IntMatrix.from_rows([[1]])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_family_is_a_valid_coop_class(self, k):
        bundle = build_graded_instance(k)
        fam = family_from_self_transformation(bundle.transformations["psi"], "0")
        assert fam.compatibility_report().ok
        result = coop_group(bundle.functors["Heven"], bundle.site.identity("0"), 0)
        encoded = result.encode(fam)
        assert result.decode(encoded) == fam

    def test_bundle_validates(self):
        assert build_graded_instance(2).validate().ok


class TestSerialization:
    def test_json_stable(self, bundle):
        """Parsing the serialized bundle and serializing again gives the same
        JSON: every stored table entry survives the round trip."""
        for stored in (bundle, build_graded_instance(2)):
            a = json.dumps(bundle_to_json(stored), sort_keys=True)
            b = json.dumps(bundle_to_json(parse_instance(bundle_to_json(stored))), sort_keys=True)
            assert a == b


class TestParserErrors:
    def base_doc(self):
        return bundle_to_json(build_subsets_instance(1))

    def test_missing_section(self):
        doc = self.base_doc()
        del doc["pullbacks"]
        with pytest.raises(InstanceFileError) as err:
            parse_instance(doc)
        assert "pullbacks" in str(err.value)

    def test_unknown_object_in_morphism(self):
        doc = self.base_doc()
        doc["morphisms"][0]["src"] = "nope"
        with pytest.raises(InstanceFileError) as err:
            parse_instance(doc)
        assert "morphisms[0].src" in str(err.value)

    def test_bad_matrix_shape(self):
        doc = self.base_doc()
        key = next(iter(doc["functors"]["F"]["maps"]))
        doc["functors"]["F"]["maps"][key] = [[1, 2, 3]]
        with pytest.raises(InstanceFileError):
            parse_instance(doc)

    def test_bad_group_spec(self):
        doc = self.base_doc()
        key = next(iter(doc["functors"]["F"]["groups"]))
        doc["functors"]["F"]["groups"][key] = {"free_rank": -1}
        with pytest.raises(InstanceFileError):
            parse_instance(doc)

    def test_non_integer_entry(self):
        doc = self.base_doc()
        key = next(iter(doc["functors"]["F"]["maps"]))
        rows = doc["functors"]["F"]["maps"][key]
        rows[0][0] = "x"
        with pytest.raises(InstanceFileError):
            parse_instance(doc)

    def test_partial_composition_table(self):
        doc = self.base_doc()
        doc["composition"] = doc["composition"][:-1]
        with pytest.raises(InstanceFileError) as err:
            parse_instance(doc)
        assert "site" in str(err.value)

    def test_ill_defined_hom_is_a_violation(self):
        doc = self.base_doc()
        # Z -> Z/2 needs even images of the relation; an odd matrix into a
        # torsion group from a torsion source of coprime order cannot descend
        doc["functors"]["bad"] = {
            "variance": "contra",
            "window": [0, 0],
            "groups": {"0@0": {"free_rank": 0, "torsion": [2]}, "E@0": {"free_rank": 0, "torsion": [3]}},
            "maps": {"E>0@0": [[1]]},
        }
        with pytest.raises(InstanceViolationError):
            parse_instance(doc)


@pytest.mark.parametrize(
    "path, value, location",
    [
        (("functors", "F", "groups", "0@0", "free_rank"), True, "functors.F.groups.0@0"),
        (("functors", "F", "maps", "0>0@0", 0, 0), True, "functors.F.maps.0>0@0[0]"),
        (("functors", "F", "window"), [False, False], "functors.F.window"),
        (("theories", "B", "products", 0, "i"), False, "theories.B.products[0]"),
        (("theories", "B", "products", 0, "j"), False, "theories.B.products[0]"),
        (("theories", "B", "products", 0, "table", 0, 0), [True], "theories.B.products[0].table[0][0]"),
        (("theories", "B", "units", "0"), [True], "theories.B.units.0"),
    ],
    ids=["free_rank", "matrix-entry", "window", "i", "j", "product-cell", "unit-coordinate"],
)
def test_a_json_boolean_is_not_an_integer(path, value, location):
    doc = bundle_to_json(build_subsets_instance(1))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(InstanceFileError) as err:
        parse_instance(doc)
    assert err.value.location == location


@pytest.mark.parametrize("grade", ["+0", " 0", "0 ", "0_0", "\uff10", "00", "-0", "", "0.0"])
def test_a_grade_has_one_spelling(grade):
    doc = bundle_to_json(build_subsets_instance(1))
    groups = doc["functors"]["F"]["groups"]
    groups[f"0@{grade}"] = groups.pop("0@0")
    with pytest.raises(InstanceFileError) as err:
        parse_instance(doc)
    assert err.value.location == f"functors.F.groups.0@{grade}"


@pytest.mark.parametrize(
    "path, changes",
    [
        (("composition",), {}),
        (("pullbacks",), {}),
        (("theories", "B", "products"), {}),
        (("theories", "B", "pushforwards"), {"matrix": [[5]]}),
        (("theories", "B", "pullbacks"), {}),
    ],
    ids=["composition", "site-pullbacks", "products", "pushforwards", "theory-pullbacks"],
)
def test_a_repeated_table_entry_is_an_input_error(path, changes):
    # the first entry of each table runs along 0>0, between groups Z
    doc = bundle_to_json(build_subsets_instance(1))
    table = doc
    for key in path:
        table = table[key]
    table.append({**table[0], **changes})
    with pytest.raises(InstanceFileError, match="repeats the entry for") as err:
        parse_instance(doc)
    assert err.value.location == f"{'.'.join(path)}[{len(table) - 1}]"


@pytest.mark.parametrize(
    "section, name, key, error",
    [
        ("transformations", "T", "0@-1", SiteStructureError),
        ("groth", "gamma", "0>01@3", InvalidTransformationError),
    ],
    ids=["natural-transformation", "groth-transformation"],
)
def test_a_component_outside_the_window_is_an_input_error(tmp_path, section, name, key, error):
    # it used to parse, validate OK, and be dropped when written back
    doc = bundle_to_json(build_subsets_instance(2))
    doc[section][name]["components"][key] = []
    with pytest.raises(InstanceFileError, match="outside window") as err:
        parse_instance(doc)
    assert err.value.location == f"{section}.{name}"
    assert isinstance(err.value.__cause__, error)
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("validate", str(file))
    assert result.returncode == 2 and result.stderr.startswith(f"input error: {section}.{name}: ")


@pytest.mark.parametrize(
    "table, index, field, kind",
    [
        ("products", 1, "i", "product"),
        ("products", 1, "j", "product"),
        ("pushforwards", 2, "i", "pushforward"),
        ("pullbacks", 1, "i", "pullback"),
    ],
)
def test_a_theory_entry_outside_the_window_is_an_input_error(tmp_path, table, index, field, kind):
    # it used to parse, validate OK, and be written back
    doc = bundle_to_json(build_subsets_instance(1))
    assert doc["theories"]["B"]["window"] == [0, 0]
    doc["theories"]["B"][table][index][field] = -1
    with pytest.raises(InstanceFileError, match=f"^theories.B: {kind} entry .* outside the window \\(0, 0\\)$") as err:
        parse_instance(doc)
    assert err.value.location == "theories.B"
    assert isinstance(err.value.__cause__, bivcore.DegreeWindowError)
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("validate", str(file))
    assert result.returncode == 2 and result.stderr.startswith("input error: theories.B: ")


@pytest.mark.parametrize(
    "table, key",
    [("products", ("E>0", "0>0", 0, 1)), ("pushforwards", ("E>E", "E>0", 1)), ("pullbacks", ("0>0", "E>0", -2))],
)
def test_a_theory_rejects_a_table_entry_outside_its_window(table, key):
    b = build_subsets_instance(1).theories["B"]
    tables = {"products": b._products, "pushforwards": b._pushforwards, "pullbacks": b._pullbacks}
    tables[table] = {**tables[table], key: next(iter(tables[table].values()))}
    kind = table[:-1]
    with pytest.raises(bivcore.DegreeWindowError) as err:
        bivcore.TabulatedBivTheory(b.site, b.window, b._groups, tables["products"], tables["pushforwards"], tables["pullbacks"], {})
    assert str(err.value) == f"{kind} entry {key} has a degree outside the window (0, 0)"


def test_a_covariant_map_along_a_non_confined_morphism_is_an_input_error(tmp_path):
    # it used to parse, never be read, and be dropped when written back
    for n in (1, 2, 3):
        parse_instance(bundle_to_json(build_subsets_instance(n)))
    for k in (1, 2, 3):
        parse_instance(bundle_to_json(build_graded_instance(k)))
    doc = bundle_to_json(build_subsets_instance(2))
    assert doc["functors"]["h"]["variance"] == "cov" and "0>01@0" in doc["functors"]["h"]["maps"]
    doc["confined"].remove("0>01")
    with pytest.raises(InstanceFileError, match="non-confined 0>01") as err:
        parse_instance(doc)
    assert err.value.location == "functors.h"
    assert isinstance(err.value.__cause__, SiteStructureError)
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("validate", str(file))
    assert result.returncode == 2 and result.stderr.startswith("input error: functors.h: ")


def test_a_repeated_object_key_is_an_input_error(tmp_path):
    doc = bundle_to_json(build_subsets_instance(1))
    groups = json.dumps(doc["functors"]["F"]["groups"])
    assert groups.startswith('{"0@0": ')
    text = json.dumps(doc).replace(groups, '{"0@0": {"free_rank": 5}, ' + groups[1:], 1)
    file = tmp_path / "doc.json"
    file.write_text(text, encoding="utf-8")
    with pytest.raises(InstanceFileError, match="repeats the entry for '0@0'") as err:
        load_instance(str(file))
    assert err.value.location == str(file)
    result = run_cli("validate", str(file))
    assert result.returncode == 2 and result.stderr.startswith("input error: ")


class TestDemo:
    def test_demo_caches_are_bounded_and_die_with_the_bundle(self, monkeypatch):
        # the per-object caches live on the bundle's functors and maps, never
        # grow past their bounds, and are freed with the bundle; the bundle is
        # read from its document, which stores no map a functor supplies by
        # default, so the default-map tables fill
        built = []

        def build(n):
            built.append(parse_instance(bundle_to_json(build_subsets_instance(n))))
            return built[-1]

        monkeypatch.setattr(workbench, "build_subsets_instance", build)
        assert all(report.ok for _, report in workbench.demo_checks(3))
        bundle = built.pop()
        morphisms = len(bundle.site.morphisms)
        functors = [*bundle.functors.values()]
        for theory in bundle.theories.values():
            functors += [theory.covariant_part, theory.contravariant_part]
        assert any(functor._defaults for functor in functors)
        for functor in functors:
            assert len(functor._defaults) <= morphisms * len(functor.grades())
        for gamma in bundle.groth.values():
            assert len(gamma._surjectivity) <= 2
        assert bundle.groth["gamma"]._surjectivity == {"cov": None, "contra": None}
        ref = weakref.ref(bundle)
        del bundle, functors, theory, functor, gamma
        gc.collect()
        assert ref() is None

    def test_demo_one_passes(self):
        lines, ok = run_demo(1)
        assert ok
        assert any("7 axioms + Units" in l and "PASS" in l for l in lines)

    def test_demo_checks_gamma_once(self, monkeypatch):
        # the Grothendieck check reads gamma.report, which the image
        # subtheory and the image transfers read again
        calls = []
        for module in (bivcore, workbench):
            original = module.validate_groth

            def counted(t, original=original):
                calls.append(t)
                return original(t)

            monkeypatch.setattr(module, "validate_groth", counted)
        lines, ok = run_demo(2)
        assert ok and "Grothendieck transformation [gamma]: PASS" in lines
        assert len(calls) == 1
