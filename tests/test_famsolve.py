"""The constraint solver of famsolve and the companion system built on it."""

import bisect
import hashlib
import inspect
import json
import sys
import weakref
from pathlib import Path

import pytest

from bivariant import bivcore, cooperational, famsolve, operational
from bivariant.bivcore import GrothTransf, InvalidTransformationError, TabulatedBivTheory
from bivariant.cooperational import (
    CompanionSolutions,
    coop_group,
    coop_image_transfer,
    coop_unit,
    naturality_cube_report,
    transfer_subgroup,
    verify_coop_axioms,
    verify_identity_isomorphism,
)
from bivariant.exactalg import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    ShapeMismatchError,
    image,
    induced_hom,
    kernel,
)
from bivariant.famsolve import (
    ConstraintSpec,
    FamilyClass,
    FamilySolution,
    SummandSpec,
    TermSpec,
    family_group,
    family_product,
    family_pullback,
    family_pushforward,
    family_transport,
    family_unit,
    feasible_degrees,
)
from bivariant.operational import op_group, op_image_transfer, verify_op_axioms, verify_point_isomorphism
from bivariant.report import ValidationReport
from bivariant.site import GradedFunctor, NaturalTransf
from bivariant.workbench import build_graded_instance, build_subsets_instance, load_instance, reduction_groth, reduction_transformation

from oracles import (
    contains,
    decoded_induced_hom,
    decoded_link_reference,
    dense_path,
    dense_product,
    dense_pullback,
    dense_pushforward,
    dense_transport,
    injections,
    is_zero_matrix,
    joint_transfer_reference,
    projections,
)
from test_cli import TERMINAL
from test_nonposet_and_degrees import flip_site, swap_homology, swap_presheaf
from test_site import parsed_subsets


@pytest.fixture(scope="module")
def bundle():
    return build_subsets_instance(2)


def reference_constraint_hom(sol):
    """The constraint map as the sum of injection o induced hom o projection,
    each induced hom built by decoding, composing and encoding generators."""
    keys = [s.key for s in sol.summands]
    total = GroupHom.zero(sol.unknowns.group, sol.constraint_sum.group)
    for ci, c in enumerate(sol.constraints):
        for t in c.terms:
            si = keys.index(t.summand_key)
            ind = decoded_induced_hom(sol.hom_groups[si], sol.targets[ci], t.pre, t.post)
            block = injections(sol.constraint_sum)[ci] @ ind @ projections(sol.unknowns)[si]
            total = total + (block if t.sign > 0 else -block)
    return total


def assert_matches_reference(sol):
    ref = reference_constraint_hom(sol)
    assert sol.constraint_hom.mat == ref.mat
    assert sol.kernel.inclusion.mat == kernel(ref).inclusion.mat


CONSTRAINT_DIGESTS = Path(__file__).parent / "fixtures" / "constraint_digests.json"


def matrix_digest(m: IntMatrix) -> str:
    return hashlib.sha256(json.dumps([m.rows, m.cols, m.entries]).encode()).hexdigest()


def constraint_digests() -> dict:
    """The sha256 of the constraint matrix and of the kernel inclusion of
    every family group of F and h on subsets(3) and of the graded instance
    at k = 2, at every base and feasible degree."""
    subsets, graded = build_subsets_instance(3), build_graded_instance(2)
    functors = {
        "subsets3 F": subsets.functors["F"],
        "subsets3 h": subsets.functors["h"],
        "graded2 Heven": graded.functors["Heven"],
    }
    digests = {}
    for label, functor in functors.items():
        for mor in functor.site.morphisms:
            for degree in feasible_degrees(functor):
                sol = family_group(functor, mor.name, degree).solution
                digests[f"{label} {mor.name} {degree}"] = {
                    "constraint_hom": matrix_digest(sol.constraint_hom.mat),
                    "kernel_inclusion": matrix_digest(sol.kernel.inclusion.mat),
                }
    return digests


def test_constraint_maps_match_pinned_digests():
    """Every assembled constraint matrix and kernel inclusion is byte for byte
    as recorded.  Regenerate with tests/record_golden.py only for an intended
    change of the solver's output."""
    expected = json.loads(CONSTRAINT_DIGESTS.read_text(encoding="utf-8"))
    assert constraint_digests() == expected


class TestAssembledConstraintMatrix:
    @pytest.mark.parametrize("name", ["F", "h"])
    def test_family_groups_at_every_base(self, bundle, name):
        functor = bundle.functors[name]
        for mor in bundle.site.morphisms:
            for degree in feasible_degrees(functor):
                assert_matches_reference(family_group(functor, mor.name, degree).solution)

    @pytest.mark.parametrize("part", ["contravariant_part", "covariant_part"])
    def test_torsion_theory_parts_at_every_base(self, bundle, part):
        # B2's parts take values in Z/2, so every Hom group of a nonzero
        # block is torsion and each block is reduced before its signed sum
        functor = getattr(bundle.theories["B2"], part)
        torsion = 0
        for mor in bundle.site.morphisms:
            for degree in feasible_degrees(functor):
                sol = family_group(functor, mor.name, degree).solution
                torsion += sum(bool(hg.group.torsion) for hg in sol.hom_groups + sol.targets)
                assert_matches_reference(sol)
        assert torsion

    def test_mixed_torsion_blocks_are_reduced_before_their_sum(self):
        # Hom(Z/2 + Z/6, Z/3 + Z/6) has summands of orders 3, 2 and 6, which
        # reduce on the general path, where a block's raw coordinates are not
        # yet its representatives
        a, b = FgAbGroup.from_invariants(0, (2, 6)), FgAbGroup.from_invariants(0, (3, 6))
        pre = GroupHom(a, a, IntMatrix(2, 2, ((1, 1), (0, 1))))
        post = GroupHom(b, b, IntMatrix(2, 2, ((1, 1), (0, 5))))
        terms = (TermSpec(1, "x", post=post), TermSpec(-1, "x", pre=pre))
        sol = FamilySolution([SummandSpec("x", a, b)], [ConstraintSpec("c", a, b, terms)])
        assert sol.hom_groups[0].group._reduction[0] == "general"
        assert sol.group.canonical() == (0, (6,))
        assert_matches_reference(sol)

    def test_transfer_joint_system(self, bundle):
        joint, _, _ = joint_transfer_reference(bundle.transformations["T"], "01>01", 0)
        assert_matches_reference(joint)

    @pytest.mark.parametrize(
        "term, message",
        [
            (lambda z, z2: TermSpec(1, "x", pre=GroupHom.identity(z2)), "middle groups disagree in composition"),
            (lambda z, z2: TermSpec(1, "x", post=GroupHom.identity(z2)), "middle groups disagree in composition"),
            (lambda z, z2: TermSpec(1, "x", pre=GroupHom.zero(z2, z)), "hom does not match this Hom group"),
            (lambda z, z2: TermSpec(1, "x", post=GroupHom.zero(z, z2)), "hom does not match this Hom group"),
        ],
        ids=["pre-misses-the-summand", "post-misses-the-summand", "pre-misses-the-constraint", "post-misses-the-constraint"],
    )
    def test_a_term_that_does_not_meet_its_summand_raises(self, term, message):
        # the summand is Hom(Z, Z) and the constraint Hom(Z, Z); a pre or post
        # on Z/2 meets neither, and one from or to Z/2 runs into the wrong
        # Hom group; each raises with induced_hom's own message, also when
        # the assembler is called on a solution already built
        z = FgAbGroup.free(1)
        z2 = FgAbGroup.from_invariants(0, (2,))
        bad = ConstraintSpec("c", z, z, (term(z, z2),))
        pattern = f"^{message}$"
        with pytest.raises(ShapeMismatchError, match=pattern):
            FamilySolution([SummandSpec("x", z, z)], [bad])
        sol = FamilySolution([SummandSpec("x", z, z)], [ConstraintSpec("c", z, z, (TermSpec(1, "x"),))])
        with pytest.raises(ShapeMismatchError, match=pattern):
            sol.constraint_map([bad])
        with pytest.raises(ShapeMismatchError, match=pattern):
            induced_hom(sol.hom_groups[0], sol.targets[0], bad.terms[0].pre, bad.terms[0].post)

    def test_each_call_builds_one_checked_hom(self, monkeypatch):
        # every block is written into the rows in place; the one GroupHom
        # built, and checked, is the constraint hom that the call returns
        checked = []
        original_check = GroupHom.__post_init__

        def counted_check(hom):
            checked.append(hom)
            original_check(hom)

        built = []
        original_map = FamilySolution.constraint_map

        def counted_map(sol, constraints):
            before = len(checked)
            out = original_map(sol, constraints)
            built.append((checked[before:], out[3]))
            return out

        monkeypatch.setattr(GroupHom, "__post_init__", counted_check)
        monkeypatch.setattr(FamilySolution, "constraint_map", counted_map)
        subsets = build_subsets_instance(3)
        for name in ("F", "h"):
            functor = subsets.functors[name]
            for mor in subsets.site.morphisms:
                for degree in feasible_degrees(functor):
                    family_group(functor, mor.name, degree)
        assert len(built) == 2 * 27  # two functors, 27 bases, one feasible degree
        for base in ("01>01", "0>012", "01>012"):
            # the coop groups of F and F2, then the link map's two halves
            transfer_subgroup(subsets.transformations["T"], base, 0)
        assert len(built) == 2 * 27 + 3 * 4
        assert all(len(homs) == 1 and homs[0] is hom for homs, hom in built)

    def test_no_kept_constraints(self):
        z = FgAbGroup.free(1)
        z2 = FgAbGroup.from_invariants(0, (2,))
        # Hom(Z/2, Z) is trivial, so the one constraint is dropped
        sol = FamilySolution(
            [SummandSpec("x", z, z), SummandSpec("y", z, z2)],
            [ConstraintSpec("c", z2, z, (TermSpec(1, "x"),))],
        )
        assert not sol.constraints
        assert (sol.constraint_hom.mat.rows, sol.constraint_hom.mat.cols) == (0, 2)
        assert sol.group.canonical() == (1, (2,))
        assert_matches_reference(sol)

    def test_no_unknowns(self):
        z = FgAbGroup.free(1)
        z2 = FgAbGroup.from_invariants(0, (2,))
        # Hom(Z/2, Z) is trivial, so the one unknown is dropped with its term
        sol = FamilySolution([SummandSpec("x", z2, z)], [ConstraintSpec("c", z, z, (TermSpec(1, "x"),))])
        assert not sol.summands
        assert (sol.constraint_hom.mat.rows, sol.constraint_hom.mat.cols) == (1, 0)
        assert sol.group.is_trivial
        assert sol.solve_affine({"c": GroupHom.zero(z, z)}) is not None
        assert sol.solve_affine({"c": GroupHom.identity(z)}) is None
        assert_matches_reference(sol)


def members(tsr):
    return [tsr.source_result.decode(tsr.subgroup.inclusion(x)) for x in tsr.subgroup.group.gens()]


def assert_companion(tsr, cls, d):
    transf, site = tsr.transf, tsr.transf.site
    for g in site.morphisms_into(site.tgt(tsr.base)):
        apex = site.chosen_pullback(tsr.base, g).apex
        for m in transf.src.grades():
            lhs = transf.component(site.src(g), m + tsr.degree) @ cls.component(g, m)
            rhs = d.component(g, m) @ transf.component(apex, m)
            assert lhs.equals(rhs)


class TestCompanionSystem:
    def test_built_once_per_result(self, bundle, monkeypatch):
        # one coop group per functor, one kernel of the link map and one
        # kernel and image of its projection; companions() solves nothing
        calls = []
        for name in ("coop_group", "kernel", "kernel_image"):

            def counting(*args, original=getattr(cooperational, name), name=name):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(cooperational, name, counting)
        transf = bundle.transformations["T"]
        counts = []
        for k in (1, 4):
            calls.clear()
            tsr = transfer_subgroup(transf, "01>01", 0)
            classes = members(tsr)
            for step in range(k):
                tsr.companions(classes[step % len(classes)])
            counts.append(sorted(calls))
        assert counts[0] == counts[1] == ["coop_group", "coop_group", "kernel", "kernel_image"]

    def test_same_companions_as_a_fresh_system(self, bundle):
        """Solving the shared system gives the companion a per-class system gives."""
        transf, site = bundle.transformations["T"], bundle.site
        tsr = transfer_subgroup(transf, "01>01", 0)
        g_sol = tsr.target_result.solution
        for cls in members(tsr) + tsr.source_result.decoded_gens():
            constraints = list(g_sol.constraints)
            rhs = {}
            for g in site.morphisms_into(site.tgt(tsr.base)):
                apex = site.chosen_pullback(tsr.base, g).apex
                for m in transf.src.grades():
                    src, tgt = transf.src.group(apex, m), transf.tgt.group(site.src(g), m)
                    term = TermSpec(1, (g, m), transf.component(apex, m), None)
                    constraints.append(ConstraintSpec(("link", (g, m)), src, tgt, (term,)))
                    rhs[("link", (g, m))] = transf.component(site.src(g), m) @ cls.component(g, m)
            fresh = FamilySolution(g_sol.summands, constraints)
            u = fresh.solve_affine(rhs)
            sols = tsr.companions(cls)
            assert (u is None) == (sols.particular is None)
            if u is not None:
                expected = fresh.decode_unknowns(u)
                assert {k: h.mat for k, h in sols.particular.components.items()} == {
                    k: h.mat for k, h in expected.items()
                }

    def test_subsets_three(self):
        bundle = build_subsets_instance(3)
        tsr = transfer_subgroup(bundle.transformations["T"], "01>012", 0)
        classes = members(tsr)
        assert classes
        for cls in classes:
            sols = tsr.companions(cls)
            assert sols.is_unique
            assert_companion(tsr, cls, sols.particular)
        assert naturality_cube_report(tsr).ok


class TestLinkMap:
    """The kernel of the link map on coop(F) + coop(G) gives, at every base,
    the subgroup of the joint system in (c, d), with as many presented
    generators, and the same homogeneous part."""

    def assert_matches_joint_system(self, transf, degree):
        for mor in transf.site.morphisms:
            tsr = transfer_subgroup(transf, mor.name, degree)
            _, subgroup, homogeneous = joint_transfer_reference(transf, mor.name, degree)
            ours = tsr.companions(FamilyClass(transf.src, mor.name, degree)).homogeneous
            for a, b in ((tsr.subgroup, subgroup), (subgroup, tsr.subgroup), (ours, homogeneous), (homogeneous, ours)):
                assert all(contains(b, a.inclusion(x)) for x in a.group.gens()), mor.name
            assert tsr.subgroup.group.ngens == subgroup.group.ngens
            assert ours.group.canonical() == homogeneous.group.canonical()

    @pytest.mark.parametrize("n", [2, 3])
    def test_mod_two_reduction(self, n):
        self.assert_matches_joint_system(build_subsets_instance(n).transformations["T"], 0)

    def test_zero_map(self, bundle):
        self.assert_matches_joint_system(zero_transformation(bundle.functors["F"], bundle.functors["F2"]), 0)

    def test_grade_scaling(self):
        psi = build_graded_instance(2).transformations["psi"]
        for degree in feasible_degrees(psi.src):
            self.assert_matches_joint_system(psi, degree)


class TestLinkAssembler:
    """The link map that FamilySolution.constraint_map assembles on each
    group's unknowns gives, entry for entry, the ker L slices of the map
    built by decoding every generator, composing it with T and encoding it
    back; and building it decodes no class."""

    def assert_matches_decoded_reference(self, transf, base, degree):
        tsr = transfer_subgroup(transf, base, degree)
        proj, companion, subgroup = decoded_link_reference(transf, base, degree)
        assert tsr._proj.mat == proj, base
        assert tsr._companion.mat == companion, base
        assert tsr.subgroup.inclusion.mat == subgroup.inclusion.mat, base
        assert tsr.subgroup.group.relations == subgroup.group.relations, base

    def test_mod_two_reduction_at_every_base_of_subsets_three(self):
        transf = build_subsets_instance(3).transformations["T"]
        for mor in transf.site.morphisms:
            self.assert_matches_decoded_reference(transf, mor.name, 0)

    @pytest.mark.parametrize("degree", [0, 2])
    def test_grade_scaling(self, degree):
        psi = build_graded_instance(2).transformations["psi"]
        for mor in psi.site.morphisms:
            self.assert_matches_decoded_reference(psi, mor.name, degree)

    def test_zero_functor_target(self, bundle):
        # every link lands in a trivial Hom group, so the link sum has no rows
        F = bundle.functors["F"]
        zero = GradedFunctor(F.site, "contra", (0, 0), {}, {})
        self.assert_matches_decoded_reference(NaturalTransf(F, zero, {}), "0>01", 0)

    def test_building_decodes_no_class(self, monkeypatch):
        calls = []
        for owner, name in ((FamilySolution, "decode"), (famsolve, "family_group")):

            def counting(*args, original=getattr(owner, name), name=name):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(owner, name, counting)
        tsr = transfer_subgroup(build_subsets_instance(3).transformations["T"], "01>012", 0)
        assert tsr.source_result.group.ngens and tsr.target_result.group.ngens
        assert calls == ["family_group", "family_group"]


def with_zero_companions(tsr):
    """tsr, answering every companion query with the zero class."""
    solve = tsr.companions
    zero = FamilyClass(tsr.transf.tgt, tsr.base, tsr.degree, {})

    def companions(c):
        s = solve(c)
        return CompanionSolutions(zero, s.homogeneous, s.target_result)

    tsr.companions = companions
    return tsr


class TestNaturalityCube:
    LINK = "linking face at g fails"

    def test_linking_face_without_an_h(self):
        # on the one-object site the only g is E>E and no non-identity h runs
        # into its source, yet T o c_g = d_g o T must still be checked
        f = load_instance(str(TERMINAL)).functors["F"]
        f2 = GradedFunctor(f.site, "contra", (0, 0), {("E", 0): FgAbGroup.from_invariants(0, (2,))}, {})
        tsr = with_zero_companions(transfer_subgroup(reduction_transformation(f, f2), "E>E", 0))
        assert naturality_cube_report(tsr).to_json() == [
            {"kind": "naturality-cube", "message": self.LINK, "witness": {"g": "E>E", "grade": 0}}
        ]

    def test_a_transformation_that_is_not_natural_is_reported(self, bundle):
        # T made zero at the object 0: over 01>01 the square at g = 01>01
        # along h = 0>01 compares T_0 o w^* = 0 with w^* o T_01 != 0, with w
        # the inclusion of 0 in 01; every other square over 01>01 avoids 0
        # or ends at E, where F and F2 vanish
        T = bundle.transformations["T"]
        zero = GroupHom.zero(T.src.group("0", 0), T.tgt.group("0", 0))
        broken = NaturalTransf(T.src, T.tgt, {**T._components, ("0", 0): zero})
        tsr = transfer_subgroup(broken, "01>01", 0)
        assert naturality_cube_report(tsr).to_json() == [
            {"kind": "naturality-cube", "message": "T naturality face fails", "witness": {"g": "01>01", "grade": 0, "h": "0>01"}}
        ]
        # over 0>01 every apex is 0 or E, so each square compares T_0 with
        # itself or ends at E
        assert naturality_cube_report(transfer_subgroup(broken, "0>01", 0)).ok

    def test_each_linking_face_reported_once(self, bundle):
        # one report per failing (member, g, m), however many h run into
        # src(g); the g o h faces are among the g
        tsr = with_zero_companions(transfer_subgroup(bundle.transformations["T"], "01>01", 0))
        assert [v["witness"] for v in naturality_cube_report(tsr).to_json() if v["message"] == self.LINK] == [
            {"g": "0>01", "grade": 0},
            {"g": "01>01", "grade": 0},
            {"g": "1>01", "grade": 0},
            {"g": "01>01", "grade": 0},
        ]
        assert naturality_cube_report(tsr).kinds() == ("naturality-cube",) * 4


class TestIsomorphismCheckersOnBrokenTheories:
    """Both checkers report a broken theory instead of raising."""

    UNITS_POINT = [
        {"kind": "point-isomorphism", "message": "ev(op(a)) != a", "witness": {"a": (1,), "i": 0, "obj": "0"}},
        {"kind": "point-isomorphism", "message": "ev(op(a)) != a", "witness": {"a": (1,), "i": 0, "obj": "1"}},
        {"kind": "point-isomorphism", "message": "ev(op(a)) != a", "witness": {"a": (1, 0), "i": 0, "obj": "01"}},
        {"kind": "point-isomorphism", "message": "ev(op(a)) != a", "witness": {"a": (0, 1), "i": 0, "obj": "01"}},
    ]
    UNITS_IDENTITY = [
        {"kind": "identity-isomorphism", "message": "recovered element differs", "witness": {"a": (1, 0), "i": 0, "obj": "01"}},
        {"kind": "identity-isomorphism", "message": "recovered element differs", "witness": {"a": (0, 1), "i": 0, "obj": "01"}},
    ]

    def test_every_mutation_fixture(self, bundle):
        from test_acceptance import mutation_fixtures

        for kind, theory in mutation_fixtures(bundle.theories["B"]):
            point = verify_point_isomorphism(theory)
            identity = verify_identity_isomorphism(theory)
            if kind == "units":
                assert point.to_json() == self.UNITS_POINT
                assert identity.to_json() == self.UNITS_IDENTITY
                continue
            assert point.kinds() and set(point.kinds()) == {"point-isomorphism"}
            for v in point.violations:
                assert set(v.witness_dict()) == {"obj", "i", "a"}
            if kind == "product-pullback":
                assert identity.kinds() == ("identity-isomorphism",)
                assert set(identity.violations[0].witness_dict()) == {"obj", "i", "a"}
            else:
                assert identity.ok


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each argument."""
    calls = []
    original = getattr(module, name)

    def counted(t):
        calls.append(t)
        return original(t)

    monkeypatch.setattr(module, name, counted)
    return calls


def doubling(b):
    """x -> 2x on every group: additive, but 2(ab) != (2a)(2b)."""
    comps = {(m.name, 0): GroupHom.identity(b.group(m.name, 0)).scaled(2) for m in b.site.morphisms}
    return GrothTransf(b, b, comps)


class TestTransformationComputedOnce:
    """image_subtheory and image_transfer check gamma once per
    transformation; the public validate_groth computes afresh."""

    def test_validate_groth_runs_once_across_full_transfers(self, monkeypatch):
        bundle = build_subsets_instance(3)
        gamma = bundle.groth["gamma"]
        calls = count_calls(monkeypatch, bivcore, "validate_groth")
        bases = [m.name for m in bundle.site.morphisms]
        assert len(bases) == 27
        bivcore.image_subtheory(gamma)
        for base in bases:
            coop_image_transfer(gamma, base, 0, mode="full")
        assert calls == [gamma]
        assert bivcore.validate_groth(gamma).ok
        assert calls == [gamma, gamma]

    def test_invalid_gamma_raises_the_same_error_on_every_call(self, bundle):
        bad = doubling(bundle.theories["B"])
        messages = []
        for _ in range(3):
            with pytest.raises(InvalidTransformationError) as err:
                op_image_transfer(bad, "0>01", 0, mode="full")
            messages.append(str(err.value))
        assert messages[0] and messages == messages[:1] * 3

    @pytest.mark.parametrize(
        "transfer, name",
        [(op_image_transfer, "op"), (coop_image_transfer, "coop")],
        ids=["op_image_transfer-op", "coop_image_transfer-coop"],
    )
    def test_a_transfer_that_is_not_well_defined_raises(self, bundle, transfer, name):
        # identity from B with every product zero onto B: each comparison of
        # the source is zero, so its image is 0 and cannot map onto B's.
        # The report is taken as ok, so only the mapping's own check stands.
        b = bundle.theories["B"]
        zero = {key: tuple(tuple((0,) * len(cell) for cell in row) for row in table) for key, table in b._products.items()}
        t = reduction_groth(TabulatedBivTheory(b.site, b.window, b._groups, zero, b._pushforwards, b._pullbacks, b._units), b)
        t.report = ValidationReport()
        with pytest.raises(InvalidTransformationError, match=rf"^transfer is not well-defined: {name}\(alpha\)={name}\(beta\) but images differ$") as err:
            transfer(t, "0>01", 0, mode="full")
        assert type(err.value) is InvalidTransformationError

    @pytest.mark.parametrize("transfer", [op_image_transfer, coop_image_transfer], ids=["op_image_transfer", "coop_image_transfer"])
    def test_full_is_the_only_mode(self, bundle, transfer):
        with pytest.raises(ValueError, match="mode must be 'full'"):
            transfer(bundle.groth["gamma"], "0>01", 0, mode="image")


# per functor of subsets(2): its group of classes, and the one violation
# that breaking its decoded generator over 0>01 at (0>01, 0) reports
BROKEN_COMPATIBILITY = {
    "F": (coop_group, "pullback-compatibility", "c_(g o h) o w^* != h^* o c_g", {"g": "01>01", "grade": 0, "h": "0>01"}),
    "h": (op_group, "pushforward-compatibility", "w_* o c_(g o k) != c_g o k_*", {"g": "01>01", "grade": 0, "k": "0>01"}),
}


class TestCompatibilityViolations:
    """A class whose components break a compatibility square reports it
    with kind, message and witness: a scaled component makes both sides
    differ, a dropped one makes one side zero."""

    @pytest.mark.parametrize("perturb", ["scaled", "dropped"])
    @pytest.mark.parametrize("name", sorted(BROKEN_COMPATIBILITY))
    def test_a_broken_square_is_reported(self, bundle, name, perturb):
        group, kind, message, witness = BROKEN_COMPATIBILITY[name]
        gen = group(bundle.functors[name], "0>01", 0).decoded_gens()[0]
        assert gen.compatibility_report().ok
        components = dict(gen.components)
        key = ("0>01", 0)
        if perturb == "scaled":
            components[key] = components[key].scaled(2)
        else:
            del components[key]
        broken = FamilyClass(gen.functor, gen.base, gen.degree, components)
        assert broken.compatibility_report().to_json() == [{"kind": kind, "message": message, "witness": witness}]


class TestFamilyClassEquality:
    def test_classes_of_functors_with_different_groups_are_unequal(self):
        # F and F2 share site, variance and window; their groups differ
        bundle = build_subsets_instance(1)
        unit, unit2 = coop_unit(bundle.functors["F"], "0"), coop_unit(bundle.functors["F2"], "0")
        assert not unit == unit2
        assert unit != unit2

    def test_classes_of_equal_functor_objects_are_equal(self):
        F = build_subsets_instance(1).functors["F"]
        copy = GradedFunctor(F.site, F.variance, F.window, F._groups, F._maps)
        assert copy is not F
        assert coop_unit(F, "0") == coop_unit(copy, "0")

    def test_classes_over_functors_with_different_groups_are_unequal_with_no_component_stored(self):
        # F(01) is Z^2 and F2(01) is (Z/2)^2; neither class stores a component
        bundle = build_subsets_instance(2)
        assert FamilyClass(bundle.functors["F"], "01>01", 0) != FamilyClass(bundle.functors["F2"], "01>01", 0)

    def test_value_equal_classes_over_one_functor_compare_no_component(self, monkeypatch):
        F = functor_copy("F")
        first, second = (family_group(F, "0>01", 0).decoded_gens()[0] for _ in range(2))
        assert first is not second and first.components is not second.components
        agrees, calls = counting(GroupHom._agrees_with)
        monkeypatch.setattr(GroupHom, "_agrees_with", agrees)
        assert first == second and not first != second
        assert calls == []

    def test_a_stored_zero_torsion_component_equals_an_absent_one(self, monkeypatch):
        # on subsets(2) F2, 2 * id on the Z/2 at a key is a nonzero matrix of
        # the zero hom, so the two values differ and the classes are compared
        # component by component, modulo the relations of Z/2
        F2 = functor_copy("F2")
        unit = family_unit(F2, "0")
        key = ("0>0", 0)
        doubled = unit.components[key] + unit.components[key]
        assert doubled.mat.entries == ((2,),) and doubled.tgt.torsion == (2,)
        stored = FamilyClass(F2, "0>0", 0, {key: doubled})
        absent = FamilyClass(F2, "0>0", 0)
        assert stored.value != absent.value
        same_context, calls = counting(FamilyClass._same_context)
        monkeypatch.setattr(FamilyClass, "_same_context", same_context)
        assert stored == absent and absent == stored
        assert len(calls) == 2
        assert stored != unit

    def test_classes_over_different_functors_do_not_combine(self):
        bundle = build_subsets_instance(2)
        F = bundle.functors["F"]
        copy = GradedFunctor(F.site, F.variance, F.window, F._groups, F._maps)
        unit, unit2, unit_copy = (coop_unit(f, "01") for f in (F, bundle.functors["F2"], copy))
        for other in (unit2, unit_copy):
            with pytest.raises(ValueError, match="classes over different functors"):
                family_product(unit, other)
        with pytest.raises(ValueError, match="classes live over different data"):
            unit + unit2
        assert unit + unit_copy == unit + unit


# stray components over 0>01 on subsets(2) F, keyed by what is wrong with
# their key: a grade outside the window, with a nonzero hom or with the zero
# hom between the ends that the grade would have, a morphism into another
# object, and a name the site does not know
STRAY_COMPONENTS = {
    "grade-5": lambda F: (("01>01", 5), GroupHom.identity(F.group("01", 0))),
    "grade-5-zero-ends": lambda F: (("01>01", 5), GroupHom.zero(*FamilyClass(F, "0>01", 0)._component_ends("01>01", 5))),
    "other-target": lambda F: (("0>0", 0), GroupHom.identity(F.group("0", 0))),
    "unknown-morphism": lambda F: (("nowhere", 0), GroupHom.identity(F.group("01", 0))),
}


class TestComponentsCheckedWhenBuilt:
    """A class checks its stored components while it is built, and a group
    of classes encodes only classes over its own data."""

    @pytest.mark.parametrize("stray", sorted(STRAY_COMPONENTS))
    def test_a_component_at_a_key_the_class_does_not_have_raises(self, bundle, stray):
        # encode and == read only a class's own keys, so such a component
        # would go unseen if the class were built
        F = bundle.functors["F"]
        gen = family_group(F, "0>01", 0).decoded_gens()[0]
        key, hom = STRAY_COMPONENTS[stray](F)
        with pytest.raises(ShapeMismatchError, match="has no component at"):
            FamilyClass(F, "0>01", 0, {**gen.components, key: hom})

    def test_encode_rejects_a_class_of_another_degree(self):
        # a degree-2 class over 0>0 has the component ends of degree 0 in
        # grades 0 and 2, where every group is Z
        functor = build_graded_instance(2).functors["Heven"]
        degree_two = family_group(functor, "0>0", 2).decoded_gens()[0]
        with pytest.raises(ValueError, match="classes live over different data"):
            family_group(functor, "0>0", 0).encode(degree_two)

    def test_encode_rejects_a_class_over_another_base(self, bundle):
        F = bundle.functors["F"]
        unit = coop_unit(F, "01")
        with pytest.raises(ValueError, match="classes live over different data"):
            family_group(F, "0>01", 0).encode(unit)


def count_homs(monkeypatch):
    """Every GroupHom built, recorded as its well-definedness check runs."""
    built = []
    original = GroupHom.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(GroupHom, "__post_init__", counted)
    return built


class TestArithmeticOnStoredComponents:
    """Sums, negatives and encodings read the stored components only, and
    build no zero hom for a key that neither side stores."""

    def test_sum_negative_and_encoding_build_no_zero_hom(self, bundle, monkeypatch):
        F = bundle.functors["F"]
        result = family_group(F, "01>01", 0)
        full = result.decoded_gens()[0]
        keys = sorted(full.components)
        assert len(keys) == 3
        a = FamilyClass(F, "01>01", 0, {key: full.components[key] for key in keys[:2]})
        b = FamilyClass(F, "01>01", 0, {key: full.components[key] for key in keys[1:]})
        built = count_homs(monkeypatch)
        negative = -a
        assert len(built) == len(a.components) and set(negative.components) == set(a.components)
        total = a + b
        assert len(built) == len(a.components) + 1 and set(total.components) == set(keys)
        del built[:]
        assert result.encode(total - b) == result.encode(a)
        assert len(built) == 4  # -b, the two shared keys of a + (-b); encoding builds none
        del built[:]
        assert result.encode(full) == result.group.gens()[0]
        assert built == []


def count_reductions(monkeypatch):
    """Every FgAbGroup.reduce call, recorded with its group."""
    calls = []
    original = FgAbGroup.reduce

    def counted(self, coords):
        calls.append(self)
        return original(self, coords)

    monkeypatch.setattr(FgAbGroup, "reduce", counted)
    return calls


class TestZeroComponents:
    """A zero component is its codec's one zero hom: decoding builds at most
    one zero hom per codec, encoding builds no hom, and the codecs still
    invert each other."""

    def test_companions_build_at_most_one_zero_hom_per_codec(self, monkeypatch):
        transf = build_subsets_instance(3).transformations["T"]
        built = count_homs(monkeypatch)
        decoded, results, zero_built = [], [], 0
        for base in ("01>012", "01>01", "0>012"):
            tsr = transfer_subgroup(transf, base, 0)
            del built[:]
            for cls in members(tsr):
                particular = tsr.companions(cls).particular
                assert particular is not None
                decoded += [(tsr.source_result, cls), (tsr.target_result, particular)]
            zero_built += sum(is_zero_matrix(h.mat) for h in built)
            results += [tsr.source_result, tsr.target_result]
        codecs = [hg for result in results for hg in result.solution.hom_groups]
        assert 0 < zero_built <= len(codecs)
        zeros = 0
        for result, cls in decoded:
            for s, hg in zip(result.solution.summands, result.solution.hom_groups):
                hom = cls.components[s.key]
                if is_zero_matrix(hom.mat):
                    assert hom is hg.zero_hom
                    zeros += 1
        assert zeros > len(codecs)  # every decode of a zero shares its codec's hom
        pairs = []
        for result in results:
            pairs += [(result, x, result.decode(x)) for x in result.group.gens()]
            for hg in result.solution.hom_groups:
                pairs += [(hg, x, hg.decode(x)) for x in [hg.group.zero_element(), *hg.group.gens()]]
        del built[:]
        for codec, x, decoded_x in pairs:
            assert codec.encode(decoded_x) == x
        assert built == []

    def test_a_zero_slice_gets_the_zero_hom_with_no_reduction(self, bundle, monkeypatch):
        sol = family_group(bundle.functors["F"], "01>01", 0).solution
        u = sol.unknowns.group.zero_element()
        reduced = count_reductions(monkeypatch)
        out = sol.decode_unknowns(u)
        assert reduced == []
        assert all(out[s.key] is hg.zero_hom for s, hg in zip(sol.summands, sol.hom_groups))

    def test_zero_components_encode_to_zeros_with_no_element(self, bundle, monkeypatch):
        sol = family_group(bundle.functors["F"], "01>01", 0).solution
        zeros = {s.key: GroupHom.zero(s.src, s.tgt) for s in sol.summands}
        built = count_homs(monkeypatch)
        reduced = count_reductions(monkeypatch)
        assert sol.encode_unknowns(zeros).is_zero
        assert built == [] and reduced == [sol.unknowns.group]  # the sum, reduced once as a whole


def fresh_companions(tsr, cls):
    """The companion system solved from scratch for one class: coop(G)'s
    constraints plus the links d_g o T = T o c_g, the class on the right."""
    transf, site = tsr.transf, tsr.transf.site
    g_sol = tsr.target_result.solution
    constraints = list(g_sol.constraints)
    rhs = {}
    for g in site.morphisms_into(site.tgt(tsr.base)):
        apex = site.chosen_pullback(tsr.base, g).apex
        for m in transf.src.grades():
            tgt_grade = m + tsr.degree
            src, tgt = transf.src.group(apex, m), transf.tgt.group(site.src(g), tgt_grade)
            term = TermSpec(1, (g, m), transf.component(apex, m), None)
            constraints.append(ConstraintSpec(("link", (g, m)), src, tgt, (term,)))
            rhs[("link", (g, m))] = transf.component(site.src(g), tgt_grade) @ cls.component(g, m)
    return FamilySolution(g_sol.summands, constraints), rhs


def zero_transformation(src, tgt):
    comps = {}
    for x in src.site.objects:
        for m in src.grades():
            comps[(x, m)] = GroupHom.zero(src.group(x, m), tgt.group(x, m))
    return NaturalTransf(src, tgt, comps)


class TestCompanionCosets:
    """Companions read from the link map's kernel against a per-class system, at
    every base: under the mod-2 reduction T every class has one companion,
    under the zero map F -> F2 every d solves d o T = 0, and under the grade
    scaling psi some classes of negative degree have no companion."""

    def assert_cosets_agree(self, transf, degree):
        for mor in transf.site.morphisms:
            tsr = transfer_subgroup(transf, mor.name, degree)
            target = tsr.target_result
            for cls in members(tsr) + tsr.source_result.decoded_gens():
                fresh, rhs = fresh_companions(tsr, cls)
                u = fresh.solve_affine(rhs)
                sols = tsr.companions(cls)
                assert (u is None) == (sols.particular is None)
                if u is not None:
                    expected = FamilyClass(transf.tgt, mor.name, degree, fresh.decode_unknowns(u))
                    assert contains(sols.homogeneous, target.encode(expected - sols.particular))
                cols = [target.solution.encode(fresh.decode(k)).coords for k in fresh.group.gens()]
                to_target = GroupHom(fresh.group, target.group, IntMatrix.from_columns(cols, target.group.ngens))
                assert sols.homogeneous.group.canonical() == image(to_target).group.canonical()

    def test_mod_two_reduction(self, bundle):
        self.assert_cosets_agree(bundle.transformations["T"], 0)

    def test_zero_map(self, bundle):
        transf = zero_transformation(bundle.functors["F"], bundle.functors["F2"])
        self.assert_cosets_agree(transf, 0)
        tsr = transfer_subgroup(transf, "01>01", 0)
        assert not tsr.companions(members(tsr)[0]).is_unique

    def test_grade_scaling(self):
        psi = build_graded_instance(2).transformations["psi"]
        for degree in feasible_degrees(psi.src):
            self.assert_cosets_agree(psi, degree)
        tsr = transfer_subgroup(psi, "0>0", -2)
        assert any(tsr.companions(cls).particular is None for cls in tsr.source_result.decoded_gens())


def generator_operations(functor):
    """(operation, arguments) for every product, pushforward and pullback of
    generators of the functor's class groups."""
    site = functor.site
    degrees = feasible_degrees(functor)
    gens = {(mor.name, i): family_group(functor, mor.name, i).decoded_gens() for mor in site.morphisms for i in degrees}
    for f, g in site.composable_pairs():
        for i in degrees:
            for j in degrees:
                if i + j in degrees:
                    for a in gens[f, i]:
                        for b in gens[g, j]:
                            yield famsolve.family_product, (a, b)
            if functor.acts_along(f):
                for a in gens[site.compose(g, f), i]:
                    yield famsolve.family_pushforward, (a, f, g)
    for mor in site.morphisms:
        for g in site.morphisms_into(mor.tgt):
            for i in degrees:
                for a in gens[mor.name, i]:
                    yield famsolve.family_pullback, (a, g)


DENSE_TWINS = {
    famsolve.family_product: dense_product,
    famsolve.family_pushforward: dense_pushforward,
    famsolve.family_pullback: dense_pullback,
    famsolve.family_transport: dense_transport,
}


def dense_twin(operation, *args):
    """operation(*args) rebuilt by the oracle, with every component composed
    by dense_path and kept."""
    return DENSE_TWINS[operation](*args)


def assert_matches_dense(result, dense):
    """Every component equals the dense composite entry for entry, and no
    stored component is a zero matrix."""
    for key in result._keys():
        got, want = result.component(*key), dense.components[key]
        assert (got.src, got.tgt, got.mat) == (want.src, want.tgt, want.mat), key
    assert not any(is_zero_matrix(hom.mat) for hom in result.components.values())


SPARSE_CASES = {
    "subsets-2-F": lambda: build_subsets_instance(2).functors["F"],
    "subsets-2-h": lambda: build_subsets_instance(2).functors["h"],
    "flip-contra": lambda: swap_presheaf(flip_site()),
    "flip-cov": lambda: swap_homology(flip_site()),
    "graded-2": lambda: build_graded_instance(2).functors["Heven"],
}


class TestSparseComposition:
    """Operation results store only nonzero components, and each one is the
    composite that dense_path builds factor by factor."""

    @pytest.mark.parametrize("name", sorted(SPARSE_CASES))
    def test_operations_on_generators_match_the_dense_composite(self, name):
        functor = SPARSE_CASES[name]()
        count = 0
        for operation, args in generator_operations(functor):
            assert_matches_dense(operation(*args), dense_twin(operation, *args))
            count += 1
        assert count

    @pytest.mark.parametrize(
        "functor, verify",
        [(swap_presheaf, verify_coop_axioms), (swap_homology, verify_op_axioms)],
        ids=["swap_presheaf-verify_coop_axioms", "swap_homology-verify_op_axioms"],
    )
    def test_transports_across_non_strict_pastes_match_the_dense_composite(self, monkeypatch, functor, verify):
        original = famsolve.family_transport
        checked = []

        def transport(cls, new_base, iso):
            result = original(cls, new_base, iso)
            assert_matches_dense(result, dense_twin(original, cls, new_base, iso))
            checked.append(new_base)
            return result

        monkeypatch.setattr(famsolve, "family_transport", transport)
        assert verify(functor(flip_site())).ok
        assert checked

    @pytest.mark.parametrize("name", ["F", "h"])
    def test_decoded_generators_keep_every_component(self, bundle, name):
        zero_kept = False
        for mor in bundle.site.morphisms:
            result = family_group(bundle.functors[name], mor.name, 0)
            for cls in result.decoded_gens():
                assert set(cls.components) == {s.key for s in result.solution.summands}
                zero_kept |= any(is_zero_matrix(hom.mat) for hom in cls.components.values())
        assert zero_kept

    @pytest.mark.parametrize("zero", ["absent", "stored"])
    @pytest.mark.parametrize("zero_first", [True, False])
    def test_ill_typed_middle_pair_raises_beside_a_zero_factor(self, bundle, zero, zero_first):
        # the ill-typed class of the pair raises while it is built, so no
        # composite can meet it; the well-typed pair beside the zero factor
        # runs to zero, as the dense composite does
        F = bundle.functors["F"]
        g = bundle.site.identity("01")
        with pytest.raises(ShapeMismatchError, match="does not run between its ends"):
            FamilyClass(F, g, 0, {(g, 0): GroupHom.identity(FgAbGroup.from_invariants(0, (7,)))})
        empty = FamilyClass(F, g, 0)
        zero_class = FamilyClass(F, g, 0, {(g, 0): empty.component(g, 0)} if zero == "stored" else {})
        unit = FamilyClass(F, g, 0, {(g, 0): GroupHom.identity(F.group("01", 0))})
        steps = [(zero_class, g), (unit, g)] if zero_first else [(unit, g), (zero_class, g)]
        operands = [cls for cls, _ in steps]
        factors, _ = famsolve._plan_path(F, 0, [(i, key) for i, (_, key) in enumerate(steps)], operands)
        assert famsolve._run(factors, operands) is None
        assert is_zero_matrix(dense_path(F, 0, steps).mat)


def axiom_family_starts():
    """Source lines of verify_axioms that start an axiom family: the comment
    that heads it, one per family."""
    lines, first = inspect.getsourcelines(bivcore.verify_axioms)
    starts = [first + k for k, line in enumerate(lines) if line.startswith("    # ")]
    assert len(starts) == len(bivcore.AXIOM_NAMES)
    return starts


def class_key(cls: FamilyClass):
    """What an operation reads from a class, computed here: its base, its
    degree and its components whose matrix is nonzero."""
    nonzero = {key: hom.mat.entries for key, hom in cls.components.items() if not is_zero_matrix(hom.mat)}
    return cls.base, cls.degree, tuple(sorted(nonzero.items()))


def counting(op):
    """(op wrapped to record each call's arguments, the list of calls)."""
    calls = []

    def call(*args):
        calls.append(args)
        return op(*args)

    return call, calls


class TestAxiomMemo:
    """verify_axioms evaluates each operation once per run for each value of
    its operands and keeps nothing after it returns."""

    @pytest.mark.parametrize(
        "name, verify", [("F", verify_coop_axioms), ("h", verify_op_axioms)], ids=["F-verify_coop_axioms", "h-verify_op_axioms"]
    )
    def test_each_operation_is_evaluated_once_per_value_in_a_run(self, bundle, monkeypatch, name, verify):
        seen, repeated, results = set(), [], []

        def counted(operation):
            original = getattr(famsolve, operation)

            def call(*args):
                key = (operation,) + tuple(class_key(x) if isinstance(x, FamilyClass) else x for x in args)
                (repeated.append if key in seen else seen.add)(key)
                result = original(*args)
                results.append(weakref.ref(result))
                return result

            monkeypatch.setattr(famsolve, operation, call)

        for operation in ("family_product", "family_pushforward", "family_pullback"):
            counted(operation)
        assert verify(bundle.functors[name]).ok
        assert seen and not repeated
        assert {key[0] for key in seen} == {"family_product", "family_pushforward", "family_pullback"}
        assert all(ref() is None for ref in results)

    @pytest.mark.parametrize(
        "name, verify", [("F", verify_coop_axioms), ("h", verify_op_axioms)], ids=["F-verify_coop_axioms", "h-verify_op_axioms"]
    )
    def test_no_operation_is_evaluated_twice_within_an_axiom_family(self, bundle, monkeypatch, name, verify):
        starts = axiom_family_starts()
        seen, repeated, results = set(), [], []

        def family():
            frame = sys._getframe()
            while frame.f_code is not bivcore.verify_axioms.__code__:
                frame = frame.f_back
            return bisect.bisect(starts, frame.f_lineno)

        def counted(operation):
            original = getattr(famsolve, operation)

            def call(*args):
                key = (family(), operation) + tuple(id(x) if isinstance(x, FamilyClass) else x for x in args)
                (repeated.append if key in seen else seen.add)(key)
                result = original(*args)
                results.append(weakref.ref(result))
                return result

            monkeypatch.setattr(famsolve, operation, call)

        for operation in ("family_product", "family_pushforward", "family_pullback"):
            counted(operation)
        assert verify(bundle.functors[name]).ok
        assert seen and not repeated
        assert {key[1] for key in seen} == {"family_product", "family_pushforward", "family_pullback"}
        assert all(ref() is None for ref in results)

    def test_distinct_classes_of_one_value_are_evaluated_once(self):
        F = functor_copy("F")
        first, second = (family_group(F, "0>01", 0).decoded_gens()[0] for _ in range(2))
        assert first is not second and first.value == second.value
        pull, calls = counting(lambda f, g, i, c: family_pullback(c, g))
        pull = bivcore._remembered(pull, 3, famsolve.FamilyTheory(F).value)
        assert pull("0>01", "1>01", 0, first) is pull("0>01", "1>01", 0, second)
        assert len(calls) == 1

    def test_equal_matrices_over_other_bases_or_degrees_are_not_merged(self):
        # a class over 0>01 and one over 1>01 store the same matrix at the
        # same key: F(0) and F(1) are equal groups, so both are well typed
        F = functor_copy("F")
        key = ("01>01", 0)
        hom = family_group(F, "0>01", 0).decoded_gens()[0].components[key]
        assert F.group("0", 0) == F.group("1", 0)
        classes = [
            FamilyClass(F, "0>01", 0, {key: hom}),
            FamilyClass(F, "1>01", 0, {key: hom}),
            FamilyClass(F, "0>01", 0),
            FamilyClass(F, "1>01", 0),
            FamilyClass(F, "0>01", 1),
        ]
        assert len({cls.value for cls in classes}) == len(classes)
        op, calls = counting(lambda cls: cls)
        op = bivcore._remembered(op, 0, famsolve.FamilyTheory(F).value)
        assert [op(cls) for cls in classes] == classes
        assert len(calls) == len(classes)

    def test_a_stored_zero_component_merges_with_an_absent_one(self):
        F = functor_copy("F")
        gen = family_group(F, "0>01", 0).decoded_gens()[0]
        key = ("01>01", 0)
        zero = FamilyClass(F, "0>01", 0).component(*key)
        stored = FamilyClass(F, "0>01", 0, {**gen.components, key: zero})
        absent = FamilyClass(F, "0>01", 0, {k: hom for k, hom in gen.components.items() if k != key})
        assert key in stored.components and key not in absent.components
        assert stored.value == absent.value != gen.value
        push, calls = counting(lambda f, g, i, c: family_pushforward(c, f, g))
        push = bivcore._remembered(push, 3, famsolve.FamilyTheory(F).value)
        assert push("0>0", "0>01", 0, stored) is push("0>0", "0>01", 0, absent)
        assert len(calls) == 1


def operation_counts(monkeypatch, owner, names, check):
    """How often check(), which must pass, calls each of owner's functions
    in names; owner is a module or a class."""
    calls = {}
    for name in names:
        wrapped, calls[name] = counting(getattr(owner, name))
        monkeypatch.setattr(owner, name, wrapped)
    assert check().ok
    return {name: len(made) for name, made in calls.items()}


OP_NEEDS = "operational classes need a covariant functor"
COOP_NEEDS = "co-operational classes need a contravariant functor"


class TestVarianceChecks:
    """Each public op_* / coop_* entry point refuses a functor of the other variance."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda F: op_group(F, "0>01", 0),
            lambda F: operational.op_unit(F, "01"),
            verify_op_axioms,
        ],
        ids=["op_group", "op_unit", "verify_op_axioms"],
    )
    def test_op_entry_points_refuse_a_contravariant_functor(self, bundle, call):
        with pytest.raises(ValueError) as info:
            call(bundle.functors["F"])
        assert str(info.value) == OP_NEEDS

    @pytest.mark.parametrize(
        "call",
        [
            lambda h: coop_group(h, "0>01", 0),
            lambda h: coop_unit(h, "01"),
            verify_coop_axioms,
            lambda h: transfer_subgroup(NaturalTransf(h, h, {}), "0>01", 0),
        ],
        ids=["coop_group", "coop_unit", "verify_coop_axioms", "transfer_subgroup"],
    )
    def test_coop_entry_points_refuse_a_covariant_functor(self, bundle, call):
        with pytest.raises(ValueError) as info:
            call(bundle.functors["h"])
        assert str(info.value) == COOP_NEEDS


class TestCheckerCounts:
    """On subsets(3), the checkers evaluate each operation once per distinct
    operand value.  Evaluating on every generator tuple took 2,283 products,
    900 pushforwards and 1,992 pullbacks per axiom run and 321 comparison
    classes per identity run."""

    @pytest.mark.parametrize(
        "name, verify", [("F", verify_coop_axioms), ("h", verify_op_axioms)], ids=["F-verify_coop_axioms", "h-verify_op_axioms"]
    )
    def test_axiom_runs_evaluate_710_family_operations(self, monkeypatch, name, verify):
        functor = build_subsets_instance(3).functors[name]
        names = ("family_product", "family_pushforward", "family_pullback")
        counts = operation_counts(monkeypatch, famsolve, names, lambda: verify(functor))
        assert counts == {"family_product": 313, "family_pushforward": 110, "family_pullback": 287}

    def test_validate_axioms_evaluates_710_table_operations(self, monkeypatch):
        b = build_subsets_instance(3).theories["B"]
        names = ("product", "pushforward", "pullback")
        counts = operation_counts(monkeypatch, TabulatedBivTheory, names, lambda: bivcore.validate_axioms(b))
        assert counts == {"product": 313, "pushforward": 110, "pullback": 287}

    @pytest.mark.parametrize(
        "module, name, verify",
        [
            (famsolve, "coop_from_bivariant", cooperational.verify_coop_transform_identities),
            (famsolve, "op_from_bivariant", operational.verify_op_transform_identities),
        ],
        ids=["coop", "op"],
    )
    def test_identity_runs_build_53_comparison_classes(self, monkeypatch, module, name, verify):
        b = build_subsets_instance(3).theories["B"]
        assert operation_counts(monkeypatch, module, [name], lambda: verify(b)) == {name: 53}


def count_plans(monkeypatch):
    """The key of every plan built."""
    built = []
    original = famsolve._plan

    def counted(functor, key, build):
        def recorded():
            built.append(key)
            return build()

        return original(functor, key, recorded)

    monkeypatch.setattr(famsolve, "_plan", counted)
    return built


def functor_copy(name):
    """A fresh functor from the data of subsets(2)'s functor of that name."""
    source = parsed_subsets(2).functors[name]
    return GradedFunctor(source.site, source.variance, source.window, source._groups, source._maps)


class TestPlanTable:
    """Each functor plans a class operation once per key, on first use, in a
    table of its own that dies with it; a stored component with the wrong
    ends never reaches a plan, because its class raises while it is built."""

    @pytest.mark.parametrize(
        "name, verify", [("F", verify_coop_axioms), ("h", verify_op_axioms)], ids=["F-verify_coop_axioms", "h-verify_op_axioms"]
    )
    def test_each_plan_is_built_once_per_key(self, monkeypatch, name, verify):
        built = count_plans(monkeypatch)
        functor = parsed_subsets(2).functors[name]
        maps = dict(functor._maps)
        assert functor._plans == {}
        assert verify(functor).ok
        assert built and len(built) == len(set(built)) and set(built) == set(functor._plans)
        assert {key[0] for key in built} == {"product", "pushforward", "pullback"}
        assert dict(functor._maps) == maps

    def test_functors_built_from_the_same_data_share_no_table(self):
        a, b = functor_copy("F"), functor_copy("F")
        assert a._plans is not b._plans
        family_pullback(FamilyClass(a, "0>01", 0), "01>01")
        assert list(a._plans) == [("pullback", "0>01", 0, "01>01")] and b._plans == {}
        family_pullback(FamilyClass(b, "0>01", 0), "01>01")
        key = ("pullback", "0>01", 0, "01>01")
        assert list(b._plans) == [key]
        assert a._plans[key] == b._plans[key] and a._plans[key] is not b._plans[key]

    def test_a_functor_dies_after_its_last_use_plans_included(self):
        functor = functor_copy("F")
        assert verify_coop_axioms(functor).ok
        assert functor._plans
        for gen in family_group(functor, "0>01", 0).decoded_gens():
            assert gen.compatibility_report().ok
        assert ("compatibility", "0>01", 0) in functor._plans
        # the table of ends holds one entry per (base, feasible degree) that
        # a class or group was built over, each with every key of such a
        # class, and nothing for a degree outside feasible_degrees
        site, degrees = functor.site, feasible_degrees(functor)
        FamilyClass(functor, "0>01", max(degrees) + 1)
        assert functor._ends and ("0>01", 0) in functor._ends
        for (base, degree), ends in functor._ends.items():
            assert degree in degrees
            assert list(ends) == [(g, m) for g in site.morphisms_into(site.tgt(base)) for m in functor.grades()]
        ref = weakref.ref(functor)
        del functor, gen
        assert ref() is None

    def assert_each_ill_typed_key_raises(self, functor, base, keys, call):
        """A class over base that stores one component, at any of keys, on a
        group of the wrong ends raises ShapeMismatchError while it is built,
        with the message of that check, so call(cls) never runs."""
        stray = GroupHom.identity(FgAbGroup.from_invariants(0, (7,)))
        assert keys
        for key in keys:
            with pytest.raises(ShapeMismatchError, match="does not run between its ends"):
                call(FamilyClass(functor, base, 0, {key: stray}))

    def test_an_ill_typed_component_raises_through_every_operation(self):
        F = functor_copy("F")
        site = F.site
        every = [(g, m) for g in site.morphisms_into("01") for m in F.grades()]  # each key over 0>01
        unit = family_unit(F, "0")
        self.assert_each_ill_typed_key_raises(F, "0>01", every, lambda d: family_product(unit, d))
        read_by_product = [(site.tower_paste("0>0", "0>01", h).first.top, 0) for h in site.morphisms_into("01")]
        d = FamilyClass(F, "0>01", 0)  # every component of d absent: each composite is zero
        self.assert_each_ill_typed_key_raises(F, "0>0", read_by_product, lambda c: family_product(c, d))
        self.assert_each_ill_typed_key_raises(F, "0>01", every, lambda c: family_pushforward(c, "0>0", "0>01"))
        self.assert_each_ill_typed_key_raises(F, "0>01", every, lambda c: family_transport(c, "0>01", "0>0"))
        self.assert_each_ill_typed_key_raises(F, "0>01", every, lambda c: c.compatibility_report())
        for g in site.morphisms_into("01"):
            keys = [(site.compose(g, k), 0) for k in site.morphisms_into(site.src(g))]
            self.assert_each_ill_typed_key_raises(F, "0>01", keys, lambda c: family_pullback(c, g))

    def test_an_ill_typed_component_raises_where_a_zero_map_kills_the_composite(self):
        # pulled back along 1>01, the component of a class over 0>01 at 1>01
        # runs from F(E) = 0; the paste comparison on that apex is the zero
        # map of F(E), so the plan stores no path for it, and an ill-typed
        # component there raises while its class is built
        F = functor_copy("F")
        assert FamilyClass(F, "0>01", 0)._component_ends("1>01", 0)[0].is_trivial
        self.assert_each_ill_typed_key_raises(F, "0>01", [("1>01", 0)], lambda c: family_pullback(c, "1>01"))
        family_pullback(FamilyClass(F, "0>01", 0), "1>01")
        _, _, paths = F._plans[("pullback", "0>01", 0, "1>01")]
        assert ("1>1", 0) not in dict(paths)
        assert paths == ()  # the other key, E>1, runs from F(E) = 0 as well


def unitriangular(n):
    """The n x n matrix with ones on and above the diagonal, and its inverse:
    ones on the diagonal, -1 just above it."""
    p = IntMatrix(n, n, tuple(tuple(1 if j >= i else 0 for j in range(n)) for i in range(n)))
    q = IntMatrix(n, n, tuple(tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(n)) for i in range(n)))
    assert (p @ q).is_identity()
    return p, q


def off_canonical(functor):
    """functor with each group Z^k / R presented as Z^(k+1) / P (R + [1]): one
    more generator, killed by a relation, then the basis changed by the
    unimodular P with inverse Q.  The iso G -> G' is P[:, :k] and its inverse
    Q[:k, :], so a map with matrix M becomes P_tgt[:, :k] M Q_src[:k, :]."""
    moved = {}
    for key, g in functor._groups.items():
        k = g.ngens
        p, q = unitriangular(k + 1)
        killed = [col + (0,) for col in zip(*g.relations.entries)] + [(0,) * k + (1,)]
        new = FgAbGroup(k + 1, p @ IntMatrix.from_columns(killed, k + 1))
        to_new = IntMatrix.from_columns(p.columns()[:k], k + 1)
        moved[key] = (new, to_new, IntMatrix(k, k + 1, q.entries[:k]))
    maps = {}
    for (mor, m), hom in functor._maps.items():
        src, tgt = functor._objects(mor)
        new_src, _, from_src = moved[(src, m)]
        new_tgt, to_tgt, _ = moved[(tgt, m)]
        maps[(mor, m)] = GroupHom(new_src, new_tgt, to_tgt @ hom.mat @ from_src)
    groups = {key: new for key, (new, _, _) in moved.items()}
    return GradedFunctor(functor.site, functor.variance, functor.window, groups, maps)


OFF_CANONICAL = {
    "F": (coop_group, verify_coop_axioms),
    "F2": (coop_group, verify_coop_axioms),
    "h": (op_group, verify_op_axioms),
    "h2": (op_group, verify_op_axioms),
}


class TestOffCanonicalPresentations:
    """Metamorphic: presenting every group of a functor off its canonical
    basis, so that reduce and the constraint maps meet non-identity Smith
    transforms, changes no group and breaks no axiom."""

    @pytest.mark.parametrize("name", sorted(OFF_CANONICAL))
    def test_groups_and_axioms_are_unchanged(self, bundle, name):
        group, verify = OFF_CANONICAL[name]
        functor = bundle.functors[name]
        moved = off_canonical(functor)
        assert moved.validate().ok
        objects = bundle.site.objects
        assert all(moved.group(obj, 0).canonical() == functor.group(obj, 0).canonical() for obj in objects)
        assert sum(moved.group(obj, 0)._reduction[0] == "general" for obj in objects) >= 3
        for mor in bundle.site.morphisms:
            for degree in feasible_degrees(functor):
                got = group(moved, mor.name, degree).group.canonical()
                assert got == group(functor, mor.name, degree).group.canonical(), (mor.name, degree)
        assert verify(moved).ok
