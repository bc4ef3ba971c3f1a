import random

import pytest

from bivariant import bivcore
from bivariant.bivcore import GrothTransf, InvalidTransformationError
from bivariant.cooperational import coop_image_transfer
from bivariant.exactalg import FgAbGroup, GroupHom, IntMatrix, image, is_surjective, kernel
from bivariant.famsolve import NotSurjectiveError, recover
from bivariant.operational import (
    op_from_bivariant,
    op_group,
    op_hom,
    op_image_transfer,
    op_product,
    op_pullback,
    op_pushforward,
    op_unit,
    verify_op_axioms,
    verify_op_transform_identities,
    verify_point_isomorphism,
)
from bivariant.site import GradedFunctor
from bivariant.workbench import (
    build_subsets_instance,
    subsets_homology,
    subsets_site,
)

from oracles import identities_confined, rational_rank


@pytest.fixture(scope="module")
def bundle():
    return build_subsets_instance(2)


@pytest.fixture(scope="module")
def h(bundle):
    return bundle.functors["h"]


def terminal_functor():
    site = subsets_site(0)
    grp = FgAbGroup.free(1)
    return GradedFunctor(site, "cov", (0, 0), {("E", 0): grp}, {("E>E", 0): GroupHom.identity(grp)})


class TestOpGroup:
    def test_terminal_site(self):
        f = terminal_functor()
        result = op_group(f, "E>E", 0)
        assert result.group.canonical() == (1, ())

    def test_zero_functor(self):
        site = subsets_site(2)
        zero = GradedFunctor(site, "cov", (0, 0), {}, {})
        result = op_group(zero, "01>01", 0)
        assert result.group.is_trivial

    def test_subsets_cross_checked(self, h):
        # brute force: rational nullity of the materialized constraint matrix
        result = op_group(h, "0>01", 0)
        sol = result.solution
        mat = sol.constraint_hom.mat
        nullity = sol.unknowns.group.ngens - rational_rank(mat.entries, mat.cols)
        assert result.group.canonical() == (nullity, ())
        assert result.group.canonical() == (1, ())

    def test_all_bases_cross_checked(self, h):
        for mor in h.site.morphisms:
            result = op_group(h, mor.name, 0)
            sol = result.solution
            mat = sol.constraint_hom.mat
            nullity = sol.unknowns.group.ngens - rational_rank(mat.entries, mat.cols)
            assert result.group.canonical() == (nullity, ())

    def test_decoded_generators_compatible(self, h):
        for mor in h.site.morphisms:
            result = op_group(h, mor.name, 0)
            for cls in result.decoded_gens():
                assert cls.compatibility_report().ok

    def test_codec_round_trip_and_surjectivity(self, h):
        rng = random.Random(3)
        for mor in ["01>01", "0>01", "1>1"]:
            result = op_group(h, mor, 0)
            gens = result.decoded_gens()
            for e, cls in zip(result.group.gens(), gens):
                assert result.encode(cls) == e
            if gens:
                combo = gens[0]
                for extra in gens[1:]:
                    combo = combo + extra
                result.encode(combo)  # any compatible family encodes
            for _ in range(3):
                e = result.group.element(
                    [rng.randint(-3, 3) for _ in range(result.group.ngens)]
                )
                assert result.encode(result.decode(e)) == e


class TestOpOperations:
    def test_product_with_unit(self, h):
        result = op_group(h, "0>01", 0)
        unit = op_unit(h, "01")
        for cls in result.decoded_gens():
            assert op_product(cls, unit) == cls
        unit0 = op_unit(h, "0")
        for cls in result.decoded_gens():
            assert op_product(unit0, cls) == cls

    def test_pullback_along_identity(self, h):
        result = op_group(h, "0>01", 0)
        for cls in result.decoded_gens():
            assert op_pullback(cls, "01>01") == cls

    def test_pushforward_along_identity(self, h):
        result = op_group(h, "0>01", 0)
        for cls in result.decoded_gens():
            assert op_pushforward(cls, "0>0", "0>01") == cls

    def test_pullback_functoriality_subsets_three(self):
        site = subsets_site(3)
        h3 = subsets_homology(site)
        rng = random.Random(9)
        result = op_group(h3, "01>012", 0)
        classes = result.decoded_gens()
        for _ in range(4):
            coords = [rng.randint(-3, 3) for _ in range(result.group.ngens)]
            classes.append(result.decode(result.group.element(coords)))
        for g in site.morphisms_into("012"):
            for k in site.morphisms_into(site.src(g)):
                gk = site.compose(g, k)
                for cls in classes:
                    assert op_pullback(cls, gk) == op_pullback(op_pullback(cls, g), k)

    def test_unit_pulls_back_to_unit(self, h):
        unit = op_unit(h, "01")
        assert op_pullback(unit, "0>01") == op_unit(h, "0")


class TestOpFromBivariant:
    def test_unit_gives_identity_family(self, bundle):
        b = bundle.theories["B"]
        pt = b.site.final_object
        alpha = b.unit(pt)
        cls = op_from_bivariant(b, b.site.identity(pt), 0, alpha)
        assert cls == op_unit(cls.functor, pt)
        assert recover(b, cls) == alpha

    def test_pointwise_closed_form(self, bundle):
        # alpha = e0 over id_U acts by pointwise multiplication then restriction
        b = bundle.theories["B"]
        site = b.site
        alpha = b.group("01>01", 0).element((1, 0))
        cls = op_from_bivariant(b, "01>01", 0, alpha)
        for g in site.morphisms_into("01"):
            members = [] if site.src(g) == "E" else [int(c) for c in site.src(g)]
            comp = cls.component(g, 0)
            expected = IntMatrix.from_rows(
                [[(1 if x == y and x == 0 else 0) for y in members] for x in members]
            )
            assert comp.mat == IntMatrix(len(members), len(members), expected.entries)

    def test_kernel_trivial_over_point(self, bundle):
        b = bundle.theories["B"]
        for x in b.site.objects:
            ax = b.site.to_point(x)
            oph = op_hom(b, ax, 0)
            assert kernel(oph).group.is_trivial

    def test_evaluation_round_trip(self, bundle):
        b = bundle.theories["B"]
        result = op_group(b.covariant_part, "0>01", 0)
        for a in b.group("0>01", 0).gens():
            cls = op_from_bivariant(b, "0>01", 0, a)
            assert recover(b, result.decode(result.encode(cls))) == a


class TestTransformIdentities:
    def test_comparison_map_identities(self, bundle):
        assert verify_op_transform_identities(bundle.theories["B"]).ok

    def test_point_isomorphism(self, bundle):
        assert verify_point_isomorphism(bundle.theories["B"]).ok

    def test_image_subgroup_matches(self, bundle):
        b = bundle.theories["B"]
        for x in b.site.objects:
            ax = b.site.to_point(x)
            sub = image(op_hom(b, ax, 0))
            assert sub.group.canonical() == b.group(ax, 0).canonical()


class TestOpAxioms:
    def test_subsets_two(self, h):
        assert verify_op_axioms(h).ok


class TestImageTransfer:
    def test_identity_transfer(self, bundle):
        b = bundle.theories["B"]
        comps = {
            (m.name, 0): GroupHom.identity(b.group(m.name, 0)) for m in b.site.morphisms
        }
        ident = GrothTransf(b, b, comps)
        tr = op_image_transfer(ident, "0>01", 0, mode="full")
        assert tr.mapping.equals(GroupHom.identity(tr.source.group))

    def test_mod_two_is_covariant_surjective(self, bundle):
        gamma = bundle.groth["gamma"]
        assert gamma.surjectivity_witness("cov") is None

    def test_mod_two_transfer_identities(self, bundle):
        gamma = bundle.groth["gamma"]
        b2 = bundle.theories["B2"]
        site = bundle.site
        for mor in site.morphisms:
            op_image_transfer(gamma, mor.name, 0, mode="full")
        # the transfer respects products, pushforwards and pullbacks
        b = bundle.theories["B"]
        for f, g in site.composable_pairs():
            gf = site.compose(g, f)
            for a in b.group(f, 0).gens():
                for bb in b.group(g, 0).gens():
                    ga, gb_ = gamma(f, 0, a), gamma(g, 0, bb)
                    lhs = op_from_bivariant(b2, gf, 0, gamma(gf, 0, b.product(f, g, 0, 0, a, bb)))
                    rhs = op_product(
                        op_from_bivariant(b2, f, 0, ga), op_from_bivariant(b2, g, 0, gb_)
                    )
                    assert lhs == rhs

    def test_doubling_rejected(self, bundle):
        b = bundle.theories["B"]
        comps = {
            (m.name, 0): GroupHom.identity(b.group(m.name, 0)).scaled(2)
            for m in b.site.morphisms
        }
        doubling = GrothTransf(b, b, comps)
        with pytest.raises(InvalidTransformationError):
            op_image_transfer(doubling, "0>01", 0, mode="full")

    def test_non_surjective_witness(self, bundle):
        b = bundle.theories["B"]
        comps = {}
        for m in b.site.morphisms:
            g = b.group(m.name, 0)
            comps[(m.name, 0)] = GroupHom(g, g, IntMatrix.identity(g.ngens).scaled(3))
        tripling = GrothTransf(b, b, comps)
        # (3a)(3b) = 9ab != 3ab, so the product check fails before surjectivity
        with pytest.raises(InvalidTransformationError) as err:
            op_image_transfer(tripling, "0>01", 0, mode="full")
        assert type(err.value) is InvalidTransformationError
        # the zero map B -> B2 is a Grothendieck transformation onto nothing
        b2 = bundle.theories["B2"]
        zero = GrothTransf(b, b2, {(m.name, 0): GroupHom.zero(b.group(m.name, 0), b2.group(m.name, 0)) for m in b.site.morphisms})
        assert zero.report.ok
        for transfer in (op_image_transfer, coop_image_transfer):
            with pytest.raises(NotSurjectiveError) as err:
                transfer(zero, "0>01", 0, mode="full")
            assert err.value.witness == ("0", 0)


class TestSurjectivityOnce:
    """A Grothendieck map checks surjectivity onto each part once, on the
    first image transfer of that variance, and keeps the witness."""

    def test_is_surjective_runs_only_for_the_first_transfer_of_each_variance(self, monkeypatch):
        bundle = build_subsets_instance(3)
        gamma = bundle.groth["gamma"]
        calls = []

        def counted(f):
            calls.append(f)
            return is_surjective(f)

        monkeypatch.setattr(bivcore, "is_surjective", counted)
        bases = sorted(m.name for m in bundle.site.morphisms)
        assert len(bases) == 27
        per_variance = len(bundle.site.objects) * len(list(gamma.src.degrees()))
        for transfer in (op_image_transfer, coop_image_transfer):
            before = len(calls)
            transfer(gamma, bases[0], 0, mode="full")
            assert len(calls) - before == per_variance
            for base in bases[1:]:
                transfer(gamma, base, 0, mode="full")
            assert len(calls) - before == per_variance
        assert len(calls) == 2 * per_variance
        assert gamma._surjectivity == {"cov": None, "contra": None}

    def test_a_non_surjective_map_raises_the_same_witness_on_every_call(self, bundle):
        b, b2 = bundle.theories["B"], bundle.theories["B2"]
        zero = GrothTransf(b, b2, {(m.name, 0): GroupHom.zero(b.group(m.name, 0), b2.group(m.name, 0)) for m in b.site.morphisms})
        for _ in range(3):
            for transfer in (op_image_transfer, coop_image_transfer):
                with pytest.raises(NotSurjectiveError) as err:
                    transfer(zero, "0>01", 0, mode="full")
                assert err.value.witness == ("0", 0)
        assert zero._surjectivity == {"cov": ("0", 0), "contra": ("0", 0)}

    def test_an_unknown_variance_is_rejected_and_not_kept(self, bundle):
        gamma = bundle.groth["gamma"]
        with pytest.raises(ValueError, match="variance"):
            gamma.surjectivity_witness("both")
        assert "both" not in gamma._surjectivity


class TestDegreeWindow:
    def test_product_degree_overflow(self, h):
        from bivariant.bivcore import DegreeWindowError
        from bivariant.operational import OpClass

        result = op_group(h, "0>01", 0)
        cls = result.decoded_gens()[0]
        shifted = OpClass(h, "01>01", 1, {})
        with pytest.raises(DegreeWindowError):
            op_product(cls, shifted)

    def test_non_confined_pushforward_rejected(self):
        from bivariant.site import NonConfinedError

        site = identities_confined(subsets_site(2))
        h2 = subsets_homology(site)
        result = op_group(h2, "0>01", 0)
        for cls in result.decoded_gens():
            with pytest.raises(NonConfinedError):
                op_pushforward(cls, "0>01", "01>01")
