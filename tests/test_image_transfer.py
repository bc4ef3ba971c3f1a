"""Image transfers taken in the unknowns sum, against the solved groups of classes.

image_transfer builds each image in the unknowns sum U of its theory's part,
the direct sum of the component Hom groups, and checks that every
comparison family is a class with one product by the constraint map.  The
reference takes image(comparison_map(...)) in the solved group of classes.
Both present an image on the generators of B(f), so the two must agree in
canonical(), in the mapping matrix and in the relation lattice; only the
basis of the lattice may differ.
"""

import random

import pytest

from bivariant import famsolve
from bivariant.cooperational import coop_group, coop_image_transfer
from bivariant.exactalg import lattice_solve
from bivariant.famsolve import NotAClassError, comparison_map
from bivariant.operational import op_group, op_image_transfer
from bivariant.workbench import build_subsets_instance, reduction_groth

from oracles import image_transfer_reference
from test_acceptance import mutation_fixtures

TRANSFERS = {"cov": op_image_transfer, "contra": coop_image_transfer}


def transformations(bundle):
    """gamma: B -> B2, and the identity on B and on B2."""
    b, b2 = bundle.theories["B"], bundle.theories["B2"]
    return {"gamma": bundle.groth["gamma"], "id_B": reduction_groth(b, b), "id_B2": reduction_groth(b2, b2)}


# a subsets(4) base where B2's images come in another basis of one lattice
# than in the groups of classes, in both variances
OTHER_BASIS = "012>0123"


def bases(n):
    """Every base of subsets(2) and subsets(3); of subsets(4), a seeded sample
    and OTHER_BASIS."""
    names = sorted(m.name for m in build_subsets_instance(n).site.morphisms)
    if n < 4:
        return names
    names.remove(OTHER_BASIS)
    return random.Random(4).sample(names, 3) + [OTHER_BASIS]


def same_lattice(a, b):
    """Whether two presentations on the same generators have one relation
    lattice: each side's relation columns solve in the other's."""
    return a.ngens == b.ngens and all(
        lattice_solve(y.relations, col) is not None for x, y in ((a, b), (b, a)) for col in x.relations.columns()
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_image_transfers_agree_with_the_images_in_the_groups_of_classes(n):
    bundle = build_subsets_instance(n)
    other_basis = set()
    for name, t in transformations(bundle).items():
        for base in bases(n):
            for variance, transfer in TRANSFERS.items():
                it = transfer(t, base, 0, mode="full")
                source, target, mapping = image_transfer_reference(variance, t, base, 0)
                where = (name, base, variance)
                assert it.mapping.mat == mapping, where
                for mine, theirs in ((it.source.group, source.group), (it.target.group, target.group)):
                    assert mine.canonical() == theirs.canonical(), where
                    assert same_lattice(mine, theirs), where
                    if mine.relations != theirs.relations:
                        other_basis.add(where)
    if n == 4:
        assert {("id_B2", OTHER_BASIS, "cov"), ("id_B2", OTHER_BASIS, "contra")} <= other_basis


# (mutation, variance, base) -> the generator whose comparison family is not
# a class, along the identity on each mutation fixture of subsets(2)'s B, as
# the transfers through the solved groups of classes raise it
NOT_A_CLASS = {
    ("associativity", "cov", "0>01"): (1,),
    ("pushforward-functorial", "cov", "0>01"): (1,),
    ("pullback-functorial", "cov", "0>01"): (1,),
    ("pullback-functorial", "contra", "0>01"): (1,),
    ("product-pushforward", "cov", "01>01"): (1, 0),
    ("product-pushforward", "cov", "0>01"): (1,),
    ("product-pushforward", "cov", "1>01"): (1,),
    ("product-pushforward", "contra", "0>01"): (1,),
    ("product-pullback", "cov", "01>01"): (0, 1),
    ("product-pullback", "contra", "01>01"): (1, 0),
    ("product-pullback", "contra", "1>01"): (1,),
    ("pushforward-pullback", "cov", "0>01"): (1,),
    ("pushforward-pullback", "contra", "0>01"): (1,),
    ("projection-formula", "cov", "1>01"): (1,),
    ("projection-formula", "contra", "1>01"): (1,),
}


def test_a_comparison_family_that_is_not_a_class_raises_naming_its_generator():
    b = build_subsets_instance(2).theories["B"]
    raised = set()
    for kind, mutated in mutation_fixtures(b):
        t = reduction_groth(mutated, mutated)
        for base in sorted(m.name for m in mutated.site.morphisms):
            for variance, transfer in TRANSFERS.items():
                generator = NOT_A_CLASS.get((kind, variance, base))
                if generator is None:
                    transfer(t, base, 0, mode="full")
                    continue
                with pytest.raises(NotAClassError) as err:
                    transfer(t, base, 0, mode="full")
                assert err.value.generator.coords == generator
                assert str(err.value) == f"comparison family of generator {generator} is not a class"
                raised.add((kind, variance, base))
    assert raised == set(NOT_A_CLASS)


def test_image_transfers_solve_no_kernel(monkeypatch):
    bundle = build_subsets_instance(3)
    gamma, h, f = bundle.groth["gamma"], bundle.functors["h"], bundle.functors["F"]
    calls = []
    solve = famsolve.kernel

    def counted(hom):
        calls.append(hom)
        return solve(hom)

    monkeypatch.setattr(famsolve, "kernel", counted)
    names = sorted(m.name for m in bundle.site.morphisms)
    for base in names:
        for transfer in TRANSFERS.values():
            transfer(gamma, base, 0, mode="full")
    assert calls == []
    # every other reader of a group of classes still solves its kernel, once
    for base in names:
        for variance in TRANSFERS:
            before = len(calls)
            comparison_map(variance, gamma.src, base, 0)
            assert len(calls) == before + 1
        for group, functor in ((op_group, h), (coop_group, f)):
            before = len(calls)
            result = group(functor, base, 0)
            assert len(calls) == before
            result.decoded_gens()
            assert result.group is result.solution.kernel.group
            assert len(calls) == before + 1
