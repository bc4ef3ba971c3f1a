import random

import pytest
from hypothesis import given, settings, strategies as st

from bivariant.exactalg import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    ShapeMismatchError,
    direct_sum,
    hom_group,
    hom_preimage,
    image,
    is_surjective,
    kernel,
    kernel_image,
    lattice_contains,
    lattice_kernel,
    lattice_solve,
    project_factor,
    quotient_by,
    smith_decomposition,
    snf,
)

from oracles import determinantal_divisors, hom_count_cyclic, random_well_defined_matrix


Z = FgAbGroup.free(1)


def check_snf(m: IntMatrix):
    d, u, v = snf(m)
    assert (u @ m @ v) == d
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    s = smith_decomposition(m)
    assert (s.u @ s.u_inv).is_identity()
    assert (s.v @ s.v_inv).is_identity()
    diag = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entries[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert diag == determinantal_divisors(m.entries, m.cols)
    return d


class TestSmithNormalForm:
    def test_identity(self):
        m = IntMatrix.identity(2)
        d, u, v = snf(m)
        assert d.is_identity() and u.is_identity() and v.is_identity()

    def test_frozen_example(self):
        # d1 = gcd of all entries = 2; d1*d2 = |det| = |16 - 24| = 8
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        d, u, v = snf(m)
        assert d == IntMatrix.from_rows([[2, 0], [0, 4]])
        assert (u @ m @ v) == d

    def test_zero(self):
        m = IntMatrix.zeros(2, 3)
        d, u, v = snf(m)
        assert d.is_zero() and u.is_identity() and v.is_identity()

    def test_deterministic(self):
        m = IntMatrix.from_rows([[3, -1, 4], [1, 5, -9], [2, 6, 5]])
        assert snf(m) == snf(IntMatrix.from_rows([[3, -1, 4], [1, 5, -9], [2, 6, 5]]))

    def test_tracked_inverses(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        s = smith_decomposition(m)
        assert (s.u @ s.u_inv).is_identity()
        assert (s.v @ s.v_inv).is_identity()

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_properties(self, rows, cols, seed):
        rng = random.Random(seed)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        check_snf(m)


class TestLattice:
    def test_solve_and_membership(self):
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert lattice_contains(a, (4, 6))
        assert not lattice_contains(a, (1, 0))
        x = lattice_solve(a, (4, -3))
        assert a.apply(x) == (4, -3)

    def test_kernel(self):
        a = IntMatrix.from_rows([[1, 2, 3]])
        k = lattice_kernel(a)
        assert k.cols == 2
        for j in range(k.cols):
            assert a.apply(k.col(j)) == (0,)


class TestGroups:
    def test_canonical_form(self):
        g = FgAbGroup(2, IntMatrix.from_rows([[2, 0], [0, 0]]))
        assert g.canonical() == (1, (2,))
        assert g.pretty() == "Z x Z/2"

    def test_zero_group(self):
        z = FgAbGroup.zero()
        assert z.is_trivial and z.order() == 1

    def test_divisibility_chain(self):
        g = FgAbGroup.from_invariants(0, (2, 3))  # presented Z/2 + Z/3
        assert g.canonical() == (0, (6,))

    def test_element_equality(self):
        g = FgAbGroup.from_invariants(0, (4,))
        assert g.element((5,)) == g.element((1,))
        assert g.element((2,)) != g.element((0,))

    def test_enumeration(self):
        g = FgAbGroup.from_invariants(0, (2, 3))
        elems = list(g.elements())
        assert len(elems) == 6
        assert len(set(elems)) == 6


class TestHomGroup:
    def test_free_rank_one(self):
        assert hom_group(Z, Z).group.canonical() == (1, ())

    def test_z4_to_z6(self):
        # enumerate images x of the generator with 4x = 0 mod 6: {0, 3}
        expected = hom_count_cyclic(4, 6)
        assert expected == 2
        hg = hom_group(FgAbGroup.from_invariants(0, (4,)), FgAbGroup.from_invariants(0, (6,)))
        assert hg.group.order() == expected
        assert hg.group.canonical() == (0, (2,))

    def test_torsion_into_free(self):
        hg = hom_group(FgAbGroup.from_invariants(0, (3,)), Z)
        assert hg.group.is_trivial

    def test_codec_decodes_well_defined(self):
        hg = hom_group(FgAbGroup.from_invariants(0, (4,)), FgAbGroup.from_invariants(0, (6,)))
        for e in hg.group.gens():
            h = hg.decode(e)
            assert isinstance(h, GroupHom)
            assert hg.encode(h) == e

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_codec_round_trip_random(self, seed):
        rng = random.Random(seed)
        src_inv = (rng.randint(0, 2), tuple(sorted(rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(0, 2)))))
        tgt_inv = (rng.randint(0, 2), tuple(sorted(rng.choice([2, 4, 8]) for _ in range(rng.randint(0, 2)))))
        src_t = []
        d = 1
        for x in src_inv[1]:
            d = d * x
            src_t.append(d)
        tgt_t = []
        d = 1
        for x in tgt_inv[1]:
            d = d * x
            tgt_t.append(d)
        src = FgAbGroup.from_invariants(src_inv[0], src_t)
        tgt = FgAbGroup.from_invariants(tgt_inv[0], tgt_t)
        hg = hom_group(src, tgt)
        # encode-then-decode reproduces directly built homs up to relations
        rows = random_well_defined_matrix(rng, (src_inv[0], src_t), (tgt_inv[0], tgt_t))
        h = GroupHom(src, tgt, IntMatrix(tgt.ngens, src.ngens, tuple(tuple(r) for r in rows)))
        assert hg.decode(hg.encode(h)).equals(h)
        # decode is additive
        e1 = hg.group.element([rng.randint(-9, 9) for _ in range(hg.group.ngens)])
        e2 = hg.group.element([rng.randint(-9, 9) for _ in range(hg.group.ngens)])
        assert hg.decode(e1 + e2).equals(hg.decode(e1) + hg.decode(e2))
        assert hg.encode(hg.decode(e1)) == e1


class TestHomAlgebra:
    def test_compose_identity(self):
        ident = GroupHom.identity(Z)
        assert (ident @ ident).equals(ident)

    def test_three_equals_zero_mod_three(self):
        z3 = FgAbGroup.from_invariants(0, (3,))
        times3 = GroupHom(z3, z3, IntMatrix.from_rows([[3]]))
        assert times3.equals(GroupHom.zero(z3, z3))

    def test_additivity(self):
        one = GroupHom.identity(Z)
        two = one + one
        assert two.mat == IntMatrix.from_rows([[2]])

    def test_negate_and_is_zero(self):
        one = GroupHom.identity(Z)
        assert (one + (-one)).is_zero_hom

    def test_identity_of(self):
        two = GroupHom.identity(Z).scaled(2)
        assert GroupHom.identity(Z).mat == IntMatrix.identity(1)
        assert (GroupHom.identity(Z) @ two).equals(two)

    def test_shape_mismatch(self):
        z3 = FgAbGroup.from_invariants(0, (3,))
        with pytest.raises(ShapeMismatchError):
            GroupHom.identity(Z) + GroupHom.identity(z3)
        with pytest.raises(ShapeMismatchError):
            GroupHom.identity(Z).equals(GroupHom.identity(z3))


class TestKernelImage:
    def test_kernel_of_identity(self):
        assert kernel(GroupHom.identity(Z)).group.is_trivial

    def test_kernel_times_two_on_z4(self):
        # enumerating all four elements, 2x = 0 exactly on {0, 2}
        z4 = FgAbGroup.from_invariants(0, (4,))
        f = GroupHom(z4, z4, IntMatrix.from_rows([[2]]))
        ker = kernel(f)
        assert ker.group.canonical() == (0, (2,))
        gen_img = ker.inclusion(ker.group.gens()[0])
        assert gen_img == z4.element((2,))

    def test_kernel_of_zero_map(self):
        f = GroupHom.zero(Z, Z)
        assert kernel(f).group.canonical() == (1, ())

    def test_kernel_composed_is_zero(self):
        z12 = FgAbGroup.from_invariants(0, (12,))
        f = GroupHom(z12, z12, IntMatrix.from_rows([[4]]))
        ker, im = kernel_image(f)
        comp = f @ ker.inclusion
        assert comp.is_zero_hom
        assert im.group.canonical() == (0, (3,))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_first_isomorphism(self, seed):
        rng = random.Random(seed)
        src_t = []
        d = 1
        for _ in range(rng.randint(0, 2)):
            d *= rng.choice([2, 3])
            src_t.append(d)
        src = FgAbGroup.from_invariants(rng.randint(0, 2), src_t)
        tgt_t = []
        d = 1
        for _ in range(rng.randint(0, 2)):
            d *= rng.choice([2, 4])
            tgt_t.append(d)
        tgt = FgAbGroup.from_invariants(rng.randint(0, 2), tgt_t)
        rows = random_well_defined_matrix(rng, (src.free_rank, src_t), (tgt.free_rank, tgt_t))
        f = GroupHom(src, tgt, IntMatrix(tgt.ngens, src.ngens, tuple(tuple(r) for r in rows)))
        ker, im = kernel_image(f)
        # im(f) is isomorphic to src / ker(f)
        assert im.group.canonical() == quotient_by(ker).canonical()
        # inclusion of the image is injective and lands on f's values
        for g in src.gens():
            y = f(g)
            assert hom_preimage(im.inclusion, y) is not None

    def test_maximality_of_kernel(self):
        z4 = FgAbGroup.from_invariants(0, (4,))
        f = GroupHom(z4, z4, IntMatrix.from_rows([[2]]))
        ker = kernel(f)
        for x in z4.elements():
            if f(x).is_zero:
                assert hom_preimage(ker.inclusion, x) is not None


class TestDirectSumAndProjection:
    def test_direct_sum_structure(self):
        a, b = Z, FgAbGroup.from_invariants(0, (2,))
        ds = direct_sum([a, b])
        assert ds.group.canonical() == (1, (2,))
        x = ds.injections[0](a.gens()[0]) + ds.injections[1](b.gens()[0])
        assert ds.projections[0](x) == a.gens()[0]
        assert ds.projections[1](x) == b.gens()[0]

    def test_project_subgroup(self):
        a, b = Z, Z
        ds = direct_sum([a, b])
        # diagonal subgroup {(n, n)} projects onto all of each factor
        diag = GroupHom(Z, ds.group, IntMatrix.from_rows([[1], [1]]))
        sub = image(diag)
        for idx in (0, 1):
            proj = project_factor(sub, ds, idx)
            assert proj.group.canonical() == (1, ())

    def test_project_kills_other_factor(self):
        a, b = Z, Z
        ds = direct_sum([a, b])
        first = image(ds.injections[0])
        proj = project_factor(first, ds, 1)
        assert proj.group.is_trivial


class TestSurjectivityAndPreimage:
    def test_preimage(self):
        f = GroupHom(Z, Z, IntMatrix.from_rows([[3]]))
        assert hom_preimage(f, Z.element((6,))) == Z.element((2,))
        assert hom_preimage(f, Z.element((2,))) is None

    def test_surjective_mod(self):
        z2 = FgAbGroup.from_invariants(0, (2,))
        red = GroupHom(Z, z2, IntMatrix.from_rows([[1]]))
        assert is_surjective(red)
        assert not is_surjective(GroupHom(Z, Z, IntMatrix.from_rows([[2]])))


def test_doctests():
    import doctest

    import bivariant.exactalg as mod

    failures, _ = doctest.testmod(mod)
    assert failures == 0
