import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bivariant.exactalg import (
    FgAbGroup,
    GroupHom,
    HomGroup,
    IntMatrix,
    ShapeMismatchError,
    WellDefinednessError,
    _nonzero_columns,
    direct_sum,
    hom_group,
    hom_preimage,
    image,
    induced_hom,
    is_surjective,
    kernel,
    kernel_image,
    lattice_kernel,
    lattice_solve,
    padded_diagonal,
    smith_decomposition,
)

from oracles import (
    bareiss_det,
    decoded_induced_hom,
    dense_decode,
    dense_encode,
    dense_lattice_kernel,
    dense_lattice_solve,
    dense_reduce,
    dense_transforms,
    determinantal_divisors,
    hom_count_cyclic,
    hom_difference_is_zero,
    injections,
    is_zero_hom,
    projections,
    random_well_defined_matrix,
    rational_rank,
)


Z = FgAbGroup.free(1)


HERE = Path(__file__).parent
SRC = HERE.parent / "src"
SNF_DIGESTS = HERE / "fixtures" / "snf_digests.json"
SNF_CORPUS = HERE / "fixtures" / "snf_corpus.json"


def snf_certificate(m: IntMatrix, diagonal, u: IntMatrix, v: IntMatrix, u_inv: IntMatrix) -> list:
    """Assert, for dense transforms, that u @ m @ v is the rows x cols matrix
    with diagonal on its diagonal and 0 elsewhere, that u @ u_inv == I, that
    det v is +-1 (so v is unimodular) and that the diagonal is a
    divisibility chain of entries >= 0; return the diagonal."""
    diag = list(diagonal)
    assert len(diag) == min(m.rows, m.cols)
    d = [[diag[i] if i == j else 0 for j in range(m.cols)] for i in range(m.rows)]
    assert (u @ m @ v) == IntMatrix(m.rows, m.cols, tuple(map(tuple, d)))
    assert (u @ u_inv).is_identity()
    assert v.rows == v.cols and abs(bareiss_det(v.entries)) == 1
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return diag


def check_snf(m: IntMatrix):
    s = smith_decomposition(m)
    diag = snf_certificate(m, s.diagonal, *dense_transforms(s))  # u and v are unimodular
    assert diag == determinantal_divisors(m.entries, m.cols)
    return s.diagonal


# Records every distinct (input, output) pair of smith_decomposition during
# one named run.  It runs in a fresh process, so no Smith form cached by an
# earlier test (in the memo or on a long-lived group) hides a call.  A change
# to the engine changes which matrices a run hands to SNF, not what SNF
# returns for a matrix, so the digests pin the outputs on a fixed corpus:
# the inputs each run handed to SNF when the corpus was recorded.
_RECORD_SNF = """
import json, sys
from bivariant import exactalg
from oracles import dense_transforms
from bivariant.cooperational import transfer_subgroup
from bivariant.workbench import build_subsets_instance, demo_checks

RUNS = {
    "demo-subsets-2": lambda: list(demo_checks(2)),
    "demo-subsets-3": lambda: list(demo_checks(3)),
    "transfer-subsets-3": lambda: transfer_subgroup(
        build_subsets_instance(3).transformations["T"], "01>012", 0
    ),
}
seen = set()
solve = exactalg.smith_decomposition


def recorded(m):
    s = solve(m)
    seen.add((m, s))
    return s


exactalg.smith_decomposition = recorded
RUNS[sys.argv[1]]()


def mat(x):
    return [x.rows, x.cols, x.entries]


pairs = [[mat(m), [s.diagonal, *map(mat, dense_transforms(s))]] for m, s in seen]
print(json.dumps(sorted(json.dumps(p) for p in pairs)))
"""

# Certified in tier-1 and pinned through the corpus; "demo-subsets-3" (about
# 8 s) is for checks by hand.
SNF_DIGEST_RUNS = ("demo-subsets-2", "transfer-subsets-3")


def snf_records(run: str) -> list:
    """The sorted JSON lines of the distinct Smith forms one run computes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(HERE), env.get("PYTHONPATH", "")))
    out = subprocess.run(
        [sys.executable, "-c", _RECORD_SNF, run], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(out.stdout)


def corpus_records(run: str) -> list:
    """The sorted JSON lines, as snf_records prints them, of smith_decomposition
    on the corpus matrices that the run handed to SNF when it was recorded."""
    corpus = json.loads(SNF_CORPUS.read_text())

    def doc(m: IntMatrix) -> list:
        return [m.rows, m.cols, m.entries]

    records = []
    for k in corpus["runs"][run]:
        m = _matrix(corpus["matrices"][k])
        s = smith_decomposition(m)
        records.append(json.dumps([doc(m), [s.diagonal, *map(doc, dense_transforms(s))]]))
    return sorted(records)


def snf_digest(records: list) -> dict:
    return {"pairs": len(records), "sha256": hashlib.sha256("\n".join(records).encode()).hexdigest()}


def snf_digests() -> dict:
    return {run: snf_digest(corpus_records(run)) for run in SNF_DIGEST_RUNS}


def _matrix(doc) -> IntMatrix:
    rows, cols, entries = doc
    return IntMatrix(rows, cols, tuple(tuple(r) for r in entries))


class TestSmithNormalForm:
    def test_identity(self):
        s = smith_decomposition(IntMatrix.identity(2))
        u, v, _ = dense_transforms(s)
        assert s.diagonal == (1, 1) and u.is_identity() and v.is_identity()

    def test_frozen_example(self):
        # d1 = gcd of all entries = 2; d1*d2 = |det| = |16 - 24| = 8
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        s = smith_decomposition(m)
        u, v, _ = dense_transforms(s)
        assert s.diagonal == (2, 4)
        assert (u @ m @ v) == IntMatrix.from_rows([[2, 0], [0, 4]])

    def test_zero(self):
        s = smith_decomposition(IntMatrix.zeros(2, 3))
        u, v, _ = dense_transforms(s)
        assert s.diagonal == (0, 0) and u.is_identity() and v.is_identity()

    def test_deterministic(self):
        m = IntMatrix.from_rows([[3, -1, 4], [1, 5, -9], [2, 6, 5]])
        assert smith_decomposition(m) == smith_decomposition(
            IntMatrix.from_rows([[3, -1, 4], [1, 5, -9], [2, 6, 5]])
        )

    def test_tracked_inverses(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        u, v, u_inv = dense_transforms(smith_decomposition(m))
        assert (u @ u_inv).is_identity() and (u_inv @ u).is_identity()
        assert abs(bareiss_det(v.entries)) == 1  # v's inverse is not tracked

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

    @given(st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_sparse_matrices(self, data):
        rows = data.draw(st.integers(1, 8))
        cols = data.draw(st.integers(1, 8))
        cells = data.draw(
            st.dictionaries(
                st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                st.sampled_from((1, -1, 2, -2, 3, -3)),
                max_size=rows * cols // 10,
            )
        )
        m = IntMatrix.from_rows([[cells.get((i, j), 0) for j in range(cols)] for i in range(rows)])
        check_snf(m)

    @pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
    def test_empty_shapes(self, rows, cols):
        m = IntMatrix.zeros(rows, cols)
        check_snf(m)
        s = smith_decomposition(m)
        u, v, u_inv = dense_transforms(s)
        assert u == u_inv == IntMatrix.identity(rows)
        assert v == IntMatrix.identity(cols)
        assert s.diagonal == ()


class TestSnfIdentity:
    """Every Smith form on a run's corpus matrices is bit for bit the recorded
    one, and every Smith form a live run computes is certified."""

    @pytest.mark.parametrize("run", SNF_DIGEST_RUNS)
    def test_outputs_match_recorded_digest(self, run):
        assert snf_digest(corpus_records(run)) == json.loads(SNF_DIGESTS.read_text())[run]
        for rec in snf_records(run):
            m, (diagonal, *transforms) = json.loads(rec)
            snf_certificate(_matrix(m), diagonal, *map(_matrix, transforms))


class TestLattice:
    def test_solve_and_membership(self):
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert lattice_solve(a, (4, 6)) is not None
        assert lattice_solve(a, (1, 0)) is None
        x = lattice_solve(a, (4, -3))
        assert a.apply(x) == (4, -3)

    def test_kernel(self):
        a = IntMatrix.from_rows([[1, 2, 3]])
        k = lattice_kernel(a)
        assert k.cols == 2
        for column in k.columns():
            assert a.apply(column) == (0,)


# lattice_solve and lattice_kernel read the Smith diagonal padded to the
# number of rows or columns: shapes with no rows or columns, taller or wider
# than square, or of lower rank than either side
LATTICE_SHAPES = {
    "0-row": IntMatrix(0, 3, ()),
    "0-column": IntMatrix(3, 0, ((),) * 3),
    "0x0": IntMatrix(0, 0, ()),
    "tall": IntMatrix.from_rows([[2, 0], [0, 4], [2, 4], [0, 0]]),
    "wide": IntMatrix.from_rows([[2, 4, 6, 0], [0, 2, 0, 4]]),
    "square-rank-1": IntMatrix.from_rows([[1, 2, 3], [2, 4, 6], [-1, -2, -3]]),
    "wide-rank-1": IntMatrix.from_rows([[2, 4, 6], [3, 6, 9]]),
    "tall-rank-1": IntMatrix.from_rows([[3, -6], [0, 0], [6, -12]]),
    "zero": IntMatrix.zeros(2, 3),
}


def outside_lattice(a: IntMatrix):
    """The unit vectors that are not a @ x for any integer x, by oracles that
    do not use the Smith form: e_i is outside when it raises the rational
    rank of a, or when every entry of a has a common factor > 1."""
    common = 0
    for row in a.entries:
        for x in row:
            common = gcd(common, x)
    rank = rational_rank(a.entries, a.cols)
    for i in range(a.rows):
        unit = tuple(int(r == i) for r in range(a.rows))
        widened = [row + (e,) for row, e in zip(a.entries, unit)]
        if common != 1 or rational_rank(widened, a.cols + 1) > rank:
            yield unit


def assert_lattice_solves(a: IntMatrix, rng: random.Random):
    for _ in range(5):
        b = a.apply([rng.randint(-5, 5) for _ in range(a.cols)])
        x = lattice_solve(a, b)
        assert x is not None and a.apply(x) == b
    outside = list(outside_lattice(a))
    for b in outside:
        assert lattice_solve(a, b) is None
    k = lattice_kernel(a)
    assert k.rows == a.cols
    assert k.cols == a.cols - rational_rank(a.entries, a.cols)
    for column in k.columns():
        assert a.apply(column) == (0,) * a.rows
    # all-1 divisors: the columns span a saturated lattice, so all of the kernel
    assert determinantal_divisors(k.entries, k.cols) == [1] * k.cols
    return outside


class TestLatticeEdgeShapes:
    @pytest.mark.parametrize("name", LATTICE_SHAPES)
    def test_named_shapes(self, name):
        a = LATTICE_SHAPES[name]
        outside = assert_lattice_solves(a, random.Random(name))
        assert bool(outside) == (a.rows > 0)  # every shape with rows has a miss

    @given(st.data())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_random_shapes(self, data):
        """Products A B through a small inner dimension, scaled by 1 to 3,
        so that low rank and a lattice smaller than the column space are
        common; either side may be 0."""
        rows, cols, inner = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5)), data.draw(st.integers(0, 4))
        entries = st.integers(-3, 3)
        left = data.draw(st.lists(st.lists(entries, min_size=inner, max_size=inner), min_size=rows, max_size=rows))
        right = data.draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=inner, max_size=inner))
        k = data.draw(st.integers(1, 3))
        product = IntMatrix(rows, inner, tuple(map(tuple, left))) @ IntMatrix(inner, cols, tuple(map(tuple, right)))
        assert_lattice_solves(product.scaled(k), random.Random(data.draw(st.integers(0, 2**16))))


def corpus_matrices() -> list:
    """Every matrix of snf_corpus.json."""
    return [_matrix(m) for m in json.loads(SNF_CORPUS.read_text())["matrices"]]


def solve_targets(a: IntMatrix, rng: random.Random):
    """Right-hand sides for lattice_solve: images a @ x, which it solves,
    and unit and random vectors, which it may or may not."""
    for _ in range(3):
        yield a.apply([rng.randint(-4, 4) for _ in range(a.cols)])
    for i in rng.sample(range(a.rows), min(a.rows, 3)):
        yield tuple(int(r == i) for r in range(a.rows))
    yield tuple(rng.randint(-6, 6) for _ in range(a.rows))


class TestSparseReadersMatchDense:
    """lattice_solve, lattice_kernel and reduce, which walk the sparse Smith
    transforms, equal entry for entry their dense references in oracles on
    every corpus matrix and every edge shape."""

    @staticmethod
    def assert_matches_dense(a: IntMatrix, rng: random.Random):
        assert lattice_kernel(a) == dense_lattice_kernel(a)
        solved = 0
        for b in solve_targets(a, rng):
            x = lattice_solve(a, b)
            assert x == dense_lattice_solve(a, b), b
            solved += x is not None
        assert solved >= 3
        g = FgAbGroup(a.rows, a)
        vectors = [tuple(rng.choice((0, 0, 0, 1, -1, 3, -5)) for _ in range(a.rows)) for _ in range(4)]
        for x in vectors:
            assert g.reduce(x) == dense_reduce(g, x), x

    def test_corpus(self):
        rng = random.Random(17)
        matrices = corpus_matrices()
        assert len(matrices) == 105
        for a in matrices:
            self.assert_matches_dense(a, rng)
        # the corpus meets the general reduce path and free columns of v
        assert any(FgAbGroup(a.rows, a)._reduction[0] == "general" for a in matrices)
        assert any(lattice_kernel(a).cols for a in matrices)

    @pytest.mark.parametrize("name", LATTICE_SHAPES)
    def test_edge_shapes(self, name):
        self.assert_matches_dense(LATTICE_SHAPES[name], random.Random(name))


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


def _general(ngens, *relation_columns):
    g = FgAbGroup(ngens, IntMatrix.from_columns(relation_columns, ngens))
    assert g._reduction[0] == "general"
    return g


# general-path groups whose relation matrices are not square, or square and
# rank-deficient, so that the Smith diagonal is padded or has zeros
GENERAL_SHAPES = {
    "tall": _general(3, (2, 3, 0)),
    "wide": _general(2, (2, 1), (3, 0), (4, 5)),
    "square-rank-1": _general(2, (2, 3), (4, 6)),
    "square-rank-2": _general(3, (1, 2, 0), (2, 1, 3), (3, 3, 3)),
    "tall-rank-1": _general(4, (0, 2, 4, 6), (0, -3, -6, -9)),
}


def sparse_vectors(n):
    """The zero vector, every unit vector and its negative and multiples,
    and every vector with two nonzero coordinates from a small set."""
    yield (0,) * n
    for i in range(n):
        for k in (1, -1, 2, 5, -7, 12):
            yield tuple(k if j == i else 0 for j in range(n))
    for i, j in itertools.combinations(range(n), 2):
        for a, b in ((1, 1), (1, -1), (3, -2), (-4, 9)):
            yield tuple(a if t == i else b if t == j else 0 for t in range(n))


def assert_reduces_as_dense(g, vectors):
    for x in vectors:
        assert g.reduce(x) == dense_reduce(g, x), x


class TestReducePaths:
    """reduce equals the dense u_inv (u x mod d) on each of its three paths."""

    @pytest.mark.parametrize("shape", sorted(GENERAL_SHAPES))
    def test_sparse_inputs_on_general_shapes(self, shape):
        g = GENERAL_SHAPES[shape]
        assert_reduces_as_dense(g, sparse_vectors(g.ngens))

    def test_matches_dense_formula(self):
        rng = random.Random(6)
        cases = [(FgAbGroup.free(k), "free") for k in range(4)]
        cases += [(FgAbGroup.from_invariants(0, t), "diagonal") for t in ((2,), (2, 4), (3, 6, 12))]
        for _ in range(12):
            n, r = rng.randint(1, 6), rng.randint(1, 6)
            rel = IntMatrix.from_rows([[rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(r)] for _ in range(n)])
            cases.append((FgAbGroup(n, rel), None))
        for _ in range(12):
            # an n x k times k x r product has rank at most k
            n, r = rng.randint(1, 6), rng.randint(1, 7)
            k = rng.randint(1, min(n, r))
            left = IntMatrix.from_rows([[rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(k)] for _ in range(n)])
            right = IntMatrix.from_rows([[rng.choice((0, 0, 1, -1, 2)) for _ in range(r)] for _ in range(k)])
            cases.append((FgAbGroup(n, left @ right), None))
        seen = set()
        for g, path in cases:
            u = dense_transforms(smith_decomposition(g.relations))[0]
            taken = g._reduction[0]
            assert taken == path or path is None
            assert (taken == "general") == (g.relations.cols > 0 and not u.is_identity())
            seen.add(taken)
            dense = [[rng.randint(-30, 30) for _ in range(g.ngens)] for _ in range(20)]
            assert_reduces_as_dense(g, itertools.chain(sparse_vectors(g.ngens), dense))
        assert seen == {"free", "diagonal", "general"}
        general = [g for g, _ in cases if g._reduction[0] == "general"]
        assert any(g.ngens != g.relations.cols for g in general)
        assert any(padded_diagonal(g._smith, g.ngens).count(0) > max(0, g.ngens - g.relations.cols) for g in general)


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


def invariants(draw):
    """(free rank, torsion) with torsion in any order, so that the Smith
    transforms of from_invariants(*invariants) are often not the identity."""
    return draw(st.integers(0, 2)), tuple(draw(st.lists(st.sampled_from([2, 3, 4, 6]), max_size=2)))


def random_hom(rng, src_inv, tgt_inv):
    src, tgt = FgAbGroup.from_invariants(*src_inv), FgAbGroup.from_invariants(*tgt_inv)
    rows = random_well_defined_matrix(rng, src_inv, tgt_inv)
    return GroupHom(src, tgt, IntMatrix(tgt.ngens, src.ngens, tuple(map(tuple, rows))))


class TestInducedHom:
    """induced_hom's closed form gives, entry for entry, the map built by
    decoding each generator, composing it and encoding it back."""

    @given(st.data())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_matches_decoded_generators(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        a, b = invariants(data.draw), invariants(data.draw)
        pre = random_hom(rng, invariants(data.draw), a) if data.draw(st.booleans()) else None
        post = random_hom(rng, b, invariants(data.draw)) if data.draw(st.booleans()) else None
        a_grp, b_grp = FgAbGroup.from_invariants(*a), FgAbGroup.from_invariants(*b)
        c_grp = a_grp if pre is None else pre.src
        d_grp = b_grp if post is None else post.tgt
        source, target = hom_group(a_grp, b_grp), hom_group(c_grp, d_grp)
        ours = induced_hom(source, target, pre, post)
        assert (ours.src, ours.tgt) == (source.group, target.group)
        assert ours.mat == decoded_induced_hom(source, target, pre, post).mat

    def test_groups_that_do_not_meet_raise(self):
        # a pre or post that does not meet Hom(Z, Z/4), and results that do
        # not land in the target codec
        z4 = FgAbGroup.from_invariants(0, (4,))
        source = hom_group(Z, z4)
        with pytest.raises(ShapeMismatchError):
            induced_hom(source, source, pre=GroupHom.identity(z4))
        with pytest.raises(ShapeMismatchError):
            induced_hom(source, source, post=GroupHom.identity(Z))
        with pytest.raises(ShapeMismatchError):
            induced_hom(source, hom_group(Z, Z))
        with pytest.raises(ShapeMismatchError):
            induced_hom(source, hom_group(z4, z4), post=GroupHom(z4, z4, IntMatrix.from_rows([[2]])))

    def test_decodes_and_encodes_no_hom(self, monkeypatch):
        calls = []
        for name in ("decode", "encode"):

            def counting(*args, original=getattr(HomGroup, name), name=name):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(HomGroup, name, counting)
        z2, z_z6 = FgAbGroup.from_invariants(0, (2,)), FgAbGroup.from_invariants(1, (6,))
        pre = GroupHom(z_z6, Z, IntMatrix.from_rows([[3, 0]]))
        post = GroupHom(z2, z_z6, IntMatrix.from_rows([[0], [3]]))
        source, target = hom_group(Z, z2), hom_group(z_z6, z_z6)
        assert source.group.ngens and target.group.ngens
        ours = induced_hom(source, target, pre, post)
        assert calls == []
        assert ours.mat == decoded_induced_hom(source, target, pre, post).mat


def codec_group(draw):
    """A group drawn as TestInducedHom draws one, or a group presented off
    its canonical basis (a general reduce path)."""
    if draw(st.booleans()):
        return FgAbGroup.from_invariants(*invariants(draw))
    return draw(st.sampled_from(ALL_EQUALITY_GROUPS + list(GENERAL_SHAPES.values())))


class TestCodecClosedForm:
    """decode and encode give, integer for integer, the dense triple
    products u_inv_tgt (summand matrix) u_src and u_tgt (hom matrix) u_inv_src."""

    def test_matches_dense_products(self):
        transforms = set()  # (src u is identity, tgt u is identity)

        @given(st.data())
        @settings(max_examples=200, deadline=None, derandomize=True)
        def check(data):
            src, tgt = codec_group(data.draw), codec_group(data.draw)
            hg = hom_group(src, tgt)
            coords = st.lists(st.integers(-9, 9), min_size=hg.group.ngens, max_size=hg.group.ngens)
            x = data.draw(coords)
            decoded = hg.decode(x)
            assert decoded.mat.entries == dense_decode(hg, x).entries
            # a decoded hom's matrix moved by relations of tgt in every
            # column: the same hom, off the image of decode
            shift = [
                [sum(k * a for k, a in zip(ks, row)) for row in tgt.relations.entries]
                for ks in data.draw(
                    st.lists(
                        st.lists(st.integers(-3, 3), min_size=tgt.relations.cols, max_size=tgt.relations.cols),
                        min_size=src.ngens,
                        max_size=src.ngens,
                    )
                )
            ]
            moved = hg.decode(data.draw(coords)).mat + IntMatrix.from_columns(shift, tgt.ngens)
            for h in (decoded, GroupHom(src, tgt, moved)):
                assert hg.encode(h).coords == dense_encode(hg, h)
            transforms.add(tuple(dense_transforms(g._smith)[0].is_identity() for g in (src, tgt)))

        check()
        assert transforms == {(False, False), (False, True), (True, False), (True, True)}

    def test_decode_and_encode_multiply_no_matrices(self, monkeypatch):
        src, tgt = FgAbGroup.from_invariants(1, (6, 4)), _general(3, (1, 2, 0), (2, 1, 3), (3, 3, 3))
        hg = hom_group(src, tgt)
        x = [k + 1 for k in range(hg.group.ngens)]
        expected = dense_decode(hg, x)
        assert not any(dense_transforms(g._smith)[0].is_identity() for g in (src, tgt))
        calls = []

        def counting(*args, original=IntMatrix.__matmul__):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(IntMatrix, "__matmul__", counting)
        h = hg.decode(x)
        assert hg.encode(h) == hg.group.element(x)
        assert calls == []
        assert h.mat == expected


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
        assert is_zero_hom(one + (-one))

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


def _presented(ngens, *relation_columns):
    return FgAbGroup(ngens, IntMatrix.from_columns(relation_columns, ngens))


# groups on each of the three reduce paths, with the same invariants
# presented in different ways
EQUALITY_GROUPS = {
    "free": [FgAbGroup.free(1), FgAbGroup.free(2)],
    "diagonal": [
        FgAbGroup.from_invariants(0, (2,)),
        FgAbGroup.from_invariants(0, (2, 4)),
        _presented(2, (3, 0)),
    ],
    "general": [
        FgAbGroup.from_invariants(1, (3,)),
        _presented(2, (2, 2)),
        _presented(2, (2, 4), (0, 6)),
        _presented(3, (1, 2, 3), (0, 4, 2)),
    ],
}
ALL_EQUALITY_GROUPS = [g for groups in EQUALITY_GROUPS.values() for g in groups]


class TestHomEquality:
    """== and .equals compare column by column; the reference builds a - b."""

    @pytest.mark.parametrize("path", sorted(EQUALITY_GROUPS))
    def test_groups_cover_every_reduce_path(self, path):
        assert all(g._reduction[0] == path for g in EQUALITY_GROUPS[path])

    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_agrees_with_the_difference_hom(self, data):
        src = data.draw(st.sampled_from(ALL_EQUALITY_GROUPS))
        tgt = data.draw(st.sampled_from(ALL_EQUALITY_GROUPS))
        hg = hom_group(src, tgt)
        coords = st.lists(st.integers(-6, 6), min_size=hg.group.ngens, max_size=hg.group.ngens)
        a = hg.decode(data.draw(coords))
        if data.draw(st.booleans()):
            b = hg.decode(data.draw(coords))
        else:
            b = a
        # move b by relations of tgt in every column: the same hom, another matrix
        shift = [
            [sum(k * tgt.relations.entries[i][r] for r, k in enumerate(ks)) for i in range(tgt.ngens)]
            for ks in data.draw(
                st.lists(
                    st.lists(st.integers(-3, 3), min_size=tgt.relations.cols, max_size=tgt.relations.cols),
                    min_size=src.ngens,
                    max_size=src.ngens,
                )
            )
        ]
        b = GroupHom(src, tgt, b.mat + IntMatrix.from_columns(shift, tgt.ngens))
        expected = hom_difference_is_zero(a, b)
        assert (a == b) is expected
        assert a.equals(b) is expected
        assert (b == a) is expected

    def test_different_groups(self):
        z2 = FgAbGroup.from_invariants(0, (2,))
        assert GroupHom.zero(Z, z2) != GroupHom.zero(z2, z2)


def naive_image_reduces_to_zero(tgt, rows, column):
    img = [sum(a * x for a, x in zip(row, column)) for row in rows]
    return not any(dense_reduce(tgt, img))


def assert_rejects_exactly_the_ill_defined(sources):
    """GroupHom raises WellDefinednessError exactly when the image of some
    relation column does not reduce to zero, for homs from these sources
    into general-path targets: a decoded well-defined matrix with up to two
    entries moved off it.  Both outcomes must occur."""
    targets = EQUALITY_GROUPS["general"] + list(GENERAL_SHAPES.values())
    outcomes = set()

    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def check(data):
        src, tgt = data.draw(st.sampled_from(sources)), data.draw(st.sampled_from(targets))
        hg = hom_group(src, tgt)
        coords = data.draw(st.lists(st.integers(-4, 4), min_size=hg.group.ngens, max_size=hg.group.ngens))
        rows = [list(r) for r in hg.decode(coords).mat.entries]
        # a well-defined matrix, then up to two entries moved off it
        bumps = st.tuples(st.integers(0, tgt.ngens - 1), st.integers(0, src.ngens - 1), st.integers(-3, 3))
        for i, j, k in data.draw(st.lists(bumps, max_size=2)):
            rows[i][j] += k
        mat = IntMatrix.from_rows(rows)
        relations = src.relations.entries
        well_defined = all(
            naive_image_reduces_to_zero(tgt, rows, [r[j] for r in relations]) for j in range(src.relations.cols)
        )
        if well_defined:
            assert GroupHom(src, tgt, mat).mat == mat
        else:
            with pytest.raises(WellDefinednessError):
                GroupHom(src, tgt, mat)
        outcomes.add(well_defined)

    check()
    assert outcomes == {True, False}


# sources whose relation columns have several nonzero entries, or none
SPARSE_RELATION_SOURCES = {
    "dense-pair": _presented(2, (2, 2)),
    "three-nonzeros": _presented(3, (2, -4, 6), (0, 3, 3)),
    "zero-then-sparse": _presented(3, (0, 0, 0), (1, 2, 0), (0, 0, 0), (4, 0, -2)),
    "all-zero": _presented(2, (0, 0), (0, 0)),
}


class TestHomCheck:
    """GroupHom raises WellDefinednessError exactly when the image of some
    relation column of the source does not reduce to zero in the target."""

    def test_rejects_exactly_the_ill_defined_matrices(self):
        assert_rejects_exactly_the_ill_defined(ALL_EQUALITY_GROUPS + list(GENERAL_SHAPES.values()))

    def test_sources_with_sparse_relation_columns(self):
        assert_rejects_exactly_the_ill_defined(list(SPARSE_RELATION_SOURCES.values()))

    def test_checks_the_last_relation_column(self):
        src = _presented(2, (2, 0), (0, 3))  # Z/2 + Z/3
        tgt = FgAbGroup.from_invariants(0, (6,))
        GroupHom(src, tgt, IntMatrix.from_rows([[3, 2]]))
        with pytest.raises(WellDefinednessError, match="relation column 1"):
            GroupHom(src, tgt, IntMatrix.from_rows([[3, 1]]))

    def test_checks_every_entry_of_a_relation_column(self):
        # (2, 2) maps to 0 under [1, -1], to 2 under [0, 1]: only the
        # column's last nonzero entry sees the second
        src = SPARSE_RELATION_SOURCES["dense-pair"]
        GroupHom(src, Z, IntMatrix.from_rows([[1, -1]]))
        with pytest.raises(WellDefinednessError, match="relation column 0"):
            GroupHom(src, Z, IntMatrix.from_rows([[0, 1]]))
        src = SPARSE_RELATION_SOURCES["three-nonzeros"]
        GroupHom(src, Z, IntMatrix.from_rows([[5, 1, -1]]))
        with pytest.raises(WellDefinednessError, match="relation column 0"):
            GroupHom(src, Z, IntMatrix.from_rows([[0, 0, 1]]))

    def test_all_zero_relation_columns(self):
        # zero columns impose nothing and do not shift the reported index
        z2 = FgAbGroup.from_invariants(0, (2,))
        GroupHom(SPARSE_RELATION_SOURCES["all-zero"], Z, IntMatrix.from_rows([[5, -7]]))
        src = SPARSE_RELATION_SOURCES["zero-then-sparse"]
        assert [len(pairs) for pairs in src._relation_columns] == [0, 2, 0, 2]
        GroupHom(src, z2, IntMatrix.from_rows([[0, 0, 1]]))
        with pytest.raises(WellDefinednessError, match="relation column 1"):
            GroupHom(src, z2, IntMatrix.from_rows([[1, 0, 0]]))
        with pytest.raises(WellDefinednessError, match="relation column 3"):
            GroupHom(src, Z, IntMatrix.from_rows([[0, 0, 1]]))


NON_INTEGRAL = [2.7, 2.0, Fraction(5, 2), Fraction(4, 2)]


class TestIntegralInputs:
    """Coordinates and matrix entries must be integers: a float or a Fraction
    raises TypeError, even when its value is whole, instead of being
    truncated.  int and bool are accepted."""

    @pytest.mark.parametrize("bad", NON_INTEGRAL, ids=repr)
    @pytest.mark.parametrize(
        "group",
        [FgAbGroup.free(2), FgAbGroup.from_invariants(0, (2, 4)), FgAbGroup.from_invariants(1, (2,))],
        ids=["free", "diagonal", "general"],
    )
    def test_reduce_and_element(self, group, bad):
        with pytest.raises(TypeError):
            group.reduce((bad, 1))
        with pytest.raises(TypeError):
            group.element((1, bad))

    def test_element_does_not_truncate(self):
        g = FgAbGroup.from_invariants(1, (2,))
        with pytest.raises(TypeError):
            g.element((2.7, 1.9))
        assert g.element((True, 3)).coords == g.element((1, 1)).coords == g.reduce((1, 1))
        assert [type(x) for x in FgAbGroup.free(2).reduce((True, False))] == [int, int]

    @pytest.mark.parametrize("bad", NON_INTEGRAL, ids=repr)
    def test_hom_group_decode(self, bad):
        hg = hom_group(FgAbGroup.free(1), FgAbGroup.from_invariants(0, (4,)))
        with pytest.raises(TypeError):
            hg.decode((bad,))
        assert hg.decode((True,)).equals(hg.decode((1,)))

    @pytest.mark.parametrize("bad", NON_INTEGRAL, ids=repr)
    def test_lattice_solve(self, bad):
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        with pytest.raises(TypeError):
            lattice_solve(a, (bad, 3))
        assert lattice_solve(a, (False, 3)) == (0, 1)

    @pytest.mark.parametrize("bad", NON_INTEGRAL, ids=repr)
    def test_matrix_constructors(self, bad):
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[1, bad]])
        with pytest.raises(TypeError):
            IntMatrix.from_columns([(1, bad)], 2)
        with pytest.raises(TypeError):
            FgAbGroup.from_invariants(0, (bad,))
        assert IntMatrix.from_rows([[True, 2]]) == IntMatrix.from_columns([(1,), (2,)], 1)


class TestColumnWalk:
    """IntMatrix.columns, from_columns and _nonzero_columns transpose by one
    zip, and must keep both dimensions when one of them is 0."""

    def test_no_columns(self):
        m = IntMatrix.from_columns([], 3)
        assert (m.rows, m.cols, m.entries) == (3, 0, ((), (), ()))
        assert m.columns() == () and _nonzero_columns(m) == ()

    def test_no_rows(self):
        m = IntMatrix.from_columns([(), ()], 0)
        assert (m.rows, m.cols, m.entries) == (0, 2, ())
        assert m.columns() == ((), ()) == _nonzero_columns(m)
        assert IntMatrix.zeros(0, 0).columns() == ()

    def test_bad_columns(self):
        with pytest.raises(ShapeMismatchError):
            IntMatrix.from_columns([(1, 2), (3,)], 2)
        with pytest.raises(ShapeMismatchError):
            IntMatrix.from_columns([(1, 2)], 3)
        with pytest.raises(TypeError):
            IntMatrix.from_columns([(1, 2), (3, 4.0)], 2)

    def test_nonzero_columns(self):
        assert _nonzero_columns(IntMatrix.zeros(2, 3)) == ((), (), ())
        m = IntMatrix.from_rows([[0, 2, 0], [0, 0, -1], [0, 5, 7]])
        assert _nonzero_columns(m) == ((), ((0, 2), (2, 5)), ((1, -1), (2, 7)))

    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_round_trip(self, rows, cols, data):
        entries = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=rows, max_size=rows))
        m = IntMatrix(rows, cols, tuple(map(tuple, entries)))
        assert m.columns() == tuple(tuple(row[j] for row in m.entries) for j in range(cols))
        assert IntMatrix.from_columns(m.columns(), rows) == m

    @pytest.mark.parametrize(
        "group, path",
        [
            (FgAbGroup.zero(), "free"),
            (FgAbGroup.free(3), "free"),
            (FgAbGroup.from_invariants(0, (2, 4)), "diagonal"),
            (FgAbGroup.from_invariants(1, (2, 4)), "general"),
            *((g, "general") for g in GENERAL_SHAPES.values()),
        ],
        ids=["zero", "free", "diagonal", "general", *GENERAL_SHAPES],
    )
    def test_gens_are_the_reduced_unit_vectors(self, group, path):
        assert group._reduction[0] == path
        units = [tuple(int(i == j) for j in range(group.ngens)) for i in range(group.ngens)]
        assert [x.coords for x in group.gens()] == [dense_reduce(group, e) for e in units]
        assert all(x.group is group for x in group.gens())

    def test_gens_are_built_once_and_returned_in_a_fresh_list(self):
        group = FgAbGroup.from_invariants(1, (2, 4))
        first = group.gens()
        assert type(first) is list
        kept = list(first)
        first.append(group.zero_element())
        first[0] = first[1]
        second = group.gens()
        assert second is not first and second == kept
        assert all(x is y for x, y in zip(second, kept))


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
        assert is_zero_hom(comp)
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
        quotient = FgAbGroup(src.ngens, src.relations.hstack(ker.inclusion.mat))
        assert im.group.canonical() == quotient.canonical()
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


def assert_halves_of_kernel_image(f: GroupHom):
    """kernel(f) and image(f) are entry for entry the halves of kernel_image(f)."""
    ker, im = kernel_image(f)
    for half, whole in ((kernel(f), ker), (image(f), im)):
        assert half.group.ngens == whole.group.ngens
        assert half.group.relations == whole.group.relations
        assert half.inclusion.mat == whole.inclusion.mat
        assert (half.inclusion.src, half.inclusion.tgt) == (half.group, whole.inclusion.tgt)


def quotient_map(a: IntMatrix) -> GroupHom:
    """Z^rows -> Z^rows / (columns of a), the identity on coordinates; its
    kernel is the column lattice of a.  Built afresh, with no Smith form."""
    return GroupHom(FgAbGroup.free(a.rows), FgAbGroup(a.rows, a), IntMatrix.identity(a.rows))


def smith_forms_computed(op, f: GroupHom) -> int:
    """The Smith forms op(f) computes from an empty memo, for an f whose
    groups hold no Smith form yet."""
    smith_decomposition.cache_clear()
    op(f)
    return smith_decomposition.cache_info().misses


class TestKernelImageSplit:
    """kernel and image build only their own half of kernel_image."""

    @pytest.mark.parametrize("name", LATTICE_SHAPES)
    def test_halves_on_edge_shapes(self, name):
        a = LATTICE_SHAPES[name]
        assert_halves_of_kernel_image(GroupHom(FgAbGroup.free(a.cols), FgAbGroup.free(a.rows), a))
        assert_halves_of_kernel_image(quotient_map(a))

    @given(st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_halves_on_random_homs(self, data):
        def invariants():
            return data.draw(st.integers(0, 2)), tuple(data.draw(st.lists(st.sampled_from((2, 3, 4, 6)), max_size=3)))

        src_inv, tgt_inv = invariants(), invariants()
        src, tgt = FgAbGroup.from_invariants(*src_inv), FgAbGroup.from_invariants(*tgt_inv)
        rows = random_well_defined_matrix(random.Random(data.draw(st.integers(0, 2**16))), src_inv, tgt_inv)
        assert_halves_of_kernel_image(GroupHom(src, tgt, IntMatrix(tgt.ngens, src.ngens, tuple(map(tuple, rows)))))

    @pytest.mark.parametrize("name", ["tall", "wide", "square-rank-1", "wide-rank-1", "tall-rank-1"])
    def test_each_half_computes_fewer_smith_forms(self, name):
        # image skips the kernel's second lattice kernel; kernel skips the
        # image's inclusion check, which reduces in the target, so it needs
        # the target's Smith form when the target has relations
        a = LATTICE_SHAPES[name]
        both = smith_forms_computed(kernel_image, quotient_map(a))
        assert smith_forms_computed(image, quotient_map(a)) < both
        assert smith_forms_computed(kernel, quotient_map(a)) < both


class TestDirectSumAndProjection:
    def test_direct_sum_structure(self):
        a, b = Z, FgAbGroup.from_invariants(0, (2,))
        ds = direct_sum([a, b])
        assert ds.group.canonical() == (1, (2,))
        inj, proj = injections(ds), projections(ds)
        x = inj[0](a.gens()[0]) + inj[1](b.gens()[0])
        assert proj[0](x) == a.gens()[0]
        assert proj[1](x) == b.gens()[0]

    def test_part_without_generators(self):
        ds = direct_sum([FgAbGroup.zero(), Z])
        assert ds.offsets == (0, 0)
        inj, proj = injections(ds), projections(ds)
        assert (inj[0].mat.rows, inj[0].mat.cols) == (1, 0)
        assert (proj[0].mat.rows, proj[0].mat.cols) == (0, 1)
        assert proj[1](inj[1](Z.gens()[0])) == Z.gens()[0]

    def test_project_subgroup(self):
        a, b = Z, Z
        ds = direct_sum([a, b])
        # diagonal subgroup {(n, n)} projects onto all of each factor
        diag = GroupHom(Z, ds.group, IntMatrix.from_rows([[1], [1]]))
        sub = image(diag)
        for idx in (0, 1):
            proj = image(projections(ds)[idx] @ sub.inclusion)
            assert proj.group.canonical() == (1, ())

    def test_project_kills_other_factor(self):
        a, b = Z, Z
        ds = direct_sum([a, b])
        first = image(injections(ds)[0])
        proj = image(projections(ds)[1] @ first.inclusion)
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

    failures, attempted = doctest.testmod(mod)
    assert attempted >= 1
    assert failures == 0


class TestMemoCaches:
    @pytest.mark.parametrize("cached", [smith_decomposition, hom_group])
    def test_bounded(self, cached):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and maxsize > 0

    def test_demo_working_set_is_not_evicted(self):
        from bivariant.workbench import demo_checks

        for cached in (smith_decomposition, hom_group):
            cached.cache_clear()
        for _ in demo_checks(2):
            pass
        for cached in (smith_decomposition, hom_group):
            info = cached.cache_info()
            assert info.currsize == info.misses < info.maxsize
