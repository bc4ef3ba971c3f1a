"""The bookkept Smith form against its full-rescan reference.

smith_decomposition caches each row's pivot key and gcd and lists the rows
that hold the pivot column, instead of rescanning the remaining block.  It
must take the same pivots and the same sequence of operations as the
rescan, so its diagonal and its u, v and u_inv equal smith_reference's
entry for entry, on random shapes and on the desk-scale inputs of the
subsets(4) transfer and image transfer.
"""

import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from bivariant import exactalg
from bivariant.cooperational import coop_image_transfer, transfer_subgroup
from bivariant.exactalg import IntMatrix
from bivariant.workbench import build_subsets_instance

from oracles import smith_reference
from smith_check import compare, dense_form, smith_inputs

SMALL = st.sampled_from((1, -1, 2, -2, 3, -3))
TORSION = st.sampled_from((0, 2, -2, 4, -4, 6, -6))


@st.composite
def dense(draw, rows, cols, entries):
    r, c = draw(rows), draw(cols)
    return IntMatrix(r, c, tuple(tuple(draw(entries) for _ in range(c)) for _ in range(r)))


@st.composite
def very_sparse(draw):
    r, c = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    cells = draw(st.dictionaries(st.tuples(st.integers(0, r - 1), st.integers(0, c - 1)), SMALL, max_size=r + c))
    return IntMatrix(r, c, tuple(tuple(cells.get((i, j), 0) for j in range(c)) for i in range(r)))


@st.composite
def permuted_blocks(draw):
    """Small blocks on the diagonal, their rows and columns then shuffled,
    like the independent blocks of the engine's constraint maps."""
    entries = draw(st.sampled_from((SMALL, TORSION, st.sampled_from((0, 0, 1, -1, 2)))))
    blocks = draw(st.lists(dense(st.integers(1, 4), st.integers(1, 4), entries), min_size=1, max_size=4))
    r, c = sum(b.rows for b in blocks), sum(b.cols for b in blocks)
    full = [[0] * c for _ in range(r)]
    i = j = 0
    for b in blocks:
        for di, row in enumerate(b.entries):
            full[i + di][j : j + b.cols] = row
        i, j = i + b.rows, j + b.cols
    rows, cols = draw(st.permutations(range(r))), draw(st.permutations(range(c)))
    return IntMatrix(r, c, tuple(tuple(full[a][b] for b in cols) for a in rows))


KINDS = {
    "tall": dense(st.integers(6, 12), st.integers(1, 5), st.sampled_from((0, 0, 1, -1, 2, -3))),
    "wide": dense(st.integers(1, 5), st.integers(6, 12), st.sampled_from((0, 0, 1, -1, 2, -3))),
    "very sparse": very_sparse(),
    "permuted blocks": permuted_blocks(),
    "torsion": dense(st.integers(1, 7), st.integers(1, 7), TORSION),
}


# Far more row additions than any correct elimination of these matrices (at
# most 16 x 16) makes: a few dozen.
ROW_ADD_BOUND = 1000


def library_form(m: IntMatrix) -> tuple:
    """The library's uncached Smith form of m, as dense_form gives it, and
    how many divisibility fix-ups it made: the row_add calls onto the pivot
    row from a row below it, the only row_add whose target row comes first.
    It fails past ROW_ADD_BOUND row additions, so an elimination that never
    ends fails the test instead of hanging it."""
    adds = fixups = 0

    def calls(frame, event, arg):
        nonlocal adds, fixups
        if frame.f_code.co_name == "row_add" and frame.f_code.co_filename == exactalg.__file__:
            adds += 1
            fixups += frame.f_locals["i"] < frame.f_locals["j"]
            assert adds <= ROW_ADD_BOUND, "the elimination does not end"

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        s = exactalg.smith_decomposition.__wrapped__(m)
    finally:
        sys.settrace(previous)
    return dense_form(s), fixups


@pytest.mark.parametrize("kind", KINDS)
def test_matches_the_reference_entry_for_entry(kind):
    taken = []

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(KINDS[kind])
    def check(m):
        form, fixups = library_form(m)
        assert form == dense_form(smith_reference(m))
        taken.append(fixups)

    check()
    if kind == "torsion":
        assert any(taken)  # a pivot above 1 takes the fix-up row_add


def test_fixup_count():
    # pivot 2 does not divide the 3 below it: one fix-up, then a unit pivot
    assert library_form(IntMatrix(2, 2, ((2, 0), (0, 3))))[1] == 1
    assert library_form(IntMatrix(2, 2, ((2, 0), (0, 4))))[1] == 0


def test_subsets_four_desk_scale_inputs_match_the_reference():
    start = time.perf_counter()
    four = build_subsets_instance(4)
    inputs = smith_inputs(lambda: transfer_subgroup(four.transformations["T"], "0123>0123", 0))
    inputs += smith_inputs(lambda: coop_image_transfer(four.groth["gamma"], "012>0123", 0, mode="full"))
    inputs = list(dict.fromkeys(inputs))
    bad, _, _ = compare(inputs)
    assert len(inputs) > 30 and max(m.rows for m in inputs) > 100
    assert bad == []
    assert time.perf_counter() - start < 3
