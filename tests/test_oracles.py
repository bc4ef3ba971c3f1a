"""The oracles checked against a second, plainer form of themselves."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from oracles import bareiss_det, naive_det, rational_rank


def fraction_rank(rows, ncols):
    """Rank over Q by Gauss-Jordan elimination with Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    col = 0
    nrows = len(m)
    while rank < nrows and col < ncols:
        piv = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


def _rows(nrows, ncols, entries=st.integers(-4, 4)):
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)


@st.composite
def matrices(draw, square=False):
    """(ncols, rows) of a small integer matrix, at most 7 x 7, or n x n with
    n <= 6 when square; half of them are a product A B through an inner
    dimension of at most 3, so low ranks are common."""
    if square:
        nrows = ncols = draw(st.integers(0, 6))
    else:
        nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    if not draw(st.booleans()):
        return ncols, draw(_rows(nrows, ncols))
    inner = draw(st.integers(0, 3))
    a, b = draw(_rows(nrows, inner)), draw(_rows(inner, ncols))
    return ncols, [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] if b else [0] * ncols for row in a]


@given(matrices())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_fraction_free_rank_matches_the_fraction_rank(case):
    ncols, rows = case
    assert rational_rank(rows, ncols) == fraction_rank(rows, ncols)


@given(matrices(square=True))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_bareiss_det_matches_the_laplace_det(case):
    _, rows = case
    assert bareiss_det(rows) == naive_det(rows)
