"""Exact integer linear algebra for finitely generated abelian groups.

Matrices are immutable tuples of Python ints, so arithmetic is exact at
arbitrary precision.  A group is a presentation Z^ngens modulo the column
lattice of an integer relations matrix.  A single primitive, the Smith
normal form, drives everything else: canonical forms, element reduction,
lattice membership, kernels, images and Hom groups.  It returns only what
those read: the diagonal as a tuple, the unimodular transforms U and V,
and U's inverse.  The matrices met here are sparse, so the Smith form
eliminates on sparse rows and columns and returns its transforms as it
holds them: the rows of U, the columns of V and of U's inverse, each over
its nonzero entries.  Every reader walks those vectors; no dense transform
is built.  lattice_kernel densifies only the columns of V that it returns.
kernel and image each build only their own half of kernel_image, which
builds both on one lattice kernel.  The hom kernels walk only nonzero
entries too: the well-definedness check scatters the image of each
relation column from its nonzero entries, and the Hom codec adds one outer
product of a sparse U^-1 column and U row per nonzero summand, with no
matrix product.  Columns of a dense matrix are read by one transpose
(IntMatrix.columns), never one index at a time.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache, cached_property
from math import gcd

from .record import Frozen, setfield


# Bounds of the two memo caches: about four and seven times the largest
# working set measured (261 Smith forms and 37 Hom groups for the whole
# n = 3 subsets demo), so a long process keeps a fixed memory ceiling.
SNF_CACHE_SIZE = 1024
HOM_GROUP_CACHE_SIZE = 256


class ShapeMismatchError(ValueError):
    """Operands have incompatible shapes or src/tgt groups."""


class WellDefinednessError(ValueError):
    """A matrix does not descend to a homomorphism of the presented groups."""


class MembershipError(ValueError):
    """An element does not lie in the requested subgroup or image."""


class InfiniteGroupError(ValueError):
    """Enumeration was requested for a group with a free part."""


# ---------------------------------------------------------------------------
# matrices


def _transposed(vectors, length: int) -> tuple:
    """The transpose of a sequence of tuples that all have length entries:
    length tuples, empty ones when there are no vectors."""
    return tuple(zip(*vectors)) if vectors else ((),) * length


class IntMatrix(Frozen):
    """Immutable integer matrix, entries stored row-major."""

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):
        if rows < 0 or cols < 0:
            raise ShapeMismatchError("negative dimensions")
        if len(entries) != rows or any(map(cols.__ne__, map(len, entries))):
            raise ShapeMismatchError("entry count does not match rows x cols")
        setfield(self, "rows", rows)
        setfield(self, "cols", cols)
        setfield(self, "entries", entries)  # tuple of row tuples

    # smith_decomposition's cache hashes every matrix it is given
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = tuple(tuple(map(operator.index, r)) for r in rows)
        ncols = len(rows[0]) if rows else 0
        return IntMatrix(len(rows), ncols, rows)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(
            n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def from_columns(cols, rows: int) -> "IntMatrix":
        cols = [tuple(map(operator.index, c)) for c in cols]
        if any(len(c) != rows for c in cols):
            raise ShapeMismatchError("column length mismatch")
        return IntMatrix(rows, len(cols), _transposed(cols, rows))

    def columns(self) -> tuple:
        """Every column as a tuple, by one transpose; a matrix with no rows
        has cols empty columns."""
        return _transposed(self.entries, self.cols)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        oc = other.cols
        out = []
        for i in range(self.rows):
            acc = [0] * oc
            for k, a in enumerate(self.entries[i]):
                if a:
                    rk = other.entries[k]
                    for j in range(oc):
                        b = rk[j]
                        if b:
                            acc[j] += a * b
            out.append(tuple(acc))
        return IntMatrix(self.rows, oc, tuple(out))

    def apply(self, vec) -> tuple:
        """Matrix times column vector, over the nonzero entries of vec."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise ShapeMismatchError("vector length mismatch")
        nonzero = [(k, x) for k, x in enumerate(vec) if x]
        return tuple(sum(row[k] * x for k, x in nonzero) for row in self.entries)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError("shape mismatch in addition")
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return self.scaled(-1)

    def scaled(self, k: int) -> "IntMatrix":
        return IntMatrix(
            self.rows, self.cols, tuple(tuple(k * a for a in r) for r in self.entries)
        )

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ShapeMismatchError("row count mismatch in hstack")
        return IntMatrix(
            self.rows,
            self.cols + other.cols,
            tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)),
        )

    def top_rows(self, n: int) -> "IntMatrix":
        return IntMatrix(n, self.cols, self.entries[:n])

    def is_identity(self) -> bool:
        return self.rows == self.cols and self.entries == _identity_rows(self.rows)

    def __str__(self):
        return "[" + "; ".join(" ".join(str(a) for a in r) for r in self.entries) + "]"


# ---------------------------------------------------------------------------
# Smith normal form


@lru_cache(maxsize=64)
def _identity_rows(n: int) -> tuple:
    """The entries of the n x n identity matrix."""
    return IntMatrix.identity(n).entries


class SmithDecomposition(Frozen):
    """u @ m @ v is the rows x cols matrix with diagonal on its diagonal and 0
    elsewhere, for unimodular u and v.  The diagonal has min(rows, cols)
    entries, all >= 0, each dividing the next; u_inv is the inverse of u.

    The transforms are sparse, in the form their readers walk: u is the
    tuple of its rows, v and u_inv the tuples of their columns.  Each vector
    is a tuple of (index, entry) pairs over its nonzero entries, in no fixed
    order."""

    _fields = ("diagonal", "u", "v", "u_inv")


def _axpy(dst: dict, src: dict, q: int) -> None:
    """dst += q * src on sparse vectors {index: nonzero entry}."""
    if not q:
        return
    for k, b in src.items():
        x = dst.get(k, 0) + q * b
        if x:
            dst[k] = x
        else:
            del dst[k]


def _scatter(vectors, coeffs, length: int) -> list:
    """The sum of coeffs[k] * vectors[k] over the nonzero coeffs, as a dense
    list of length entries, for sparse vectors of (index, entry) pairs."""
    out = [0] * length
    for x, vec in zip(coeffs, vectors):
        if x:
            for i, a in vec:
                out[i] += a * x
    return out


def _sparse_transpose(vectors, length: int) -> tuple:
    """The transpose of sparse vectors of (index, entry) pairs: length sparse
    vectors, each with its pairs in ascending index."""
    out = [[] for _ in range(length)]
    for i, vec in enumerate(vectors):
        for j, a in vec:
            out[j].append((i, a))
    return tuple(map(tuple, out))


def _row_times(row, mat: IntMatrix) -> list:
    """The sparse row vector times mat, as a dense list."""
    acc = [0] * mat.cols
    for k, a in row:
        acc = [x + a * b for x, b in zip(acc, mat.entries[k])]
    return acc


def _conjugated(u: tuple, mat: IntMatrix, u_inv: tuple) -> list:
    """The dense rows of u @ mat @ u_inv, from the sparse rows of u and the
    sparse columns of u_inv."""
    out = []
    for row in u:
        acc = _row_times(row, mat)
        out.append([sum(acc[r] * a for r, a in col) for col in u_inv])
    return out


@lru_cache(maxsize=SNF_CACHE_SIZE)
def smith_decomposition(m: IntMatrix) -> SmithDecomposition:
    """Deterministic Smith normal form: its diagonal, u, v and u's inverse.

    Pivot selection always takes the smallest nonzero absolute value in the
    remaining block, ties broken in row-major order, so the output is
    bit-identical across runs.  The elimination runs on sparse vectors
    {index: nonzero entry}: rows of D and U, columns of V and Ui.  At
    step t, the rows and columns of D before t hold only their diagonal
    entry, so column operations touch rows t onwards only.  When it ends D
    is diagonal, and only its diagonal is returned; U, V and Ui are
    returned as the sparse vectors the elimination holds (see
    SmithDecomposition).
    """
    R, C = m.rows, m.cols
    D = [{j: x for j, x in enumerate(r) if x} for r in m.entries]
    U = [{i: 1} for i in range(R)]
    Ui = [{i: 1} for i in range(R)]
    V = [{j: 1} for j in range(C)]

    def row_add(i, j, q):  # row_i += q * row_j
        _axpy(D[i], D[j], q)
        _axpy(U[i], U[j], q)
        _axpy(Ui[j], Ui[i], -q)

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        Ui[i], Ui[j] = Ui[j], Ui[i]

    def row_neg(i):
        for vecs in (D, U, Ui):
            vecs[i] = {k: -x for k, x in vecs[i].items()}

    def col_add(j, i, q):  # col_j += q * col_i
        for row in D[t:]:
            if i in row:
                _axpy(row, {j: row[i]}, q)
        _axpy(V[j], V[i], q)

    def col_swap(i, j):
        for row in D[t:]:
            a, b = row.pop(i, 0), row.pop(j, 0)
            if b:
                row[i] = b
            if a:
                row[j] = a
        V[i], V[j] = V[j], V[i]

    t = 0
    limit = min(R, C)
    while t < limit:
        best = min(((abs(x), i, j) for i in range(t, R) for j, x in D[i].items()), default=None)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        if D[t][t] < 0:
            row_neg(t)
        while True:
            p = D[t][t]
            k = next((i for i in range(t + 1, R) if t in D[i]), None)
            if k is not None:
                q = D[k][t] // p
                row_add(k, t, -q)
                if t in D[k]:
                    row_swap(t, k)  # remainder in (0, p) becomes new pivot
                continue
            k = min((j for j in D[t] if j != t), default=None)
            if k is not None:
                q = D[t][k] // p
                col_add(k, t, -q)
                if k in D[t]:
                    col_swap(t, k)
                continue
            if p == 1:  # divides every entry
                break
            bad = next((i for i in range(t + 1, R) if any(x % p for x in D[i].values())), None)
            if bad is None:
                break
            row_add(t, bad, 1)
        t += 1

    return SmithDecomposition(
        tuple(D[i].get(i, 0) for i in range(limit)),
        *(tuple(tuple(vec.items()) for vec in vecs) for vecs in (U, V, Ui)),
    )


def padded_diagonal(sm: SmithDecomposition, length: int) -> tuple:
    """The Smith diagonal followed by zeros up to length entries."""
    return sm.diagonal + (0,) * (length - len(sm.diagonal))


# ---------------------------------------------------------------------------
# lattice solves (the one primitive behind membership, kernels, preimages)


def lattice_solve(a: IntMatrix, b):
    """One integer solution x of a @ x == b, or None."""
    b = tuple(map(operator.index, b))
    if len(b) != a.rows:
        raise ShapeMismatchError("rhs length mismatch")
    sm = smith_decomposition(a)
    y = [0] * a.cols
    for i, (row, d) in enumerate(zip(sm.u, padded_diagonal(sm, a.rows))):
        c = sum(x * b[k] for k, x in row)  # (u b)_i
        if d:
            if c % d:
                return None
            y[i] = c // d
        elif c:
            return None
    return tuple(_scatter(sm.v, y, a.cols))


def lattice_kernel(a: IntMatrix) -> IntMatrix:
    """Columns generate the lattice {x : a @ x == 0}: the columns of v at the
    zero entries of the padded Smith diagonal, the only columns of v made
    dense."""
    sm = smith_decomposition(a)
    free = []
    for col, d in zip(sm.v, padded_diagonal(sm, a.cols)):
        if not d:
            dense = [0] * a.cols
            for k, x in col:
                dense[k] = x
            free.append(tuple(dense))
    return IntMatrix(a.cols, len(free), _transposed(free, a.cols))


# ---------------------------------------------------------------------------
# groups


def _nonzero_columns(m: IntMatrix) -> tuple:
    """The nonzero (row, entry) pairs of each column of m."""
    return tuple(tuple((i, a) for i, a in enumerate(col) if a) for col in m.columns())


class FgAbGroup:
    """Finitely generated abelian group presented as Z^ngens / <relation columns>.

    >>> g = FgAbGroup.from_invariants(1, (2,))
    >>> g.pretty()
    'Z x Z/2'
    >>> g.element((0, 3)) == g.element((0, 1))
    True
    """

    def __init__(self, ngens: int, relations: IntMatrix | None = None):
        if relations is None:
            relations = IntMatrix.zeros(ngens, 0)
        if relations.rows != ngens:
            raise ShapeMismatchError("relations must have one row per generator")
        self.ngens = ngens
        self.relations = relations

    @staticmethod
    def free(rank: int) -> "FgAbGroup":
        return FgAbGroup(rank)

    @staticmethod
    def zero() -> "FgAbGroup":
        return FgAbGroup(0)

    @staticmethod
    def from_invariants(free_rank: int, torsion) -> "FgAbGroup":
        """Canonical presentation: free generators first, then torsion."""
        torsion = tuple(map(operator.index, torsion))
        if any(d < 2 for d in torsion):
            raise ValueError("torsion coefficients must be >= 2")
        n = free_rank + len(torsion)
        cols = [
            tuple(d if i == free_rank + k else 0 for i in range(n))
            for k, d in enumerate(torsion)
        ]
        return FgAbGroup(n, IntMatrix.from_columns(cols, n))

    @cached_property
    def _smith(self) -> SmithDecomposition:
        return smith_decomposition(self.relations)

    @cached_property
    def _diag(self) -> tuple:
        return padded_diagonal(self._smith, self.ngens)

    @cached_property
    def free_rank(self) -> int:
        return sum(1 for d in self._diag if d == 0)

    @cached_property
    def torsion(self) -> tuple:
        return tuple(d for d in self._diag if d >= 2)

    def canonical(self) -> tuple:
        return (self.free_rank, self.torsion)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """Group order, or None if infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def pretty(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"

    @cached_property
    def _relation_columns(self) -> tuple:
        """The nonzero (row, entry) pairs of each relation column."""
        return _nonzero_columns(self.relations)

    @cached_property
    def _reduction(self) -> tuple:
        """(path, u columns, u_inv columns): how reduce computes u_inv (u x mod d).

        "free" when there are no relations (every x is its own
        representative), "diagonal" when u is the identity (reduce each x_i
        mod d_i), else "general" on the nonzero (row, entry) pairs of the
        columns of u (its sparse rows transposed) and u_inv, so reduce
        scatters only nonzero coordinates.
        """
        sm = self._smith  # on every path, so which Smith forms a run computes never depends on it
        if not self.relations.cols:
            return ("free", (), ())
        if all(row == ((i, 1),) for i, row in enumerate(sm.u)):
            return ("diagonal", (), ())
        return ("general", _sparse_transpose(sm.u, self.ngens), sm.u_inv)

    def reduce(self, coords) -> tuple:
        """Canonical representative of coords modulo the relation lattice.

        Coordinates must be integers (int or bool); a float or Fraction
        raises TypeError.  The general path adds x_j * u[:, j] for each
        nonzero x_j, takes each c_k mod d_k, then adds c_k * u_inv[:, k] for
        each nonzero c_k.
        """
        coords = tuple(map(operator.index, coords))
        if len(coords) != self.ngens:
            raise ShapeMismatchError("coordinate length mismatch")
        path, u, u_inv = self._reduction
        if path == "free":
            return coords
        if path == "diagonal":
            return tuple(x % d if d else x for x, d in zip(coords, self._diag))
        c = [0] * self.ngens
        for x, col in zip(coords, u):
            if x:
                for i, a in col:
                    c[i] += a * x
        out = [0] * self.ngens
        for ck, d, col in zip(c, self._diag, u_inv):
            if d:
                ck %= d
            if ck:
                for i, a in col:
                    out[i] += a * ck
        return tuple(out)

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, coords)

    def zero_element(self) -> "GroupElement":
        return self.element((0,) * self.ngens)

    @cached_property
    def _gens(self) -> tuple:
        return tuple(self.element(unit) for unit in _identity_rows(self.ngens))

    def gens(self) -> list["GroupElement"]:
        """The generators' elements, built once per group, in a new list on
        every call, so a caller may change its list."""
        return list(self._gens)

    def elements(self):
        """All elements; raises InfiniteGroupError if the group is infinite."""
        if self.free_rank:
            raise InfiniteGroupError(self.pretty())
        ranges = [range(d if d else 1) for d in self._diag]
        for c in itertools.product(*ranges):
            yield self.element(_scatter(self._smith.u_inv, c, self.ngens))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FgAbGroup):
            return NotImplemented
        return self.ngens == other.ngens and self.relations == other.relations

    def __hash__(self):
        return hash((self.ngens, self.relations))

    def __repr__(self):
        return f"<FgAbGroup {self.pretty()} on {self.ngens} gens>"


ZERO_GROUP = FgAbGroup(0)


class GroupElement(Frozen):
    """Element of an FgAbGroup, coordinates kept in canonical reduced form."""

    _fields = ("group", "coords")

    def __init__(self, group: FgAbGroup, coords: tuple):
        setfield(self, "group", group)
        setfield(self, "coords", group.reduce(coords))

    # the checkers compare elements in their innermost loops
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.group, self.coords) == (other.group, other.coords)
        return NotImplemented

    def __hash__(self):
        return hash((self.group, self.coords))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _same_group(self, other):
        if self.group != other.group:
            raise ShapeMismatchError("elements of different groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._same_group(other)
        return self.group.element(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._same_group(other)
        return self.group.element(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupElement":
        return self.group.element(tuple(-a for a in self.coords))

    def __mul__(self, k: int) -> "GroupElement":
        return self.group.element(tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    def __repr__(self):
        return f"<elt {self.coords} of {self.group.pretty()}>"


# ---------------------------------------------------------------------------
# homomorphisms


class GroupHom(Frozen):
    """Homomorphism src -> tgt given by a (tgt.ngens x src.ngens) matrix.

    Construction checks well-definedness: every relation of src must map
    into the relation lattice of tgt.  Each relation column's image is the
    sum of r * mat[:, k] over the column's nonzero (k, r) pairs, which src
    keeps once; it is reduced in tgt and must be zero.  Every column is
    checked, all-zero ones included.  Equality of homs is always taken
    modulo the target relations, never by raw matrix comparison.
    """

    _fields = ("src", "tgt", "mat")

    def __init__(self, src: FgAbGroup, tgt: FgAbGroup, mat: IntMatrix):
        setfield(self, "src", src)
        setfield(self, "tgt", tgt)
        setfield(self, "mat", mat)
        # perfbench/tracing.py counts hom checks by wrapping
        # GroupHom.__post_init__; calling it through self keeps every check
        # counted
        self.__post_init__()

    def __post_init__(self):
        """The shape and well-definedness checks."""
        if self.mat.rows != self.tgt.ngens or self.mat.cols != self.src.ngens:
            raise ShapeMismatchError(
                f"hom matrix must be {self.tgt.ngens}x{self.src.ngens}, "
                f"got {self.mat.rows}x{self.mat.cols}"
            )
        relation_columns = self.src._relation_columns
        if not relation_columns:
            return
        reduce, mat_cols, zero = self.tgt.reduce, self.mat.columns(), (0,) * self.tgt.ngens
        for j, pairs in enumerate(relation_columns):
            img = zero
            for k, r in pairs:
                img = [x + r * a for x, a in zip(img, mat_cols[k])]
            if any(reduce(img)):
                raise WellDefinednessError(
                    f"relation column {j} does not map into target relations"
                )

    @staticmethod
    def identity(group: FgAbGroup) -> "GroupHom":
        return GroupHom(group, group, IntMatrix.identity(group.ngens))

    @staticmethod
    def zero(src: FgAbGroup, tgt: FgAbGroup) -> "GroupHom":
        return GroupHom(src, tgt, IntMatrix.zeros(tgt.ngens, src.ngens))

    def __call__(self, x) -> GroupElement:
        if isinstance(x, GroupElement):
            if x.group != self.src:
                raise ShapeMismatchError("element not in hom source")
            x = x.coords
        return self.tgt.element(self.mat.apply(x))

    def __matmul__(self, other: "GroupHom") -> "GroupHom":
        """self after other."""
        if other.tgt != self.src:
            raise ShapeMismatchError("middle groups disagree in composition")
        return GroupHom(other.src, self.tgt, self.mat @ other.mat)

    def __add__(self, other: "GroupHom") -> "GroupHom":
        if self.src != other.src or self.tgt != other.tgt:
            raise ShapeMismatchError("hom addition needs equal src and tgt")
        return GroupHom(self.src, self.tgt, self.mat + other.mat)

    def __neg__(self) -> "GroupHom":
        return GroupHom(self.src, self.tgt, -self.mat)

    def __sub__(self, other: "GroupHom") -> "GroupHom":
        return self + (-other)

    def scaled(self, k: int) -> "GroupHom":
        return GroupHom(self.src, self.tgt, self.mat.scaled(k))

    def _agrees_with(self, other: "GroupHom") -> bool:
        """Whether self - other is the zero hom, one column at a time: each
        column difference reduces to zero in tgt.  Builds no difference hom."""
        reduce = self.tgt.reduce
        a, b = self.mat.entries, other.mat.entries
        if a == b:
            return True
        for j in range(self.src.ngens):
            if any(reduce([ra[j] - rb[j] for ra, rb in zip(a, b)])):
                return False
        return True

    def equals(self, other: "GroupHom") -> bool:
        if self.src != other.src or self.tgt != other.tgt:
            raise ShapeMismatchError("homs with different src/tgt")
        return self._agrees_with(other)

    def __eq__(self, other):
        if not isinstance(other, GroupHom):
            return NotImplemented
        if self.src != other.src or self.tgt != other.tgt:
            return False
        return self._agrees_with(other)

    def __hash__(self):
        cols = tuple(map(self.tgt.reduce, self.mat.columns()))
        return hash((self.src, self.tgt, cols))

    def __repr__(self):
        return f"<hom {self.src.pretty()} -> {self.tgt.pretty()}>"


# ---------------------------------------------------------------------------
# Hom groups with codecs


class HomGroup(Frozen):
    """The abelian group of homomorphisms src -> tgt with an element codec.

    Internally the group is presented with one generator per nontrivial
    cyclic summand of Hom, computed from the canonical decompositions of
    src and tgt.  decode/encode translate between elements and GroupHoms;
    both are additive and mutually inverse on equivalence classes.  A
    summand (j, i, order, coeff) stands for coeff * E_ji in the canonical
    bases: the hom u_tgt^-1 (coeff * E_ji) u_src.

    Both directions are closed forms with no matrix product, on the sparse
    Smith transforms.  decode adds e * coeff * u_tgt^-1[:, j] (outer)
    u_src[i, :] for each nonzero coordinate e and returns a checked
    GroupHom.  encode computes only the summand entries
    (u_tgt mat u_src^-1)[j][i], one row u_tgt[j] mat per target index j
    dotted with column i of u_src^-1, then _summand_coords takes them mod
    b_j and divides by coeff.  The integers equal those of the dense triple
    products.

    Zero homs take neither closed form: decode returns the codec's one zero
    hom (zero_hom, built and checked on first use, on this codec's src and
    tgt) for all-zero coordinates, and encode gives the group's zero
    element for a hom whose matrix has no nonzero entry, after the same
    shape check.
    """

    _fields = ("src", "tgt", "group", "summands")

    @cached_property
    def zero_hom(self) -> GroupHom:
        """The zero hom src -> tgt, the one decode returns for all-zero
        coordinates; it lives as long as the codec."""
        return GroupHom.zero(self.src, self.tgt)

    def decode(self, x) -> GroupHom:
        if isinstance(x, GroupElement):
            if x.group != self.group:
                raise ShapeMismatchError("element not in hom group")
            x = x.coords
        x = tuple(map(operator.index, x))
        if len(x) != self.group.ngens:
            raise ShapeMismatchError("coordinate length mismatch")
        if not any(x):
            return self.zero_hom
        u_inv, u = self.tgt._smith.u_inv, self.src._smith.u  # columns, rows
        rows = [[0] * self.src.ngens for _ in range(self.tgt.ngens)]
        for (j, i, _order, coeff), e in zip(self.summands, x):
            if e:
                e *= coeff
                right = u[i]
                for r, a in u_inv[j]:
                    out, a = rows[r], e * a
                    for c, b in right:
                        out[c] += a * b
        mat = IntMatrix(self.tgt.ngens, self.src.ngens, tuple(map(tuple, rows)))
        return GroupHom(self.src, self.tgt, mat)

    def encode(self, hom: GroupHom) -> GroupElement:
        return self.group.element(self.encode_coords(hom))

    def encode_coords(self, hom: GroupHom) -> list:
        """Coordinates of encode(hom), unreduced: zeros, with no product
        taken, for a hom whose matrix has no nonzero entry."""
        if hom.src != self.src or hom.tgt != self.tgt:
            raise ShapeMismatchError("hom does not match this Hom group")
        if not any(map(any, hom.mat.entries)):
            return [0] * self.group.ngens
        u, u_inv = self.tgt._smith.u, self.src._smith.u_inv  # rows, columns
        left = {}  # row j of u_tgt . mat, for each j a summand names
        for j, _i, _order, _coeff in self.summands:
            if j not in left:
                left[j] = _row_times(u[j], hom.mat)
        raws = (sum(left[j][r] * a for r, a in u_inv[i]) for j, i, _, _ in self.summands)
        return self._summand_coords(raws)

    def _summand_coords(self, raws) -> list:
        """Unreduced coordinates of the hom whose matrix in the canonical
        bases has the entries raws at the summands' (tgt_index, src_index):
        each entry is taken mod b_j, must then be divisible by the summand's
        coeff, and is divided by it."""
        b = self.tgt._diag
        coords = []
        for (j, _i, _order, coeff), raw in zip(self.summands, raws):
            bj = b[j]
            if bj == 0:
                coords.append(raw)
            else:
                r = raw % bj
                if r % coeff:
                    raise WellDefinednessError("matrix is not a well-defined hom")
                coords.append(r // coeff)
        return coords


@lru_cache(maxsize=HOM_GROUP_CACHE_SIZE)
def hom_group(src: FgAbGroup, tgt: FgAbGroup) -> HomGroup:
    """The group Hom(src, tgt) together with its element <-> hom codec."""
    a = src._diag
    b = tgt._diag
    summands = []
    orders = []
    for j in range(tgt.ngens):
        for i in range(src.ngens):
            ai, bj = a[i], b[j]
            if ai == 1 or bj == 1:
                continue
            if ai == 0 and bj == 0:
                summands.append((j, i, 0, 1))
                orders.append(0)
            elif ai == 0:
                summands.append((j, i, bj, 1))
                orders.append(bj)
            elif bj == 0:
                continue
            else:
                g = gcd(ai, bj)
                if g == 1:
                    continue
                summands.append((j, i, g, bj // g))
                orders.append(g)
    n = len(summands)
    cols = [
        tuple(o if r == k else 0 for r in range(n))
        for k, o in enumerate(orders)
        if o >= 2
    ]
    grp = FgAbGroup(n, IntMatrix.from_columns(cols, n))
    return HomGroup(src, tgt, grp, tuple(summands))


def induced_hom(
    source: HomGroup, target: HomGroup, pre: GroupHom | None = None, post: GroupHom | None = None
) -> GroupHom:
    """The map Hom(A,B) -> Hom(C,D), phi |-> post o phi o pre, on codec
    groups: the checked hom whose columns induced_columns computes."""
    cols = induced_columns(source, target, pre, post, {})
    return GroupHom(source.group, target.group, IntMatrix.from_columns(cols, target.group.ngens))


def induced_columns(source: HomGroup, target: HomGroup, pre, post, canonical: dict) -> list:
    """The columns of induced_hom(source, target, pre, post), each reduced in
    target.group, with no IntMatrix or GroupHom built.

    In the canonical bases (U_X the left Smith transform of X) the generator
    of source summand (j, i, order, coeff) is coeff * E_ji, and post o phi o
    pre becomes coeff * L E_ji R with L = U_D post U_B^-1 and R = U_A pre
    U_C^-1, a missing pre or post being the identity.  So the generator's
    image has the raw value coeff * L[j'][j] * R[i][i'] at target summand
    (j', i', order', coeff'), encoded as HomGroup.encode does: mod b_j',
    then divided by coeff'.  No hom is decoded per generator.

    L and R are each a map in the canonical bases of its own ends, so they
    depend on the map alone.  canonical is a dict id(map) -> those rows,
    filled here, so that a caller building many blocks from a few maps
    conjugates each once; it must not outlive the maps it names.
    """
    a, b = source.src, source.tgt
    if (pre is not None and pre.tgt != a) or (post is not None and post.src != b):
        raise ShapeMismatchError("middle groups disagree in composition")
    c = a if pre is None else pre.src
    d = b if post is None else post.tgt
    if c != target.src or d != target.tgt:
        raise ShapeMismatchError("hom does not match this Hom group")
    # with no pre, C == A so U_A U_C^-1 is the identity; likewise for post
    left = _identity_rows(b.ngens) if post is None else _canonical_rows(post, canonical)
    right = _identity_rows(a.ngens) if pre is None else _canonical_rows(pre, canonical)
    reduce, coords, summands = target.group.reduce, target._summand_coords, target.summands
    cols = []
    for j, i, _order, coeff in source.summands:
        r = right[i]
        cols.append(reduce(coords(coeff * left[jt][j] * r[it] for jt, it, _, _ in summands)))
    return cols


def _canonical_rows(h: GroupHom, canonical: dict) -> list:
    """The dense rows of U_tgt h U_src^-1, kept in canonical under id(h)."""
    rows = canonical.get(id(h))
    if rows is None:
        rows = canonical[id(h)] = _conjugated(h.tgt._smith.u, h.mat, h.src._smith.u_inv)
    return rows


# ---------------------------------------------------------------------------
# kernels, images, preimages, direct sums


class Subgroup(Frozen):
    """An abstract group with a chosen inclusion into an ambient group."""

    _fields = ("group", "inclusion")


def _preimage_gens(f: GroupHom) -> IntMatrix:
    """Columns generate {x : f(x) is a relation of f.tgt}: the x-parts of the
    lattice kernel of [f | R_tgt]."""
    return lattice_kernel(f.mat.hstack(f.tgt.relations)).top_rows(f.src.ngens)


def _image(f: GroupHom, preimage_gens: IntMatrix) -> Subgroup:
    """The image: generated by the images of the source generators, with
    relation lattice exactly preimage_gens, each column negated where its
    first nonzero entry is negative: relations -2 * I become 2 * I, which
    reduce on the diagonal path."""
    cols = [col if next(filter(None, col), 0) >= 0 else tuple(-x for x in col) for col in preimage_gens.columns()]
    im_group = FgAbGroup(f.src.ngens, IntMatrix.from_columns(cols, f.src.ngens))
    return Subgroup(im_group, GroupHom(im_group, f.tgt, f.mat))


def _kernel(f: GroupHom, preimage_gens: IntMatrix) -> Subgroup:
    """The kernel: the lattice preimage_gens, presented abstractly with its
    own relations (a second lattice kernel)."""
    r = preimage_gens.cols
    ker_rel = lattice_kernel(preimage_gens.hstack(f.src.relations)).top_rows(r)
    ker_group = FgAbGroup(r, ker_rel)
    return Subgroup(ker_group, GroupHom(ker_group, f.src, preimage_gens))


def kernel_image(f: GroupHom) -> tuple[Subgroup, Subgroup]:
    """Kernel and image of f, each as (abstract group, inclusion hom), on one
    lattice kernel of [f | R_tgt].  kernel and image each build only their
    own half: kernel never reduces in f.tgt, and image computes no second
    lattice kernel."""
    preimage_gens = _preimage_gens(f)
    im = _image(f, preimage_gens)
    return _kernel(f, preimage_gens), im


def kernel(f: GroupHom) -> Subgroup:
    return _kernel(f, _preimage_gens(f))


def image(f: GroupHom) -> Subgroup:
    return _image(f, _preimage_gens(f))


def hom_preimage(f: GroupHom, y: GroupElement):
    """Some x with f(x) == y, or None."""
    if y.group != f.tgt:
        raise ShapeMismatchError("element not in hom target")
    a = f.mat.hstack(f.tgt.relations)
    sol = lattice_solve(a, y.coords)
    if sol is None:
        return None
    return f.src.element(sol[: f.src.ngens])


def is_surjective(f: GroupHom) -> bool:
    return all(hom_preimage(f, g) is not None for g in f.tgt.gens())


class DirectSum(Frozen):
    """The sum of parts; part k sits at coordinates offsets[k] onwards."""

    _fields = ("group", "parts", "offsets")


def direct_sum(parts) -> DirectSum:
    parts = tuple(parts)
    offsets = []
    total = 0
    for p in parts:
        offsets.append(total)
        total += p.ngens
    rel_cols = []
    for off, p in zip(offsets, parts):
        before, after = (0,) * off, (0,) * (total - off - p.ngens)
        rel_cols += [before + col + after for col in p.relations.columns()]
    grp = FgAbGroup(total, IntMatrix.from_columns(rel_cols, total))
    return DirectSum(grp, parts, tuple(offsets))

