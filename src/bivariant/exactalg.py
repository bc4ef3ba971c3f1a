"""Exact integer linear algebra for finitely generated abelian groups.

Matrices are immutable tuples of Python ints, so arithmetic is exact at
arbitrary precision.  A group is a presentation Z^ngens modulo the column
lattice of an integer relations matrix.  A single primitive, the Smith
normal form with tracked unimodular transforms, drives everything else:
canonical forms, element reduction, lattice membership, kernels, images
and Hom groups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, cached_property
from math import gcd


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


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeMismatchError("negative dimensions")
        if len(self.entries) != self.rows or any(
            len(r) != self.cols for r in self.entries
        ):
            raise ShapeMismatchError("entry count does not match rows x cols")

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = tuple(tuple(int(x) for x in r) for r in rows)
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
    def diagonal(values, rows=None, cols=None) -> "IntMatrix":
        values = tuple(int(v) for v in values)
        r = len(values) if rows is None else rows
        c = len(values) if cols is None else cols
        return IntMatrix(
            r,
            c,
            tuple(
                tuple(values[i] if i == j and i < len(values) else 0 for j in range(c))
                for i in range(r)
            ),
        )

    @staticmethod
    def from_columns(cols, rows: int) -> "IntMatrix":
        cols = [tuple(int(x) for x in c) for c in cols]
        if any(len(c) != rows for c in cols):
            raise ShapeMismatchError("column length mismatch")
        return IntMatrix(
            rows, len(cols), tuple(tuple(c[i] for c in cols) for i in range(rows))
        )

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[tuple]:
        return [self.col(j) for j in range(self.cols)]

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
        """Matrix times column vector."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise ShapeMismatchError("vector length mismatch")
        return tuple(
            sum(a * x for a, x in zip(row, vec) if a and x) for row in self.entries
        )

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

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
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

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in r) for r in self.entries)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == (1 if i == j else 0)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ShapeMismatchError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                piv = next((i for i in range(k + 1, n) if a[i][k]), None)
                if piv is None:
                    return 0
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __str__(self):
        return "[" + "; ".join(" ".join(str(a) for a in r) for r in self.entries) + "]"


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithDecomposition:
    """u @ m @ v == d with u, v unimodular, d diagonal with a divisibility chain."""

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    def diagonal(self) -> tuple:
        n = min(self.d.rows, self.d.cols)
        return tuple(self.d.entries[i][i] for i in range(n))


@lru_cache(maxsize=None)
def smith_decomposition(m: IntMatrix) -> SmithDecomposition:
    """Deterministic Smith normal form with both transforms and their inverses.

    Pivot selection always takes the smallest nonzero absolute value in the
    remaining block, ties broken in row-major order, so the output is
    bit-identical across runs.
    """
    R, C = m.rows, m.cols
    D = [list(r) for r in m.entries]
    U = [[1 if i == j else 0 for j in range(R)] for i in range(R)]
    Ui = [[1 if i == j else 0 for j in range(R)] for i in range(R)]
    V = [[1 if i == j else 0 for j in range(C)] for i in range(C)]
    Vi = [[1 if i == j else 0 for j in range(C)] for i in range(C)]

    def row_add(i, j, q):  # row_i += q * row_j
        D[i] = [a + q * b for a, b in zip(D[i], D[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
        for r in range(R):
            Ui[r][j] -= q * Ui[r][i]

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        for r in range(R):
            Ui[r][i], Ui[r][j] = Ui[r][j], Ui[r][i]

    def row_neg(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]
        for r in range(R):
            Ui[r][i] = -Ui[r][i]

    def col_add(j, i, q):  # col_j += q * col_i
        for r in range(R):
            D[r][j] += q * D[r][i]
        for r in range(C):
            V[r][j] += q * V[r][i]
        Vi[i] = [a - q * b for a, b in zip(Vi[i], Vi[j])]

    def col_swap(i, j):
        for r in range(R):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        for r in range(C):
            V[r][i], V[r][j] = V[r][j], V[r][i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    t = 0
    limit = min(R, C)
    while t < limit:
        best = None
        best_val = None
        for i in range(t, R):
            for j in range(t, C):
                x = D[i][j]
                if x and (best is None or abs(x) < best_val):
                    best, best_val = (i, j), abs(x)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        if D[t][t] < 0:
            row_neg(t)
        while True:
            p = D[t][t]
            k = next((i for i in range(t + 1, R) if D[i][t]), None)
            if k is not None:
                q = D[k][t] // p
                row_add(k, t, -q)
                if D[k][t]:
                    row_swap(t, k)  # remainder in (0, p) becomes new pivot
                continue
            k = next((j for j in range(t + 1, C) if D[t][j]), None)
            if k is not None:
                q = D[t][k] // p
                col_add(k, t, -q)
                if D[t][k]:
                    col_swap(t, k)
                continue
            bad = None
            for i in range(t + 1, R):
                if any(D[i][j] % p for j in range(t + 1, C)):
                    bad = i
                    break
            if bad is None:
                break
            row_add(t, bad, 1)
        t += 1

    mk = IntMatrix.from_rows
    return SmithDecomposition(mk(D), mk(U), mk(V), mk(Ui), mk(Vi))


def snf(m: IntMatrix):
    """(d, u, v) with u @ m @ v == d in Smith normal form."""
    s = smith_decomposition(m)
    return s.d, s.u, s.v


def padded_diagonal(sm: SmithDecomposition, length: int) -> tuple:
    diag = sm.diagonal()
    return diag + (0,) * (length - len(diag))


# ---------------------------------------------------------------------------
# lattice solves (the one primitive behind membership, kernels, preimages)


def lattice_solve(a: IntMatrix, b):
    """One integer solution x of a @ x == b, or None."""
    b = tuple(int(x) for x in b)
    if len(b) != a.rows:
        raise ShapeMismatchError("rhs length mismatch")
    sm = smith_decomposition(a)
    c = sm.u.apply(b)
    mn = min(a.rows, a.cols)
    y = [0] * a.cols
    for i in range(a.rows):
        d = sm.d.entries[i][i] if i < mn else 0
        if d:
            if c[i] % d:
                return None
            y[i] = c[i] // d
        elif c[i]:
            return None
    return sm.v.apply(y)


def lattice_contains(a: IntMatrix, b) -> bool:
    return lattice_solve(a, b) is not None


def lattice_kernel(a: IntMatrix) -> IntMatrix:
    """Columns generate the lattice {x : a @ x == 0}."""
    sm = smith_decomposition(a)
    mn = min(a.rows, a.cols)
    free = [
        j for j in range(a.cols) if j >= mn or sm.d.entries[j][j] == 0
    ]
    return IntMatrix.from_columns([sm.v.col(j) for j in free], a.cols)


# ---------------------------------------------------------------------------
# groups


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
        torsion = tuple(int(d) for d in torsion)
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

    def reduce(self, coords) -> tuple:
        """Canonical representative of coords modulo the relation lattice."""
        coords = tuple(int(x) for x in coords)
        if len(coords) != self.ngens:
            raise ShapeMismatchError("coordinate length mismatch")
        c = list(self._smith.u.apply(coords))
        for i, d in enumerate(self._diag):
            if d:
                c[i] %= d
        return self._smith.u_inv.apply(c)

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, tuple(int(x) for x in coords))

    def zero_element(self) -> "GroupElement":
        return self.element((0,) * self.ngens)

    def gens(self) -> list["GroupElement"]:
        return [
            self.element(tuple(1 if j == i else 0 for j in range(self.ngens)))
            for i in range(self.ngens)
        ]

    def elements(self):
        """All elements; raises InfiniteGroupError if the group is infinite."""
        if self.free_rank:
            raise InfiniteGroupError(self.pretty())
        ranges = [range(d if d else 1) for d in self._diag]
        for c in itertools.product(*ranges):
            yield self.element(self._smith.u_inv.apply(c))

    def __eq__(self, other):
        if not isinstance(other, FgAbGroup):
            return NotImplemented
        return self.ngens == other.ngens and self.relations == other.relations

    def __hash__(self):
        return hash((self.ngens, self.relations))

    def __repr__(self):
        return f"<FgAbGroup {self.pretty()} on {self.ngens} gens>"


ZERO_GROUP = FgAbGroup(0)


@dataclass(frozen=True)
class GroupElement:
    """Element of an FgAbGroup, coordinates kept in canonical reduced form."""

    group: FgAbGroup
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", self.group.reduce(self.coords))

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


@dataclass(frozen=True, eq=False)
class GroupHom:
    """Homomorphism src -> tgt given by a (tgt.ngens x src.ngens) matrix.

    Construction checks well-definedness: every relation of src must map
    into the relation lattice of tgt.  Equality of homs is always taken
    modulo the target relations, never by raw matrix comparison.
    """

    src: FgAbGroup
    tgt: FgAbGroup
    mat: IntMatrix

    def __post_init__(self):
        if self.mat.rows != self.tgt.ngens or self.mat.cols != self.src.ngens:
            raise ShapeMismatchError(
                f"hom matrix must be {self.tgt.ngens}x{self.src.ngens}, "
                f"got {self.mat.rows}x{self.mat.cols}"
            )
        for j in range(self.src.relations.cols):
            img = self.mat.apply(self.src.relations.col(j))
            if not self.tgt.element(img).is_zero:
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

    @property
    def is_zero_hom(self) -> bool:
        return all(
            self.tgt.element(self.mat.col(j)).is_zero for j in range(self.src.ngens)
        )

    def equals(self, other: "GroupHom") -> bool:
        if self.src != other.src or self.tgt != other.tgt:
            raise ShapeMismatchError("homs with different src/tgt")
        return (self - other).is_zero_hom

    def __eq__(self, other):
        if not isinstance(other, GroupHom):
            return NotImplemented
        if self.src != other.src or self.tgt != other.tgt:
            return False
        return (self - other).is_zero_hom

    def __hash__(self):
        cols = tuple(self.tgt.reduce(self.mat.col(j)) for j in range(self.src.ngens))
        return hash((self.src, self.tgt, cols))

    def __repr__(self):
        return f"<hom {self.src.pretty()} -> {self.tgt.pretty()}>"


# ---------------------------------------------------------------------------
# Hom groups with codecs


@dataclass(frozen=True)
class HomGroup:
    """The abelian group of homomorphisms src -> tgt with an element codec.

    Internally the group is presented with one generator per nontrivial
    cyclic summand of Hom, computed from the canonical decompositions of
    src and tgt.  decode/encode translate between elements and GroupHoms;
    both are additive and mutually inverse on equivalence classes.
    """

    src: FgAbGroup
    tgt: FgAbGroup
    group: FgAbGroup
    summands: tuple  # (tgt_index, src_index, order, coeff) in canonical bases

    def decode(self, x) -> GroupHom:
        if isinstance(x, GroupElement):
            if x.group != self.group:
                raise ShapeMismatchError("element not in hom group")
            x = x.coords
        x = tuple(int(v) for v in x)
        if len(x) != self.group.ngens:
            raise ShapeMismatchError("coordinate length mismatch")
        rows = [[0] * self.src.ngens for _ in range(self.tgt.ngens)]
        for (j, i, _order, coeff), e in zip(self.summands, x):
            rows[j][i] = e * coeff
        mp = IntMatrix(self.tgt.ngens, self.src.ngens, tuple(tuple(r) for r in rows))
        mat = self.tgt._smith.u_inv @ mp @ self.src._smith.u
        return GroupHom(self.src, self.tgt, mat)

    def decode_gen(self, k: int) -> GroupHom:
        return self.decode(tuple(1 if i == k else 0 for i in range(self.group.ngens)))

    def encode(self, hom: GroupHom) -> GroupElement:
        if hom.src != self.src or hom.tgt != self.tgt:
            raise ShapeMismatchError("hom does not match this Hom group")
        mp = self.tgt._smith.u @ hom.mat @ self.src._smith.u_inv
        b = self.tgt._diag
        coords = []
        for (j, i, _order, coeff) in self.summands:
            raw = mp.entries[j][i]
            bj = b[j]
            if bj == 0:
                coords.append(raw)
            else:
                r = raw % bj
                if r % coeff:
                    raise WellDefinednessError("matrix is not a well-defined hom")
                coords.append(r // coeff)
        return self.group.element(coords)


@lru_cache(maxsize=None)
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
    """The map Hom(A,B) -> Hom(C,D), phi |-> post o phi o pre, on codec groups."""
    cols = []
    for k in range(source.group.ngens):
        phi = source.decode_gen(k)
        if pre is not None:
            phi = phi @ pre
        if post is not None:
            phi = post @ phi
        cols.append(target.encode(phi).coords)
    mat = IntMatrix.from_columns(cols, target.group.ngens)
    return GroupHom(source.group, target.group, mat)


# ---------------------------------------------------------------------------
# kernels, images, direct sums, projections


@dataclass(frozen=True)
class Subgroup:
    """An abstract group with a chosen inclusion into an ambient group."""

    group: FgAbGroup
    inclusion: GroupHom

    @property
    def ambient(self) -> FgAbGroup:
        return self.inclusion.tgt

    def contains(self, x: GroupElement) -> bool:
        return hom_preimage(self.inclusion, x) is not None


def kernel_image(f: GroupHom) -> tuple[Subgroup, Subgroup]:
    """Kernel and image of f, each as (abstract group, inclusion hom)."""
    n = f.src.ngens
    stacked = f.mat.hstack(f.tgt.relations)
    null = lattice_kernel(stacked)
    preimage_gens = null.top_rows(n)  # columns generate {x : f(x) is a relation}

    # image: generated by the images of the source generators, with
    # relation lattice exactly the x-parts above
    im_group = FgAbGroup(n, preimage_gens)
    im = Subgroup(im_group, GroupHom(im_group, f.tgt, f.mat))

    # kernel: same lattice, now presented abstractly with its own relations
    r = preimage_gens.cols
    ker_rel = lattice_kernel(preimage_gens.hstack(f.src.relations)).top_rows(r)
    ker_group = FgAbGroup(r, ker_rel)
    ker = Subgroup(ker_group, GroupHom(ker_group, f.src, preimage_gens))
    return ker, im


def kernel(f: GroupHom) -> Subgroup:
    return kernel_image(f)[0]


def image(f: GroupHom) -> Subgroup:
    return kernel_image(f)[1]


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


def is_injective(f: GroupHom) -> bool:
    ker, _ = kernel_image(f)
    return ker.group.is_trivial


@dataclass(frozen=True)
class DirectSum:
    group: FgAbGroup
    parts: tuple
    offsets: tuple
    injections: tuple
    projections: tuple


def direct_sum(parts) -> DirectSum:
    parts = tuple(parts)
    offsets = []
    total = 0
    for p in parts:
        offsets.append(total)
        total += p.ngens
    rel_cols = []
    for off, p in zip(offsets, parts):
        for j in range(p.relations.cols):
            col = [0] * total
            for i, v in enumerate(p.relations.col(j)):
                col[off + i] = v
            rel_cols.append(tuple(col))
    grp = FgAbGroup(total, IntMatrix.from_columns(rel_cols, total))
    injections = []
    projections = []
    for off, p in zip(offsets, parts):
        inj_rows = [
            tuple(1 if (i - off) == j and off <= i < off + p.ngens else 0 for j in range(p.ngens))
            for i in range(total)
        ]
        injections.append(GroupHom(p, grp, IntMatrix.from_rows(inj_rows)))
        proj_rows = [
            tuple(1 if j == off + i else 0 for j in range(total)) for i in range(p.ngens)
        ]
        projections.append(GroupHom(grp, p, IntMatrix.from_rows(proj_rows)))
    return DirectSum(grp, parts, tuple(offsets), tuple(injections), tuple(projections))


def project_factor(sub: Subgroup, dsum: DirectSum, index: int) -> Subgroup:
    """Image of a subgroup of a direct sum under one coordinate projection."""
    if sub.ambient != dsum.group:
        raise ShapeMismatchError("subgroup does not live in the given direct sum")
    return image(dsum.projections[index] @ sub.inclusion)


def quotient_by(sub: Subgroup) -> FgAbGroup:
    """Ambient group modulo the subgroup: adjoin the inclusion columns as relations."""
    amb = sub.ambient
    return FgAbGroup(amb.ngens, amb.relations.hstack(sub.inclusion.mat))
