"""Independent oracles used to cross-check the library's computations.

These are deliberately naive: Laplace determinants, fraction-free row
reduction for ranks and determinants, exhaustive enumeration, composition
factor by factor.  None of them share code with the Smith-normal-form path
they verify, except smith_reference: the Smith form's elimination with
the full rescan of the remaining block at every step, the reference for
the library's bookkept one, which shares only its sparse axpy and its
output type.  The direct-sum injections and projections build the
reference constraint map that the assembled one is checked against; hom_difference_is_zero is the
reference for hom equality; dense_path is the reference for composing a
class's components, and the dense_* operations rebuild each class
operation's composites from the site's pastes, by the formulas of the
operation docstrings, with dense_path; identities_confined gives a site
the smallest confined class its axioms allow; joint_transfer_reference
solves a transfer as one constraint system in the pairs (c, d), with no
link map on solved groups, and decoded_link_reference builds that link map
by decoding every generator, composing it with T and encoding it back;
decoded_induced_hom builds each block of the constraint map the same way;
dense_decode and dense_encode are the Hom codec as dense triple products in
the canonical bases.  dense_transforms turns the sparse Smith transforms
into the dense U, V and U^-1 that every test reads; dense_lattice_solve,
dense_lattice_kernel and dense_reduce are the lattice solve, the lattice
kernel and element reduction as dense matrix-vector products on them, the
references for the library's sparse walks (they share the Smith form, not
its readers).  preimage_image_subtheory builds the image theory of a
Grothendieck transformation from the target's operations, solving for a
preimage of every table entry.  image_transfer_reference takes an image
transfer's images in the solved groups of classes, as image of
comparison_map.  contains, in_transfer_subgroup and
family_from_self_transformation read membership and build a class in ways
only the tests need.
"""

from itertools import combinations, product
from math import gcd

from bivariant.bivcore import TabulatedBivTheory
from bivariant.exactalg import (
    ZERO_GROUP,
    GroupHom,
    IntMatrix,
    SmithDecomposition,
    _axpy,
    direct_sum,
    hom_group,
    hom_preimage,
    image,
    kernel,
    kernel_image,
    padded_diagonal,
    smith_decomposition,
)
from bivariant.famsolve import ConstraintSpec, FamilyClass, FamilySolution, SummandSpec, TermSpec, comparison_map, family_group
from bivariant.site import Site


def naive_det(rows):
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, a in enumerate(rows[0]):
        if a == 0:
            continue
        minor = [[r[col] for col in range(n) if col != j] for r in rows[1:]]
        total += (-1) ** j * a * naive_det(minor)
    return total


def bareiss_det(rows):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination, with a row swap (and a sign flip) when a pivot is 0.

    After pivot k every row below it becomes (p * row - a * pivot row)
    divided by the previous pivot, as in rational_rank; the division is
    exact, and the last pivot is the determinant up to the swaps' sign.
    """
    m = [[int(x) for x in row] for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        top = m[k][k:]
        p = top[0]
        for i in range(k + 1, n):
            row = m[i][k:]
            a = row[0]
            m[i] = [0] * k + [(p * x - a * y) // prev for x, y in zip(row, top)]
        prev = p
    return sign * prev


def determinantal_divisors(rows, ncols):
    """Expected Smith diagonal from gcds of k x k minors.

    d_k = G_k / G_{k-1} where G_k is the gcd of all k x k minors; the list
    stops at the first k with G_k = 0.
    """
    nrows = len(rows)
    limit = min(nrows, ncols)
    divisors = []
    prev = 1
    for k in range(1, limit + 1):
        g = 0
        for rsel in combinations(range(nrows), k):
            for csel in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, naive_det(sub))
                if g == prev:
                    break
            if g == prev:
                break  # G_{k-1} divides G_k, so the gcd can sink no further
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    divisors += [0] * (limit - len(divisors))
    return divisors


def rational_rank(rows, ncols):
    """Rank over Q by fraction-free (Bareiss) elimination on integers.

    After each pivot every row below it becomes (p * row - a * pivot row)
    divided by the previous pivot, where p is the pivot and a the row's entry
    in the pivot column; the division is exact (Sylvester's identity), so
    every entry stays an integer minor of the input.
    """
    m = [[int(x) for x in row] for row in rows]
    nrows = len(m)
    rank = 0
    prev = 1
    for col in range(ncols):
        if rank == nrows:
            break
        piv = next((i for i in range(rank, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank][col:]
        p = top[0]
        for i in range(rank + 1, nrows):
            # entries left of col are already 0 in every row below the pivot
            row = m[i][col:]
            a = row[0]
            m[i] = [0] * col + [(p * x - a * y) // prev for x, y in zip(row, top)]
        prev = p
        rank += 1
    return rank


def naive_reduce(u_rows, u_inv_rows, diag, coords):
    """u_inv . (u . x mod d) with dense matrix-vector products, where d is
    the Smith diagonal padded to one entry per generator (0: no modulus)."""
    c = [sum(a * x for a, x in zip(row, coords)) for row in u_rows]
    c = [x % d if d else x for x, d in zip(c, diag)]
    return tuple(sum(a * x for a, x in zip(row, c)) for row in u_inv_rows)


def smith_reference(m: IntMatrix) -> SmithDecomposition:
    """smith_decomposition as a full rescan, uncached: the reference that
    the library's bookkept elimination must match entry for entry.

    Deterministic Smith normal form: its diagonal, u, v and u's inverse.

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


def _dense_vectors(vectors, length):
    """Sparse vectors of (index, entry) pairs as dense tuples of length entries."""
    out = []
    for vec in vectors:
        dense = [0] * length
        for k, x in vec:
            dense[k] = x
        out.append(tuple(dense))
    return out


def dense_transforms(s):
    """The dense (u, v, u_inv) of a Smith decomposition, whose transforms are
    sparse: u by its rows, v and u_inv by their columns."""
    rows, cols = len(s.u), len(s.v)
    u = IntMatrix(rows, rows, tuple(_dense_vectors(s.u, rows)))
    v = IntMatrix.from_columns(_dense_vectors(s.v, cols), cols)
    u_inv = IntMatrix.from_columns(_dense_vectors(s.u_inv, rows), rows)
    return u, v, u_inv


def dense_lattice_solve(a, b):
    """One integer x with a @ x == b, or None, by dense products on the Smith
    transforms: c = u b, y_i = c_i / d_i (c_i must vanish where d_i is 0 and
    be divisible by d_i elsewhere), x = v y."""
    s = smith_decomposition(a)
    u, v, _ = dense_transforms(s)
    y = [0] * a.cols
    for i, (c, d) in enumerate(zip(u.apply(b), padded_diagonal(s, a.rows))):
        if d:
            if c % d:
                return None
            y[i] = c // d
        elif c:
            return None
    return v.apply(y)


def dense_lattice_kernel(a):
    """The columns of the dense v at the zero entries of the padded Smith
    diagonal, as a matrix."""
    s = smith_decomposition(a)
    _, v, _ = dense_transforms(s)
    free = [col for col, d in zip(v.columns(), padded_diagonal(s, a.cols)) if not d]
    return IntMatrix.from_columns(free, a.cols)


def dense_reduce(group, coords):
    """naive_reduce on the dense Smith transforms of group's relations."""
    s = smith_decomposition(group.relations)
    u, _, u_inv = dense_transforms(s)
    return naive_reduce(u.entries, u_inv.entries, padded_diagonal(s, group.ngens), coords)


def hom_count_cyclic(a, b):
    """|Hom(Z/a, Z/b)| by enumerating generator images (a=0 means Z)."""
    if a == 0:
        return 0 if b == 0 else b  # infinite target handled by caller
    if b == 0:
        return 1  # only the zero map
    return sum(1 for x in range(b) if (a * x) % b == 0)


def enumerate_kernel(order_list, matrix_rows):
    """All coordinate tuples killed by an integer matrix acting on a finite
    direct sum of cyclic groups Z/order (order >= 1)."""
    out = []
    for coords in product(*[range(o) for o in order_list]):
        img = [sum(m * c for m, c in zip(row, coords)) for row in matrix_rows]
        if all(v % o == 0 for v, o in zip(img, order_list)):
            out.append(coords)
    return out


def random_well_defined_matrix(rng, src_invariants, tgt_invariants):
    """A matrix that is a well-defined hom between canonical-form groups.

    src_invariants/tgt_invariants are (free_rank, torsion) pairs; column i
    of the result sends source generator i somewhere legal: entries into a
    free target row vanish for torsion sources, entries into a Z/b row are
    multiples of b // gcd(a, b).
    """
    fr_s, tor_s = src_invariants
    fr_t, tor_t = tgt_invariants
    a_orders = [0] * fr_s + list(tor_s)
    b_orders = [0] * fr_t + list(tor_t)
    rows = []
    for bj in b_orders:
        row = []
        for ai in a_orders:
            if bj == 0:
                row.append(rng.randint(-5, 5) if ai == 0 else 0)
            else:
                step = bj // gcd(ai, bj) if ai else 1
                row.append(step * rng.randint(-5, 5))
        rows.append(row)
    return rows


def pointwise_restriction(sub, sup, coords):
    """Restrict a function on sup (given by coordinates) to sub."""
    lookup = dict(zip(sup, coords))
    return [lookup[x] for x in sub]


def pointwise_extension(sub, sup, coords):
    lookup = dict(zip(sub, coords))
    return [lookup.get(x, 0) for x in sup]


def pointwise_product(coords_a, coords_b):
    return [x * y for x, y in zip(coords_a, coords_b)]


def injections(dsum):
    """The inclusion hom of each part into a DirectSum."""
    total = dsum.group.ngens
    out = []
    for off, p in zip(dsum.offsets, dsum.parts):
        rows = [
            tuple(1 if (i - off) == j and off <= i < off + p.ngens else 0 for j in range(p.ngens))
            for i in range(total)
        ]
        out.append(GroupHom(p, dsum.group, IntMatrix(total, p.ngens, tuple(rows))))
    return tuple(out)


def projections(dsum):
    """The projection hom of a DirectSum onto each part."""
    total = dsum.group.ngens
    out = []
    for off, p in zip(dsum.offsets, dsum.parts):
        rows = [tuple(1 if j == off + i else 0 for j in range(total)) for i in range(p.ngens)]
        out.append(GroupHom(dsum.group, p, IntMatrix(p.ngens, total, tuple(rows))))
    return tuple(out)


def is_zero_matrix(m):
    """Whether every entry of an IntMatrix is 0."""
    return all(a == 0 for row in m.entries for a in row)


def is_zero_hom(h):
    """Whether every column of a GroupHom reduces to zero in its target."""
    return all(h.tgt.element(column).is_zero for column in h.mat.columns())


def hom_difference_is_zero(a, b):
    """Hom equality as GroupHom compared before it went column by column:
    build the checked homs -b and a + (-b), then reduce every column of the
    sum in the target."""
    return is_zero_hom(a + (-b))


def dense_path(functor, m, steps):
    """A path of maps composed one factor at a time with GroupHom @, identity
    and zero factors included.  Steps are listed from the leg side of a
    component to its apex side and are morphisms (acting through the
    functor) or (class, key morphism) pairs, as in famsolve; the maps apply
    from the leg side for a covariant functor and from the apex side for a
    contravariant one, and each component moves the grade by its class's
    degree (down for cov, up for contra)."""
    cov = functor.variance == "cov"
    acc = None
    for step in steps if cov else steps[::-1]:
        if isinstance(step, str):
            hom = functor.map(step, m)
        else:
            cls, g = step
            hom = cls.component(g, m)
            m += -cls.degree if cov else cls.degree
        acc = hom if acc is None else hom @ acc
    return acc


def dense_class(functor, base, degree, steps_by_key):
    """The class whose component at (key, m) is dense_path over the key's
    steps in grade m, zero components included."""
    comps = {(key, m): dense_path(functor, m, steps) for key, steps in steps_by_key.items() for m in functor.grades()}
    return FamilyClass(functor, base, degree, comps)


def dense_product(c, d):
    """(c.d)_h: d_h, then c over the pulled-back base, then the paste
    comparison to_direct of the tower paste of (c.base, d.base, h)."""
    site = c.site
    steps = {}
    for h in site.morphisms_into(site.tgt(d.base)):
        paste = site.tower_paste(c.base, d.base, h)
        steps[h] = [(d, h), (c, paste.first.top), paste.to_direct]
    return dense_class(c.functor, site.compose(d.base, c.base), c.degree + d.degree, steps)


def dense_pushforward(c, f, rest):
    """(f_* c)_h: c_h, then the paste comparison to_pasted of the tower paste
    of (f, rest, h) and the base change f' of f."""
    site = c.site
    steps = {}
    for h in site.morphisms_into(site.tgt(rest)):
        paste = site.tower_paste(f, rest, h)
        steps[h] = [(c, h), paste.to_pasted, paste.second.left]
    return dense_class(c.functor, rest, c.degree, steps)


def dense_pullback(c, g):
    """(g^* c)_k: c_(g o k), then the paste comparison to_pasted of the
    cospan paste of (c.base, g, k)."""
    site = c.site
    steps = {
        k: [(c, site.compose(g, k)), site.cospan_paste(c.base, g, k).to_pasted] for k in site.morphisms_into(site.src(g))
    }
    return dense_class(c.functor, site.chosen_pullback(c.base, g).left, c.degree, steps)


def dense_transport(cls, new_base, iso):
    """The class moved along iso: src(new_base) -> src(cls.base): c_k, then
    the one map from the apex over k of cls.base to the apex over k of
    new_base that matches iso^-1 on the top legs and is the identity on the
    left legs."""
    site = cls.site
    iso_inv = site.inverse_of(iso)
    steps = {}
    for k in site.morphisms_into(site.tgt(new_base)):
        new, old = site.chosen_pullback(new_base, k), site.chosen_pullback(cls.base, k)
        (v_inv,) = [
            u
            for u in site.hom(old.apex, new.apex)
            if site.compose(new.top, u) == site.compose(iso_inv, old.top) and site.compose(new.left, u) == old.left
        ]
        steps[k] = [(cls, k), v_inv]
    return dense_class(cls.functor, new_base, cls.degree, steps)


def identities_confined(site):
    """The same site with only its identities confined."""
    identities = {x: site.identity(x) for x in site.objects}
    return Site(
        site.objects, site.morphisms, identities, site._comp, identities.values(), site._pullbacks, site.final_object
    )


def joint_transfer_reference(transf, base, degree):
    """The transfer along transf from one FamilySolution in the pairs (c, d).

    Its unknowns and constraints are those of coop(F) and of coop(G), keyed
    ("F", key) and ("G", key), plus one link T o c_g - d_g o T per (g, m).
    Returns (joint solution, subgroup of coop(F), homogeneous part in
    coop(G)): the projection of the joint solutions onto their c halves, and
    the d halves of that projection's kernel.
    """
    site = transf.site
    source = family_group(transf.src, base, degree)
    target = family_group(transf.tgt, base, degree)
    summands, constraints = [], []
    for tag, sol in (("F", source.solution), ("G", target.solution)):
        summands.extend(SummandSpec((tag, s.key), s.src, s.tgt) for s in sol.summands)
        for c in sol.constraints:
            terms = tuple(TermSpec(t.sign, (tag, t.summand_key), t.pre, t.post) for t in c.terms)
            constraints.append(ConstraintSpec((tag, c.key), c.src, c.tgt, terms))
    for g in site.morphisms_into(site.tgt(base)):
        apex = site.chosen_pullback(base, g).apex
        for m in transf.src.grades():
            terms = (
                TermSpec(1, ("F", (g, m)), None, transf.component(site.src(g), m + degree)),
                TermSpec(-1, ("G", (g, m)), transf.component(apex, m), None),
            )
            src, tgt = transf.src.group(apex, m), transf.tgt.group(site.src(g), m + degree)
            constraints.append(ConstraintSpec(("link", (g, m)), src, tgt, terms))
    joint = FamilySolution(summands, constraints)

    def half_hom(tag, src, images, result):
        """src -> result.group, sending the k-th generator of src to the tag
        half of the k-th joint solution in images."""
        cols = []
        for x in images:
            half = {key[1]: hom for key, hom in joint.decode(x).items() if key[0] == tag}
            cols.append(result.solution.encode(half).coords)
        return GroupHom(src, result.group, IntMatrix.from_columns(cols, result.group.ngens))

    ker, subgroup = kernel_image(half_hom("F", joint.group, joint.group.gens(), source))
    homogeneous = image(half_hom("G", ker.group, map(ker.inclusion, ker.group.gens()), target))
    return joint, subgroup, homogeneous


def decoded_link_reference(transf, base, degree):
    """The transfer's link map L built class by class: every generator of
    coop(F) and of coop(G) decoded into a family, each component composed
    with T (T o c_g, and -d_g o T) and encoded back into the link sum.

    Returns what TransferSubgroupResult reads off ker L: the matrices of its
    coop(F) rows (_proj) and of its coop(G) rows (_companion), and the image
    of the first (subgroup).
    """
    site = transf.site
    source = family_group(transf.src, base, degree)
    target = family_group(transf.tgt, base, degree)
    links = {}  # (g, m) -> (T after c_g, T before d_g)
    for g in site.morphisms_into(site.tgt(base)):
        apex = site.chosen_pullback(base, g).apex
        for m in transf.src.grades():
            links[(g, m)] = (transf.component(site.src(g), m + degree), transf.component(apex, m))
    codecs = [hom_group(before.src, after.tgt) for after, before in links.values()]
    links_sum = direct_sum([hg.group for hg in codecs]).group

    def column(homs):
        return links_sum.element([x for hg, hom in zip(codecs, homs) for x in hg.encode(hom).coords]).coords

    cols = [column([after @ c.component(*k) for k, (after, _) in links.items()]) for c in source.decoded_gens()]
    cols += [column([-(d.component(*k) @ before) for k, (_, before) in links.items()]) for d in target.decoded_gens()]
    pairs = direct_sum([source.group, target.group]).group
    ker = kernel(GroupHom(pairs, links_sum, IntMatrix.from_columns(cols, links_sum.ngens)))
    lift, n = ker.inclusion.mat, source.group.ngens
    proj = lift.top_rows(n)
    companion = IntMatrix(lift.rows - n, lift.cols, lift.entries[n:])
    return proj, companion, image(GroupHom(ker.group, source.group, proj))


def decoded_induced_hom(source, target, pre=None, post=None):
    """The map Hom(A,B) -> Hom(C,D), phi |-> post o phi o pre, built by
    decoding every generator of the source codec into a checked hom,
    composing it with pre and post, and encoding it into the target codec."""
    cols = []
    for k in range(source.group.ngens):
        phi = source.decode(tuple(1 if i == k else 0 for i in range(source.group.ngens)))
        if pre is not None:
            phi = phi @ pre
        if post is not None:
            phi = post @ phi
        cols.append(target.encode(phi).coords)
    mat = IntMatrix.from_columns(cols, target.group.ngens)
    return GroupHom(source.group, target.group, mat)


def dense_decode(hg, coords):
    """The matrix of the hom with these codec coordinates: the summand
    matrix (coord * coeff at each summand's (tgt_index, src_index)) between
    the dense Smith transforms, u_inv_tgt @ that @ u_src."""
    rows = [[0] * hg.src.ngens for _ in range(hg.tgt.ngens)]
    for (j, i, _order, coeff), e in zip(hg.summands, coords):
        rows[j][i] = e * coeff
    mp = IntMatrix(hg.tgt.ngens, hg.src.ngens, tuple(tuple(r) for r in rows))
    return dense_transforms(hg.tgt._smith)[2] @ mp @ dense_transforms(hg.src._smith)[0]


def dense_encode(hg, hom):
    """The reduced codec coordinates of hom, read off the dense product
    u_tgt @ hom.mat @ u_inv_src at the summands' entries."""
    mp = dense_transforms(hg.tgt._smith)[0] @ hom.mat @ dense_transforms(hg.src._smith)[2]
    return hg.group.element(hg._summand_coords(mp.entries[j][i] for j, i, _, _ in hg.summands)).coords


def contains(sub, x):
    """Whether the element x of sub's ambient group lies in the subgroup sub."""
    return hom_preimage(sub.inclusion, x) is not None


def in_transfer_subgroup(tsr, cls):
    """Whether the class lies in the transfer subgroup of tsr."""
    return contains(tsr.subgroup, tsr.source_result.encode(cls))


def family_from_self_transformation(t, obj):
    """A natural self-transformation, read as a class over id_obj of degree 0."""
    if t.src is not t.tgt:
        raise ValueError("need a self-transformation")
    site = t.site
    comps = {}
    for g in site.morphisms_into(obj):
        for m in t.src.grades():
            comps[(g, m)] = t.component(site.src(g), m)
    return FamilyClass(t.src, site.identity(obj), 0, comps)


def preimage_image_subtheory(t):
    """The image theory of a valid Grothendieck transformation t, each table
    entry solved for: B'(f)'s product, pushforward or pullback of the images
    of generators, pulled back to the image group by a lattice solve.  Its
    unit over X is the solved preimage of gamma(1_X).  A degree sum outside
    the window lands in the zero group."""
    site = t.site
    degrees = list(t.src.degrees())
    subs = {(f.name, i): image(t.component(f.name, i)) for f in site.morphisms for i in degrees}
    groups = {key: sub.group for key, sub in subs.items()}

    def encode(key, elt):
        pre = hom_preimage(subs[key].inclusion, elt)
        assert pre is not None, f"image is not closed at {key}"
        return pre

    products = {}
    for f, g in site.composable_pairs():
        gf = site.compose(g, f)
        for i in degrees:
            for j in degrees:
                ga, gb, tgt = groups[(f, i)], groups[(g, j)], groups.get((gf, i + j), ZERO_GROUP)
                if ga.is_trivial or gb.is_trivial or tgt.is_trivial:
                    continue
                products[(f, g, i, j)] = tuple(
                    tuple(
                        encode((gf, i + j), t.tgt.product(f, g, i, j, subs[(f, i)].inclusion(a), subs[(g, j)].inclusion(b))).coords
                        for b in gb.gens()
                    )
                    for a in ga.gens()
                )

    def solved(hom, src_key, tgt_key):
        """hom of B' restricted to the image groups at src_key -> tgt_key."""
        src, tgt = groups[src_key], groups[tgt_key]
        cols = [encode(tgt_key, hom(subs[src_key].inclusion(a))).coords for a in src.gens()]
        return GroupHom(src, tgt, IntMatrix.from_columns(cols, tgt.ngens))

    pushforwards = {}
    for f, g in site.composable_pairs():
        if site.is_confined(f):
            gf = site.compose(g, f)
            for i in degrees:
                pushforwards[(f, g, i)] = solved(t.tgt.pushforward_hom(f, g, i), (gf, i), (g, i))
    pullbacks = {}
    for (f, g), sq in sorted(site._pullbacks.items()):
        for i in degrees:
            pullbacks[(f, g, i)] = solved(t.tgt.pullback_hom(f, g, i), (f, i), (sq.left, i))
    units = {}
    for x in site.objects:
        idx = site.identity(x)
        units[x] = encode((idx, 0), t(idx, 0, t.src.unit(x)))
    return TabulatedBivTheory(site, t.src.window, groups, products, pushforwards, pullbacks, units)


def image_transfer_reference(variance, t, base, degree):
    """(source, target, mapping matrix) of the image transfer along t, each
    image taken in its solved group of classes: image(comparison_map(...)).
    The mapping sends the source's generators, those of t.src's group, to
    their images under t."""
    source = image(comparison_map(variance, t.src, base, degree))
    target = image(comparison_map(variance, t.tgt, base, degree))
    cols = [t.component(base, degree)(a).coords for a in t.src.group(base, degree).gens()]
    return source, target, IntMatrix.from_columns(cols, target.group.ngens)
