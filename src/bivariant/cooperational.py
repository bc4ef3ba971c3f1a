"""Co-operational bivariant theory built from a contravariant functor.

A class of degree i over f: X->Y is a family of homomorphisms
c_g: F^m(X'_g) -> F^{m+i}(Y'), one per morphism g: Y'->Y and grade m,
compatible with pullback along every h: Y''->Y'.  Over an identity
morphism such a family is exactly a natural self-transformation, i.e. a
cohomology operation.  Classes, groups, operations and the comparison map
are famsolve's, bound below to their coop_* names at "contra".  This
module adds what has no operational mirror: the transfer subgroup along a
natural transformation, and cup and power families.
"""

from __future__ import annotations

import itertools
from functools import partial

from . import famsolve
from .exactalg import (
    FgAbGroup,
    GroupElement,
    GroupHom,
    direct_sum,
    hom_preimage,
    image,
    IntMatrix,
    kernel,
    kernel_image,
)
from .famsolve import (
    ConstraintSpec,
    TermSpec,
    _squares,
    family_product,
    family_pullback,
    family_pushforward,
    family_transport,
    require_variance,
)
from .bivcore import GrothTransf, TabulatedBivTheory
from .record import Frozen
from .report import ReportBuilder, ValidationReport
from .site import GradedFunctor, NaturalTransf

CoopClass = famsolve.FamilyClass
coop_from_bivariant = famsolve.coop_from_bivariant

coop_group = partial(famsolve.variance_group, "contra")
coop_unit = partial(famsolve.variance_unit, "contra")
coop_hom = partial(famsolve.comparison_map, "contra")
coop_image_transfer = partial(famsolve.image_transfer, "contra")
verify_coop_axioms = partial(famsolve.verify_family_axioms, "contra")
verify_coop_transform_identities = partial(famsolve.verify_comparison_identities, "contra")
verify_identity_isomorphism = partial(famsolve.verify_comparison_isomorphism, "contra")


class RingStructureError(ValueError):
    """The theory's identity-morphism groups do not form a commutative ring."""


# ---------------------------------------------------------------------------
# the three operations


def coop_product(c: CoopClass, d: CoopClass) -> CoopClass:
    """(c.d)_h := d_h o c_{h'} over the composite base."""
    return family_product(c, d)


def coop_pushforward(c: CoopClass, f: str, rest: str) -> CoopClass:
    """(f_* c)_h := c_h o (f')^*; no confined hypothesis is needed."""
    return family_pushforward(c, f, rest)


def coop_pullback(c: CoopClass, g: str) -> CoopClass:
    """(g^* c)_h := c_{g o h}, transported to the pasted apex."""
    return family_pullback(c, g)


def coop_transport(cls: CoopClass, new_base: str, iso: str) -> CoopClass:
    """Move a class along an isomorphism of base morphisms (see family_transport)."""
    return family_transport(cls, new_base, iso)


# ---------------------------------------------------------------------------
# classes compatible with a natural transformation (the transfer subgroup)


class CompanionSolutions(Frozen):
    """Affine solution set of companion classes d with T o c_g = d_g o T.

    particular None means the class admits no companion.  The homogeneous
    part is the subgroup {d : d_g o T = 0 for all g} inside the target
    co-operational group; solutions form the coset particular + homogeneous.
    """

    _fields = ("particular", "homogeneous", "target_result")

    @property
    def is_unique(self) -> bool:
        return self.particular is not None and self.homogeneous.group.is_trivial


class TransferSubgroupResult:
    """Classes of coop(F, f, i) whose components descend along T: F -> G.

    The link map L: coop(F) + coop(G) -> sum over (g, m) of
    Hom(F^m(X'_g), G^{m+i}(src g)), (c, d) |-> (T o c_g - d_g o T), decides
    everything: the subgroup is the projection of ker L onto the coop(F)
    coordinates, a class's companions are the coop(G) coordinates of the
    kernel elements over it, and the kernel of the projection holds the
    pairs (0, d) with d o T = 0.

    L is assembled with no class decoded: constraint_map on each group's
    FamilySolution writes one constraint per (g, m), T o c_g or -d_g o T, on
    its unknowns; times the group's kernel inclusion, with each column reduced
    in the link sum, that is L on the group's generators.
    """

    def __init__(self, transf: NaturalTransf, base: str, degree: int):
        require_variance(transf.src, "contra")
        self.transf = transf
        self.base = base
        self.degree = degree
        site = transf.site
        source = self.source_result = coop_group(transf.src, base, degree)
        target = self.target_result = coop_group(transf.tgt, base, degree)

        on_source, on_target = [], []  # per (g, m): T o c_g and -d_g o T
        for g in site.morphisms_into(site.tgt(base)):
            apex = site.chosen_pullback(base, g).apex
            for m in transf.src.grades():
                after, before = transf.component(site.src(g), m + degree), transf.component(apex, m)
                on_source.append(ConstraintSpec((g, m), before.src, after.tgt, (TermSpec(1, (g, m), post=after),)))
                on_target.append(ConstraintSpec((g, m), before.src, after.tgt, (TermSpec(-1, (g, m), pre=before),)))
        cols = []
        for result, constraints in ((source, on_source), (target, on_target)):
            # both halves keep the same links, so they land in one sum
            _, _, links, half = result.solution.constraint_map(constraints)
            lifted = half.mat @ result.solution.kernel.inclusion.mat
            cols += map(links.group.reduce, lifted.columns())
        pairs = direct_sum([source.group, target.group]).group
        ker = kernel(GroupHom(pairs, links.group, IntMatrix.from_columns(cols, links.group.ngens)))

        # the coop(F) and coop(G) coordinates of ker L
        lift, n = ker.inclusion.mat, source.group.ngens
        self._proj = GroupHom(ker.group, source.group, lift.top_rows(n))
        self._companion = GroupHom(ker.group, target.group, IntMatrix(lift.rows - n, lift.cols, lift.entries[n:]))
        over_zero, self.subgroup = kernel_image(self._proj)
        self._homogeneous = image(self._companion @ over_zero.inclusion)

    def companions(self, c: CoopClass) -> CompanionSolutions:
        """All d in coop(G) with T o c_g = d_g o T, as a coset."""
        x = hom_preimage(self._proj, self.source_result.encode(c))
        particular = None if x is None else self.target_result.decode(self._companion(x))
        return CompanionSolutions(particular, self._homogeneous, self.target_result)


def transfer_subgroup(transf: NaturalTransf, base: str, degree: int) -> TransferSubgroupResult:
    return TransferSubgroupResult(transf, base, degree)


# ---------------------------------------------------------------------------
# cup classes and power families on multiplicative instances


def _ring_data(b: TabulatedBivTheory, obj: str) -> None:
    """Raise RingStructureError unless the identity-morphism products at obj
    commute, so that they form a commutative ring."""
    site = b.site
    idx = site.identity(obj)
    for m in b.degrees():
        for n in b.degrees():
            ga, gb = b.group(idx, m), b.group(idx, n)
            for a in ga.gens():
                for c in gb.gens():
                    left = b.product(idx, idx, m, n, a, c)
                    right = b.product(idx, idx, n, m, c, a)
                    if left != right:
                        raise RingStructureError(
                            f"identity products at {obj} are not commutative"
                        )


def ring_product(b: TabulatedBivTheory, obj: str, m: int, n: int, x: GroupElement, y: GroupElement) -> GroupElement:
    idx = b.site.identity(obj)
    return b.product(idx, idx, m, n, x, y)


def cup_class(b: TabulatedBivTheory, obj: str, degree: int, alpha: GroupElement) -> CoopClass:
    """coop(alpha) over id_X; components are cup products with g^* alpha.

    Raises RingStructureError when the identity-morphism products are not
    commutative, and asserts the closed cup form componentwise.
    """
    site = b.site
    _ring_data(b, obj)
    idx = site.identity(obj)
    cls = coop_from_bivariant(b, idx, degree, alpha)
    F = b.contravariant_part
    for g in site.morphisms_into(obj):
        xp = site.src(g)
        galpha = b.pullback(idx, g, degree, alpha)
        for m in F.grades():
            for x in F.group(xp, m).gens():
                expected = ring_product(b, xp, m, degree, x, galpha)
                if cls.component(g, m)(x) != expected:
                    raise RingStructureError("cup component disagrees with the ring product")
    return cls


class MapFamily:
    """A family of plain maps (not required additive) over an identity morphism.

    Components send F^m(X') to F^{k m}(X') for the power family; naturality
    is required exactly as for additive classes, additivity is not.
    """

    def __init__(self, functor: GradedFunctor, base: str, components: dict, grade_out, poly_degree: int):
        self.functor = functor
        self.base = base
        self.components = components  # (g, m) -> callable GroupElement -> GroupElement
        self.grade_out = grade_out  # m -> output grade
        self.poly_degree = poly_degree

    def component(self, g: str, m: int):
        return self.components[(g, m)]


def power_family(b: TabulatedBivTheory, obj: str, k: int) -> MapFamily:
    """The k-fold product map x |-> x^k as a family over id_X."""
    if k < 1:
        raise ValueError("power must be at least 1")
    site = b.site
    _ring_data(b, obj)
    idx = site.identity(obj)
    F = b.contravariant_part

    def make(xp, m):
        def run(x: GroupElement) -> GroupElement:
            acc = x
            for step in range(1, k):
                acc = ring_product(b, xp, m * step, m, acc, x)
            return acc

        return run

    comps = {}
    for g in site.morphisms_into(obj):
        xp = site.src(g)
        for m in F.grades():
            comps[(g, m)] = make(xp, m)
    return MapFamily(F, idx, comps, lambda m: k * m, k)


def _sample_points(group: FgAbGroup, poly_degree: int):
    if group.order() is not None:
        return list(group.elements())
    return [group.element(c) for c in itertools.product(range(poly_degree + 1), repeat=group.ngens)]


def power_naturality_report(fam: MapFamily) -> ValidationReport:
    """Check the same commuting squares as for additive classes, pointwise.

    For finite groups the check is exhaustive; for free groups it covers a
    grid that determines any coordinatewise polynomial map of the declared
    degree.
    """
    rb = ReportBuilder()
    F, site = fam.functor, fam.functor.site
    obj = site.tgt(fam.base)
    for g in site.morphisms_into(obj):
        for h in site.morphisms_into(site.src(g)):
            if site.is_identity(h):
                continue
            gh = site.compose(g, h)
            for m in F.grades():
                out = fam.grade_out(m)
                if not (F.window[0] <= out <= F.window[1]):
                    continue
                for x in _sample_points(F.group(site.src(g), m), fam.poly_degree):
                    lhs = fam.component(gh, m)(F.map(h, m)(x))
                    rhs = F.map(h, out)(fam.component(g, m)(x))
                    if lhs != rhs:
                        rb.add("power-naturality", "family does not commute with pullback", g=g, h=h, grade=m, x=x.coords)
    return rb.done()


class NonAdditivityWitness(Frozen):
    _fields = ("g", "grade", "x", "y", "lhs", "rhs")


def non_additivity_witness(fam: MapFamily) -> NonAdditivityWitness | None:
    """A concrete additivity failure, certifying the family is no hom family."""
    F, site = fam.functor, fam.functor.site
    obj = site.tgt(fam.base)
    for g in site.morphisms_into(obj):
        for m in F.grades():
            out = fam.grade_out(m)
            if not (F.window[0] <= out <= F.window[1]):
                continue
            grp = F.group(site.src(g), m)
            comp = fam.component(g, m)
            for x in grp.gens():
                for y in grp.gens():
                    lhs = comp(x + y)
                    rhs = comp(x) + comp(y)
                    if lhs != rhs:
                        return NonAdditivityWitness(g, m, x.coords, y.coords, lhs.coords, rhs.coords)
    return None


def cup_transform_compatibility(t: GrothTransf, obj: str, degree: int) -> ValidationReport:
    """t(x cup g^*a) = t(x) cup g^*(t(a)) for every generator pair, and the
    companion of a cup class over id_X is the cup class of the image element."""
    rb = ReportBuilder()
    site = t.site
    idx = site.identity(obj)
    for a in t.src.group(idx, degree).gens():
        ta = t(idx, degree, a)
        for g in site.morphisms_into(obj):
            xp = site.src(g)
            idxp = site.identity(xp)
            ga = t.src.pullback(idx, g, degree, a)
            tga = t.tgt.pullback(idx, g, degree, ta)
            for m in t.src.degrees():
                for x in t.src.group(idxp, m).gens():
                    lhs = t(idxp, m + degree, ring_product(t.src, xp, m, degree, x, ga))
                    rhs = ring_product(t.tgt, xp, m, degree, t(idxp, m, x), tga)
                    if lhs != rhs:
                        rb.add("cup-compatibility", "t(x cup g^*a) != t(x) cup g^*t(a)", obj=obj, g=g, a=a.coords, x=x.coords)
    return rb.done()


def naturality_cube_report(tsr: TransferSubgroupResult) -> ValidationReport:
    """All six faces of the compatibility cube for members with companions.

    Faces: source/target compatibility squares, the naturality squares of T
    along each compatibility square, and the linking square at each g into
    the base target (those at g o h included).
    """
    rb = ReportBuilder()
    transf = tsr.transf
    site = transf.site
    F, G = transf.src, transf.tgt
    for g, h, w, gh in _squares(F, tsr.base):
        apex = site.chosen_pullback(tsr.base, g).apex
        apex_gh = site.chosen_pullback(tsr.base, gh).apex
        for m in F.grades():
            if not (transf.component(apex_gh, m) @ F.map(w, m)).equals(G.map(w, m) @ transf.component(apex, m)):
                rb.add("naturality-cube", "T naturality face fails", g=g, h=h, grade=m)
    for idx, x in enumerate(tsr.subgroup.group.gens()):
        c = tsr.source_result.decode(tsr.subgroup.inclusion(x))
        sols = tsr.companions(c)
        if sols.particular is None:
            rb.add("naturality-cube", "member has no companion", gen=idx)
            continue
        d = sols.particular
        if not c.compatibility_report().ok:
            rb.add("naturality-cube", "source face fails", gen=idx)
        if not d.compatibility_report().ok:
            rb.add("naturality-cube", "target face fails", gen=idx)
        for g in site.morphisms_into(site.tgt(tsr.base)):
            apex = site.chosen_pullback(tsr.base, g).apex
            for m in F.grades():
                link = transf.component(site.src(g), m + tsr.degree) @ c.component(g, m)
                if not link.equals(d.component(g, m) @ transf.component(apex, m)):
                    rb.add("naturality-cube", "linking face at g fails", g=g, grade=m)
    return rb.done()
