"""Co-operational bivariant theory built from a contravariant functor.

A class of degree i over f: X->Y is a family of homomorphisms
c_g: F^m(X'_g) -> F^{m+i}(Y'), one per morphism g: Y'->Y and grade m,
compatible with pullback along every h: Y''->Y'.  Over an identity
morphism such a family is exactly a natural self-transformation, i.e. a
cohomology operation.  The classes, their groups and operations are the
family engine of famsolve at contravariant variance, where pushforward
needs no confined hypothesis; only the comparison map from a tabulated
theory does.  This module adds that comparison map, the transfer subgroup
along a natural transformation, and cup and power families.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import (
    FgAbGroup,
    GroupElement,
    GroupHom,
    Subgroup,
    image,
    IntMatrix,
    kernel,
)
from .famsolve import (
    ConstraintSpec,
    FamilyClass,
    FamilyGroup,
    FamilyTheory,
    ImageTransfer,
    SummandSpec,
    TermSpec,
    comparison_hom,
    family_group,
    family_product,
    family_pullback,
    family_pushforward,
    family_transport,
    family_unit,
    image_transfer,
    require_variance,
    solve_family,
    surjectivity_witness,
    verify_comparison_identities,
)
from .bivcore import GrothTransf, TabulatedBivTheory, verify_axioms
from .report import ReportBuilder, ValidationReport
from .site import GradedFunctor, NaturalTransf, NonConfinedError

CoopClass = FamilyClass


class RingStructureError(ValueError):
    """The theory's identity-morphism groups do not form a commutative ring."""


def coop_group(functor: GradedFunctor, base: str, degree: int) -> FamilyGroup:
    """Solve for all pullback-compatible families over the base morphism."""
    return family_group(require_variance(functor, "contra"), base, degree)


# ---------------------------------------------------------------------------
# the three operations and the unit


def coop_unit(functor: GradedFunctor, obj: str) -> CoopClass:
    """The family of identity operations over id_X."""
    return family_unit(require_variance(functor, "contra"), obj)


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
# classes from a tabulated bivariant theory


def coop_from_bivariant(b: TabulatedBivTheory, base: str, degree: int, alpha: GroupElement) -> CoopClass:
    """The family g |-> f'_*((-) . g^* alpha) for confined base morphisms."""
    site = b.site
    if not site.is_confined(base):
        raise NonConfinedError("comparison classes need a confined base morphism")
    if alpha.group != b.group(base, degree):
        raise ValueError("element does not live in the stated bivariant group")
    F = b.contravariant_part
    comps = {}
    for g in site.morphisms_into(site.tgt(base)):
        sq = site.chosen_pullback(base, g)
        if not site.is_confined(sq.left):
            raise NonConfinedError("base change of the base morphism is not confined")
        galpha = b.pullback(base, g, degree, alpha)
        id_apex = site.identity(sq.apex)
        id_src = site.identity(site.src(g))
        for m in F.grades():
            src = F.group(sq.apex, m)
            tgt = F.group(site.src(g), m + degree)
            cols = []
            for e in src.gens():
                prod = b.product(id_apex, sq.left, m, degree, e, galpha)
                cols.append(b.pushforward(sq.left, id_src, m + degree, prod).coords)
            comps[(g, m)] = GroupHom(src, tgt, IntMatrix.from_columns(cols, tgt.ngens))
    return CoopClass(F, base, degree, comps)


def identity_recovery(b: TabulatedBivTheory, c: CoopClass, obj: str) -> GroupElement:
    """Recover alpha from coop(alpha) over id_X by applying c_{id} to the unit."""
    site = b.site
    idx = site.identity(obj)
    if c.base != idx:
        raise ValueError("recovery needs a class over an identity morphism")
    val = c.component(idx, 0)(b.unit(obj))
    return b.group(idx, c.degree).element(val.coords)


def coop_hom(b: TabulatedBivTheory, base: str, degree: int, result: FamilyGroup | None = None) -> GroupHom:
    """The canonical map B(f)^i -> co-operational group, alpha |-> coop(alpha)."""
    if result is None:
        result = coop_group(b.contravariant_part, base, degree)
    return comparison_hom(b, base, degree, result, coop_from_bivariant)


def coop_image_subgroup(b: TabulatedBivTheory, base: str, degree: int, result: FamilyGroup | None = None) -> Subgroup:
    return image(coop_hom(b, base, degree, result))


def contravariant_surjectivity_witness(t: GrothTransf):
    """An (object, degree) where gamma fails to be onto on the contravariant part."""
    return surjectivity_witness(t, "contra")


def coop_image_transfer(t: GrothTransf, base: str, degree: int, mode: str = "image") -> ImageTransfer:
    """Transfer coop(alpha) |-> coop(gamma(alpha)) between coop images."""
    return image_transfer(t, base, degree, mode, "contra", coop_hom)


# ---------------------------------------------------------------------------
# classes compatible with a natural transformation (the transfer subgroup)


@dataclass(frozen=True)
class CompanionSolutions:
    """Affine solution set of companion classes d with T o c_g = d_g o T.

    particular None means the class admits no companion.  The homogeneous
    part is the subgroup {d : d_g o T = 0 for all g} inside the target
    co-operational group; solutions form the coset particular + homogeneous.
    """

    particular: CoopClass | None
    homogeneous: Subgroup
    target_result: FamilyGroup

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    @property
    def is_unique(self) -> bool:
        return self.particular is not None and self.homogeneous.group.is_trivial


class TransferSubgroupResult:
    """Classes of coop(F, f, i) whose components descend along T: F -> G.

    Membership is decided by solvability of the joint linear system in
    (c, d); the subgroup is the projection of the joint solution group
    onto the c coordinates.
    """

    def __init__(self, transf: NaturalTransf, base: str, degree: int):
        require_variance(transf.src, "contra")
        self.transf = transf
        self.base = base
        self.degree = degree
        site = transf.site
        self.source_result = coop_group(transf.src, base, degree)
        self.target_result = coop_group(transf.tgt, base, degree)

        f_sol = self.source_result.solution
        g_sol = self.target_result.solution

        summands = []
        for s in f_sol.summands:
            summands.append(SummandSpec(("F", s.key), s.src, s.tgt))
        for s in g_sol.summands:
            summands.append(SummandSpec(("G", s.key), s.src, s.tgt))

        constraints = []
        for c in f_sol.constraints:
            constraints.append(
                ConstraintSpec(
                    ("F", c.key),
                    c.src,
                    c.tgt,
                    tuple(TermSpec(t.sign, ("F", t.summand_key), t.pre, t.post) for t in c.terms),
                )
            )
        for c in g_sol.constraints:
            constraints.append(
                ConstraintSpec(
                    ("G", c.key),
                    c.src,
                    c.tgt,
                    tuple(TermSpec(t.sign, ("G", t.summand_key), t.pre, t.post) for t in c.terms),
                )
            )
        self._link_keys = []
        for g in site.morphisms_into(site.tgt(base)):
            apex = site.chosen_pullback(base, g).apex
            for m in transf.src.grades():
                src = transf.src.group(apex, m)
                tgt = transf.tgt.group(site.src(g), m + degree)
                key = ("link", (g, m))
                self._link_keys.append((g, m))
                constraints.append(
                    ConstraintSpec(
                        key,
                        src,
                        tgt,
                        (
                            TermSpec(1, ("F", (g, m)), None, transf.component(site.src(g), m + degree)),
                            TermSpec(-1, ("G", (g, m)), transf.component(apex, m), None),
                        ),
                    )
                )
        self.joint = solve_family(summands, constraints)

        # project the joint solutions onto the c coordinates, inside coop(F)
        cols = []
        for s in self.joint.group.gens():
            comps = self.joint.decode(s)
            c_part = {key[1]: hom for key, hom in comps.items() if key[0] == "F"}
            cols.append(f_sol.encode(c_part).coords)
        proj = GroupHom(
            self.joint.group, f_sol.group, IntMatrix.from_columns(cols, f_sol.group.ngens)
        )
        self.subgroup: Subgroup = image(proj)

    def contains(self, c: CoopClass) -> bool:
        x = self.source_result.encode(c)
        return self.subgroup.contains(x)

    def companions(self, c: CoopClass) -> CompanionSolutions:
        """All d in coop(G) with T o c_g = d_g o T, as a coset."""
        transf, site = self.transf, self.transf.site
        g_sol = self.target_result.solution
        link_rhs = {}
        for (g, m) in self._link_keys:
            link_rhs[(g, m)] = transf.component(site.src(g), m + self.degree) @ c.component(g, m)

        summands = list(g_sol.summands)
        constraints = list(g_sol.constraints)
        for (g, m) in self._link_keys:
            apex = site.chosen_pullback(self.base, g).apex
            constraints.append(
                ConstraintSpec(
                    ("link", (g, m)),
                    transf.src.group(apex, m),
                    transf.tgt.group(site.src(g), m + self.degree),
                    (TermSpec(1, (g, m), transf.component(apex, m), None),),
                )
            )
        system = solve_family(summands, constraints)
        rhs_homs = {("link", key): hom for key, hom in link_rhs.items()}
        u = system.solve_affine(rhs_homs)
        particular = None
        if u is not None:
            particular = CoopClass(
                transf.tgt, self.base, self.degree, system.decode_unknowns(u)
            )
        # homogeneous solutions, expressed inside coop(G)
        hom_cols = []
        for k in system.kernel.group.gens():
            comps = system.decode_unknowns(system.kernel.inclusion(k))
            hom_cols.append(g_sol.encode(comps).coords)
        to_coop_g = GroupHom(
            system.kernel.group,
            g_sol.group,
            IntMatrix.from_columns(hom_cols, g_sol.group.ngens),
        )
        return CompanionSolutions(particular, image(to_coop_g), self.target_result)


def transfer_subgroup(transf: NaturalTransf, base: str, degree: int) -> TransferSubgroupResult:
    return TransferSubgroupResult(transf, base, degree)


# ---------------------------------------------------------------------------
# cup classes and power families on multiplicative instances


def _ring_data(b: TabulatedBivTheory, obj: str):
    """Commutative ring structure on the identity-morphism groups at obj."""
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
    return idx


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


@dataclass
class MapFamily:
    """A family of plain maps (not required additive) over an identity morphism.

    Components send F^m(X') to F^{k m}(X') for the power family; naturality
    is required exactly as for additive classes, additivity is not.
    """

    functor: GradedFunctor
    base: str
    components: dict  # (g, m) -> callable GroupElement -> GroupElement
    grade_out: object  # m -> output grade
    poly_degree: int | None = None

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
    return MapFamily(F, idx, comps, lambda m: k * m, poly_degree=k)


def _sample_points(group: FgAbGroup, poly_degree, rng_seed=11):
    if group.order() is not None:
        return list(group.elements())
    if poly_degree is not None:
        import itertools

        return [
            group.element(c)
            for c in itertools.product(range(poly_degree + 1), repeat=group.ngens)
        ]
    import random

    rng = random.Random(rng_seed)
    return [
        group.element([rng.randint(-4, 4) for _ in range(group.ngens)]) for _ in range(16)
    ]


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


@dataclass(frozen=True)
class NonAdditivityWitness:
    g: str
    grade: int
    x: tuple
    y: tuple
    lhs: tuple
    rhs: tuple


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


# ---------------------------------------------------------------------------
# exhaustive verification suites


def verify_coop_axioms(functor: GradedFunctor, degrees=None) -> ValidationReport:
    """Re-prove the seven axioms plus units on computed co-operational groups."""
    return verify_axioms(FamilyTheory(require_variance(functor, "contra"), degrees))


def verify_coop_transform_identities(b: TabulatedBivTheory) -> ValidationReport:
    """coop(a.b) = coop(a).coop(b) and the pushforward/pullback analogues,
    over the confined bases, where coop(alpha) is defined."""
    return verify_comparison_identities(b, "contra", coop_from_bivariant, b.site.is_confined)


def verify_identity_isomorphism(b: TabulatedBivTheory) -> ValidationReport:
    """B^*(X) = B(id_X) embeds isomorphically onto the coop image over id_X."""
    site = b.site
    rb = ReportBuilder()
    for x in site.objects:
        idx = site.identity(x)
        for i in b.degrees():
            result = coop_group(b.contravariant_part, idx, i)
            ch = coop_hom(b, idx, i, result)
            ker = kernel(ch)
            if not ker.group.is_trivial:
                rb.add("identity-isomorphism", "coop has nontrivial kernel over id_X", obj=x, i=i, kernel=ker.group.pretty())
            sub = image(ch)
            if sub.group.canonical() != b.group(idx, i).canonical():
                rb.add(
                    "identity-isomorphism",
                    "image of coop is not isomorphic to B(id_X)",
                    obj=x,
                    i=i,
                    image=sub.group.pretty(),
                    expected=b.group(idx, i).pretty(),
                )
            for a in b.group(idx, i).gens():
                back = identity_recovery(b, result.decode(ch(a)), x)
                if back != a:
                    rb.add("identity-isomorphism", "recovered element differs", obj=x, i=i, a=a.coords)
    return rb.done()


def naturality_cube_report(tsr: TransferSubgroupResult) -> ValidationReport:
    """All six faces of the compatibility cube for members with companions.

    Faces: source/target compatibility squares, the naturality squares of T,
    and the two linking squares at g and g o h.
    """
    rb = ReportBuilder()
    transf = tsr.transf
    site = transf.site
    F, G = transf.src, transf.tgt
    target_obj = site.tgt(tsr.base)
    for idx, x in enumerate(tsr.subgroup.group.gens()):
        c = tsr.source_result.decode(tsr.subgroup.inclusion(x))
        sols = tsr.companions(c)
        if sols.particular is None:
            rb.add("naturality-cube", "member has no companion", gen=idx)
            continue
        d = sols.particular
        crep = c.compatibility_report()
        drep = d.compatibility_report()
        if not crep.ok:
            rb.add("naturality-cube", "source face fails", gen=idx)
        if not drep.ok:
            rb.add("naturality-cube", "target face fails", gen=idx)
        for g in site.morphisms_into(target_obj):
            apex = site.chosen_pullback(tsr.base, g).apex
            for h in site.morphisms_into(site.src(g)):
                if site.is_identity(h):
                    continue
                gh = site.compose(g, h)
                apex_gh = site.chosen_pullback(tsr.base, gh).apex
                for m in F.grades():
                    # naturality faces of T
                    w = site.compose(
                        site.cospan_paste(tsr.base, g, h).second.top,
                        site.cospan_paste(tsr.base, g, h).to_pasted,
                    )
                    topface = transf.component(apex_gh, m) @ F.map(w, m)
                    topface2 = G.map(w, m) @ transf.component(apex, m)
                    if not topface.equals(topface2):
                        rb.add("naturality-cube", "T naturality face fails", g=g, h=h, grade=m)
                    # linking faces at g and g o h
                    link_g = transf.component(site.src(g), m + tsr.degree) @ c.component(g, m)
                    link_g2 = d.component(g, m) @ transf.component(apex, m)
                    if not link_g.equals(link_g2):
                        rb.add("naturality-cube", "linking face at g fails", g=g, grade=m)
                    link_gh = transf.component(site.src(h), m + tsr.degree) @ c.component(gh, m)
                    link_gh2 = d.component(gh, m) @ transf.component(apex_gh, m)
                    if not link_gh.equals(link_gh2):
                        rb.add("naturality-cube", "linking face at g o h fails", g=g, h=h, grade=m)
    return rb.done()
