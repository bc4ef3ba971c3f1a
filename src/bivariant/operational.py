"""Operational bivariant theory built from a covariant functor.

A class of degree i over f: X->Y is a family of homomorphisms
c_g: h_m(Y') -> h_{m-i}(X'_g), one per morphism g: Y'->Y and grade m,
where X'_g is the chosen pullback apex, compatible with pushforward along
every confined k: Y''->Y'.  The classes, their groups and operations are
the family engine of famsolve at covariant variance; this module adds the
comparison map from a tabulated theory and its checks.
"""

from __future__ import annotations

from .exactalg import GroupElement, GroupHom, IntMatrix, Subgroup, image, kernel
from .famsolve import (
    FamilyClass,
    FamilyGroup,
    FamilyTheory,
    ImageTransfer,
    NotSurjectiveError,
    comparison_hom,
    family_group,
    family_product,
    family_pullback,
    family_pushforward,
    family_transport,
    family_unit,
    image_transfer,
    require_variance,
    surjectivity_witness,
    verify_comparison_identities,
)
from .bivcore import GrothTransf, TabulatedBivTheory, verify_axioms
from .report import ReportBuilder, ValidationReport
from .site import GradedFunctor

OpClass = FamilyClass
NotCovariantSurjectiveError = NotSurjectiveError


def op_group(functor: GradedFunctor, base: str, degree: int) -> FamilyGroup:
    """Solve for all pushforward-compatible families over the base morphism."""
    return family_group(require_variance(functor, "cov"), base, degree)


# ---------------------------------------------------------------------------
# the three operations


def op_unit(functor: GradedFunctor, obj: str) -> OpClass:
    """Degree-zero identity family over id_X."""
    return family_unit(require_variance(functor, "cov"), obj)


def op_product(c: OpClass, d: OpClass) -> OpClass:
    """(c.d)_h := c_{h'} o d_h over the composite base."""
    return family_product(c, d)


def op_pushforward(c: OpClass, f: str, rest: str) -> OpClass:
    """(f_* c)_h := f'_* o c_h for confined f with c over rest o f."""
    return family_pushforward(c, f, rest)


def op_pullback(c: OpClass, g: str) -> OpClass:
    """(g^* c)_k := c_{g o k}, transported to the pasted apex."""
    return family_pullback(c, g)


def op_transport(cls: OpClass, new_base: str, iso: str) -> OpClass:
    """Move a class along an isomorphism of base morphisms (see family_transport)."""
    return family_transport(cls, new_base, iso)


# ---------------------------------------------------------------------------
# classes from a tabulated bivariant theory


def op_from_bivariant(b: TabulatedBivTheory, base: str, degree: int, alpha: GroupElement) -> OpClass:
    """The family g |-> (g^* alpha) . (-) acting on the covariant part of b."""
    site = b.site
    if alpha.group != b.group(base, degree):
        raise ValueError("element does not live in the stated bivariant group")
    h = b.covariant_part
    comps = {}
    for g in site.morphisms_into(site.tgt(base)):
        sq = site.chosen_pullback(base, g)
        galpha = b.pullback(base, g, degree, alpha)
        a_src = site.to_point(site.src(g))
        for m in h.grades():
            src = h.group(site.src(g), m)
            tgt = h.group(sq.apex, m - degree)
            cols = [
                b.product(sq.left, a_src, degree, -m, galpha, e).coords for e in src.gens()
            ]
            comps[(g, m)] = GroupHom(src, tgt, IntMatrix.from_columns(cols, tgt.ngens))
    return OpClass(h, base, degree, comps)


def evaluation(b: TabulatedBivTheory, c: OpClass) -> GroupElement:
    """ev(c) := c_{id_pt}(1_pt) for a class over some X -> pt."""
    site = b.site
    pt = site.final_object
    if site.tgt(c.base) != pt:
        raise ValueError("evaluation needs a class over a morphism to the final object")
    one = b.unit(pt)
    val = c.component(site.identity(pt), 0)(one)
    return b.group(c.base, c.degree).element(val.coords)


def op_hom(b: TabulatedBivTheory, base: str, degree: int, result: FamilyGroup | None = None) -> GroupHom:
    """The canonical map B(f)^i -> operational group, alpha |-> op(alpha)."""
    if result is None:
        result = op_group(b.covariant_part, base, degree)
    return comparison_hom(b, base, degree, result, op_from_bivariant)


def op_image_subgroup(b: TabulatedBivTheory, base: str, degree: int, result: FamilyGroup | None = None) -> Subgroup:
    """Image of op inside the operational group."""
    return image(op_hom(b, base, degree, result))


def covariant_surjectivity_witness(t: GrothTransf):
    """An (object, degree) where gamma fails to be onto on the covariant part, or None."""
    return surjectivity_witness(t, "cov")


def op_image_transfer(t: GrothTransf, base: str, degree: int, mode: str = "image") -> ImageTransfer:
    """Transfer on operational images; mode 'full' needs covariant surjectivity."""
    return image_transfer(t, base, degree, mode, "cov", op_hom)


# ---------------------------------------------------------------------------
# exhaustive verification suites


def verify_op_axioms(functor: GradedFunctor, degrees=None) -> ValidationReport:
    """Re-prove the seven axioms plus units for computed operational groups."""
    return verify_axioms(FamilyTheory(require_variance(functor, "cov"), degrees))


def verify_op_transform_identities(b: TabulatedBivTheory) -> ValidationReport:
    """op(a.b) = op(a).op(b), op(f_*a) = f_*op(a), op(g^*a) = g^*op(a) on generators."""
    return verify_comparison_identities(b, "cov", op_from_bivariant, lambda f: True)


def verify_point_isomorphism(b: TabulatedBivTheory) -> ValidationReport:
    """B_*(X) = B(X -> pt) embeds isomorphically onto the op image over X -> pt."""
    site = b.site
    rb = ReportBuilder()
    for x in site.objects:
        ax = site.to_point(x)
        for i in b.degrees():
            result = op_group(b.covariant_part, ax, i)
            oph = op_hom(b, ax, i, result)
            ker = kernel(oph)
            if not ker.group.is_trivial:
                rb.add("point-isomorphism", "op has nontrivial kernel over X -> pt", obj=x, i=i, kernel=ker.group.pretty())
            sub = image(oph)
            if sub.group.canonical() != b.group(ax, i).canonical():
                rb.add(
                    "point-isomorphism",
                    "image of op is not isomorphic to B(X -> pt)",
                    obj=x,
                    i=i,
                    image=sub.group.pretty(),
                    expected=b.group(ax, i).pretty(),
                )
            for a in b.group(ax, i).gens():
                back = evaluation(b, result.decode(oph(a)))
                if back != a:
                    rb.add("point-isomorphism", "ev(op(a)) != a", obj=x, i=i, a=a.coords)
    return rb.done()
