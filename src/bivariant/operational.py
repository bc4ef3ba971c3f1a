"""Operational bivariant theory built from a covariant functor.

A class of degree i over f: X->Y is a family of homomorphisms
c_g: h_m(Y') -> h_{m-i}(X'_g), one per morphism g: Y'->Y and grade m,
where X'_g is the chosen pullback apex, compatible with pushforward along
every confined k: Y''->Y'.  The classes, their groups and operations are
the family engine of famsolve at covariant variance; this module adds the
comparison map from a tabulated theory and its checks.
"""

from __future__ import annotations

from functools import partial

from .exactalg import GroupElement, GroupHom, IntMatrix
from .famsolve import (
    FamilyClass,
    FamilyGroup,
    FamilyTheory,
    ImageTransfer,
    comparison_hom,
    family_group,
    family_product,
    family_pullback,
    family_pushforward,
    family_transport,
    family_unit,
    image_transfer,
    require_variance,
    verify_comparison_isomorphism,
)
from .bivcore import GrothTransf, TabulatedBivTheory, verify_axioms, verify_transformation
from .report import ValidationReport
from .site import GradedFunctor

OpClass = FamilyClass


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


def op_hom(b: TabulatedBivTheory, base: str, degree: int) -> GroupHom:
    """The canonical map B(f)^i -> operational group, alpha |-> op(alpha)."""
    return comparison_hom(b, base, degree, op_group(b.covariant_part, base, degree), op_from_bivariant)


def op_image_transfer(t: GrothTransf, base: str, degree: int, mode: str) -> ImageTransfer:
    """Transfer on operational images; mode must be 'full', which needs
    covariant surjectivity."""
    return image_transfer(t, base, degree, mode, "cov", op_hom)


# ---------------------------------------------------------------------------
# exhaustive verification suites


def verify_op_axioms(functor: GradedFunctor) -> ValidationReport:
    """Re-prove the seven axioms plus units for computed operational groups."""
    return verify_axioms(FamilyTheory(require_variance(functor, "cov")))


def verify_op_transform_identities(b: TabulatedBivTheory) -> ValidationReport:
    """op(a.b) = op(a).op(b), op(f_*a) = f_*op(a), op(g^*a) = g^*op(a) on generators."""
    phi = partial(op_from_bivariant, b)
    return verify_transformation(b, FamilyTheory(b.covariant_part), phi, "op", "op")


def verify_point_isomorphism(b: TabulatedBivTheory) -> ValidationReport:
    """B_*(X) = B(X -> pt) embeds isomorphically onto the op image over X -> pt."""
    return verify_comparison_isomorphism(b, "cov", op_from_bivariant)
